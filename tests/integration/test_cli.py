"""The command-line interface, end to end."""

import numpy as np
import pytest

from repro.cli import main
from repro.deploy.serialization import save_quantized_model


@pytest.fixture(scope="module")
def model_file(trained_neuroc, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.npz"
    return str(save_quantized_model(trained_neuroc.quantized, path))


class TestInformational:
    def test_datasets_lists_all_four(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("digits_like", "mnist_like", "fashion_like",
                     "cifar5_like"):
            assert name in out

    def test_zoo_lists_tiers(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "mnist-large" in out
        assert "best for cifar5_like" in out


class TestModelCommands:
    def test_evaluate(self, model_file, capsys):
        assert main(
            ["evaluate", "--model", model_file, "--dataset", "digits_like"]
        ) == 0
        out = capsys.readouterr().out
        accuracy = float(out.strip().rsplit(" ", 1)[-1])
        assert accuracy > 0.85

    def test_evaluate_feature_mismatch(self, model_file, capsys):
        assert main(
            ["evaluate", "--model", model_file, "--dataset", "mnist_like"]
        ) == 1
        assert "features" in capsys.readouterr().err

    def test_deploy_with_exports(self, model_file, tmp_path, capsys):
        c_out = tmp_path / "engine.c"
        fw_out = tmp_path / "image.bin"
        assert main(
            [
                "deploy", "--model", model_file, "--format", "block",
                "--c-out", str(c_out), "--firmware-out", str(fw_out),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fits 128 KB flash: True" in out
        assert "neuroc_infer" in c_out.read_text()
        from repro.deploy.firmware import verify_firmware_image
        assert verify_firmware_image(fw_out.read_bytes()).crc_ok

    def test_encodings_table(self, model_file, capsys):
        assert main(["encodings", "--model", model_file]) == 0
        out = capsys.readouterr().out
        for fmt in ("csc", "delta", "mixed", "block"):
            assert fmt in out

    def test_missing_model_file(self, capsys):
        assert main(["evaluate", "--model", "/nope.npz"]) == 1
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_verify_reports_every_pass_and_exact_bounds(
        self, model_file, capsys
    ):
        assert main(
            ["verify", "--model", model_file, "--format", "block"]
        ) == 0
        out = capsys.readouterr().out
        for section in (
            "structure", "reachable", "discipline", "registers",
            "memory", "wcet", "measured",
        ):
            assert section in out
        assert "FAIL" not in out
        assert "model verified" in out
        # The discipline makes the static bound exact, not just tight.
        assert "bound/measured = 1.000" in out

    def test_deploy_over_budget_model_exits_2(
        self, rng, tmp_path, capsys
    ):
        from repro.kernels.spec import make_dense_spec
        from repro.quantize.ptq import QuantizedModel

        weights = rng.integers(-50, 50, (784, 400)).astype(np.int8)
        spec = make_dense_spec(
            weights, rng.integers(-5, 5, 400).astype(np.int32),
            mult=None, act_out_width=4, relu=False,
        )
        oversized = QuantizedModel(
            specs=[spec], input_scale=1 / 127, act_width=1
        )
        path = str(save_quantized_model(oversized, tmp_path / "big.npz"))
        assert main(["deploy", "--model", path]) == 2
        assert "does NOT fit" in capsys.readouterr().err
        assert main(["verify", "--model", path]) == 2
        assert "nothing to verify" in capsys.readouterr().err

    def test_verify_rejects_discipline_violation(
        self, model_file, monkeypatch, capsys
    ):
        # A hand-written kernel that branches on input data, smuggled in
        # behind the deploy() boundary to exercise the failure path.
        from types import SimpleNamespace

        from repro.mcu.board import STM32F072RB
        from repro.mcu.isa import Assembler, Reg
        from repro.mcu.memory import MemoryMap
        import repro.deploy.deployer as deployer_module

        asm = Assembler("rogue")
        asm.movi(Reg.R0, 0x2000_0000)
        asm.ldrsb(Reg.R1, Reg.R0, 0)
        asm.cmpi(Reg.R1, 0)
        asm.beq("skip")
        asm.movi(Reg.R2, 1)
        asm.label("skip")
        asm.halt()
        rogue = SimpleNamespace(
            program=asm.assemble(), memory=MemoryMap.stm32()
        )
        fake_model = SimpleNamespace(
            images=[rogue], board=STM32F072RB
        )
        real_deploy = deployer_module.deploy

        def fake_deploy(quantized, **kwargs):
            deployment = real_deploy(quantized, verify=False)
            object.__setattr__(deployment, "model", fake_model)
            return deployment

        monkeypatch.setattr(deployer_module, "deploy", fake_deploy)
        assert main(["verify", "--model", model_file]) == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "data-dependent" in captured.out
        assert "verification FAILED" in captured.err


class TestServeBench:
    def test_serve_bench_reports_fleet_metrics(
        self, model_file, tmp_path, capsys
    ):
        json_out = tmp_path / "metrics.json"
        assert main(
            [
                "serve-bench", "--model", model_file, "--devices", "2",
                "--requests", "40", "--rate", "500", "--seed", "3",
                "--json-out", str(json_out),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "offered 40" in out
        assert "throughput" in out
        assert "utilization" in out
        import json
        payload = json.loads(json_out.read_text())
        assert (
            payload["completed"] + payload["rejected"] + payload["failed"]
            == payload["offered"] == 40
        )
        assert "latency_ms" in payload["metrics"]["histograms"]

    def test_serve_bench_with_faults_conserves_requests(
        self, model_file, capsys
    ):
        assert main(
            [
                "serve-bench", "--model", model_file, "--devices", "2",
                "--requests", "30", "--rate", "500", "--seed", "7",
                "--brownout-rate", "0.3", "--retries", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "offered 30" in out


class TestMalformedModelFile:
    """Every model-reading subcommand turns a malformed file into one
    ``error:`` line and exit 1, with no traceback."""

    @pytest.fixture(params=["truncated", "junk"])
    def bad_model(self, request, model_file, tmp_path):
        path = tmp_path / "model.npz"
        if request.param == "truncated":
            raw = open(model_file, "rb").read()
            path.write_bytes(raw[: len(raw) // 2])
        else:
            path.write_bytes(b"not a model!")
        return str(path)

    @pytest.mark.parametrize(
        "command", ["verify", "deploy", "encodings", "serve-bench"]
    )
    def test_one_error_line_and_exit_1(self, command, bad_model, capsys):
        assert main([command, "--model", bad_model]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith("error: ") and bad_model in line


class TestTrain:
    def test_train_writes_a_loadable_model(self, tmp_path, capsys):
        out_file = tmp_path / "trained.npz"
        code = main(
            [
                "train", "--dataset", "digits_like", "--hidden", "24",
                "--threshold", "0.85", "--epochs", "8", "--lr", "0.01",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        from repro.deploy.serialization import load_quantized_model
        model = load_quantized_model(out_file)
        assert model.n_in == 64
        assert model.n_out == 10


class TestSearchCommand:
    def test_search_prints_funnel_and_writes_artifact(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.experiments.cache import clear_memory_cache

        clear_memory_cache()
        artifact = tmp_path / "frontier.json"
        assert main([
            "search", "--count", "4", "--stage2-epochs", "2",
            "--epochs", "3", "--n-train", "400", "--n-test", "150",
            "--out", str(artifact),
        ]) == 0
        out = capsys.readouterr().out
        assert "searched 4 candidates" in out
        assert "STM32F072RB" in out
        assert "frontier" in out
        payload = artifact.read_text()
        assert '"schema"' in payload and "search-v1" in payload

    def test_search_env_count_knob(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SEARCH_COUNT", "2")
        from repro.experiments.cache import clear_memory_cache

        clear_memory_cache()
        assert main([
            "search", "--count", "24", "--stage2-epochs", "2",
            "--epochs", "3", "--n-train", "400", "--n-test", "150",
        ]) == 0
        assert "searched 2 candidates" in capsys.readouterr().out


    @pytest.mark.parametrize("flag, value, message", [
        ("--slo-latency-ms", "0", "max_latency_ms must be positive"),
        ("--slo-latency-ms", "-5", "max_latency_ms must be positive"),
        ("--slo-flash-kb", "-1", "max_flash_kb must be positive"),
    ])
    def test_search_rejects_a_bad_slo_like_deploy(
        self, model_file, tmp_path, monkeypatch, capsys, flag, value,
        message,
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["deploy", "--model", model_file, flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["search", "--count", "2", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "searched" not in captured.out   # no stage ran


class TestCachePrune:
    def test_prune_lifecycle(self, tmp_path, monkeypatch, capsys):
        import json as _json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cache_root = tmp_path / "cache"
        cache_root.mkdir()
        for key in ("fig0-v1-a", "fig0-v2-b", "other-v1-c"):
            (cache_root / f"{key}.json").write_text(_json.dumps({}))

        assert main(["cache-prune", "--list"]) == 0
        out = capsys.readouterr().out
        assert "scanned 3 entries" in out and "would delete" in out

        assert main(["cache-prune", "--stale-schemas"]) == 0
        out = capsys.readouterr().out
        assert "deleted 1" in out
        assert not (cache_root / "fig0-v1-a.json").exists()
        assert (cache_root / "fig0-v2-b.json").exists()

        assert main(["cache-prune", "--prefix", "other-"]) == 0
        assert "deleted 1" in capsys.readouterr().out
        assert (cache_root / "fig0-v2-b.json").exists()
