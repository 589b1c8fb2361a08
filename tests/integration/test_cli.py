"""The command-line interface, end to end."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.deploy.serialization import save_quantized_model


@pytest.fixture(scope="module")
def model_file(trained_neuroc, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.npz"
    return str(save_quantized_model(trained_neuroc.quantized, path))


@pytest.fixture(scope="module")
def oversized_model_file(tmp_path_factory):
    """A dense 784x400 model: too big for the default board's flash."""
    from repro.kernels.spec import make_dense_spec
    from repro.quantize.ptq import QuantizedModel

    rng = np.random.default_rng(0)
    spec = make_dense_spec(
        rng.integers(-50, 50, (784, 400)).astype(np.int8),
        rng.integers(-5, 5, 400).astype(np.int32),
        mult=None, act_out_width=4, relu=False,
    )
    path = tmp_path_factory.mktemp("cli-big") / "big.npz"
    return str(save_quantized_model(
        QuantizedModel(specs=[spec], input_scale=1 / 127, act_width=1),
        path,
    ))


SMALL_SEARCH = ["--count", "4", "--n-train", "200", "--n-test", "60",
                "--stage2-epochs", "1", "--epochs", "1"]

#: One row per (subcommand, exit class) an input can reach: 0 success,
#: 1 a typed error, 2 a failed verdict, a model that does not fit, an
#: empty search frontier or an argparse usage error.  ``{model}`` is a
#: trained model, ``{big}`` one over the flash budget, ``{missing}`` no
#: file at all and ``{tmp}`` a fresh directory.
EXIT_TABLE = {
    "datasets-ok": (["datasets"], 0),
    "datasets-usage": (["datasets", "--bogus"], 2),
    "zoo-ok": (["zoo"], 0),
    "zoo-usage": (["zoo", "--bogus"], 2),
    "boards-ok": (["boards"], 0),
    "boards-usage": (["boards", "--bogus"], 2),
    "train-ok": (["train", "--hidden", "8", "--epochs", "1",
                  "--out", "{tmp}/m.npz"], 0),
    "train-error": (["train", "--epochs", "0", "--out", "{tmp}/m.npz"], 1),
    "train-usage": (["train", "--epochs", "one"], 2),
    "evaluate-ok": (["evaluate", "--model", "{model}"], 0),
    "evaluate-error": (["evaluate", "--model", "{missing}"], 1),
    "evaluate-usage": (["evaluate"], 2),
    "deploy-ok": (["deploy", "--model", "{model}"], 0),
    "deploy-error": (["deploy", "--model", "{missing}"], 1),
    "deploy-no-fit": (["deploy", "--model", "{big}"], 2),
    "deploy-usage": (["deploy", "--model", "{model}", "--format", "x"], 2),
    "encodings-ok": (["encodings", "--model", "{model}"], 0),
    "encodings-error": (["encodings", "--model", "{missing}"], 1),
    "encodings-usage": (["encodings"], 2),
    "report-ok": (["report", "--figures", "table1"], 0),
    "report-error": (["report", "--figures", "fig99"], 1),
    "report-usage": (["report", "--jobs", "many"], 2),
    "verify-ok": (["verify", "--model", "{model}"], 0),
    "verify-error": (["verify", "--model", "{missing}"], 1),
    "verify-no-fit": (["verify", "--model", "{big}"], 2),
    "verify-usage": (["verify", "--model", "{model}", "--board", "x"], 2),
    "search-ok": (["search", *SMALL_SEARCH], 0),
    "search-error": (["search", *SMALL_SEARCH, "--seed", "-1"], 1),
    "search-empty-frontier": (
        ["search", *SMALL_SEARCH, "--slo-flash-kb", "1"], 2
    ),
    "search-usage": (["search", "--count", "few"], 2),
    "cache-prune-ok": (["cache-prune", "--dry-run"], 0),
    "cache-prune-usage": (["cache-prune", "--bogus"], 2),
    "serve-bench-ok": (
        ["serve-bench", "--model", "{model}", "--requests", "40"], 0
    ),
    "serve-bench-error": (
        ["serve-bench", "--model", "{model}", "--charge-cycles", "0"], 1
    ),
    "serve-bench-usage": (
        ["serve-bench", "--model", "{model}", "--engine", "x"], 2
    ),
    "cluster-bench-ok": (
        ["cluster-bench", "--model", "{model}", "--requests", "40",
         "--fleets", "1", "--policies", "hash"], 0
    ),
    "cluster-bench-error": (
        ["cluster-bench", "--model", "{model}", "--devices", "0"], 1
    ),
    "cluster-bench-usage": (
        ["cluster-bench", "--model", "{model}", "--policies", "x"], 2
    ),
}


def test_exit_table_covers_every_subcommand():
    from repro.cli import _HANDLERS

    assert {args[0] for args, _ in EXIT_TABLE.values()} == set(_HANDLERS)


@pytest.mark.parametrize("case", sorted(EXIT_TABLE))
def test_exit_status(case, model_file, oversized_model_file, tmp_path,
                     monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    template, expected = EXIT_TABLE[case]
    args = [
        arg.format(model=model_file, big=oversized_model_file,
                   missing=tmp_path / "missing.npz", tmp=tmp_path)
        for arg in template
    ]
    try:
        status = main(args)
    except SystemExit as exc:       # argparse refuses before any handler
        status = exc.code
    assert status == expected
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error")]
    if expected == 1:
        assert len(errors) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err


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
        info = verify_firmware_image(fw_out.read_bytes())
        assert info.image_size == fw_out.stat().st_size

    @pytest.mark.parametrize("existing", [True, False])
    def test_refused_c_out_leaves_the_target_alone(
        self, trained_mlp, tmp_path, capsys, existing
    ):
        dense = save_quantized_model(
            trained_mlp.quantized, tmp_path / "dense.npz"
        )
        c_out = tmp_path / "dense.c"
        if existing:
            c_out.write_text("/* hand-written engine */\n")
        assert main(
            ["deploy", "--model", str(dense), "--c-out", str(c_out)]
        ) == 1
        assert "C generator targets Neuro-C models" in (
            capsys.readouterr().err
        )
        if existing:
            assert c_out.read_text() == "/* hand-written engine */\n"
        else:
            assert not c_out.exists()

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

    def test_faulty_devices_without_a_rate_change_nothing(
        self, model_file, tmp_path, capsys
    ):
        outputs = []
        for extra in ([], ["--faulty-devices", "1"]):
            json_out = tmp_path / f"metrics{len(extra)}.json"
            assert main([
                "serve-bench", "--model", model_file, "--devices", "2",
                "--requests", "40", "--rate", "500", "--seed", "3",
                "--json-out", str(json_out), *extra,
            ]) == 0
            outputs.append((
                capsys.readouterr().out.replace(str(json_out), "OUT"),
                json_out.read_bytes(),
            ))
        assert outputs[0] == outputs[1]


class TestMalformedArguments:
    """Bad numeric arguments end in one ``error:`` line and exit 1."""

    @pytest.mark.parametrize("args, message", [
        (["serve-bench", "--charge-cycles", "0"],
         "charge budget must be positive"),
        (["serve-bench", "--charge-cycles", "-3"],
         "charge budget must be positive"),
        (["serve-bench", "--brownout-rate", "0.3", "--faulty-devices", "9"],
         "fault plan names devices [9] outside range(4)"),
        (["serve-bench", "--devices", "2", "--brownout-rate", "0.3",
          "--faulty-devices", "1", "2", "5"],
         "fault plan names devices [2, 5] outside range(2)"),
        (["cluster-bench", "--devices", "0"], "need at least one device"),
        (["serve-bench", "--rate", "nan"], "arrival rate must be positive"),
        (["serve-bench", "--deadline-ms", "nan"],
         "deadline_ms must be positive, got nan"),
        (["cluster-bench", "--load-factor", "nan"],
         "arrival rate must be positive"),
        (["serve-bench", "--max-queue-wait-ms", "-1"],
         "max_queue_wait_ms must be positive, got -1.0"),
        (["serve-bench", "--max-queue-wait-ms", "0"],
         "max_queue_wait_ms must be positive, got 0.0"),
        (["serve-bench", "--max-queue-wait-ms", "nan"],
         "max_queue_wait_ms must be positive, got nan"),
        (["serve-bench", "--brownout-rate", "-0.1"],
         "brownout_rate must be in [0, 1], got -0.1"),
        (["serve-bench", "--brownout-rate", "nan"],
         "brownout_rate must be in [0, 1], got nan"),
        (["serve-bench", "--seed", "-1"],
         "seed must be non-negative, got -1"),
        (["cluster-bench", "--seed", "-1"],
         "seed must be non-negative, got -1"),
        (["serve-bench", "--faulty-devices", "9"],
         "fault plan names devices [9] outside range(4)"),
        (["serve-bench", "--devices", "2", "--faulty-devices", "1", "2", "5"],
         "fault plan names devices [2, 5] outside range(2)"),
        (["deploy", "--slo-latency-ms", "nan"],
         "max_latency_ms must be positive and finite, got nan"),
        (["deploy", "--slo-latency-ms", "inf"],
         "max_latency_ms must be positive and finite, got inf"),
        (["deploy", "--slo-flash-kb", "nan"],
         "max_flash_kb must be positive and finite, got nan"),
    ], ids=["charge-0", "charge-negative", "faulty-9-of-4",
            "faulty-2-5-of-2", "cluster-devices-0", "rate-nan",
            "deadline-nan", "cluster-load-nan", "queue-wait-negative",
            "queue-wait-0", "queue-wait-nan", "brownout-negative",
            "brownout-nan", "seed-negative", "cluster-seed-negative",
            "faulty-9-of-4-rate-0", "faulty-2-5-of-2-rate-0",
            "deploy-slo-latency-nan", "deploy-slo-latency-inf",
            "deploy-slo-flash-nan"])
    def test_one_error_line_and_exit_1(
        self, model_file, capsys, args, message
    ):
        assert main(args[:1] + ["--model", model_file] + args[1:]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_train_negative_seed(self, tmp_path, capsys):
        out_file = tmp_path / "model.npz"
        assert main(["train", "--seed", "-1", "--out", str(out_file)]) == 1
        assert capsys.readouterr().err == (
            "error: seed must be non-negative, got -1\n"
        )
        assert not out_file.exists()

    def test_search_negative_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["search", "--count", "2", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be non-negative, got -1\n"
        assert "searched" not in captured.out   # no stage ran

    @pytest.mark.parametrize("args, message", [
        (["--slo-latency-ms", "nan"],
         "max_latency_ms must be positive and finite, got nan"),
        (["--slo-flash-kb", "nan"],
         "max_flash_kb must be positive and finite, got nan"),
        (["--lr", "nan"], "lr must be positive and finite, got nan"),
        (["--lr", "-1"], "lr must be positive and finite, got -1.0"),
        (["--epochs", "0"], "QAT epochs must be >= 1, got 0"),
    ], ids=["slo-latency-nan", "slo-flash-nan", "lr-nan", "lr-negative",
            "epochs-0"])
    def test_search_refuses_before_any_stage(
        self, tmp_path, monkeypatch, capsys, args, message
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["search", "--count", "2", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "searched" not in captured.out   # no stage ran

    @pytest.mark.parametrize("args, message", [
        (["--epochs", "-1"], "epochs must be >= 1, got -1"),
        (["--epochs", "0"], "epochs must be >= 1, got 0"),
        (["--lr", "nan"], "learning rate must be positive: nan"),
        (["--lr", "inf"], "learning rate must be finite: inf"),
    ], ids=["epochs-negative", "epochs-0", "lr-nan", "lr-inf"])
    def test_train_refuses_without_saving(
        self, tmp_path, capsys, args, message
    ):
        out_file = tmp_path / "model.npz"
        assert main(["train", *args, "--out", str(out_file)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_file.exists()


class TestMalformedModelFile:
    """Every model-reading subcommand turns a malformed file into one
    ``error:`` line and exit 1, with no traceback."""

    @pytest.fixture(
        params=["truncated", "junk", "int16-matrix", "ternary-entry-5"]
    )
    def bad_model(self, request, model_file, tmp_path):
        path = tmp_path / "model.npz"
        if request.param == "truncated":
            raw = open(model_file, "rb").read()
            path.write_bytes(raw[: len(raw) // 2])
        elif request.param == "junk":
            path.write_bytes(b"not a model!")
        else:
            # Well-formed files whose matrix breaks the kernel contract.
            with np.load(model_file) as data:
                arrays = dict(data)
            int16 = request.param == "int16-matrix"
            matrix = arrays["layer0_matrix"].astype(
                np.int16 if int16 else np.int8
            )
            matrix[0, 0] = 300 if int16 else 5
            arrays["layer0_matrix"] = matrix
            np.savez(path, **arrays)
        return str(path)

    @pytest.mark.parametrize(
        "command",
        ["evaluate", "verify", "deploy", "encodings", "serve-bench"],
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
        assert '"schema"' in payload and "search-v2" in payload

    def test_search_env_count_knob(self, tmp_path, monkeypatch, capsys):
        """``--count`` is the sweep size: a ``REPRO_SEARCH_COUNT`` left in
        the environment is not read, and the artifact agrees with
        itself."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SEARCH_COUNT", "3")
        from repro.experiments.cache import clear_memory_cache

        clear_memory_cache()
        artifact = tmp_path / "frontier.json"
        assert main([
            "search", "--count", "2", "--stage2-epochs", "2",
            "--epochs", "3", "--n-train", "400", "--n-test", "150",
            "--out", str(artifact),
        ]) == 0
        assert "searched 2 candidates" in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert payload["count"] == payload["settings"]["count"] == 2


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

    @pytest.mark.parametrize("flag, value", [
        ("--n-test", "0"), ("--n-train", "0"), ("--n-train", "-3"),
    ])
    def test_search_rejects_a_dataset_size_below_one(
        self, tmp_path, monkeypatch, capsys, flag, value
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["search", "--count", "2", flag, value]) == 1
        captured = capsys.readouterr()
        role = flag[2:].replace("-", "_")
        assert captured.err == (
            f"error: dataset 'digits_like' needs {role} >= 1, got {value}\n"
        )
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
