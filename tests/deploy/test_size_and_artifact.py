"""Program-memory model, deployed artifact, and the deploy() entry point."""

import collections
import dataclasses
import os

import numpy as np
import pytest

from repro.deploy.artifact import (
    DeployedModel,
    analytic_model_cycles,
    analytic_model_latency_ms,
    model_opcount,
)
from repro.deploy.deployer import deploy
from repro.deploy.size import (
    STARTUP_TEXT_BYTES,
    ProgramMemoryReport,
    layer_program_memory,
    model_program_memory,
)
from repro.encodings import (
    BlockEncoding,
    CSCEncoding,
    DeltaEncoding,
    MixedEncoding,
)
from repro.errors import BudgetExceededError
from repro.kernels.codegen_sparse import SPARSE_FORMATS, encode_for_kernel
from repro.kernels.spec import make_dense_spec, make_neuroc_spec
from repro.mcu.board import BOARD_PROFILES, STM32F072RB, board_by_name
from repro.mcu.intermittent import IntermittentDeployment, PowerBudget
from repro.quantize.ptq import QuantizedModel


class TestProgramMemoryReport:
    def test_total_includes_startup(self):
        report = ProgramMemoryReport(text_bytes=100, rodata_bytes=200)
        assert report.total_bytes == 300 + STARTUP_TEXT_BYTES

    def test_fits_boundary(self):
        limit = STM32F072RB.flash_bytes
        just_fits = ProgramMemoryReport(
            text_bytes=0, rodata_bytes=limit - STARTUP_TEXT_BYTES
        )
        assert just_fits.fits(STM32F072RB)
        too_big = ProgramMemoryReport(
            text_bytes=1, rodata_bytes=limit - STARTUP_TEXT_BYTES
        )
        assert not too_big.fits(STM32F072RB)

    def test_addition_counts_startup_once(self):
        a = ProgramMemoryReport(10, 20)
        b = ProgramMemoryReport(30, 40)
        combined = a + b
        assert combined.total_bytes == 100 + STARTUP_TEXT_BYTES


class TestLayerProgramMemory:
    def _spec(self, rng, n_in=50, n_out=8):
        adjacency = rng.choice(
            [-1, 0, 1], (n_in, n_out), p=[0.1, 0.8, 0.1]
        ).astype(np.int8)
        return make_neuroc_spec(
            adjacency, rng.integers(-10, 10, n_out).astype(np.int32),
            rng.integers(20, 90, n_out).astype(np.int16), shift=8,
        )

    def test_rodata_matches_encoding_plus_tables(self, rng):
        spec = self._spec(rng)
        from repro.kernels.codegen_sparse import encode_for_kernel
        report = layer_program_memory(spec, "mixed")
        expected = (
            encode_for_kernel(spec, "mixed").size_bytes()
            + 4 * spec.n_out   # bias
            + 2 * spec.n_out   # per-neuron mult
        )
        # The linker-style allocator may add a few alignment-padding bytes.
        assert expected <= report.rodata_bytes <= expected + 16

    def test_block_format_is_smaller_than_csc_on_wide_input(self, rng):
        spec = self._spec(rng, n_in=500, n_out=16)
        block = layer_program_memory(spec, "block")
        csc = layer_program_memory(spec, "csc")
        assert block.rodata_bytes < csc.rodata_bytes

    def test_oversized_model_can_still_be_sized(self, rng):
        # The Figure 6a requirement: sizing must work beyond 128 KB.
        weights = rng.integers(-50, 50, (784, 400)).astype(np.int8)
        spec = make_dense_spec(
            weights, rng.integers(-5, 5, 400).astype(np.int32),
            mult=None, act_out_width=4, relu=False,
        )
        report = model_program_memory([spec])
        assert report.total_kb > 128
        assert not report.fits(STM32F072RB)

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="needs /proc/self/maps")
    def test_sizing_releases_its_scratch_pages(self, rng):
        def mappings() -> int:
            with open("/proc/self/maps") as maps:
                return sum(1 for _ in maps)

        spec = self._spec(rng, n_in=300, n_out=20)
        expected = layer_program_memory(spec)
        before = mappings()
        for _ in range(200):
            # A fresh spec each time: the report is memoized per spec.
            fresh = dataclasses.replace(spec)
            assert layer_program_memory(fresh) == expected
        assert mappings() == before


def _ternary_model(seed: int, act_width: int = 1) -> QuantizedModel:
    rng = np.random.default_rng(seed)
    dims = (300, 24, 10)
    specs = [
        make_neuroc_spec(
            rng.choice([-1, 0, 1], (n_in, n_out), p=[0.2, 0.6, 0.2]),
            rng.integers(-20, 20, n_out),
            rng.integers(20, 90, n_out).astype(np.int16), shift=8,
            act_in_width=act_width, act_out_width=act_width,
            relu=n_out != 10,
        )
        for n_in, n_out in zip(dims, dims[1:])
    ]
    return QuantizedModel(specs, input_scale=1 / 127, act_width=act_width)


class TestOneEncodingPerSpec:
    """The size model, the operation count and the flashed artifact of a
    layer share one encoding per (format, block size)."""

    @pytest.fixture
    def encodes(self, monkeypatch):
        counts = collections.Counter()
        for cls in (CSCEncoding, DeltaEncoding, MixedEncoding,
                    BlockEncoding):
            def counting(klass, matrix, _original=cls.from_matrix,
                         **options):
                counts[klass.format_name] += 1
                return _original(matrix, **options)

            monkeypatch.setattr(cls, "from_matrix", classmethod(counting))
        return counts

    @pytest.mark.parametrize("format_name, block_size", [
        *((fmt, 256) for fmt in SPARSE_FORMATS), ("block", 32),
    ])
    def test_pricing_and_flashing_encode_each_layer_once(
        self, encodes, format_name, block_size
    ):
        quantized = _ternary_model(3, act_width=2)
        model_program_memory(quantized.specs, format_name, block_size)
        model_opcount(quantized.specs, format_name, block_size)
        DeployedModel(quantized, format_name, block_size=block_size)
        deploy(quantized, format_name, block_size=block_size)
        assert encodes == {format_name: len(quantized.specs)}

    def test_each_block_size_and_stride_gets_its_own_encoding(self):
        narrow, wide = _ternary_model(5, 1), _ternary_model(5, 2)
        spec = narrow.specs[0]
        assert encode_for_kernel(spec, "block", 32) is not \
            encode_for_kernel(spec, "block")
        assert encode_for_kernel(spec, "delta").stride == 1
        assert encode_for_kernel(wide.specs[0], "delta").stride == 2
        assert "_encodings" not in repr(spec)

    def test_shared_arrays_are_read_only(self):
        spec = _ternary_model(4).specs[0]
        for fmt in SPARSE_FORMATS:
            arrays = encode_for_kernel(spec, fmt).arrays().values()
            assert not any(array.flags.writeable for array in arrays)
            with pytest.raises(ValueError, match="read-only"):
                next(iter(arrays))[0] = 0


class TestOneSizingPerSpec:
    """A model is sized once per (format, block size), however many
    boards it is deployed on."""

    def test_deploying_on_every_board_sizes_each_layer_once(
        self, monkeypatch
    ):
        import repro.deploy.size as size

        sized = []
        layer_kernel = size.layer_kernel

        def counting(spec, *args, **kwargs):
            sized.append(spec)
            return layer_kernel(spec, *args, **kwargs)

        monkeypatch.setattr(size, "layer_kernel", counting)
        quantized = _ternary_model(6)
        reports = {
            deploy(quantized, "csc", board=board, verify=False)
            .program_memory
            for board in BOARD_PROFILES.values()
        }
        assert len(reports) == 1
        assert list(map(id, sized)) == list(map(id, quantized.specs))
        model_program_memory(quantized.specs, "block", 32)
        assert len(sized) == 2 * len(quantized.specs)

    def test_memoized_report_equals_a_fresh_sizing(self):
        quantized = _ternary_model(7, act_width=2)
        for fmt in SPARSE_FORMATS:
            first = model_program_memory(quantized.specs, fmt)
            fresh = [dataclasses.replace(s) for s in quantized.specs]
            assert model_program_memory(quantized.specs, fmt) == first
            assert model_program_memory(fresh, fmt) == first
        assert "_program_memory" not in repr(quantized.specs[0])


@pytest.mark.usefixtures("trained_neuroc")
class TestDeployedModel:
    def test_simulated_accuracy_matches_reference(self, trained_neuroc,
                                                  digits_small):
        deployed = DeployedModel(trained_neuroc.quantized, "block")
        x, y = digits_small.x_test[:40], digits_small.y_test[:40]
        assert deployed.accuracy(x, y) == trained_neuroc.quantized.accuracy(
            x, y
        )

    def test_measured_cycles_equal_analytic(self, trained_neuroc,
                                            digits_small):
        for fmt in ("csc", "delta", "mixed", "block"):
            deployed = DeployedModel(trained_neuroc.quantized, fmt)
            result = deployed.infer(digits_small.x_test[0])
            analytic = analytic_model_cycles(trained_neuroc.quantized, fmt)
            assert result.cycles == analytic, fmt

    def test_latency_uses_board_clock(self, trained_neuroc, digits_small):
        deployed = DeployedModel(trained_neuroc.quantized, "block")
        result = deployed.infer(digits_small.x_test[0])
        assert result.latency_ms == pytest.approx(
            STM32F072RB.cycles_to_ms(result.cycles)
        )
        assert result.latency_ms == pytest.approx(
            analytic_model_latency_ms(trained_neuroc.quantized, "block")
        )

    def test_flash_and_text_accounting(self, trained_neuroc):
        deployed = DeployedModel(trained_neuroc.quantized, "block")
        report = model_program_memory(trained_neuroc.quantized.specs,
                                      format_name="block")
        assert deployed.flash_data_bytes == report.rodata_bytes
        assert deployed.text_bytes == report.text_bytes


class TestNonDefaultBlockSize:
    """``block_size=16`` splits the 64-input layer into 4 blocks; every
    consumer of the layer dispatch must see the same kernel."""

    @pytest.mark.parametrize("board_name", ["STM32F072RB", "FE310-G002"])
    def test_every_price_agrees(self, trained_neuroc, digits_small,
                                board_name):
        quantized = trained_neuroc.quantized
        board = board_by_name(board_name)
        x = digits_small.x_test[0]
        deployment = deploy(quantized, "block", board=board,
                            block_size=16, engine="interpreter")
        model = deployment.model
        measured = model.infer(x).cycles
        model.set_engine("verified")
        verified = model.infer(x).cycles
        analytic = analytic_model_cycles(quantized, "block", board, 16)
        intermittent = IntermittentDeployment(model).run(
            x, PowerBudget(10**9)
        ).compute_cycles
        assert measured == verified == analytic == intermittent \
            == sum(model.layer_cycle_bounds())
        # The block size really reached the kernel.
        assert analytic != analytic_model_cycles(quantized, "block", board)
        memory = model_program_memory(quantized.specs, "block",
                                      block_size=16)
        assert deployment.program_memory == memory
        assert memory != model_program_memory(quantized.specs, "block")


class TestDeploy:
    def test_deploy_fitting_model(self, trained_neuroc):
        deployment = deploy(trained_neuroc.quantized, "block")
        assert deployment.deployable
        assert deployment.model is not None
        assert deployment.latency_ms > 0

    def test_deploy_oversized_model_reports_without_artifact(self, rng):
        from repro.quantize.ptq import QuantizedModel
        weights = rng.integers(-50, 50, (784, 400)).astype(np.int8)
        spec = make_dense_spec(
            weights, rng.integers(-5, 5, 400).astype(np.int32),
            mult=None, act_out_width=4, relu=False,
        )
        oversized = QuantizedModel(specs=[spec], input_scale=1 / 127,
                                   act_width=1)
        deployment = deploy(oversized)
        assert not deployment.deployable
        assert deployment.model is None
        with pytest.raises(BudgetExceededError):
            deploy(oversized, require_fit=True)
