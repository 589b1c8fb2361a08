"""Deployed model artifact: chained kernels in one board memory map.

:class:`DeployedModel` is the simulator-side equivalent of flashing the
exported network onto the STM32F072RB: every layer's kernel program and
constant arrays are placed into the board's flash, activations ping-pong
between two RAM buffers, and inference runs layer programs in sequence on
the cycle-counting CPU.

Latency is available two ways — measured (cycle-exact execution) and
analytical (operation counts) — and the two always agree; tests enforce
it.  Execution uses the basic-block translating engine by default
(``engine="fastpath"``); pass ``engine="interpreter"`` for the reference
interpreter — both produce identical registers, memory, and cycle counts
(see :mod:`repro.mcu.fastpath`).

``engine="verified"`` (the serving default) runs no instructions at
all.  Every kernel has input-independent control flow, so the verifier
proves each layer's WCET bound equal to its measured cycles, and the
NumPy reference (:mod:`repro.kernels.ref`) is bit-exact with the
device.  The engine therefore returns the reference logits and charges
the per-layer bounds.  A batch is one reference forward whose range
audits run per row, and :meth:`DeployedModel.infer_rows` answers a
serve replay's whole trace with it.  A row those audits reject (an
input outside the calibrated range, where only the device's wraparound
arithmetic is authoritative) runs on the tier-1 CPU instead, so every
result stays device-exact.  Device RAM and traffic counters are left
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    InvalidInputError,
)
from repro.kernels.codegen_common import KernelImage
from repro.kernels.layer import layer_kernel, layer_opcount
from repro.kernels.opcount import OpCount
from repro.kernels.ref import model_forward_batch
from repro.kernels.spec import LayerKernelSpec
from repro.mcu.board import BoardProfile, STM32F072RB
from repro.mcu.fastpath import DEFAULT_ENGINE, ENGINES, make_cpu
from repro.mcu.memory import Allocator
from repro.quantize.ptq import QuantizedModel

#: Reference forward + the verifier's per-layer WCET cycles.  A
#: deploy-layer engine: ``repro.mcu.fastpath.ENGINES`` stays CPU-only.
VERIFIED_ENGINE = "verified"
#: Every engine a :class:`DeployedModel` accepts.
MODEL_ENGINES = (VERIFIED_ENGINE, *ENGINES)

_WIDTH_DTYPES = {1: np.int8, 2: np.int16, 4: np.int32}


def _resolve_engine(board: BoardProfile, engine: str) -> str:
    if engine not in MODEL_ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; known: {MODEL_ENGINES}"
        )
    # A CPU tier the board's capability flags gate out (e.g. fastpath-v2
    # on a board without a hardware multiplier) degrades to the best
    # supported one — bit-identical results, only host speed differs.
    if engine == VERIFIED_ENGINE:
        return engine
    return board.resolve_engine(engine)


def _make_model_cpu(memory, board: BoardProfile, engine: str):
    # Under "verified" the CPU serves only rows the reference rejects.
    cpu_engine = "fastpath" if engine == VERIFIED_ENGINE else engine
    return make_cpu(memory, costs=board.costs, engine=cpu_engine)


@dataclass(frozen=True)
class InferenceResult:
    """One on-device inference: prediction plus its cost."""

    logits: np.ndarray
    label: int
    cycles: int
    latency_ms: float


@dataclass(frozen=True)
class BatchInferenceResult:
    """One admitted batch run through the device in a single call.

    Simulated costs stay *per request*: every row is charged the same
    input-independent ``cycles_per_inference``/``latency_ms`` the
    sequential path would charge, so cycle accounting is unchanged by
    batching.  ``fused`` records whether the batch took the tier-2
    fused path.
    """

    logits: np.ndarray
    labels: np.ndarray
    cycles_per_inference: int
    latency_ms: float
    fused: bool

    def __len__(self) -> int:
        return len(self.labels)

    def row(self, index: int) -> InferenceResult:
        """The equivalent per-request result for one batch row."""
        return InferenceResult(
            logits=self.logits[index],
            label=int(self.labels[index]),
            cycles=self.cycles_per_inference,
            latency_ms=self.latency_ms,
        )


class DeployedModel:
    """A quantized model flashed onto a simulated board."""

    def __init__(
        self,
        quantized: QuantizedModel,
        format_name: str = "block",
        board: BoardProfile = STM32F072RB,
        block_size: int = 256,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        engine = _resolve_engine(board, engine)
        self.quantized = quantized
        self.format_name = format_name
        self.board = board
        self.block_size = block_size
        self.engine = engine
        self.memory = board.make_memory()

        specs = quantized.specs
        if not specs:
            raise ConfigurationError("quantized model has no layers")

        # Two ping-pong activation buffers sized for the widest layer.
        ram = Allocator(self.memory, "ram")
        buf_bytes = max(
            max(s.n_in * s.act_in_width, s.n_out * s.act_out_width)
            for s in specs
        )
        try:
            buffer_a = ram.reserve(buf_bytes, align=4)
            buffer_b = ram.reserve(buf_bytes, align=4)
            self.images: list[KernelImage] = []
            for i, spec in enumerate(specs):
                src = buffer_a if i % 2 == 0 else buffer_b
                dst = buffer_b if i % 2 == 0 else buffer_a
                self.images.append(layer_kernel(
                    spec, format_name, block_size, memory=self.memory,
                    input_addr=src, output_addr=dst,
                ))
        except Exception as exc:  # allocator exhaustion -> budget error
            raise BudgetExceededError(
                f"model does not fit {board.name}: {exc}"
            ) from exc

        self._cpu = _make_model_cpu(self.memory, board, engine)
        #: Lazily computed fused-pipeline cache:
        #: None = not computed, (False,) = not fusible, (True, sps) = go.
        self._fused: tuple | None = None
        #: Per-layer WCET cycle bounds (see :meth:`layer_cycle_bounds`).
        self._layer_cycles: tuple[int, ...] | None = None

    def warm_translations(self) -> int:
        """Translate every layer program ahead of the first inference.

        Returns the number of layer programs the tier-1 translator
        accepted.  Translations live in the process-wide cache keyed by
        program content, so replicas flashed from this artifact reuse
        them; a no-op (returning 0) under ``engine="interpreter"``.
        Under ``engine="fastpath-v2"`` the tier-2 specializations are
        warmed as well (one extra cache entry per accepted layer).
        """
        from repro.mcu.fastpath import FastCPU

        if not isinstance(self._cpu, FastCPU):
            return 0
        accepted = sum(
            self._cpu.translation(image.program) is not None
            for image in self.images
        )
        if self._cpu.prefer_v2:
            self._fused_pipeline()
        return accepted

    def set_engine(self, engine: str) -> None:
        """Switch execution engine in place (e.g. for verification runs)."""
        engine = _resolve_engine(self.board, engine)
        if engine != self.engine:
            self.engine = engine
            self._cpu = _make_model_cpu(self.memory, self.board, engine)
            self._fused = None

    # -- the verified engine ------------------------------------------------

    def record_verification(self, verification) -> None:
        """Adopt a passing verdict's per-layer WCET bounds.

        Raises :class:`~repro.errors.VerificationError` when any layer
        failed.  ``deploy()`` records the verdict it computes, so the
        bounds travel with the model and every replica copied from it.
        """
        verification.require_ok()
        self._layer_cycles = tuple(
            entry.report.cycle_bound for entry in verification.layers
        )

    def layer_cycle_bounds(self) -> tuple[int, ...]:
        """Per-layer WCET cycle bounds the ``verified`` engine charges.

        A model that never got a verdict verifies itself here, once.
        """
        if self._layer_cycles is None:
            from repro.analysis.report import verify_deployed_model

            self.record_verification(verify_deployed_model(self))
        return self._layer_cycles

    def _reference(
        self, x_int: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, float]:
        """The reference's device-dtype logits for ``(batch, n_in)``
        rows and their ``ok`` mask (false where a range audit rejects
        the row), plus one inference's cycles and latency at the WCET
        bounds."""
        logits, ok = model_forward_batch(self.quantized.specs, x_int)
        cycles = sum(self.layer_cycle_bounds())
        return (
            logits.astype(_WIDTH_DTYPES[self.images[-1].output_width]),
            ok,
            cycles,
            self.board.cycles_to_ms(cycles),
        )

    # -- batch fusion -------------------------------------------------------

    def _locate(self, addr: int) -> tuple[int, int]:
        """``(region_index, offset)`` of an address, in region order."""
        for j, region in enumerate(self.memory.regions):
            if region.contains(addr, 1):
                return j, addr - region.base
        raise ConfigurationError(f"address 0x{addr:08x} is unmapped")

    def _chain_is_sound(self, sps) -> bool:
        """Whether running layers batch-at-a-time equals row-at-a-time.

        Fusion reorders execution from (row 0: layers 0..L) .. (row B:
        layers 0..L) into (layer 0: rows 0..B) .. (layer L: rows 0..B).
        That is exact iff no layer reads a RAM cell left over from a
        *previous row's* run: every read-before-write cell that any
        layer dirties must be freshly written this row — by the input
        writer or an earlier layer — before it is read.
        """
        image = self.images[0]
        j, offset = self._locate(image.input_addr)
        written = {
            (j, offset + i)
            for i in range(image.input_count * image.input_width)
        }
        all_dirty: set = set()
        for sp in sps:
            all_dirty |= sp.dirty_cells
        for sp in sps:
            for cell in sp.reads_before_write:
                if cell in all_dirty and cell not in written:
                    return False
            written |= sp.dirty_cells
        return True

    def _fused_pipeline(self):
        """Per-layer specializations when whole-batch fusion is sound.

        ``None`` (callers fall back to per-row inference) unless the
        engine is ``fastpath-v2``, every layer specialized, and the
        cross-layer hazard check passes.  Cached per engine setting;
        the specializations themselves live in the shared tier-2 cache.
        """
        if self._fused is not None:
            return self._fused[1]
        from repro.mcu.fastpath import FastCPU

        pipeline = None
        cpu = self._cpu
        if isinstance(cpu, FastCPU) and cpu.prefer_v2:
            sps = [cpu.specialization(img.program) for img in self.images]
            if all(
                sp is not None and sp.instructions <= cpu.max_instructions
                for sp in sps
            ) and self._chain_is_sound(sps):
                pipeline = sps
        self._fused = (pipeline is not None, pipeline)
        return pipeline

    def infer_batch(self, x_batch: np.ndarray) -> BatchInferenceResult:
        """Run a batch through the device in one call.

        Bit-exact with ``len(x_batch)`` sequential :meth:`infer` calls:
        identical per-row logits/labels and per-request cycle and
        latency charges.  On ``verified`` the batch is one reference
        forward audited per row.  On ``fastpath-v2`` the batch runs
        fused, with identical final RAM and per-region traffic counters
        too.  Other engines, and fastpath-v2 pipelines with a declined
        layer, run the sequential path (``fused=False``).
        """
        x_batch = self._validate_input(x_batch, batch=True)
        if len(x_batch) == 0:
            raise InvalidInputError("batch is empty")
        if self.engine == VERIFIED_ENGINE:
            logits, ok, cycles, latency_ms = self._reference(
                self.quantized.quantize_input(x_batch)
            )
            for i in np.flatnonzero(~ok):   # the tier-1 fallback
                logits[i] = self.infer(x_batch[i]).logits
            return BatchInferenceResult(
                logits=logits,
                labels=logits.argmax(axis=1),
                cycles_per_inference=cycles,
                latency_ms=latency_ms,
                fused=False,
            )
        sps = self._fused_pipeline()
        if sps is None:
            rows = [self.infer(row) for row in x_batch]
            return BatchInferenceResult(
                logits=np.stack([r.logits for r in rows]),
                labels=np.array([r.label for r in rows]),
                cycles_per_inference=rows[0].cycles,
                latency_ms=rows[0].latency_ms,
                fused=False,
            )
        from repro.mcu.fastpath_v2 import (
            charge_batch_traffic,
            commit_batch_row,
            make_batch_state,
        )

        batch = len(x_batch)
        x_int = self.quantized.quantize_input(x_batch)
        mats = make_batch_state(self.memory, batch)
        positions = {}
        for j, region in enumerate(self.memory.regions):
            if region.writable:
                positions[j] = len(positions)

        first, last = self.images[0], self.images[-1]
        widths = _WIDTH_DTYPES
        j, off = self._locate(first.input_addr)
        in_dtype = np.dtype(widths[first.input_width]).newbyteorder("<")
        raw = np.ascontiguousarray(x_int.astype(in_dtype)) \
            .view(np.uint8).reshape(batch, -1)
        span = first.input_count * first.input_width
        mats[positions[j]][:, off:off + span] = raw

        total_cycles = 0
        for sp in sps:
            sp.fn(mats)
            charge_batch_traffic(self.memory, sp, batch)
            total_cycles += sp.cycles
        commit_batch_row(self.memory, mats, batch - 1)

        jo, ooff = self._locate(last.output_addr)
        out_dtype = np.dtype(widths[last.output_width]).newbyteorder("<")
        ospan = last.output_count * last.output_width
        logits = np.ascontiguousarray(
            mats[positions[jo]][:, ooff:ooff + ospan]
        ).view(out_dtype)
        return BatchInferenceResult(
            logits=logits,
            labels=logits.argmax(axis=1),
            cycles_per_inference=total_cycles,
            latency_ms=self.board.cycles_to_ms(total_cycles),
            fused=True,
        )

    # -- inference ----------------------------------------------------------

    def _validate_input(self, x, *, batch: bool) -> np.ndarray:
        """Shape/dtype/finiteness checks with typed errors, up front.

        Catches caller mistakes before they surface as opaque numpy
        broadcast failures deep inside the memory map.
        """
        try:
            arr = np.asarray(x)
        except Exception as exc:
            raise InvalidInputError(f"input is not array-like: {exc}") \
                from exc
        if not np.issubdtype(arr.dtype, np.number) or np.issubdtype(
            arr.dtype, np.complexfloating
        ):
            raise InvalidInputError(
                f"input dtype {arr.dtype} is not real-numeric"
            )
        n_in = self.quantized.n_in
        if batch:
            if arr.ndim < 2 or int(np.prod(arr.shape[1:])) != n_in:
                raise InvalidInputError(
                    f"batch shape {arr.shape} incompatible with "
                    f"{n_in}-feature model (want (batch, {n_in}))"
                )
            arr = arr.reshape(len(arr), n_in)
        else:
            if arr.size != n_in:
                raise InvalidInputError(
                    f"input shape {arr.shape} has {arr.size} values but "
                    f"the model expects {n_in} features"
                )
            arr = arr.reshape(n_in)
        if not np.all(np.isfinite(arr.astype(np.float64, copy=False))):
            raise InvalidInputError("input contains NaN or infinity")
        return arr

    def infer(self, x: np.ndarray) -> InferenceResult:
        """Run one float input through the deployed integer model."""
        x_int = self.quantized.quantize_input(
            self._validate_input(x, batch=False)
        )
        if self.engine == VERIFIED_ENGINE:
            logits, ok, cycles, latency_ms = self._reference(x_int[None])
            if ok[0]:
                return InferenceResult(
                    logits=logits[0],
                    label=int(np.argmax(logits[0])),
                    cycles=cycles,
                    latency_ms=latency_ms,
                )
        self.images[0].write_input(x_int)
        total_cycles = 0
        for image in self.images:
            total_cycles += self._cpu.run(image.program).cycles
        logits = self.images[-1].read_output()
        return InferenceResult(
            logits=logits,
            label=int(np.argmax(logits)),
            cycles=total_cycles,
            latency_ms=self.board.cycles_to_ms(total_cycles),
        )

    def infer_rows(
        self, xs: Sequence
    ) -> list[tuple[int, int] | InvalidInputError]:
        """``(label, cycles)`` of :meth:`infer` on each input, from one
        :meth:`infer_batch` call.

        A row :meth:`infer` rejects holds the ``InvalidInputError`` it
        raises for that row instead.  The inputs are validated once,
        stacked, when they are arrays of one shape and dtype; only when
        that fails are they validated row by row.
        """
        if not len(xs):
            return []
        like = xs[0]
        if isinstance(like, np.ndarray) and all(
            isinstance(x, np.ndarray)
            and x.dtype == like.dtype and x.shape == like.shape
            for x in xs
        ):
            try:
                batch = self.infer_batch(np.stack(xs))
            except InvalidInputError:
                pass                    # some row is invalid
            else:
                return list(zip(
                    batch.labels.tolist(),
                    [batch.cycles_per_inference] * len(xs),
                ))
        rows: list = []
        for x in xs:
            try:
                # float64 is what quantize_input reads, so the valid
                # rows stack into one batch exactly.
                rows.append(
                    self._validate_input(x, batch=False).astype(np.float64)
                )
            except InvalidInputError as exc:
                rows.append(exc)
        answers = iter(self.infer_rows([
            row for row in rows if not isinstance(row, InvalidInputError)
        ]))
        return [
            row if isinstance(row, InvalidInputError) else next(answers)
            for row in rows
        ]

    def predict(self, x_batch: np.ndarray) -> np.ndarray:
        """Labels for a batch, from :meth:`infer_batch` on this model's
        engine (``QuantizedModel.predict`` is the reference they equal)."""
        x_batch = self._validate_input(x_batch, batch=True)
        if not len(x_batch):
            return np.array([])
        return np.asarray(self.infer_batch(x_batch).labels)

    def accuracy(self, x_batch: np.ndarray, y: np.ndarray) -> float:
        predictions = self.predict(x_batch)
        return float((predictions == np.asarray(y)).mean())

    # -- cost reporting -------------------------------------------------------

    @property
    def flash_data_bytes(self) -> int:
        return sum(image.flash_data_bytes for image in self.images)

    @property
    def text_bytes(self) -> int:
        return sum(
            image.program.code_size_bytes() for image in self.images
        )


def model_opcount(
    specs: list[LayerKernelSpec], format_name: str = "block",
    block_size: int = 256,
) -> OpCount:
    """Operation counts summed over a model's layers.

    Board-independent: price the result with each board's cost table
    instead of recounting the model per board.
    """
    total = OpCount.block()
    for spec in specs:
        total += layer_opcount(spec, format_name, block_size)
    return total


def analytic_model_cycles(
    quantized: QuantizedModel,
    format_name: str = "block",
    board: BoardProfile = STM32F072RB,
    block_size: int = 256,
) -> int:
    """Model latency in cycles without building a deployment image.

    The fast path for parameter sweeps: prices each layer's operation
    counts directly.
    """
    return model_opcount(quantized.specs, format_name, block_size).cycles(
        board.costs
    )


def analytic_model_latency_ms(
    quantized: QuantizedModel,
    format_name: str = "block",
    board: BoardProfile = STM32F072RB,
) -> float:
    return board.cycles_to_ms(
        analytic_model_cycles(quantized, format_name, board)
    )
