"""Program-memory (flash) accounting — the paper's third metric.

The paper reports "program memory usage, as indicated by the size of the
statically linked binary sections containing weights and inference code"
(§5.1).  We reproduce that definition:

- ``.text``   — the generated kernel programs (2-byte Thumb instructions)
  plus a fixed startup overhead (vector table, reset handler, runtime),
- ``.rodata`` — every constant array the kernels reference: weight /
  adjacency storage at its chosen 8- or 16-bit width, biases, per-neuron
  multipliers.

Sizes are measured from *actually generated* kernels placed into a large
scratch memory map, so a model too big for the real board can still be
sized — that is precisely how Figure 6a's "non-deployable" region is
computed.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

from repro.kernels.layer import layer_kernel
from repro.kernels.spec import LayerKernelSpec
from repro.mcu.board import BoardProfile, STM32F072RB
from repro.mcu.memory import MemoryMap, Region

#: Vector table + reset/startup code + libc stubs under ``-Os`` (bytes).
STARTUP_TEXT_BYTES = 1024

#: Scratch flash large enough for any model we size (non-deployable MLPs
#: included).
_SCRATCH_FLASH_KB = 8 * 1024
_SCRATCH_RAM_KB = 1024


def scratch_memory() -> MemoryMap:
    """A memory map big enough to place any model for measurement.

    Both regions are anonymous ``mmap`` pages, which the kernel zeroes
    on first touch: sizing pays for the few pages it writes, not for a
    9 MiB fill.  Close each region's ``data`` when done with the map.
    """
    flash = _SCRATCH_FLASH_KB * 1024
    ram = _SCRATCH_RAM_KB * 1024
    return MemoryMap(
        [
            Region("flash", 0x0800_0000, flash, writable=False,
                   data=mmap.mmap(-1, flash)),
            Region("ram", 0x2000_0000, ram, writable=True,
                   data=mmap.mmap(-1, ram)),
        ]
    )


@dataclass(frozen=True)
class ProgramMemoryReport:
    """Flash footprint of one deployed model."""

    text_bytes: int
    rodata_bytes: int
    startup_bytes: int = STARTUP_TEXT_BYTES

    @property
    def total_bytes(self) -> int:
        return self.text_bytes + self.rodata_bytes + self.startup_bytes

    @property
    def total_kb(self) -> float:
        return self.total_bytes / 1024.0

    def fits(self, board: BoardProfile = STM32F072RB) -> bool:
        return self.total_bytes <= board.flash_bytes

    def __add__(self, other: "ProgramMemoryReport") -> "ProgramMemoryReport":
        """Combine per-layer reports (startup counted once)."""
        return ProgramMemoryReport(
            text_bytes=self.text_bytes + other.text_bytes,
            rodata_bytes=self.rodata_bytes + other.rodata_bytes,
        )


def layer_program_memory(
    spec: LayerKernelSpec, format_name: str | None = None,
    block_size: int = 256,
) -> ProgramMemoryReport:
    """Flash footprint of one layer's kernel (text + rodata).

    ``format_name`` selects the sparse encoding for ternary layers and is
    ignored for dense ones.  The report is memoized on ``spec`` per
    ``(format_name, block_size)``, like its encoding
    (:func:`~repro.kernels.codegen_sparse.encode_for_kernel`): the size
    does not depend on the board, so a model deployed on several boards
    is sized once.  The memo is a private attribute outside the frozen
    spec's fields.
    """
    format_name = format_name or "block"
    memo = spec.__dict__.setdefault("_program_memory", {})
    key = (format_name, block_size)
    if key in memo:
        return memo[key]
    memory = scratch_memory()
    try:
        image = layer_kernel(spec, format_name, block_size, memory=memory)
        memo[key] = ProgramMemoryReport(
            text_bytes=image.program.code_size_bytes(),
            rodata_bytes=image.flash_data_bytes,
        )
        return memo[key]
    finally:
        for region in memory.regions:
            region.data.close()


def model_program_memory(
    specs: list[LayerKernelSpec], format_name: str | None = None,
    block_size: int = 256,
) -> ProgramMemoryReport:
    """Flash footprint of a whole model (sum of layers + one startup)."""
    report = ProgramMemoryReport(text_bytes=0, rodata_bytes=0)
    for spec in specs:
        report = report + layer_program_memory(
            spec, format_name=format_name, block_size=block_size
        )
    return report
