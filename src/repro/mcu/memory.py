"""Flat memory model with STM32-style regions and access accounting.

The STM32F072RB maps 128 KB of flash at ``0x0800_0000`` and 16 KB of SRAM at
``0x2000_0000``.  :class:`MemoryMap` reproduces that layout (other profiles
can define their own regions), enforces flash read-only semantics during
kernel execution, and counts loads/stores per region so tests can assert on
memory-traffic properties (e.g. "the delta kernel never re-reads an input").

:class:`Allocator` provides linker-style sequential placement of numpy
arrays into a region, returning their base addresses.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from repro.errors import MemoryMapError

_WIDTH_DTYPES = {
    (1, False): np.uint8,
    (1, True): np.int8,
    (2, False): np.uint16,
    (2, True): np.int16,
    (4, False): np.uint32,
    (4, True): np.int32,
}


@dataclass
class Region:
    """One contiguous, named address range."""

    name: str
    base: int
    size: int
    writable: bool
    #: The region's bytes; a ``bytearray`` unless the creator passes a
    #: buffer (the size model's scratch map uses anonymous ``mmap`` pages).
    data: bytearray | mmap.mmap = field(  # type: ignore[assignment]
        repr=False, default=None
    )
    loads: int = 0
    stores: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    #: High-water mark of allocator reservations (bytes from base).  Lives
    #: on the region so that independently created Allocators never hand
    #: out overlapping addresses.
    reserved: int = 0

    def __post_init__(self) -> None:
        if self.data is None:
            self.data = bytearray(self.size)

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, width: int) -> bool:
        return self.base <= addr and addr + width <= self.end


class MemoryMap:
    """A set of non-overlapping regions with width-aware accessors."""

    def __init__(self, regions: list[Region]) -> None:
        ordered = sorted(regions, key=lambda r: r.base)
        for lo, hi in zip(ordered, ordered[1:]):
            if lo.end > hi.base:
                raise MemoryMapError(
                    f"regions {lo.name!r} and {hi.name!r} overlap"
                )
        self.regions = ordered
        self._by_name = {r.name: r for r in ordered}

    # -- construction ----------------------------------------------------

    @classmethod
    def stm32(cls, flash_kb: int = 128, ram_kb: int = 16) -> "MemoryMap":
        """The STM32F0 layout: flash at 0x08000000, SRAM at 0x20000000."""
        return cls(
            [
                Region("flash", 0x0800_0000, flash_kb * 1024, writable=False),
                Region("ram", 0x2000_0000, ram_kb * 1024, writable=True),
            ]
        )

    def region(self, name: str) -> Region:
        try:
            return self._by_name[name]
        except KeyError:
            raise MemoryMapError(f"no region named {name!r}") from None

    def _find(self, addr: int, width: int) -> Region:
        for region in self.regions:
            if region.contains(addr, width):
                return region
        raise MemoryMapError(
            f"access of {width} byte(s) at 0x{addr:08x} is unmapped"
        )

    # -- accessors ---------------------------------------------------------

    def load(self, addr: int, width: int, signed: bool) -> int:
        """Read ``width`` bytes at ``addr`` (little-endian) and count it."""
        region = self._find(addr, width)
        offset = addr - region.base
        raw = bytes(region.data[offset : offset + width])
        region.loads += 1
        region.bytes_loaded += width
        return int.from_bytes(raw, "little", signed=signed)

    def store(self, addr: int, width: int, value: int) -> None:
        """Write the low ``width`` bytes of ``value`` at ``addr``."""
        region = self._find(addr, width)
        if not region.writable:
            raise MemoryMapError(
                f"store to read-only region {region.name!r} at 0x{addr:08x}"
            )
        offset = addr - region.base
        masked = value & ((1 << (8 * width)) - 1)
        region.data[offset : offset + width] = masked.to_bytes(width, "little")
        region.stores += 1
        region.bytes_stored += width

    # -- bulk helpers (do not count as kernel traffic) -------------------------

    def write_array(self, addr: int, array: np.ndarray) -> None:
        """Place ``array`` at ``addr`` byte-for-byte (setup, not execution)."""
        raw = np.ascontiguousarray(array).tobytes()
        region = self._find(addr, max(len(raw), 1))
        offset = addr - region.base
        region.data[offset : offset + len(raw)] = raw

    def read_array(
        self, addr: int, count: int, width: int, signed: bool
    ) -> np.ndarray:
        """Read ``count`` elements of ``width`` bytes starting at ``addr``."""
        region = self._find(addr, max(count * width, 1))
        offset = addr - region.base
        raw = bytes(region.data[offset : offset + count * width])
        dtype = _WIDTH_DTYPES[(width, signed)]
        return np.frombuffer(raw, dtype=np.dtype(dtype).newbyteorder("<")).copy()

    def reset_counters(self) -> None:
        for region in self.regions:
            region.loads = 0
            region.stores = 0
            region.bytes_loaded = 0
            region.bytes_stored = 0


class Allocator:
    """Sequential (bump-pointer) placement of arrays into one region.

    Mirrors what a linker does with ``.rodata``/``.bss``: arrays are placed
    back to back with the alignment their element width requires.  The
    cursor lives on the region itself, so any number of Allocator instances
    (e.g. one per generated kernel) share one high-water mark and never
    return overlapping addresses.
    """

    def __init__(self, memory: MemoryMap, region: str) -> None:
        self.memory = memory
        self._region = memory.region(region)

    @property
    def used_bytes(self) -> int:
        return self._region.reserved

    @property
    def free_bytes(self) -> int:
        return self._region.size - self._region.reserved

    def reserve(self, nbytes: int, align: int = 4) -> int:
        """Reserve ``nbytes`` (zero-filled) and return the base address."""
        cursor = _align_up(self._region.base + self._region.reserved, align)
        if cursor + nbytes > self._region.end:
            raise MemoryMapError(
                f"region {self._region.name!r} exhausted: need {nbytes} "
                f"bytes, {self._region.end - cursor} available"
            )
        self._region.reserved = cursor + nbytes - self._region.base
        return cursor

    def place(self, array: np.ndarray) -> int:
        """Copy ``array`` into the region and return its base address."""
        array = np.ascontiguousarray(array)
        base = self.reserve(array.nbytes, align=max(array.itemsize, 1))
        self.memory.write_array(base, array)
        return base


def _align_up(value: int, align: int) -> int:
    if align <= 1:
        return value
    return (value + align - 1) // align * align
