"""Firmware-image packing: the bytes that would actually be flashed.

Bridges the gap between "a deployable model" and "a binary you hand to a
flasher": :func:`pack_firmware_image` lays a deployed model's flash
content (kernel code + constant data) into one contiguous image with a
checksummed header, exactly the way `objcopy -O binary` would; and
:func:`verify_firmware_image` re-parses and integrity-checks it, the way
a bootloader would before jumping to the application, refusing a
corrupt image with :class:`~repro.errors.ConfigurationError`.

Image layout (little-endian)::

    0x00  magic      4 B   b"NRC2"
    0x04  image_size 4 B   total bytes including header
    0x08  text_size  4 B
    0x0C  data_size  4 B
    0x10  n_layers   4 B
    0x14  crc32      4 B   over every other byte: the five header words
                           before it, then the payload
    0x18  payload    text (2 B/instruction placeholders), then data
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.deploy.artifact import DeployedModel
from repro.errors import ConfigurationError

MAGIC = b"NRC2"
HEADER_BYTES = 24
#: The crc32 word's offset: it covers the bytes before and after it.
CRC_OFFSET = 20


@dataclass(frozen=True)
class FirmwareImage:
    """A packed, checksummed flash image."""

    blob: bytes
    text_bytes: int
    data_bytes: int
    n_layers: int

    @property
    def total_bytes(self) -> int:
        return len(self.blob)


def pack_firmware_image(deployed: DeployedModel) -> FirmwareImage:
    """Pack a deployed model's flash contents into one binary image.

    Instruction encoding to real Thumb opcodes is out of scope (our ISA is
    a cost model, not ARMv6-M); each instruction contributes its true
    2-byte footprint as a deterministic placeholder so sizes — the metric
    the paper reports — are exact.
    """
    text = bytearray()
    for image in deployed.images:
        for instr in image.program.instructions:
            # Deterministic 2-byte placeholder derived from the opcode
            # (crc32, not hash(): Python string hashing is per-process).
            code = zlib.crc32(instr.op.value.encode()) & 0xFFFF
            text += code.to_bytes(2, "little")

    flash = deployed.memory.region("flash")
    data = bytes(flash.data[: flash.reserved])

    n_layers = len(deployed.images)
    payload = bytes(text) + data
    words = (
        MAGIC
        + (HEADER_BYTES + len(payload)).to_bytes(4, "little")
        + len(text).to_bytes(4, "little")
        + len(data).to_bytes(4, "little")
        + n_layers.to_bytes(4, "little")
    )
    crc = zlib.crc32(payload, zlib.crc32(words))
    return FirmwareImage(
        blob=words + crc.to_bytes(4, "little") + payload,
        text_bytes=len(text),
        data_bytes=len(data),
        n_layers=n_layers,
    )


@dataclass(frozen=True)
class FirmwareInfo:
    """Parsed header of a firmware image."""

    image_size: int
    text_bytes: int
    data_bytes: int
    n_layers: int


def verify_firmware_image(blob: bytes) -> FirmwareInfo:
    """Bootloader-style validation: magic, sizes, checksum.

    Raises :class:`~repro.errors.ConfigurationError` for any image that
    fails a check; a returned header is intact.
    """
    if len(blob) < HEADER_BYTES:
        raise ConfigurationError("image shorter than its header")
    if blob[:4] != MAGIC:
        raise ConfigurationError("bad firmware magic")
    image_size = int.from_bytes(blob[4:8], "little")
    text_bytes = int.from_bytes(blob[8:12], "little")
    data_bytes = int.from_bytes(blob[12:16], "little")
    n_layers = int.from_bytes(blob[16:20], "little")
    crc_stored = int.from_bytes(blob[CRC_OFFSET:HEADER_BYTES], "little")
    if image_size != len(blob):
        raise ConfigurationError(
            f"image size field {image_size} != actual {len(blob)}"
        )
    if HEADER_BYTES + text_bytes + data_bytes != image_size:
        raise ConfigurationError("section sizes do not add up")
    payload = blob[HEADER_BYTES:]
    if zlib.crc32(payload, zlib.crc32(blob[:CRC_OFFSET])) != crc_stored:
        raise ConfigurationError("firmware checksum mismatch")
    return FirmwareInfo(
        image_size=image_size,
        text_bytes=text_bytes,
        data_bytes=data_bytes,
        n_layers=n_layers,
    )
