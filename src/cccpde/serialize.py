"""Binary model file format.

Layout, all little-endian:

    8s   magic  b"CCPDEBIN"
    u32  format version (currently 5)
    u64  total file length in bytes
    u8   model kind code
    u32  array count, then per array:
           u16 name length, name bytes (utf-8), u8 ndim,
           u32 per-dimension sizes, raw float64 values
    u32  CRC-32 of every byte before this field

A file is its named float64 arrays and nothing else: no size is stored
except in their shapes. Values round-trip bit-exactly; `model.py` decides
which arrays, of which shapes and in which order, a file holds. Distinct
errors cover wrong magic, any other version (formats 1 to 4 included),
length mismatch or an oversized array header (truncation), and checksum
failure.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import (
    ModelChecksumError,
    ModelFormatError,
    ModelTruncatedError,
    ModelVersionError,
)

MAGIC = b"CCPDEBIN"
FORMAT_VERSION = 5
_STORED = np.dtype("<f8")


def write_state(path, kind_code: int,
                arrays: list[tuple[str, np.ndarray]]) -> None:
    body = bytearray(struct.pack("<BI", kind_code, len(arrays)))
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        if arr.dtype != np.float64:
            raise ModelFormatError(f"array {name!r} is {arr.dtype}; model "
                                   "files hold float64 only")
        nb = name.encode("utf-8")
        body += struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb,
                            arr.ndim, *arr.shape)
        body += arr.astype(_STORED, copy=False).tobytes()
    blob = MAGIC + struct.pack("<IQ", FORMAT_VERSION,
                               len(MAGIC) + 12 + len(body) + 4) + body
    Path(path).write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))


class _Reader:
    def __init__(self, data: bytes, offset: int):
        self.data, self.pos = data, offset

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ModelTruncatedError(
                f"file ends {self.pos + n - len(self.data)} bytes early")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_state(path) -> tuple[int, list[tuple[str, np.ndarray]]]:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 4 + 8 + 4:
        raise ModelTruncatedError(
            f"file is {len(data)} bytes, shorter than any valid model file")
    if data[:8] != MAGIC:
        raise ModelFormatError(f"{path} is not a model file (bad magic)")
    version = struct.unpack("<I", data[8:12])[0]
    if version != FORMAT_VERSION:
        raise ModelVersionError(
            f"file declares format version {version}; this build reads "
            f"version {FORMAT_VERSION}")
    declared = struct.unpack("<Q", data[12:20])[0]
    if len(data) != declared:
        raise ModelTruncatedError(
            f"file is {len(data)} bytes but header declares {declared}")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ModelChecksumError("checksum mismatch; file is corrupted")
    r = _Reader(data[:-4], 20)
    kind_code, count = r.unpack("<BI")
    arrays = []
    for _ in range(count):
        name = r.take(r.unpack("<H")[0]).decode("utf-8")
        ndim, = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        # a Python int: a product of u32 sizes may pass 2**63 and not wrap
        raw = r.take(math.prod(shape) * _STORED.itemsize)
        arrays.append((name, np.frombuffer(raw, _STORED).astype(
            np.float64).reshape(shape)))
    if r.pos != len(r.data):
        raise ModelFormatError(f"{len(r.data) - r.pos} unexpected trailing bytes")
    return kind_code, arrays
