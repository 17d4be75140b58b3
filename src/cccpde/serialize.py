"""Binary model file format.

Layout, all little-endian:

    8s   magic  b"CCPDEBIN"
    u32  format version (currently 3)
    u64  total file length in bytes
    u8   model kind code
    u32  array count, then per array:
           u16 name length, name bytes (utf-8),
           u8 dtype (0 = float64, 1 = int64), u8 ndim,
           u32 per-dimension sizes, raw values little-endian
    u32  CRC-32 of every byte before this field

A file is its named arrays and nothing else: no size is stored except in
their shapes. Values round-trip bit-exactly; `model.py` decides which
arrays, of which shapes, a file holds. Distinct errors cover wrong magic,
any other version (formats 1 and 2 included), length mismatch
(truncation), and checksum failure.
"""

from __future__ import annotations

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
FORMAT_VERSION = 3

_DTYPE_CODES = {0: np.float64, 1: np.int64}
_CODES_BY_DTYPE = {np.dtype(np.float64): 0, np.dtype(np.int64): 1}


def write_state(path, kind_code: int,
                arrays: list[tuple[str, np.ndarray]]) -> None:
    body = bytearray()
    body.append(kind_code)
    body += struct.pack("<I", len(arrays))
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _CODES_BY_DTYPE:
            raise ModelFormatError(f"array {name!r} has unsupported dtype {arr.dtype}")
        nb = name.encode("utf-8")
        body += struct.pack("<H", len(nb)) + nb
        body += struct.pack("<BB", _CODES_BY_DTYPE[arr.dtype], arr.ndim)
        for d in arr.shape:
            body += struct.pack("<I", d)
        body += arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    total = len(MAGIC) + 4 + 8 + len(body) + 4
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<Q", total)
    blob += body
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    Path(path).write_bytes(bytes(blob))


class _Reader:
    def __init__(self, data: bytes, offset: int):
        self.data = data
        self.pos = offset

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ModelTruncatedError(
                f"file ends {self.pos + n - len(self.data)} bytes early")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


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
    kind_code = r.u8()
    arrays = []
    for _ in range(r.u32()):
        name = r.take(r.u16()).decode("utf-8")
        dtype_code = r.u8()
        if dtype_code not in _DTYPE_CODES:
            raise ModelFormatError(f"array {name!r} has unknown dtype code {dtype_code}")
        ndim = r.u8()
        shape = tuple(r.u32() for _ in range(ndim))
        dtype = np.dtype(_DTYPE_CODES[dtype_code]).newbyteorder("<")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = r.take(count * dtype.itemsize)
        arr = np.frombuffer(raw, dtype=dtype).astype(
            _DTYPE_CODES[dtype_code]).reshape(shape)
        arrays.append((name, arr))
    if r.pos != len(r.data):
        raise ModelFormatError(f"{len(r.data) - r.pos} unexpected trailing bytes")
    return kind_code, arrays
