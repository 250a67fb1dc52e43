"""Little-endian float32 array files with an 8-byte magic header.

Layout: magic ``PSDAF32\\x00`` (8 bytes), u32 ndim, ndim x u64 shape,
then the row-major float32 payload.  Used for gradient dumps and matrix
sidecars; the cluster-model container embeds bare payloads with shapes
recorded in its JSON manifest instead.
"""

import struct

import numpy as np

from .errors import ModelFormatError

ARRAY_MAGIC = b"PSDAF32\x00"


def pack_array(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    header = ARRAY_MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return header + arr.tobytes()


def write_array(fh, arr: np.ndarray) -> tuple[int, int]:
    """Append one array; returns (offset, byte length) of the record."""
    offset = fh.tell()
    data = pack_array(arr)
    fh.write(data)
    return offset, len(data)


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ModelFormatError(f"truncated file while reading {what}")
    return data


def read_array(fh, offset: int | None = None) -> np.ndarray:
    if offset is not None:
        fh.seek(offset)
    magic = fh.read(8)
    if magic != ARRAY_MAGIC:
        raise ModelFormatError(f"bad array magic {magic!r}")
    (ndim,) = struct.unpack("<I", _read_exact(fh, 4, "array ndim"))
    if ndim > 8:
        raise ModelFormatError(f"implausible ndim {ndim}")
    shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, "array shape"))
    count = int(np.prod(shape)) if ndim else 1
    payload = _read_exact(fh, 4 * count, "array payload")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)
