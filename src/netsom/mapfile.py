"""Binary map file format.

Layout, all little endian, no padding:

    magic     6 bytes  b"NETSOM"
    version   uint32   format version (currently 1)
    rows      uint32
    cols      uint32
    dim       uint32
    seed      uint64   creation seed
    steps     uint64   adaptation steps applied
    weights   rows*cols*dim float64, row-major node order

Weights are written at full precision; save -> load round-trips bit exactly.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from netsom.core import SomMap
from netsom.grid import GridShape

MAGIC = b"NETSOM"
MAP_FORMAT_VERSION = 1
_HEADER = struct.Struct("<6sIIIIQQ")


class MapFormatError(ValueError):
    """A map file is malformed, truncated, or of an unsupported version."""


def save_map(som: SomMap, path) -> None:
    """Write ``som`` to ``path`` atomically (no partial file on failure)."""
    payload = _HEADER.pack(
        MAGIC,
        MAP_FORMAT_VERSION,
        som.shape.rows,
        som.shape.cols,
        som.dim,
        som.seed,
        som.steps_trained,
    ) + som.weights.astype("<f8", copy=False).tobytes()
    write_atomic(path, payload)


def load_map(path) -> SomMap:
    """Read a map written by :func:`save_map`."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise MapFormatError(f"unexpected end of map file: {path}")
    magic, version, rows, cols, dim, seed, steps = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise MapFormatError(f"not a netsom map file (bad magic): {path}")
    if version != MAP_FORMAT_VERSION:
        raise MapFormatError(
            f"unsupported map format version {version} (expected {MAP_FORMAT_VERSION}): {path}"
        )
    if rows < 1 or cols < 1 or dim < 1:
        raise MapFormatError(f"invalid map header (rows={rows}, cols={cols}, dim={dim}): {path}")
    expected = _HEADER.size + rows * cols * dim * 8
    if len(data) < expected:
        raise MapFormatError(f"unexpected end of map file: {path}")
    if len(data) > expected:
        raise MapFormatError(f"trailing bytes after map payload: {path}")
    weights = (
        np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
        .reshape(rows * cols, dim)
        .astype(np.float64)
    )
    if not np.all(np.isfinite(weights)):
        raise MapFormatError(f"map file contains non-finite weights: {path}")
    return SomMap(
        shape=GridShape(rows, cols), weights=weights, seed=seed, steps_trained=steps
    )


def write_atomic(path, payload: bytes) -> None:
    """Write bytes via a temp file and rename, so readers never see partials.

    The temp file gets a random name in the target's directory, so concurrent
    writers of one path never share it and the last rename wins. It is
    synced to disk before the rename, so a crash cannot leave a renamed but
    empty file. Like a plain write, it is created with mode 0o666 less the
    umask (``tempfile.mkstemp`` would make it 0o600).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
