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


def save_map(som: SomMap, destination) -> None:
    """Write ``som`` to a binary file object, or atomically to a path (no
    partial file on failure)."""
    payload = _HEADER.pack(
        MAGIC,
        MAP_FORMAT_VERSION,
        som.shape.rows,
        som.shape.cols,
        som.dim,
        som.seed,
        som.steps_trained,
    ) + som.weights.astype("<f8", copy=False).tobytes()
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        write_atomic(destination, payload)


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

    See :class:`ArtifactSet`, which this uses for a set of one file.
    """
    with ArtifactSet() as files:
        files.stage(path, payload)


def write_text(destination, text: str) -> None:
    """Write ``text`` to a file object, or atomically as UTF-8 to a path."""
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        write_atomic(destination, text.encode("utf-8"))


class ArtifactSet:
    """Files replaced together: each is staged under a temp name and synced,
    and only when the ``with`` block ends without an error are they renamed
    into place, in the order they were staged. If the block raises, no
    target is touched; either way no temp file is left behind. Stage last
    the file that readers look for first.

    A temp file gets a random name in its target's directory, so concurrent
    writers of one path never share it and the last rename wins. It is
    synced to disk before the rename, so a crash cannot leave a renamed but
    empty file. Like a plain write, it is created with mode 0o666 less the
    umask (``tempfile.mkstemp`` would make it 0o600).
    """

    def __init__(self) -> None:
        self._staged: list[tuple[Path, Path]] = []

    def __enter__(self) -> ArtifactSet:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                for tmp, path in self._staged:
                    os.replace(tmp, path)
        finally:
            for tmp, _ in self._staged:
                tmp.unlink(missing_ok=True)

    def stage(self, path, payload: bytes) -> None:
        """Write ``payload`` to a synced temp file that will replace ``path``.
        A second file for a path already staged raises ValueError: one of
        the two would silently replace the other."""
        if os.path.abspath(path) in (os.path.abspath(p) for _, p in self._staged):
            raise ValueError(f"two files to be written to {path}")
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
        try:
            fd = os.open(tmp, flags, 0o666)
        except OSError as exc:  # name the user's path, not the temp name
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        self._staged.append((tmp, path))
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())

    def file(self, path) -> _StagedFile:
        """A destination for ``save_map``, ``save_csv`` and ``write_text``
        whose one write stages the whole of ``path``."""
        return _StagedFile(self, path)


class _StagedFile:
    def __init__(self, files: ArtifactSet, path) -> None:
        self._files = files
        self._path = path

    def write(self, data) -> None:
        self._files.stage(self._path, data.encode("utf-8") if isinstance(data, str) else data)
