"""Kernel backend selection: compiled C kernel with pure numpy fallback.

Set ``NETSOM_BACKEND=python`` or ``NETSOM_BACKEND=compiled`` to force one.
"""

from __future__ import annotations

import os

from netsom import _core_c, _core_py

_forced = os.environ.get("NETSOM_BACKEND", "").strip().lower()
if _forced not in ("", "python", "compiled"):
    raise ImportError(
        f"unknown NETSOM_BACKEND value {_forced!r}; use 'python' or 'compiled'"
    )
_library = _core_c.built_library() if _forced != "python" else None
if _forced == "compiled" and _library is None:
    raise ImportError(
        "NETSOM_BACKEND=compiled but the netsom._kernel library is not built "
        "(run: python3 setup.py build_ext --inplace)"
    )
_impl = _core_c.Kernel(_library) if _library is not None else _core_py

bmu_batch = _impl.bmu_batch
run_steps = _impl.run_steps


def backend_name() -> str:
    """Name of the kernel implementation in use: 'compiled' or 'python'."""
    return _impl.NAME
