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


def _load(forced: str, library):
    """The kernel implementation to use. That is the compiled kernel at
    ``library``, or the numpy fallback when ``library`` is None (not built),
    cannot be loaded or is stale; ``forced`` ('python', 'compiled' or '')
    overrides the choice."""
    if forced == "python":
        return _core_py
    try:
        if library is None:
            raise ImportError("the netsom._kernel library is not built")
        return _core_c.Kernel(library)
    except ImportError as exc:
        if forced == "compiled":
            raise ImportError(
                f"NETSOM_BACKEND=compiled but {exc} "
                "(rebuild: python3 setup.py build_ext --inplace)"
            ) from exc
        return _core_py


_impl = _load(_forced, _core_c.built_library())

bmu_batch = _impl.bmu_batch
run_steps = _impl.run_steps


def backend_name() -> str:
    """Name of the kernel implementation in use: 'compiled' or 'python'."""
    return _impl.NAME
