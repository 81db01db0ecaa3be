"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``install`` replaces the
public netsom functions that ``netsom.cli`` calls, and the two kernels in
``netsom._backend``, with wrappers that time each call. Nothing under
``src/`` is changed.

``netsom.cli`` binds ``load_csv``, ``calibrate``, ``save_map`` and the rest
with ``from ... import``, so those names are replaced on ``netsom.cli``
itself. ``netsom.core`` and ``netsom.anomaly`` look up
``_backend.bmu_batch`` and ``_backend.run_steps`` at call time, so
replacing them on ``netsom._backend`` catches every kernel call, and the
parent span tells which layer made it.
"""

from __future__ import annotations

import functools
import inspect
import resource
import time


class Recorder:
    """Spans kept in memory: name, start, end, parent index, counts and the
    growth of the process's peak resident set while the span was open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args, result)``
        returns work counts to attach to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            rss = _maxrss_kib()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_growth_kib"] = _maxrss_kib() - rss
                self._open.pop()
            if count is not None:
                span["counts"] = count(args, result)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap the CLI commands, the library functions the CLI calls, and the
    kernels. Span names are ``<module>.<function>``, with ``cli.<command>``
    for the commands and ``backend.*`` for the kernels."""
    import netsom._backend as backend
    import netsom.cli as cli

    for attr, fn in list(vars(cli).items()):
        if not inspect.isfunction(fn) or attr.startswith("_"):
            continue
        module = fn.__module__
        if module == "netsom.cli":
            if attr.startswith("run_"):
                setattr(cli, attr, recorder.wrap("cli." + attr[len("run_"):], fn))
        elif module.startswith("netsom."):
            layer = module[len("netsom."):].lstrip("_")
            setattr(cli, attr, recorder.wrap(f"{layer}.{attr}", fn, _COUNTS.get(attr)))

    backend.bmu_batch = recorder.wrap("backend.bmu_batch", backend.bmu_batch, _bmu_counts)
    backend.run_steps = recorder.wrap("backend.run_steps", backend.run_steps, _step_counts)


def call_cost_s() -> float:
    """Time a recorded span adds to one call: a wrapped no-op against the
    bare no-op, each the fastest of five batches of 1000 calls."""
    calls = 1000

    def noop(*args):
        return args

    wrapped = Recorder().wrap("noop", noop, lambda args, result: {"rows": len(args)})
    best = {}
    for fn in (noop, wrapped):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                fn(calls)
            times.append(time.perf_counter() - start)
        best[fn] = min(times) / calls
    return max(0.0, best[wrapped] - best[noop])


def _bmu_counts(args, result) -> dict:
    weights, xs = args[0], args[1]
    return {"rows": int(xs.shape[0]), "nodes": int(weights.shape[0]),
            "dim": int(weights.shape[1])}


def _step_counts(args, result) -> dict:
    weights, stimuli = args[0], args[2]
    return {"steps": int(stimuli.shape[0]), "nodes": int(weights.shape[0]),
            "dim": int(weights.shape[1])}


_COUNTS = {"load_csv": lambda args, result: {"rows": len(result)}}


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
