"""Run one netsom CLI command in this process and record its timing.

    python3 child.py RECORD TRACE -- ARGV...

Imports netsom, notes the moment the package and its kernel backend are
ready, optionally installs the span recorder (TRACE = 1), runs
``netsom.cli.main(ARGV)`` and writes a JSON record to RECORD: the ready
time on the system-wide monotonic clock (so the parent can subtract its
spawn time), the backend name, the exit code, the spans, and the tracing
overhead: the time installing the recorder took plus the span count times
the cost of one recorded call, measured after the command has run.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    record_path, trace, sep = sys.argv[1:4]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py RECORD TRACE -- ARGV...")
    argv = sys.argv[4:]

    import netsom.cli
    from netsom import backend_name

    backend = backend_name()
    ready = time.monotonic()

    recorder = None
    if trace == "1":
        from spans import Recorder, call_cost_s, install

        recorder = Recorder()
        install(recorder)
        install_s = time.monotonic() - ready
    code = netsom.cli.main(argv)
    sys.stdout.flush()
    record = {"ready": ready, "backend": backend, "code": code, "spans": [], "overhead_s": 0.0}
    if recorder is not None:
        record["spans"] = recorder.spans
        record["overhead_s"] = install_s + len(recorder.spans) * call_cost_s()
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
