"""The package's public names and the README's library example."""

import re
from pathlib import Path

import numpy as np

import netsom

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    """The first ``python`` code block under the README's "## Library use"."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_readme_library_use_runs(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    data = rng.normal(0.0, 1.0, size=(120, 3))
    lines = ["f0,f1,f2"] + [",".join(repr(float(v)) for v in row) for row in data]
    (tmp_path / "normal.csv").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    baseline, residual, flagged = (namespace[k] for k in ("baseline", "residual", "flagged"))
    assert flagged.shape == (120,)
    assert np.array_equal(flagged, residual > baseline.threshold)


def test_all_is_sorted_unique_and_resolves():
    names = netsom.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(netsom, name)] == []
