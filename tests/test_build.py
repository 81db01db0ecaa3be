"""The in-place build's bytecode step.

``python3 setup.py build_ext --inplace`` writes a checked-hash pyc for every
module of the package, even when the optional kernel fails to compile, so a
new process imports netsom without compiling it, and a source edited after
the build is still imported from the source.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# Hash-based and checked: the pyc header's flags word (PEP 552).
CHECKED_HASH_FLAGS = 0b11

# Imports the named netsom modules and prints, as JSON, the netsom sources
# the import system compiled instead of loading their pycs, then each
# module's docstring.
IMPORT_SPY = """
import importlib, importlib.machinery, json, sys
compiled = []
to_code = importlib.machinery.SourceFileLoader.source_to_code
def spy(self, data, path, **kw):
    compiled.append(path)
    return to_code(self, data, path, **kw)
importlib.machinery.SourceFileLoader.source_to_code = spy
modules = [importlib.import_module(name) for name in sys.argv[1:]]
print(json.dumps({"compiled": [p for p in compiled if "netsom" in p],
                  "docs": [m.__doc__ for m in modules]}))
"""


@pytest.fixture(scope="module")
def built_root(tmp_path_factory):
    """A copy of setup.py, pyproject.toml and the package's sources, built
    in place with a C compiler that always fails."""
    root = tmp_path_factory.mktemp("build")
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, root)
    package = root / "src" / "netsom"
    package.mkdir(parents=True)
    sources = ROOT / "src" / "netsom"
    for source in [*sources.glob("*.py"), sources / "_kernel.c"]:
        shutil.copy(source, package)
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=root, env=dict(os.environ, CC="false", PYTHONDONTWRITEBYTECODE="1"),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout
    assert not list(package.glob("_kernel*.so")), "the kernel compiled with CC=false"
    return root


def _modules(root: Path) -> list[Path]:
    return sorted((root / "src" / "netsom").glob("*.py"))


def _import(root: Path, names: list[str]) -> dict:
    """What :data:`IMPORT_SPY` prints for ``names`` in a new process that
    imports netsom from ``root`` and writes no bytecode."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
               NETSOM_BACKEND="python")
    done = subprocess.run([sys.executable, "-c", IMPORT_SPY, *names], env=env, cwd=root,
                          stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_every_module_gets_a_checked_hash_pyc(built_root):
    sources = _modules(built_root)
    assert len(sources) > 1
    for source in sources:
        pyc = Path(importlib.util.cache_from_source(source))
        assert pyc.is_file(), f"{source.name} has no pyc"
        data = pyc.read_bytes()
        assert data[:4] == importlib.util.MAGIC_NUMBER
        assert int.from_bytes(data[4:8], "little") == CHECKED_HASH_FLAGS, source.name
        assert data[8:16] == importlib.util.source_hash(source.read_bytes()), source.name


def test_a_new_process_compiles_no_module(built_root):
    names = ["netsom.cli"] + [
        "netsom" if s.stem == "__init__" else f"netsom.{s.stem}" for s in _modules(built_root)
    ]
    assert _import(built_root, names)["compiled"] == []


def test_a_source_edited_after_the_build_is_imported(built_root, tmp_path):
    root = tmp_path / "copy"
    shutil.copytree(built_root, root)
    source = root / "src" / "netsom" / "grid.py"
    assert Path(importlib.util.cache_from_source(source)).is_file()
    before = source.stat()
    text = source.read_text(encoding="utf-8")
    assert text.startswith('"""R')
    source.write_text('"""X' + text[4:], encoding="utf-8")
    os.utime(source, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = source.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)

    seen = _import(root, ["netsom.grid"])
    assert seen["docs"][0].startswith("X")
    assert seen["compiled"] == [str(source)]
