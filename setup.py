import py_compile
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

PACKAGE = Path(__file__).resolve().parent / "src" / "netsom"


class BuildExtWithBytecode(build_ext):
    """build_ext that, in place, also writes the bytecode of every module of
    the package into its ``__pycache__``.

    Each CLI command is a new process that imports the package. pip
    byte-compiles what it installs, but Python caches no bytecode of the
    source tree where PYTHONDONTWRITEBYTECODE=1 is set, as in many
    containers, and then every command compiles all of netsom's modules
    anew. On a 2-vCPU Xeon VM a new process's ``import netsom.cli`` took
    149 ms from source and 122 ms with these pycs (medians of 21
    alternating processes). The pycs are checked-hash: each import hashes
    the source and compiles it afresh if the hash differs, so a source
    edited after the build, even to the same size and mtime, is never
    shadowed by stale bytecode.
    """

    def run(self):
        try:
            super().run()
        finally:
            # The kernel is optional; the pycs are written even if it failed.
            if self.inplace:
                for source in sorted(PACKAGE.glob("*.py")):
                    py_compile.compile(
                        str(source), doraise=True,
                        invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH)


# The training kernel is plain C with no Python API, loaded through ctypes by
# netsom._core_c, so building it needs only a C compiler. It is optional: if
# the compiler is missing or fails, the package installs pure-python and
# netsom._backend falls back to numpy at import.
setup(
    cmdclass={"build_ext": BuildExtWithBytecode},
    ext_modules=[
        Extension(
            "netsom._kernel",
            ["src/netsom/_kernel.c"],
            # -std=c11: the parts of a split step loop wait for each other
            # through <stdatomic.h>. -ffp-contract=off: the kernel must round
            # exactly like the pure backend; fused multiply-adds would change
            # results. There is no -march: on x86-64 glibc the kernel builds
            # its two entry points once each for AVX-512, AVX2 and SSE2, and
            # the loader picks the widest the CPU runs (NETSOM_TARGETS in
            # _kernel.c), with the same results at every width. On a 2-vCPU
            # Xeon VM the AVX-512 copy ran 8000 steps of a 40x40 map with 41
            # features in two parts in 283 ms, against 392 ms for SSE2, and
            # searched 3000 rows against it in 28.5 ms, against 49.2 ms
            # (medians of 11 new processes). -falign-functions=64: each
            # function starts a cache line, so an edit to one does not move
            # the others' loops across fetch boundaries; one that moved
            # netsom_bmu_batch by 16 bytes made a split 100-node, 1000-row
            # search 15% slower (median).
            extra_compile_args=["-std=c11", "-O3", "-ffp-contract=off",
                                "-falign-functions=64"],
            libraries=["m"],
            optional=True,
        )
    ],
)
