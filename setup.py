from setuptools import Extension, setup

# The training kernel is plain C with no Python API, loaded through ctypes by
# netsom._core_c, so building it needs only a C compiler. It is optional: if
# the compiler is missing or fails, the package installs pure-python and
# netsom._backend falls back to numpy at import.
setup(
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
    ]
)
