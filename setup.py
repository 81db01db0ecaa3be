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
            # -ffp-contract=off: the kernel must round exactly like the pure
            # backend; fused multiply-adds would change results.
            extra_compile_args=["-O3", "-ffp-contract=off"],
            libraries=["m"],
            optional=True,
        )
    ]
)
