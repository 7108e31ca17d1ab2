"""Print the numerics profile of this host: numpy's runtime, the count of
avx512f CPU flags and the core type OpenBLAS chose for its kernels.

The goldens and bench digests pin one numerics profile (README, "Install
and test"), and numpy's runtime report cannot tell OpenBLAS's SkylakeX
kernels from its Haswell ones, so CI prints all three before its tests.
This script only reports: it exits 0 whatever it can or cannot read.

    python tests/numerics_profile.py
"""

from __future__ import annotations

import ctypes

import numpy

CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename")


def avx512f_flags() -> str:
    """The number of avx512f flags in /proc/cpuinfo, one per logical CPU."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            return str(handle.read().split().count("avx512f"))
    except OSError as err:
        return f"unknown ({err})"


def openblas_core() -> str:
    """The core type of the OpenBLAS that numpy loaded, read through its
    corename function from the library mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError as err:
        return f"unknown ({err})"
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in CORENAME_SYMBOLS:
            corename = getattr(library, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                name = (corename() or b"unnamed").decode(errors="replace")
                return f"{name} ({symbol} in {path})"
    return f"unknown (no {' or '.join(CORENAME_SYMBOLS)} in a mapped OpenBLAS library)"


if __name__ == "__main__":
    numpy.show_runtime()
    print(f"avx512f flags: {avx512f_flags()}")
    print(f"OpenBLAS core: {openblas_core()}")
