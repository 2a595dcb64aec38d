"""The heap policy for the kernels' whole-sequence temporaries (README,
"Kernels"): two glibc calls through ``ctypes``, each a no-op where the C
library lacks it."""

import ctypes

try:
    _LIBC = ctypes.CDLL(None)
except (OSError, TypeError):  # no C library to load
    _LIBC = None


def keep_freed_pages():
    """Keep freed blocks in the heap for the next kernel call instead of
    mapping fresh pages for each: fix the mmap threshold (any ``mallopt``
    call stops it from sliding up) and the trim threshold."""
    if hasattr(_LIBC, "mallopt"):
        _LIBC.mallopt.argtypes = ctypes.c_int, ctypes.c_int
        _LIBC.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        _LIBC.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def release_freed_pages():
    """Hand the heap's free pages back to the OS once no step reuses them."""
    if hasattr(_LIBC, "malloc_trim"):
        _LIBC.malloc_trim.argtypes = (ctypes.c_size_t,)
        _LIBC.malloc_trim(0)
