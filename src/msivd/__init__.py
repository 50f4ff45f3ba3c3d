"""Desk-scale multitask self-instructed vulnerability detection pipeline."""
import ctypes
import os
import sys

# SIFT runs the streams of a mini-batch on one thread per core, so BLAS must
# not start threads of its own: set before anything here imports numpy, and a
# value the caller set wins. Where numpy was loaded first with none of them
# set, its thread count is unknown, and SIFT keeps to one thread.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_THREADS_SET = "numpy" not in sys.modules or any(v in os.environ for v in _BLAS_THREAD_VARS)
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

# Each SIFT stream's autograd graph is freed all at once when the stream
# ends. By default glibc trims that memory back to the kernel (and mmaps the
# larger arrays), so the worker's next stream faults it in again: 12.6k-19.6k
# minor faults per warm bench `sift` op of 16 streams, 14-20% of the CPU time
# in the kernel (2-core host, BLAS at one thread). With the mmap threshold at
# the cap of glibc's own dynamic threshold and a trim threshold of 64 MiB, a
# freed graph stays in the worker's arena for the next stream: 1-1.5 faults
# per op, 2-3% of the CPU time in the kernel, bench `sift` `samples_per_s`
# 1.16x. Both are set together: setting either alone switches off the
# dynamic mmap threshold, and a lone small value faults more than the
# defaults. As with BLAS, the caller's setting wins: glibc only, and not
# when the environment tunes malloc.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20
_MALLOC_ENV_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")
try:  # as platform.libc_ver() asks, without its fallback of reading the executable
    _GLIBC = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc ")
except (AttributeError, ValueError, OSError):  # no confstr, or no such name
    _GLIBC = False
if (
    _GLIBC
    and not any(v in os.environ for v in _MALLOC_ENV_VARS)
    and "glibc.malloc." not in os.environ.get("GLIBC_TUNABLES", "")
):
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    _mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)

__version__ = "0.1.0"
