"""Desk-scale multitask self-instructed vulnerability detection pipeline."""
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

__version__ = "0.1.0"
