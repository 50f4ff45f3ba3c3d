import msivd  # noqa: F401

# Imported before any test module loads numpy, so that msivd pins BLAS to one
# thread: SIFT runs its streams on one thread per core, and BLAS threads on
# top of those would oversubscribe the cores.
