import os
import sys

# A matmul's rounding depends on how BLAS splits it over threads, so the
# command line runs one thread, unless the environment names a count, before
# the CLI imports numpy: a fixed --seed then gives the same bytes on any CPU count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
