"""Pin BLAS to one thread for the test suite before numpy is imported.

The suite's matrices are small (batches of a few hundred rows), where one
BLAS thread is faster than several. An explicit setting in the environment
still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
