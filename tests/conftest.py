"""Pin BLAS to one thread before anything imports numpy, as CI and the benchmark do.

The GP matrices are tiny, so BLAS threads only contend with each other and
with a study's pool workers; unpinned, the study acceptance tests run
several times slower. A value already set in the environment is kept.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
