"""Pin BLAS to one thread for the whole test suite, before numpy loads.

On a small machine a multithreaded BLAS makes one test's time swing
several-fold (test_constraint_count_rank_cap: 1.35-1.44 s unpinned against
0.17 s pinned on a 2-vCPU VM), so the per-test durations pytest prints
compare only when pinned; the suite's total time does not change.  The
file sits at the root because benchmark/test_benchmark.py imports numpy
while it is collected, before tests/conftest.py would run.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
