"""The tests run under the bit contract's conditions: BLAS on one thread,
as ``yieldgraph.cli`` and ``perfbench/run.py`` pin it, so the bit-for-bit
tests compare code paths at the thread count the contract is stated for.
BLAS reads the setting when numpy first loads it, so the pin must come
before any import of numpy; this file fails if one came first."""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin BLAS to one thread; "
        "run the tests with no plugin or option that imports numpy first"
    )
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
