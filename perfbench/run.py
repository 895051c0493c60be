"""consensuslab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Pins the BLAS/OpenMP pools to one thread
before numpy loads, imports consensuslab from ./src (and refuses to run
without it), then hands over to harness.main. The last line of standard
output is the JSON result.
"""

import os
import sys
from pathlib import Path

# One BLAS thread (never more than nproc) so that the N=400 dense matvec does
# not depend on the pool size or on other load.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main():
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "consensuslab" / "__init__.py").is_file():
        sys.exit(f"consensuslab sources not found under {src}")
    sys.path.insert(0, str(src))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
