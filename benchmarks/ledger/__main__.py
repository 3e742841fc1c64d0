"""Entry point: ``python -m benchmarks.ledger`` (see :mod:`.cli`)."""

import os
import sys

# One BLAS thread, set before numpy loads; the serving child inherits it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
