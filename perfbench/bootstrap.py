"""Process set-up shared by the benchmark scripts; import it before numpy.

Pins the BLAS thread count (OpenBLAS reads it once, when numpy loads),
keeps the checkout free of bytecode files and puts the package sources
of the checkout first on the import path, so the benchmark always
measures the code next to it, never an installed copy.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: within nproc on any machine, steadier on a shared host,
# and one reduction order for the stored loss trajectories.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "linecontrast").is_dir():
    sys.exit(f"no package sources in {SRC}: run the benchmark from a checkout of the repository")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
