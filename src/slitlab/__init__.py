"""Monte Carlo laboratory for two-hole matter-wave interference,
which-path and null measurements, and electron-shelving telegraph
statistics.  The package exports each module's ``__all__``."""


def _load_numpy_and_scipy_with_one_blas_thread():
    # numpy and scipy each load an OpenBLAS whose worker threads busy-wait
    # once started and take the CPU from the rest of the import; slitlab's
    # few BLAS calls are too small to split across threads anyway.  So both
    # load with one thread unless the caller set a thread count, and the
    # environment is left as it was for the processes the caller starts.
    import os

    one_thread = not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                      "OMP_NUM_THREADS"} & os.environ.keys()
    if one_thread:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
        import scipy.special  # noqa: F401
    finally:
        if one_thread:
            del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy_and_scipy_with_one_blas_thread()

from . import measurement, optics, shelving, stats  # noqa: E402
from .optics import *  # noqa: E402, F403
from .measurement import *  # noqa: E402, F403
from .stats import *  # noqa: E402, F403
from .shelving import *  # noqa: E402, F403

__version__ = "0.1.0"

__all__ = [*optics.__all__, *measurement.__all__, *stats.__all__, *shelving.__all__]
