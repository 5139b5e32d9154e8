"""Monte Carlo laboratory for two-hole matter-wave interference,
which-path and null measurements, and electron-shelving telegraph
statistics.  The package exports each module's ``__all__``."""

from . import measurement, optics, shelving, stats
from .optics import *  # noqa: F403
from .measurement import *  # noqa: F403
from .stats import *  # noqa: F403
from .shelving import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*optics.__all__, *measurement.__all__, *stats.__all__, *shelving.__all__]
