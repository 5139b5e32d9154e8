"""Far-field diffraction of matter waves at a two-hole wall.

Closed-form single-hole screen amplitudes (sinc envelope, linear phase
ramp from the hole offset), their coherent superposition, and the
resulting screen densities.  A brute-force Fresnel quadrature of the
same aperture is provided as an independent cross-check of the closed
forms; it is intended for tests, not for production paths.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

__all__ = [
    "FRAUNHOFER_LIMIT",
    "Hole",
    "QuadratureConvergenceError",
    "RealDensity",
    "SlitGeometry",
    "TransverseAmplitude",
    "default_geometry",
    "fresnel_oracle",
    "intensity",
    "relative_l2_error",
    "single_hole_amplitude",
    "superpose",
    "visibility",
]

# Closed forms are only trusted in the far field; reject geometries with a
# per-hole Fresnel number w^2/(lambda L) above this.
FRAUNHOFER_LIMIT = 0.1

# A stored weight must reproduce the trapezoid integral of |psi|^2.
WEIGHT_INTEGRAL_RTOL = 1e-9

# Single-hole amplitudes carry probability weights <= 1.  A superposition's
# grid integral additionally picks up the two-branch cross term, which is
# physical and stays below ~1e-3 of the total for well-separated holes.
WEIGHT_CEILING = 1.0 + 1e-3


class Hole(enum.Enum):
    """Labels for the two holes; A sits at -separation/2, B at +separation/2."""

    A = "A"
    B = "B"


class QuadratureConvergenceError(RuntimeError):
    """The Fresnel quadrature failed its node-doubling consistency check."""


@dataclass(frozen=True)
class SlitGeometry:
    """Layout of the wall, its two holes, and the backstop grid.

    All lengths are meters.  The backstop is a uniform grid of
    ``grid_points`` positions spanning ``[grid_min, grid_max]`` at a
    distance ``wall_to_backstop`` behind the wall.  Construction rejects
    parameter sets outside the far-field regime of the closed-form
    amplitudes and grids too narrow to contain the first three fringes.
    """

    hole_separation: float
    hole_width_a: float
    hole_width_b: float
    wall_to_backstop: float
    de_broglie_wavelength: float
    grid_min: float
    grid_max: float
    grid_points: int

    def __post_init__(self) -> None:
        for name in ("hole_separation", "hole_width_a", "hole_width_b", "wall_to_backstop",
                     "de_broglie_wavelength", "grid_min", "grid_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.hole_separation <= 0:
            raise ValueError("hole_separation must be positive")
        if self.hole_width_a <= 0 or self.hole_width_b <= 0:
            raise ValueError("hole widths must be positive")
        if self.wall_to_backstop <= 0:
            raise ValueError("wall_to_backstop must be positive")
        if self.de_broglie_wavelength <= 0:
            raise ValueError("de_broglie_wavelength must be positive")
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        if not self.grid_min < self.grid_max:
            raise ValueError("grid_min must be below grid_max")
        if self.hole_separation <= (self.hole_width_a + self.hole_width_b) / 2:
            raise ValueError("holes overlap: separation must exceed the mean hole width")
        for width in (self.hole_width_a, self.hole_width_b):
            if width**2 / self.wavelength_distance > FRAUNHOFER_LIMIT:
                raise ValueError(
                    "outside the far-field regime: hole width^2/(wavelength*distance) "
                    f"= {width**2 / self.wavelength_distance:.3g} exceeds {FRAUNHOFER_LIMIT}"
                )
        if self.grid_max - self.grid_min < 6 * self.fringe_period:
            raise ValueError("grid must span at least six fringe periods (three fringes per side)")

    @property
    def wavelength_distance(self) -> float:
        """lambda * L, the far-field scale factor (m^2)."""
        return self.de_broglie_wavelength * self.wall_to_backstop

    @property
    def fringe_period(self) -> float:
        """Spacing lambda*L/s of the two-hole interference fringes (m)."""
        return self.wavelength_distance / self.hole_separation

    def hole_center(self, hole: Hole) -> float:
        return -self.hole_separation / 2 if hole is Hole.A else self.hole_separation / 2

    def hole_width(self, hole: Hole) -> float:
        return self.hole_width_a if hole is Hole.A else self.hole_width_b

    @cached_property
    def grid(self) -> np.ndarray:
        """Backstop positions (read-only array)."""
        x = np.linspace(self.grid_min, self.grid_max, self.grid_points)
        x.flags.writeable = False
        return x


def default_geometry() -> SlitGeometry:
    """Geometry used by the command-line runs and the acceptance suite.

    50 nm wavelength, 0.5 um holes 5 um apart, a 1 m flight path, and an
    8192-point backstop over +-0.2 m.  Fringe period: 1 cm, envelope first
    zero: 0.1 m, per-hole Fresnel number: 5e-6.
    """
    return SlitGeometry(
        hole_separation=5e-6,
        hole_width_a=0.5e-6,
        hole_width_b=0.5e-6,
        wall_to_backstop=1.0,
        de_broglie_wavelength=50e-9,
        grid_min=-0.2,
        grid_max=0.2,
        grid_points=8192,
    )


def _trapezoid(values: np.ndarray, x: np.ndarray) -> float:
    return float(np.trapezoid(values, x))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


class TransverseAmplitude:
    """Complex screen amplitude sampled on the backstop grid.

    ``weight`` is the trapezoid integral of |values|^2 over the grid and is
    validated against it at construction.  Zero amplitudes are permitted
    (weight 0); weights above ~1 + 1e-3 are rejected.
    """

    __slots__ = ("geometry", "values", "weight")

    def __init__(self, geometry: SlitGeometry, values: np.ndarray, weight: float):
        values = _readonly(np.asarray(values, dtype=complex))
        if values.shape != geometry.grid.shape:
            raise ValueError("amplitude values must match the geometry grid")
        integral = _trapezoid(np.abs(values) ** 2, geometry.grid)
        if abs(integral - weight) > WEIGHT_INTEGRAL_RTOL * max(abs(weight), 1e-30):
            raise ValueError(
                f"stored weight {weight!r} does not match integrated |psi|^2 {integral!r}"
            )
        if weight < 0 or weight > WEIGHT_CEILING:
            raise ValueError(f"weight {weight!r} outside [0, {WEIGHT_CEILING}]")
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weight", float(weight))

    def __setattr__(self, name, value):
        raise AttributeError("TransverseAmplitude is immutable")

    def renormalized(self, weight: float = 1.0) -> "TransverseAmplitude":
        """Rescale so the grid integral of |psi|^2 equals ``weight``."""
        if self.weight <= 0:
            raise ValueError("cannot renormalize a zero amplitude")
        scale = np.sqrt(weight / self.weight)
        return TransverseAmplitude(self.geometry, self.values * scale, weight)


class RealDensity:
    """Nonnegative screen density on a grid (full geometry grid or a slice).

    ``total`` is the trapezoid integral of ``values`` over ``x`` and is
    validated against it at construction.
    """

    __slots__ = ("geometry", "x", "values", "total")

    def __init__(
        self,
        geometry: SlitGeometry,
        values: np.ndarray,
        total: float,
        x: np.ndarray | None = None,
    ):
        x = geometry.grid if x is None else _readonly(np.asarray(x, dtype=float))
        values = _readonly(np.asarray(values, dtype=float))
        if values.shape != x.shape:
            raise ValueError("density values must match the grid")
        if values.size < 2:
            raise ValueError("density needs at least two grid points")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        integral = _trapezoid(values, x)
        if abs(integral - total) > WEIGHT_INTEGRAL_RTOL * max(abs(total), 1e-30):
            raise ValueError(f"stored total {total!r} does not match integral {integral!r}")
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "total", float(total))

    def __setattr__(self, name, value):
        raise AttributeError("RealDensity is immutable")

    def normalized(self) -> "RealDensity":
        """Rescale to unit total."""
        if self.total <= 0:
            raise ValueError("cannot normalize a zero density")
        values = self.values / self.total
        return RealDensity(self.geometry, values, _trapezoid(values, self.x), x=self.x)

    def restrict(self, lo: float, hi: float) -> "RealDensity":
        """Condition on a window: slice to grid points in [lo, hi], renormalize.

        The window edges snap inward to the nearest grid points so the
        restricted density keeps the parent's piecewise-linear cell masses;
        read the actual bounds back from ``x[0]`` and ``x[-1]``.
        """
        i0 = int(np.searchsorted(self.x, lo, side="left"))
        i1 = int(np.searchsorted(self.x, hi, side="right"))
        if i1 - i0 < 2:
            raise ValueError("window contains fewer than two grid points")
        x = self.x[i0:i1]
        values = self.values[i0:i1]
        mass = _trapezoid(values, x)
        if mass <= 0:
            raise ValueError("window carries no probability mass")
        values = values / mass
        return RealDensity(self.geometry, values, _trapezoid(values, x), x=x)


def single_hole_amplitude(geom: SlitGeometry, hole: Hole) -> TransverseAmplitude:
    """Far-field screen amplitude of one hole under uniform plane-wave arrival.

    The envelope is sinc(pi w x / (lambda L)) centered on the optical axis;
    the hole offset x_h enters only as the linear phase ramp
    exp(2i pi x_h x / (lambda L)).  The amplitude is scaled so its grid
    weight equals the hole's share of the open aperture, w_h/(w_A + w_B),
    which apportions the branches by aperture area.
    """
    x = geom.grid
    lam_l = geom.wavelength_distance
    width = geom.hole_width(hole)
    center = geom.hole_center(hole)
    raw = np.sinc(width * x / lam_l) * np.exp(2j * np.pi * center * x / lam_l)
    target = width / (geom.hole_width_a + geom.hole_width_b)
    raw_weight = _trapezoid(np.abs(raw) ** 2, x)
    values = raw * np.sqrt(target / raw_weight)
    return TransverseAmplitude(geom, values, target)


def superpose(a: TransverseAmplitude, b: TransverseAmplitude) -> TransverseAmplitude:
    """Pointwise sum of two amplitudes on the same grid.

    The weight is recomputed by integration; it is not the sum of the
    branch weights because the cross term carries real probability.
    """
    if a.geometry != b.geometry:
        raise ValueError("grid mismatch: amplitudes belong to different geometries")
    values = a.values + b.values
    weight = _trapezoid(np.abs(values) ** 2, a.geometry.grid)
    return TransverseAmplitude(a.geometry, values, weight)


def intensity(psi: TransverseAmplitude) -> RealDensity:
    """Detection density |psi|^2; its total equals the amplitude's weight."""
    return RealDensity(psi.geometry, np.abs(psi.values) ** 2, psi.weight)


def visibility(p: RealDensity, window: tuple[float, float]) -> float:
    """Fringe contrast (P_max - P_min)/(P_max + P_min) over a window.

    The window must lie inside the density's grid and span at least two
    full fringe periods of the geometry.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be an increasing interval")
    if lo < p.x[0] - 1e-12 or hi > p.x[-1] + 1e-12:
        raise ValueError("window extends beyond the density grid")
    period = p.geometry.fringe_period
    if hi - lo < 2 * period * (1 - 1e-9):
        raise ValueError("window too narrow: must span at least two fringe periods")
    mask = (p.x >= lo) & (p.x <= hi)
    selected = p.values[mask]
    if selected.size < 2:
        raise ValueError("window contains fewer than two grid points")
    p_max = float(selected.max())
    p_min = float(selected.min())
    if p_max + p_min == 0.0:
        return 0.0
    return (p_max - p_min) / (p_max + p_min)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return _readonly(nodes), _readonly(weights)


def _fresnel_field(
    geom: SlitGeometry, hole: Hole, nodes: int, screen_block: int = 1024
) -> np.ndarray:
    """Raw Fresnel field of one hole by Gauss-Legendre aperture quadrature.

    Kernel convention: exp(2i pi x x'/(lambda L)) * exp(-i pi x'^2/(lambda L)),
    i.e. the full aperture-side quadratic phase is kept (the term the
    far-field closed form neglects) while the constant prefactor and the
    screen-side quadratic phase, which never affect |psi| at the backstop,
    are dropped.  Aperture amplitude is uniform, 1/sqrt(w_A + w_B).
    """
    x = geom.grid
    lam_l = geom.wavelength_distance
    width = geom.hole_width(hole)
    center = geom.hole_center(hole)
    u, w_quad = _gauss_legendre(nodes)
    xs = center + u * (width / 2)
    w_quad = w_quad * (width / 2)
    aperture_phase = np.exp(-1j * np.pi * xs**2 / lam_l)
    amplitude = 1.0 / np.sqrt(geom.hole_width_a + geom.hole_width_b)
    weighted = amplitude * aperture_phase * w_quad / np.sqrt(lam_l)
    field = np.empty(x.size, dtype=complex)
    for start in range(0, x.size, screen_block):
        block = x[start : start + screen_block]
        kernel = np.exp((2j * np.pi / lam_l) * np.outer(block, xs))
        field[start : start + screen_block] = kernel @ weighted
    return field


def fresnel_oracle(
    geom: SlitGeometry,
    open_holes: Iterable[Hole] = (Hole.A, Hole.B),
    nodes_per_hole: int = 256,
) -> TransverseAmplitude:
    """Screen amplitude from brute-force quadrature of the diffraction integral.

    Independent of the closed forms: no far-field approximation is made on
    the aperture side.  Each open hole's field is renormalized on the grid
    to the aperture-area branch weight w_h/(w_A + w_B) (the same finite-grid
    convention the closed forms use) and the open holes are summed.

    Raises QuadratureConvergenceError if doubling the node count moves the
    raw field by more than 1e-9 in relative L2 norm.
    """
    holes = sorted(set(open_holes), key=lambda h: h.value)
    if not holes:
        raise ValueError("at least one hole must be open")
    x = geom.grid
    total = np.zeros(x.size, dtype=complex)
    for hole in holes:
        coarse = _fresnel_field(geom, hole, nodes_per_hole)
        fine = _fresnel_field(geom, hole, 2 * nodes_per_hole)
        err = np.sqrt(
            _trapezoid(np.abs(fine - coarse) ** 2, x) / _trapezoid(np.abs(fine) ** 2, x)
        )
        if err > 1e-9:
            raise QuadratureConvergenceError(
                f"aperture quadrature not converged for hole {hole.value}: "
                f"relative change {err:.3e} after doubling {nodes_per_hole} nodes"
            )
        target = geom.hole_width(hole) / (geom.hole_width_a + geom.hole_width_b)
        norm = _trapezoid(np.abs(fine) ** 2, x)
        total += fine * np.sqrt(target / norm)
    weight = _trapezoid(np.abs(total) ** 2, x)
    return TransverseAmplitude(geom, total, weight)


def relative_l2_error(
    candidate: TransverseAmplitude,
    reference: TransverseAmplitude,
    align_global_phase: bool = True,
) -> float:
    """Relative L2 distance ||a - e^{i phi} b|| / ||b|| on the shared grid.

    With ``align_global_phase`` the physically meaningless overall phase is
    optimized out before comparing; relative phases, envelope shape and
    normalization all still count.
    """
    if candidate.geometry != reference.geometry:
        raise ValueError("grid mismatch: amplitudes belong to different geometries")
    x = candidate.geometry.grid
    a = candidate.values
    b = reference.values
    if align_global_phase:
        overlap = np.vdot(b, a)
        if abs(overlap) > 0:
            b = b * (overlap / abs(overlap))
    num = _trapezoid(np.abs(a - b) ** 2, x)
    den = _trapezoid(np.abs(reference.values) ** 2, x)
    return float(np.sqrt(num / den))
