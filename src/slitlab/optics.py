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

# Clenshaw-Curtis nodes per hole of the Fresnel quadrature (checked against
# twice as many).
ORACLE_NODES_PER_HOLE = 256


class Hole(enum.Enum):
    """Labels for the two holes; A sits at -separation/2, B at +separation/2."""

    A = "A"
    B = "B"


class QuadratureConvergenceError(RuntimeError):
    """The Fresnel quadrature did not converge: doubling its nodes moved the field."""


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
        if not self.wavelength_distance > 0:
            raise ValueError(f"wavelength*distance = {self.wavelength_distance!r} underflows; "
                             "it must be positive")
        for width in (self.hole_width_a, self.hole_width_b):
            # width * width, not width**2: a product overflows to inf, where ** raises.
            fresnel_number = width * width / self.wavelength_distance
            if fresnel_number > FRAUNHOFER_LIMIT:
                raise ValueError(
                    "outside the far-field regime: hole width^2/(wavelength*distance) "
                    f"= {fresnel_number:.3g} exceeds {FRAUNHOFER_LIMIT}"
                )
        if self.grid_max - self.grid_min < 6 * self.fringe_period:
            raise ValueError("grid must span at least six fringe periods (three fringes per side)")
        # single_hole_amplitude's phase ramp, in its order of operations: a
        # product past the float range there gives inf, then NaN.
        edge = max(abs(self.grid_min), abs(self.grid_max))
        if not math.isfinite(2 * math.pi * (self.hole_separation / 2) * edge
                             / self.wavelength_distance):
            raise ValueError("the holes' phase ramp 2*pi*x_h*x/(wavelength*distance) "
                             "overflows at the grid's ends")

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
def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the n-point Clenshaw-Curtis rule on [-1, 1].

    The nodes are -cos(pi j/N) on N = n - 1 intervals and the weights the
    closed-form cosine sums of Trefethen's ``clencurt`` (Spectral Methods
    in MATLAB, SIAM 2000): no iteration, O(n^2) work.  The rule is exact
    for polynomials of degree N, and on the entire aperture integrand it
    converges as fast as Gauss quadrature (Trefethen, SIAM Rev. 50, 2008).
    The lower half is computed and mirrored, so nodes are exactly
    antisymmetric and weights exactly symmetric; for odd n the middle node
    is exactly 0.
    """
    if n < 2:
        raise ValueError(f"a Clenshaw-Curtis rule needs at least 2 nodes, got {n}")
    intervals = n - 1
    theta = np.pi * np.arange((n + 1) // 2) / intervals  # the lower half, middle included
    x = -np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # not cos(pi/2)'s 6e-17
    # Interior weights: 2/N (1 - sum_k 2 cos(2k theta)/(4k^2 - 1)), with the
    # k = N/2 term halved when N is even.  A loop over k, not a (node x k)
    # matrix: O(n) memory.
    interior = theta[1:]
    v = np.ones_like(interior)
    for k in range(1, (intervals - 1) // 2 + 1):
        v -= 2 * np.cos(2 * k * interior) / (4 * k * k - 1)
    if intervals % 2:
        end_weight = 1 / intervals**2
    else:
        end_weight = 1 / (intervals**2 - 1)
        v -= np.cos(intervals * interior) / (intervals**2 - 1)
    w = np.concatenate([[end_weight], 2 * v / intervals])
    half = n // 2
    nodes = np.concatenate([x, -x[:half][::-1]])
    return _readonly(nodes), _readonly(np.concatenate([w, w[:half][::-1]]))


def _geometric_rows(first: complex | np.ndarray, ratio: np.ndarray, count: int) -> np.ndarray:
    """Table whose row j is first * ratio**j, for j < count, built by doubling.

    Rows [m, 2m) are rows [0, m) times ratio**m, so each entry is at most
    log2(count) products and squarings away from ``first`` and ``ratio``.
    """
    table = np.empty((count, ratio.size), dtype=complex)
    table[0] = first
    power = ratio
    filled = 1
    while filled < count:
        m = min(filled, count - filled)
        np.multiply(table[:m], power, out=table[filled : filled + m])
        filled += m
        power = power * power
    return table


def _fresnel_field(geom: SlitGeometry, hole: Hole, nodes: int) -> np.ndarray:
    """Raw Fresnel field of one hole by Clenshaw-Curtis aperture quadrature.

    Kernel convention: exp(2i pi x x'/(lambda L)) * exp(-i pi x'^2/(lambda L)),
    i.e. the full aperture-side quadratic phase is kept (the term the
    far-field closed form neglects) while the constant prefactor and the
    screen-side quadratic phase, which never affect |psi| at the backstop,
    are dropped.  Aperture amplitude is uniform, 1/sqrt(w_A + w_B).

    The screen-side kernel is separated on the uniform backstop grid: with
    x_j = grid_min + j dx cut into blocks of B = isqrt(grid_points) points,
    exp(ik x_{bB+r} x') = exp(ik (grid_min + bB dx) x') * exp(ik r dx x').
    One (blocks x nodes) row table and one (B x nodes) step table then give
    the field as a single matrix product in O(sqrt(n) * nodes) kernel
    memory, for n = grid_points.  Both tables are geometric in their row
    index, step[r] = z^r with z = exp(ik dx x') and rows[b] = rows[0] z_B^b
    with z_B = exp(ik B dx x'), so they are built by multiplication
    (``_geometric_rows``) from three complex exponentials per node (z, z_B
    and rows[0]) instead of one per table entry.  Their entries stay within
    about 1.5e-14 of the direct exponentials, about as far as those are
    from the exact values at phases of up to about 20 rad.  The last block
    is padded and the result cut to the grid.
    """
    n = geom.grid_points
    lam_l = geom.wavelength_distance
    width = geom.hole_width(hole)
    center = geom.hole_center(hole)
    u, w_quad = _clenshaw_curtis(nodes)
    xs = center + u * (width / 2)
    w_quad = w_quad * (width / 2)
    aperture_phase = np.exp(-1j * np.pi * xs**2 / lam_l)
    amplitude = 1.0 / np.sqrt(geom.hole_width_a + geom.hole_width_b)
    weighted = amplitude * aperture_phase * w_quad / np.sqrt(lam_l)
    block = math.isqrt(n)
    n_blocks = -(-n // block)
    dx = (geom.grid_max - geom.grid_min) / (n - 1)
    k = 2j * np.pi / lam_l
    step = _geometric_rows(1.0, np.exp(k * dx * xs), block)
    rows = _geometric_rows(
        np.exp(k * geom.grid_min * xs) * weighted, np.exp(k * (dx * block) * xs), n_blocks
    )
    return (rows @ step.T).reshape(-1)[:n]


@lru_cache(maxsize=64)
def _hole_field(geom: SlitGeometry, hole: Hole) -> np.ndarray:
    """One hole's converged quadrature field at its aperture-share weight.

    The field at ``2 * ORACLE_NODES_PER_HOLE`` nodes is accepted when it
    differs from the one at ``ORACLE_NODES_PER_HOLE`` by at most 1e-9 in
    relative L2 norm, then rescaled on the grid to the weight
    w_h/(w_A + w_B).  Cached per (geometry, hole), so the two-hole oracle
    reuses the single-hole fields; a failed check, a NaN change included,
    raises and is not cached.
    The returned array is read-only.
    """
    x = geom.grid
    coarse = _fresnel_field(geom, hole, ORACLE_NODES_PER_HOLE)
    fine = _fresnel_field(geom, hole, 2 * ORACLE_NODES_PER_HOLE)
    norm = _trapezoid(np.abs(fine) ** 2, x)
    err = np.sqrt(_trapezoid(np.abs(fine - coarse) ** 2, x) / norm)
    if not err <= 1e-9:
        raise QuadratureConvergenceError(
            f"aperture quadrature not converged for hole {hole.value}: "
            f"relative change {err:.3e} after doubling {ORACLE_NODES_PER_HOLE} nodes"
        )
    target = geom.hole_width(hole) / (geom.hole_width_a + geom.hole_width_b)
    return _readonly(fine * np.sqrt(target / norm))


def fresnel_oracle(
    geom: SlitGeometry, open_holes: Iterable[Hole] = (Hole.A, Hole.B)
) -> TransverseAmplitude:
    """Screen amplitude from brute-force quadrature of the diffraction integral.

    Independent of the closed forms: no far-field approximation is made on
    the aperture side.  Each open hole's field is rescaled on the grid
    to the aperture-area branch weight w_h/(w_A + w_B) (the same finite-grid
    convention the closed forms use) and the open holes are summed.  Each
    hole's field is computed once per geometry and cached (64 entries).

    Raises QuadratureConvergenceError if doubling the ``ORACLE_NODES_PER_HOLE``
    nodes moves the raw field by more than 1e-9 in relative L2 norm.
    """
    holes = sorted(set(open_holes), key=lambda h: h.value)
    if not holes:
        raise ValueError("at least one hole must be open")
    total = sum(_hole_field(geom, hole) for hole in holes)
    weight = _trapezoid(np.abs(total) ** 2, geom.grid)
    return TransverseAmplitude(geom, total, weight)


def relative_l2_error(candidate: TransverseAmplitude, reference: TransverseAmplitude) -> float:
    """Relative L2 distance ||a - e^{i phi} b|| / ||b|| on the shared grid.

    The physically meaningless overall phase phi is optimized out before
    comparing; relative phases, envelope shape and normalization all still
    count.
    """
    if candidate.geometry != reference.geometry:
        raise ValueError("grid mismatch: amplitudes belong to different geometries")
    x = candidate.geometry.grid
    a = candidate.values
    b = reference.values
    overlap = np.vdot(b, a)
    if abs(overlap) > 0:
        b = b * (overlap / abs(overlap))
    num = _trapezoid(np.abs(a - b) ** 2, x)
    den = _trapezoid(np.abs(reference.values) ** 2, x)
    return float(np.sqrt(num / den))
