"""Position sampling on the backstop and goodness-of-fit machinery.

Individual electrons arrive as discrete counts; the screen density only
emerges from many of them.  Samples are drawn by inverting the
piecewise-linear CDF of a gridded density, so positions are continuous
and the expected bin masses used by the chi-square test follow the exact
same convention as the sampler.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .optics import RealDensity, SlitGeometry, _readonly

__all__ = [
    "ChiSquareResult",
    "FringeVisibility",
    "GriddedCdf",
    "Histogram",
    "KsResult",
    "PositionSample",
    "SparseTableError",
    "WindowedChi2",
    "chi_square_gof",
    "filter_positions",
    "fringe_visibility_from_positions",
    "histogram",
    "ks_exponential",
    "sample_positions",
]

NORMALIZATION_TOL = 1e-9
MIN_EXPECTED_PER_BIN = 5.0
# WindowedChi2 conditions on +-CHI2_HALF_PERIODS fringe periods, a central
# stretch where every fringe-minimum bin still expects >= 5 counts at the
# default sample size, and tries these bin counts, finest first.
CHI2_HALF_PERIODS = 6
CHI2_BIN_LADDER = (96, 64, 48, 32, 24, 16, 12, 8)
# FringeVisibility reads the arrivals within +-VISIBILITY_HALF_PERIODS
# fringe periods.
VISIBILITY_HALF_PERIODS = 3
# GriddedCdf.ppf's guide table has between this many and twice as many
# cells per CDF node (16 on the default grid).
GUIDE_CELLS_PER_NODE = 12


class GriddedCdf:
    """Piecewise-linear CDFs of gridded densities on one grid (trapezoid cell masses).

    Linear interpolation between the cumulative node values makes each CDF
    continuous and strictly tractable in both directions; the implied
    sampling density is piecewise constant over grid cells.  ``cumulative``
    holds the node values of one density, or a row of them for each of
    several; ``cdf`` takes one density.
    """

    def __init__(self, *densities: RealDensity):
        if not densities:
            raise ValueError("a GriddedCdf needs at least one density")
        x = densities[0].x
        if any(not np.array_equal(density.x, x) for density in densities[1:]):
            raise ValueError("the densities do not share one grid")
        values = np.array([density.values for density in densities])
        cell_mass = 0.5 * (values[:, 1:] + values[:, :-1]) * np.diff(x)
        cumulative = np.concatenate((np.zeros((len(densities), 1)), np.cumsum(cell_mass, axis=1)),
                                    axis=1)
        self.x = x
        self.cumulative = cumulative[0] if len(densities) == 1 else cumulative

    def cdf(self, q) -> np.ndarray:
        if self.cumulative.ndim > 1:
            raise ValueError(f"cdf takes one density; this GriddedCdf holds {len(self.cumulative)}")
        return np.interp(q, self.x, self.cumulative)

    def ppf(self, u, rows=None) -> np.ndarray:
        """``np.interp(u, cumulative, x)``, bit for bit, by indexed search;
        with several densities, each key ``u`` inverts its own row of
        ``cumulative``, given by ``rows`` in [0, number of densities).

        A guide table over u (Chen & Asau 1974) gives the interval ``j`` of
        each key whose cell holds no node of its density straight away, and
        the key's position comes from numpy's own steps, ``slope[j] * (u -
        cumulative[j]) + x[j]``.  The keys in a cell that holds a node go to
        ``np.interp``: they include every key at or below 0, at or above the
        top node, or NaN, and so all of numpy's special cases.
        """
        n_densities = len(np.atleast_2d(self.cumulative))
        if (n_densities > 1 if rows is None
                else np.size(rows) and not 0 <= np.min(rows) <= np.max(rows) < n_densities):
            raise ValueError(f"each key needs a row in [0, {n_densities}), its density's index")
        inverse_width, guide, slopes, nodes, top = self._guide
        keys = np.asarray(u, dtype=float).ravel()
        # NaN and the keys above the top land in the top node's cell, the
        # negative keys in the first.
        offsets = np.fmin(keys, top)
        np.fmax(offsets, 0.0, out=offsets)
        interval = np.empty(keys.shape, dtype=np.intp)
        # np.interp raises nothing, and rounds a tiny product as these do.
        with np.errstate(under="ignore"):
            np.multiply(offsets, inverse_width, out=interval, casting="unsafe")
            if guide.shape[1] > 1:  # the entry of the key's own density in its cell
                interval *= guide.shape[1]
                interval += np.ravel(rows)
            interval[:] = guide.take(interval)
            # A key left to np.interp has interval -1, which wraps to the last
            # node and its slope of 0, so its stand-in here stays finite.
            # (take would copy an ``out`` first in its default mode.)
            positions = self.cumulative.take(interval)
            np.subtract(offsets, positions, out=offsets)
            np.take(slopes, interval, out=positions, mode="wrap")
            offsets *= positions
            np.take(nodes, interval, out=positions, mode="wrap")
            positions += offsets
        rest = np.flatnonzero(interval < 0)
        rest_rows = np.ravel(rows)[rest] if guide.shape[1] > 1 else np.zeros_like(rest)
        for row, cumulative in enumerate(np.atleast_2d(self.cumulative)):
            picked = rest[rest_rows == row]
            positions[picked] = np.interp(keys[picked], cumulative, self.x)
        return positions.reshape(np.shape(u))

    @functools.cached_property
    def _guide(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float]:
        """The guide table's inverse cell width, the table, the slopes, the
        nodes' x, and the top node value that keys are clamped to.

        Keys and nodes go to cells by one monotone map, ``floor(value *
        inverse_width)``, so a key in a cell that holds no node lies above
        every node of the cells before and below every node of those after:
        its interval starts at the last node before the cell, which the
        table stores (-1 for a cell that holds a node, or that lies past
        the density's top node).  The width is a power of two, so that the
        map scales exactly, and is shared by the densities, a column each.
        Intervals index the densities' nodes end to end: ``j`` of density
        ``r`` is ``r * nodes + j`` in the flat slopes, x and cumulative
        values.  The slopes are np.interp's, ``diff(x) / diff(cumulative)``,
        and a 0 past each top node; the infinite slope of a flat step
        starts at a node, so no cell that holds none selects it.
        """
        cumulative = np.atleast_2d(self.cumulative)
        n_rows, size = cumulative.shape
        top = cumulative[:, -1].max()
        _, exponent = np.frexp(top / (GUIDE_CELLS_PER_NODE * size))
        inverse_width = math.ldexp(1.0, min(1 - int(exponent), 1023))
        with np.errstate(all="ignore"):  # underflow in the cells, inf in the slopes
            slopes = np.diff(self.x) / np.diff(cumulative)
            cells = (cumulative * inverse_width).astype(np.intp)
        # The smallest signed integers that hold -1 and the node count.
        guide = np.empty((cells.max() + 1, n_rows), dtype=np.min_scalar_type(-1 - cumulative.size))
        for row, row_cells in enumerate(cells):
            # The cells past node j's, up to node j + 1's, start at node j.
            starts = np.arange(row * size, (row + 1) * size - 1, dtype=guide.dtype)
            guide[1:row_cells[-1] + 1, row] = np.repeat(starts, np.diff(row_cells))
            guide[row_cells, row] = -1
            guide[row_cells[-1]:, row] = -1
        slopes = np.pad(slopes, ((0, 0), (0, 1))).ravel()
        return inverse_width, guide, slopes, np.tile(self.x, n_rows), top


@dataclass(frozen=True, eq=False)
class PositionSample:
    """Backstop arrival positions on a geometry's grid."""

    positions: np.ndarray
    geometry: SlitGeometry

    def __post_init__(self) -> None:
        positions = _readonly(self.positions, float)
        object.__setattr__(self, "positions", positions)
        # Written so that a NaN position, which every comparison fails, is rejected.
        if positions.size and not (
            positions.min() >= self.geometry.grid_min and positions.max() <= self.geometry.grid_max
        ):
            raise ValueError("positions fall outside the geometry grid")


@dataclass(frozen=True, eq=False)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    n_total: int

    def __post_init__(self) -> None:
        edges = _readonly(self.bin_edges, float)
        counts = _readonly(self.counts, np.int64)
        if edges.ndim != 1 or edges.size != counts.size + 1:
            raise ValueError("need exactly one more edge than bins")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if int(counts.sum()) != self.n_total:
            raise ValueError("counts must sum to n_total")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float


def sample_positions(density: RealDensity, n: int, rng: np.random.Generator) -> PositionSample:
    """Draw ``n`` independent arrival positions from a unit-total density."""
    if abs(density.total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"density is not normalized: total = {density.total!r}")
    if n < 1:
        raise ValueError("need at least one sample")
    cdf = GriddedCdf(density)
    u = rng.random(n)
    positions = cdf.ppf(u)
    return PositionSample(positions, density.geometry)


def filter_positions(sample: PositionSample, lo: float, hi: float) -> PositionSample:
    """Keep only positions inside [lo, hi] (an explicit conditioning step)."""
    mask = (sample.positions >= lo) & (sample.positions <= hi)
    return PositionSample(sample.positions[mask], sample.geometry)


def histogram(sample: PositionSample, n_bins: int, range_: tuple[float, float]) -> Histogram:
    """Equal-width histogram; positions outside the range are an error."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    lo, hi = float(range_[0]), float(range_[1])
    if not lo < hi:
        raise ValueError("histogram range must be an increasing interval")
    positions = sample.positions
    if positions.size and (positions.min() < lo or positions.max() > hi):
        raise ValueError("positions fall outside the histogram range")
    counts, edges = np.histogram(positions, bins=n_bins, range=(lo, hi))
    return Histogram(edges, counts, int(positions.size))


def _merge_edges_inward(observed: np.ndarray, expected: np.ndarray):
    """Pool leading/trailing bins until the outermost expected counts reach 5."""
    obs = list(observed.astype(float))
    exp = list(expected.astype(float))
    for edge, inner in ((0, 1), (-1, -2)):
        while len(exp) > 1 and exp[edge] < MIN_EXPECTED_PER_BIN:
            exp[inner] += exp[edge]
            obs[inner] += obs[edge]
            del exp[edge], obs[edge]
    return np.array(obs), np.array(exp)


class SparseTableError(ValueError):
    """A chi-square table that pooling leaves without a valid test."""


def chi_square_gof(h: Histogram, expected: RealDensity) -> ChiSquareResult:
    """Pearson chi-square of a histogram against a gridded density.

    Expected bin masses are integrated from the density's piecewise-linear
    CDF (the sampler's convention).  The density must be normalized over
    the histogram range; low-expectation bins are pooled inward from the
    edges, and any interior bin still under 5 expected counts is an error
    rather than a silently miscalibrated test, as is a table pooled down to
    a single bin; both raise ``SparseTableError``.
    """
    cumulative = GriddedCdf(expected).cdf(h.bin_edges)
    coverage = float(cumulative[-1] - cumulative[0])
    if abs(coverage - 1.0) > 1e-6:
        raise ValueError(
            f"expected density is not normalized over the histogram range (mass {coverage!r})"
        )
    expected_counts = np.diff(cumulative) * h.n_total
    observed, expected_counts = _merge_edges_inward(h.counts, expected_counts)
    if observed.size < 2:
        raise SparseTableError(
            "fewer than two bins remain after pooling, so the test has no degrees of freedom; "
            "use narrower bins or a larger sample"
        )
    if np.any(expected_counts < MIN_EXPECTED_PER_BIN):
        raise SparseTableError(
            "expected counts below 5 remain away from the edges; "
            "use wider bins, a larger sample, or a narrower window"
        )
    statistic = float(np.sum((observed - expected_counts) ** 2 / expected_counts))
    dof = observed.size - 1
    p_value = float(special.chdtrc(dof, statistic))
    return ChiSquareResult(statistic, dof, p_value)


class WindowedChi2:
    """Chi-square of arrivals, fed a block at a time, over the central fringes.

    Arrivals within +-``CHI2_HALF_PERIODS`` fringe periods, a window every
    density on one geometry shares, are counted per group (such as the run's
    outcome index) below each edge of every bin count on ``CHI2_BIN_LADDER``,
    so each bin count's differences are ``histogram``'s counts.
    """

    def __init__(self, density: RealDensity, n_groups: int = 1) -> None:
        self.density = density
        self._half = CHI2_HALF_PERIODS * density.geometry.fringe_period
        windowed = density.restrict(-self._half, self._half)
        self.lo, self.hi = windowed.x[0], windowed.x[-1]
        # The last edge, inf, counts every arrival in the window.
        self._edges = np.append(np.unique(np.concatenate(
            [np.linspace(self.lo, self.hi, n_bins + 1) for n_bins in CHI2_BIN_LADDER])), np.inf)
        self._below = np.zeros((n_groups, self._edges.size), dtype=np.int64)

    def feed(self, positions: np.ndarray, groups: np.ndarray | None = None) -> None:
        """Count the next arrivals; ``groups`` gives each one's, if there are several.

        Only the groups with arrivals in this block are sorted."""
        inside = (positions >= self.lo) & (positions <= self.hi)
        present = [0] if groups is None else np.flatnonzero(np.bincount(groups))
        for group in present:
            selected = positions[inside if len(present) == 1 else inside & (groups == group)]
            self._below[group] += np.searchsorted(np.sort(selected), self._edges)

    def finish(
        self, density: RealDensity | None = None, group: int | None = None
    ) -> tuple[ChiSquareResult | None, int | None]:
        """Fit of one group's arrivals, or of all, against ``density`` (by
        default the accumulator's) at the finest bin count that
        ``chi_square_gof`` accepts, or ``(None, None)`` when it accepts none
        (too few arrivals in the window)."""
        windowed = (density or self.density).restrict(-self._half, self._half)
        if (windowed.x[0], windowed.x[-1]) != (self.lo, self.hi):
            raise ValueError("the density's window is not the one the arrivals were counted in")
        below = self._below.sum(axis=0) if group is None else self._below[group]
        for n_bins in CHI2_BIN_LADDER:
            edges = np.linspace(self.lo, self.hi, n_bins + 1)
            # The last bin also holds the arrivals at hi, so it ends at inf.
            counts = np.diff(below[np.append(np.searchsorted(self._edges, edges[:-1]), -1)])
            try:
                return chi_square_gof(Histogram(edges, counts, int(below[-1])), windowed), n_bins
            except SparseTableError:
                pass
        return None, None


def ks_exponential(durations, rate: float) -> KsResult:
    """One-sample Kolmogorov-Smirnov test against Exponential(rate).

    Uses the asymptotic p-value, adequate for the sample sizes (>= 10,
    in practice hundreds) this suite runs at.  The steps and the
    ``scipy.special`` calls are those of ``scipy.stats.kstest(durations,
    "expon", args=(0, 1 / rate), method="asymp")``, so both the statistic
    and the p-value match it bit for bit without importing ``scipy.stats``.
    """
    durations = np.asarray(durations, dtype=float)
    if durations.size < 10:
        raise ValueError("need at least 10 durations")
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be positive and finite, got {rate!r}")
    if not np.all(np.isfinite(durations)):
        raise ValueError("durations must be finite")
    if np.any(durations <= 0):
        raise ValueError("durations must be positive")
    n = durations.size
    cdf = -special.expm1(-(np.sort(durations) / (1.0 / rate)))
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    statistic = d_plus if d_plus > d_minus else d_minus
    p_value = np.clip(special.kolmogorov(statistic * math.sqrt(n)), 0.0, 1.0)
    return KsResult(float(statistic), float(p_value))


class FringeVisibility:
    """Fringe contrast of arrivals, fed a block at a time, from their first harmonic.

    Over ±``VISIBILITY_HALF_PERIODS`` fringe periods (a whole number keeps
    the harmonic orthogonal to the envelope), twice the modulus of the mean
    phase factor at the fringe frequency estimates (P_max-P_min)/(P_max+P_min),
    free of the upward bias that counting noise gives histogram extrema.
    ``p_no_fringes`` gives the chance of a contrast as high with no fringes.
    """

    def __init__(self, geometry: SlitGeometry) -> None:
        self.period = geometry.fringe_period
        self.arrivals = 0
        self._harmonic = np.complex128(0)

    def feed(self, positions: np.ndarray) -> None:
        selected = positions[np.abs(positions) <= VISIBILITY_HALF_PERIODS * self.period]
        self.arrivals += selected.size
        phases = np.exp(1j * (2 * np.pi * selected / self.period))
        # Summed in arrival order from the carried total (np.sum pairs terms),
        # so that the total does not depend on where the blocks end.
        self._harmonic = np.add.accumulate(np.append(self._harmonic, phases))[-1]

    def finish(self) -> float:
        if not self.arrivals:
            raise ValueError("no positions inside the central fringe window")
        return float(2 * np.abs(self._harmonic / self.arrivals))

    def p_no_fringes(self) -> float:
        """The Rayleigh test's p-value, exp(-|S|^2/N) = exp(-N v^2/4).

        S is the sum of the N phase factors and v = ``finish()``.  With no
        fringes, 2|S|^2/N is chi-square with two degrees of freedom for large
        N (Mardia & Jupp, *Directional Statistics*, 2000, section 6.3.1).
        Strong fringes underflow it to 0.0, which raises nothing.
        """
        v = self.finish()
        return math.exp(-self.arrivals * v * v / 4)


def fringe_visibility_from_positions(sample: PositionSample) -> float:
    """``FringeVisibility`` of a whole sample."""
    visibility = FringeVisibility(sample.geometry)
    visibility.feed(sample.positions)
    return visibility.finish()
