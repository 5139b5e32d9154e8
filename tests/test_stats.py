"""Sampler, histogram, and goodness-of-fit calibration checks.

``scipy.stats`` is imported here only: as the reference the p-values of
``slitlab.stats`` must match bit for bit, and for the KS test of their
uniformity under the true model.
"""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sps

from slitlab import stats
from slitlab.measurement import (
    Illumination,
    arrival_blocks,
    conditional_density,
    ensemble_density,
    outcome_probabilities,
)
from slitlab.optics import RealDensity, SlitGeometry, default_geometry
from slitlab.shelving import IonState, default_rates, simulate_trajectory
from slitlab.stats import (
    CHI2_BIN_LADDER,
    CHI2_HALF_PERIODS,
    GriddedCdf,
    FringeVisibility,
    Histogram,
    SparseTableError,
    WindowedChi2,
    chi_square_gof,
    filter_positions,
    fringe_visibility_from_positions,
    histogram,
    ks_exponential,
    sample_positions,
)

GEOM = default_geometry()
UNEQUAL_GEOM = SlitGeometry(hole_separation=5e-6, hole_width_a=1.0e-6, hole_width_b=0.5e-6,
                            wall_to_backstop=1.0, de_broglie_wavelength=50e-9,
                            grid_min=-0.2, grid_max=0.2, grid_points=8192)
OFF_DENSITY = ensemble_density(Illumination.OFF, GEOM)
BOTH_DENSITY = ensemble_density(Illumination.BOTH_HOLES, GEOM)


def gridded_density(values, span=1.0):
    """A density of ``values`` on a grid over [0, span]."""
    width = 0.5e-6 * math.sqrt(min(span, 1.0))  # far field, the fringe period 0.01 * span
    geom = SlitGeometry(hole_separation=5e-6, hole_width_a=width, hole_width_b=width,
                        wall_to_backstop=1.0, de_broglie_wavelength=50e-9 * span,
                        grid_min=0.0, grid_max=span, grid_points=len(values))
    return RealDensity(geom, values)


def unit_interval_density(values=None, grid_points=2001):
    return gridded_density(np.ones(grid_points) if values is None else values)


class TestSamplePositions:
    def test_rejects_unnormalized_density(self):
        lopsided = unit_interval_density(np.full(2001, 2.0))
        with pytest.raises(ValueError, match="normalized"):
            sample_positions(lopsided, 10, np.random.default_rng(0))

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            sample_positions(OFF_DENSITY, 0, np.random.default_rng(0))

    def test_point_mass_density_confines_samples(self):
        # All mass on one interior node: support is the two adjacent cells.
        geom_points = 2001
        values = np.zeros(geom_points)
        values[1000] = 1.0
        dens = unit_interval_density(values / np.trapezoid(values, np.linspace(0, 1, geom_points)))
        x = dens.x
        sample = sample_positions(dens, 5000, np.random.default_rng(1))
        assert sample.min() >= x[999]
        assert sample.max() <= x[1001]

    def test_uniform_density_fills_deciles(self):
        dens = unit_interval_density()
        n = 100_000
        sample = sample_positions(dens, n, np.random.default_rng(2))
        counts, _ = np.histogram(sample, bins=10, range=(0.0, 1.0))
        # binomial: each decile holds n/10 +- 3*sqrt(n*0.1*0.9)
        bound = 3 * np.sqrt(n * 0.1 * 0.9)
        assert np.all(np.abs(counts - n / 10) < bound)

    def test_fringe_fourier_coefficient_matches_analytic(self):
        n = 1_000_000
        sample = sample_positions(OFF_DENSITY, n, np.random.default_rng(30))
        theta = 2 * np.pi * sample / GEOM.fringe_period
        observed = np.cos(theta)
        # analytic coefficient, integrated numerically from the density
        grid_theta = 2 * np.pi * OFF_DENSITY.x / GEOM.fringe_period
        expected = np.trapezoid(np.cos(grid_theta) * OFF_DENSITY.values, OFF_DENSITY.x)
        assert expected > 0
        sigma = observed.std() / np.sqrt(n)
        assert abs(observed.mean() - expected) < 3 * sigma

    def test_seed_determinism_is_bitwise(self):
        a = sample_positions(OFF_DENSITY, 10_000, np.random.default_rng(42))
        b = sample_positions(OFF_DENSITY, 10_000, np.random.default_rng(42))
        assert a.tobytes() == b.tobytes()

    def test_empirical_cdf_stays_in_ks_band(self):
        # 99% Kolmogorov band for the sampler's own piecewise-linear CDF.
        n = 1_000_000
        sample = sample_positions(OFF_DENSITY, n, np.random.default_rng(4))
        cdf = GriddedCdf(OFF_DENSITY)
        sorted_x = np.sort(sample)
        model = cdf.cdf(sorted_x)
        ranks = np.arange(1, n + 1) / n
        deviation = max(np.max(np.abs(ranks - model)), np.max(np.abs(ranks - 1 / n - model)))
        assert deviation <= 1.63 / np.sqrt(n)

    def test_positions_must_lie_on_grid_range(self):
        # A sample is a plain array; binning it over the grid is the check
        # that rejects an off-grid position, and NaN and inf, which
        # np.histogram would leave out of every bin.
        for bad in (0.3, np.nan, np.inf):
            with pytest.raises(ValueError, match="outside"):
                histogram(np.array([0.0, bad]), 10, (GEOM.grid_min, GEOM.grid_max))


def ppf_keys(cdf, u, row=0):
    """``u`` and the keys where inverting a row of ``cdf`` has an edge: each
    node's cumulative value and its neighbours, each guide cell's edges,
    zeros, the top and past it, negative keys, NaN and the infinities."""
    nodes = np.atleast_2d(cdf.cumulative)[row]
    inverse_width, guide, *_ = cdf._guide
    edges = np.arange(len(guide) + 1) / inverse_width
    return np.concatenate([
        u, nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [0.0, -0.0, 5e-324, nodes[-1] * 2, 1.0, 2.0, 1e308, -5e-324, -1.0, -1e308,
         np.nan, -np.nan, np.inf, -np.inf],
    ])


def assert_ppf_is_interp(cdf, keys):
    with np.errstate(all="raise"):
        positions = cdf.ppf(keys)
    assert positions.tobytes() == np.interp(keys, cdf.cumulative, cdf.x).tobytes()


def assert_stacked_ppf_is_interp(densities, u, seed):
    """A GriddedCdf of several densities inverts each key by its own row, as
    np.interp does: every row's ppf_keys, shuffled together."""
    cdf = GriddedCdf(*densities)
    keys, rows = map(np.concatenate, zip(*[
        (row_keys, np.full(row_keys.size, row, dtype=np.uint8))
        for row, row_keys in enumerate(ppf_keys(cdf, u, row) for row in range(len(densities)))]))
    order = np.random.default_rng(seed).permutation(keys.size)
    keys, rows = keys[order], rows[order]
    with np.errstate(all="raise"):
        positions = cdf.ppf(keys, rows)
    for row in range(len(densities)):
        expected = np.interp(keys[rows == row], np.atleast_2d(cdf.cumulative)[row], cdf.x)
        assert positions[rows == row].tobytes() == expected.tobytes(), row


# A cell value: an exact zero, a subnormal, or an ordinary magnitude; each
# repeats a few times, so that zero runs make flat CDF steps.  Tiny spans
# make tiny products; wide ones, with tiny values, slopes that overflow.
CELL_VALUES = st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308), st.floats(1e-300, 1e3))
SPANS = st.sampled_from([1e-308, 1.0, 1e3, 1e6])


def cell_values(draw):
    runs = draw(st.lists(st.tuples(CELL_VALUES, st.integers(1, 40)), min_size=1, max_size=30))
    return np.repeat(*map(np.array, zip(*runs)))


@st.composite
def densities_and_keys(draw):
    values = cell_values(draw)
    if values.size < 2:
        values = np.append(values, 0.0)
    u = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=200)))
    return gridded_density(values, draw(SPANS)), u


@st.composite
def stacked_densities_and_keys(draw):
    """Two or three densities on one grid, and keys, as densities_and_keys's."""
    density, u = draw(densities_and_keys())
    others = [np.resize(cell_values(draw), density.values.size)
              for _ in range(draw(st.integers(1, 2)))]
    return [density, *(RealDensity(density.geometry, values)
                       for values in others)], u


class TestGriddedCdfPpf:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=densities_and_keys())
    @example(case=(gridded_density(np.zeros(5), 1.0), np.array([0.5])))
    @example(case=(gridded_density(np.array([1e-310, 5e-324]), 1e3), np.array([0.5])))
    @example(case=(gridded_density(np.array([1.0, 3.0, 0.0, 0.0, 2.0]), 1e-308), np.array([0.5])))
    def test_is_np_interp_bit_for_bit(self, case):
        density, u = case
        cdf = GriddedCdf(density)
        assert_ppf_is_interp(cdf, ppf_keys(cdf, u))

    @pytest.mark.parametrize("illumination", Illumination)
    def test_is_np_interp_on_every_sampled_density(self, illumination):
        rng = np.random.default_rng(5)
        for tag, p in outcome_probabilities(illumination, GEOM).items():
            if p > 0:
                cdf = GriddedCdf(conditional_density(illumination, tag, GEOM))
                assert_ppf_is_interp(cdf, ppf_keys(cdf, rng.random(100_000)))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=stacked_densities_and_keys())
    def test_stacked_is_np_interp_of_each_row_bit_for_bit(self, case):
        densities, u = case
        assert_stacked_ppf_is_interp(densities, u, len(u))

    # On the default geometry the two branch densities are the same; with
    # unequal holes they differ, so a key inverted by the wrong row shows.
    @pytest.mark.parametrize("geom", [GEOM, UNEQUAL_GEOM], ids=["default", "unequal_holes"])
    @pytest.mark.parametrize("illumination", Illumination)
    def test_stacked_is_np_interp_on_every_regime(self, illumination, geom):
        densities = [conditional_density(illumination, tag, geom)
                     for tag, p in outcome_probabilities(illumination, geom).items() if p > 0]
        assert_stacked_ppf_is_interp(densities, np.random.default_rng(8).random(100_000), 9)

    def test_stacked_densities_share_one_grid(self):
        with pytest.raises(ValueError, match="one grid"):
            GriddedCdf(OFF_DENSITY, unit_interval_density())

    def test_keeps_the_shape_of_its_keys(self):
        cdf = GriddedCdf(OFF_DENSITY)
        u = np.random.default_rng(6).random((3, 4))
        assert cdf.ppf(u).shape == (3, 4)
        assert cdf.ppf(u).tobytes() == np.interp(u, cdf.cumulative, cdf.x).tobytes()

    def test_needs_a_density(self):
        with pytest.raises(ValueError, match="at least one density"):
            GriddedCdf()

    def test_stacked_ppf_needs_rows(self):
        with pytest.raises(ValueError, match=r"needs a row in \[0, 2\)"):
            GriddedCdf(OFF_DENSITY, BOTH_DENSITY).ppf(np.array([0.5]))

    @pytest.mark.parametrize("row", [2, 5, -1])
    def test_rows_must_index_the_densities(self, row):
        with pytest.raises(ValueError, match=r"needs a row in \[0, 2\)"):
            GriddedCdf(OFF_DENSITY, BOTH_DENSITY).ppf(np.array([0.5, 0.5]), np.array([0, row]))

    def test_cdf_takes_one_density(self):
        with pytest.raises(ValueError, match="one density"):
            GriddedCdf(OFF_DENSITY, BOTH_DENSITY).cdf(np.array([0.0]))


class TestHistogram:
    def test_out_of_range_positions_are_an_error(self):
        with pytest.raises(ValueError, match="outside"):
            histogram(np.array([-0.15, 0.0, 0.15]), 10, (-0.1, 0.1))

    def test_single_bin_collects_everything(self):
        hist = histogram(np.array([-0.05, 0.0, 0.05]), 1, (-0.1, 0.1))
        assert hist.counts.tolist() == [3]

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            histogram(np.array([0.0]), 0, (-0.1, 0.1))

    @pytest.mark.parametrize("edges", [[0.0, np.nan, 2.0], [0.0, 2.0, 1.0], [0.0, 1.0, np.inf]])
    def test_edges_must_be_finite_and_increasing(self, edges):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Histogram(edges, [1, 1])

    def test_mirror_bins_agree_for_symmetric_density(self):
        n = 200_000
        sample = sample_positions(BOTH_DENSITY, n, np.random.default_rng(5))
        hist = histogram(sample, 40, (GEOM.grid_min, GEOM.grid_max))
        diff = np.abs(hist.counts - hist.counts[::-1])
        assert np.all(diff < 4 * np.sqrt(n))

    def test_counts_survive_nested_refinement(self):
        sample = sample_positions(OFF_DENSITY, 50_000, np.random.default_rng(6))
        coarse = histogram(sample, 20, (GEOM.grid_min, GEOM.grid_max))
        fine = histogram(sample, 40, (GEOM.grid_min, GEOM.grid_max))
        assert fine.counts.reshape(20, 2).sum(axis=1).tolist() == coarse.counts.tolist()
        assert fine.n_total == coarse.n_total == 50_000


class TestChiSquare:
    def test_p_values_are_calibrated_under_the_null(self):
        # Sampling a density and testing against itself: p should be
        # uniform, so about 5% of replicates fall under 0.05.
        half = 6 * GEOM.fringe_period
        windowed = BOTH_DENSITY.restrict(-half, half)
        lo, hi = windowed.x[0], windowed.x[-1]
        rng = np.random.default_rng(7)
        rejections = 0
        replicates = 200
        for _ in range(replicates):
            sample = sample_positions(windowed, 20_000, rng)
            hist = histogram(
                filter_positions(sample, lo, hi), 50, (lo, hi)
            )
            if chi_square_gof(hist, windowed).p_value < 0.05:
                rejections += 1
        assert abs(rejections / replicates - 0.05) <= 0.04

    def test_rejects_wrong_density_decisively(self):
        half = 6 * GEOM.fringe_period
        fringes = OFF_DENSITY.restrict(-half, half)
        flat = BOTH_DENSITY.restrict(-half, half)
        lo, hi = flat.x[0], flat.x[-1]
        sample = sample_positions(fringes, 100_000, np.random.default_rng(8))
        hist = histogram(filter_positions(sample, lo, hi), 96, (lo, hi))
        assert chi_square_gof(hist, flat).p_value < 1e-6

    def test_dof_is_merged_bins_minus_one(self):
        dens = unit_interval_density()
        sample = sample_positions(dens, 12_000, np.random.default_rng(9))
        hist = histogram(sample, 12, (0.0, 1.0))
        result = chi_square_gof(hist, dens)
        # uniform density, ample counts: no merging, 12 bins -> dof 11
        assert result.dof == 11

    def test_expected_counts_of_exactly_five_are_not_pooled(self):
        # Four bins of a uniform density, each expecting 5 of 20 counts: the
        # pooling threshold is met, not missed, so all four bins stay.
        dens = unit_interval_density(grid_points=5)
        result = chi_square_gof(Histogram(np.linspace(0.0, 1.0, 5), np.full(4, 5)), dens)
        assert result.dof == 3
        assert result.statistic == 0.0

    def test_requires_normalization_over_range(self):
        sample = sample_positions(OFF_DENSITY, 1000, np.random.default_rng(10))
        conditioned = filter_positions(sample, -0.05, 0.05)
        hist = histogram(conditioned, 10, (-0.05, 0.05))
        with pytest.raises(ValueError, match="normalized"):
            chi_square_gof(hist, OFF_DENSITY)  # unrestricted density

    def test_interior_starvation_is_an_error(self):
        # Fine fringe binning at tiny n leaves interior bins under 5
        # expected counts, which edge merging cannot repair.
        half = 6 * GEOM.fringe_period
        windowed = OFF_DENSITY.restrict(-half, half)
        lo, hi = windowed.x[0], windowed.x[-1]
        sample = sample_positions(windowed, 300, np.random.default_rng(11))
        hist = histogram(filter_positions(sample, lo, hi), 96, (lo, hi))
        with pytest.raises(SparseTableError, match="below 5"):
            chi_square_gof(hist, windowed)

    def test_table_pooled_to_one_bin_is_an_error(self):
        # Six arrivals in two bins over the window: each bin expects 3, so
        # edge pooling leaves one bin, and a one-bin table has no degrees
        # of freedom to test with.
        half = 6 * GEOM.fringe_period
        windowed = OFF_DENSITY.restrict(-half, half)
        lo, hi = windowed.x[0], windowed.x[-1]
        sample = sample_positions(windowed, 6, np.random.default_rng(13))
        hist = histogram(filter_positions(sample, lo, hi), 2, (lo, hi))
        with pytest.raises(SparseTableError, match="fewer than two bins"):
            chi_square_gof(hist, windowed)

    def test_edge_merging_pools_starved_tails(self):
        # A narrow bump leaves the outermost bins with almost no expected
        # mass; merging from the edges inward leaves a valid, smaller table.
        x = np.linspace(0.0, 1.0, 2001)
        values = np.exp(-(((x - 0.5) / 0.08) ** 2))
        values /= np.trapezoid(values, x)
        dens = unit_interval_density(values)
        sample = sample_positions(dens, 20_000, np.random.default_rng(12))
        hist = histogram(sample, 30, (0.0, 1.0))
        result = chi_square_gof(hist, dens)
        assert result.dof < 29
        assert result.p_value > 1e-6

    def test_p_value_matches_scipy_stats_bit_for_bit(self):
        # Uniform density with bins on its grid nodes: equal counts give
        # statistic 0 (p = 1), and all counts in one bin of the widest table
        # give a statistic large enough that p underflows to 0.
        rng = np.random.default_rng(14)
        statistics, p_values = set(), set()
        for n_bins in (2, 4, 7, 16, 60):
            dens = unit_interval_density(grid_points=n_bins + 1)
            edges = np.linspace(0.0, 1.0, n_bins + 1)
            n = 50 * n_bins
            weights = np.linspace(1.0, 3.0, n_bins)
            for counts in (
                np.full(n_bins, 50),
                rng.multinomial(n, np.full(n_bins, 1 / n_bins)),
                rng.multinomial(n, weights / weights.sum()),
                rng.multinomial(n, weights**4 / (weights**4).sum()),
                np.eye(n_bins, dtype=np.int64)[0] * n,
            ):
                result = chi_square_gof(Histogram(edges, counts), dens)
                assert result.p_value == float(sps.chi2.sf(result.statistic, result.dof))
                statistics.add(result.statistic)
                p_values.add(result.p_value)
        assert 0.0 in statistics
        assert 0.0 in p_values


def windowed_chi2(positions, density):
    chi2 = WindowedChi2(density)
    chi2.feed(positions)
    return chi2.finish()


class TestWindowedChi2:
    def test_ample_sample_uses_the_finest_bins(self):
        sample = sample_positions(OFF_DENSITY, 100_000, np.random.default_rng(15))
        result, n_bins = windowed_chi2(sample, OFF_DENSITY)
        assert n_bins == 96
        half = CHI2_HALF_PERIODS * GEOM.fringe_period
        windowed = OFF_DENSITY.restrict(-half, half)
        lo, hi = windowed.x[0], windowed.x[-1]
        hist = histogram(filter_positions(sample, lo, hi), 96, (lo, hi))
        assert result == chi_square_gof(hist, windowed)

    def test_small_sample_steps_down_the_ladder(self):
        # 300 arrivals starve 96 fringe bins (see the interior-starvation test).
        sample = sample_positions(OFF_DENSITY, 300, np.random.default_rng(11))
        result, n_bins = windowed_chi2(sample, OFF_DENSITY)
        assert 8 <= n_bins < 96
        assert result.dof >= 1

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_too_few_arrivals_give_no_fit(self, n):
        # Ten arrivals can still pool into one bin expecting >= 5; a one-bin
        # table has no degrees of freedom, so it is not a fit either.
        sample = sample_positions(OFF_DENSITY, n, np.random.default_rng(16))
        assert windowed_chi2(sample, OFF_DENSITY) == (None, None)

    def test_no_arrivals_give_no_fit(self):
        assert windowed_chi2(np.array([]), OFF_DENSITY) == (None, None)

    @pytest.mark.parametrize("n", [300, 3000, 100_000])
    def test_every_rung_bins_like_histogram(self, n):
        # Arrivals on and one ulp either side of every edge of every rung,
        # then a sample: each bin count on the ladder that has a fit gives
        # histogram's.
        chi2 = WindowedChi2(OFF_DENSITY)
        edges = np.concatenate([np.linspace(chi2.lo, chi2.hi, k + 1) for k in CHI2_BIN_LADDER])
        planted = np.concatenate([edges, np.nextafter(edges, -1), np.nextafter(edges, 1)])
        positions = np.concatenate([planted, sample_positions(
            OFF_DENSITY, n, np.random.default_rng(n))])
        chi2.feed(positions)
        windowed = OFF_DENSITY.restrict(chi2.lo, chi2.hi)
        conditioned = filter_positions(positions, chi2.lo, chi2.hi)
        fits = 0
        for n_bins in CHI2_BIN_LADDER:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(stats, "CHI2_BIN_LADDER", (n_bins,))
                result, _ = chi2.finish()
            if result is not None:
                hist = histogram(conditioned, n_bins, (chi2.lo, chi2.hi))
                assert result == chi_square_gof(hist, windowed), n_bins
                fits += 1
        assert fits >= 4

    def test_blocks_and_groups_sum_to_one_feed(self):
        positions = sample_positions(BOTH_DENSITY, 20_000, np.random.default_rng(18))
        groups = np.random.default_rng(19).integers(0, 3, positions.size)
        whole = WindowedChi2(BOTH_DENSITY)
        whole.feed(positions)
        blocked = WindowedChi2(BOTH_DENSITY, n_groups=3)
        for start in range(0, positions.size, 7000):
            blocked.feed(positions[start:start + 7000], groups[start:start + 7000])
        assert blocked.finish() == whole.finish()
        for group in range(3):
            alone = WindowedChi2(BOTH_DENSITY)
            alone.feed(positions[groups == group])
            assert blocked.finish(group=group) == alone.finish()

    def test_density_on_another_window_is_rejected(self):
        chi2 = WindowedChi2(OFF_DENSITY)
        with pytest.raises(ValueError, match="window"):
            chi2.finish(unit_interval_density())
        # The same span and fringe period on a coarser grid: the window's
        # edges snap to other grid points.
        coarse = ensemble_density(Illumination.OFF, dataclasses.replace(GEOM, grid_points=4096))
        with pytest.raises(ValueError, match="the density's window is not the one"):
            chi2.finish(coarse)

    def test_only_a_sparse_table_steps_down_the_ladder(self, monkeypatch):
        # Expected masses that sum to 2 over the window fail chi_square_gof's
        # normalization check, a fault that no coarser rung would mend.
        sample = sample_positions(OFF_DENSITY, 100_000, np.random.default_rng(15))
        cdf = GriddedCdf.cdf
        monkeypatch.setattr(GriddedCdf, "cdf", lambda self, q: 2 * cdf(self, q))
        with pytest.raises(ValueError, match="not normalized over the histogram range"):
            windowed_chi2(sample, OFF_DENSITY)


# Simulation-based calibration (Talts et al. 2018): under the true model a
# test's p-values are uniform.  The seeds are fixed in advance, and the
# p-values of each test go to a KS test against U(0, 1).
CALIBRATION_SEEDS = range(200)


def assert_uniform(p_values):
    assert sps.kstest(p_values, "uniform").pvalue >= 0.01


@pytest.mark.parametrize("illumination", [Illumination.OFF, Illumination.BOTH_HOLES],
                         ids=lambda illumination: illumination.value)
def test_windowed_chi2_p_values_are_uniform(illumination):
    # g1 and g2 at 1e4 electrons a seed; g3 draws g2's positions at a seed.
    density = ensemble_density(illumination, GEOM)
    p_values = []
    for seed in CALIBRATION_SEEDS:
        chi2 = WindowedChi2(density)
        for _, positions in arrival_blocks(illumination, GEOM, 10_000,
                                           np.random.default_rng(seed)):
            chi2.feed(positions)
        p_values.append(chi2.finish()[0].p_value)
    assert_uniform(p_values)


def test_fringe_visibility_p_values_are_uniform():
    # g2 shows no fringes, so the Rayleigh test's p-value is uniform; 1e4
    # electrons a seed, as for the chi-square p-values.
    p_values = []
    for seed in CALIBRATION_SEEDS:
        fringes = FringeVisibility(GEOM)
        for _, positions in arrival_blocks(Illumination.BOTH_HOLES, GEOM, 10_000,
                                           np.random.default_rng(seed)):
            fringes.feed(positions)
        p_values.append(fringes.p_no_fringes())
    assert_uniform(p_values)


@pytest.mark.parametrize("state", IonState, ids=lambda state: state.value)
def test_ks_exponential_p_values_are_uniform(state):
    # About 33 complete dwells of each kind in 100 s.
    rates = default_rates()
    rate = rates.shelve_rate if state is IonState.BRIGHT else rates.deshelve_rate
    p_values = [ks_exponential(simulate_trajectory(rates, 100.0, np.random.default_rng(seed))
                               .durations(state), rate).p_value
                for seed in CALIBRATION_SEEDS]
    assert_uniform(p_values)


class TestKsExponential:
    def test_calibrated_under_the_null(self):
        rng = np.random.default_rng(13)
        rejections = sum(
            ks_exponential(rng.exponential(1 / 3.0, size=500), 3.0).p_value < 0.05
            for _ in range(200)
        )
        assert abs(rejections / 200 - 0.05) <= 0.04

    def test_degenerate_durations_rejected_decisively(self):
        # All durations equal: the KS distance is at least
        # max(1 - exp(-rate*d), exp(-rate*d)) >= 1/2.
        result = ks_exponential(np.full(100, 0.7), rate=1.0)
        assert result.statistic >= 0.5
        assert result.p_value < 0.01

    def test_guards(self):
        with pytest.raises(ValueError, match="10"):
            ks_exponential(np.ones(5), 1.0)
        with pytest.raises(ValueError, match="positive"):
            ks_exponential(np.ones(20), -1.0)
        with pytest.raises(ValueError, match="positive"):
            ks_exponential(np.ones(20), 0.0)
        with pytest.raises(ValueError, match="positive"):
            ks_exponential(np.concatenate([np.ones(20), [0.0]]), 1.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            ks_exponential(np.ones(20), rate)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_durations_rejected(self, bad):
        with pytest.raises(ValueError, match="durations must be finite"):
            ks_exponential(np.concatenate([np.ones(20), [bad]]), 1.0)

    @pytest.mark.parametrize("n", [10, 11, 500, 5000])
    @pytest.mark.parametrize("drawn_rate", [0.7, 1.05], ids=["tested_rate", "wrong_rate"])
    def test_matches_scipy_stats_bit_for_bit(self, n, drawn_rate):
        durations = np.random.default_rng(n).exponential(1 / drawn_rate, size=n)
        assert_ks_matches_scipy_stats(durations, 0.7)

    def test_all_ties_match_scipy_stats_bit_for_bit(self):
        assert_ks_matches_scipy_stats(np.full(100, 0.7), 1.0)


def assert_ks_matches_scipy_stats(durations, rate):
    reference = sps.kstest(durations, "expon", args=(0.0, 1.0 / rate), method="asymp")
    result = ks_exponential(durations, rate)
    assert (result.statistic, result.p_value) == (
        float(reference.statistic), float(reference.pvalue)
    )


# Modules that importing slitlab must not load.  scipy.stats takes most of
# a second to import, paid by every run.  A run is one process, so neither
# multiprocessing nor concurrent.futures.process has a use (numpy.testing,
# which scipy.special loads, already imports the concurrent.futures package
# itself).
NOT_LOADED_BY_IMPORT = ("scipy.stats", "multiprocessing", "concurrent.futures.process")


def test_importing_slitlab_loads_no_scipy_stats(subprocess_env):
    code = (
        "import sys, slitlab.cli, slitlab\n"
        f"print(sorted(m for m in sys.modules if m.startswith({NOT_LOADED_BY_IMPORT!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env, capture_output=True, text=True,
        check=True
    ).stdout
    assert out.strip() == "[]", f"importing slitlab loaded {out.strip()}"


def test_package_exports_every_module_all():
    import slitlab
    from slitlab import JumpDetector, photon_chunks  # what the CLI streams with

    assert (JumpDetector, photon_chunks) == (slitlab.shelving.JumpDetector,
                                             slitlab.shelving.photon_chunks)
    for module in (slitlab.optics, slitlab.measurement, slitlab.stats, slitlab.shelving):
        for name in module.__all__:
            assert name in slitlab.__all__
            assert getattr(slitlab, name) is getattr(module, name)


class TestFringeVisibilityEstimator:
    def test_separates_coherent_from_incoherent(self):
        rng = np.random.default_rng(14)
        coherent = sample_positions(OFF_DENSITY, 100_000, rng)
        incoherent = sample_positions(BOTH_DENSITY, 100_000, rng)
        assert fringe_visibility_from_positions(coherent, GEOM) > 0.9
        assert fringe_visibility_from_positions(incoherent, GEOM) < 0.05

    def test_empty_window_is_an_error(self):
        with pytest.raises(ValueError, match="window"):
            fringe_visibility_from_positions(np.array([0.19]), GEOM)

    def test_blocks_add_up_to_the_whole_sample(self):
        sample = sample_positions(OFF_DENSITY, 50_000, np.random.default_rng(20))
        visibility = FringeVisibility(GEOM)
        for block in np.array_split(sample, 7):
            visibility.feed(block)
        half = 3 * GEOM.fringe_period
        assert visibility.arrivals == np.count_nonzero(np.abs(sample) <= half)
        assert visibility.finish() == pytest.approx(
            fringe_visibility_from_positions(sample, GEOM), rel=1e-12)

    def test_p_no_fringes_underflows_to_zero_with_fringes(self):
        visibility = FringeVisibility(GEOM)
        visibility.feed(sample_positions(OFF_DENSITY, 10_000, np.random.default_rng(22)))
        with np.errstate(all="raise"):
            assert visibility.p_no_fringes() == 0.0

    def test_p_no_fringes_needs_an_arrival(self):
        visibility = FringeVisibility(GEOM)
        visibility.feed(np.array([0.19]))
        with pytest.raises(ValueError, match="window"):
            visibility.p_no_fringes()
