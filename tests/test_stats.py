"""Sampler, histogram, and goodness-of-fit calibration checks.

``scipy.stats`` is imported here only, as the reference the p-values of
``slitlab.stats`` must match bit for bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from slitlab.measurement import Illumination, ensemble_density
from slitlab.optics import RealDensity, SlitGeometry, default_geometry
from slitlab.stats import (
    CHI2_HALF_PERIODS,
    GriddedCdf,
    Histogram,
    PositionSample,
    chi_square_gof,
    filter_positions,
    fringe_visibility_from_positions,
    histogram,
    ks_exponential,
    sample_positions,
    windowed_chi2,
)

GEOM = default_geometry()
OFF_DENSITY = ensemble_density(Illumination.OFF, GEOM)
BOTH_DENSITY = ensemble_density(Illumination.BOTH_HOLES, GEOM)


def unit_interval_density(values=None, grid_points=2001):
    geom = SlitGeometry(
        hole_separation=5e-6,
        hole_width_a=0.5e-6,
        hole_width_b=0.5e-6,
        wall_to_backstop=1.0,
        de_broglie_wavelength=50e-9,
        grid_min=0.0,
        grid_max=1.0,
        grid_points=grid_points,
    )
    if values is None:
        values = np.ones(grid_points)
    total = float(np.trapezoid(values, geom.grid))
    return RealDensity(geom, values, total)


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
        assert sample.positions.min() >= x[999]
        assert sample.positions.max() <= x[1001]

    def test_uniform_density_fills_deciles(self):
        dens = unit_interval_density()
        n = 100_000
        sample = sample_positions(dens, n, np.random.default_rng(2))
        counts, _ = np.histogram(sample.positions, bins=10, range=(0.0, 1.0))
        # binomial: each decile holds n/10 +- 3*sqrt(n*0.1*0.9)
        bound = 3 * np.sqrt(n * 0.1 * 0.9)
        assert np.all(np.abs(counts - n / 10) < bound)

    def test_fringe_fourier_coefficient_matches_analytic(self):
        n = 1_000_000
        sample = sample_positions(OFF_DENSITY, n, np.random.default_rng(30))
        theta = 2 * np.pi * sample.positions / GEOM.fringe_period
        observed = np.cos(theta)
        # analytic coefficient, integrated numerically from the density
        grid_theta = 2 * np.pi * OFF_DENSITY.x / GEOM.fringe_period
        expected = np.trapezoid(np.cos(grid_theta) * OFF_DENSITY.values, OFF_DENSITY.x)
        assert expected > 0
        sigma = observed.std() / np.sqrt(n)
        assert abs(observed.mean() - expected) < 3 * sigma

    def test_seed_determinism_is_bitwise(self):
        a = sample_positions(OFF_DENSITY, 10_000, np.random.default_rng(42)).positions
        b = sample_positions(OFF_DENSITY, 10_000, np.random.default_rng(42)).positions
        assert a.tobytes() == b.tobytes()

    def test_empirical_cdf_stays_in_ks_band(self):
        # 99% Kolmogorov band for the sampler's own piecewise-linear CDF.
        n = 1_000_000
        sample = sample_positions(OFF_DENSITY, n, np.random.default_rng(4))
        cdf = GriddedCdf(OFF_DENSITY)
        sorted_x = np.sort(sample.positions)
        model = cdf.cdf(sorted_x)
        ranks = np.arange(1, n + 1) / n
        deviation = max(np.max(np.abs(ranks - model)), np.max(np.abs(ranks - 1 / n - model)))
        assert deviation <= 1.63 / np.sqrt(n)

    def test_positions_must_lie_on_grid_range(self):
        with pytest.raises(ValueError, match="outside"):
            PositionSample(np.array([0.3]), GEOM)


class TestHistogram:
    def test_out_of_range_positions_are_an_error(self):
        sample = PositionSample(np.array([-0.15, 0.0, 0.15]), GEOM)
        with pytest.raises(ValueError, match="outside"):
            histogram(sample, 10, (-0.1, 0.1))

    def test_single_bin_collects_everything(self):
        sample = PositionSample(np.array([-0.05, 0.0, 0.05]), GEOM)
        hist = histogram(sample, 1, (-0.1, 0.1))
        assert hist.counts.tolist() == [3]

    def test_zero_bins_rejected(self):
        sample = PositionSample(np.array([0.0]), GEOM)
        with pytest.raises(ValueError):
            histogram(sample, 0, (-0.1, 0.1))

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
        with pytest.raises(ValueError, match="below 5"):
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
                result = chi_square_gof(Histogram(edges, counts, n), dens)
                assert result.p_value == float(sps.chi2.sf(result.statistic, result.dof))
                statistics.add(result.statistic)
                p_values.add(result.p_value)
        assert 0.0 in statistics
        assert 0.0 in p_values


class TestWindowedChi2:
    def test_ample_sample_uses_the_finest_bins(self):
        sample = sample_positions(OFF_DENSITY, 100_000, np.random.default_rng(15))
        result, n_bins = windowed_chi2(sample.positions, OFF_DENSITY)
        assert n_bins == 96
        half = CHI2_HALF_PERIODS * GEOM.fringe_period
        windowed = OFF_DENSITY.restrict(-half, half)
        lo, hi = windowed.x[0], windowed.x[-1]
        hist = histogram(filter_positions(sample, lo, hi), 96, (lo, hi))
        assert result == chi_square_gof(hist, windowed)

    def test_small_sample_steps_down_the_ladder(self):
        # 300 arrivals starve 96 fringe bins (see the interior-starvation test).
        sample = sample_positions(OFF_DENSITY, 300, np.random.default_rng(11))
        result, n_bins = windowed_chi2(sample.positions, OFF_DENSITY)
        assert 8 <= n_bins < 96
        assert result.dof >= 1

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_too_few_arrivals_give_no_fit(self, n):
        # Ten arrivals can still pool into one bin expecting >= 5; a one-bin
        # table has no degrees of freedom, so it is not a fit either.
        sample = sample_positions(OFF_DENSITY, n, np.random.default_rng(16))
        assert windowed_chi2(sample.positions, OFF_DENSITY) == (None, None)

    def test_no_arrivals_give_no_fit(self):
        assert windowed_chi2(np.array([]), OFF_DENSITY) == (None, None)


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
# a second to import, paid by every run.  The CSV writer's process pool
# loads multiprocessing and concurrent.futures.process only when a table
# starts one (numpy.testing, which scipy.special loads, already imports the
# concurrent.futures package itself).
NOT_LOADED_BY_IMPORT = ("scipy.stats", "multiprocessing", "concurrent.futures.process")


def test_importing_slitlab_loads_no_scipy_stats():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, slitlab.cli, slitlab\n"
        f"print(sorted(m for m in sys.modules if m.startswith({NOT_LOADED_BY_IMPORT!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]", f"importing slitlab loaded {out.strip()}"


class TestFringeVisibilityEstimator:
    def test_separates_coherent_from_incoherent(self):
        rng = np.random.default_rng(14)
        coherent = sample_positions(OFF_DENSITY, 100_000, rng)
        incoherent = sample_positions(BOTH_DENSITY, 100_000, rng)
        assert fringe_visibility_from_positions(coherent) > 0.9
        assert fringe_visibility_from_positions(incoherent) < 0.05

    def test_empty_window_is_an_error(self):
        sample = PositionSample(np.array([0.19]), GEOM)
        with pytest.raises(ValueError, match="window"):
            fringe_visibility_from_positions(sample)
