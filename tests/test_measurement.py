"""Collapse semantics and screen densities for the four illumination regimes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slitlab import measurement
from slitlab.measurement import (
    OUTCOME_ORDER,
    Illumination,
    OutcomeTag,
    arrival_blocks,
    conditional_density,
    ensemble_density,
    outcome_probabilities,
)
from slitlab.optics import (
    Hole,
    SlitGeometry,
    default_geometry,
    single_hole_amplitude,
    visibility,
)
from slitlab.stats import GriddedCdf, WindowedChi2, sample_positions
from test_optics import random_far_field_geometry

GEOM = default_geometry()

SEEN_AT_A, SEEN_AT_B, NOT_SEEN = (OUTCOME_ORDER.index(tag) for tag in OutcomeTag)


def joined_arrivals(config, geom, n, rng):
    """Every block of ``arrival_blocks``, joined: (outcome index, positions)."""
    blocks = list(arrival_blocks(config, geom, n, rng))
    return tuple(np.concatenate(column) for column in zip(*blocks))


def windowed_chi2(positions, density):
    chi2 = WindowedChi2(density)
    chi2.feed(positions)
    return chi2.finish()


def chi2_p(positions, config, tag):
    result, _ = windowed_chi2(positions, conditional_density(config, tag, GEOM))
    return result.p_value


def one_shot_arrivals(config, geom, n, seed):
    """The draws the blocks must join into: one rng.random(n) of outcome
    uniforms (none with one possible outcome), then one of position uniforms,
    each inverted by np.interp, which GriddedCdf.ppf must match bit for bit."""
    rng = np.random.default_rng(seed)
    probs = outcome_probabilities(config, geom)
    weights = [probs[tag] for tag in OUTCOME_ORDER]
    possible = [idx for idx, weight in enumerate(weights) if weight > 0]
    index = np.full(n, possible[0])
    if len(possible) > 1:
        index = np.searchsorted(np.cumsum(weights), rng.random(n), side="right")
        index = np.minimum(index, possible[-1])
    u_position = rng.random(n)
    positions = np.empty(n)
    for idx in possible:
        cdf = GriddedCdf(conditional_density(config, OUTCOME_ORDER[idx], geom))
        positions[index == idx] = np.interp(u_position[index == idx], cdf.cumulative, cdf.x)
    return index, positions


class TestApplyMeasurement:
    """The measurement applied to a batch of electrons: ``arrival_blocks``."""

    @staticmethod
    def assert_unseen_and_unchanged(config, seed):
        # No outcome draw at all: the same generator stream as plain sampling.
        index, positions = joined_arrivals(config, GEOM, 5000, np.random.default_rng(seed))
        assert np.all(index == NOT_SEEN)
        expected = sample_positions(
            ensemble_density(config, GEOM), 5000, np.random.default_rng(seed)
        )
        assert positions.tobytes() == expected.positions.tobytes()

    def test_light_off_changes_nothing(self):
        self.assert_unseen_and_unchanged(Illumination.OFF, 0)

    def test_sighting_frequency_matches_branch_weight(self):
        # Symmetric holes, hole A lit, complete window: half are sighted.
        n = 20_000
        index, _ = joined_arrivals(Illumination.HOLE_A, GEOM, n, np.random.default_rng(2024))
        seen = np.count_nonzero(index == SEEN_AT_A)
        assert abs(seen / n - 0.5) < 3 * np.sqrt(0.25 / n)
        assert np.count_nonzero(index == NOT_SEEN) == n - seen

    def test_unequal_holes_split_two_to_one(self):
        geom = SlitGeometry(
            hole_separation=5e-6,
            hole_width_a=1.0e-6,
            hole_width_b=0.5e-6,
            wall_to_backstop=1.0,
            de_broglie_wavelength=50e-9,
            grid_min=-0.2,
            grid_max=0.2,
            grid_points=8192,
        )
        n = 100_000
        index, _ = joined_arrivals(Illumination.BOTH_HOLES, geom, n, np.random.default_rng(99))
        seen_a = np.count_nonzero(index == SEEN_AT_A)
        assert np.count_nonzero(index == SEEN_AT_B) == n - seen_a
        p = 2 / 3
        assert abs(seen_a / n - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_sighting_collapses_to_that_hole(self):
        # Each sighted pile fits its own hole's density, not the fringes.
        rng = np.random.default_rng(5)
        index, positions = joined_arrivals(Illumination.BOTH_HOLES, GEOM, 20_000, rng)
        for idx, tag in ((SEEN_AT_A, OutcomeTag.SEEN_AT_A), (SEEN_AT_B, OutcomeTag.SEEN_AT_B)):
            pile = positions[index == idx]
            assert chi2_p(pile, Illumination.BOTH_HOLES, tag) >= 1e-4
            assert chi2_p(pile, Illumination.OFF, OutcomeTag.NOT_SEEN) < 1e-6

    def test_null_observation_collapses_to_unlit_hole(self):
        rng = np.random.default_rng(6)
        index, positions = joined_arrivals(Illumination.HOLE_A, GEOM, 20_000, rng)
        null = positions[index == NOT_SEEN]
        assert null.size > 0
        assert chi2_p(null, Illumination.HOLE_A, OutcomeTag.NOT_SEEN) >= 1e-4
        assert chi2_p(null, Illumination.OFF, OutcomeTag.NOT_SEEN) < 1e-6

    def test_early_light_off_preserves_coherence(self):
        self.assert_unseen_and_unchanged(Illumination.HOLE_A_EARLY_OFF, 7)

    @pytest.mark.parametrize("config", Illumination, ids=lambda regime: regime.value)
    def test_blocks_join_into_the_one_shot_draws(self, config, monkeypatch):
        monkeypatch.setattr(measurement, "CSV_BLOCK_ROWS", 1000)
        n = 2503
        blocks = list(arrival_blocks(config, GEOM, n, np.random.default_rng(17)))
        assert [positions.size for _, positions in blocks] == [1000, 1000, 503]
        index, positions = (np.concatenate(column) for column in zip(*blocks))
        expected_index, expected_positions = one_shot_arrivals(config, GEOM, n, 17)
        assert index.tobytes() == expected_index.tobytes()
        assert positions.tobytes() == expected_positions.tobytes()

    def test_seeded_outcome_sequence_is_reproducible(self):
        def draw():
            rng = np.random.default_rng(31415)
            return joined_arrivals(Illumination.BOTH_HOLES, GEOM, 2000, rng)

        (index1, positions1), (index2, positions2) = draw(), draw()
        assert index1.tobytes() == index2.tobytes()
        assert positions1.tobytes() == positions2.tobytes()


class TestEnsembleDensity:
    def test_off_density_shows_full_contrast_fringes(self):
        dens = ensemble_density(Illumination.OFF, GEOM)
        assert dens.total == pytest.approx(1.0, abs=1e-9)
        period = GEOM.fringe_period
        assert visibility(dens, (-period, period)) > 0.99

    def test_both_holes_is_pointwise_incoherent_sum(self):
        dens = ensemble_density(Illumination.BOTH_HOLES, GEOM)
        p1 = np.abs(single_hole_amplitude(GEOM, Hole.A).values) ** 2
        p2 = np.abs(single_hole_amplitude(GEOM, Hole.B).values) ** 2
        expected = (p1 + p2) / np.trapezoid(p1 + p2, GEOM.grid)
        assert np.max(np.abs(dens.values - expected)) < 1e-12

    def test_one_lit_hole_equals_both_lit(self):
        both = ensemble_density(Illumination.BOTH_HOLES, GEOM)
        one = ensemble_density(Illumination.HOLE_A, GEOM)
        assert np.max(np.abs(both.values - one.values)) < 1e-12

    def test_early_light_off_restores_interference(self):
        off = ensemble_density(Illumination.OFF, GEOM)
        early = ensemble_density(Illumination.HOLE_A_EARLY_OFF, GEOM)
        assert np.max(np.abs(off.values - early.values)) < 1e-12

    # The two tests above compare one cached density with itself; this one
    # builds both sums from the single-hole amplitudes, apart from the regime
    # table, and checks that the wrong one is far off.
    @pytest.mark.parametrize("illumination, kind", [
        (Illumination.BOTH_HOLES, "incoherent"),
        (Illumination.HOLE_A, "incoherent"),
        (Illumination.OFF, "coherent"),
        (Illumination.HOLE_A_EARLY_OFF, "coherent"),
    ], ids=lambda value: getattr(value, "value", value))
    def test_density_is_its_sum_of_amplitudes(self, illumination, kind):
        psi_a, psi_b = (single_hole_amplitude(GEOM, hole).values for hole in (Hole.A, Hole.B))
        sums = {"incoherent": np.abs(psi_a) ** 2 + np.abs(psi_b) ** 2,
                "coherent": np.abs(psi_a + psi_b) ** 2}
        values = ensemble_density(illumination, GEOM).values
        deviation = {name: np.max(np.abs(values - p / np.trapezoid(p, GEOM.grid)))
                     for name, p in sums.items()}
        assert deviation.pop(kind) <= 1e-12
        assert deviation.popitem()[1] > 1e-3 * values.max()


class TestConditionalDensity:
    def test_null_branch_is_exactly_the_unlit_hole_density(self):
        dens = conditional_density(Illumination.HOLE_A, OutcomeTag.NOT_SEEN, GEOM)
        psi_b = single_hole_amplitude(GEOM, Hole.B)
        expected = np.abs(psi_b.values) ** 2 / psi_b.weight
        expected /= np.trapezoid(expected, GEOM.grid)
        assert np.max(np.abs(dens.values - expected)) < 1e-12
        # The closed-form branch envelope is centered on the axis, so the
        # collapsed branch has no lateral displacement at the backstop.
        first_moment = np.trapezoid(GEOM.grid * dens.values, GEOM.grid)
        assert abs(first_moment) < 1e-12

    def test_null_branch_mirrors_the_sighted_branch(self):
        null = conditional_density(Illumination.HOLE_A, OutcomeTag.NOT_SEEN, GEOM)
        seen = conditional_density(Illumination.HOLE_A, OutcomeTag.SEEN_AT_A, GEOM)
        assert np.max(np.abs(null.values - seen.values[::-1])) < 1e-12

    def test_sighted_branch_has_no_fringes(self):
        dens = conditional_density(Illumination.BOTH_HOLES, OutcomeTag.SEEN_AT_A, GEOM)
        period = GEOM.fringe_period
        assert visibility(dens, (-period, period)) <= 0.05

    def test_unconditioned_case_equals_ensemble(self):
        cond = conditional_density(Illumination.OFF, OutcomeTag.NOT_SEEN, GEOM)
        ens = ensemble_density(Illumination.OFF, GEOM)
        np.testing.assert_array_equal(cond.values, ens.values)

    @pytest.mark.parametrize("tag", OutcomeTag, ids=lambda tag: tag.value)
    @pytest.mark.parametrize("illumination", Illumination, ids=lambda regime: regime.value)
    def test_inconsistent_pairs_rejected(self, illumination, tag):
        # An outcome of probability 0 has no branch; any other has a unit-total one.
        if outcome_probabilities(illumination, GEOM)[tag] == 0.0:
            with pytest.raises(ValueError, match=f"{tag.value}.*{illumination.value}"):
                conditional_density(illumination, tag, GEOM)
        else:
            total = conditional_density(illumination, tag, GEOM).total
            assert total == pytest.approx(1.0, abs=1e-9)


class TestTotalProbability:
    @pytest.mark.parametrize("config", Illumination, ids=lambda regime: regime.value)
    def test_outcome_mixture_reconstructs_ensemble(self, config):
        probs = outcome_probabilities(config, GEOM)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
        mixture = np.zeros(GEOM.grid_points)
        for tag, p in probs.items():
            if p == 0.0:
                continue
            mixture += p * conditional_density(config, tag, GEOM).values
        ens = ensemble_density(config, GEOM)
        assert np.max(np.abs(mixture - ens.values)) < 1e-9


class TestSampledVersusAnalytic:
    def test_collapse_then_born_sampling_matches_conditionals(self):
        # Positions generated through the measurement itself: draw the
        # outcome per electron, then sample that outcome's branch; the
        # pile of every possible outcome must fit its conditional.
        rng = np.random.default_rng(8462)
        n = 20_000
        for config in (Illumination.OFF, Illumination.BOTH_HOLES, Illumination.HOLE_A):
            index, positions = joined_arrivals(config, GEOM, n, rng)
            probs = outcome_probabilities(config, GEOM)
            for idx, tag in enumerate(OUTCOME_ORDER):
                if probs[tag] == 0.0:
                    continue
                pile = positions[index == idx]
                assert pile.size > 0, (config, tag)
                result, n_bins = windowed_chi2(pile, conditional_density(config, tag, GEOM))
                assert result.p_value >= 0.01, (config, tag, n_bins, result)


class TestMeasurementProperties:
    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(geom_seed=st.integers(0, 2**32 - 1))
    def test_probabilities_and_mixture_rebuild_the_ensemble(self, geom_seed):
        geom = random_far_field_geometry(np.random.default_rng(geom_seed))
        for config in Illumination:
            probs = outcome_probabilities(config, geom)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
            mixture = np.zeros(geom.grid_points)
            for tag, p in probs.items():
                if p > 0:
                    mixture += p * conditional_density(config, tag, geom).values
            ens = ensemble_density(config, geom)
            assert np.max(np.abs(mixture - ens.values)) <= 1e-9

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(geom_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    def test_no_outcome_of_probability_zero_is_drawn(self, geom_seed, seed):
        geom = random_far_field_geometry(np.random.default_rng(geom_seed))
        for config in Illumination:
            probs = outcome_probabilities(config, geom)
            index, positions = joined_arrivals(config, geom, 2000, np.random.default_rng(seed))
            drawn = {OUTCOME_ORDER[i] for i in np.unique(index)}
            assert all(probs[tag] > 0 for tag in drawn), (config, drawn)
            assert positions.shape == (2000,)


def test_geometry_caches_stay_bounded():
    # A scan over more geometries than the caches hold keeps only the most
    # recent ones (each geometry has up to four cached densities).
    rng = np.random.default_rng(600)
    for _ in range(100):
        geom = random_far_field_geometry(rng, grid_points=256)
        for config in Illumination:
            for tag, p in outcome_probabilities(config, geom).items():
                if p > 0:
                    conditional_density(config, tag, geom)
            ensemble_density(config, geom)
    for cache in (measurement._branch_amplitudes, measurement._analytic_density):
        assert cache.cache_info().currsize <= 64, cache.cache_info()


@pytest.mark.parametrize("illumination", Illumination)
def test_sampler_footprint_estimate_covers_sample_arrivals(illumination):
    # The sampler's footprint is one block's arrays, whatever n is: draining
    # eight blocks and a ragged one peaks under 64 B per block row (measured
    # 53-61 B), while a single 8-byte array of all n arrivals would fill it.
    for _ in arrival_blocks(illumination, GEOM, 10, np.random.default_rng(0)):
        pass  # densities cached
    n = 8 * measurement.CSV_BLOCK_ROWS + 3
    one_block_estimate = 64 * measurement.CSV_BLOCK_ROWS
    assert 8 * n > one_block_estimate
    tracemalloc.start()
    try:
        for _ in arrival_blocks(illumination, GEOM, n, np.random.default_rng(0)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= one_block_estimate, peak
