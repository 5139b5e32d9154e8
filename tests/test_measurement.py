"""Collapse semantics and screen densities for the three illumination regimes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slitlab.measurement import (
    OUTCOME_ORDER,
    IlluminationConfig,
    IlluminationMode,
    OutcomeTag,
    conditional_density,
    ensemble_density,
    outcome_probabilities,
    sample_arrivals,
)
from slitlab.optics import (
    Hole,
    SlitGeometry,
    default_geometry,
    single_hole_amplitude,
    visibility,
)
from slitlab.stats import sample_positions, windowed_chi2
from test_optics import random_far_field_geometry

GEOM = default_geometry()

OFF = IlluminationConfig(IlluminationMode.OFF)
BOTH = IlluminationConfig(IlluminationMode.BOTH_HOLES, window_complete=True)
A_COMPLETE = IlluminationConfig(IlluminationMode.HOLE_A_ONLY, window_complete=True)
A_EARLY_OFF = IlluminationConfig(IlluminationMode.HOLE_A_ONLY, window_complete=False)

SEEN_AT_A, SEEN_AT_B, NOT_SEEN = (OUTCOME_ORDER.index(tag) for tag in OutcomeTag)


def chi2_p(positions, config, tag):
    result, _ = windowed_chi2(positions, conditional_density(config, tag, GEOM))
    return result.p_value


class TestConfigAndState:
    def test_off_mode_normalizes_window_flag(self):
        config = IlluminationConfig(IlluminationMode.OFF, window_complete=True)
        assert config.window_complete is False


class TestApplyMeasurement:
    """The measurement applied to a batch of electrons: ``sample_arrivals``."""

    @staticmethod
    def assert_unseen_and_unchanged(config, seed):
        # No outcome draw at all: the same generator stream as plain sampling.
        index, positions = sample_arrivals(config, GEOM, 5000, np.random.default_rng(seed))
        assert np.all(index == NOT_SEEN)
        expected = sample_positions(
            ensemble_density(config, GEOM), 5000, np.random.default_rng(seed)
        )
        assert positions.tobytes() == expected.positions.tobytes()

    def test_light_off_changes_nothing(self):
        self.assert_unseen_and_unchanged(OFF, 0)

    def test_sighting_frequency_matches_branch_weight(self):
        # Symmetric holes, hole A lit, complete window: half are sighted.
        n = 20_000
        index, _ = sample_arrivals(A_COMPLETE, GEOM, n, np.random.default_rng(2024))
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
        index, _ = sample_arrivals(BOTH, geom, n, np.random.default_rng(99))
        seen_a = np.count_nonzero(index == SEEN_AT_A)
        assert np.count_nonzero(index == SEEN_AT_B) == n - seen_a
        p = 2 / 3
        assert abs(seen_a / n - p) < 3 * np.sqrt(p * (1 - p) / n)

    def test_sighting_collapses_to_that_hole(self):
        # Each sighted pile fits its own hole's density, not the fringes.
        index, positions = sample_arrivals(BOTH, GEOM, 20_000, np.random.default_rng(5))
        for idx, tag in ((SEEN_AT_A, OutcomeTag.SEEN_AT_A), (SEEN_AT_B, OutcomeTag.SEEN_AT_B)):
            pile = positions[index == idx]
            assert chi2_p(pile, BOTH, tag) >= 1e-4
            assert chi2_p(pile, OFF, OutcomeTag.NOT_SEEN) < 1e-6

    def test_null_observation_collapses_to_unlit_hole(self):
        index, positions = sample_arrivals(A_COMPLETE, GEOM, 20_000, np.random.default_rng(6))
        null = positions[index == NOT_SEEN]
        assert null.size > 0
        assert chi2_p(null, A_COMPLETE, OutcomeTag.NOT_SEEN) >= 1e-4
        assert chi2_p(null, OFF, OutcomeTag.NOT_SEEN) < 1e-6

    def test_early_light_off_preserves_coherence(self):
        self.assert_unseen_and_unchanged(A_EARLY_OFF, 7)

    def test_seeded_outcome_sequence_is_reproducible(self):
        def draw():
            return sample_arrivals(BOTH, GEOM, 2000, np.random.default_rng(31415))

        (index1, positions1), (index2, positions2) = draw(), draw()
        assert index1.tobytes() == index2.tobytes()
        assert positions1.tobytes() == positions2.tobytes()


class TestEnsembleDensity:
    def test_off_density_shows_full_contrast_fringes(self):
        dens = ensemble_density(OFF, GEOM)
        assert dens.total == pytest.approx(1.0, abs=1e-9)
        period = GEOM.fringe_period
        assert visibility(dens, (-period, period)) > 0.99

    def test_both_holes_is_pointwise_incoherent_sum(self):
        dens = ensemble_density(BOTH, GEOM)
        p1 = np.abs(single_hole_amplitude(GEOM, Hole.A).values) ** 2
        p2 = np.abs(single_hole_amplitude(GEOM, Hole.B).values) ** 2
        expected = (p1 + p2) / np.trapezoid(p1 + p2, GEOM.grid)
        assert np.max(np.abs(dens.values - expected)) < 1e-12

    def test_one_lit_hole_equals_both_lit(self):
        both = ensemble_density(BOTH, GEOM)
        one = ensemble_density(A_COMPLETE, GEOM)
        assert np.max(np.abs(both.values - one.values)) < 1e-12

    def test_early_light_off_restores_interference(self):
        off = ensemble_density(OFF, GEOM)
        early = ensemble_density(A_EARLY_OFF, GEOM)
        assert np.max(np.abs(off.values - early.values)) < 1e-12


class TestConditionalDensity:
    def test_null_branch_is_exactly_the_unlit_hole_density(self):
        dens = conditional_density(A_COMPLETE, OutcomeTag.NOT_SEEN, GEOM)
        psi_b = single_hole_amplitude(GEOM, Hole.B)
        expected = np.abs(psi_b.values) ** 2 / psi_b.weight
        expected /= np.trapezoid(expected, GEOM.grid)
        assert np.max(np.abs(dens.values - expected)) < 1e-12
        # The closed-form branch envelope is centered on the axis, so the
        # collapsed branch has no lateral displacement at the backstop.
        first_moment = np.trapezoid(GEOM.grid * dens.values, GEOM.grid)
        assert abs(first_moment) < 1e-12

    def test_null_branch_mirrors_the_sighted_branch(self):
        null = conditional_density(A_COMPLETE, OutcomeTag.NOT_SEEN, GEOM)
        seen = conditional_density(A_COMPLETE, OutcomeTag.SEEN_AT_A, GEOM)
        assert np.max(np.abs(null.values - seen.values[::-1])) < 1e-12

    def test_sighted_branch_has_no_fringes(self):
        dens = conditional_density(BOTH, OutcomeTag.SEEN_AT_A, GEOM)
        period = GEOM.fringe_period
        assert visibility(dens, (-period, period)) <= 0.05

    def test_unconditioned_case_equals_ensemble(self):
        cond = conditional_density(OFF, OutcomeTag.NOT_SEEN, GEOM)
        ens = ensemble_density(OFF, GEOM)
        np.testing.assert_array_equal(cond.values, ens.values)

    def test_inconsistent_pairs_rejected(self):
        with pytest.raises(ValueError):
            conditional_density(OFF, OutcomeTag.SEEN_AT_A, GEOM)
        with pytest.raises(ValueError):
            conditional_density(A_COMPLETE, OutcomeTag.SEEN_AT_B, GEOM)
        with pytest.raises(ValueError):
            conditional_density(BOTH, OutcomeTag.NOT_SEEN, GEOM)
        with pytest.raises(ValueError):
            conditional_density(A_EARLY_OFF, OutcomeTag.SEEN_AT_A, GEOM)


class TestTotalProbability:
    @pytest.mark.parametrize("config", [OFF, BOTH, A_COMPLETE, A_EARLY_OFF])
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


FIVE_REGIMES = [
    (OFF, OutcomeTag.NOT_SEEN),
    (BOTH, OutcomeTag.SEEN_AT_A),
    (BOTH, OutcomeTag.SEEN_AT_B),
    (A_COMPLETE, OutcomeTag.SEEN_AT_A),
    (A_COMPLETE, OutcomeTag.NOT_SEEN),
]


class TestSampledVersusAnalytic:
    def test_collapse_then_born_sampling_matches_conditionals(self):
        # Positions generated through the measurement itself: draw the
        # outcome per electron, then sample that outcome's branch; the
        # per-regime piles must fit their conditionals.
        rng = np.random.default_rng(8462)
        n = 20_000
        for config in (OFF, BOTH, A_COMPLETE):
            index, positions = sample_arrivals(config, GEOM, n, rng)
            for regime_config, tag in FIVE_REGIMES:
                if regime_config is not config:
                    continue
                pile = positions[index == OUTCOME_ORDER.index(tag)]
                assert pile.size > 0, (config.mode, tag)
                result, n_bins = windowed_chi2(pile, conditional_density(config, tag, GEOM))
                assert result.p_value >= 0.01, (config.mode, tag, n_bins, result)


class TestMeasurementProperties:
    CONFIGS = (OFF, BOTH, A_COMPLETE, A_EARLY_OFF)

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(geom_seed=st.integers(0, 2**32 - 1))
    def test_probabilities_and_mixture_rebuild_the_ensemble(self, geom_seed):
        geom = random_far_field_geometry(np.random.default_rng(geom_seed))
        for config in self.CONFIGS:
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
        for config in self.CONFIGS:
            probs = outcome_probabilities(config, geom)
            index, positions = sample_arrivals(config, geom, 2000, np.random.default_rng(seed))
            drawn = {OUTCOME_ORDER[i] for i in np.unique(index)}
            assert all(probs[tag] > 0 for tag in drawn), (config, drawn)
            assert positions.shape == (2000,)
