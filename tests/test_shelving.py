"""Telegraph trajectory laws and the photon-silence jump detector."""

import numpy as np
import pytest

from slitlab.shelving import (
    IonState,
    PhotonRecord,
    TelegraphTrajectory,
    VSystemRates,
    dark_threshold_for_false_rate,
    default_dark_threshold,
    default_rates,
    detect_jumps,
    emit_photons,
    score_detections,
    simulate_trajectory,
)
from slitlab.stats import ks_exponential


class TestRates:
    def test_nonpositive_rates_rejected(self):
        with pytest.raises(ValueError):
            VSystemRates(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            VSystemRates(1e5, -1.0, 1.0)

    def test_timescale_separation_enforced(self):
        with pytest.raises(ValueError, match="100x"):
            VSystemRates(fluorescence_rate=1e3, shelve_rate=50.0, deshelve_rate=1.0)
        # exactly 100x is allowed
        VSystemRates(fluorescence_rate=1e3, shelve_rate=10.0, deshelve_rate=1.0)

    def test_default_threshold_is_sub_millisecond(self):
        rates = default_rates()
        tau = default_dark_threshold(rates)
        assert tau == pytest.approx(9.21034e-4, rel=1e-5)
        assert dark_threshold_for_false_rate(rates, 1e-4) < tau


class TestTrajectory:
    def test_vanishing_shelve_rate_gives_one_bright_interval(self):
        rates = VSystemRates(1e4, 1e-30, 1e-30)
        traj = simulate_trajectory(rates, 50.0, np.random.default_rng(0))
        assert traj.intervals == ((IonState.BRIGHT, 50.0),)

    def test_alternation_and_duration_sum(self):
        traj = simulate_trajectory(default_rates(), 200.0, np.random.default_rng(1))
        states = [s for s, _ in traj.intervals]
        assert all(a is not b for a, b in zip(states, states[1:]))
        assert sum(d for _, d in traj.intervals) == pytest.approx(200.0, rel=1e-12)
        assert states[0] is IonState.BRIGHT

    def test_mean_dark_duration_matches_rate(self):
        rates = default_rates()
        # ~3 s per cycle: 3.2e4 s gives over 1e4 complete dark dwells
        traj = simulate_trajectory(rates, 3.2e4, np.random.default_rng(2))
        dark = traj.durations(IonState.DARK)
        assert dark.size >= 10_000
        assert abs(dark.mean() * rates.deshelve_rate - 1.0) < 0.05

    def test_dark_fraction_matches_stationary_law(self):
        rates = default_rates()
        traj = simulate_trajectory(rates, 3.2e4, np.random.default_rng(3))
        expected = rates.stationary_dark_fraction
        assert abs(traj.dark_fraction() / expected - 1.0) < 0.05

    def test_dwell_times_are_exponential(self):
        rates = default_rates()
        traj = simulate_trajectory(rates, 3.2e4, np.random.default_rng(4))
        assert ks_exponential(traj.durations(IonState.BRIGHT), rates.shelve_rate).p_value > 0.01
        assert ks_exponential(traj.durations(IonState.DARK), rates.deshelve_rate).p_value > 0.01

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="alternate"):
            TelegraphTrajectory(((IonState.BRIGHT, 1.0), (IonState.BRIGHT, 1.0)), 2.0)
        with pytest.raises(ValueError, match="positive"):
            TelegraphTrajectory(((IonState.BRIGHT, -1.0),), -1.0)
        with pytest.raises(ValueError, match="sum"):
            TelegraphTrajectory(((IonState.BRIGHT, 1.0),), 2.0)

    def test_non_finite_total_time_rejected(self):
        # NaN, not inf: a regression on inf would loop until memory runs out.
        with pytest.raises(ValueError, match="finite"):
            simulate_trajectory(default_rates(), float("nan"), np.random.default_rng(0))

    def test_seed_determinism(self):
        a = simulate_trajectory(default_rates(), 100.0, np.random.default_rng(7))
        b = simulate_trajectory(default_rates(), 100.0, np.random.default_rng(7))
        assert a.intervals == b.intervals


class TestPhotonEmission:
    def test_dark_trajectory_emits_nothing(self):
        traj = TelegraphTrajectory(((IonState.DARK, 10.0),), 10.0)
        record = emit_photons(traj, default_rates(), np.random.default_rng(0))
        assert record.arrival_times.size == 0

    def test_bright_interval_count_is_poisson(self):
        rates = VSystemRates(1e4, 1e-30, 1e-30)
        duration = 50.0
        traj = TelegraphTrajectory(((IonState.BRIGHT, duration),), duration)
        record = emit_photons(traj, rates, np.random.default_rng(1))
        expected = rates.fluorescence_rate * duration
        assert abs(record.arrival_times.size - expected) < 3 * np.sqrt(expected)

    def test_gaps_within_bright_interval_are_exponential(self):
        rates = VSystemRates(1e3, 1e-30, 1e-30)
        traj = TelegraphTrajectory(((IonState.BRIGHT, 100.0),), 100.0)
        record = emit_photons(traj, rates, np.random.default_rng(2))
        gaps = np.diff(record.arrival_times)
        assert ks_exponential(gaps, rates.fluorescence_rate).p_value > 0.01

    def test_record_invariants(self):
        with pytest.raises(ValueError, match="increasing"):
            PhotonRecord(np.array([0.2, 0.1]), 1.0)
        with pytest.raises(ValueError, match="within"):
            PhotonRecord(np.array([2.0]), 1.0)

    def test_equal_arrival_times_are_kept_once(self):
        class PlantedDraws:
            """Hands emit_photons fixed uniform draws, repeats included."""

            def __init__(self, draws):
                self.draws = list(draws)

            def poisson(self, mean):
                return len(self.draws[0])

            def random(self, count):
                return self.draws.pop(0)

        draws = [np.array([0.75, 0.25, 0.5, 0.25, 0.5, 0.5, 0.0]),
                 np.array([0.0, 0.0, 0.1, 0.9, 0.9])]
        traj = TelegraphTrajectory(
            ((IonState.BRIGHT, 1.0), (IonState.DARK, 0.5), (IonState.BRIGHT, 1.0)), 2.5)
        record = emit_photons(traj, default_rates(), PlantedDraws(draws))
        expected = np.unique(np.concatenate(
            [start + np.sort(u) * 1.0 for start, u in zip((0.0, 1.5), draws)]))
        assert record.arrival_times.size == 7 < sum(len(u) for u in draws)
        assert record.arrival_times.tobytes() == expected.tobytes()

    def test_seed_determinism(self):
        rates = default_rates()
        traj = simulate_trajectory(rates, 5.0, np.random.default_rng(9))
        a = emit_photons(traj, rates, np.random.default_rng(10)).arrival_times
        b = emit_photons(traj, rates, np.random.default_rng(10)).arrival_times
        assert a.tobytes() == b.tobytes()


class TestDetectJumps:
    def test_empty_record_is_one_long_dark_interval(self):
        record = PhotonRecord(np.empty(0), 10.0)
        assert detect_jumps(record, 1.0) == [(0.0, 10.0)]

    def test_zero_length_record_yields_nothing(self):
        record = PhotonRecord(np.empty(0), 0.0)
        assert detect_jumps(record, 1.0) == []

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            detect_jumps(PhotonRecord(np.empty(0), 1.0), 0.0)

    def test_silence_is_declared_after_the_threshold_elapses(self):
        # Photons at 1 s and 2 s in a 3 s record, threshold 0.5 s: the dark
        # inference begins threshold seconds after the last photon, except
        # at the record start where no photon precedes the silence.
        record = PhotonRecord(np.array([1.0, 2.0]), 3.0)
        assert detect_jumps(record, 0.5) == [(0.0, 1.0), (1.5, 2.0), (2.5, 3.0)]

    def test_short_gaps_are_ignored(self):
        record = PhotonRecord(np.array([0.1, 0.2, 0.3, 0.9]), 1.0)
        assert detect_jumps(record, 0.61) == []


class TestDetectorAgainstGroundTruth:
    def test_detector_finds_real_jumps_without_false_alarms(self):
        # Default-style threshold: per-gap false-silence odds ~1e-40, so
        # every inferred interval should be a real dark dwell.
        rates = VSystemRates(fluorescence_rate=2e3, shelve_rate=20.0, deshelve_rate=2.0)
        tau = default_dark_threshold(rates)
        rng = np.random.default_rng(21)
        traj = simulate_trajectory(rates, 600.0, rng)
        record = emit_photons(traj, rates, rng)
        inferred = detect_jumps(record, tau)
        score = score_detections(traj, inferred, tau)
        assert score.n_inferred > 500
        assert score.false_discovery_rate == 0.0
        assert score.recall >= 0.99
        assert score.max_start_latency <= tau

    def test_false_silence_rate_follows_the_exponential_law(self):
        # All-bright record with ~1e6 gaps at a threshold tuned for 1e-4
        # per-gap false-silence probability: the detector should fire about
        # 100 times, and certainly within a factor of two of that.
        rates = VSystemRates(1e4, 1e-30, 1e-30)
        tau = dark_threshold_for_false_rate(rates, 1e-4)
        traj = TelegraphTrajectory(((IonState.BRIGHT, 100.0),), 100.0)
        record = emit_photons(traj, rates, np.random.default_rng(22))
        inferred = detect_jumps(record, tau)
        n_gaps = record.arrival_times.size - 1
        expected = n_gaps * 1e-4
        assert expected / 2 <= len(inferred) <= expected * 2

    def test_no_inferred_intervals_scores_cleanly(self):
        traj = TelegraphTrajectory(((IonState.BRIGHT, 1.0),), 1.0)
        score = score_detections(traj, [], 0.1)
        assert score.false_discovery_rate == 0.0
        assert score.recall == 1.0
