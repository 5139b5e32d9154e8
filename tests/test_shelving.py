"""Telegraph trajectory laws and the photon-silence jump detector."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slitlab.shelving import (
    IonState,
    PhotonRecord,
    TelegraphTrajectory,
    VSystemRates,
    dark_threshold_for_false_rate,
    default_dark_threshold,
    default_rates,
    detect_jumps,
    detect_jumps_in_chunks,
    emit_photons,
    photon_chunks,
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("position", range(3))
    def test_non_finite_rates_rejected(self, value, position):
        rates = [1e5, 1.0, 1.0]
        rates[position] = value
        with pytest.raises(ValueError, match="finite"):
            VSystemRates(*rates)

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


class PlantedDraws:
    """Hands the photon stream fixed uniform draws, repeats included."""

    def __init__(self, draws):
        self.draws = list(draws)

    def poisson(self, mean):
        return len(self.draws[0])

    def random(self, count):
        return self.draws.pop(0)


# Two bright dwells around a dark one too short to move the clock: the
# second dwell starts exactly where the first one ends.
ABUTTING_DWELLS = TelegraphTrajectory(
    ((IonState.BRIGHT, 1.0), (IonState.DARK, 1e-17), (IonState.BRIGHT, 1.0)), 2.0)


def stream_peak(total_time: float) -> tuple[int, int]:
    """Peak traced bytes of the detector over the photon stream at seed 0,
    and the photon count of the longest bright dwell."""
    rates = default_rates()
    rng = np.random.default_rng(0)
    traj = simulate_trajectory(rates, total_time, rng)
    photon_state = rng.bit_generator.state
    longest = max(chunk.size for chunk in photon_chunks(traj, rates, rng))
    rng.bit_generator.state = photon_state
    tracemalloc.start()
    try:
        detect_jumps_in_chunks(photon_chunks(traj, rates, rng), total_time,
                               default_dark_threshold(rates))
        return tracemalloc.get_traced_memory()[1], longest
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("times", [[0.1, np.nan, 0.5], [np.nan], [0.1, np.inf], [-np.inf, 0.5]])
    def test_non_finite_arrival_times_rejected(self, times):
        with pytest.raises(ValueError, match="within"):
            PhotonRecord(np.array(times), 1.0)

    @pytest.mark.parametrize("total_time", [float("nan"), float("inf")])
    @pytest.mark.parametrize("times", [[], [0.5]])
    def test_non_finite_total_time_rejected(self, times, total_time):
        with pytest.raises(ValueError, match="total_time must be nonnegative and finite"):
            PhotonRecord(np.array(times, dtype=float), total_time)

    def test_equal_arrival_times_are_kept_once(self):
        draws = [np.array([0.75, 0.25, 0.5, 0.25, 0.5, 0.5, 0.0]),
                 np.array([0.0, 0.0, 0.1, 0.9, 0.9])]
        traj = TelegraphTrajectory(
            ((IonState.BRIGHT, 1.0), (IonState.DARK, 0.5), (IonState.BRIGHT, 1.0)), 2.5)
        record = emit_photons(traj, default_rates(), PlantedDraws(draws))
        expected = np.unique(np.concatenate(
            [start + np.sort(u) * 1.0 for start, u in zip((0.0, 1.5), draws)]))
        assert record.arrival_times.size == 7 < sum(len(u) for u in draws)
        assert record.arrival_times.tobytes() == expected.tobytes()

    def test_equal_arrival_times_across_dwells_are_kept_once(self):
        draws = [np.array([0.5, 1.0]), np.array([0.0, 0.5])]
        chunks = list(photon_chunks(ABUTTING_DWELLS, default_rates(), PlantedDraws(draws)))
        assert [chunk.tolist() for chunk in chunks] == [[0.5, 1.0], [1.5]]
        record = emit_photons(ABUTTING_DWELLS, default_rates(), PlantedDraws(draws))
        assert record.arrival_times.tolist() == [0.5, 1.0, 1.5]

    @pytest.mark.parametrize("second, message", [
        (np.array([0.25, 1.25]), "within"),  # past the end of the record
        (np.array([np.nan]), "within"),
        (np.array([-0.75]), "strictly increasing"),  # before the first dwell's last photon
    ])
    def test_every_chunk_is_checked(self, second, message):
        chunks = photon_chunks(ABUTTING_DWELLS, default_rates(),
                               PlantedDraws([np.array([0.5]), second]))
        assert next(chunks).tolist() == [0.5]
        with pytest.raises(ValueError, match=message):
            next(chunks)

    def test_non_finite_total_time_rejected_by_the_stream(self):
        # The durations-sum check compares against NaN, which never fails.
        traj = TelegraphTrajectory(((IonState.BRIGHT, 1.0),), float("nan"))
        with pytest.raises(ValueError, match="total_time must be nonnegative and finite"):
            next(photon_chunks(traj, default_rates(), np.random.default_rng(0)))

    def test_chunks_join_into_the_record(self):
        rates = default_rates()
        traj = simulate_trajectory(rates, 20.0, np.random.default_rng(5))
        chunks = list(photon_chunks(traj, rates, np.random.default_rng(6)))
        record = emit_photons(traj, rates, np.random.default_rng(6))
        bright = sum(1 for state, _ in traj.intervals if state is IonState.BRIGHT)
        assert 1 < len(chunks) <= bright
        assert all(a[-1] < b[0] for a, b in zip(chunks, chunks[1:]))
        assert np.concatenate(chunks).tobytes() == record.arrival_times.tobytes()

    def test_stream_memory_does_not_grow_with_the_record(self):
        # The stream holds one bright dwell at a time, so its peak follows
        # the longest dwell (a few seconds at most here), not total_time.
        # The whole 300 s record is ~1e7 photons, 76 MiB as one array alone.
        peaks = {}
        for total_time in (30.0, 300.0):
            peaks[total_time], longest = stream_peak(total_time)
            assert peaks[total_time] < 40 * longest + 2**20
        assert peaks[300.0] - peaks[30.0] < 16 * 2**20

    def test_stream_holds_one_dwell_and_the_detector_temporaries(self):
        # The dwell's 8 B per photon, the detector's shifted copy (8 B) and
        # its gap mask (1 B); no previous dwell, no leftover mask.
        peak, longest = stream_peak(30.0)
        assert peak <= 20 * longest

    def test_seed_determinism(self):
        rates = default_rates()
        traj = simulate_trajectory(rates, 5.0, np.random.default_rng(9))
        a = emit_photons(traj, rates, np.random.default_rng(10)).arrival_times
        b = emit_photons(traj, rates, np.random.default_rng(10)).arrival_times
        assert a.tobytes() == b.tobytes()


@st.composite
def photon_records(draw):
    total = draw(st.floats(0.0, 1e3))
    times = draw(st.lists(st.floats(0.0, total), max_size=40))
    return PhotonRecord(np.unique(np.asarray(times, dtype=float)), total)


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

    @pytest.mark.parametrize("threshold", [np.nan, np.inf])
    def test_threshold_must_be_finite(self, threshold):
        # NaN and inf compare False against every silence, which would
        # silently report no dark interval at all.
        with pytest.raises(ValueError, match="dark_threshold must be positive and finite"):
            detect_jumps(PhotonRecord(np.array([1.0, 2.0]), 3.0), threshold)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(record=photon_records(), threshold=st.floats(0.0, 1e3, exclude_min=True))
    # A gap one ulp longer than the threshold: start + threshold rounds up
    # to the next photon.
    @example(record=PhotonRecord(np.array([1.0, 1.0 + 2**-52]), 1.0 + 2**-52),
             threshold=0.9 * 2**-52)
    def test_intervals_are_ordered_disjoint_silences_inside_the_record(self, record, threshold):
        inferred = detect_jumps(record, threshold)
        for start, end in inferred:
            assert 0.0 <= start < end <= record.total_time
            inside = (record.arrival_times > start) & (record.arrival_times < end)
            assert not inside.any(), (start, end)
        for (_, end), (start, _) in zip(inferred, inferred[1:]):
            assert end <= start


@st.composite
def chunked_records(draw):
    """A record and its arrivals cut into chunks at random edges.

    Repeated and end cuts give empty chunks, empty tails included; an
    edge may repeat the last arrival before it at the start of the next
    chunk, a zero gap that must change nothing.
    """
    record = draw(photon_records())
    times = record.arrival_times
    cuts = sorted(draw(st.lists(st.integers(0, times.size), max_size=6)))
    chunks = []
    last = None
    for piece in np.split(times, cuts):
        if last is not None and draw(st.booleans()):
            piece = np.concatenate(([last], piece))
        chunks.append(piece)
        if piece.size:
            last = piece[-1]
    return record, chunks


ULP = 2**-52


class TestChunkedDetector:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=chunked_records(), threshold=st.floats(0.0, 1e3, exclude_min=True))
    # A gap one ulp longer than the threshold, across an edge: start +
    # threshold rounds up to the next photon, so no interval.
    @example(case=(PhotonRecord(np.array([1.0, 1.0 + ULP]), 2.0),
                   [np.array([1.0]), np.array([1.0 + ULP])]), threshold=0.9 * ULP)
    # The same gap, with the threshold one ulp shorter than it.
    @example(case=(PhotonRecord(np.array([1.0, 1.0 + 2 * ULP]), 2.0),
                   [np.array([1.0]), np.array([1.0 + 2 * ULP])]), threshold=ULP)
    # A duplicate arrival across an edge, and empty tails.
    @example(case=(PhotonRecord(np.array([0.5, 1.0, 2.5]), 4.0),
                   [np.array([0.5, 1.0]), np.array([1.0, 2.5]), np.empty(0), np.empty(0)]),
             threshold=1.0)
    def test_chunks_give_the_whole_record_list(self, case, threshold):
        record, chunks = case
        expected = detect_jumps(record, threshold)
        assert detect_jumps_in_chunks(iter(chunks), record.total_time, threshold) == expected

    def test_no_chunks_is_an_empty_record(self):
        assert detect_jumps_in_chunks(iter([]), 3.0, 1.0) == [(0.0, 3.0)]
        assert detect_jumps_in_chunks([np.empty(0)], 3.0, 4.0) == []

    @pytest.mark.parametrize("total_time", [float("nan"), float("inf"), -1.0])
    def test_total_time_must_be_finite_and_nonnegative(self, total_time):
        with pytest.raises(ValueError, match="total_time must be nonnegative and finite"):
            detect_jumps_in_chunks([], total_time, 1.0)

    def test_streamed_run_matches_the_whole_record(self):
        rates = default_rates()
        threshold = default_dark_threshold(rates)
        rng = np.random.default_rng(13)
        traj = simulate_trajectory(rates, 40.0, rng)
        photon_state = rng.bit_generator.state
        streamed = detect_jumps_in_chunks(photon_chunks(traj, rates, rng), 40.0, threshold)
        rng.bit_generator.state = photon_state
        assert streamed == detect_jumps(emit_photons(traj, rates, rng), threshold)
        assert len(streamed) > 5


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
