"""Telegraph trajectory laws and the photon-silence jump detector."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import example, given, settings, strategies as st

from slitlab.shelving import (
    DetectionScore,
    IonState,
    JumpDetector,
    PhotonRecord,
    TelegraphTrajectory,
    VSystemRates,
    dark_threshold_for_false_rate,
    default_dark_threshold,
    default_rates,
    detect_jumps,
    emit_photons,
    photon_chunks,
    score_detections,
    simulate_trajectory,
    _check_arrivals,
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
        assert traj.first_state is IonState.BRIGHT
        assert traj.intervals.tolist() == [50.0]

    def test_alternation_and_duration_sum(self):
        traj = simulate_trajectory(default_rates(), 200.0, np.random.default_rng(1))
        # Each dwell ends where one in the other state begins.
        bright_starts, bright_ends = traj.bounds(IonState.BRIGHT)
        dark_starts, dark_ends = traj.bounds(IonState.DARK)
        assert bright_starts[0] == 0.0
        assert bright_ends[:dark_starts.size].tobytes() == dark_starts.tobytes()
        assert dark_ends[:bright_starts.size - 1].tobytes() == bright_starts[1:].tobytes()
        assert sum(traj.intervals.tolist()) == pytest.approx(200.0, rel=1e-12)
        assert traj.first_state is IonState.BRIGHT

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
        with pytest.raises(ValueError, match="positive"):
            TelegraphTrajectory(IonState.BRIGHT, [-1.0], -1.0)
        with pytest.raises(ValueError, match="sum"):
            TelegraphTrajectory(IonState.BRIGHT, [1.0], 2.0)
        with pytest.raises(ValueError, match="interval durations must be positive and finite"):
            TelegraphTrajectory(IonState.BRIGHT, [np.nan], 1.0)
        with pytest.raises(ValueError, match="interval durations must be positive and finite"):
            TelegraphTrajectory(IonState.BRIGHT, [np.inf], np.inf)
        with pytest.raises(ValueError, match="total_time must be nonnegative and finite"):
            TelegraphTrajectory(IonState.BRIGHT, [1.0], np.inf)
        for lengths in ([], [[1.0]], 1.0):
            with pytest.raises(ValueError, match="1-D array of at least one interval"):
                TelegraphTrajectory(IonState.BRIGHT, lengths, 1.0)
        traj = TelegraphTrajectory(IonState.DARK, [1.0, 2.0], 3.0)
        with pytest.raises(ValueError, match="read-only"):
            traj.intervals[0] = 2.0

    def test_non_finite_total_time_rejected(self):
        # NaN, not inf: a regression on inf would loop until memory runs out.
        with pytest.raises(ValueError, match="finite"):
            simulate_trajectory(default_rates(), float("nan"), np.random.default_rng(0))

    def test_seed_determinism(self):
        a = simulate_trajectory(default_rates(), 100.0, np.random.default_rng(7))
        b = simulate_trajectory(default_rates(), 100.0, np.random.default_rng(7))
        assert a.intervals.tobytes() == b.intervals.tobytes()

    def test_simulation_holds_no_object_per_dwell(self):
        # 6,719 dwells in one float64 array, about 8.6 B each.
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            traj = simulate_trajectory(default_rates(), 1e4, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.intervals.size == 6_719
        assert peak <= 24 * traj.intervals.size

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("first_state", IonState)
    def test_bounds_are_the_running_sum_bit_for_bit(self, seed, first_state):
        rng = np.random.default_rng(seed)
        rates = VSystemRates(1e5, rng.uniform(0.1, 10), rng.uniform(0.1, 10))
        lengths = simulate_trajectory(rates, rng.uniform(1, 1e3), rng).intervals
        traj = TelegraphTrajectory(first_state, lengths, sum(lengths.tolist()))
        starts, ends, t = [], [], 0.0
        for duration in lengths.tolist():
            starts.append(t)
            ends.append(t + duration)
            t += duration
        assert [b.tolist() for b in traj.bounds()] == [starts, ends]
        for offset, state in enumerate([first_state, *set(IonState) - {first_state}]):
            assert [b.tolist() for b in traj.bounds(state)] == [starts[offset::2],
                                                                ends[offset::2]]


class PlantedDraws:
    """Hands the photon stream fixed uniform draws, repeats included."""

    def __init__(self, draws):
        self.draws = list(draws)

    def poisson(self, mean):
        return len(self.draws[0])

    def random(self, count):
        return self.draws.pop(0).copy()  # a new array, as Generator.random's


# Two bright dwells around a dark one too short to move the clock: the
# second dwell starts exactly where the first one ends.
ABUTTING_DWELLS = TelegraphTrajectory(IonState.BRIGHT, [1.0, 1e-17, 1.0], 2.0)


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
        detector = JumpDetector(total_time, default_dark_threshold(rates))
        # map binds no chunk, so none is held while the next one is drawn.
        for _ in map(detector.feed, photon_chunks(traj, rates, rng)):
            pass
        detector.finish()
        return tracemalloc.get_traced_memory()[1], longest
    finally:
        tracemalloc.stop()


class TestPhotonEmission:
    def test_dark_trajectory_emits_nothing(self):
        traj = TelegraphTrajectory(IonState.DARK, [10.0], 10.0)
        record = emit_photons(traj, default_rates(), np.random.default_rng(0))
        assert record.arrival_times.size == 0

    def test_bright_interval_count_is_poisson(self):
        rates = VSystemRates(1e4, 1e-30, 1e-30)
        duration = 50.0
        traj = TelegraphTrajectory(IonState.BRIGHT, [duration], duration)
        record = emit_photons(traj, rates, np.random.default_rng(1))
        expected = rates.fluorescence_rate * duration
        assert abs(record.arrival_times.size - expected) < 3 * np.sqrt(expected)

    def test_gaps_within_bright_interval_are_exponential(self):
        rates = VSystemRates(1e3, 1e-30, 1e-30)
        traj = TelegraphTrajectory(IonState.BRIGHT, [100.0], 100.0)
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
        traj = TelegraphTrajectory(IonState.BRIGHT, [1.0, 0.5, 1.0], 2.5)
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

    def test_a_first_arrival_equal_to_the_last_before_is_rejected(self):
        # photon_chunks drops such ties before its check, so only a direct
        # call reaches the comparison with ``after``.
        with pytest.raises(ValueError, match="strictly increasing"):
            _check_arrivals(np.array([1.0]), 2.0, after=1.0)

    def test_non_finite_total_time_rejected_by_the_stream(self):
        # The trajectory rejects it, so no stream can start on one.
        with pytest.raises(ValueError, match="total_time must be nonnegative and finite"):
            traj = TelegraphTrajectory(IonState.BRIGHT, [1.0], float("nan"))
            next(photon_chunks(traj, default_rates(), np.random.default_rng(0)))

    def test_chunks_join_into_the_record(self):
        rates = default_rates()
        traj = simulate_trajectory(rates, 20.0, np.random.default_rng(5))
        chunks = list(photon_chunks(traj, rates, np.random.default_rng(6)))
        record = emit_photons(traj, rates, np.random.default_rng(6))
        bright = traj.bounds(IonState.BRIGHT)[0].size
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
        detector = JumpDetector(record.total_time, threshold)
        for chunk in chunks:
            detector.feed(chunk)
        assert detector.finish() == expected

    def test_no_chunks_is_an_empty_record(self):
        assert JumpDetector(3.0, 1.0).finish() == [(0.0, 3.0)]
        detector = JumpDetector(3.0, 4.0)
        detector.feed(np.empty(0))
        assert detector.finish() == []

    @pytest.mark.parametrize("total_time", [float("nan"), float("inf"), -1.0])
    def test_total_time_must_be_finite_and_nonnegative(self, total_time):
        with pytest.raises(ValueError, match="total_time must be nonnegative and finite"):
            JumpDetector(total_time, 1.0)

    def test_streamed_run_matches_the_whole_record(self):
        rates = default_rates()
        threshold = default_dark_threshold(rates)
        rng = np.random.default_rng(13)
        traj = simulate_trajectory(rates, 40.0, rng)
        photon_state = rng.bit_generator.state
        detector = JumpDetector(40.0, threshold)
        for chunk in photon_chunks(traj, rates, rng):
            detector.feed(chunk)
        streamed = detector.finish()
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
        traj = TelegraphTrajectory(IonState.BRIGHT, [100.0], 100.0)
        record = emit_photons(traj, rates, np.random.default_rng(22))
        inferred = detect_jumps(record, tau)
        n_gaps = record.arrival_times.size - 1
        expected = n_gaps * 1e-4
        assert expected / 2 <= len(inferred) <= expected * 2

    def test_detection_lags_follow_the_exponential_law(self):
        # A photon-bounded detection starts tau after its silence began, at
        # the last photon before the shelving.  The gap E from that photon to
        # the dark dwell's start is the backward recurrence time of the
        # Poisson photons, Exp(R_f), so criterion 8's latency tau - E <= tau
        # holds by construction; this tests the law itself.  Each run's E*R_f
        # goes to a KS test against Exp(1), and the runs' p-values to one
        # against U(0, 1).  About 7 gaps a run; the seeds are fixed in advance.
        rates = default_rates()
        tau = default_dark_threshold(rates)
        p_values = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            traj = simulate_trajectory(rates, 20.0, rng)
            detector = JumpDetector(traj.total_time, tau)
            for chunk in photon_chunks(traj, rates, rng):
                detector.feed(chunk)
            starts, ends = np.array(detector.finish()).reshape(-1, 2).T
            dark_starts, dark_ends = traj.bounds(IonState.DARK)
            # score_detections' match: the first dark dwell ending after the
            # silence began, if it starts before the detection ends.
            silence = starts - tau
            first = np.searchsorted(dark_ends, silence, side="right")
            timed = (starts > 0) & (first < np.searchsorted(dark_starts, ends, side="left"))
            gaps = dark_starts[first[timed]] - silence[timed]
            assert gaps.size and np.all(gaps > 0), seed
            p_values.append(sps.kstest(gaps * rates.fluorescence_rate, "expon").pvalue)
        assert sps.kstest(p_values, "uniform").pvalue >= 0.01

    def test_no_inferred_intervals_scores_cleanly(self):
        traj = TelegraphTrajectory(IonState.BRIGHT, [1.0], 1.0)
        score = score_detections(traj, [], 0.1)
        assert score.false_discovery_rate == 0.0
        assert score.recall == 1.0


B, D = IonState.BRIGHT, IonState.DARK

# Hand-scored cases at the edges of score_detections' rule, at a threshold
# of 0.25 s, so that a dwell counts in the recall from 0.5 s.  Every time is
# a sum of powers of two, so that no rounding enters.  Each case: the
# first dwell's state and the dwell lengths, the detections, and the score
# as (recall, false-discovery rate, max start latency, eligible dwells,
# detections, false detections).
SCORE_CASES = {
    # The dwell 1-2 ends where the silence of the detection at 2.25 begins.
    "dwell ends as the silence begins": (
        (B, [1.0, 1.0, 2.0]), [(2.25, 3.0)], (0.0, 1.0, 0.0, 1, 1, 1)),
    # The detection ends where the dwell 1-2 begins.
    "detection ends as the dwell begins": (
        (B, [1.0, 1.0, 2.0]), [(0.5, 1.0)], (0.0, 1.0, 0.0, 1, 1, 1)),
    # A silence from the record's start has no photon to time it from: the
    # detection at 0 is credited with the dwell 0.5-1.5, but no latency.
    "detection from the start": (
        (B, [0.5, 1.0, 1.0]), [(0.0, 1.5)], (1.0, 0.0, 0.0, 1, 1, 0)),
    # The detection covers the dwells 1-2 and 2.125-3.125; its latency is
    # taken from the first.
    "detection over two dwells": (
        (B, [1.0, 1.0, 0.125, 1.0, 1.0]), [(1.25, 3.125)],
        (1.0, 0.0, 0.25, 2, 1, 0)),
    # The dwell 1-1.25, shorter than twice the threshold, is missed but not
    # counted; the dwell 2.25-3.25 is found.
    "short dwell": (
        (B, [1.0, 0.25, 1.0, 1.0, 1.0]), [(2.5, 3.25)],
        (1.0, 0.0, 0.25, 1, 1, 0)),
    # The detection at 3 follows a silence from 2.75, inside the bright dwell 2-4.
    "detection of no dwell": (
        (B, [1.0, 1.0, 2.0]), [(1.25, 2.0), (3.0, 3.5)], (1.0, 0.5, 0.25, 1, 2, 1)),
    # A record that starts dark: the detection from the start finds the
    # dwell 0-1, with no latency; the dark dwell 2-2.25 is too short to count.
    "record starts dark": (
        (D, [1.0, 1.0, 0.25, 1.0]), [(0.0, 1.0)], (1.0, 0.0, 0.0, 1, 1, 0)),
}


@pytest.mark.parametrize("case", SCORE_CASES)
def test_score_at_the_edges_of_the_rule(case):
    (first_state, lengths), inferred, expected = SCORE_CASES[case]
    traj = TelegraphTrajectory(first_state, lengths, sum(lengths))
    assert score_detections(traj, inferred, 0.25) == DetectionScore(*expected)


def score_by_pointers(traj, inferred, dark_threshold):
    """score_detections as two hand-advanced pointers over the sorted
    detections: the reference its searches must match bit for bit."""
    true_dark = list(zip(*(bound.tolist() for bound in traj.bounds(D))))
    matched, latencies, n_false, j = [False] * len(true_dark), [], 0, 0
    for start, end in sorted(inferred):
        silence_start = max(start - dark_threshold, 0.0)
        while j < len(true_dark) and true_dark[j][1] <= silence_start:
            j += 1
        k = j
        while k < len(true_dark) and true_dark[k][0] < end:
            matched[k] = True
            k += 1
        if k == j:
            n_false += 1
        elif start > 0.0:
            latencies.append(abs(start - true_dark[j][0]))
    eligible = [m for (s, e), m in zip(true_dark, matched) if e - s >= 2 * dark_threshold]
    return DetectionScore(sum(eligible) / len(eligible) if eligible else 1.0,
                          n_false / len(inferred) if inferred else 0.0,
                          max(latencies) if latencies else 0.0, len(eligible), len(inferred),
                          n_false)


@pytest.mark.parametrize("seed", range(40))
def test_score_matches_the_pointer_reference(seed):
    # The detector's own intervals, then arbitrary ones that start and end
    # on dwell edges, overlap and come in any order.
    rng = np.random.default_rng(seed)
    rates = VSystemRates(5e3, rng.uniform(1, 50), rng.uniform(1, 20))
    tau = rng.choice([default_dark_threshold(rates), 1e-3, 0.05])
    traj = simulate_trajectory(rates, rng.uniform(0.01, 20), rng)
    detected = detect_jumps(emit_photons(traj, rates, rng), tau)
    edges = np.column_stack(traj.bounds()).ravel()  # each dwell's start, then its end
    starts = rng.choice(np.concatenate([edges, rng.uniform(0, traj.total_time, 8)]), 20)
    lengths = rng.choice([0.0, tau, 1e-9, rng.exponential()], 20)
    arbitrary = list(zip(starts.tolist(), (starts + lengths).tolist()))
    for inferred in (detected, arbitrary, detected + arbitrary):
        assert score_detections(traj, inferred, tau) == score_by_pointers(traj, inferred, tau)
