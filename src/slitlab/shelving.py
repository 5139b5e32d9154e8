"""Telegraph fluorescence of a single trapped ion and jump detection.

A two-state rate model: the ion fluoresces at a high rate while its
electron cycles on the fast transition (bright), and goes silent when the
electron is shelved in the long-lived level (dark).  Shelving and
deshelving are Poisson events, so bright and dark dwell times are
exponential.  The detector never sees the dark state directly; it infers
it purely from a long enough *absence* of photons.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DetectionScore",
    "IonState",
    "JumpDetector",
    "PhotonRecord",
    "TelegraphTrajectory",
    "VSystemRates",
    "dark_threshold_for_false_rate",
    "default_dark_threshold",
    "default_rates",
    "detect_jumps",
    "detect_jumps_in_chunks",
    "emit_photons",
    "photon_chunks",
    "score_detections",
    "simulate_trajectory",
]

# Bright photon bursts must be much faster than the state flips or the
# absence of photons carries no information.
MIN_RATE_SEPARATION = 100.0

DURATION_SUM_RTOL = 1e-9


class IonState(enum.Enum):
    BRIGHT = "bright"
    DARK = "dark"


@dataclass(frozen=True)
class VSystemRates:
    """Effective rates of the reduced two-state model (all per second).

    ``fluorescence_rate`` is the photon rate while bright; ``shelve_rate``
    and ``deshelve_rate`` are the bright->dark and dark->bright flip rates.
    The fluorescence rate must exceed both flip rates by at least a factor
    of 100.
    """

    fluorescence_rate: float
    shelve_rate: float
    deshelve_rate: float

    def __post_init__(self) -> None:
        for name in ("fluorescence_rate", "shelve_rate", "deshelve_rate"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        slowest_allowed = MIN_RATE_SEPARATION * max(self.shelve_rate, self.deshelve_rate)
        if self.fluorescence_rate < slowest_allowed:
            raise ValueError(
                "fluorescence_rate must be at least 100x the fastest flip rate "
                f"({self.fluorescence_rate} < {slowest_allowed})"
            )

    @property
    def stationary_dark_fraction(self) -> float:
        return self.shelve_rate / (self.shelve_rate + self.deshelve_rate)


def default_rates() -> VSystemRates:
    """Rates used by the command line: 1e5 photons/s bright, ~1 s bright
    periods, ~2 s dark periods."""
    return VSystemRates(fluorescence_rate=1e5, shelve_rate=1.0, deshelve_rate=0.5)


def dark_threshold_for_false_rate(rates: VSystemRates, per_gap_probability: float) -> float:
    """Photon-silence threshold giving exp(-R_f*tau) = per_gap_probability."""
    if not 0.0 < per_gap_probability < 1.0:
        raise ValueError("per_gap_probability must lie in (0, 1)")
    return math.log(1.0 / per_gap_probability) / rates.fluorescence_rate


def default_dark_threshold(rates: VSystemRates) -> float:
    """Default silence threshold, ~0.92 ms at the default rates.

    That is ~92 mean photon spacings, so a bright ion essentially never
    fakes a dark period (per-gap odds exp(-92) = 1e-40), while detection
    still lags a real shelving event by well under a typical dark dwell.
    """
    return dark_threshold_for_false_rate(rates, 1e-40)


@dataclass(frozen=True, eq=False)
class TelegraphTrajectory:
    """Ground-truth alternating bright/dark dwell record."""

    intervals: tuple[tuple[IonState, float], ...]
    total_time: float

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("trajectory needs at least one interval")
        for (state, duration) in self.intervals:
            if duration <= 0:
                raise ValueError("interval durations must be positive")
        for (a, _), (b, _) in zip(self.intervals, self.intervals[1:]):
            if a is b:
                raise ValueError("states must strictly alternate")
        span = sum(d for _, d in self.intervals)
        if abs(span - self.total_time) > DURATION_SUM_RTOL * self.total_time:
            raise ValueError("durations must sum to total_time")

    def durations(self, state: IonState) -> np.ndarray:
        """Complete dwell times in one state; the final interval, cut short
        by the end of the record, is dropped."""
        return np.array([d for s, d in self.intervals[:-1] if s is state], dtype=float)

    def absolute_intervals(self) -> list[tuple[IonState, float, float]]:
        """(state, start, end) triples in chronological order."""
        out = []
        t = 0.0
        for state, duration in self.intervals:
            out.append((state, t, t + duration))
            t += duration
        return out

    def dark_fraction(self) -> float:
        dark = sum(d for s, d in self.intervals if s is IonState.DARK)
        return dark / self.total_time


def _check_total_time(total_time: float) -> None:
    if not math.isfinite(total_time) or total_time < 0:
        raise ValueError(f"total_time must be nonnegative and finite, got {total_time!r}")


def _check_arrivals(times: np.ndarray, total_time: float, after: float = -math.inf) -> None:
    """Arrival times must lie within [0, total_time] and rise strictly, also
    from ``after``, the last arrival before them."""
    if times.size:
        # Written so that a NaN arrival time, which every comparison
        # fails, is rejected without another pass over the times.
        if not (times.min() >= 0 and times.max() <= total_time):
            raise ValueError("arrival times must lie within [0, total_time]")
        if not times[0] > after or np.any(np.diff(times) <= 0):
            raise ValueError("arrival times must be strictly increasing")


@dataclass(frozen=True, eq=False)
class PhotonRecord:
    """Strictly increasing fluorescence arrival times within [0, total_time]."""

    arrival_times: np.ndarray
    total_time: float

    def __post_init__(self) -> None:
        times = np.asarray(self.arrival_times, dtype=float)
        times.flags.writeable = False
        object.__setattr__(self, "arrival_times", times)
        _check_total_time(self.total_time)
        _check_arrivals(times, self.total_time)


def simulate_trajectory(
    rates: VSystemRates, total_time: float, rng: np.random.Generator
) -> TelegraphTrajectory:
    """Alternating exponential dwells, starting bright, truncated at total_time."""
    if not math.isfinite(total_time) or total_time <= 0:
        raise ValueError(f"total_time must be positive and finite, got {total_time!r}")
    intervals: list[tuple[IonState, float]] = []
    state = IonState.BRIGHT
    elapsed = 0.0
    while elapsed < total_time:
        mean = (
            1.0 / rates.shelve_rate if state is IonState.BRIGHT else 1.0 / rates.deshelve_rate
        )
        duration = float(rng.exponential(mean))
        if elapsed + duration >= total_time:
            duration = total_time - elapsed
            intervals.append((state, duration))
            break
        intervals.append((state, duration))
        elapsed += duration
        state = IonState.DARK if state is IonState.BRIGHT else IonState.BRIGHT
    return TelegraphTrajectory(tuple(intervals), total_time)


def photon_chunks(
    traj: TelegraphTrajectory, rates: VSystemRates, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Poisson photon stream, one array per bright dwell: rate
    ``fluorescence_rate`` while bright, silence while dark.

    Per bright dwell the count is Poisson and the arrivals are placed
    uniformly (the conditional law of a homogeneous Poisson process).
    Arrivals that round to the same double are kept once, within a dwell
    and across dwells.  Each chunk passes ``PhotonRecord``'s checks and
    starts after the previous chunk's last arrival, so the chunks join into
    a valid record; a dwell left without photons yields nothing.  Memory
    is set by the longest bright dwell, not by ``total_time``.
    """
    _check_total_time(traj.total_time)
    last = -math.inf
    for state, start, end in traj.absolute_intervals():
        if state is not IonState.BRIGHT:
            continue
        duration = end - start
        count = int(rng.poisson(rates.fluorescence_rate * duration))
        if not count:
            continue
        times = start + np.sort(rng.random(count)) * duration
        # Sorted, so equal times can only be neighbours; the first is
        # compared with the previous dwell's last arrival.
        distinct = np.empty(count, dtype=bool)
        distinct[0] = times[0] != last
        np.not_equal(times[1:], times[:-1], out=distinct[1:])
        if not distinct.all():
            times = times[distinct]
        del distinct  # not held across the yield
        if times.size:
            _check_arrivals(times, traj.total_time, after=last)
            last = times[-1]
            yield times
        del times  # not held while the next dwell is drawn


def emit_photons(
    traj: TelegraphTrajectory, rates: VSystemRates, rng: np.random.Generator
) -> PhotonRecord:
    """The whole record of ``photon_chunks`` as one array."""
    chunks = list(photon_chunks(traj, rates, rng))
    times = np.concatenate(chunks) if chunks else np.empty(0, dtype=float)
    return PhotonRecord(times, traj.total_time)


class JumpDetector:
    """Infer dark intervals purely from photon silences longer than the threshold.

    The arrival times of one record are fed in order, a chunk at a time;
    only the last arrival time is carried from one chunk to the next, so a
    record of any length runs in the memory of its largest chunk.

    A silence observed between photons is declared dark starting at
    last_photon + dark_threshold - the inference is only available once the
    threshold has elapsed - and ending at the next photon.  A silence
    reaching the record boundaries uses the boundary itself: a record with
    no photons at all is one inferred dark interval spanning (0, total_time).
    """

    def __init__(self, total_time: float, dark_threshold: float) -> None:
        if not (math.isfinite(dark_threshold) and dark_threshold > 0):
            raise ValueError(f"dark_threshold must be positive and finite, got {dark_threshold!r}")
        _check_total_time(total_time)
        self.total_time = total_time
        self.dark_threshold = dark_threshold
        self._inferred: list[tuple[float, float]] = []
        self._last: float | None = None

    def feed(self, times: np.ndarray) -> None:
        """Read the record's next arrival times; its temporaries die on return."""
        if not times.size:
            return
        threshold = self.dark_threshold
        first = float(times[0])
        if self._last is None:
            if first > threshold:
                # No photon has been seen since the start; the silence begins there.
                self._inferred.append((0.0, first))
        elif self._last + threshold < first:
            self._inferred.append((self._last + threshold, first))
        # Compare the rounded dark start with the gap's end, not the gap
        # length with the threshold: a gap within an ulp of the threshold
        # would otherwise give an interval of zero length.
        dark_start = times[:-1] + threshold
        gap_end = times[1:]
        long_gaps = dark_start < gap_end
        self._inferred.extend(zip(dark_start[long_gaps].tolist(), gap_end[long_gaps].tolist()))
        self._last = float(times[-1])

    def finish(self) -> list[tuple[float, float]]:
        """The inferred dark intervals, the silence at the record's end included."""
        inferred = list(self._inferred)
        if self._last is None:
            if self.total_time > self.dark_threshold:
                inferred.append((0.0, self.total_time))
        elif self._last + self.dark_threshold < self.total_time:
            inferred.append((self._last + self.dark_threshold, self.total_time))
        return inferred


def detect_jumps_in_chunks(
    chunks: Iterable[np.ndarray], total_time: float, dark_threshold: float
) -> list[tuple[float, float]]:
    """``JumpDetector`` over ``chunks``, read once and in order."""
    detector = JumpDetector(total_time, dark_threshold)
    # map binds no chunk, so none is held while the next one is drawn.
    for _ in map(detector.feed, chunks):
        pass
    return detector.finish()


def detect_jumps(record: PhotonRecord, dark_threshold: float) -> list[tuple[float, float]]:
    """``detect_jumps_in_chunks`` over a whole record held as one chunk."""
    return detect_jumps_in_chunks([record.arrival_times], record.total_time, dark_threshold)


@dataclass(frozen=True)
class DetectionScore:
    """Detector performance against the ground-truth trajectory."""

    recall: float
    false_discovery_rate: float
    max_start_latency: float
    n_true_eligible: int
    n_inferred: int
    n_false: int


def score_detections(
    traj: TelegraphTrajectory,
    inferred: list[tuple[float, float]],
    dark_threshold: float,
) -> DetectionScore:
    """Match inferred dark intervals to true ones by their triggering silence.

    A detection starting at t was caused by the photon silence beginning at
    t - dark_threshold, so an inferred interval is credited to any true dark
    dwell overlapping (start - dark_threshold, end); without the widening, a
    dwell marginally shorter than the threshold can end inside the detection
    delay and be miscounted as a false alarm.  Recall counts true dark
    dwells of at least 2 * dark_threshold that some detection covers.  The
    false-discovery rate is the fraction of detections matching no dwell at
    all.  Start latency (|inferred start - true start|) is reported for
    matched, photon-bounded detections; a detection whose silence began at
    the record boundary has no reference photon and is excluded from the
    latency maximum.
    """
    true_dark = [
        (start, end) for state, start, end in traj.absolute_intervals() if state is IonState.DARK
    ]
    matched_true = [False] * len(true_dark)
    n_false = 0
    latencies = []
    j = 0
    for start, end in sorted(inferred):
        silence_start = max(start - dark_threshold, 0.0)
        hit = False
        while j < len(true_dark) and true_dark[j][1] <= silence_start:
            j += 1
        k = j
        first_overlap = None
        while k < len(true_dark) and true_dark[k][0] < end:
            if true_dark[k][1] > silence_start:
                matched_true[k] = True
                hit = True
                if first_overlap is None:
                    first_overlap = true_dark[k][0]
            k += 1
        if not hit:
            n_false += 1
        elif start > 0.0:
            latencies.append(abs(start - first_overlap))
    eligible = [
        m for (s, e), m in zip(true_dark, matched_true) if e - s >= 2 * dark_threshold
    ]
    recall = sum(eligible) / len(eligible) if eligible else 1.0
    fdr = n_false / len(inferred) if inferred else 0.0
    return DetectionScore(
        recall=recall,
        false_discovery_rate=fdr,
        max_start_latency=max(latencies) if latencies else 0.0,
        n_true_eligible=len(eligible),
        n_inferred=len(inferred),
        n_false=n_false,
    )
