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
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .optics import _readonly

__all__ = [
    "DetectionScore",
    "IonState",
    "JumpDetector",
    "TelegraphTrajectory",
    "VSystemRates",
    "dark_threshold_for_false_rate",
    "default_dark_threshold",
    "default_rates",
    "detect_jumps",
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
    """Ground-truth bright/dark dwell record: the first dwell's state and
    the length of every dwell in order, the states alternating from the first."""

    first_state: IonState
    intervals: np.ndarray
    total_time: float

    def __post_init__(self) -> None:
        lengths = _readonly(self.intervals, float)
        object.__setattr__(self, "intervals", lengths)
        if lengths.ndim != 1 or not lengths.size:
            raise ValueError("trajectory needs a 1-D array of at least one interval")
        if not (lengths.min() > 0 and lengths.max() < math.inf):  # so that NaN fails too
            raise ValueError("interval durations must be positive and finite")
        _check_total_time(self.total_time)
        if abs(lengths.sum() - self.total_time) > DURATION_SUM_RTOL * self.total_time:
            raise ValueError("durations must sum to total_time")

    def _offset(self, state: IonState) -> int:
        """Index of the first dwell in ``state``; its next ones follow every second."""
        return 0 if state is self.first_state else 1

    def durations(self, state: IonState) -> np.ndarray:
        """Complete dwell times in one state; the final interval, cut short
        by the end of the record, is dropped."""
        return self.intervals[self._offset(state):-1:2]

    def bounds(self, state: IonState | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Start and end times of the dwells in ``state``, or of every dwell: a
        start is the sum of the lengths before it, added in record order."""
        starts = np.zeros_like(self.intervals)
        np.cumsum(self.intervals[:-1], out=starts[1:])  # sequential, unlike np.sum
        ends = starts + self.intervals
        dwells = slice(None) if state is None else slice(self._offset(state), None, 2)
        return starts[dwells], ends[dwells]

    def dark_fraction(self) -> float:
        # Python's sum, in record order, not np.sum's pairwise one.
        dark = sum(map(float, self.intervals[self._offset(IonState.DARK)::2]))
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
        # A comparison of neighbours, not np.diff: its temporary is a byte
        # per arrival, not eight, and the times left here are finite.
        if not times[0] > after or np.any(times[1:] <= times[:-1]):
            raise ValueError("arrival times must be strictly increasing")


def simulate_trajectory(
    rates: VSystemRates, total_time: float, rng: np.random.Generator
) -> TelegraphTrajectory:
    """Alternating exponential dwells, starting bright, truncated at total_time."""
    if not math.isfinite(total_time) or total_time <= 0:
        raise ValueError(f"total_time must be positive and finite, got {total_time!r}")
    # Eight bytes a dwell, where a list would hold a Python float for each.
    lengths = array("d")
    means = (1.0 / rates.shelve_rate, 1.0 / rates.deshelve_rate)  # bright, dark
    elapsed = 0.0
    while True:
        duration = float(rng.exponential(means[len(lengths) % 2]))
        if elapsed + duration >= total_time:
            lengths.append(total_time - elapsed)
            return TelegraphTrajectory(IonState.BRIGHT, np.frombuffer(lengths), total_time)
        lengths.append(duration)
        elapsed += duration


def photon_chunks(
    traj: TelegraphTrajectory, rates: VSystemRates, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Poisson photon stream, one array per bright dwell: rate
    ``fluorescence_rate`` while bright, silence while dark.

    Per bright dwell the count is Poisson and the arrivals are placed
    uniformly (the conditional law of a homogeneous Poisson process).
    Arrivals that round to the same double are kept once, within a dwell
    and across dwells.  Each chunk passes ``_check_arrivals`` from the
    previous chunk's last arrival, so the chunks join into a valid record;
    a dwell left without photons yields nothing.  Besides the dwells'
    bounds (16 B a dwell), memory is set by the longest bright dwell.
    """
    last = -math.inf
    for start, end in zip(*traj.bounds(IonState.BRIGHT)):
        duration = end - start
        count = int(rng.poisson(rates.fluorescence_rate * duration))
        if not count:
            continue
        # start + sort(u) * duration, the same steps in the same order, in one array.
        times = rng.random(count)
        times.sort()
        times *= duration
        times += start
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
) -> np.ndarray:
    """The whole record of ``photon_chunks`` as one float64 array."""
    chunks = list(photon_chunks(traj, rates, rng))
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=float)


class JumpDetector:
    """Infer dark intervals purely from photon silences longer than the threshold.

    The arrival times of one record are fed in order, a chunk at a time;
    only the last arrival time and the detections, 16 B each, are carried
    from one chunk to the next, beside the temporaries of the largest chunk.

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
        self._found = array("d")  # each detection's start, then its end
        self._last: float | None = None

    def _silence_until(self, end: float) -> tuple[float, ...]:
        """Start and end of the silence from the last arrival (or 0) to ``end``, or ()."""
        if self._last is None:
            return (0.0, end) if end > self.dark_threshold else ()
        start = self._last + self.dark_threshold
        return (start, end) if start < end else ()

    def feed(self, times: np.ndarray) -> None:
        """Read the record's next arrival times; its temporaries die on return."""
        if not times.size:
            return
        self._found.extend(self._silence_until(float(times[0])))
        # Compare the rounded dark start with the gap's end, not the gap
        # length with the threshold: a gap within an ulp of the threshold
        # would otherwise give an interval of zero length.
        dark_start = times[:-1] + self.dark_threshold
        gap_end = times[1:]
        long_gaps = dark_start < gap_end
        if long_gaps.any():
            self._found.frombytes(np.column_stack((dark_start[long_gaps],
                                                   gap_end[long_gaps])).tobytes())
        self._last = float(times[-1])

    def finish(self) -> np.ndarray:
        """The inferred dark intervals, the silence at the record's end included, as
        a read-only (n, 2) float64 array of starts and ends: a copy, so feeding may go on."""
        found = np.frombuffer(self._found + array("d", self._silence_until(self.total_time)))
        found = found.reshape(-1, 2)
        found.flags.writeable = False
        return found


def detect_jumps(times: np.ndarray, total_time: float, dark_threshold: float) -> np.ndarray:
    """``JumpDetector`` over a whole record of arrival times held as one chunk."""
    detector = JumpDetector(total_time, dark_threshold)
    _check_arrivals(times, total_time)
    detector.feed(times)
    return detector.finish()


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
    inferred: np.ndarray,
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
    dark_starts, dark_ends = traj.bounds(IonState.DARK)
    starts, ends = np.asarray(inferred, dtype=float).reshape(-1, 2).T
    # Each detection is credited with the dwells from the first that ends
    # after its silence began up to the first that starts at or after its end.
    first = np.searchsorted(dark_ends, np.maximum(starts - dark_threshold, 0.0), side="right")
    stop = np.searchsorted(dark_starts, ends, side="left")
    hit = first < stop
    # +1 where a credited run of dwells begins, -1 past its end.
    runs = np.bincount(first[hit], minlength=dark_starts.size + 1) - np.bincount(
        stop[hit], minlength=dark_starts.size + 1)
    matched = np.cumsum(runs)[:-1] > 0
    eligible = dark_ends - dark_starts >= 2 * dark_threshold
    timed = hit & (starts > 0.0)
    latencies = np.abs(starts[timed] - dark_starts[first[timed]])
    n_eligible = int(np.count_nonzero(eligible))
    n_false = int(np.count_nonzero(~hit))
    return DetectionScore(
        recall=int(np.count_nonzero(matched & eligible)) / n_eligible if n_eligible else 1.0,
        false_discovery_rate=n_false / starts.size if starts.size else 0.0,
        max_start_latency=float(latencies.max()) if latencies.size else 0.0,
        n_true_eligible=n_eligible,
        n_inferred=starts.size,
        n_false=n_false,
    )
