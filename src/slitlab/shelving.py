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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DetectionScore",
    "IonState",
    "PhotonRecord",
    "TelegraphTrajectory",
    "VSystemRates",
    "dark_threshold_for_false_rate",
    "default_dark_threshold",
    "default_rates",
    "detect_jumps",
    "emit_photons",
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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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


def default_dark_threshold(rates: VSystemRates | None = None) -> float:
    """Default silence threshold, ~0.92 ms at the default rates.

    That is ~92 mean photon spacings, so a bright ion essentially never
    fakes a dark period (per-gap odds exp(-92) = 1e-40), while detection
    still lags a real shelving event by well under a typical dark dwell.
    """
    rates = default_rates() if rates is None else rates
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

    def durations(self, state: IonState, complete_only: bool = True) -> np.ndarray:
        """Dwell times in one state; drops the final (censored) interval
        unless ``complete_only`` is false."""
        intervals = self.intervals[:-1] if complete_only else self.intervals
        return np.array([d for s, d in intervals if s is state], dtype=float)

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


@dataclass(frozen=True, eq=False)
class PhotonRecord:
    """Strictly increasing fluorescence arrival times within [0, total_time]."""

    arrival_times: np.ndarray
    total_time: float

    def __post_init__(self) -> None:
        times = np.asarray(self.arrival_times, dtype=float)
        times.flags.writeable = False
        object.__setattr__(self, "arrival_times", times)
        if self.total_time < 0:
            raise ValueError("total_time must be nonnegative")
        if times.size:
            if times.min() < 0 or times.max() > self.total_time:
                raise ValueError("arrival times must lie within [0, total_time]")
            if np.any(np.diff(times) <= 0):
                raise ValueError("arrival times must be strictly increasing")


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


def emit_photons(
    traj: TelegraphTrajectory, rates: VSystemRates, rng: np.random.Generator
) -> PhotonRecord:
    """Poisson photon stream: rate ``fluorescence_rate`` while bright, silence
    while dark.

    Per bright interval the count is Poisson and the arrivals are placed
    uniformly (the conditional law of a homogeneous Poisson process).
    Arrivals that round to the same double are kept once.
    """
    chunks = []
    for state, start, end in traj.absolute_intervals():
        if state is not IonState.BRIGHT:
            continue
        duration = end - start
        count = int(rng.poisson(rates.fluorescence_rate * duration))
        if count:
            chunks.append(start + np.sort(rng.random(count)) * duration)
    times = np.concatenate(chunks) if chunks else np.empty(0, dtype=float)
    # Each chunk is sorted and the chunks follow the dwells, so the record is
    # already in order and equal times can only be neighbours.
    distinct = np.empty(times.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(times[1:], times[:-1], out=distinct[1:])
    return PhotonRecord(times[distinct], traj.total_time)


def detect_jumps(record: PhotonRecord, dark_threshold: float) -> list[tuple[float, float]]:
    """Infer dark intervals purely from photon silences longer than the threshold.

    A silence observed between photons is declared dark starting at
    last_photon + dark_threshold - the inference is only available once the
    threshold has elapsed - and ending at the next photon.  A silence
    reaching the record boundaries uses the boundary itself: a record with
    no photons at all is one inferred dark interval spanning (0, total_time).
    """
    if dark_threshold <= 0:
        raise ValueError("dark_threshold must be positive")
    times = record.arrival_times
    total = record.total_time
    if total == 0:
        return []
    if times.size == 0:
        return [(0.0, total)] if total > dark_threshold else []
    inferred: list[tuple[float, float]] = []
    if times[0] > dark_threshold:
        # No photon has been seen since the start; the silence begins there.
        inferred.append((0.0, float(times[0])))
    gap_start = times[:-1]
    gap_end = times[1:]
    long_gaps = (gap_end - gap_start) > dark_threshold
    for start, end in zip(gap_start[long_gaps], gap_end[long_gaps]):
        inferred.append((float(start) + dark_threshold, float(end)))
    if total - times[-1] > dark_threshold:
        inferred.append((float(times[-1]) + dark_threshold, total))
    return inferred


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
    min_duration: float | None = None,
) -> DetectionScore:
    """Match inferred dark intervals to true ones by their triggering silence.

    A detection starting at t was caused by the photon silence beginning at
    t - dark_threshold, so an inferred interval is credited to any true dark
    dwell overlapping (start - dark_threshold, end); without the widening, a
    dwell marginally shorter than the threshold can end inside the detection
    delay and be miscounted as a false alarm.  Recall counts true dark
    dwells of at least ``min_duration`` (default 2 * dark_threshold) that
    some detection covers.  The false-discovery rate is the fraction of
    detections matching no dwell at all.  Start latency (|inferred start -
    true start|) is reported for matched, photon-bounded detections; a
    detection whose silence began at the record boundary has no reference
    photon and is excluded from the latency maximum.
    """
    if min_duration is None:
        min_duration = 2 * dark_threshold
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
    eligible = [m for (s, e), m in zip(true_dark, matched_true) if e - s >= min_duration]
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
