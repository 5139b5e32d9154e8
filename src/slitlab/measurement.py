"""Illumination regimes at the wall and their effect on the screen state.

Three regimes: no light, light at both holes, light at hole A only.
Sighting an electron collapses the coherent two-hole state to the seen
hole's branch.  With only hole A lit and the full observation window
elapsed, *not* sighting the electron is itself conclusive and collapses
the state to the hole-B branch (a null observation); if the light went
out before the window completed, nothing was learned and the coherent
state survives.  ``sample_arrivals`` draws each electron's outcome, then
its position from that outcome's branch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import stats
from .optics import (
    Hole,
    RealDensity,
    SlitGeometry,
    TransverseAmplitude,
    default_geometry,
    single_hole_amplitude,
    superpose,  # unused here; perfbench/child.py wraps measurement.superpose by name
)

__all__ = [
    "OUTCOME_ORDER",
    "IlluminationConfig",
    "IlluminationMode",
    "OutcomeTag",
    "conditional_density",
    "ensemble_density",
    "outcome_probabilities",
    "sample_arrivals",
]


class IlluminationMode(enum.Enum):
    OFF = "off"
    BOTH_HOLES = "both_holes"
    HOLE_A_ONLY = "hole_a_only"


class OutcomeTag(enum.Enum):
    SEEN_AT_A = "seen_at_a"
    SEEN_AT_B = "seen_at_b"
    NOT_SEEN = "not_seen"


# The order outcomes partition a uniform draw in; sample_arrivals returns
# indices into it.
OUTCOME_ORDER = (OutcomeTag.SEEN_AT_A, OutcomeTag.SEEN_AT_B, OutcomeTag.NOT_SEEN)


@dataclass(frozen=True)
class IlluminationConfig:
    """Where the light sits and whether the observation window completed."""

    mode: IlluminationMode
    window_complete: bool = False

    def __post_init__(self) -> None:
        if self.mode is IlluminationMode.OFF and self.window_complete:
            # No light, no window: normalize the irrelevant flag.
            object.__setattr__(self, "window_complete", False)


@lru_cache(maxsize=None)
def _branch_amplitudes(geom: SlitGeometry) -> tuple[TransverseAmplitude, TransverseAmplitude]:
    return single_hole_amplitude(geom, Hole.A), single_hole_amplitude(geom, Hole.B)


@lru_cache(maxsize=None)
def _analytic_density(geom: SlitGeometry, kind: str) -> RealDensity:
    psi_a, psi_b = _branch_amplitudes(geom)
    if kind == "interference":
        values = np.abs(psi_a.values + psi_b.values) ** 2
    elif kind == "incoherent":
        values = np.abs(psi_a.values) ** 2 + np.abs(psi_b.values) ** 2
    elif kind == "hole_a":
        values = np.abs(psi_a.values) ** 2 / psi_a.weight
    elif kind == "hole_b":
        values = np.abs(psi_b.values) ** 2 / psi_b.weight
    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown density kind {kind!r}")
    x = geom.grid
    values = values / np.trapezoid(values, x)
    return RealDensity(geom, values, float(np.trapezoid(values, x)))


def outcome_probabilities(
    config: IlluminationConfig, geom: SlitGeometry | None = None
) -> dict[OutcomeTag, float]:
    """Outcome distribution for one electron under the given illumination."""
    geom = default_geometry() if geom is None else geom
    psi_a, psi_b = _branch_amplitudes(geom)
    if config.mode is IlluminationMode.OFF:
        return {OutcomeTag.SEEN_AT_A: 0.0, OutcomeTag.SEEN_AT_B: 0.0, OutcomeTag.NOT_SEEN: 1.0}
    if config.mode is IlluminationMode.BOTH_HOLES:
        # Every electron is sighted at one hole or the other.
        return {
            OutcomeTag.SEEN_AT_A: psi_a.weight,
            OutcomeTag.SEEN_AT_B: psi_b.weight,
            OutcomeTag.NOT_SEEN: 0.0,
        }
    # Hole A only.  With the window cut short the light never catches the
    # electron, so no sighting (positive or null) is possible.
    if not config.window_complete:
        return {OutcomeTag.SEEN_AT_A: 0.0, OutcomeTag.SEEN_AT_B: 0.0, OutcomeTag.NOT_SEEN: 1.0}
    p_a = psi_a.weight
    return {OutcomeTag.SEEN_AT_A: p_a, OutcomeTag.SEEN_AT_B: 0.0, OutcomeTag.NOT_SEEN: 1.0 - p_a}


def sample_arrivals(
    config: IlluminationConfig, geom: SlitGeometry, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` electrons' sighting outcomes, then each one's arrival position.

    Returns ``(outcome_index, positions)``, the index pointing into
    ``OUTCOME_ORDER``.  Outcomes come from one uniform variate each,
    partitioned by cumulative probability in that order, so an outcome of
    probability 0 is never drawn; a second batch of uniforms then places
    each electron by inverting its outcome's conditional density.  When
    every electron goes unseen (no light, or light cut early) the outcome
    draw is skipped and the positions are exactly
    ``stats.sample_positions`` of the not-seen density with the same
    generator.
    """
    probs = outcome_probabilities(config, geom)
    not_seen = OUTCOME_ORDER.index(OutcomeTag.NOT_SEEN)
    if probs[OutcomeTag.NOT_SEEN] == 1.0:
        density = conditional_density(config, OutcomeTag.NOT_SEEN, geom)
        sample = stats.sample_positions(density, n, rng)
        return np.full(n, not_seen), sample.positions

    weights = [probs[tag] for tag in OUTCOME_ORDER]
    # A draw past the last edge (rounding leaves the total a hair below 1)
    # goes to the last possible outcome.
    last = max(i for i, weight in enumerate(weights) if weight > 0)
    outcome_index = np.searchsorted(np.cumsum(weights), rng.random(n), side="right")
    outcome_index = np.minimum(outcome_index, last)
    u_position = rng.random(n)
    positions = np.empty(n, dtype=float)
    for idx, tag in enumerate(OUTCOME_ORDER):
        mask = outcome_index == idx
        if mask.any():
            density = conditional_density(config, tag, geom)
            positions[mask] = stats.GriddedCdf(density).ppf(u_position[mask])
    return outcome_index, positions


def ensemble_density(
    config: IlluminationConfig, geom: SlitGeometry | None = None
) -> RealDensity:
    """Marginal screen density over all outcomes, normalized to one.

    No light (or light cut short at hole A): the interference density
    |psi_A + psi_B|^2.  Light at both holes, or at hole A with a complete
    window: the incoherent sum |psi_A|^2 + |psi_B|^2 (the electron's hole
    is then known for every arrival, by sighting or by its absence).
    """
    geom = default_geometry() if geom is None else geom
    if config.mode is IlluminationMode.OFF:
        return _analytic_density(geom, "interference")
    if config.mode is IlluminationMode.BOTH_HOLES:
        return _analytic_density(geom, "incoherent")
    if config.window_complete:
        return _analytic_density(geom, "incoherent")
    return _analytic_density(geom, "interference")


def conditional_density(
    config: IlluminationConfig,
    tag: OutcomeTag,
    geom: SlitGeometry | None = None,
) -> RealDensity:
    """Normalized screen density of electrons with the given sighting outcome."""
    geom = default_geometry() if geom is None else geom
    mode = config.mode
    if mode is IlluminationMode.OFF:
        if tag is not OutcomeTag.NOT_SEEN:
            raise ValueError("nothing can be sighted with the light off")
        return _analytic_density(geom, "interference")
    if mode is IlluminationMode.BOTH_HOLES:
        if tag is OutcomeTag.SEEN_AT_A:
            return _analytic_density(geom, "hole_a")
        if tag is OutcomeTag.SEEN_AT_B:
            return _analytic_density(geom, "hole_b")
        raise ValueError("with both holes lit every electron is sighted")
    # Hole A only.
    if tag is OutcomeTag.SEEN_AT_B:
        raise ValueError("hole B is unlit; an electron cannot be sighted there")
    if config.window_complete:
        if tag is OutcomeTag.SEEN_AT_A:
            return _analytic_density(geom, "hole_a")
        return _analytic_density(geom, "hole_b")
    if tag is OutcomeTag.SEEN_AT_A:
        raise ValueError("the light was cut before any electron could be sighted")
    return _analytic_density(geom, "interference")
