"""Illumination regimes at the wall and their effect on the screen state.

Four regimes: no light, light at both holes, light at hole A for the full
observation window, and light at hole A cut before the window completes.
Sighting an electron collapses the coherent two-hole state to the seen
hole's branch.  With only hole A lit for the full window, *not* sighting
the electron is itself conclusive and collapses the state to the hole-B
branch (a null observation); if the light went out early, nothing was
learned and the coherent state survives.  ``sample_arrivals`` draws each
electron's outcome, then its position from that outcome's branch.
"""

from __future__ import annotations

import enum
from functools import lru_cache

import numpy as np

from . import stats
from .optics import (
    Hole,
    RealDensity,
    SlitGeometry,
    TransverseAmplitude,
    single_hole_amplitude,
    superpose,  # unused here; perfbench/child.py wraps measurement.superpose by name
)

__all__ = [
    "OUTCOME_ORDER",
    "Illumination",
    "OutcomeTag",
    "conditional_density",
    "ensemble_density",
    "outcome_probabilities",
    "sample_arrivals",
    "sampler_footprint_bytes",
]


class Illumination(enum.Enum):
    """What the light at the wall lets the observer learn about each electron."""

    OFF = "off"
    BOTH_HOLES = "both_holes"
    HOLE_A = "hole_a"
    HOLE_A_EARLY_OFF = "hole_a_early_off"


class OutcomeTag(enum.Enum):
    SEEN_AT_A = "seen_at_a"
    SEEN_AT_B = "seen_at_b"
    NOT_SEEN = "not_seen"


# The order outcomes partition a uniform draw in, the enum's own;
# sample_arrivals returns indices into it.
OUTCOME_ORDER = tuple(OutcomeTag)

# Per regime: the ensemble density, and the branch density of each outcome
# that can occur.  An outcome missing from a regime has probability 0 there.
# The electron's hole is known for every arrival exactly when the ensemble is
# the incoherent sum; with hole A lit for the full window, the null outcome
# is what reveals hole B.
_REGIMES: dict[Illumination, tuple[str, dict[OutcomeTag, str]]] = {
    Illumination.OFF: ("interference", {OutcomeTag.NOT_SEEN: "interference"}),
    Illumination.BOTH_HOLES: ("incoherent", {OutcomeTag.SEEN_AT_A: "hole_a",
                                             OutcomeTag.SEEN_AT_B: "hole_b"}),
    Illumination.HOLE_A: ("incoherent", {OutcomeTag.SEEN_AT_A: "hole_a",
                                         OutcomeTag.NOT_SEEN: "hole_b"}),
    Illumination.HOLE_A_EARLY_OFF: ("interference", {OutcomeTag.NOT_SEEN: "interference"}),
}


# Both caches are keyed by geometry and bounded like optics._hole_field: a run
# uses one geometry, a scan over many keeps only the most recent.
@lru_cache(maxsize=64)
def _branch_amplitudes(geom: SlitGeometry) -> tuple[TransverseAmplitude, TransverseAmplitude]:
    return single_hole_amplitude(geom, Hole.A), single_hole_amplitude(geom, Hole.B)


@lru_cache(maxsize=64)
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
    illumination: Illumination, geom: SlitGeometry
) -> dict[OutcomeTag, float]:
    """Outcome distribution for one electron under the given illumination.

    A sighting at a hole has that hole's branch weight; the null outcome
    takes what the possible sightings leave.
    """
    branches = _REGIMES[illumination][1]
    psi_a, psi_b = _branch_amplitudes(geom)
    weights = {OutcomeTag.SEEN_AT_A: psi_a.weight, OutcomeTag.SEEN_AT_B: psi_b.weight}
    probs = {tag: weight if tag in branches else 0.0 for tag, weight in weights.items()}
    probs[OutcomeTag.NOT_SEEN] = (
        1.0 - sum(probs.values()) if OutcomeTag.NOT_SEEN in branches else 0.0
    )
    return probs


# sample_arrivals holds three n-long arrays of 8-byte values together (the
# outcome indices, the position uniforms and the positions), plus one
# outcome's gathered uniforms and their positions while that outcome is placed.
SAMPLER_BYTES_PER_ELECTRON = 32


def sampler_footprint_bytes(n: int) -> int:
    """Estimated peak memory of ``sample_arrivals`` for ``n`` electrons."""
    return SAMPLER_BYTES_PER_ELECTRON * n


def sample_arrivals(
    illumination: Illumination, geom: SlitGeometry, n: int, rng: np.random.Generator
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
    probs = outcome_probabilities(illumination, geom)
    not_seen = OUTCOME_ORDER.index(OutcomeTag.NOT_SEEN)
    if probs[OutcomeTag.NOT_SEEN] == 1.0:
        density = conditional_density(illumination, OutcomeTag.NOT_SEEN, geom)
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
            density = conditional_density(illumination, tag, geom)
            positions[mask] = stats.GriddedCdf(density).ppf(u_position[mask])
    return outcome_index, positions


def ensemble_density(illumination: Illumination, geom: SlitGeometry) -> RealDensity:
    """Marginal screen density over all outcomes, normalized to one.

    No light, or light cut early at hole A: the interference density
    |psi_A + psi_B|^2.  Light at both holes, or at hole A for the full
    window: the incoherent sum |psi_A|^2 + |psi_B|^2 (the electron's hole
    is then known for every arrival, by sighting or by its absence).
    """
    return _analytic_density(geom, _REGIMES[illumination][0])


def conditional_density(
    illumination: Illumination, tag: OutcomeTag, geom: SlitGeometry
) -> RealDensity:
    """Normalized screen density of electrons with the given sighting outcome.

    Raises ValueError for an outcome that cannot occur under the illumination.
    """
    branches = _REGIMES[illumination][1]
    if tag not in branches:
        raise ValueError(
            f"outcome {tag.value!r} cannot occur under illumination {illumination.value!r}"
        )
    return _analytic_density(geom, branches[tag])
