"""Illumination regimes at the wall and their effect on the screen state.

Four regimes: no light, light at both holes, light at hole A for the full
observation window, and light at hole A cut before the window completes.
Sighting an electron collapses the coherent two-hole state to the seen
hole's branch.  With only hole A lit for the full window, *not* sighting
the electron is itself conclusive and collapses the state to the hole-B
branch (a null observation); if the light went out early, nothing was
learned and the coherent state survives.  ``arrival_blocks`` draws each
electron's outcome, then its position from that outcome's branch.
"""

from __future__ import annotations

import copy
import enum
from collections.abc import Iterator
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
    "arrival_blocks",
    "conditional_density",
    "ensemble_density",
    "outcome_probabilities",
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
# arrival_blocks yields indices into it.
OUTCOME_ORDER = tuple(OutcomeTag)

# Two-hole electrons are drawn, and CSV rows formatted and written, this many
# at a time, so memory depends on the block, not on the length of the record.
# At 16,384 rows a block's text is about 0.35 MB and each of its arrays
# 128 KiB, so a labelled block's text, output and arrays together fit in a
# 2 MiB L2 cache; at 65,536 each text buffer alone was about 1.4 MB.
CSV_BLOCK_ROWS = 16_384

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
    return RealDensity(geom, values / np.trapezoid(values, geom.grid))


# The sampler's CDF over the branch densities of a regime's possible
# outcomes, whose guide table is then built once per regime rather than once
# per arrival_blocks call.  It holds about 0.4 MiB a density on the default
# grid, and a run samples one regime, so few are kept.
_position_cdf = lru_cache(maxsize=8)(stats.GriddedCdf)


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


def arrival_blocks(
    illumination: Illumination, geom: SlitGeometry, n: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Draw ``n`` electrons' sighting outcomes, then each one's arrival position.

    Yields ``(outcome_index, positions)`` per block of ``CSV_BLOCK_ROWS``
    electrons, the index pointing into ``OUTCOME_ORDER``.  Outcomes partition
    one uniform each by cumulative probability in that order, so none of
    probability 0 is drawn, and none at all where only one can occur (no
    light, or light cut early); a second uniform inverts the outcome's
    conditional density, all outcomes' in one ``GriddedCdf.ppf`` call a
    block.  The blocks join into two one-shot ``rng.random(n)`` draws: the
    positions read a copy of ``rng`` advanced past the outcomes.
    """
    probs = outcome_probabilities(illumination, geom)
    possible = [tag for tag in OUTCOME_ORDER if probs[tag] > 0]
    cdf = _position_cdf(*(conditional_density(illumination, tag, geom) for tag in possible))
    outcome_index = np.array([OUTCOME_ORDER.index(tag) for tag in possible])
    # A draw at or past an edge is past the possible outcome that ends there;
    # rounding can leave a draw past the last one, so it has no edge.
    edges = np.cumsum([probs[tag] for tag in possible])[:-1]
    position_rng = copy.deepcopy(rng)
    position_rng.bit_generator.advance(n if edges.size else 0)  # PCG64's jump-ahead
    for start in range(0, n, CSV_BLOCK_ROWS):
        size = min(CSV_BLOCK_ROWS, n - start)
        rows = np.zeros(size, dtype=np.uint8)  # each electron's outcome among the possible
        if edges.size:
            u_outcome = rng.random(size)
            for edge in edges:
                rows += u_outcome >= edge
            del u_outcome
        positions = cdf.ppf(position_rng.random(size), rows)
        yield outcome_index.take(rows), positions


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
