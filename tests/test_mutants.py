"""Mutation table: each one-line physics error must fail an acceptance criterion.

Every criterion of ``test_acceptance`` passes at the suite's seeds; that
shows the program is not grossly wrong, but not that the bounds would catch
a subtle error.  Here each mutant is put in place with ``monkeypatch``, the
geometry caches it reaches are cleared, and the criterion named beside it
is run with its verdict line silenced; the criterion must then read FAIL.
Criteria 3 and 5's ``deviation`` checks compare the analytic density
columns that two runs write, so they catch a mutant that changes one
regime's ensemble density, but none that changes only the sampler.
"""

import dataclasses
import math
import sys

import pytest

import test_acceptance
from slitlab import measurement, optics, shelving
from slitlab.measurement import Illumination, OutcomeTag


def clear_caches():
    for cache in (measurement._branch_amplitudes, measurement._analytic_density,
                  measurement._position_cdf):
        cache.cache_clear()


def replace_everywhere(monkeypatch, module, name, mutant):
    """Set ``module.name`` to ``mutant`` there and in every module that
    imported it by name (``from module import name``)."""
    original = getattr(module, name)
    for owner in list(sys.modules.values()):
        if getattr(owner, "__dict__", {}).get(name) is original:
            monkeypatch.setattr(owner, name, mutant)


def wavelength_off(monkeypatch):
    arrival_blocks = measurement.arrival_blocks

    def mutant(illumination, geom, n, rng):
        geom = dataclasses.replace(geom, de_broglie_wavelength=geom.de_broglie_wavelength * 1.003)
        return arrival_blocks(illumination, geom, n, rng)

    replace_everywhere(monkeypatch, measurement, "arrival_blocks", mutant)


def regime(illumination, ensemble, branches):
    def apply(monkeypatch):
        monkeypatch.setitem(measurement._REGIMES, illumination, (ensemble, branches))
    return apply


def hole_b_weight_off(monkeypatch):
    single_hole_amplitude = optics.single_hole_amplitude

    def mutant(geom, hole):
        psi = single_hole_amplitude(geom, hole)
        if hole is not optics.Hole.B:
            return psi
        return optics.TransverseAmplitude(geom, psi.values * math.sqrt(1.01), psi.weight * 1.01)

    replace_everywhere(monkeypatch, optics, "single_hole_amplitude", mutant)


def rates_swapped(monkeypatch):
    simulate_trajectory = shelving.simulate_trajectory

    def mutant(rates, total_time, rng):
        swapped = dataclasses.replace(rates, shelve_rate=rates.deshelve_rate,
                                      deshelve_rate=rates.shelve_rate)
        return simulate_trajectory(swapped, total_time, rng)

    replace_everywhere(monkeypatch, shelving, "simulate_trajectory", mutant)


def threshold_halved(monkeypatch):
    dark_threshold_for_false_rate = shelving.dark_threshold_for_false_rate

    def mutant(rates, per_gap_probability):
        return dark_threshold_for_false_rate(rates, per_gap_probability) / 2

    replace_everywhere(monkeypatch, shelving, "dark_threshold_for_false_rate", mutant)


# (mutant, the criterion that must fail under it)
MUTANTS = {
    "sampler wavelength off by 0.3%": (wavelength_off, 1),
    "null outcome drawn from the interference density": (
        regime(Illumination.HOLE_A, "incoherent", {OutcomeTag.SEEN_AT_A: "hole_a",
                                                  OutcomeTag.NOT_SEEN: "interference"}), 4),
    "light cut early gives the incoherent sum": (
        regime(Illumination.HOLE_A_EARLY_OFF, "incoherent",
               {OutcomeTag.NOT_SEEN: "incoherent"}), 5),
    "fringes restored with light at both holes": (
        regime(Illumination.BOTH_HOLES, "interference", {OutcomeTag.SEEN_AT_A: "hole_a",
                                                        OutcomeTag.SEEN_AT_B: "hole_b"}), 2),
    "one lit hole gives the interference density": (
        regime(Illumination.HOLE_A, "interference", {OutcomeTag.SEEN_AT_A: "hole_a",
                                                    OutcomeTag.NOT_SEEN: "hole_b"}), 3),
    "hole B branch weight off by 1%": (hole_b_weight_off, 9),
    "shelve and deshelve rates swapped": (rates_swapped, 7),
    "dark threshold halved": (threshold_halved, 8),
}

CRITERIA = {
    1: test_acceptance.test_criterion_1_interference,
    2: test_acceptance.test_criterion_2_which_path_destruction,
    3: test_acceptance.test_criterion_3_one_hole_illumination_equivalence,
    4: test_acceptance.test_criterion_4_negative_observation_collapse,
    5: test_acceptance.test_criterion_5_early_light_off_restoration,
    7: test_acceptance.test_criterion_7_shelving_statistics,
    8: test_acceptance.test_criterion_8_negative_observation_detector,
    9: test_acceptance.test_criterion_9_conservation_and_determinism,
}


def run_criterion(number, directory):
    """Run one criterion in a new ``directory``; criteria 6-8 write
    nothing and take none."""
    directory.mkdir()
    if number in (6, 7, 8):
        CRITERIA[number]()
    else:
        CRITERIA[number](directory)


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()  # no mutated density outlives its mutant


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_its_criterion(name, monkeypatch, fresh_caches, tmp_path):
    apply, number = MUTANTS[name]
    verdicts = []
    monkeypatch.setattr(test_acceptance, "verdict",
                        lambda number, title, ok, detail: verdicts.append(ok))
    run_criterion(number, tmp_path / "unmutated")
    apply(monkeypatch)
    run_criterion(number, tmp_path / "mutated")
    assert verdicts == [True, False], f"criterion {number} does not go from PASS to FAIL"
