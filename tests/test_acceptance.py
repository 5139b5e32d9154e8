"""Acceptance suite: one check per headline claim, one printed line each.

Run with `pytest tests/test_acceptance.py -s` (or plain pytest; the
verdict lines bypass capture) to see the per-criterion results.
"""

import sys

import numpy as np

from slitlab.cli import main as cli_main
from slitlab.measurement import (
    OUTCOME_ORDER,
    Illumination,
    OutcomeTag,
    arrival_blocks,
    conditional_density,
    ensemble_density,
    outcome_probabilities,
)
from slitlab.optics import (
    Hole,
    SlitGeometry,
    default_geometry,
    fresnel_oracle,
    relative_l2_error,
    single_hole_amplitude,
    superpose,
)
from slitlab.shelving import (
    IonState,
    VSystemRates,
    dark_threshold_for_false_rate,
    default_rates,
    detect_jumps,
    emit_photons,
    score_detections,
    simulate_trajectory,
)
from slitlab.stats import (
    CHI2_HALF_PERIODS,
    PositionSample,
    WindowedChi2,
    fringe_visibility_from_positions,
    ks_exponential,
)
from test_optics import random_far_field_geometry

GEOM = default_geometry()
N_ELECTRONS = 100_000
SEED = 7

def verdict(number, title, ok, detail):
    stream = sys.__stdout__ or sys.stdout
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({title}): {detail}", file=stream)
    assert ok, f"criterion {number} ({title}): {detail}"


def chi2_p(positions, density):
    """Chi-square p-value of positions against a density over the central window."""
    chi2 = WindowedChi2(density)
    chi2.feed(positions)
    result, _ = chi2.finish()
    return result.p_value


def arrivals(config):
    """Outcome index and arrival position of every electron at the suite's seed,
    drawn through the block stream of a run."""
    blocks = list(arrival_blocks(config, GEOM, N_ELECTRONS, np.random.default_rng(SEED)))
    return tuple(np.concatenate(column) for column in zip(*blocks))


def test_criterion_1_interference():
    density = ensemble_density(Illumination.OFF, GEOM)
    _, positions = arrivals(Illumination.OFF)
    vis = fringe_visibility_from_positions(PositionSample(positions, GEOM))
    p_fit = chi2_p(positions, density)
    p_wrong = chi2_p(positions, ensemble_density(Illumination.BOTH_HOLES, GEOM))
    ok = vis >= 0.90 and p_fit >= 0.01 and p_wrong < 1e-6
    verdict(
        1,
        "interference",
        ok,
        f"sampled visibility {vis:.3f} >= 0.90; fit p {p_fit:.3f} >= 0.01; "
        f"no-fringe-model p {p_wrong:.2e} < 1e-6",
    )


def test_criterion_2_which_path_destruction():
    both = Illumination.BOTH_HOLES
    density = ensemble_density(both, GEOM)
    index, positions = arrivals(both)
    vis = fringe_visibility_from_positions(PositionSample(positions, GEOM))
    p_ensemble = chi2_p(positions, density)
    p_a, p_b = (
        chi2_p(positions[index == OUTCOME_ORDER.index(tag)], conditional_density(both, tag, GEOM))
        for tag in (OutcomeTag.SEEN_AT_A, OutcomeTag.SEEN_AT_B)
    )
    ok = vis <= 0.05 and p_ensemble >= 0.01 and p_a >= 0.01 and p_b >= 0.01
    verdict(
        2,
        "which-path destruction",
        ok,
        f"sampled visibility {vis:.4f} <= 0.05; ensemble p {p_ensemble:.3f}; "
        f"per-hole p ({p_a:.3f}, {p_b:.3f}) all >= 0.01",
    )


def test_criterion_3_one_hole_illumination_equivalence():
    both = ensemble_density(Illumination.BOTH_HOLES, GEOM)
    one = ensemble_density(Illumination.HOLE_A, GEOM)
    deviation = float(np.max(np.abs(both.values - one.values)))
    _, positions = arrivals(Illumination.HOLE_A)
    p_fit = chi2_p(positions, one)
    ok = deviation <= 1e-12 and p_fit >= 0.01
    verdict(
        3,
        "one-hole illumination equivalence",
        ok,
        f"max pointwise deviation {deviation:.2e} <= 1e-12; sampled fit p {p_fit:.3f} >= 0.01",
    )


def test_criterion_4_negative_observation_collapse():
    index, positions = arrivals(Illumination.HOLE_A)
    not_seen = positions[index == OUTCOME_ORDER.index(OutcomeTag.NOT_SEEN)]
    seen = positions[index == OUTCOME_ORDER.index(OutcomeTag.SEEN_AT_A)]
    p_fit = chi2_p(not_seen, conditional_density(Illumination.HOLE_A, OutcomeTag.NOT_SEEN, GEOM))

    # mirror comparison against the sighted branch, bin by bin
    half = CHI2_HALF_PERIODS * GEOM.fringe_period
    edges = np.linspace(-half, half, 49)
    null_counts, _ = np.histogram(not_seen, bins=edges)
    seen_counts, _ = np.histogram(seen, bins=edges)
    mirrored = seen_counts[::-1]
    n1, n2 = null_counts.sum(), mirrored.sum()
    pooled = (null_counts + mirrored) / (n1 + n2)
    scale = np.sqrt(np.maximum(pooled * (1 - pooled), 1e-12) * (1 / n1 + 1 / n2))
    z = np.abs(null_counts / n1 - mirrored / n2) / scale
    max_z = float(z.max())
    ok = p_fit >= 0.01 and max_z <= 5.0 and not_seen.size > 0.45 * N_ELECTRONS
    verdict(
        4,
        "negative-observation collapse",
        ok,
        f"{not_seen.size} null electrons fit the unlit-hole density (p {p_fit:.3f} >= 0.01); "
        f"mirror of sighted histogram max |z| {max_z:.2f} <= 5",
    )


def test_criterion_5_early_light_off_restoration():
    off = ensemble_density(Illumination.OFF, GEOM)
    early = ensemble_density(Illumination.HOLE_A_EARLY_OFF, GEOM)
    deviation = float(np.max(np.abs(off.values - early.values)))
    _, positions = arrivals(Illumination.HOLE_A_EARLY_OFF)
    vis = fringe_visibility_from_positions(PositionSample(positions, GEOM))
    ok = deviation <= 1e-12 and vis >= 0.90
    verdict(
        5,
        "early-light-off restoration",
        ok,
        f"max pointwise deviation {deviation:.2e} <= 1e-12; sampled visibility {vis:.3f} >= 0.90",
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        geom = random_far_field_geometry(rng)
        psi_a = single_hole_amplitude(geom, Hole.A)
        psi_b = single_hole_amplitude(geom, Hole.B)
        worst = max(
            worst,
            relative_l2_error(psi_a, fresnel_oracle(geom, (Hole.A,))),
            relative_l2_error(psi_b, fresnel_oracle(geom, (Hole.B,))),
            relative_l2_error(superpose(psi_a, psi_b), fresnel_oracle(geom)),
        )
    ok = worst <= 1e-3
    verdict(
        6,
        "oracle equivalence",
        ok,
        f"worst relative L2 error over 20 randomized geometries {worst:.2e} <= 1e-3",
    )


def test_criterion_7_shelving_statistics():
    rates = default_rates()
    rng = np.random.default_rng(11)
    # mean cycle 3 s; 3.2e4 s gives > 1e4 complete dwells of each kind
    traj = simulate_trajectory(rates, 3.2e4, rng)
    bright = traj.durations(IonState.BRIGHT)
    dark = traj.durations(IonState.DARK)
    mean_bright_err = abs(bright.mean() * rates.shelve_rate - 1.0)
    mean_dark_err = abs(dark.mean() * rates.deshelve_rate - 1.0)
    frac_err = abs(traj.dark_fraction() / rates.stationary_dark_fraction - 1.0)
    ks_bright = ks_exponential(bright, rates.shelve_rate).p_value
    ks_dark = ks_exponential(dark, rates.deshelve_rate).p_value
    ok = (
        min(bright.size, dark.size) >= 10_000
        and mean_bright_err < 0.05
        and mean_dark_err < 0.05
        and frac_err < 0.05
        and ks_bright > 0.01
        and ks_dark > 0.01
    )
    verdict(
        7,
        "shelving statistics",
        ok,
        f"{dark.size} dwells: mean errors ({mean_bright_err:.3f}, {mean_dark_err:.3f}) < 0.05; "
        f"dark-fraction error {frac_err:.3f} < 0.05; KS p ({ks_bright:.2f}, {ks_dark:.2f}) > 0.01",
    )


def test_criterion_8_negative_observation_detector():
    # Threshold tuned for a 1e-4 per-gap false-silence probability.  The
    # false-alarm budget then forces the minimum legal rate separation:
    # expected false detections per jump are (R_f/R_s) * 1e-4.
    rates = VSystemRates(fluorescence_rate=2000.0, shelve_rate=20.0, deshelve_rate=2.0)
    tau = dark_threshold_for_false_rate(rates, 1e-4)
    rng = np.random.default_rng(SEED)
    traj = simulate_trajectory(rates, 5650.0, rng)
    record = emit_photons(traj, rates, rng)
    inferred = detect_jumps(record, tau)
    score = score_detections(traj, inferred, tau)
    n_jumps = traj.durations(IonState.DARK).size
    ok = (
        n_jumps >= 10_000
        and score.recall >= 0.99
        and score.false_discovery_rate <= 0.01
        and score.max_start_latency <= tau
    )
    verdict(
        8,
        "negative-observation detector",
        ok,
        f"{n_jumps} jumps: recall {score.recall:.4f} >= 0.99; "
        f"FDR {score.false_discovery_rate:.4f} <= 0.01; "
        f"max latency {score.max_start_latency / tau:.3f} tau <= tau",
    )


def test_criterion_9_conservation_and_determinism(tmp_path):
    # branch weights sum to one for assorted geometries
    weight_errs = []
    for w_a, w_b in ((0.5e-6, 0.5e-6), (1.0e-6, 0.5e-6), (0.3e-6, 0.9e-6)):
        geom = SlitGeometry(5e-6, w_a, w_b, 1.0, 50e-9, -0.2, 0.2, 4096)
        total = (
            single_hole_amplitude(geom, Hole.A).weight
            + single_hole_amplitude(geom, Hole.B).weight
        )
        weight_errs.append(abs(total - 1.0))
    weights_ok = max(weight_errs) <= 1e-9

    # outcome-weighted conditionals reconstruct every ensemble
    mixture_err = 0.0
    for config in Illumination:
        probs = outcome_probabilities(config, GEOM)
        mixture = np.zeros(GEOM.grid_points)
        for tag, p in probs.items():
            if p > 0.0:
                mixture += p * conditional_density(config, tag, GEOM).values
        ensemble = ensemble_density(config, GEOM)
        mixture_err = max(mixture_err, float(np.max(np.abs(mixture - ensemble.values))))
    mixture_ok = mixture_err <= 1e-9

    # identical seeds, byte-identical artifacts
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert cli_main(["g2", "--n", "20000", "--seed", "7", "--out", str(out)]) == 0
        assert (
            cli_main(
                ["shelving", "--total-time", "5", "--seed", "7", "--out", str(out / "s")]
            )
            == 0
        )
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in (
            "density.csv",
            "samples.csv",
            "summary.json",
            "s/trajectory.csv",
            "s/photons.csv",
            "s/summary.json",
        )
    )
    ok = weights_ok and mixture_ok and identical
    verdict(
        9,
        "conservation and determinism",
        ok,
        f"branch-weight error {max(weight_errs):.1e} <= 1e-9; "
        f"total-probability error {mixture_err:.1e} <= 1e-9; "
        f"byte-identical reruns: {identical}",
    )
