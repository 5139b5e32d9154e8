"""Batch runner: execute one experiment and write its artifacts to a directory.

Experiments
    g1            no light at the wall - interference pattern
    g2            light at both holes - which-path, fringes destroyed
    g3            light at hole A only, full observation window
    g3_early_off  light at hole A cut before the window completes
    shelving      telegraph fluorescence of a single ion + jump detector

Each run writes CSV data (density.csv and samples.csv, or trajectory.csv
and photons.csv), a flat summary.json of metrics, and config_resolved.txt
echoing every resolved parameter including the seed.  Reruns with the
same configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import measurement, shelving, stats
from .optics import QuadratureConvergenceError, RealDensity, SlitGeometry, visibility
from .measurement import IlluminationConfig, IlluminationMode, OutcomeTag

__all__ = ["ConfigError", "RunConfig", "main", "parse_args", "run"]

EXPERIMENTS = ("g1", "g2", "g3", "g3_early_off", "shelving")

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# Analysis windows, in fringe periods per side: visibility of the analytic
# density uses the minimum legal window; the chi-square fit conditions on a
# wider central stretch where every fringe-minimum bin still expects >= 5
# counts at the default sample size.
VISIBILITY_HALF_PERIODS = 1
SAMPLED_VISIBILITY_HALF_PERIODS = 3
CHI2_HALF_PERIODS = 6
CHI2_BINS = 96

# CSV rows are formatted and written this many at a time, so the writer's
# memory depends on the block, not on the length of the record.
CSV_BLOCK_ROWS = 65_536

# Float parameters and the flags that set them; NaN and inf are rejected.
_FLOAT_FLAGS = {
    "total_time": "--total-time",
    "wavelength": "--wavelength",
    "hole_width": "--hole-width",
    "separation": "--separation",
    "distance": "--distance",
}


class ConfigError(ValueError):
    """Invalid command line, config file, or parameter combination."""


@dataclass
class RunConfig:
    experiment: str
    output_dir: Path
    n_electrons: int = 100_000
    total_time: float = 30.0
    seed: int = 0
    wavelength: float = 50e-9
    hole_width: float = 0.5e-6
    separation: float = 5e-6
    distance: float = 1.0

    def geometry(self) -> SlitGeometry:
        return SlitGeometry(
            hole_separation=self.separation,
            hole_width_a=self.hole_width,
            hole_width_b=self.hole_width,
            wall_to_backstop=self.distance,
            de_broglie_wavelength=self.wavelength,
            grid_min=-0.2,
            grid_max=0.2,
            grid_points=8192,
        )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for numerics
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="slitlab", description=__doc__, add_help=True)
    parser.add_argument("experiment_pos", nargs="?", metavar="EXPERIMENT",
                        help="one of: " + ", ".join(EXPERIMENTS))
    parser.add_argument("--experiment", help="experiment to run (alternative to the positional)")
    parser.add_argument("--n", type=int, dest="n_electrons", help="number of electrons")
    parser.add_argument("--total-time", type=float, help="shelving observation time (s)")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--config", help="key=value config file; flags win on conflict")
    parser.add_argument("--wavelength", type=float, help="de Broglie wavelength (m)")
    parser.add_argument("--hole-width", type=float, help="width of each hole (m)")
    parser.add_argument("--separation", type=float, help="hole center-to-center separation (m)")
    parser.add_argument("--distance", type=float, help="wall-to-backstop distance (m)")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


_FILE_KEYS = {
    "experiment": str,
    "n": int,
    "n_electrons": int,
    "total_time": float,
    "seed": int,
    "out": str,
    "wavelength": float,
    "hole_width": float,
    "separation": float,
    "distance": float,
}


def parse_args(argv: list[str]) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    file_values: dict[str, object] = {}
    if ns.config:
        for key, raw in _read_config_file(ns.config).items():
            if key not in _FILE_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                file_values["n_electrons" if key == "n" else key] = _FILE_KEYS[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc

    if ns.experiment_pos and ns.experiment and ns.experiment_pos != ns.experiment:
        raise ConfigError("conflicting positional and --experiment values")
    experiment = ns.experiment or ns.experiment_pos or file_values.get("experiment")
    if not experiment:
        raise ConfigError("no experiment given (positional, --experiment, or config file)")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")

    out = ns.out or file_values.get("out")
    if not out:
        raise ConfigError("no output directory given (--out or config file)")

    config = RunConfig(experiment=str(experiment), output_dir=Path(str(out)))
    for attr in ("n_electrons", "total_time", "seed", "wavelength",
                 "hole_width", "separation", "distance"):
        flag = getattr(ns, attr, None)
        if flag is not None:
            setattr(config, attr, flag)
        elif attr in file_values:
            setattr(config, attr, file_values[attr])

    for attr, flag in _FLOAT_FLAGS.items():
        value = getattr(config, attr)
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value!r}")
    if config.n_electrons < 1:
        raise ConfigError("--n must be at least 1")
    if config.total_time <= 0:
        raise ConfigError("--total-time must be positive")
    return config


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass(frozen=True)
class _Labels:
    """A CSV column of text labels, stored as indices into ``names``."""

    names: tuple[str, ...]
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


# (file name, header, columns) of one CSV artifact.
_Table = tuple[str, list[str], list]


def _cells(column, start: int, stop: int):
    """The text of one column's cells in rows [start, stop)."""
    if isinstance(column, _Labels):
        return map(column.names.__getitem__, column.codes[start:stop].tolist())
    block = column[start:stop]
    if isinstance(block, np.ndarray) and block.dtype == np.float64:
        # tolist() yields Python floats: the same text as _fmt, without its dispatch
        return map(repr, block.tolist())
    return map(_fmt, block)


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length columns under a header, one block of rows at a time."""
    n_rows = len(columns[0])
    if any(len(column) != n_rows for column in columns):
        raise ValueError(f"{path.name}: columns differ in length")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n_rows)
            cells = [_cells(column, start, stop) for column in columns]
            rows = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
            fh.write("\n".join(rows))
            fh.write("\n")


def _write_summary(path: Path, summary: dict) -> None:
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", newline="")


def _write_config_echo(path: Path, entries: dict) -> None:
    lines = [f"{key}={_fmt(entries[key])}" for key in sorted(entries)]
    path.write_text("\n".join(lines) + "\n", newline="")


def _illumination(experiment: str) -> IlluminationConfig:
    if experiment == "g1":
        return IlluminationConfig(IlluminationMode.OFF)
    if experiment == "g2":
        return IlluminationConfig(IlluminationMode.BOTH_HOLES, window_complete=True)
    if experiment == "g3":
        return IlluminationConfig(IlluminationMode.HOLE_A_ONLY, window_complete=True)
    return IlluminationConfig(IlluminationMode.HOLE_A_ONLY, window_complete=False)


def _pick_bins(windowed: RealDensity, lo: float, hi: float, n_in_window: int) -> int:
    """Finest bin count whose fringe-minimum bins still expect >= 5 counts."""
    cdf = stats.GriddedCdf(windowed)
    for n_bins in (CHI2_BINS, 64, 48, 32, 24, 16, 12, 8):
        edges = np.linspace(lo, hi, n_bins + 1)
        expected = cdf.interval_masses(edges) * n_in_window
        _, merged = stats._merge_edges_inward(np.zeros(n_bins), expected)
        if np.all(merged >= stats.MIN_EXPECTED_PER_BIN):
            return n_bins
    return 8


def _chi2_against(
    positions: np.ndarray, expected: RealDensity, geom: SlitGeometry
) -> tuple[stats.ChiSquareResult, int]:
    half = CHI2_HALF_PERIODS * geom.fringe_period
    windowed = expected.restrict(-half, half)
    lo, hi = windowed.x[0], windowed.x[-1]
    sample = stats.PositionSample(positions, geom)
    conditioned = stats.filter_positions(sample, lo, hi)
    n_bins = _pick_bins(windowed, lo, hi, len(conditioned))
    hist = stats.histogram(conditioned, n_bins, (lo, hi))
    return stats.chi_square_gof(hist, windowed), n_bins


def _run_interference(config: RunConfig) -> tuple[dict, list[_Table]]:
    """g1 and g3_early_off: coherent pattern, every electron unseen."""
    geom = config.geometry()
    illumination = _illumination(config.experiment)
    density = measurement.ensemble_density(illumination, geom)
    rng = np.random.default_rng(config.seed)
    sample = stats.sample_positions(
        density, config.n_electrons, rng, source_config=illumination, seed=config.seed
    )

    period = geom.fringe_period
    chi2, n_bins = _chi2_against(sample.positions, density, geom)
    summary = {
        "experiment": config.experiment,
        "n_electrons": config.n_electrons,
        "seed": config.seed,
        "frac_seen_at_a": 0.0,
        "frac_seen_at_b": 0.0,
        "frac_not_seen": 1.0,
        "visibility_analytic": visibility(density, (-period, period)),
        "visibility_sampled": stats.fringe_visibility_from_positions(
            sample, SAMPLED_VISIBILITY_HALF_PERIODS
        ),
        "chi2_bins": n_bins,
        "chi2_statistic": chi2.statistic,
        "chi2_dof": chi2.dof,
        "chi2_p_value": chi2.p_value,
    }
    tables = [
        ("density.csv", ["x_m", "analytic_density_per_m"], [density.x, density.values]),
        ("samples.csv", ["x_m"], [sample.positions]),
    ]
    return summary, tables


def _run_which_path(config: RunConfig) -> tuple[dict, list[_Table]]:
    """g2 and g3: per-electron sighting outcome, then the branch density."""
    geom = config.geometry()
    illumination = _illumination(config.experiment)
    density = measurement.ensemble_density(illumination, geom)
    probs = measurement.outcome_probabilities(illumination, geom)

    order = (OutcomeTag.SEEN_AT_A, OutcomeTag.SEEN_AT_B, OutcomeTag.NOT_SEEN)
    edges = np.cumsum([probs[tag] for tag in order])
    rng = np.random.default_rng(config.seed)
    outcome_index = np.searchsorted(edges, rng.random(config.n_electrons), side="right")
    outcome_index = np.minimum(outcome_index, len(order) - 1)
    u_position = rng.random(config.n_electrons)

    positions = np.empty(config.n_electrons, dtype=float)
    for idx, tag in enumerate(order):
        mask = outcome_index == idx
        if not mask.any():
            continue
        conditional = measurement.conditional_density(illumination, tag, geom)
        positions[mask] = stats.GriddedCdf(conditional).ppf(u_position[mask])

    hole_a = measurement.conditional_density(illumination, OutcomeTag.SEEN_AT_A, geom)
    null_tag = OutcomeTag.SEEN_AT_B if config.experiment == "g2" else OutcomeTag.NOT_SEEN
    hole_b = measurement.conditional_density(illumination, null_tag, geom)
    period = geom.fringe_period
    sample = stats.PositionSample(positions, geom, illumination, config.seed)
    chi2, n_bins = _chi2_against(positions, density, geom)
    summary = {
        "experiment": config.experiment,
        "n_electrons": config.n_electrons,
        "seed": config.seed,
        "visibility_analytic": visibility(density, (-period, period)),
        "visibility_sampled": stats.fringe_visibility_from_positions(
            sample, SAMPLED_VISIBILITY_HALF_PERIODS
        ),
        "chi2_bins": n_bins,
        "chi2_statistic": chi2.statistic,
        "chi2_dof": chi2.dof,
        "chi2_p_value": chi2.p_value,
    }
    for idx, tag in enumerate(order):
        mask = outcome_index == idx
        summary[f"frac_{tag.value}"] = float(mask.mean())
        if probs[tag] > 0 and mask.any():
            conditional = measurement.conditional_density(illumination, tag, geom)
            branch_chi2, _ = _chi2_against(positions[mask], conditional, geom)
            summary[f"chi2_p_value_{tag.value}"] = branch_chi2.p_value
    tables = [
        ("density.csv",
         ["x_m", "analytic_density_per_m", "hole_a_component_per_m", "hole_b_component_per_m"],
         [density.x, density.values,
          probs[OutcomeTag.SEEN_AT_A] * hole_a.values,
          probs[null_tag] * hole_b.values]),
        ("samples.csv", ["x_m", "outcome"],
         [positions, _Labels(tuple(tag.value for tag in order), outcome_index)]),
    ]
    return summary, tables


def _run_shelving(config: RunConfig) -> tuple[dict, list[_Table]]:
    rates = shelving.default_rates()
    threshold = shelving.default_dark_threshold(rates)
    rng = np.random.default_rng(config.seed)
    traj = shelving.simulate_trajectory(rates, config.total_time, rng)
    record = shelving.emit_photons(traj, rates, rng)
    inferred = shelving.detect_jumps(record, threshold)
    score = shelving.score_detections(traj, inferred, threshold)

    bright = traj.durations(shelving.IonState.BRIGHT)
    dark = traj.durations(shelving.IonState.DARK)
    summary = {
        "experiment": config.experiment,
        "total_time_s": config.total_time,
        "seed": config.seed,
        "fluorescence_rate_per_s": rates.fluorescence_rate,
        "shelve_rate_per_s": rates.shelve_rate,
        "deshelve_rate_per_s": rates.deshelve_rate,
        "dark_threshold_s": threshold,
        "n_photons": int(record.arrival_times.size),
        "n_complete_bright": int(bright.size),
        "n_complete_dark": int(dark.size),
        "mean_bright_s": float(bright.mean()) if bright.size else None,
        "mean_dark_s": float(dark.mean()) if dark.size else None,
        "dark_fraction": traj.dark_fraction(),
        "detector_n_inferred": score.n_inferred,
        "detector_recall": score.recall,
        "detector_false_discovery_rate": score.false_discovery_rate,
        "detector_max_start_latency_s": score.max_start_latency,
    }
    if bright.size >= 10:
        ks = stats.ks_exponential(bright, rates.shelve_rate)
        summary["ks_p_value_bright"] = ks.p_value
    if dark.size >= 10:
        ks = stats.ks_exponential(dark, rates.deshelve_rate)
        summary["ks_p_value_dark"] = ks.p_value
    absolute = traj.absolute_intervals()
    tables = [
        ("trajectory.csv", ["state", "start_s", "duration_s"],
         [[s.value for s, _, _ in absolute],
          [t0 for _, t0, _ in absolute],
          [t1 - t0 for _, t0, t1 in absolute]]),
        ("photons.csv", ["arrival_time_s"], [record.arrival_times]),
    ]
    return summary, tables


def run(config: RunConfig) -> None:
    """Execute one experiment, then write all artifacts into the output directory.

    Every check and computation finishes before the directory is created,
    so a run that fails anywhere but in the writing leaves no directory.
    """
    if config.experiment in ("g1", "g3_early_off"):
        summary, tables = _run_interference(config)
    elif config.experiment in ("g2", "g3"):
        summary, tables = _run_which_path(config)
    elif config.experiment == "shelving":
        summary, tables = _run_shelving(config)
    else:
        raise ConfigError(f"unknown experiment {config.experiment!r}")

    echo = {
        "experiment": config.experiment,
        "seed": config.seed,
        "out": str(config.output_dir),
    }
    if config.experiment == "shelving":
        echo["total_time"] = config.total_time
        rates = shelving.default_rates()
        echo.update(
            fluorescence_rate=rates.fluorescence_rate,
            shelve_rate=rates.shelve_rate,
            deshelve_rate=rates.deshelve_rate,
            dark_threshold=shelving.default_dark_threshold(rates),
        )
    else:
        echo.update(
            n=config.n_electrons,
            wavelength=config.wavelength,
            hole_width=config.hole_width,
            separation=config.separation,
            distance=config.distance,
            grid_min=-0.2,
            grid_max=0.2,
            grid_points=8192,
        )

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for name, header, columns in tables:
        _write_csv(out / name, header, columns)
    _write_config_echo(out / "config_resolved.txt", echo)
    _write_summary(out / "summary.json", summary)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
        run(config)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (QuadratureConvergenceError, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"error: io failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
