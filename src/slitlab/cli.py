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
same configuration are byte-identical.  --out must be a new path or an
empty directory; a run writes into a staging directory beside it and
renames that into place only when every artifact is complete.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import measurement, shelving, stats
from .optics import QuadratureConvergenceError, SlitGeometry, default_geometry, visibility
from .measurement import OUTCOME_ORDER, Illumination, OutcomeTag

__all__ = ["ConfigError", "RunConfig", "main", "parse_args", "run"]

# The two-hole experiments and the illumination regime each runs under.
_ILLUMINATION = {
    "g1": Illumination.OFF,
    "g2": Illumination.BOTH_HOLES,
    "g3": Illumination.HOLE_A,
    "g3_early_off": Illumination.HOLE_A_EARLY_OFF,
}
TWO_HOLE_EXPERIMENTS = tuple(_ILLUMINATION)
EXPERIMENTS = TWO_HOLE_EXPERIMENTS + ("shelving",)

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# Visibility of the analytic density is read over the minimum legal window,
# in fringe periods per side; the windows of the sampled statistics are
# stats.VISIBILITY_HALF_PERIODS and stats.CHI2_HALF_PERIODS.
VISIBILITY_HALF_PERIODS = 1

# CSV rows are formatted and written this many at a time, so the writer's
# memory depends on the block, not on the length of the record.
CSV_BLOCK_ROWS = 65_536

# A table that reaches this many rows has its blocks formatted by a forked
# pool, one worker per usable CPU, with at most BLOCKS_PER_WORKER blocks per
# worker in flight; a shorter table would not repay the fork.
POOL_MIN_ROWS = CSV_BLOCK_ROWS
BLOCKS_PER_WORKER = 2

# Largest sampler footprint a two-hole run may ask for
# (measurement.sampler_footprint_bytes): 2 GiB, about 6.7e7 electrons.
MAX_SAMPLER_BYTES = 2 * 2**30

# Float parameters and the flags that set them; each must be finite and positive.
_FLOAT_FLAGS = {
    "total_time": "--total-time",
    "wavelength": "--wavelength",
    "hole_width": "--hole-width",
    "separation": "--separation",
    "distance": "--distance",
}


class ConfigError(ValueError):
    """Invalid command line, config file, or parameter combination."""


_DEFAULT_GEOMETRY = default_geometry()


@dataclass
class RunConfig:
    experiment: str
    output_dir: Path
    n_electrons: int = 100_000
    total_time: float = 30.0
    seed: int = 0
    wavelength: float = _DEFAULT_GEOMETRY.de_broglie_wavelength
    hole_width: float = _DEFAULT_GEOMETRY.hole_width_a
    separation: float = _DEFAULT_GEOMETRY.hole_separation
    distance: float = _DEFAULT_GEOMETRY.wall_to_backstop

    def geometry(self) -> SlitGeometry:
        """The default geometry with this run's wavelength, holes and distance."""
        return dataclasses.replace(
            _DEFAULT_GEOMETRY,
            hole_separation=self.separation,
            hole_width_a=self.hole_width,
            hole_width_b=self.hole_width,
            wall_to_backstop=self.distance,
            de_broglie_wavelength=self.wavelength,
        )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for numerics
        raise ConfigError(message)


def _build_parser() -> _Parser:
    # No prefixes: _attach_float_values knows only the full flag names.
    parser = _Parser(prog="slitlab", description=__doc__, add_help=True, allow_abbrev=False)
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


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_float_values(argv: list[str]) -> list[str]:
    """Join each float flag and a following value that starts with "-".

    argparse reads a token such as -1e-3 or -inf as an option, not as the
    flag's value; joined as ``--flag=value`` it reaches the checks below.
    """
    joined: list[str] = []
    for token in argv:
        if (joined and joined[-1] in _FLOAT_FLAGS.values()
                and token.startswith("-") and _is_float(token)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def parse_args(argv: list[str]) -> RunConfig:
    ns = _build_parser().parse_args(_attach_float_values(argv))
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
    out = Path(str(out))
    if out.name in ("", ".."):
        raise ConfigError(f"--out {out} does not end in a directory name")
    if out.exists() and not (out.is_dir() and next(out.iterdir(), None) is None):
        raise ConfigError(f"--out {out} exists and is not an empty directory")

    config = RunConfig(experiment=str(experiment), output_dir=out)
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
        if value <= 0:
            raise ConfigError(f"{flag} must be positive, got {value!r}")
    if config.n_electrons < 1:
        raise ConfigError("--n must be at least 1")
    if config.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {config.seed}")
    if config.experiment in TWO_HOLE_EXPERIMENTS:
        try:
            config.geometry()
        except ValueError as exc:
            raise ConfigError(f"bad geometry: {exc}") from exc
        footprint = measurement.sampler_footprint_bytes(config.n_electrons)
        if footprint > MAX_SAMPLER_BYTES:
            raise ConfigError(
                f"--n {config.n_electrons} needs about {footprint / 2**20:.0f} MiB to sample, "
                f"over the {MAX_SAMPLER_BYTES / 2**20:.0f} MiB cap"
            )
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

    def __getitem__(self, rows: slice) -> _Labels:
        return _Labels(self.names, self.codes[rows])


def _cells(column):
    """The text of one column's cells."""
    if isinstance(column, _Labels):
        return map(column.names.__getitem__, column.codes.tolist())
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        # tolist() yields Python floats: the same text as _fmt, without its dispatch
        return map(repr, column.tolist())
    return map(_fmt, column)


def _format_block(columns: list) -> str:
    """The CSV lines of one block of equal-length columns, each ending in a newline."""
    cells = [_cells(column) for column in columns]
    rows = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
    return "\n".join(rows) + "\n"


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _end_with_run(run_pid: int) -> None:
    """Worker initializer: have the kernel kill this worker when the run that
    forked it dies without shutting the pool down (a SIGKILL, the OOM
    killer), where it would otherwise wait for work forever.

    Best effort: where libc has no prctl, or it fails, the worker runs on.
    """
    import ctypes
    import signal

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG: the signal sent when the parent dies
    if os.getppid() != run_pid:  # the run died before the request took effect
        os._exit(1)


def _start_pool(workers: int):
    """A pool of ``workers`` processes forked from this one.

    Its modules are imported here, so a run that starts no pool never
    loads them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_end_with_run, initargs=(os.getpid(),))


class _TableWriter:
    """Writes one table's rows to ``fh`` in blocks, in row order.

    Blocks are formatted in this process until the table reaches
    POOL_MIN_ROWS rows.  From then on, if more than one CPU is usable, a
    forked pool formats them: each block goes to it as column slices,
    at most BLOCKS_PER_WORKER blocks per worker are in flight, and each
    block is written as soon as it is next in order.  Only the text of
    final arrays crosses into a worker, so the bytes do not depend on the
    path.  The pool belongs to this writer, which shuts it down on exit;
    a worker that dies is raised as an OSError.
    """

    def __init__(self, fh, name: str):
        self._fh = fh
        self._name = name
        self._workers = _usable_cpus()
        self._rows = 0
        self._pool = None
        self._in_flight: deque = deque()

    def __enter__(self) -> _TableWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._pool is None:
            return
        from concurrent.futures.process import BrokenProcessPool

        self._pool.shutdown(wait=True, cancel_futures=True)
        if isinstance(exc, BrokenProcessPool):
            raise OSError(f"{self._name}: a formatting worker died") from exc

    def write(self, columns: list) -> int:
        """Write one chunk of equal-length columns; return its row count."""
        n_rows = len(columns[0])
        if any(len(column) != n_rows for column in columns):
            raise ValueError(f"{self._name}: columns differ in length")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n_rows)
            block = [column[start:stop] for column in columns]
            self._rows += stop - start
            if self._pool is None and self._workers > 1 and self._rows >= POOL_MIN_ROWS:
                self._pool = _start_pool(self._workers)
            if self._pool is None:
                self._fh.write(_format_block(block))
                continue
            while len(self._in_flight) >= BLOCKS_PER_WORKER * self._workers:
                self._write_next()
            self._in_flight.append(self._pool.submit(_format_block, block))
            while self._in_flight and self._in_flight[0].done():
                self._write_next()
        return n_rows

    def finish(self) -> None:
        """Write every block still in flight."""
        while self._in_flight:
            self._write_next()

    def _write_next(self) -> None:
        self._fh.write(self._in_flight.popleft().result())


def _write_csv(path: Path, header: list[str], chunks: Iterable[list]) -> int:
    """Write a table under a header and return its row count.

    The rows arrive as consecutive chunks, each a list of equal-length
    columns: a table held in memory is one chunk, a stream is read a chunk
    at a time.  The bytes written do not depend on where the chunks end,
    nor on whether a pool formats them (see _TableWriter).
    """
    with open(path, "w", encoding="utf-8", newline="") as fh, \
            _TableWriter(fh, path.name) as table:
        fh.write(",".join(header) + "\n")
        # map binds no chunk, so none is held while the next one is drawn.
        n_rows = sum(map(table.write, chunks))
        table.finish()
    return n_rows


def _write_summary(path: Path, summary: dict) -> None:
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", newline="")


def _write_config_echo(path: Path, entries: dict) -> None:
    lines = [f"{key}={_fmt(entries[key])}" for key in sorted(entries)]
    path.write_text("\n".join(lines) + "\n", newline="")


def _run_two_hole(config: RunConfig, out: Path) -> tuple[dict, dict]:
    """g1, g2, g3 and g3_early_off: a sighting outcome per electron, then its position.

    The outcome is informative unless every electron goes unseen (g1,
    g3_early_off).  Only an informative outcome adds the outcome column,
    the per-outcome chi-square p-values and, for each outcome that can
    occur, a density column of its probability times its branch density:
    hole A's branch, then hole B's (reached by a sighting in g2, by a null
    observation in g3).  Chi-square fields are null when too few arrivals
    fall in the window for the test, and the sampled visibility is null
    when none falls in its window.
    """
    geom = config.geometry()
    illumination = _ILLUMINATION[config.experiment]
    density = measurement.ensemble_density(illumination, geom)
    probs = measurement.outcome_probabilities(illumination, geom)
    informative = probs[OutcomeTag.NOT_SEEN] < 1.0
    rng = np.random.default_rng(config.seed)
    outcome_index, positions = measurement.sample_arrivals(
        illumination, geom, config.n_electrons, rng
    )

    period = geom.fringe_period
    sample = stats.PositionSample(positions, geom)
    window_arrivals = stats.visibility_window(sample).size
    visibility_sampled = (
        stats.fringe_visibility_from_positions(sample) if window_arrivals else None
    )
    chi2, n_bins = stats.windowed_chi2(positions, density)
    summary = {
        "experiment": config.experiment,
        "n_electrons": config.n_electrons,
        "seed": config.seed,
        "visibility_analytic": visibility(density, (-period, period)),
        "visibility_sampled": visibility_sampled,
        "visibility_window_arrivals": window_arrivals,
        "visibility_noise_floor": 2 / math.sqrt(window_arrivals) if window_arrivals else None,
        "chi2_bins": n_bins,
    }
    for field in ("statistic", "dof", "p_value"):
        summary[f"chi2_{field}"] = None if chi2 is None else getattr(chi2, field)
    density_columns = [density.x, density.values]
    density_header = ["x_m", "analytic_density_per_m"]
    for idx, tag in enumerate(OUTCOME_ORDER):
        mask = outcome_index == idx
        summary[f"frac_{tag.value}"] = float(mask.mean())
        if informative and probs[tag] > 0:
            conditional = measurement.conditional_density(illumination, tag, geom)
            branch_chi2, _ = stats.windowed_chi2(positions[mask], conditional)
            summary[f"chi2_p_value_{tag.value}"] = (
                None if branch_chi2 is None else branch_chi2.p_value
            )
            density_columns.append(probs[tag] * conditional.values)

    sample_columns = [positions]
    sample_header = ["x_m"]
    if informative:
        density_header += ["hole_a_component_per_m", "hole_b_component_per_m"]
        sample_columns.append(_Labels(tuple(tag.value for tag in OUTCOME_ORDER), outcome_index))
        sample_header.append("outcome")
    # Only the tables keep n-sized arrays alive while they are written.
    del mask, outcome_index
    _write_csv(out / "density.csv", density_header, [density_columns])
    _write_csv(out / "samples.csv", sample_header, [sample_columns])
    echo = {
        "n": config.n_electrons,
        "wavelength": config.wavelength,
        "hole_width": config.hole_width,
        "separation": config.separation,
        "distance": config.distance,
        "grid_min": geom.grid_min,
        "grid_max": geom.grid_max,
        "grid_points": geom.grid_points,
    }
    return summary, echo


def _run_shelving(config: RunConfig, out: Path) -> tuple[dict, dict]:
    """The photon record is drawn once, dwell by dwell, and each dwell goes
    to photons.csv and to the jump detector in the same pass.  Memory is
    bounded by the longest bright dwell, not by the length of the record."""
    rates = shelving.default_rates()
    threshold = shelving.default_dark_threshold(rates)
    rng = np.random.default_rng(config.seed)
    traj = shelving.simulate_trajectory(rates, config.total_time, rng)
    absolute = traj.absolute_intervals()
    _write_csv(out / "trajectory.csv", ["state", "start_s", "duration_s"],
               [[[s.value for s, _, _ in absolute],
                 [t0 for _, t0, _ in absolute],
                 [t1 - t0 for _, t0, t1 in absolute]]])

    detector = shelving.JumpDetector(traj.total_time, threshold)

    def detected(chunk: np.ndarray) -> list:
        detector.feed(chunk)
        return [chunk]

    n_photons = _write_csv(out / "photons.csv", ["arrival_time_s"],
                           map(detected, shelving.photon_chunks(traj, rates, rng)))
    score = shelving.score_detections(traj, detector.finish(), threshold)

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
        "n_photons": n_photons,
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
    echo = {
        "total_time": config.total_time,
        "fluorescence_rate": rates.fluorescence_rate,
        "shelve_rate": rates.shelve_rate,
        "deshelve_rate": rates.deshelve_rate,
        "dark_threshold": threshold,
    }
    return summary, echo


def _make_missing_dirs(directory: Path, made: list[Path]) -> None:
    """Create ``directory`` and its missing parents, adding each one this
    call creates to the front of ``made``, so that it lists them deepest first."""
    missing = itertools.takewhile(lambda path: not path.exists(), [directory, *directory.parents])
    for path in reversed(list(missing)):
        try:
            path.mkdir()
        except FileExistsError:  # made meanwhile by another run, so not ours to remove
            if not path.is_dir():
                raise
        else:
            made.insert(0, path)


def run(config: RunConfig) -> None:
    """Execute one experiment and write its artifacts to ``config.output_dir``.

    The runner writes into a fresh staging directory beside the output
    directory, with numpy's invalid, divide-by-zero and overflow warnings
    raised as errors.  Only a complete run is renamed into place (over an
    empty output directory, if one exists); a run that fails anywhere,
    writing included, removes the staging directory and the missing
    parents of the output directory that it made, and leaves no output.
    """
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    runner = _run_shelving if config.experiment == "shelving" else _run_two_hole
    out = config.output_dir
    made: list[Path] = []
    staging = None
    try:
        _make_missing_dirs(out.parent, made)
        staging = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            summary, echo = runner(config, staging)
        echo.update(experiment=config.experiment, seed=config.seed, out=str(out))
        _write_config_echo(staging / "config_resolved.txt", echo)
        _write_summary(staging / "summary.json", summary)
        # mkdtemp makes the directory private; give it mkdir's mode instead.
        umask = os.umask(0)
        os.umask(umask)
        staging.chmod(0o777 & ~umask)
        os.replace(staging, out)
    except BaseException:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        for directory in made:
            try:
                directory.rmdir()
            except OSError:  # no longer empty, and so neither is any parent
                break
        raise


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
        run(config)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (QuadratureConvergenceError, ArithmeticError, ValueError) as exc:
        # parse_args has accepted the whole config, so a bad value met
        # after it is a numerical failure, not a config error.
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: io failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
