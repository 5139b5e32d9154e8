"""Batch runner: execute one experiment and write its artifacts to a directory.

Experiments
    g1            no light at the wall - interference pattern
    g2            light at both holes - which-path, fringes destroyed
    g3            light at hole A only, full observation window
    g3_early_off  light at hole A cut before the window completes
    shelving      telegraph fluorescence of a single ion + jump detector

Each run writes CSV data (density.csv and samples.csv, or trajectory.csv
and photons.csv), a flat summary.json of metrics, and config_resolved.txt,
a config file of the experiment, --out and every parameter, the seed
included.  Reruns with the same configuration are byte-identical, and
"slitlab --config RUN/config_resolved.txt --out NEW" replays RUN.  --out
must be a new path or an empty directory; a run writes into a staging
directory beside it and renames that into place only when every artifact
is complete.  A run that fails, or is stopped by Ctrl-C or SIGTERM (exit
status 143), removes its staging directory and leaves no --out behind.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import errno
import functools
import gc
import itertools
import json
import math
import os
import resource
import shutil
import signal
import sys
import tempfile
import threading
from collections.abc import Callable, Iterable
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

# A run's grid must resolve each fringe period in at least this many points:
# a density interpolated linearly between grid points damps the first fringe
# harmonic by about sinc^2(pi/k) at k points a period, 0.987 here.  Only runs
# are held to it; SlitGeometry admits the coarse grids that tests of the
# numerics build.
MIN_POINTS_PER_FRINGE = 16


class ConfigError(ValueError):
    """Invalid command line, config file, or parameter combination."""


_DEFAULT_GEOMETRY = default_geometry()


def _finite_positive(value: float) -> str | None:
    if not math.isfinite(value):
        return f"must be finite, got {value!r}"
    return None if value > 0 else f"must be positive, got {value!r}"


def _at_least_one(value: int) -> str | None:
    return None if value >= 1 else "must be at least 1"


def _non_negative(value: int) -> str | None:
    return None if value >= 0 else f"must be non-negative, got {value}"


def _parse_int(token: str) -> int:
    """An int from its text, or from a float's text that is a whole number
    exactly (1e6, 1000000.0); any other text is a ValueError."""
    try:
        return int(token)
    except ValueError:
        value = float(token)
        from decimal import Decimal  # here, not at module level: only float spellings need it
        if not value.is_integer() or Decimal(token) != value:  # a float reads 1e16+1 as 1e16
            raise
        return int(value)


_parse_int.__name__ = "int"  # argparse names the type so: "invalid int value"


def _param(default, flag: str, check: Callable[..., str | None], help: str):
    """A run parameter: a RunConfig field set by ``flag`` or by its config key.

    Its type is its default's, and its text is read by that type (by
    _parse_int for an int).  ``check`` returns what is wrong with a value,
    or None when the value is acceptable.
    """
    kind = type(default)
    metadata = {"flag": flag, "type": kind, "parse": _parse_int if kind is int else kind,
                "check": check, "help": help}
    return dataclasses.field(default=default, metadata=metadata)


@dataclass(frozen=True)
class RunConfig:
    """One run's inputs.  Built by parse_args or by a caller, it checks every
    field first and raises ConfigError naming the first fault, so run()
    starts no work on a config that the command line would reject."""

    experiment: str
    output_dir: Path
    n_electrons: int = _param(100_000, "--n", _at_least_one, "number of electrons")
    total_time: float = _param(30.0, "--total-time", _finite_positive,
                               "shelving observation time (s)")
    seed: int = _param(0, "--seed", _non_negative, "random seed (default 0)")
    wavelength: float = _param(_DEFAULT_GEOMETRY.de_broglie_wavelength, "--wavelength",
                               _finite_positive, "de Broglie wavelength (m)")
    hole_width: float = _param(_DEFAULT_GEOMETRY.hole_width_a, "--hole-width",
                               _finite_positive, "width of each hole (m)")
    separation: float = _param(_DEFAULT_GEOMETRY.hole_separation, "--separation",
                               _finite_positive, "hole center-to-center separation (m)")
    distance: float = _param(_DEFAULT_GEOMETRY.wall_to_backstop, "--distance",
                             _finite_positive, "wall-to-backstop distance (m)")

    def __post_init__(self):
        if not self.experiment:
            raise ConfigError("no experiment given (positional, --experiment, or config file)")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        out = self.output_dir
        if out is None:
            raise ConfigError("no output directory given (--out or config file)")
        if not isinstance(out, Path):
            raise ConfigError(f"argument --out: invalid Path value: '{out}'")
        if out.name in ("", ".."):
            raise ConfigError(f"--out {out} does not end in a directory name")
        if "\0" in str(out):
            raise ConfigError(f"--out {str(out)!r} holds a NUL byte")
        if str(out).splitlines() != [str(out)]:  # its echo would not read back as one line
            raise ConfigError(f"--out {str(out)!r} holds a line break")
        if str(out) != str(out).strip():  # the config reader strips it from the echo
            raise ConfigError(f"--out {str(out)!r} starts or ends with whitespace")
        try:
            # A lookup finds a name too long only under an existing parent,
            # so each name is measured against the file system of out's
            # nearest existing ancestor.
            anchor = _nearest_existing(out)
            name_max = os.pathconf(anchor, "PC_NAME_MAX")
            longest = max(len(os.fsencode(part)) for part in out.parts)
            if longest > name_max:
                raise ConfigError(f"--out has a name of {longest} bytes, "
                                  f"more than the {name_max} that the file system holds")
            occupied = out.exists() and not (out.is_dir() and next(out.iterdir(), None) is None)
            # The longest path a run writes: its config echo in the staging directory.
            deepest = len(os.fsencode(os.path.join(os.path.abspath(out.parent), _staging_prefix(
                out.name, name_max) + "X" * 8, "config_resolved.txt")))
            path_max = os.pathconf(anchor, "PC_PATH_MAX")
            if deepest >= path_max:
                raise ConfigError(f"--out is too long to stage: a run writes a path of {deepest} "
                                  f"bytes, more than the {path_max - 1} that the system holds")
        except OSError as exc:
            if exc.errno != errno.ENAMETOOLONG:
                raise
            raise ConfigError(f"--out is a path of {len(os.fsencode(out))} bytes: "
                              f"{exc.strerror}") from exc
        if occupied:
            raise ConfigError(f"--out {out} exists and is not an empty directory")
        for param in _PARAMS.values():
            flag, kind = param.metadata["flag"], param.metadata["type"]
            value = getattr(self, param.name)
            if type(value) is not kind:  # as argparse words it; a bool is no int here
                raise ConfigError(f"argument {flag}: invalid {kind.__name__} value: '{value}'")
            problem = param.metadata["check"](value)
            if problem is not None:
                raise ConfigError(f"{flag} {problem}")
        spacing = 1 / shelving.default_rates().fluorescence_rate  # between photons, on average
        if self.experiment == "shelving" and math.ulp(self.total_time) >= spacing:
            raise ConfigError(f"--total-time {self.total_time!r} is too long for float64 to keep "
                              f"photon times {spacing!r} s apart at the record's end")
        if self.experiment in TWO_HOLE_EXPERIMENTS:
            try:
                self.geometry()
            except ValueError as exc:
                raise ConfigError(f"bad geometry: {exc}") from exc

    def geometry(self) -> SlitGeometry:
        """The default geometry with this run's wavelength, holes and
        distance; its grid must resolve the fringes."""
        geom = dataclasses.replace(
            _DEFAULT_GEOMETRY,
            hole_separation=self.separation,
            hole_width_a=self.hole_width,
            hole_width_b=self.hole_width,
            wall_to_backstop=self.distance,
            de_broglie_wavelength=self.wavelength,
        )
        per_fringe = geom.fringe_period * (geom.grid_points - 1) / (geom.grid_max - geom.grid_min)
        if per_fringe < MIN_POINTS_PER_FRINGE:
            raise ValueError(f"grid has {per_fringe:.4g} points per fringe period, "
                             f"fewer than the {MIN_POINTS_PER_FRINGE} that resolve the fringes")
        return geom


# The run parameters by config key: the flag without its dashes, "_" for "-".
_PARAMS = {param.metadata["flag"][2:].replace("-", "_"): param
           for param in dataclasses.fields(RunConfig) if "flag" in param.metadata}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for numerics
        raise ConfigError(message)


def _build_parser() -> _Parser:
    # No prefixes: _attach_float_values knows only the full flag names.
    parser = _Parser(prog="slitlab", description=__doc__, add_help=True, allow_abbrev=False,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment_pos", nargs="?", metavar="EXPERIMENT",
                        help="one of: " + ", ".join(EXPERIMENTS))
    parser.add_argument("--experiment", help="experiment to run (alternative to the positional)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--config", help="key=value config file; flags win on conflict")
    for param in _PARAMS.values():
        parser.add_argument(param.metadata["flag"], type=param.metadata["parse"], dest=param.name,
                            help=param.metadata["help"])
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    first_lines: dict[str, int] = {}
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: a byte not UTF-8, or a NUL in the path
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_lines:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} given again "
                              f"(first at line {first_lines[key]})")
        first_lines[key] = lineno
        entries[key] = value.strip()
    return entries


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_float_values(argv: list[str]) -> list[str]:
    """Join each parameter flag and a following value that starts with "-"
    and reads as a float.

    argparse reads a token such as -1e-3, -1e6 or -inf as an option, not as
    the flag's value; joined as ``--flag=value`` it reaches the checks below.
    """
    flags = {param.metadata["flag"] for param in _PARAMS.values()}
    joined: list[str] = []
    for token in argv:
        if (joined and joined[-1] in flags
                and token.startswith("-") and _is_float(token)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def parse_args(argv: list[str]) -> RunConfig:
    """A run's values, flags over config file over defaults; RunConfig checks them."""
    ns = _build_parser().parse_args(_attach_float_values(argv))
    file_types = {"experiment": str, "out": str}
    file_types.update((key, param.metadata["parse"]) for key, param in _PARAMS.items())
    file_values: dict[str, object] = {}
    if ns.config:
        for key, raw in _read_config_file(ns.config).items():
            if key not in file_types:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                file_values[key] = file_types[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc

    if ns.experiment_pos and ns.experiment and ns.experiment_pos != ns.experiment:
        raise ConfigError("conflicting positional and --experiment values")
    out = ns.out or file_values.get("out")
    values = {param.name: file_values.get(key, param.default) if getattr(ns, param.name) is None
              else getattr(ns, param.name) for key, param in _PARAMS.items()}
    return RunConfig(experiment=ns.experiment or ns.experiment_pos or file_values.get("experiment"),
                     output_dir=Path(out) if out else None, **values)


# _write_labelled writes a block's text this many bytes at a time, so that
# the copies a piece's labels make are small beside the text.
_LABEL_PIECE_BYTES = 1 << 16

# Floats in [1e-4, 1e16) in magnitude, where orjson writes repr's text.
# Outside it the two differ in layout (orjson's 0.000015, 1e16 and null
# for repr's 1.5e-05, 1e+16 and nan), so rows with such a cell take repr.
_ORJSON_FLOATS = (1e-4, 1e16)


def _float_rows(columns: list) -> bytes:
    """repr's text of each row of a block of equal-length float64 columns:
    its cells joined by commas, each row followed by a newline.

    The columns are stacked into one 2-D block (a lone column is viewed,
    where column_stack would copy it), and each run of rows whose every
    cell lies inside _ORJSON_FLOATS is one orjson call.  A lone column's
    "[x,y]" becomes "x\ny\n"; several columns' "[[x,y],[z,w]]" becomes
    "x,y\nz,w\n" (dumping a lone column as 2-D takes about five times as
    long).  Every other row takes repr.
    """
    import orjson  # here, not at module level: only runs that write CSV need it

    table = columns[0][:, np.newaxis] if len(columns) == 1 else np.column_stack(columns)
    magnitude = np.abs(table)
    low, high = _ORJSON_FLOATS
    ordinary = ((magnitude >= low) & (magnitude < high)).all(axis=1)  # NaN compares False
    del magnitude
    bounds = [0, *(np.flatnonzero(ordinary[1:] != ordinary[:-1]) + 1).tolist(), len(table)]
    pieces = []
    for start, stop in zip(bounds, bounds[1:]):
        run = table[start:stop]
        if not ordinary[start]:
            pieces.append("".join(",".join(map(repr, row)) + "\n" for row in run.tolist()).encode())
        elif len(columns) == 1:
            text = orjson.dumps(run.ravel(), option=orjson.OPT_SERIALIZE_NUMPY).replace(b",", b"\n")
            pieces += [memoryview(text)[1:-1], b"\n"]
        else:
            text = orjson.dumps(run, option=orjson.OPT_SERIALIZE_NUMPY).replace(b"],[", b"\n")
            pieces += [memoryview(text)[2:-2], b"\n"]
    return b"".join(pieces)


def _write_labelled(fh, text: bytearray, row_ends: list[bytes], codes: np.ndarray) -> None:
    """Write the CSV lines ``text``, its i-th newline replaced by
    ``row_ends[codes[i]]``, or kept where that code is 10 (the newline's own).

    Each newline is set to its code, so there are at most 10 row ends, and
    no byte of the lines or of a row end may be below their count, as CSV
    text's never are.  The text is then written _LABEL_PIECE_BYTES at a
    time, each code that occurs in the block replaced by its row end; a
    code is one byte, so a piece may end anywhere in a row.
    """
    marks = np.frombuffer(text, np.uint8)
    marks[marks == ord("\n")] = codes
    present = [(bytes([code]), row_ends[code])
               for code in np.flatnonzero(np.bincount(codes)[:len(row_ends)])]
    for start in range(0, len(text), _LABEL_PIECE_BYTES):
        piece = text[start:start + _LABEL_PIECE_BYTES]
        for code, row_end in present:
            piece = piece.replace(code, row_end)
        fh.write(piece)


def _write_chunk(fh, label_names: tuple[str, ...], columns: list) -> int:
    """Write one chunk of equal-length columns, measurement.CSV_BLOCK_ROWS
    rows at a time; return its row count.  Given ``label_names``, the end
    column that is not float64 holds each row's code into them.  Leading
    (trajectory.csv's state), each newline is set to the next row's code,
    to become ``\nname,``, and a block's first name goes before its text;
    trailing (samples.csv's outcome), to its own row's, to become ``,name\n``."""
    n_rows = len(columns[0])
    if any(len(column) != n_rows for column in columns):
        raise ValueError(f"{Path(fh.name).name}: columns differ in length")
    leading = columns[0].dtype != np.float64
    row_ends = [(f"\n{name}," if leading else f",{name}\n").encode() for name in label_names]
    block = measurement.CSV_BLOCK_ROWS
    for start in range(0, n_rows, block):
        rows = [column[start:start + block] for column in columns]
        if not label_names:
            fh.write(_float_rows(rows))
        elif leading:
            fh.write(row_ends[rows[0][0]][1:])
            _write_labelled(fh, bytearray(_float_rows(rows[1:])), row_ends,
                            np.append(rows[0][1:], ord("\n")))
        else:
            _write_labelled(fh, bytearray(_float_rows(rows[:-1])), row_ends, rows[-1])
    return n_rows


def _write_csv(path: Path, header: list[str], chunks: Iterable[list],
               label_names: tuple[str, ...] = ()) -> int:
    """Write a table under a header and return its row count.

    The rows arrive as consecutive chunks, each a list of equal-length
    numpy columns: a table held in memory is one chunk, a stream is read a
    chunk at a time.  Every column is float64 but, in a labelled table
    (``label_names`` given), its first or its last: a column of integer
    codes, each written as ``label_names[code]``.  Each block of
    measurement.CSV_BLOCK_ROWS rows is formatted and written in turn, so
    the bytes written do not depend on where the chunks end.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        # map binds no chunk, so none is held while the next one is drawn.
        return sum(map(functools.partial(_write_chunk, fh, label_names), chunks))


def _write_summary(path: Path, summary: dict) -> None:
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", newline="")


def _write_config_echo(path: Path, config: RunConfig) -> None:
    """Write ``config`` as a config file: a sorted ``key=value`` line for
    the experiment, --out and each parameter, with ``str`` of its value
    (a float's text reads back exactly), so that --config replays it."""
    entries = {"experiment": config.experiment, "out": config.output_dir}
    entries.update((key, getattr(config, param.name)) for key, param in _PARAMS.items())
    path.write_text("".join(f"{key}={entries[key]}\n" for key in sorted(entries)), newline="")


def _run_two_hole(config: RunConfig, out: Path) -> dict:
    """g1, g2, g3 and g3_early_off: a sighting outcome per electron, then its position.

    Each block of electrons goes to samples.csv and to the statistics in
    one pass.  The outcome is informative unless every electron goes unseen
    (g1, g3_early_off); only then does a run add the outcome column, the
    per-outcome chi-square p-values and, for each possible outcome, a
    density column of its probability times its branch density (hole A's,
    then hole B's, reached by a sighting in g2 and by a null observation in
    g3).  Chi-square fields are null when too few arrivals fall in the
    window for the test, and the sampled visibility and its p-value when
    none falls in its.
    """
    geom = config.geometry()
    illumination = _ILLUMINATION[config.experiment]
    density = measurement.ensemble_density(illumination, geom)
    probs = measurement.outcome_probabilities(illumination, geom)
    informative = probs[OutcomeTag.NOT_SEEN] < 1.0
    branches = {tag: measurement.conditional_density(illumination, tag, geom)
                for tag in OUTCOME_ORDER if informative and probs[tag] > 0}
    density_header = ["x_m", "analytic_density_per_m"]
    if informative:
        density_header += ["hole_a_component_per_m", "hole_b_component_per_m"]
    _write_csv(out / "density.csv", density_header, [[density.x, density.values] + [
        probs[tag] * branch.values for tag, branch in branches.items()]])

    chi2 = stats.WindowedChi2(density, len(OUTCOME_ORDER))
    fringes = stats.FringeVisibility(geom)
    outcome_counts = np.zeros(len(OUTCOME_ORDER), dtype=np.int64)
    label_names = tuple(tag.value for tag in OUTCOME_ORDER) if informative else ()

    def measured(block: tuple[np.ndarray, np.ndarray]) -> list:
        outcome_index, positions = block
        chi2.feed(positions, outcome_index)
        fringes.feed(positions)
        outcome_counts[:] += np.bincount(outcome_index, minlength=len(OUTCOME_ORDER))
        return [positions, outcome_index] if informative else [positions]

    rng = np.random.default_rng(config.seed)
    blocks = measurement.arrival_blocks(illumination, geom, config.n_electrons, rng)
    _write_csv(out / "samples.csv", ["x_m", "outcome"] if informative else ["x_m"],
               map(measured, blocks), label_names)

    fit, n_bins = chi2.finish()
    summary = {
        "experiment": config.experiment,
        "n_electrons": config.n_electrons,
        "seed": config.seed,
        "visibility_analytic": visibility(density, (-geom.fringe_period, geom.fringe_period)),
        "visibility_sampled": fringes.finish() if fringes.arrivals else None,
        "visibility_window_arrivals": fringes.arrivals,
        "visibility_noise_floor": 2 / math.sqrt(fringes.arrivals) if fringes.arrivals else None,
        "visibility_p_no_fringes": fringes.p_no_fringes() if fringes.arrivals else None,
        "chi2_bins": n_bins,
    }
    for field in ("statistic", "dof", "p_value"):
        summary[f"chi2_{field}"] = None if fit is None else getattr(fit, field)
    for idx, tag in enumerate(OUTCOME_ORDER):
        summary[f"frac_{tag.value}"] = int(outcome_counts[idx]) / config.n_electrons
        if tag in branches:
            fit, _ = chi2.finish(branches[tag], idx)
            summary[f"chi2_p_value_{tag.value}"] = None if fit is None else fit.p_value
    return summary


def _run_shelving(config: RunConfig, out: Path) -> dict:
    """The photon record is drawn once, dwell by dwell, and each dwell goes
    to photons.csv and to the jump detector in the same pass.  Memory is set
    by the longest bright dwell, by the trajectory (8 B a dwell, and about
    28 B a dwell while trajectory.csv is written) and by the detections,
    16 B each (two arrays of them while the detector's is copied for the
    scorer)."""
    rates = shelving.default_rates()
    threshold = shelving.default_dark_threshold(rates)
    rng = np.random.default_rng(config.seed)
    traj = shelving.simulate_trajectory(rates, config.total_time, rng)
    starts, ends = traj.bounds()
    first = traj.first_state
    names = (first.value, *(state.value for state in shelving.IonState if state is not first))
    states = np.zeros(starts.size, np.uint8)  # codes into names, alternating from the first
    states[1::2] = 1
    _write_csv(out / "trajectory.csv", ["state", "start_s", "duration_s"],
               [[states, starts, ends - starts]], names)
    del states, starts, ends  # not held while the photons stream

    detector = shelving.JumpDetector(traj.total_time, threshold)

    def detected(chunk: np.ndarray) -> list:
        # A block at a time, so that the detector's temporaries are set by
        # the block, not by the dwell; it infers the same silences.
        block = measurement.CSV_BLOCK_ROWS
        for start in range(0, chunk.size, block):
            detector.feed(chunk[start:start + block])
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
    return summary


# About the bytes of repr text a run writes per electron to samples.csv
# (21 in g1, 31 with the outcome label), per photon to photons.csv and per
# dwell to trajectory.csv.
_BYTES_PER_ELECTRON = 21
_BYTES_PER_PHOTON = 18
_BYTES_PER_DWELL = 40

# A run is refused for want of room only when its files would not fit at a
# tenth of their expected size, so that no run that fits is refused.
_ROOM_FRACTION = 0.1


def _nearest_existing(path: Path) -> Path:
    """``path``'s nearest existing ancestor, whose file system it would be on."""
    return next(parent for parent in path.parents if parent.exists())


def _check_room(config: RunConfig) -> None:
    """Raise ConfigError, before any work, when a tenth of the bytes that
    the run's large files are expected to take exceeds the free space
    under --out, or a tenth of the largest one the file size limit."""
    if config.experiment in TWO_HOLE_EXPERIMENTS:
        expected = {"samples.csv": _BYTES_PER_ELECTRON * config.n_electrons}
    else:
        rates = shelving.default_rates()
        photons = rates.fluorescence_rate * config.total_time * (1 - rates.stationary_dark_fraction)
        mean_dwell = (1 / rates.shelve_rate + 1 / rates.deshelve_rate) / 2
        expected = {"photons.csv": _BYTES_PER_PHOTON * photons,
                    "trajectory.csv": _BYTES_PER_DWELL * config.total_time / mean_dwell}
    anchor = _nearest_existing(config.output_dir)
    fs = os.statvfs(anchor)
    free = fs.f_bavail * fs.f_frsize
    total = sum(expected.values())
    if _ROOM_FRACTION * total > free:
        raise ConfigError(f"the run would write about {total:.3g} bytes, and a tenth of that "
                          f"is more than the {free} bytes free under {anchor}")
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)[0]
    name = max(expected, key=expected.get)
    if limit != resource.RLIM_INFINITY and _ROOM_FRACTION * expected[name] > limit:
        raise ConfigError(f"{name} would take about {expected[name]:.3g} bytes, and a tenth of "
                          f"that is more than the file size limit of {limit} bytes")


def _staging_prefix(name: str, name_max: int) -> str:
    """mkdtemp's prefix ".name." for a staging directory beside ``name``, cut
    so that the staging name, 8 characters longer, fits where the name does."""
    return f".{os.fsdecode(os.fsencode(name)[:name_max - 10])}."


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
    A run whose files would not fit is refused first (see _check_room).
    """
    _check_room(config)
    runner = _run_shelving if config.experiment == "shelving" else _run_two_hole
    out = config.output_dir
    made: list[Path] = []
    staging = None
    try:
        _make_missing_dirs(out.parent, made)
        prefix = _staging_prefix(out.name, os.pathconf(out.parent, "PC_NAME_MAX"))
        staging = Path(tempfile.mkdtemp(prefix=prefix, dir=out.parent))
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            summary = runner(config, staging)
        _write_config_echo(staging / "config_resolved.txt", config)
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


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Have the interpreter skip the objects alive at exit when it tears down.

    numpy and scipy.special leave about 40,000 tracked objects after their
    import.  From main's return to the end of a g3 --n 500000 process took
    about 106 ms with them freed at shutdown and 20 ms with the heap frozen
    by an exit hook (medians of 11, 2-vCPU Xeon, Python 3.11.7).
    Exit hooks run before the module teardown and the final collections,
    and the other hooks still run.  Registered by main, once per process,
    so that importing this module leaves the importer's teardown as it was;
    a run triggers no full collection, so freezing earlier would gain
    nothing and would keep an in-process caller's cycles from being freed.
    """
    atexit.register(gc.freeze)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    _freeze_heap_at_exit()
    argv = sys.argv[1:] if argv is None else argv
    # While a run is on, SIGTERM unwinds it as Ctrl-C does, so that run()
    # removes its staging directory; the caller's handler is put back after.
    # An ignored SIGTERM stays ignored, and one handled outside Python
    # (getsignal gives None) is left alone.
    previous = signal.getsignal(signal.SIGTERM)
    unwind = (threading.current_thread() is threading.main_thread()
              and previous not in (None, signal.SIG_IGN))
    if unwind:
        signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        config = parse_args(argv)
        run(config)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (QuadratureConvergenceError, ArithmeticError, ValueError) as exc:
        # RunConfig has accepted the whole config, so a bad value met
        # after it is a numerical failure, not a config error.
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: io failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_IO
    finally:
        if unwind:
            signal.signal(signal.SIGTERM, previous)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
