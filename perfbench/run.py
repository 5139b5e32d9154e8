"""slitlab benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
``src/slitlab`` of that checkout.  Load model: a closed loop with a
single client.  Each ``slitlab`` invocation runs in its own fresh
interpreter, the next one starting only after the previous one exited,
so there is never more than one benchmark process running beside this
one and no threads beyond the BLAS pools of numpy and scipy.

One *unit* is one pass over a workload's invocations.  Units repeat, at
the same seed, until the next one would end after ``--seconds``; every
artifact is checked and hashed after each invocation, and must hash the
same in every unit.  With ``--trace 0`` the last line of output holds the
end-to-end metrics; with ``--trace 1`` traced and untraced units
alternate and it holds the per-layer metrics, taken from the traced
units, plus the tracing overhead.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import LayerTotals, self_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / "perfbench_out"

TWOHOLE_EXPERIMENTS = ("g1", "g2", "g3", "g3_early_off")
TWOHOLE_N = 500_000
SHELVING_TOTAL_TIME = 100.0
# Expected photons of one record: 1e5 photons/s while bright, bright a third
# of the time at the default rates.  A record's length is random (its photon
# count spreads 20% between quartiles across seeds at 100 s), so shelving's
# wall time and memory growth are scaled to this count; see ``Result.scale``.
SHELVING_NOMINAL_PHOTONS = 1e5 * SHELVING_TOTAL_TIME / 3
ORACLE_GEOMETRIES = 20
ORACLE_GRID_POINTS = 2048
# fresnel_oracle's default; each open hole is integrated at n and 2n nodes.
ORACLE_NODES_PER_HOLE = 256
ORACLE_OPEN_HOLES = 4  # A alone, B alone, then A and B together

# Output checks, from the acceptance suite.
COHERENT_VISIBILITY_MIN = 0.90
WHICH_PATH_VISIBILITY_MAX = 0.05
CHI2_P_MIN = 1e-4
RECALL_MIN = 0.99
ORACLE_L2_MAX = 1e-3

# A run ends within this many seconds even if invocations hang.
RUN_LIMIT_S = 150
MIN_UNITS = 2

ARTIFACTS = {
    "twohole": ("density.csv", "samples.csv", "summary.json", "config_resolved.txt"),
    "shelving": ("trajectory.csv", "photons.csv", "summary.json", "config_resolved.txt"),
}

LOAD_MODEL = ("closed loop, one client: each invocation runs in a fresh interpreter "
              "and starts only after the previous one has exited")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, or the wrong one)."""


def oracle_geometries(seed: int) -> list[dict]:
    """Random far-field geometries, in the acceptance suite's ranges."""
    rng = np.random.default_rng(seed)
    geometries = []
    for _ in range(ORACLE_GEOMETRIES):
        lam = rng.uniform(20e-9, 100e-9)
        dist = rng.uniform(0.5, 2.0)
        lam_l = lam * dist
        w_a = rng.uniform(0.2e-6, 1.0e-6)
        w_b = rng.uniform(0.2e-6, 1.0e-6)
        s_lo = 3.0 * (w_a + w_b)
        s_hi = min(20.0 * (w_a + w_b), 5e-4 * lam_l / max(w_a, w_b))
        s = s_lo if s_hi <= s_lo else rng.uniform(s_lo, s_hi)
        span = 12.0 * lam_l / s
        geometries.append({
            "hole_separation": float(s),
            "hole_width_a": float(w_a),
            "hole_width_b": float(w_b),
            "wall_to_backstop": float(dist),
            "de_broglie_wavelength": float(lam),
            "grid_min": float(-span / 2),
            "grid_max": float(span / 2),
            "grid_points": ORACLE_GRID_POINTS,
        })
    return geometries


@dataclass
class Invocation:
    label: str  # experiment name, or "oracle"
    spec: dict  # for child.py, without trace/report/run_id
    operations: int


def plan(workload: str, seed: int) -> list[Invocation]:
    if workload == "twohole":
        return [Invocation(exp, {"kind": "cli", "argv": [
            exp, "--n", str(TWOHOLE_N), "--seed", str(seed), "--out", exp]}, 1)
            for exp in TWOHOLE_EXPERIMENTS]
    if workload == "shelving":
        return [Invocation("shelving", {"kind": "cli", "argv": [
            "shelving", "--total-time", repr(SHELVING_TOTAL_TIME), "--seed", str(seed),
            "--out", "shelving"]}, 1)]
    if workload == "oracle":
        return [Invocation("oracle", {"kind": "oracle",
                                      "geometries": oracle_geometries(seed)},
                           ORACLE_GEOMETRIES)]
    raise BenchmarkError(f"unknown workload {workload!r}")


def input_sizes(workload: str) -> dict:
    if workload == "twohole":
        return {"experiments": list(TWOHOLE_EXPERIMENTS), "n_electrons": TWOHOLE_N}
    if workload == "shelving":
        return {"total_time_s": SHELVING_TOTAL_TIME}
    return {"geometries": ORACLE_GEOMETRIES, "grid_points": ORACLE_GRID_POINTS,
            "nodes_per_hole": ORACLE_NODES_PER_HOLE}


@dataclass
class Result:
    """One invocation: timings as the client sees them, and its checks."""

    label: str
    wall_s: float  # process wall time minus the import
    import_s: float
    max_rss_kb: int
    cpu_s: float
    operations: int
    failures: list[str] = field(default_factory=list)
    crashed: bool = False  # no report: every operation of the invocation failed
    blas_threads: int = 0
    import_rss_kb: int = 0
    scale: float = 1.0  # shelving: nominal / actual photon count
    hashes: dict = field(default_factory=dict)
    bytes_written: int = 0
    rows_written: int = 0
    spans: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Failed operations: one per problem, or all of them after a crash."""
        return self.operations if self.crashed else min(self.operations, len(self.failures))

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def scaled_rss_mb(self) -> float:
        """Peak RSS, with the growth after the import scaled like the wall time."""
        return (self.import_rss_kb + (self.max_rss_kb - self.import_rss_kb) * self.scale) / 1024


def _scan(path: Path) -> tuple[str, int, int, bool]:
    """sha256, size, newline count, and whether the file ends in a newline."""
    digest = hashlib.sha256()
    size = lines = 0
    last = b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    return digest.hexdigest(), size, lines, last == b"\n"


def check_artifacts(experiment: str, out: Path, result: Result) -> None:
    """Check one CLI run's output directory; record problems, hashes, sizes."""
    names = ARTIFACTS["shelving" if experiment == "shelving" else "twohole"]
    rows = {}
    for name in names:
        path = out / name
        if not path.is_file():
            result.failures.append(f"{name} missing")
            continue
        result.hashes[name], size, lines, complete = _scan(path)
        result.bytes_written += size
        if name.endswith(".csv"):
            if not complete:
                result.failures.append(f"{name} does not end in a newline")
            rows[name] = lines - 1
            result.rows_written += lines - 1
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        result.failures.append(f"summary.json unreadable: {exc}")
        return
    if not isinstance(summary, dict) or summary.get("experiment") != experiment:
        result.failures.append("summary.json names another experiment")
        return

    def need(key, ok, what):
        value = summary.get(key)
        if not isinstance(value, (int, float)) or not ok(value):
            result.failures.append(f"{key} = {value!r}, expected {what}")

    if experiment == "shelving":
        need("detector_recall", lambda v: v >= RECALL_MIN, f">= {RECALL_MIN}")
        need("detector_false_discovery_rate", lambda v: v == 0, "0")
        need("n_photons", lambda v: v == rows.get("photons.csv"), "the photons.csv row count")
        photons = summary.get("n_photons")
        if isinstance(photons, int) and photons > 0:
            result.scale = SHELVING_NOMINAL_PHOTONS / photons
        dwells = (summary.get("n_complete_bright") or 0) + (summary.get("n_complete_dark") or 0)
        if rows.get("trajectory.csv") != dwells + 1:
            result.failures.append("trajectory.csv row count disagrees with the dwell counts")
        return
    need("n_electrons", lambda v: v == rows.get("samples.csv"), "the samples.csv row count")
    if experiment in ("g1", "g3_early_off"):
        need("visibility_sampled", lambda v: v >= COHERENT_VISIBILITY_MIN,
             f">= {COHERENT_VISIBILITY_MIN}")
    else:
        need("visibility_sampled", lambda v: v <= WHICH_PATH_VISIBILITY_MAX,
             f"<= {WHICH_PATH_VISIBILITY_MAX}")
    need("chi2_p_value", lambda v: v >= CHI2_P_MIN, f">= {CHI2_P_MIN}")
    for key in sorted(summary):
        if key.startswith("chi2_p_value_"):
            need(key, lambda v: v >= CHI2_P_MIN, f">= {CHI2_P_MIN}")


def check_hashes(reference: dict[str, str], result: Result) -> None:
    """Every artifact must hash as it did in the first unit at this seed."""
    for name, digest in sorted(result.hashes.items()):
        if reference.get(name) != digest:
            result.failures.append(f"{name} hash differs from the first unit")


def check_oracle(report: dict, result: Result) -> None:
    entries = report.get("oracle") or []
    if len(entries) != result.operations:
        result.failures.append(f"oracle returned {len(entries)} of {result.operations} geometries")
        return
    for i, entry in enumerate(entries):
        if "exception" in entry:
            result.failures.append(f"geometry {i}: {entry['exception']}")
        elif not max(entry["errors"]) <= ORACLE_L2_MAX:
            result.failures.append(f"geometry {i}: relative L2 {max(entry['errors'])!r}")


def invoke(inv: Invocation, work: Path, trace: bool, run_id: str, timeout: float) -> Result:
    """Run one invocation in a fresh interpreter and check what it produced."""
    report_path = work / f"{inv.label}.report.json"
    out = work / inv.label
    for stale in (report_path, out):
        if stale.is_dir():
            shutil.rmtree(stale)
        elif stale.exists():
            stale.unlink()
    spec = dict(inv.spec, trace=trace, run_id=run_id, report=str(report_path))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)], cwd=work, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
        problem = f"exit code {proc.returncode}: {proc.stderr.strip()}" if proc.returncode else None
    except subprocess.TimeoutExpired:
        problem = f"no exit within {timeout:.0f} s"
    wall = time.perf_counter() - start
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = None
    if report is None:
        result = Result(inv.label, wall, 0.0, 0, 0.0, inv.operations,
                        [problem or "no report"], crashed=True)
        if inv.label != "oracle":
            check_artifacts(inv.label, out, result)
        return result
    if not Path(report["slitlab_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"imported slitlab from {report['slitlab_file']}, not from {SRC}")
    result = Result(inv.label, wall - report["import_s"], report["import_s"],
                    report["max_rss_kb"], report["cpu_s"], inv.operations,
                    [problem] if problem else [], spans=report["spans"],
                    blas_threads=report["blas_threads"], import_rss_kb=report["import_rss_kb"])
    if inv.label == "oracle":
        check_oracle(report, result)
    else:
        check_artifacts(inv.label, out, result)
    return result


@dataclass
class Unit:
    traced: bool
    results: list[Result]
    elapsed_s: float

    @property
    def wall_s(self) -> float:
        return sum(r.scaled_wall_s for r in self.results)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run units until ``seconds`` are used; return everything a report needs."""
    if not (SRC / "slitlab" / "cli.py").is_file():
        raise BenchmarkError(f"no slitlab source at {SRC}; run from a source checkout")
    invocations = plan(workload, seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        # Compile bytecode and fill the file cache: users do not pay that per call.
        subprocess.run([sys.executable, "-c", "import slitlab.cli"], cwd=work,
                       env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=RUN_LIMIT_S / 2)
        units: list[Unit] = []
        reference: dict[str, dict] = {}
        start = time.perf_counter()
        while time.perf_counter() < deadline:
            elapsed = time.perf_counter() - start
            if len(units) >= MIN_UNITS and elapsed + statistics.median(
                    u.elapsed_s for u in units) > seconds:
                break
            traced = trace and len(units) % 2 == 1
            unit_start = time.perf_counter()
            results = []
            for inv in invocations:
                timeout = max(1.0, deadline - time.perf_counter())
                result = invoke(inv, work, traced, f"{workload}-{seed}-{len(units)}-{inv.label}",
                                timeout)
                check_hashes(reference.setdefault(inv.label, result.hashes), result)
                results.append(result)
            units.append(Unit(traced, results, time.perf_counter() - unit_start))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "units": units, "hashes": reference}


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return "-"
    return f"p{100 * (n - 10) / n:.0f}={sorted(values)[n - 11]:.6g}"


def end_to_end(units: list[Unit]) -> dict[str, tuple[float, list[float]]]:
    """Metric name -> (value, samples).  Only untraced units count."""
    plain = [u for u in units if not u.traced]
    walls = [u.wall_s for u in plain]
    imports = [r.import_s for u in plain for r in u.results if r.import_s > 0]
    rss = [r.scaled_rss_mb for u in plain for r in u.results]
    return {
        "wall_s": (statistics.median(walls), walls),
        "setup_s": (statistics.median(imports), imports),
        "peak_rss_mb": (max(rss), rss),
    }


def per_layer(names: list[str], units: list[Unit], workload: str, seed: int) -> dict[str, float]:
    """Per-layer metrics: medians over traced units of per-unit totals."""
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced]
    kernel_evals = 0
    if workload == "oracle":
        kernel_evals = sum(g["grid_points"] * 3 * ORACLE_NODES_PER_HOLE * ORACLE_OPEN_HOLES
                           for g in oracle_geometries(seed))
    per_unit: dict[str, list[float]] = {name: [] for name in names}
    for unit in traced:
        invocations = [self_totals(r.spans) for r in unit.results]
        merged: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for totals in invocations:
            for name, layer in totals.items():
                merged[name].calls += layer.calls
                merged[name].self_s += layer.self_s
                merged[name].count += layer.count

        def max_rss_mb(span_name):
            return max((t[span_name].self_rss_kb for t in invocations if span_name in t),
                       default=0) / 1024

        special = {
            "cli.self_s": merged["cli.run"].self_s,
            "cli.self_rss_mb": max_rss_mb("cli.run"),
            "cli.bytes_written": sum(r.bytes_written for r in unit.results),
            "cli.rows_written": sum(r.rows_written for r in unit.results),
            "stats.electrons_sampled": merged["stats.GriddedCdf.ppf"].count,
            "optics.fresnel_oracle.kernel_evals": kernel_evals,
            "optics.fresnel_oracle.kernel_mb": kernel_evals * 16 / 2**20,
            "shelving.emit_photons.rss_mb": max_rss_mb("shelving.emit_photons"),
            "shelving.photons": merged["shelving.emit_photons"].count,
            "shelving.dwells": merged["shelving.simulate_trajectory"].count,
            "shelving.detections": merged["shelving.detect_jumps"].count,
            "process.blas_threads": max(r.blas_threads for r in unit.results),
        }
        for name in names:
            if name in special:
                value = special[name]
            elif name.endswith(".s"):
                value = merged[name[:-len(".s")]].self_s
            elif name.endswith(".calls"):
                value = merged[name[:-len(".calls")]].calls
            else:
                continue
            per_unit[name].append(value)
    metrics = {name: statistics.median(v) for name, v in per_unit.items() if v}
    metrics["process.cpu_s"] = statistics.median(sum(r.cpu_s for r in u.results) for u in plain)
    metrics["tracing.overhead_s"] = (statistics.median(u.wall_s for u in traced)
                                     - statistics.median(u.wall_s for u in plain))
    missing = [name for name in names if name not in metrics]
    if missing:
        raise BenchmarkError(f"BENCHMARK.json names per-layer metrics never computed: {missing}")
    return {name: metrics[name] for name in names}


def provenance(workload: str, seed: int, units: list[Unit]) -> dict:
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "slitlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas_threads": max((r.blas_threads for u in units for r in u.results), default=0),
        "load_model": LOAD_MODEL,
        "workload": workload,
        "input_sizes": input_sizes(workload),
    }


def load_metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def write_trace(measured: dict) -> Path:
    """Every span of the run, written once at its end."""
    path = OUT / f"trace-{measured['workload']}-seed{measured['seed']}.json"
    spans = [s for u in measured["units"] for r in u.results for s in r.spans]
    path.write_text(json.dumps(spans))
    return path


WORKLOADS = ("twohole", "shelving", "oracle")


def operations(units: list[Unit]) -> tuple[int, int]:
    """(attempted, failed) operations: CLI invocations and oracle geometries."""
    results = [r for u in units for r in u.results]
    return sum(r.operations for r in results), sum(r.failed for r in results)


def end_to_end_lines(e2e: dict, specs: list[dict], units: list[Unit]) -> list[str]:
    """Each end-to-end metric with its unit and sample count, then fail_frac."""
    lines = []
    for spec in specs:
        value, samples = e2e[spec["name"]]
        lines.append(f"  {spec['name']:<12} {value:>12.6g} {spec['unit']:<4} "
                     f"n={len(samples)} tail={_tail(samples)}")
    attempted, failed = operations(units)
    lines.append(f"  {'fail_frac':<12} {failed / attempted:>12.6g} "
                 f"{'-':<4} n={attempted} ({failed} failed)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        specs = load_metric_specs()
        measured = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        units = measured["units"]
        if args.trace:
            wanted = specs["per_layer"]
            metrics = per_layer([m["name"] for m in wanted], units, args.workload, args.seed)
            lines = [f"  {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}"
                     for m in wanted]
            lines.append(f"trace written to {write_trace(measured).relative_to(ROOT)}")
        else:
            wanted = specs["end_to_end"]
            e2e = end_to_end(units)
            metrics = {name: value for name, (value, _) in e2e.items()}
            lines = end_to_end_lines(e2e, wanted, units)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} units={len(units)}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, units)))
    print("\n".join(lines))
    for label, hashes in measured["hashes"].items():
        for name, digest in sorted(hashes.items()):
            print(f"  sha256 {label}/{name} {digest}")
    for r in (r for u in units for r in u.results):
        for problem in r.failures:
            print(f"  FAILED {r.label}: {problem}")
    attempted, failed = operations(units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
