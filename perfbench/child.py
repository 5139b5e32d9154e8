"""One benchmark invocation, run in its own fresh interpreter.

    python child.py SPEC_JSON

Times ``import slitlab.cli`` (the set-up every ``slitlab`` call pays),
then either runs one CLI command (``{"kind": "cli", "argv": [...]}``) or
the Fresnel-oracle check over generated geometries (``{"kind": "oracle",
"geometries": [...]}``).  With ``"trace": true`` the public functions of
each module are wrapped first, where their callers look them up.  The
report (timings, peak RSS, CPU time, spans, oracle errors) is written as
JSON to ``spec["report"]``.
"""

import time

_t0 = time.perf_counter()
import slitlab.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

IMPORT_RSS_KB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

from slitlab import measurement, optics, shelving, stats  # noqa: E402

from spans import Recorder  # noqa: E402


def _size(args, result):
    return len(args[1])


# (owner, attribute, span name, work count).  ``cli`` binds ``visibility``
# and ``measurement`` binds ``single_hole_amplitude`` and ``superpose`` with
# ``from .optics import ...``, so those are wrapped on the importing module.
TRACED = [
    (slitlab.cli, "run", "cli.run", None),
    (slitlab.cli, "visibility", "optics.visibility", None),
    (measurement, "single_hole_amplitude", "optics.single_hole_amplitude", None),
    (measurement, "superpose", "optics.superpose", None),
    (optics, "single_hole_amplitude", "optics.single_hole_amplitude", None),
    (optics, "superpose", "optics.superpose", None),
    (optics, "fresnel_oracle", "optics.fresnel_oracle", None),
    (optics, "relative_l2_error", "optics.relative_l2_error", None),
    (optics.RealDensity, "restrict", "optics.RealDensity.restrict", None),
    (measurement, "ensemble_density", "measurement.ensemble_density", None),
    (measurement, "conditional_density", "measurement.conditional_density", None),
    (measurement, "outcome_probabilities", "measurement.outcome_probabilities", None),
    (stats, "sample_positions", "stats.sample_positions", None),
    (stats.GriddedCdf, "ppf", "stats.GriddedCdf.ppf", _size),
    (stats, "filter_positions", "stats.filter_positions", None),
    (stats, "histogram", "stats.histogram", None),
    (stats, "chi_square_gof", "stats.chi_square_gof", None),
    (stats, "fringe_visibility_from_positions", "stats.fringe_visibility_from_positions", None),
    (stats, "ks_exponential", "stats.ks_exponential", None),
    (shelving, "simulate_trajectory", "shelving.simulate_trajectory",
     lambda args, traj: len(traj.intervals)),
    (shelving, "emit_photons", "shelving.emit_photons",
     lambda args, record: record.arrival_times.size),
    (shelving, "detect_jumps", "shelving.detect_jumps", lambda args, found: len(found)),
    (shelving, "score_detections", "shelving.score_detections", None),
]


def run_oracle(geometries: list[dict]) -> list[dict]:
    """Closed forms against the Fresnel quadrature, one entry per geometry."""
    results = []
    for params in geometries:
        try:
            geom = optics.SlitGeometry(**params)
            psi_a = optics.single_hole_amplitude(geom, optics.Hole.A)
            psi_b = optics.single_hole_amplitude(geom, optics.Hole.B)
            errors = [
                optics.relative_l2_error(psi_a, optics.fresnel_oracle(geom, (optics.Hole.A,))),
                optics.relative_l2_error(psi_b, optics.fresnel_oracle(geom, (optics.Hole.B,))),
                optics.relative_l2_error(optics.superpose(psi_a, psi_b),
                                         optics.fresnel_oracle(geom)),
            ]
            results.append({"errors": errors})
        except (optics.QuadratureConvergenceError, ValueError) as exc:
            results.append({"exception": f"{type(exc).__name__}: {exc}"})
    return results


def main() -> int:
    spec = json.loads(sys.argv[1])
    recorder = None
    if spec["trace"]:
        recorder = Recorder(spec["run_id"])
        for owner, attr, name, count in TRACED:
            recorder.wrap(owner, attr, name, count)

    report = {
        "import_s": IMPORT_S,
        "import_rss_kb": IMPORT_RSS_KB,
        "slitlab_file": slitlab.cli.__file__,
        # Every thread besides the main one belongs to the BLAS pools of
        # numpy and scipy, which each bundle their own OpenBLAS.
        "blas_threads": len(os.listdir("/proc/self/task")) - 1,
    }
    if spec["kind"] == "cli":
        report["exit_code"] = slitlab.cli.main(spec["argv"])
    else:
        report["oracle"] = run_oracle(spec["geometries"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["max_rss_kb"] = usage.ru_maxrss
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    report["spans"] = recorder.as_dicts() if recorder else []
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return report.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
