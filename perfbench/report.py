"""Every end-to-end metric of every workload, in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs the workloads one after another, untraced, exactly as ``run.py``
does, and prints each metric with its unit and sample count, plus
``fail_frac``: failed over attempted operations (CLI invocations and
oracle geometries).
"""

import argparse
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)
    specs = run.load_metric_specs()["end_to_end"]
    failed_any = False
    for workload in run.WORKLOADS:
        try:
            measured = run.measure(workload, args.seed, args.seconds, trace=False)
        except run.BenchmarkError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        units = measured["units"]
        print(f"{workload} (seed {args.seed}, {len(units)} units)")
        print("\n".join(run.end_to_end_lines(run.end_to_end(units), specs, units)))
        failed_any |= run.operations(units)[1] > 0
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
