"""What the benchmark takes from slitlab by name or by copy must still hold.

``perfbench/child.py`` looks up each ``(owner, attr)`` pair of its
``TRACED`` table with ``getattr`` when run with ``--trace 1``; a renamed
or deleted function would make the traced benchmark fail, and a count
it takes from a wrapped call reads wrong if the work bypasses that call.
``perfbench/run.py`` keeps its own copy of the oracle's node count for
its computed kernel counts; if the two drift, those counts go wrong
without any run failing.
"""

import importlib.util
import sys
from pathlib import Path

from slitlab import cli, optics, shelving, stats

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # its scripts import their siblings
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    child = load_perfbench(monkeypatch, "child")
    assert child.TRACED
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in child.TRACED
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, missing


def test_oracle_node_count_copy_matches(monkeypatch):
    run = load_perfbench(monkeypatch, "run")
    assert run.ORACLE_NODES_PER_HOLE == optics.ORACLE_NODES_PER_HOLE


def test_every_electron_goes_through_ppf_once(monkeypatch, tmp_path):
    # run.py reads stats.electrons_sampled from the points that
    # child.py's wrap of GriddedCdf.ppf counts; a sampler that placed
    # electrons some other way would make it read too few.
    child = load_perfbench(monkeypatch, "child")
    (count,) = [count for owner, attr, _, count in child.TRACED
                if (owner, attr) == (stats.GriddedCdf, "ppf")]
    points = []
    real_ppf = stats.GriddedCdf.ppf

    def counted_ppf(*args):
        result = real_ppf(*args)
        points.append(count(args, result))
        return result

    monkeypatch.setattr(stats.GriddedCdf, "ppf", counted_ppf)
    assert cli.main(["g3", "--n", "100003", "--out", str(tmp_path / "g3")]) == 0
    assert sum(points) == 100_003


def test_dwell_count_reads_every_dwell(monkeypatch, tmp_path):
    # run.py reads shelving.dwells from the count child.py takes of the
    # trajectory simulate_trajectory returns; a renamed or reshaped
    # dwell array would break traced shelving runs or make them read wrong.
    child = load_perfbench(monkeypatch, "child")
    (count,) = [count for owner, attr, _, count in child.TRACED
                if (owner, attr) == (shelving, "simulate_trajectory")]
    dwells = []
    real_simulate = shelving.simulate_trajectory

    def counted_simulate(*args):
        result = real_simulate(*args)
        dwells.append(count(args, result))
        return result

    monkeypatch.setattr(shelving, "simulate_trajectory", counted_simulate)
    out = tmp_path / "shelving"
    assert cli.main(["shelving", "--total-time", "5", "--seed", "3", "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert dwells == [len(rows)] and len(rows) > 1
