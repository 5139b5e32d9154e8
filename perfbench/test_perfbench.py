"""Self-tests of the benchmark's checks and span arithmetic.

    python -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

import run
from spans import Recorder, self_totals

sys.path.insert(0, str(run.SRC))

from slitlab.cli import main as cli_main  # noqa: E402


def span(name, start, end, parent, rss_start, rss_end, count=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "run_id": "t",
            "rss_start_kb": rss_start, "rss_end_kb": rss_end, "count": count}


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        span("cli.run", 0.0, 8.0, None, 100, 400),
        span("stats.sample_positions", 1.0, 3.0, 0, 100, 150),
        span("stats.GriddedCdf.ppf", 1.5, 2.5, 1, 120, 150, count=5),
        span("stats.histogram", 4.0, 4.5, 0, 150, 150),
        span("stats.histogram", 5.0, 5.25, 0, 150, 160),
        span("stats.GriddedCdf.ppf", 9.0, 9.5, None, 400, 400, count=7),
    ]
    totals = self_totals(spans)
    assert totals["cli.run"].self_s == 8.0 - 2.0 - 0.5 - 0.25
    assert totals["cli.run"].self_rss_kb == 300 - 50 - 0 - 10
    assert totals["stats.sample_positions"].self_s == 1.0
    assert totals["stats.sample_positions"].self_rss_kb == 50 - 30
    assert (totals["stats.histogram"].calls, totals["stats.histogram"].self_s) == (2, 0.75)
    ppf = totals["stats.GriddedCdf.ppf"]
    assert (ppf.calls, ppf.self_s, ppf.self_rss_kb, ppf.count) == (2, 1.5, 30, 12)


def test_recorder_links_nested_calls_to_their_parent():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    recorder = Recorder("run-7")
    recorder.wrap(ns, "inner", "m.inner", count=lambda args, result: args[0])
    recorder.wrap(ns, "outer", "m.outer")
    assert ns.outer(3) == 8
    outer, inner = recorder.as_dicts()
    assert (outer["name"], outer["parent"], inner["name"], inner["parent"]) == (
        "m.outer", None, "m.inner", 0)
    assert inner["count"] == 3 and outer["run_id"] == inner["run_id"] == "run-7"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def fresh_result(label, operations=1):
    return run.Result(label, 1.0, 1.0, 0, 0.0, operations)


@pytest.fixture(scope="module")
def g1_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("g1")
    assert cli_main(["g1", "--n", "30000", "--seed", "11", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def shelving_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("shelving")
    assert cli_main(["shelving", "--total-time", "3", "--seed", "2", "--out", str(out)]) == 0
    return out


def copy_of(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


def checked(experiment, out):
    result = fresh_result(experiment)
    run.check_artifacts(experiment, out, result)
    return result


def test_intact_outputs_pass(g1_dir, shelving_dir):
    g1 = checked("g1", g1_dir)
    assert g1.failures == [] and g1.failed == 0
    assert g1.rows_written == 30000 + 8192
    assert set(g1.hashes) == set(run.ARTIFACTS["twohole"])
    shelving = checked("shelving", shelving_dir)
    assert shelving.failures == []
    photons = json.loads((shelving_dir / "summary.json").read_text())["n_photons"]
    assert shelving.scale == run.SHELVING_NOMINAL_PHOTONS / photons


def test_corrupted_summary_counts_as_a_failure(g1_dir, tmp_path):
    out = copy_of(g1_dir, tmp_path / "g1")
    text = (out / "summary.json").read_text()
    (out / "summary.json").write_text(text[: len(text) // 2])
    assert checked("g1", out).failed == 1

    summary = json.loads(text)
    summary["visibility_sampled"] = 0.5
    (out / "summary.json").write_text(json.dumps(summary))
    assert checked("g1", out).failed == 1


@pytest.mark.parametrize("cut", ["mid_line", "whole_line"])
def test_truncated_csv_counts_as_a_failure(g1_dir, shelving_dir, tmp_path, cut):
    for experiment, src, name in (("g1", g1_dir, "samples.csv"),
                                  ("shelving", shelving_dir, "photons.csv")):
        out = copy_of(src, tmp_path / experiment)
        data = (out / name).read_bytes()
        keep = len(data) - 5 if cut == "mid_line" else data.rstrip(b"\n").rfind(b"\n") + 1
        (out / name).write_bytes(data[:keep])
        assert checked(experiment, out).failed == 1, (experiment, cut)


def test_missing_artifact_and_changed_hash_count_as_failures(g1_dir, tmp_path):
    out = copy_of(g1_dir, tmp_path / "g1")
    reference = checked("g1", out).hashes
    (out / "density.csv").unlink()
    assert checked("g1", out).failed == 1

    out = copy_of(g1_dir, tmp_path / "g1b")
    with open(out / "config_resolved.txt", "a") as fh:
        fh.write("extra=1\n")
    result = checked("g1", out)
    assert result.failures == []
    run.check_hashes(reference, result)
    assert result.failures == ["config_resolved.txt hash differs from the first unit"]


def test_oracle_failures_are_counted_per_geometry():
    result = fresh_result("oracle", operations=3)
    run.check_oracle({"oracle": [
        {"errors": [1e-6, 2e-6, 3e-6]},
        {"errors": [1e-6, 2e-3, 3e-6]},
        {"exception": "QuadratureConvergenceError: not converged"},
    ]}, result)
    assert result.failed == 2

    crashed = run.Result("oracle", 1.0, 0.0, 0, 0.0, 20, ["exit code 1"], crashed=True)
    assert crashed.failed == 20


def test_oracle_geometries_are_seeded_far_field_and_in_range():
    from slitlab.optics import SlitGeometry

    first = run.oracle_geometries(5)
    assert first == run.oracle_geometries(5) != run.oracle_geometries(6)
    assert len(first) == run.ORACLE_GEOMETRIES
    for params in first:
        SlitGeometry(**params)  # raises outside the far-field regime
        assert 20e-9 <= params["de_broglie_wavelength"] <= 100e-9
        assert 0.5 <= params["wall_to_backstop"] <= 2.0
        assert params["grid_points"] == run.ORACLE_GRID_POINTS


def test_no_program_means_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "oracle", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
