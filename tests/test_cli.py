"""Command-line runs: artifacts, determinism, exit codes."""

import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slitlab.cli as cli
from slitlab.cli import ConfigError, main, parse_args


def read_summary(path):
    return json.loads((path / "summary.json").read_text())


def staging_dirs(out):
    """Staging directories that a run for ``out`` left beside it."""
    return sorted(out.parent.glob(f".{out.name}.*"))


def artifact_names(experiment):
    tables = ("photons.csv", "trajectory.csv") if experiment == "shelving" else (
        "density.csv", "samples.csv")
    return sorted(tables + ("config_resolved.txt", "summary.json"))


def fail_if_called(*args, **kwargs):
    raise AssertionError("sampling started")


def pool_started(workers):
    raise AssertionError("a formatting pool started")


TEST_PID = os.getpid()
FORMAT_BLOCK = cli._format_block


def exit_in_worker(columns):
    """_format_block, except that a worker process running it dies at once."""
    if os.getpid() != TEST_PID:
        os._exit(70)
    return FORMAT_BLOCK(columns)


def slow_in_worker(columns):
    """_format_block, taking 20 ms longer in a worker process."""
    if os.getpid() != TEST_PID:
        time.sleep(0.02)
    return FORMAT_BLOCK(columns)


WRITER_PATHS = ("in-process", "pooled")


@contextmanager
def writer_path(path):
    """Send every table onto one of _write_csv's paths; yield the pools it starts.

    "pooled" starts a pool of two workers, whatever the machine, at a
    table's first row; "in-process" starts none.
    """
    started = []
    real_start_pool = cli._start_pool

    def counted_start_pool(workers):
        started.append(workers)
        return real_start_pool(workers)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_start_pool", counted_start_pool)
        patch.setattr(cli, "_usable_cpus", lambda: 2 if path == "pooled" else 1)
        if path == "pooled":
            patch.setattr(cli, "POOL_MIN_ROWS", 1)
        yield started


def test_g1_run_writes_expected_artifacts(tmp_path):
    out = tmp_path / "g1"
    assert main(["g1", "--n", "30000", "--seed", "11", "--out", str(out)]) == 0
    for name in ("density.csv", "samples.csv", "summary.json", "config_resolved.txt"):
        assert (out / name).exists()
    summary = read_summary(out)
    assert summary["experiment"] == "g1"
    assert summary["seed"] == 11
    assert summary["visibility_sampled"] > 0.9
    assert summary["chi2_p_value"] > 1e-4
    assert summary["frac_not_seen"] == 1.0
    header = (out / "density.csv").read_text().splitlines()[0]
    assert header == "x_m,analytic_density_per_m"
    assert "seed=11" in (out / "config_resolved.txt").read_text()
    # one position per electron plus the header line
    assert len((out / "samples.csv").read_text().splitlines()) == 30001


def test_g2_run_splits_outcomes_and_fits_branches(tmp_path):
    out = tmp_path / "g2"
    assert main(["g2", "--n", "30000", "--seed", "11", "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["visibility_sampled"] < 0.05
    assert abs(summary["frac_seen_at_a"] - 0.5) < 0.02
    assert abs(summary["frac_seen_at_b"] - 0.5) < 0.02
    assert summary["frac_not_seen"] == 0.0
    assert summary["chi2_p_value"] > 1e-4
    assert summary["chi2_p_value_seen_at_a"] > 1e-4
    assert summary["chi2_p_value_seen_at_b"] > 1e-4
    header = (out / "density.csv").read_text().splitlines()[0]
    assert header.split(",") == [
        "x_m",
        "analytic_density_per_m",
        "hole_a_component_per_m",
        "hole_b_component_per_m",
    ]
    first_rows = (out / "samples.csv").read_text().splitlines()[:3]
    assert first_rows[0] == "x_m,outcome"
    assert first_rows[1].split(",")[1] in {"seen_at_a", "seen_at_b"}


def test_g3_uses_null_outcomes_for_the_unlit_hole(tmp_path):
    out = tmp_path / "g3"
    assert main(["g3", "--n", "30000", "--seed", "11", "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["frac_seen_at_b"] == 0.0
    assert abs(summary["frac_not_seen"] - 0.5) < 0.02
    assert summary["chi2_p_value_not_seen"] > 1e-4


def test_early_light_off_density_file_matches_g1(tmp_path):
    out1, out2 = tmp_path / "g1", tmp_path / "early"
    assert main(["g1", "--n", "1000", "--seed", "1", "--out", str(out1)]) == 0
    assert main(["g3_early_off", "--n", "1000", "--seed", "1", "--out", str(out2)]) == 0
    assert (out1 / "density.csv").read_bytes() == (out2 / "density.csv").read_bytes()


def test_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["g2", "--n", "5000", "--seed", "123"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("density.csv", "samples.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_shelving_run_writes_trajectory_and_photons(tmp_path):
    out = tmp_path / "shelving"
    assert main(["shelving", "--total-time", "8", "--seed", "5", "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["detector_false_discovery_rate"] == 0.0
    assert summary["detector_recall"] == 1.0
    assert summary["n_photons"] > 1000
    header = (out / "trajectory.csv").read_text().splitlines()
    assert header[0] == "state,start_s,duration_s"
    assert header[1].startswith("bright,0.0,")
    assert (out / "photons.csv").read_text().splitlines()[0] == "arrival_time_s"


def test_shelving_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["shelving", "--total-time", "5", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("trajectory.csv", "photons.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_geometry_overrides_change_the_pattern(tmp_path):
    out = tmp_path / "wide"
    code = main(
        ["g1", "--n", "2000", "--seed", "2", "--out", str(out), "--separation", "1e-5"]
    )
    assert code == 0
    echo = (out / "config_resolved.txt").read_text()
    assert "separation=1e-05" in echo


def test_config_file_provides_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment=g1\nn=1500\nseed=4\n# comment\n\nout=%s\n" % (tmp_path / "cfgout"))
    assert main(["--config", str(cfg), "--seed", "6"]) == 0
    summary = read_summary(tmp_path / "cfgout")
    assert summary["n_electrons"] == 1500
    assert summary["seed"] == 6  # flag beats the file


class TestExitCodes:
    def test_unknown_experiment_is_config_error(self, tmp_path, capsys):
        assert main(["g9", "--out", str(tmp_path / "x")]) == 1
        assert "error: invalid config" in capsys.readouterr().err

    def test_missing_experiment_is_config_error(self, tmp_path):
        assert main(["--out", str(tmp_path / "x")]) == 1

    def test_bad_geometry_is_config_error(self, tmp_path):
        # hole wider than the separation
        code = main(
            ["g1", "--n", "100", "--out", str(tmp_path / "x"), "--separation", "1e-7"]
        )
        assert code == 1

    def test_bad_geometry_is_rejected_by_parse_args(self):
        with pytest.raises(ConfigError, match="bad geometry: holes overlap"):
            parse_args(["g2", "--out", "x", "--hole-width", "1e-3"])

    def test_geometry_flags_do_not_reach_shelving(self):
        # shelving has no geometry, so its unused defaults are not checked
        assert parse_args(["shelving", "--out", "x", "--hole-width", "1e-3"]).total_time == 30.0

    def test_value_error_inside_run_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        def reject(config):
            raise ValueError("synthetic bad value after parsing")

        monkeypatch.setattr(cli, "run", reject)
        assert main(["g1", "--out", str(tmp_path / "x")]) == 2
        assert "numerical failure: synthetic bad value" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, tmp_path, capsys, monkeypatch):
        # The parent is made, and fails, before any sampling starts.
        monkeypatch.setattr(cli.measurement, "sample_arrivals", fail_if_called)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        assert main(["g1", "--n", "100", "--out", str(blocker / "sub")]) == 3
        assert "io failure" in capsys.readouterr().err
        assert blocker.read_text() == "a file, not a directory\n"

    def test_numerical_warning_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        def overflow(illumination, geom, n, rng):
            return np.zeros(n, dtype=int), np.full(n, 1e308) * 10

        monkeypatch.setattr(cli.measurement, "sample_arrivals", overflow)
        out = tmp_path / "x"
        assert main(["g1", "--n", "100", "--out", str(out)]) == 2
        assert "numerical failure: overflow" in capsys.readouterr().err
        assert not out.exists()
        assert staging_dirs(out) == []

    def test_bad_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key=1\n")
        assert main(["g1", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 1

    def test_conflicting_experiments_rejected(self, tmp_path):
        assert main(["g1", "--experiment", "g2", "--out", str(tmp_path / "x")]) == 1

    def test_nonpositive_total_time_rejected(self, tmp_path):
        assert main(["shelving", "--total-time", "-3", "--out", str(tmp_path / "x")]) == 1

    def test_numerical_failures_map_to_exit_2(self, tmp_path, capsys, monkeypatch):
        import slitlab.cli as cli
        from slitlab.optics import QuadratureConvergenceError

        def explode(config):
            raise QuadratureConvergenceError("synthetic divergence")

        monkeypatch.setattr(cli, "run", explode)
        assert cli.main(["g1", "--out", str(tmp_path / "x")]) == 2
        assert "numerical failure" in capsys.readouterr().err


def test_parse_args_applies_defaults():
    config = parse_args(["g1", "--out", "somewhere"])
    assert config.n_electrons == 100_000
    assert config.seed == 0
    assert config.wavelength == pytest.approx(50e-9)


def test_sample_positions_stay_numeric(tmp_path):
    out = tmp_path / "g1"
    main(["g1", "--n", "500", "--seed", "8", "--out", str(out)])
    body = (out / "samples.csv").read_text().splitlines()[1:]
    values = np.array([float(v) for v in body])
    assert values.size == 500
    assert np.all(np.abs(values) <= 0.2)


class TestNonFiniteInputs:
    FLAGS = ["--total-time", "--wavelength", "--hole-width", "--separation", "--distance"]

    @pytest.mark.parametrize("flag", FLAGS)
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_flag_rejected_by_parse_args(self, flag, value):
        experiment = "shelving" if flag == "--total-time" else "g1"
        with pytest.raises(ConfigError, match=f"{flag} must be finite"):
            parse_args([experiment, "--out", "x", f"{flag}={value}"])

    @pytest.mark.parametrize("flag", FLAGS)
    def test_config_file_value_rejected_by_parse_args(self, tmp_path, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:].replace('-', '_')}=inf\n")
        with pytest.raises(ConfigError, match=f"{flag} must be finite"):
            parse_args(["g1", "--out", "x", "--config", str(cfg)])

    @pytest.mark.parametrize("argv", [
        ["shelving", "--total-time", "nan"],
        ["g1", "--distance", "nan"],
        ["g2", "--hole-width", "nan"],
    ])
    def test_nan_is_a_config_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", FLAGS)
    @pytest.mark.parametrize("value", ["-1e-3", "-inf", "-5e-8"])
    def test_negative_value_as_its_own_argument(self, tmp_path, capsys, flag, value):
        # argparse alone would read these tokens as options and report
        # "expected one argument"; the checks must see them instead.
        experiment = "shelving" if flag == "--total-time" else "g1"
        out = tmp_path / "x"
        assert main([experiment, flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{flag} must be finite" in err or f"{flag} must be positive" in err
        assert not out.exists()


@pytest.mark.parametrize("argv", [["--total", "-1e-3"], ["--total=30"], ["--sep", "5e-6"]])
def test_flag_prefixes_rejected(tmp_path, capsys, argv):
    # Only full flag names are known to the negative-value join, so a
    # prefix is not accepted in any spelling.
    out = tmp_path / "x"
    assert main(["shelving", *argv, "--out", str(out)]) == 1
    assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_rejected(tmp_path, capsys, source):
    out = tmp_path / "x"
    argv = ["g1", "--out", str(out)]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-1\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["g1", "--hole-width", "1e-3"],  # holes overlap: parse_args builds the SlitGeometry
    ["g3", "--hole-width", "1e-3"],
    ["g1", "--wavelength", "nan"],
    ["g1", "--separation", "inf"],
])
def test_failed_run_leaves_no_output_directory(tmp_path, argv):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) != 0
    assert not out.exists()


class TestSamplerMemoryCap:
    # The largest --n whose sampler footprint fits under the cap.
    LARGEST_N = cli.MAX_SAMPLER_BYTES // cli.measurement.SAMPLER_BYTES_PER_ELECTRON

    def test_estimate_is_linear_in_n(self):
        assert cli.measurement.sampler_footprint_bytes(1) == 32
        assert cli.measurement.sampler_footprint_bytes(10**6) == 32 * 10**6

    @pytest.mark.parametrize("experiment", cli.TWO_HOLE_EXPERIMENTS)
    def test_n_over_the_cap_is_rejected_by_parse_args(self, experiment):
        assert parse_args([experiment, "--out", "x", "--n", str(self.LARGEST_N)])
        with pytest.raises(ConfigError, match=r"--n \d+ needs about 2048 MiB to sample, "
                                               r"over the 2048 MiB cap"):
            parse_args([experiment, "--out", "x", "--n", str(self.LARGEST_N + 1)])

    def test_n_over_the_cap_exits_1_without_output(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["g1", "--n", str(10**12), "--out", str(out)]) == 1
        assert "MiB cap" in capsys.readouterr().err
        assert not out.exists()

    def test_shelving_ignores_n(self):
        assert parse_args(["shelving", "--out", "x", "--n", str(10**12)]).experiment == "shelving"


def test_failed_shelving_stream_leaves_no_output_directory(tmp_path, monkeypatch, capsys):
    # The stream fails after photons.csv has its first rows, in the staging directory.
    def failing_stream(traj, rates, rng):
        yield np.array([0.5])
        raise ValueError("arrival times must be strictly increasing")

    monkeypatch.setattr(cli.shelving, "photon_chunks", failing_stream)
    out = tmp_path / "run"
    assert main(["shelving", "--total-time", "2", "--out", str(out)]) == 2
    assert "numerical failure: arrival times must be strictly increasing" in capsys.readouterr().err
    assert not out.exists()
    assert staging_dirs(out) == []


def test_photons_are_drawn_once_per_run(tmp_path, monkeypatch):
    calls = []
    real = cli.shelving.photon_chunks

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli.shelving, "photon_chunks", counted)
    assert main(["shelving", "--total-time", "2", "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 1


def test_io_failure_inside_photons_csv_leaves_no_output(tmp_path, monkeypatch, capsys):
    real = cli._write_csv
    written = []

    def failing_write(path, header, chunks):
        if path.name != "photons.csv":
            return real(path, header, chunks)

        def first_chunk_then_full_disk():
            for chunk in chunks:
                if written:
                    raise OSError(28, "No space left on device")
                written.append(chunk)
                yield chunk

        return real(path, header, first_chunk_then_full_disk())

    monkeypatch.setattr(cli, "_write_csv", failing_write)
    out = tmp_path / "run"
    with writer_path("pooled") as started:
        assert main(["shelving", "--total-time", "5", "--out", str(out)]) == 3
    assert started == [2, 2]  # trajectory.csv's pool, then photons.csv's
    assert "io failure" in capsys.readouterr().err
    assert len(written) == 1
    assert not out.exists()
    assert staging_dirs(out) == []
    assert multiprocessing.active_children() == []


def process_is_running(pid):
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(") ")[2][:1] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_pool_workers_end_with_a_killed_run():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import multiprocessing, time, slitlab.cli as cli\n"
        "pool = cli._start_pool(2)\n"
        "pool.submit(time.sleep, 0).result()\n"
        "print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
        "time.sleep(60)\n"
    )
    run = subprocess.Popen([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                           stdout=subprocess.PIPE, text=True)
    workers = []
    try:
        workers = [int(pid) for pid in run.stdout.readline().split()]
        assert len(workers) == 2
        run.kill()
        run.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(process_is_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(process_is_running, workers))
    finally:
        run.kill()
        run.wait(timeout=10)
        run.stdout.close()
        for pid in filter(process_is_running, workers):
            os.kill(pid, signal.SIGKILL)


def test_dead_formatting_worker_is_an_io_failure(tmp_path, monkeypatch, capsys):
    # trajectory.csv is shorter than a block and is formatted in this
    # process; photons.csv reaches a block, and its pool's workers die.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_format_block", exit_in_worker)
    out = tmp_path / "run"
    assert main(["shelving", "--total-time", "5", "--out", str(out)]) == 3
    assert "io failure: photons.csv: a formatting worker died" in capsys.readouterr().err
    assert not out.exists()
    assert staging_dirs(out) == []
    assert multiprocessing.active_children() == []


class TestOutputDirectory:
    @pytest.mark.parametrize("existing", [False, True])
    def test_run_leaves_exactly_the_artifacts(self, tmp_path, existing):
        out = tmp_path / "run"
        if existing:
            out.mkdir()
        assert main(["g1", "--n", "100", "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == artifact_names("g1")
        assert staging_dirs(out) == []
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o777 & ~umask

    def test_missing_parents_are_made(self, tmp_path):
        out = tmp_path / "a" / "b" / "run"
        assert main(["shelving", "--total-time", "1", "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == artifact_names("shelving")

    def test_failed_run_removes_only_the_parents_it_made(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise ValueError("synthetic sampling failure")

        monkeypatch.setattr(cli.measurement, "sample_arrivals", fail)
        (tmp_path / "kept").mkdir()  # empty, but there before the run
        out = tmp_path / "kept" / "a" / "b" / "run"
        assert main(["g1", "--n", "10", "--out", str(out)]) == 2
        assert "synthetic sampling failure" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "kept"]

    def test_failed_run_keeps_a_parent_that_is_not_empty(self, tmp_path, monkeypatch):
        # Another file arrives in a parent this run made, while it runs.
        def fill_parent(*args):
            (tmp_path / "a" / "other.txt").write_text("not this run's\n")
            raise ValueError("synthetic sampling failure")

        monkeypatch.setattr(cli.measurement, "sample_arrivals", fill_parent)
        out = tmp_path / "a" / "b" / "run"
        assert main(["g1", "--n", "10", "--out", str(out)]) == 2
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "a", tmp_path / "a" / "other.txt"]

    @pytest.mark.parametrize("kind", ["non-empty directory", "file"])
    def test_occupied_out_is_rejected_untouched(self, tmp_path, capsys, monkeypatch, kind):
        monkeypatch.setattr(cli.measurement, "sample_arrivals", fail_if_called)
        out = tmp_path / "run"
        if kind == "file":
            out.write_text("not a directory\n")
        else:
            out.mkdir()
            (out / "keep.txt").write_text("earlier results\n")
        before = sorted(os.walk(out))
        assert main(["g1", "--n", "100", "--out", str(out)]) == 1
        assert f"--out {out} exists and is not an empty directory" in capsys.readouterr().err
        assert sorted(os.walk(out)) == before
        if kind == "file":
            assert out.read_text() == "not a directory\n"
        else:
            assert (out / "keep.txt").read_text() == "earlier results\n"
        assert staging_dirs(out) == []

    @pytest.mark.parametrize("name", [".", ".."])
    def test_out_without_a_name_is_rejected(self, tmp_path, capsys, monkeypatch, name):
        # The staging directory cannot be renamed onto the working directory
        # or its parent, even when that is empty.
        monkeypatch.setattr(cli.measurement, "sample_arrivals", fail_if_called)
        (tmp_path / "empty").mkdir()
        monkeypatch.chdir(tmp_path / "empty")
        assert main(["g1", "--n", "100", "--out", name]) == 1
        assert f"--out {name} does not end in a directory name" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "empty"]


BAD_VALUES = {
    "--n": ["0", "-4", "ten"],
    "--total-time": ["0", "-1e-3", "nan", "inf"],
    "--seed": ["-1", "1.5"],
}


@st.composite
def cli_calls(draw):
    """An argv with small sizes and at most one bad value, and the state of its --out."""
    values = {
        "--n": draw(st.integers(1, 200).map(str)),
        "--total-time": draw(st.floats(1e-3, 2.0).map(repr)),
        "--seed": draw(st.integers(0, 2**32).map(str)),
    }
    bad = draw(st.sampled_from([None, None, *BAD_VALUES]))
    if bad:
        values[bad] = draw(st.sampled_from(BAD_VALUES[bad]))
    argv = [draw(st.sampled_from(cli.EXPERIMENTS))]
    for flag, value in values.items():
        argv += [flag, value]
    return argv, draw(st.sampled_from(["absent", "empty", "non-empty"]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(call=cli_calls())
def test_main_exits_with_a_code_and_a_complete_output_or_none(call):
    argv, out_state = call
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        if out_state != "absent":
            out.mkdir()
        if out_state == "non-empty":
            (out / "keep.txt").write_text("earlier results\n")
        code = main(argv + ["--out", str(out)])
        assert code in (0, 1, 2, 3)
        assert staging_dirs(out) == []
        if code == 0:
            assert out_state != "non-empty"
            assert sorted(path.name for path in out.iterdir()) == artifact_names(argv[0])
        elif out_state == "absent":
            assert not out.exists()
        else:
            names = [path.name for path in out.iterdir()]
            assert names == ([] if out_state == "empty" else ["keep.txt"])


def reject_constant(name):
    raise ValueError(f"summary.json holds {name}, which is not JSON")


@pytest.mark.parametrize("experiment", cli.TWO_HOLE_EXPERIMENTS)
@pytest.mark.parametrize("n", ["1", "3", "10", "40"])
def test_small_runs_complete_with_null_statistics(tmp_path, experiment, n):
    out = tmp_path / "run"
    assert main([experiment, "--n", n, "--seed", "0", "--out", str(out)]) == 0
    names = sorted(path.name for path in out.iterdir())
    assert names == ["config_resolved.txt", "density.csv", "samples.csv", "summary.json"]
    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    assert len((out / "samples.csv").read_text().splitlines()) == int(n) + 1
    if n != "40":
        # far too few arrivals for any bin count on the ladder
        assert summary["chi2_bins"] is None
    if summary["chi2_bins"] is None:
        assert summary["chi2_statistic"] is summary["chi2_dof"] is summary["chi2_p_value"] is None
    else:
        assert summary["chi2_dof"] >= 1
    for key, value in summary.items():
        if key.startswith("chi2_p_value") and value is not None:
            assert 0.0 <= value <= 1.0
    # The sampled visibility reads far above 1 at small --n; the noise
    # floor beside it says by how much it can be trusted.
    arrivals = summary["visibility_window_arrivals"]
    assert 0 <= arrivals <= int(n)
    if arrivals:
        assert summary["visibility_noise_floor"] == 2 / arrivals**0.5
    else:
        assert summary["visibility_sampled"] is summary["visibility_noise_floor"] is None


def test_visibility_sampled_is_null_without_central_arrivals(tmp_path, monkeypatch):
    # One unseen electron, placed outside the +-3-period window.
    def far_arrival(config, geom, n, rng):
        return np.full(n, cli.OUTCOME_ORDER.index(cli.OutcomeTag.NOT_SEEN)), np.full(n, 0.1)

    monkeypatch.setattr(cli.measurement, "sample_arrivals", far_arrival)
    out = tmp_path / "run"
    assert main(["g1", "--n", "1", "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["visibility_sampled"] is None
    assert summary["visibility_window_arrivals"] == 0
    assert summary["visibility_noise_floor"] is None
    assert summary["chi2_p_value"] is None


# sha256 of the artifacts at --n 20000 --seed 7.  A change to the sampler,
# the chi-square policy or the writer that alters any output byte fails
# here; update a digest only for an intended change of output.
PINNED_SHA256 = {
    "g1": {
        "density.csv": "dc7c0a5dc35c2611844d5eace004a9300c4ec506bc18d0df2d351981ad8763a8",
        "samples.csv": "472afa10de4f24be412d8ff5e93ff809f09743a902af673a68937952e63d4e4c",
        "summary.json": "d33e903b49747ebfb932fc23563651aebde0cd5734c1f7e11ab8dc61b894c2bc",
    },
    "g2": {
        "density.csv": "09dcc04dde2298993ae7e26cbd2ce6a4f5dc4486a7dd24bf35ae4df44e14a514",
        "samples.csv": "7ce0f45eee4e2de8c4f3242717743416bbfc03f55244a29ca4781404305ba1ff",
        "summary.json": "7fc01864c69d33c40d0b1bf47c19af108caf951c3ec5ba63e928220298e1dd0f",
    },
    "g3": {
        "density.csv": "09dcc04dde2298993ae7e26cbd2ce6a4f5dc4486a7dd24bf35ae4df44e14a514",
        "samples.csv": "a39c16f4ccc0fb8c1e21594c11a09f28f3e8523f16ddc86602d03c0e4a991d8e",
        "summary.json": "71007507f8c8cb5ff980e8f551e593e23148c5143186dff9a280d24c28cb57d4",
    },
    "g3_early_off": {
        "density.csv": "dc7c0a5dc35c2611844d5eace004a9300c4ec506bc18d0df2d351981ad8763a8",
        "samples.csv": "472afa10de4f24be412d8ff5e93ff809f09743a902af673a68937952e63d4e4c",
        "summary.json": "1192e1ec8fd90e64eb7ed4357c58afde5f19339bff074a2b46078b86938b35cd",
    },
}


@pytest.mark.parametrize("experiment", sorted(PINNED_SHA256))
def test_artifacts_match_pinned_digests(tmp_path, experiment):
    out = tmp_path / experiment
    assert main([experiment, "--n", "20000", "--seed", "7", "--out", str(out)]) == 0
    for name, digest in PINNED_SHA256[experiment].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# sha256 of the shelving artifacts at --total-time 10, taken from the
# whole-record emit_photons -> detect_jumps pipeline before the photon
# record was streamed dwell by dwell.
SHELVING_PINNED_SHA256 = {
    7: {
        "trajectory.csv": "505efc386838726737ffe48b66f56d230100fa4e841ad525b00dc17177163973",
        "photons.csv": "af270c92d792b1f6e7dd002fda48394fe878abdd62bcedc5130222c9010eb05a",
        "summary.json": "b7fc818d5b75f32f2c159688af00ad0e914a79a71869e333deec75e7a8db0983",
    },
    31: {
        "trajectory.csv": "882c7b60a18ee8318331407f5b5ab6b95f6af03cc2b0c8de712efc4036a757ac",
        "photons.csv": "3fc4ce0f11b2141f3b8dd0a76a93f23f684c61bd7f6e033235c7698893399dfe",
        "summary.json": "e381b3aaa1b67212aa59b862136fadbdefe284fe91b6064fabc550b5722353d9",
    },
    1234: {
        "trajectory.csv": "29961adfd56d706a5b0a34aa1b3aa9cdb07f863fc56c364a290a1ae322833a16",
        "photons.csv": "29602aa141f73af69eb1124c0c51683cc51de07b43fb9701c6dc27fa356c4930",
        "summary.json": "3e9521c68708ef2d49077e5daa2fcdd193aa014f9bb757c8de4f593ced156adf",
    },
}


@pytest.mark.parametrize("seed", sorted(SHELVING_PINNED_SHA256))
def test_shelving_artifacts_match_pinned_digests(tmp_path, seed):
    out = tmp_path / "shelving"
    assert main(["shelving", "--total-time", "10", "--seed", str(seed), "--out", str(out)]) == 0
    for name, digest in SHELVING_PINNED_SHA256[seed].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def reference_fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_write_csv(path, header, chunks) -> int:
    """The per-cell writer that the column-wise one replaced, kept as its reference.

    It reads every row of every chunk before writing any, and returns the
    row count.
    """
    lines = [",".join(header)]
    for columns in chunks:
        columns = [[column.names[i] for i in column.codes] if isinstance(column, cli._Labels)
                   else column for column in columns]
        for row in zip(*columns):
            lines.append(",".join(reference_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="")
    return len(lines) - 1


@pytest.mark.parametrize("argv", [
    ["g1", "--n", "4000"],
    ["g2", "--n", "4000"],
    ["g3", "--n", "4000"],
    ["g3_early_off", "--n", "4000"],
    ["shelving", "--total-time", "4"],
])
def test_artifacts_match_the_per_cell_writer(tmp_path, monkeypatch, argv):
    args = argv + ["--seed", "21", "--out", "run"]
    (tmp_path / "new").mkdir()
    (tmp_path / "reference").mkdir()
    monkeypatch.chdir(tmp_path / "new")
    assert main(args) == 0
    monkeypatch.chdir(tmp_path / "reference")
    monkeypatch.setattr(cli, "_write_csv", reference_write_csv)
    assert main(args) == 0
    names = sorted(path.name for path in (tmp_path / "new" / "run").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "reference" / "run").iterdir())
    for name in names:
        new = (tmp_path / "new" / "run" / name).read_bytes()
        assert new == (tmp_path / "reference" / "run" / name).read_bytes(), name


def assert_writers_agree(tmp_path, header, columns):
    """Both of _write_csv's paths write the reference's bytes; return them."""
    reference_write_csv(tmp_path / "reference.csv", header, [columns])
    reference = (tmp_path / "reference.csv").read_bytes()
    for path in WRITER_PATHS:
        with writer_path(path) as started:
            cli._write_csv(tmp_path / f"{path}.csv", header, [columns])
        assert (tmp_path / f"{path}.csv").read_bytes() == reference, path
        assert started == ([2] if path == "pooled" and len(columns[0]) else [])
    return reference


@pytest.mark.parametrize("n_rows", [0, 1, cli.CSV_BLOCK_ROWS, cli.CSV_BLOCK_ROWS + 1])
def test_writer_matches_reference_at_block_edges(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
    codes = rng.integers(0, 3, n_rows)
    columns = [floats, codes, codes == 1, cli._Labels(("seen_at_a", "seen_at_b", "not_seen"), codes)]
    text = assert_writers_agree(tmp_path, ["x", "code", "flag", "outcome"], columns)
    assert text.count(b"\n") == n_rows + 1
    single = assert_writers_agree(tmp_path, ["x"], [floats])
    if n_rows == 0:
        assert single == b"x\n"


def test_writer_matches_reference_on_edge_cells(tmp_path):
    floats = [-0.0, 1e-05, 1e16, 5e-324, 0.1, -1.5e-300, float("inf"), float("nan")]
    n = len(floats)
    ints = list(range(-3, n - 3))
    bools = [True, False] * (n // 2)
    labels = ["bright", "dark"] * (n // 2)
    columns = [np.array(floats), floats, np.array(ints), ints, np.array(bools), bools,
               labels, cli._Labels(("bright", "dark"), np.arange(n) % 2)]
    text = assert_writers_agree(tmp_path, [f"c{i}" for i in range(len(columns))], columns)
    rows = text.decode().splitlines()
    assert rows[1] == "-0.0,-0.0,-3,-3,true,true,bright,bright"
    assert rows[4].split(",")[:2] == ["5e-324", "5e-324"]
    assert rows[2].split(",")[:2] == ["1e-05", "1e-05"]
    assert rows[3].split(",")[:2] == ["1e+16", "1e+16"]


def test_chunk_edges_do_not_change_the_bytes(tmp_path):
    n_rows = cli.CSV_BLOCK_ROWS + 10
    rng = np.random.default_rng(3)
    floats = rng.standard_normal(n_rows)
    labels = cli._Labels(("bright", "dark"), rng.integers(0, 2, n_rows))
    whole = assert_writers_agree(tmp_path, ["t", "state"], [floats, labels])
    # an empty first chunk, an empty chunk in the middle, one longer than a block, an empty tail
    cuts = [0, 0, 5, 5, cli.CSV_BLOCK_ROWS + 7, n_rows, n_rows]
    chunks = [[floats[a:b], cli._Labels(labels.names, labels.codes[a:b])]
              for a, b in zip(cuts, cuts[1:])]
    for path in WRITER_PATHS:
        with writer_path(path):
            cli._write_csv(tmp_path / "chunked.csv", ["t", "state"], iter(chunks))
        assert (tmp_path / "chunked.csv").read_bytes() == whole, path


class LineCountingFile:
    """A text file that counts the lines written to it."""

    def __init__(self, *args, **kwargs):
        self._fh = open(*args, **kwargs)
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_pool_holds_at_most_its_window_of_blocks(tmp_path, monkeypatch):
    files = []

    def counting_open(*args, **kwargs):
        files.append(LineCountingFile(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    monkeypatch.setattr(cli, "_format_block", slow_in_worker)
    ahead = []

    def one_row_chunks(n):
        for i in range(n):
            # i rows drawn so far, and the header is the file's first line
            ahead.append(i - (files[0].lines - 1))
            yield [np.array([float(i)])]

    with writer_path("pooled") as started:
        assert cli._write_csv(tmp_path / "t.csv", ["t"], one_row_chunks(40)) == 40
    assert started == [2]
    assert 1 < max(ahead) <= cli.BLOCKS_PER_WORKER * 2
    assert (tmp_path / "t.csv").read_text() == "t\n" + "".join(f"{i}.0\n" for i in range(40))


@pytest.mark.parametrize("argv", [["g1", "--n", "100"], ["shelving", "--total-time", "0.2"]])
def test_small_runs_start_no_pool(tmp_path, monkeypatch, argv):
    # Some 20 000 photons at most in 0.2 s, and 8193 rows in density.csv: each
    # table is shorter than one block.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_start_pool", pool_started)
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
