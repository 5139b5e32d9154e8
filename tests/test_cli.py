"""Command-line runs: artifacts, determinism, exit codes."""

import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import slitlab.cli as cli
from slitlab import measurement
from slitlab.cli import ConfigError, main, parse_args
from slitlab.measurement import Illumination
from slitlab.optics import default_geometry


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


# Each run parameter: its flag, its config key, its RunConfig field and a
# value other than its default.
RUN_PARAMETERS = [
    ("--n", "n", "n_electrons", "1500"),
    ("--total-time", "total_time", "total_time", "12.5"),
    ("--seed", "seed", "seed", "4"),
    ("--wavelength", "wavelength", "wavelength", "6e-08"),
    ("--hole-width", "hole_width", "hole_width", "4e-07"),
    ("--separation", "separation", "separation", "6e-06"),
    ("--distance", "distance", "distance", "1.5"),
]


@pytest.mark.parametrize("flag, key, field, value", RUN_PARAMETERS)
def test_flag_and_config_key_set_the_same_parameter(tmp_path, flag, key, field, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    from_flag = parse_args(["g1", "--out", "x", flag, value])
    from_file = parse_args(["g1", "--out", "x", "--config", str(cfg)])
    assert from_flag == from_file
    assert getattr(from_flag, field) != getattr(parse_args(["g1", "--out", "x"]), field)


def echo_entries(out):
    """config_resolved.txt's lines by key."""
    lines = (out / "config_resolved.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines)


def test_config_echo_holds_exactly_the_config_keys(tmp_path):
    out = tmp_path / "run"
    assert main(["g1", "--n", "10", "--out", str(out)]) == 0
    entries = echo_entries(out)
    assert set(entries) == {"experiment", "out", *(key for _, key, _, _ in RUN_PARAMETERS)}
    for key, value in entries.items():
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key}={value}\n")
        parse_args(["g1", "--out", "x", "--config", str(cfg)])  # raises on a key it does not take


@pytest.mark.parametrize("argv, text", [
    (["g3", "--n", "100", "--seed", "3"],
     "distance=1.0\nexperiment=g3\nhole_width=5e-07\nn=100\n"
     "seed=3\nseparation=5e-06\ntotal_time=30.0\nwavelength=5e-08\n"),
    (["shelving", "--total-time", "2", "--seed", "3", "--hole-width", "1e-3"],
     "distance=1.0\nexperiment=shelving\nhole_width=0.001\nn=100000\n"
     "seed=3\nseparation=5e-06\ntotal_time=2.0\nwavelength=5e-08\n"),
])
def test_config_echo_text_is_pinned(tmp_path, argv, text):
    # Every parameter is echoed, those that the experiment ignores too.
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 0
    lines = (out / "config_resolved.txt").read_text().splitlines(keepends=True)
    assert lines.pop(4) == f"out={out}\n"
    assert "".join(lines) == text


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_a_run_replays_from_its_config_echo(tmp_path, experiment):
    flags = [token for flag, _, _, value in RUN_PARAMETERS for token in (flag, value)]
    first, replay = tmp_path / "first", tmp_path / "replay"
    config = parse_args([experiment, *flags, "--out", str(first)])
    assert main([experiment, *flags, "--out", str(first)]) == 0
    replay_argv = ["--config", str(first / "config_resolved.txt"), "--out", str(replay)]
    assert parse_args(replay_argv) == dataclasses.replace(config, output_dir=replay)
    assert main(replay_argv) == 0
    assert sorted(path.name for path in replay.iterdir()) == artifact_names(experiment)
    for name in artifact_names(experiment):
        if name != "config_resolved.txt":
            assert (first / name).read_bytes() == (replay / name).read_bytes(), name
    first_echo, replay_echo = echo_entries(first), echo_entries(replay)
    assert (first_echo.pop("out"), replay_echo.pop("out")) == (str(first), str(replay))
    assert first_echo == replay_echo


@pytest.mark.parametrize("flag, key, field", [("--n", "n", "n_electrons"), ("--seed", "seed", "seed")])
@pytest.mark.parametrize("value, expected", [("1e6", 10**6), ("1000000.0", 10**6), ("12e1", 120)])
def test_int_parameter_takes_a_whole_float_spelling(tmp_path, flag, key, field, value, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    from_flag = parse_args(["g1", "--out", "x", flag, value])
    assert getattr(from_flag, field) == expected and type(getattr(from_flag, field)) is int
    assert parse_args(["g1", "--out", "x", "--config", str(cfg)]) == from_flag


@pytest.mark.parametrize("flag, key", [("--n", "n"), ("--seed", "seed")])
@pytest.mark.parametrize("value", ["2.5", "1e400", "nan", "-inf", "10000000000000001.0"])
def test_int_parameter_rejects_other_float_spellings(tmp_path, capsys, flag, key, value):
    # The last is a whole number that a float would round to 1e16.
    out = tmp_path / "x"
    assert main(["g1", "--out", str(out), flag, value]) == 1
    assert f"argument {flag}: invalid int value: '{value}'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert main(["g1", "--out", str(out), "--config", str(cfg)]) == 1
    assert f"bad value for '{key}': '{value}'" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]


def test_help_lists_each_experiment_on_its_own_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for experiment in cli.EXPERIMENTS:
        row = next(line for line in cli.__doc__.splitlines() if line.split()[:1] == [experiment])
        assert row in lines


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

    @pytest.mark.parametrize("separation", ["1e-2", "1e-3", "3e-4", "1e-4"])
    def test_unresolved_fringes_are_bad_geometry(self, tmp_path, capsys, monkeypatch, separation):
        # 0.1 to 10 grid points a fringe period: rejected before any sampling.
        monkeypatch.setattr(cli.measurement, "arrival_blocks", fail_if_called)
        out = tmp_path / "x"
        assert main(["g1", "--n", "100", "--out", str(out), "--separation", separation]) == 1
        assert "bad geometry" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["--distance", "5e-324"],  # wavelength*distance underflows to 0
        ["--hole-width", "1e200", "--separation", "1e300"],  # width**2 would overflow
        # a 2 mm fringe period, but 2*pi*x_h overflows in the phase ramp
        ["--wavelength", "1.7e308", "--separation", "1.7e308", "--distance", "2e-3"],
    ])
    def test_geometry_past_the_float_range_is_bad_geometry(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        assert main(["g1", "--n", "10", "--out", str(out), *flags]) == 1
        assert "bad geometry" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_grid_must_resolve_the_fringes(self):
        # 8192 points over 0.4 m: the default 1 cm period has about 205 a
        # period, and a separation 13 times as wide leaves 15.75.
        with pytest.raises(ConfigError, match="15.75 points per fringe period, fewer than the 16"):
            parse_args(["g2", "--out", "x", "--separation", str(5e-6 * 13)])
        assert parse_args(["g2", "--out", "x", "--separation", str(5e-6 * 12.79)]).geometry()

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
        monkeypatch.setattr(cli.measurement, "arrival_blocks", fail_if_called)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        assert main(["g1", "--n", "100", "--out", str(blocker / "sub")]) == 3
        assert "io failure" in capsys.readouterr().err
        assert blocker.read_text() == "a file, not a directory\n"

    def test_numerical_warning_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        def overflow(illumination, geom, n, rng):
            yield np.zeros(n, dtype=int), np.full(n, 1e308) * 10

        monkeypatch.setattr(cli.measurement, "arrival_blocks", overflow)
        out = tmp_path / "x"
        assert main(["g1", "--n", "100", "--out", str(out)]) == 2
        assert "numerical failure: overflow" in capsys.readouterr().err
        assert not out.exists()
        assert staging_dirs(out) == []

    def test_bad_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key=1\n")
        assert main(["g1", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("fault", ["undecodable", "NUL in the path"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, fault):
        if fault == "undecodable":
            cfg, cause = tmp_path / "run.cfg", "'utf-8' codec can't decode byte 0xff in position 19"
            cfg.write_bytes(b"experiment=g1\nseed=\xff\n")
        else:
            cfg, cause = f"{tmp_path / 'a'}\0b", "embedded null byte"
        out = tmp_path / "x"
        assert main(["g1", "--config", str(cfg), "--out", str(out)]) == 1
        assert (f"error: invalid config: cannot read config file {cfg}: {cause}"
                in capsys.readouterr().err)
        assert [path.name for path in tmp_path.iterdir()] == (
            ["run.cfg"] if fault == "undecodable" else [])

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_nul_in_out_is_config_error(self, tmp_path, capsys, monkeypatch, source):
        monkeypatch.setattr(cli.measurement, "arrival_blocks", fail_if_called)
        out = f"{tmp_path / 'a'}\0b"
        if source == "flag":
            argv = ["g1", "--out", out]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"out={out}\n")
            argv = ["g1", "--config", str(cfg)]
        assert main(argv) == 1
        assert f"error: invalid config: --out {out!r} holds a NUL byte" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == (
            [] if source == "flag" else ["run.cfg"])

    @pytest.mark.parametrize("source", ["flag", "code"])
    @pytest.mark.parametrize("line_break", ["\n", "\u2028"])
    def test_line_break_in_out_is_config_error(self, tmp_path, capsys, monkeypatch,
                                               source, line_break):
        # Its echo's out= line would split, and read back as another path.
        monkeypatch.setattr(cli.measurement, "arrival_blocks", fail_if_called)
        out = tmp_path / f"a{line_break}b"
        message = f"--out {str(out)!r} holds a line break"
        if source == "flag":
            assert main(["g1", "--out", str(out)]) == 1
            assert f"error: invalid config: {message}" in capsys.readouterr().err
        else:
            with pytest.raises(ConfigError) as exc:
                cli.RunConfig("g1", out)
            assert str(exc.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_config_key_given_twice_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.measurement, "arrival_blocks", fail_if_called)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=10\nseed=1\n n = 20\n")
        assert main(["g1", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 1
        assert (f"error: invalid config: {cfg}:3: config key 'n' given again (first at line 1)"
                in capsys.readouterr().err)
        assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]

    def test_second_name_for_n_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_electrons=1500\n")
        assert main(["g1", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 1
        assert "unknown config key 'n_electrons'" in capsys.readouterr().err

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


# Faults in a RunConfig built in code: its experiment, fields and --out state,
# and the flags that give main the same value (None where no flag can).
RUN_CONFIG_FAULTS = [
    pytest.param("g1", {"n_electrons": -3}, "absent", ["--n", "-3"], id="n=-3"),
    pytest.param("g1", {"n_electrons": 0}, "absent", ["--n", "0"], id="n=0"),
    pytest.param("g1", {"n_electrons": 2.5}, "absent", ["--n", "2.5"], id="n=2.5"),
    pytest.param("g1", {"n_electrons": True}, "absent", ["--n", "True"], id="n=True"),
    pytest.param("g1", {"seed": -1}, "absent", ["--seed", "-1"], id="seed=-1"),
    pytest.param("g1", {"total_time": -1.0}, "absent", ["--total-time", "-1.0"],
                 id="total_time=-1.0"),
    # an int: the CLI always gives a float, and an int would be echoed as 2, not 2.0
    pytest.param("shelving", {"total_time": 2}, "absent", None, id="total_time=int"),
    pytest.param("g1", {"wavelength": float("nan")}, "absent", ["--wavelength", "nan"],
                 id="wavelength=nan"),
    pytest.param("g1", {"separation": 1e-2}, "absent", ["--separation", "1e-2"],
                 id="separation=1e-2"),
    pytest.param("g9", {}, "absent", [], id="experiment=g9"),
    pytest.param("g1", {}, "non-empty", [], id="non-empty output_dir"),
]


@pytest.mark.parametrize("experiment, fields, out_state, flags", RUN_CONFIG_FAULTS)
def test_run_config_built_in_code_is_checked_as_main_checks_it(
        tmp_path, capsys, experiment, fields, out_state, flags):
    out = tmp_path / "run"
    if out_state == "non-empty":
        out.mkdir()
        (out / "keep.txt").write_text("earlier results\n")
    with pytest.raises(ConfigError) as raised:
        cli.run(cli.RunConfig(experiment, out, **fields))
    if flags is None:
        assert str(raised.value) == "argument --total-time: invalid float value: '2'"
    else:
        assert main([experiment, "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: invalid config: {raised.value}\n"
    assert [path.name for path in tmp_path.iterdir()] == ([] if out_state == "absent" else ["run"])
    assert [path.name for path in out.glob("*")] == ([] if out_state == "absent" else ["keep.txt"])


def test_a_checked_run_config_stays_checked(tmp_path):
    config = cli.RunConfig("g1", tmp_path / "run")
    with pytest.raises(ConfigError, match="--n must be at least 1"):
        dataclasses.replace(config, n_electrons=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.n_electrons = 0
    assert list(tmp_path.iterdir()) == []


def test_run_config_output_dir_must_be_a_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="argument --out: invalid Path value: 'out'"):
        cli.RunConfig("g1", "out")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_n_is_not_capped(experiment):
    # A two-hole run draws its electrons a block at a time, so no --n needs
    # more memory than another; shelving ignores --n.
    assert parse_args([experiment, "--out", "x", "--n", str(10**12)]).n_electrons == 10**12


def test_two_hole_memory_is_set_by_the_block(tmp_path):
    # A run four times as long may not peak higher by as much as one block's arrays.
    peaks = []
    for blocks in (2, 8):
        tracemalloc.start()
        try:
            n = blocks * measurement.CSV_BLOCK_ROWS
            assert main(["g3", "--n", str(n), "--out", str(tmp_path / str(blocks))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # eight 8-byte values per electron: 1 MiB
    one_block_arrays = 64 * measurement.CSV_BLOCK_ROWS
    assert peaks[1] - peaks[0] < one_block_arrays, peaks


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

    def failing_write(path, header, chunks, label_names=()):
        if path.name != "photons.csv":
            return real(path, header, chunks, label_names)

        def first_chunk_then_full_disk():
            for chunk in chunks:
                if written:
                    raise OSError(28, "No space left on device")
                written.append(chunk)
                yield chunk

        return real(path, header, first_chunk_then_full_disk())

    monkeypatch.setattr(cli, "_write_csv", failing_write)
    out = tmp_path / "run"
    assert main(["shelving", "--total-time", "5", "--out", str(out)]) == 3
    assert "io failure" in capsys.readouterr().err
    assert len(written) == 1
    assert not out.exists()
    assert staging_dirs(out) == []


@pytest.mark.parametrize("error, message", [
    (MemoryError(), "an allocation failed"),
    (MemoryError("Unable to allocate 36.3 GiB for an array with shape (4871235892,) "
                 "and data type float64"), "Unable to allocate 36.3 GiB"),
], ids=["bare", "numpy"])
def test_out_of_memory_exits_3_with_one_error_line(tmp_path, monkeypatch, capsys, error, message):
    def exhausted(*args):
        raise error

    monkeypatch.setattr(cli.shelving, "simulate_trajectory", exhausted)
    out = tmp_path / "run"
    assert main(["shelving", "--total-time", "2", "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: out of memory: ") and message in lines[0]
    assert not out.exists()
    assert staging_dirs(out) == []


def test_a_run_is_one_process(tmp_path, subprocess_env):
    # Some 166 000 photons in 5 s: photons.csv spans several blocks.
    code = (
        "import sys, slitlab.cli as cli\n"
        f"assert cli.main(['shelving', '--total-time', '5', '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
    photons = (tmp_path / "run" / "photons.csv").read_bytes()
    assert photons.count(b"\n") > measurement.CSV_BLOCK_ROWS


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

        monkeypatch.setattr(cli.measurement, "arrival_blocks", fail)
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

        monkeypatch.setattr(cli.measurement, "arrival_blocks", fill_parent)
        out = tmp_path / "a" / "b" / "run"
        assert main(["g1", "--n", "10", "--out", str(out)]) == 2
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "a", tmp_path / "a" / "other.txt"]

    @pytest.mark.parametrize("kind", ["non-empty directory", "file"])
    def test_occupied_out_is_rejected_untouched(self, tmp_path, capsys, monkeypatch, kind):
        monkeypatch.setattr(cli.measurement, "arrival_blocks", fail_if_called)
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
        monkeypatch.setattr(cli.measurement, "arrival_blocks", fail_if_called)
        (tmp_path / "empty").mkdir()
        monkeypatch.chdir(tmp_path / "empty")
        assert main(["g1", "--n", "100", "--out", name]) == 1
        assert f"--out {name} does not end in a directory name" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "empty"]

    @pytest.mark.parametrize("short_by", [5, 0])
    def test_name_that_fits_runs(self, tmp_path, short_by):
        # The staging name, ".name." and 8 characters, would not fit uncut.
        out = tmp_path / "parent" / ("r" * (os.pathconf(tmp_path, "PC_NAME_MAX") - short_by))
        assert main(["g1", "--n", "100", "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == artifact_names("g1")
        assert [path.name for path in out.parent.iterdir()] == [out.name]

    @pytest.mark.parametrize("n_bytes", [256, 5000])
    def test_name_too_long_is_rejected(self, tmp_path, capsys, monkeypatch, n_bytes):
        monkeypatch.setattr(cli.measurement, "arrival_blocks", fail_if_called)
        out = tmp_path / "parent" / ("r" * n_bytes)
        assert main(["g1", "--n", "100", "--out", str(out)]) == 1
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        assert (f"error: invalid config: --out has a name of {n_bytes} bytes, more than the "
                f"{name_max} that the file system holds" in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_path_too_long_is_rejected(self, tmp_path, capsys, monkeypatch):
        # Every name fits, but the path is longer than the system's 4096 bytes.
        monkeypatch.setattr(cli.measurement, "arrival_blocks", fail_if_called)
        out = tmp_path.joinpath(*["d" * 200] * 21)
        assert main(["g1", "--n", "100", "--out", str(out)]) == 1
        assert (f"error: invalid config: --out is a path of {len(str(out))} bytes: "
                "File name too long" in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_path_too_long_to_stage_is_rejected(self, tmp_path, capsys, monkeypatch):
        # A path of 4,090 bytes can be looked up, but the staging directory
        # beside it, 10 bytes longer, and the artifacts in that cannot.
        monkeypatch.setattr(cli.measurement, "arrival_blocks", fail_if_called)
        head = tmp_path.joinpath(*["d" * 200] * ((4090 - len(str(tmp_path)) - 2) // 201))
        out = head / ("d" * (4090 - len(str(head)) - 1))
        assert len(str(out)) == 4090
        assert main(["g1", "--n", "100", "--out", str(out)]) == 1
        assert ("error: invalid config: --out is too long to stage: a run writes a path of "
                "4120 bytes, more than the 4095 that the system holds" in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("total_time", ["68719476736", "1e300", "1.7e308"])
def test_total_time_beyond_float64_photon_spacing_is_rejected(tmp_path, capsys, monkeypatch,
                                                              total_time):
    # From 2**36 s on, float64 steps are 2**-16 s, wider than the 1e-5 s
    # between photons; 1e300 s would also need some 1e300 dwells.
    monkeypatch.setattr(cli.shelving, "simulate_trajectory", fail_if_called)
    cli.RunConfig("shelving", tmp_path / "run", total_time=math.nextafter(2.0**36, 0))
    out = tmp_path / "a" / "run"
    assert main(["shelving", "--total-time", total_time, "--out", str(out)]) == 1
    assert (f"--total-time {float(total_time)!r} is too long for float64 to keep photon "
            "times 1e-05 s apart at the record's end" in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_a_run_that_cannot_fit_on_the_disk_is_rejected(tmp_path, capsys, monkeypatch):
    # samples.csv of 1e15 electrons would take about 21 PB; no file system
    # holds a tenth of that.
    monkeypatch.setattr(cli.measurement, "arrival_blocks", fail_if_called)
    out = tmp_path / "a" / "run"
    assert main(["g1", "--n", "1e15", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: the run would write about 2.1e+16 bytes, "
                          "and a tenth of that is more than the "), err
    assert f"bytes free under {tmp_path}\n" in err
    assert list(tmp_path.iterdir()) == []


def test_free_space_is_read_under_out(tmp_path, capsys, monkeypatch):
    # With 1 MB free, a tenth of the 21 MB of a million electrons does not fit.
    seen = []

    def statvfs(path):
        seen.append(path)
        return os.statvfs_result((1000, 1000, 10_000, 1000, 1000, 0, 0, 0, 0, 255))

    monkeypatch.setattr(cli.os, "statvfs", statvfs)
    assert main(["g1", "--n", "1000000", "--out", str(tmp_path / "big")]) == 1
    assert ("about 2.1e+07 bytes, and a tenth of that is more than the 1000000 bytes free "
            f"under {tmp_path}" in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []
    assert main(["g1", "--n", "1000", "--out", str(tmp_path / "small")]) == 0
    assert seen == [tmp_path, tmp_path]


BAD_VALUES = {
    "--n": ["0", "-4", "ten"],
    "--total-time": ["0", "-1e-3", "nan", "inf"],
    "--seed": ["-1", "1.5"],
}


# Each geometry flag is absent, within 10**4 of its default either way, or
# one of these values at the ends of the float range; --total-time is small
# or one of them.
EXTREME_LENGTHS = ["5e-324", "1e-300", "1e300", "1.7e308"]


def near_or_extreme(default):
    near = st.floats(-4.0, 4.0).map(lambda exponent: repr(default * 10**exponent))
    return st.one_of(st.none(), near, st.sampled_from(EXTREME_LENGTHS))


@st.composite
def cli_calls(draw):
    """An argv with small sizes, any geometry and at most one bad size or
    seed, and the state of its --out."""
    values = {
        "--n": draw(st.integers(1, 200).map(str)),
        "--total-time": draw(st.one_of(st.floats(1e-3, 2.0).map(repr),
                                       st.sampled_from(EXTREME_LENGTHS))),
        "--seed": draw(st.integers(0, 2**32).map(str)),
    }
    bad = draw(st.sampled_from([None, None, *BAD_VALUES]))
    if bad:
        values[bad] = draw(st.sampled_from(BAD_VALUES[bad]))
    geom = default_geometry()
    for flag, default in (("--wavelength", geom.de_broglie_wavelength),
                          ("--hole-width", geom.hole_width_a),
                          ("--separation", geom.hole_separation),
                          ("--distance", geom.wall_to_backstop)):
        value = draw(near_or_extreme(default))
        if value is not None:
            values[flag] = value
    argv = [draw(st.sampled_from(cli.EXPERIMENTS))]
    for flag, value in values.items():
        argv += [flag, value]
    return argv, draw(st.sampled_from(["absent", "empty", "non-empty"]))


@st.composite
def config_file_calls(draw):
    """A cli_calls() call, with its --total-time value, some of its values
    moved to config-file lines, and maybe a fault in the file: a byte that
    is not UTF-8, or an out= that holds a NUL, given in place of --out."""
    argv, out_state = draw(cli_calls())
    flags, lines = [], []
    for item in [argv[:1], *(argv[i:i + 2] for i in range(1, len(argv), 2))]:
        if draw(st.booleans()):
            key = item[0][2:].replace("-", "_") if len(item) == 2 else "experiment"
            lines.append(f"{key}={item[-1]}")
        else:
            flags += item
    fault = draw(st.sampled_from([None, None, "undecodable", "NUL in out"]))
    return argv[0], argv[argv.index("--total-time") + 1], flags, lines, fault, out_state


@settings(max_examples=50, deadline=None, derandomize=True)
@given(call=config_file_calls())
# Records float64 cannot time, as a flag and as a config line: no derandomized
# draw gives a shelving run either length.
@example(call=("shelving", "1e300", ["shelving", "--total-time", "1e300"], [], None, "absent"))
@example(call=("shelving", "1.7e308", ["shelving"], ["total_time=1.7e308"], None, "empty"))
def test_main_exits_with_a_code_and_a_complete_output_or_none(call):
    experiment, total_time, argv, lines, fault, out_state = call
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        if out_state != "absent":
            out.mkdir()
        if out_state == "non-empty":
            (out / "keep.txt").write_text("earlier results\n")
        if fault == "NUL in out":
            lines = [*lines, f"out={out}\0b"]
        else:
            argv = [*argv, "--out", str(out)]
        if lines or fault:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_bytes("".join(line + "\n" for line in lines).encode()
                            + (b"# \xff\n" if fault == "undecodable" else b""))
            argv += ["--config", str(cfg)]
        code = main(argv)
        assert code in (0, 1)  # 2 and 3 need a fault in the numerics or the disk
        if experiment == "shelving" and total_time in ("1e300", "1.7e308"):
            assert code == 1  # a record float64 cannot time
        assert staging_dirs(out) == []
        if code == 0:
            assert out_state != "non-empty"
            assert sorted(path.name for path in out.iterdir()) == artifact_names(experiment)
        elif out_state == "absent":
            assert not out.exists()
        else:
            names = [path.name for path in out.iterdir()]
            assert names == ([] if out_state == "empty" else ["keep.txt"])
        assert {path.name for path in Path(tmp).iterdir()} <= {"run", "run.cfg"}


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
        yield np.full(n, cli.OUTCOME_ORDER.index(cli.OutcomeTag.NOT_SEEN)), np.full(n, 0.1)

    monkeypatch.setattr(cli.measurement, "arrival_blocks", far_arrival)
    out = tmp_path / "run"
    assert main(["g1", "--n", "1", "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["visibility_sampled"] is None
    assert summary["visibility_window_arrivals"] == 0
    assert summary["visibility_noise_floor"] is None
    assert summary["chi2_p_value"] is None


@pytest.mark.parametrize("experiment", cli.TWO_HOLE_EXPERIMENTS)
def test_visibility_p_no_fringes_is_the_rayleigh_tail(tmp_path, experiment):
    out = tmp_path / "run"
    assert main([experiment, "--n", "20000", "--seed", "7", "--out", str(out)]) == 0
    summary = read_summary(out)
    arrivals, v = summary["visibility_window_arrivals"], summary["visibility_sampled"]
    assert summary["visibility_p_no_fringes"] == math.exp(-arrivals * v * v / 4)
    if experiment in ("g1", "g3_early_off"):
        # With fringes exp(-N v^2/4) underflows, and the run raises nothing.
        assert summary["visibility_p_no_fringes"] == 0.0


def test_visibility_p_no_fringes_is_null_without_central_arrivals(tmp_path, monkeypatch):
    def far_arrival(config, geom, n, rng):
        yield np.full(n, cli.OUTCOME_ORDER.index(cli.OutcomeTag.NOT_SEEN)), np.full(n, 0.1)

    monkeypatch.setattr(cli.measurement, "arrival_blocks", far_arrival)
    out = tmp_path / "run"
    assert main(["g1", "--n", "1", "--out", str(out)]) == 0
    assert read_summary(out)["visibility_p_no_fringes"] is None


# sha256 of the artifacts at --n 20000 --seed 7.  A change to the sampler,
# the chi-square policy or the writer that alters any output byte fails
# here; update a digest only for an intended change of output.
PINNED_SHA256 = {
    "g1": {
        "density.csv": "dc7c0a5dc35c2611844d5eace004a9300c4ec506bc18d0df2d351981ad8763a8",
        "samples.csv": "472afa10de4f24be412d8ff5e93ff809f09743a902af673a68937952e63d4e4c",
        "summary.json": "1d9de19e53aad8b8402ccb78f9287795596baf2a557732d3294d9ed6c769beba",
    },
    "g2": {
        "density.csv": "09dcc04dde2298993ae7e26cbd2ce6a4f5dc4486a7dd24bf35ae4df44e14a514",
        "samples.csv": "7ce0f45eee4e2de8c4f3242717743416bbfc03f55244a29ca4781404305ba1ff",
        "summary.json": "20e7aa4ce630d2e45a4e529ad33eb626873a8faa12f1341a91761fffc0fc4e41",
    },
    "g3": {
        "density.csv": "09dcc04dde2298993ae7e26cbd2ce6a4f5dc4486a7dd24bf35ae4df44e14a514",
        "samples.csv": "a39c16f4ccc0fb8c1e21594c11a09f28f3e8523f16ddc86602d03c0e4a991d8e",
        "summary.json": "59fdaf8a1091e90b87f77d6d90e66cb75018fd19b9bb1eb79634b0418156be97",
    },
    "g3_early_off": {
        "density.csv": "dc7c0a5dc35c2611844d5eace004a9300c4ec506bc18d0df2d351981ad8763a8",
        "samples.csv": "472afa10de4f24be412d8ff5e93ff809f09743a902af673a68937952e63d4e4c",
        "summary.json": "c67818f9f6e3617b2404fb2e002de6e8f18c08778e325074d169c787ebf401ca",
    },
}


@pytest.mark.parametrize("experiment", sorted(PINNED_SHA256))
def test_artifacts_match_pinned_digests(tmp_path, experiment):
    out = tmp_path / experiment
    assert main([experiment, "--n", "20000", "--seed", "7", "--out", str(out)]) == 0
    for name, digest in PINNED_SHA256[experiment].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# sha256 of the artifacts at --n 200003 --seed 7: twelve full 16,384-row
# blocks and a ragged one of 3,395 rows.  The tables were taken from the
# one-shot sampler before arrivals were drawn block by block, so a stream
# whose blocks do not join into the one-shot draws fails here;
# summary.json was taken once its visibility was summed in arrival order.
MULTI_BLOCK_N = 200_003
MULTI_BLOCK_PINNED_SHA256 = {
    "g2": {
        "density.csv": "09dcc04dde2298993ae7e26cbd2ce6a4f5dc4486a7dd24bf35ae4df44e14a514",
        "samples.csv": "fde026c15a769e96d1a97401e98094764c7ef8e55b679d52040a8238ee107965",
        "summary.json": "b476c23d7b6f344b82280dbd8ef09ab4e9f13a05ec3bd6b27c4b1c158b9225e3",
    },
    "g3": {
        "density.csv": "09dcc04dde2298993ae7e26cbd2ce6a4f5dc4486a7dd24bf35ae4df44e14a514",
        "samples.csv": "98a4cd8e735afb2dfe84d62cae4784a651f995f024e29768796d8ace12fd5b27",
        "summary.json": "4b4cc09c2507e01e43ea0506725fa77e14fb17de8fa317e2f5924ca9a9ba8c99",
    },
}


@pytest.mark.parametrize("experiment", sorted(MULTI_BLOCK_PINNED_SHA256))
def test_multi_block_artifacts_match_pinned_digests(tmp_path, experiment):
    out = tmp_path / experiment
    assert main([experiment, "--n", str(MULTI_BLOCK_N), "--seed", "7", "--out", str(out)]) == 0
    for name, digest in MULTI_BLOCK_PINNED_SHA256[experiment].items():
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


@pytest.mark.parametrize("block_rows", [1000, 65_536])
def test_csv_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, block_rows):
    # measurement.CSV_BLOCK_ROWS sets the sampler's blocks, the writer's
    # and those that the statistics are fed; no artifact's bytes may move.
    monkeypatch.setattr(measurement, "CSV_BLOCK_ROWS", block_rows)
    runs = [([experiment, "--n", str(MULTI_BLOCK_N)], digests)
            for experiment, digests in MULTI_BLOCK_PINNED_SHA256.items()]
    runs.append((["shelving", "--total-time", "10"], SHELVING_PINNED_SHA256[7]))
    for argv, digests in runs:
        out = tmp_path / argv[0]
        assert main(argv + ["--seed", "7", "--out", str(out)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (argv, name)


def reference_write_csv(path, header, chunks, label_names=()) -> int:
    """The per-cell writer that the column-wise one replaced, kept as its reference.

    Each float is written as its repr.  In a labelled table, the code
    column (the first or the last, whichever is not float64) is written as
    the names its codes index, in the column's place.  It reads every row
    of every chunk before writing any, and returns the row count.
    """
    lines = [",".join(header)]
    for columns in chunks:
        cells = [[repr(value) for value in column.tolist()] for column in columns]
        if label_names:
            at = 0 if columns[0].dtype != np.float64 else -1
            cells[at] = [label_names[code] for code in columns[at]]
        lines += map(",".join, zip(*cells))
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


def assert_writers_agree(tmp_path, header, columns, label_names=()):
    """_write_csv writes the reference's bytes; return them."""
    reference_write_csv(tmp_path / "reference.csv", header, [columns], label_names)
    reference = (tmp_path / "reference.csv").read_bytes()
    cli._write_csv(tmp_path / "new.csv", header, [columns], label_names)
    assert (tmp_path / "new.csv").read_bytes() == reference
    return reference


BLOCK = measurement.CSV_BLOCK_ROWS


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK, BLOCK + 1, 4 * BLOCK, 4 * BLOCK + 1])
def test_writer_matches_reference_at_block_edges(tmp_path, n_rows):
    # The labelled tables' shapes in a run: samples.csv's float column and
    # trailing outcome, trajectory.csv's leading state and two float columns.
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
    codes = rng.integers(0, 3, n_rows)
    for header, columns in ((["x", "outcome"], [floats, codes]),
                            (["outcome", "x", "y"], [codes, floats, floats / 3])):
        text = assert_writers_agree(tmp_path, header, columns, OUTCOMES)
        assert text.count(b"\n") == n_rows + 1
    single = assert_writers_agree(tmp_path, ["x"], [floats])
    if n_rows == 0:
        assert single == b"x\n"


def test_writer_matches_reference_on_edge_cells(tmp_path):
    floats = np.array([-0.0, 1e-05, 1e16, 5e-324, 0.1, -1.5e-300, float("inf"), float("nan")])
    codes = np.arange(len(floats)) % 2
    names = ("bright", "dark")
    trailing = assert_writers_agree(tmp_path, ["x", "y", "state"], [floats, -floats, codes], names)
    rows = trailing.decode().splitlines()
    assert rows[1] == "-0.0,0.0,bright"
    assert rows[2] == "1e-05,-1e-05,dark"
    assert rows[3] == "1e+16,-1e+16,bright"
    assert rows[4] == "5e-324,-5e-324,dark"
    leading = assert_writers_agree(tmp_path, ["state", "x", "y"], [codes, floats, -floats], names)
    assert leading.decode().splitlines()[1:5] == [
        "bright,-0.0,0.0", "dark,1e-05,-1e-05", "bright,1e+16,-1e+16", "dark,5e-324,-5e-324"]


# orjson writes floats in repr's text only inside cli._ORJSON_FLOATS; these
# are its edges and their neighbours, with NaN, infinities and zeros.
ORJSON_EDGES = [sign * edge for edge in (1e-4, 1e16) for sign in (1.0, -1.0)]
EDGE_FLOATS = ORJSON_EDGES + [float(np.nextafter(edge, toward)) for edge in ORJSON_EDGES
                              for toward in (-np.inf, np.inf)] + [
    0.0, -0.0, 5e-324, float("nan"), float("inf"), float("-inf")]
OUTCOMES = ("seen_at_a", "seen_at_b", "not_seen")


# Three float columns: runs of two ordinary rows between rows of edge cells.
THREE_COLUMN_ROWS = [row for i, x in enumerate(EDGE_FLOATS)
                     for row in [(1.5 + i, -2.25e3, 1e15), (0.1, 7e-4, -i - 1.0), (x, 2.5, -x)]]


# Both fail if an orjson release writes a float differently, rather than
# letting the artifacts drift.  One to four float columns: a lone column and
# several take different orjson layouts, and rows with a cell outside
# cli._ORJSON_FLOATS take repr.
@given(st.integers(1, 4).flatmap(
    lambda n_columns: st.lists(st.tuples(*[st.floats()] * n_columns), min_size=1)))
@example([(x,) for x in EDGE_FLOATS])
@example(THREE_COLUMN_ROWS)
def test_float_cells_are_repr_text(rows):
    columns = [np.array(column) for column in zip(*rows)]
    expected = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    assert cli._float_rows(columns) == expected.encode()


@given(st.lists(st.tuples(st.floats(), st.sampled_from(OUTCOMES)), min_size=1))
@example([(x, OUTCOMES[i % 3]) for i, x in enumerate(EDGE_FLOATS)])
def test_float_and_label_rows_are_repr_text(rows):
    # The label trails the float, as in samples.csv, and leads it.
    xs, labels = zip(*rows)
    xs = np.array(xs)
    codes = np.array([OUTCOMES.index(label) for label in labels])
    for columns, row_text in (([xs, codes], "{x!r},{label}\n"), ([codes, xs], "{label},{x!r}\n")):
        fh = io.BytesIO()
        cli._write_chunk(fh, OUTCOMES, columns)
        expected = "".join(row_text.format(x=x, label=label) for x, label in rows)
        assert fh.getvalue() == expected.encode()


@pytest.mark.parametrize("illumination", [Illumination.BOTH_HOLES, Illumination.HOLE_A],
                         ids=lambda illumination: illumination.value)
def test_labelled_block_holds_its_text_once(tmp_path, illumination):
    # The float text of a block is held once, and its labels are put in a
    # piece at a time as it is written: writing peaks at no more than that
    # text and the output.
    index, positions = next(measurement.arrival_blocks(
        illumination, default_geometry(), measurement.CSV_BLOCK_ROWS, np.random.default_rng(1)))
    float_text = cli._float_rows([positions])
    row_ends = [f",{name}\n".encode() for name in OUTCOMES]
    with open(tmp_path / "samples.csv", "wb") as fh:
        tracemalloc.start()
        try:
            cli._write_labelled(fh, bytearray(cli._float_rows([positions])), row_ends, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    output = (tmp_path / "samples.csv").read_bytes()
    assert output.count(b"\n") == len(positions)
    assert peak <= len(float_text) + len(output), peak


@pytest.mark.parametrize("piece_bytes", [1, 7])
def test_label_pieces_may_end_anywhere(tmp_path, monkeypatch, piece_bytes):
    # Pieces of one byte, and of seven (no divisor of a row's length), end
    # inside rows, at their starts and on their newlines.
    monkeypatch.setattr(cli, "_LABEL_PIECE_BYTES", piece_bytes)
    n_rows = BLOCK + BLOCK // 2
    rng = np.random.default_rng(piece_bytes)
    columns = [rng.standard_normal(n_rows), rng.integers(0, 3, n_rows)]
    assert_writers_agree(tmp_path, ["x_m", "outcome"], columns, OUTCOMES)


def test_chunk_edges_do_not_change_the_bytes(tmp_path):
    n_rows = measurement.CSV_BLOCK_ROWS + 10
    rng = np.random.default_rng(3)
    floats = rng.standard_normal(n_rows)
    codes = rng.integers(0, 2, n_rows)
    # an empty first chunk, an empty chunk in the middle, one longer than a block, an empty tail
    cuts = [0, 0, 5, 5, measurement.CSV_BLOCK_ROWS + 7, n_rows, n_rows]
    for header, table in ((["t", "state"], lambda a, b: [floats[a:b], codes[a:b]]),
                          (["state", "t"], lambda a, b: [codes[a:b], floats[a:b]])):
        whole = assert_writers_agree(tmp_path, header, table(0, n_rows), ("bright", "dark"))
        chunks = [table(a, b) for a, b in zip(cuts, cuts[1:])]
        cli._write_csv(tmp_path / "chunked.csv", header, iter(chunks), ("bright", "dark"))
        assert (tmp_path / "chunked.csv").read_bytes() == whole, header
