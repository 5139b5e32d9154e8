"""Command-line runs: artifacts, determinism, exit codes."""

import hashlib
import json

import numpy as np
import pytest

import slitlab.cli as cli
from slitlab.cli import ConfigError, main, parse_args


def read_summary(path):
    return json.loads((path / "summary.json").read_text())


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

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        assert main(["g1", "--n", "100", "--out", str(blocker / "sub")]) == 3
        assert "io failure" in capsys.readouterr().err

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
    ["g1", "--hole-width", "1e-3"],  # holes overlap: SlitGeometry fails inside run
    ["g3", "--hole-width", "1e-3"],
    ["g1", "--wavelength", "nan"],
    ["g1", "--separation", "inf"],
])
def test_failed_run_leaves_no_output_directory(tmp_path, argv):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) != 0
    assert not out.exists()


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


def test_visibility_sampled_is_null_without_central_arrivals(tmp_path, monkeypatch):
    # One unseen electron, placed outside the +-3-period window.
    def far_arrival(config, geom, n, rng):
        return np.full(n, cli.OUTCOME_ORDER.index(cli.OutcomeTag.NOT_SEEN)), np.full(n, 0.1)

    monkeypatch.setattr(cli.measurement, "sample_arrivals", far_arrival)
    out = tmp_path / "run"
    assert main(["g1", "--n", "1", "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["visibility_sampled"] is None
    assert summary["chi2_p_value"] is None


# sha256 of the artifacts at --n 20000 --seed 7.  A change to the sampler,
# the chi-square policy or the writer that alters any output byte fails
# here; update a digest only for an intended change of output.
PINNED_SHA256 = {
    "g1": {
        "density.csv": "dc7c0a5dc35c2611844d5eace004a9300c4ec506bc18d0df2d351981ad8763a8",
        "samples.csv": "472afa10de4f24be412d8ff5e93ff809f09743a902af673a68937952e63d4e4c",
        "summary.json": "22aa7b95b3803acc0e847dfda141f591700445f5b1f2fa8b0ecffa8090908eb8",
    },
    "g2": {
        "density.csv": "09dcc04dde2298993ae7e26cbd2ce6a4f5dc4486a7dd24bf35ae4df44e14a514",
        "samples.csv": "7ce0f45eee4e2de8c4f3242717743416bbfc03f55244a29ca4781404305ba1ff",
        "summary.json": "725fc65a0e68cfb422989160dfcd4c753f709b4c4c4a2e2c40e11775c6d63d2d",
    },
    "g3": {
        "density.csv": "09dcc04dde2298993ae7e26cbd2ce6a4f5dc4486a7dd24bf35ae4df44e14a514",
        "samples.csv": "a39c16f4ccc0fb8c1e21594c11a09f28f3e8523f16ddc86602d03c0e4a991d8e",
        "summary.json": "4fc47acbdeed05d2f0f0f52b9517c8776a9c86626d19fa9d5c19ef7877674d8f",
    },
    "g3_early_off": {
        "density.csv": "dc7c0a5dc35c2611844d5eace004a9300c4ec506bc18d0df2d351981ad8763a8",
        "samples.csv": "472afa10de4f24be412d8ff5e93ff809f09743a902af673a68937952e63d4e4c",
        "summary.json": "f732052e3e732055a4c9be790a691d5953943532d0214a412ff8da5eeaf57d7a",
    },
}


@pytest.mark.parametrize("experiment", sorted(PINNED_SHA256))
def test_artifacts_match_pinned_digests(tmp_path, experiment):
    out = tmp_path / experiment
    assert main([experiment, "--n", "20000", "--seed", "7", "--out", str(out)]) == 0
    for name, digest in PINNED_SHA256[experiment].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def reference_fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_write_csv(path, header, columns) -> None:
    """The per-cell writer that the column-wise one replaced, kept as its reference."""
    columns = [[column.names[i] for i in column.codes] if isinstance(column, cli._Labels)
               else column for column in columns]
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(reference_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="")


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
    cli._write_csv(tmp_path / "new.csv", header, columns)
    reference_write_csv(tmp_path / "reference.csv", header, columns)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "reference.csv").read_bytes()
    return new


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
