"""CLI: exit codes, output formats, deterministic data files."""

import dataclasses
import json
import math
import subprocess
import sys

import pytest

from simplexvol import oracles
from simplexvol.cli import main

RUN = [sys.executable, "-m", "simplexvol.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def test_volume_ideal_d2():
    r = run_cli("volume", "--ideal", "2", "--kappa", "-1", "--format", "json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert abs(out["volume"] - math.pi) < 1e-8
    assert out["abs_error"] > 0
    assert "residual_imag" in out


def test_volume_rejects_zero_side():
    r = run_cli("volume", "--regular", "3", "--ell", "0", "--kappa", "-1")
    assert r.returncode == 2


def test_volume_rejects_nan_tolerance(capsys):
    assert main(["volume", "--regular", "3", "--ell", "1", "--kappa", "-1",
                 "--tol", "nan"]) == 2
    assert capsys.readouterr().err.startswith("domain error:")


def test_volume_rejects_kappa_below_bound_citing_it():
    r = run_cli("volume", "--orthocentric", "1,1,1", "--kappa", "-1.6")
    assert r.returncode == 2
    assert "-1.5" in r.stderr


def test_volume_requires_exactly_one_geometry():
    for args in (["--ideal", "2", "--regular", "3", "--ell", "1"], []):
        r = run_cli("volume", *args, "--kappa", "-1")
        assert r.returncode == 2


def test_volume_text_format_carries_error_estimate():
    r = run_cli("volume", "--regular", "3", "--ell", "1", "--kappa", "-1")
    assert r.returncode == 0
    assert "abs_error" in r.stdout
    assert "residual_imag" in r.stdout


def test_volume_inf_side_length():
    r = run_cli("volume", "--regular", "2", "--ell", "inf", "--kappa", "-1",
                "--format", "json")
    assert r.returncode == 0
    assert abs(json.loads(r.stdout)["volume"] - math.pi) < 1e-8


def test_sweep_deterministic_and_monotone(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    a1 = ["sweep", "--d", "3", "--kappa", "-1", "--ell-grid", "0.5,1,2,inf",
          "--out", str(out1)]
    a2 = ["sweep", "--d", "3", "--kappa", "-1", "--ell-grid", "0.5,1,2,inf",
          "--out", str(out2)]
    assert run_cli(*a1).returncode == 0
    assert run_cli(*a2).returncode == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().splitlines()
    manifest = json.loads(lines[0][2:])
    assert manifest["command"] == "sweep"
    assert manifest["tool_version"]
    assert "wall_time_ms" not in manifest
    assert lines[1] == "param,volume,abs_error,residual_imag,status,monotone"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [r[5] for r in rows] == ["first", "yes", "yes", "yes"]
    assert all(r[4] == "ok" for r in rows)
    # last row is the ideal value
    assert abs(float(rows[-1][1]) - 1.0149416064096535) < 1e-8


def test_sweep_builds_each_row_once(monkeypatch, capsys):
    # one regular_parameters call per row, whichever module makes it, and each
    # row is bit for bit the regular_volume of its side length
    import simplexvol.cli as cli
    import simplexvol.engine as engine
    from simplexvol.geometry import regular_parameters

    grid = (0.5, 1.0, 2.0)
    expected = [engine.regular_volume(3, ell, -1.0) for ell in grid]
    calls = []

    def counted(*args):
        calls.append(args)
        return regular_parameters(*args)

    monkeypatch.setattr(cli, "regular_parameters", counted)
    monkeypatch.setattr(engine, "regular_parameters", counted)
    assert main(["sweep", "--d", "3", "--kappa", "-1", "--ell-grid", "0.5,1,2"]) == 0
    assert len(calls) == len(grid)
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[2:]]
    assert [row[1:4] for row in rows] == [
        [repr(r.volume), repr(r.abs_error), repr(r.residual_imag)] for r in expected]


def test_sweep_empty_grid():
    r = run_cli("sweep", "--d", "3", "--kappa", "-1", "--ell-grid", "")
    assert r.returncode == 0


def test_sweep_log_range(tmp_path):
    out = tmp_path / "c.csv"
    r = run_cli("sweep", "--d", "2", "--kappa", "-1",
                "--ell-log-range", "0.5:2:3", "--out", str(out))
    assert r.returncode == 0
    assert len(out.read_text().strip().splitlines()) == 2 + 3


def test_verify_ideal_values_passes():
    assert main(["verify", "ideal-values"]) == 0


def test_verify_rotation_passes():
    assert main(["verify", "rotation"]) == 0


def test_verify_phi_passes():
    assert main(["verify", "phi", "--samples", "2000"]) == 0


@pytest.mark.parametrize("suite", [
    ["abrosimov"], ["klein-direct"], ["mc-spherical"], ["asymptotic", "--dmax", "11"],
], ids=lambda s: s[0])
def test_verify_suite_passes(suite):
    assert main(["verify", *suite]) == 0


def test_sweep_marks_failed_rows_and_exits_3(monkeypatch, capsys):
    import simplexvol.cli as cli
    from simplexvol.errors import ToleranceError

    real = cli.volumes
    tau_at_2 = cli.regular_parameters(3, 2.0, -1.0).taus[0]

    def flaky(reqs):
        return [ToleranceError("synthetic failure") if req.geometry.taus[0] == tau_at_2
                else res for req, res in zip(reqs, real(reqs))]

    monkeypatch.setattr(cli, "volumes", flaky)
    code = main(["sweep", "--d", "3", "--kappa", "-1", "--ell-grid", "1,2"])
    out = capsys.readouterr().out
    assert code == 3
    assert out.splitlines()[-1] == "2.0,nan,nan,nan,failed:ToleranceError,n/a"


def test_sweep_writes_a_refused_row_and_exits_3(capsys):
    # the 30-simplex of side 1e-12 has a volume of about 1e-360, which
    # rounds to 0, below the double range
    code = main(["sweep", "--d", "30", "--kappa", "-1", "--ell-grid", "1,1e-12"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert lines[2].endswith(",ok,first")
    assert lines[3] == "1e-12,nan,nan,nan,failed:OverflowRegionError,n/a"


def test_sweep_makes_one_volumes_call(monkeypatch, capsys):
    import simplexvol.cli as cli

    calls = []
    real = cli.volumes
    monkeypatch.setattr(cli, "volumes", lambda reqs: calls.append(len(reqs)) or real(reqs))
    assert main(["sweep", "--d", "5", "--kappa", "-1", "--ell-grid", "0.1,1,3,6,inf"]) == 0
    assert calls == [5]
    assert cli.build_parser() is cli.build_parser()


def test_abrosimov_makes_one_volumes_call(monkeypatch, capsys):
    import simplexvol.cli as cli

    calls = []
    real = cli.volumes
    monkeypatch.setattr(cli, "volumes", lambda reqs: calls.append(len(reqs)) or real(reqs))
    assert main(["verify", "abrosimov"]) == 0
    assert calls == [5]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(ln.startswith("PASS regular d=3 ") for ln in lines)


def test_ideal_values_makes_one_volumes_call(monkeypatch, capsys):
    import simplexvol.cli as cli

    calls = []
    real = cli.volumes
    monkeypatch.setattr(cli, "volumes", lambda reqs: calls.append(len(reqs)) or real(reqs))
    assert main(["verify", "ideal-values"]) == 0
    assert calls == [3]
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "PASS ideal d=2 vs pi", "PASS ideal d=3 vs log-sine integral",
        "PASS ideal d=4 vs closed form"]


def test_verify_asymptotic_to_d20(capsys):
    assert main(["verify", "asymptotic", "--dmax", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        f"PASS asymptotic d={d}" for d in range(10, 21)]


def test_verify_asymptotic_checks_the_engine(monkeypatch, capsys):
    # one volumes() call for the ideal d = 10..dmax rows, up to the engine's
    # certified d = 150
    import simplexvol.cli as cli

    calls = []
    real = cli.volumes
    monkeypatch.setattr(cli, "volumes", lambda reqs: calls.append(len(reqs)) or real(reqs))
    assert main(["verify", "asymptotic", "--dmax", "150"]) == 0
    assert calls == [141]
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        f"PASS asymptotic d={d}" for d in range(10, 151)]


def test_mc_spherical_quantile_is_chi2_3_at_1e4():
    from scipy import stats

    import simplexvol.cli as cli
    assert cli._CHI2_3_AT_1E4 == pytest.approx(stats.chi2.isf(1e-4, 3), rel=1e-5)


@pytest.mark.parametrize("seed", [59, 226, 344, 395, 397])
def test_verify_mc_spherical_judges_the_trials_jointly(capsys, seed):
    # at these seeds one trial of three lies 3.05 to 3.41 standard errors
    # from the engine, which failed a 3-SE test per trial; their sums of
    # squared z-scores, 10.6 to 12.4, are within the chi-squared(3) quantile
    assert main(["verify", "mc-spherical", "--samples", "20000", "--seed", str(seed)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(ln.startswith("PASS ") for ln in lines)


def test_verify_mc_spherical_fails_an_engine_value_ten_errors_off(monkeypatch, capsys):
    import simplexvol.cli as cli

    reports = []
    real_mc, real_volumes = oracles.mc_spherical_volumes, cli.volumes

    def shifted(reqs):
        out = real_volumes(reqs)
        out[1] = dataclasses.replace(out[1], volume=out[1].volume + 10 * reports[1].std_error)
        return out

    monkeypatch.setattr(oracles, "mc_spherical_volumes",
                        lambda jobs: reports.extend(real_mc(jobs)) or reports)
    monkeypatch.setattr(cli, "volumes", shifted)
    assert main(["verify", "mc-spherical"]) == 1
    assert capsys.readouterr().out.startswith("FAIL mc-spherical")


def test_tolerance_error_maps_to_exit_3(monkeypatch):
    import simplexvol.cli as cli
    from simplexvol.errors import ToleranceError

    def boom(req):
        raise ToleranceError("synthetic")

    monkeypatch.setattr(cli, "volume", boom)
    assert main(["volume", "--ideal", "2", "--kappa", "-1"]) == 3



def test_a_volume_below_the_double_range_exits_2(capsys):
    # the 30-simplex of side 1e-12 rounds to 0 +- 0: an OverflowRegionError,
    # which the CLI reports as a domain error
    assert main(["volume", "--regular", "30", "--ell", "1e-12", "--kappa", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "past the double range" in err

def test_cost_limit_maps_to_exit_3(monkeypatch, capsys):
    import simplexvol.cli as cli
    from simplexvol.errors import CostLimitError

    def boom(req):
        raise CostLimitError("synthetic")

    monkeypatch.setattr(cli, "volume", boom)
    assert main(["volume", "--ideal", "2", "--kappa", "-1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cost limit:")
    assert len(err.strip().splitlines()) == 1


def test_kappa_scaling_in_sweeps():
    # kappa = -4 sweep equals the kappa = -1 sweep at doubled lengths / 8 (d = 3)
    r1 = run_cli("sweep", "--d", "3", "--kappa", "-4", "--ell-grid", "0.5,1")
    r2 = run_cli("sweep", "--d", "3", "--kappa", "-1", "--ell-grid", "1,2")
    v1 = [float(ln.split(",")[1]) for ln in r1.stdout.strip().splitlines()[2:]]
    v2 = [float(ln.split(",")[1]) for ln in r2.stdout.strip().splitlines()[2:]]
    for a, b in zip(v1, v2):
        assert abs(a - b / 8.0) < 1e-9


@pytest.mark.parametrize("name", ["SectorError", "OverflowRegionError",
                                  "RankDeficiencyError"])
def test_other_library_errors_map_to_exit_2(monkeypatch, capsys, name):
    import simplexvol.cli as cli
    from simplexvol import errors

    def boom(req):
        raise getattr(errors, name)("synthetic")

    monkeypatch.setattr(cli, "volume", boom)
    assert main(["volume", "--ideal", "2", "--kappa", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("kappa", ["nan", "inf", "-inf"])
def test_volume_rejects_non_finite_kappa(capsys, kappa):
    assert main(["volume", "--orthocentric", "1,1,1", f"--kappa={kappa}"]) == 2
    assert "kappa" in capsys.readouterr().err


def test_sweep_rejects_nan_side_length(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--d", "3", "--ell-grid", "1,nan,2", "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["sweep", "--d", "3", "--ell-grid", "1,nan,2"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [
    ["--d", "2", "--ell-log-range", "nan:2:2"],
    ["--d", "2", "--ell-grid", "1,-inf"],
    ["--d", "2", "--ell-grid", "0,1"],
    ["--d", "2", "--ell-grid", "1,2", "--kappa", "1"],
    ["--d", "1", "--ell-grid", "1,2"],
    ["--d", "1", "--ell-grid", ""],
    ["--d", "2", "--ell-grid", "", "--kappa", "5"],
], ids=["nan-range", "minus-inf", "zero", "positive-kappa", "d1", "d1-empty-grid",
        "positive-kappa-empty-grid"])
def test_sweep_checks_whole_grid_before_any_row(tmp_path, capsys, args):
    # one bad value rejects the sweep with exit 2 before a row is computed
    out = tmp_path / "s.csv"
    assert main(["sweep", *args, "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["sweep", *args]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("tol", ["0", "nan", "-1e-10"])
def test_sweep_checks_tolerance_on_an_empty_grid(tmp_path, capsys, tol):
    # the ideal simplex that checks d and kappa on an empty grid checks the
    # tolerance as well, as a one-row grid does
    out = tmp_path / "s.csv"
    args = ["sweep", "--d", "3", "--ell-grid", "", f"--tol={tol}"]
    assert main([*args, "--out", str(out)]) == 2
    assert not out.exists()
    assert main(args) == 2
    assert capsys.readouterr().out == ""


def test_volume_json_names_the_series_path(capsys):
    assert main(["volume", "--regular", "3", "--ell", "1.5", "--kappa", "-1",
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["branch"] == "series" and out["residual_imag"] == 0.0
    assert main(["volume", "--ideal", "3", "--kappa", "-1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["branch"] == "series"
    # a near-ideal tetrahedron (rho = 0.9993) takes the series with its
    # closed-form tail, and an orthocentric one the series over its taus at
    # kappa < 0 and the ray at kappa > 0
    assert main(["volume", "--regular", "3", "--ell", "8", "--kappa", "-1",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["branch"] == "series"
    assert main(["volume", "--orthocentric", "1,1.2,0.9,1.1", "--kappa", "-0.5",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["branch"] == "series"
    assert main(["volume", "--orthocentric", "1,1.2,0.9,1.1", "--kappa", "0.5",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["branch"] == "upper_ray"


def test_volume_csv_format(capsys):
    from simplexvol.engine import regular_volume
    assert main(["volume", "--ideal", "2", "--kappa", "-1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("# ")
    assert json.loads(lines[0][2:])["command"] == "volume"
    assert lines[1] == "param,volume,abs_error,residual_imag,status"
    r = regular_volume(2, math.inf, -1.0)
    assert lines[2] == (f",{float(r.volume)!r},{float(r.abs_error)!r},"
                        f"{float(r.residual_imag)!r},ok")


def test_volume_euclidean_tiny_triangle(capsys):
    # the equilateral triangle of side sqrt(2)*1e-11
    assert main(["volume", "--orthocentric", "1e11,1e11,1e11", "--kappa", "0",
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["volume"] == 8.660254037844386e-23
    assert 0.0 < out["abs_error"] < out["volume"]


@pytest.mark.parametrize("dmax", ["9", "0"])
def test_verify_fails_when_a_suite_runs_no_checks(capsys, dmax):
    # the asymptotic suite runs d = 10..dmax; --dmax 0 is not the default 14
    assert main(["verify", "asymptotic", "--dmax", dmax]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ran no checks" in captured.err


@pytest.mark.parametrize("suite", ["phi", "mc-spherical"])
def test_verify_rejects_non_positive_samples(capsys, suite):
    # --samples 0 used to fall back silently to the suite's default
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--samples", "0"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_verify_mc_single_sample_is_a_domain_error(capsys):
    assert main(["verify", "mc-spherical", "--samples", "1"]) == 2
    assert capsys.readouterr().err.startswith("domain error:")


#: the verify flags each suite reads; every other flag it is given exits 2
_SUITE_FLAGS = {
    "phi": ("--samples", "--seed"),
    "rotation": (),
    "ideal-values": (),
    "abrosimov": (),
    "mc-spherical": ("--samples", "--seed"),
    "klein-direct": ("--seed",),
    "asymptotic": ("--dmax",),
}


@pytest.mark.parametrize("suite, flag", [
    (suite, flag) for suite, reads in _SUITE_FLAGS.items()
    for flag in ("--samples", "--seed", "--dmax") if flag not in reads
])
def test_verify_rejects_flags_the_suite_does_not_read(capsys, suite, flag):
    assert main(["verify", suite, flag, "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error:")
    assert flag in captured.err


def test_volume_regular_requires_ell(capsys):
    assert main(["volume", "--regular", "3", "--kappa", "-1"]) == 2
    assert capsys.readouterr().err == "domain error: --regular requires --ell\n"


def test_sweep_requires_a_grid(capsys):
    assert main(["sweep", "--d", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "domain error: sweep requires --ell-grid or --ell-log-range\n"


def test_verify_names_the_first_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(oracles, "ideal_tetrahedron_volume", lambda: 0.0)
    assert main(["verify", "ideal-values"]) == 1
    captured = capsys.readouterr()
    assert "FAIL ideal d=3 vs log-sine integral" in captured.out
    assert captured.err == "first failing check: ideal d=3 vs log-sine integral\n"


@pytest.mark.parametrize("args", [
    ["volume", "--ideal", "3", "--format", "json"],
    ["sweep", "--d", "2", "--ell-grid", "1,inf"],
], ids=["volume", "sweep"])
def test_exponent_form_negative_values_are_values(capsys, args):
    # argparse's own negative-number pattern has no exponent, so it used to
    # take -1e-3 for an option and exit 2 with "expected one argument"
    outputs = []
    for kappa in ("-1e-3", "-0.001"):
        assert main(args + ["--kappa", kappa]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # a negative tolerance now reaches the library's own check
    assert main(args + ["--kappa", "-1", "--tol", "-1e-10"]) == 2
    assert capsys.readouterr().err == "domain error: tolerance must be positive\n"
