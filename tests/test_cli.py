"""CLI: exit codes, output formats, deterministic data files."""

import json
import math
import subprocess
import sys

import pytest

from simplexvol.cli import main

RUN = [sys.executable, "-m", "simplexvol.cli"]


def run_cli(*args, env=None):
    import os
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(RUN + list(args), capture_output=True, text=True, env=e)


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
    r = run_cli("volume", "--ideal", "2", "--regular", "3", "--ell", "1",
                "--kappa", "-1")
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
    assert run_cli(*a2, env={"SIMPLEXVOL_THREADS": "4"}).returncode == 0
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

    real = cli.regular_volume

    def flaky(d, ell, kappa, tolerance=1e-10):
        if ell > 1.5:
            raise ToleranceError("synthetic failure")
        return real(d, ell, kappa, tolerance=tolerance)

    monkeypatch.setattr(cli, "regular_volume", flaky)
    code = main(["sweep", "--d", "3", "--kappa", "-1", "--ell-grid", "1,2"])
    out = capsys.readouterr().out
    assert code == 3
    assert out.splitlines()[-1] == "2.0,nan,nan,nan,failed:ToleranceError,n/a"


def test_tolerance_error_maps_to_exit_3(monkeypatch):
    import simplexvol.cli as cli
    from simplexvol.errors import ToleranceError

    def boom(req):
        raise ToleranceError("synthetic")

    monkeypatch.setattr(cli, "volume", boom)
    assert main(["volume", "--ideal", "2", "--kappa", "-1"]) == 3


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
], ids=["nan-range", "minus-inf", "zero", "positive-kappa", "d1"])
def test_sweep_checks_whole_grid_before_any_row(tmp_path, capsys, args):
    # one bad value rejects the sweep with exit 2 before a row is computed
    out = tmp_path / "s.csv"
    assert main(["sweep", *args, "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["sweep", *args]) == 2
    assert capsys.readouterr().out == ""


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
