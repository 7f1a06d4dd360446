"""Command-line front end: single volumes, side-length sweeps, verification suites.

Exit codes: 0 success, 1 verification failure, 2 domain violation (any
other library error, or an invalid value), 3 tolerance failure or cost limit
(including partially failed sweep rows).

Data files are CSV with a '#'-prefixed JSON manifest header line; identical
invocations produce byte-identical files (volatile fields such as wall time
are printed to the console, never written to the file).
"""

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .engine import VolumeRequest, regular_volume, volume
from .errors import CostLimitError, GeometryDomainError, SimplexVolError, ToleranceError
from .geometry import OrthocentricParams, min_curvature, regular_parameters

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_DOMAIN = 2
EXIT_TOLERANCE = 3


def _file_header(command, parameters, tol):
    """Manifest line embedded in data files; volatile fields excluded."""
    return "# " + json.dumps({"command": command, "parameters": parameters,
                              "tool_version": __version__, "tolerances": {"tol": tol}},
                             sort_keys=True)


def _thread_count():
    try:
        return max(1, int(os.environ.get("SIMPLEXVOL_THREADS", "1")))
    except ValueError:
        return 1


def _fmt(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def _build_request(args):
    modes = [args.regular is not None, args.ideal is not None,
             args.orthocentric is not None]
    if sum(modes) != 1:
        raise GeometryDomainError(
            "exactly one of --regular/--ideal/--orthocentric is required")
    if args.regular is not None:
        if args.ell is None:
            raise GeometryDomainError("--regular requires --ell")
        params = regular_parameters(args.regular, float(args.ell), args.kappa)
    elif args.ideal is not None:
        params = regular_parameters(args.ideal, math.inf, args.kappa)
    else:
        taus = tuple(float(t) for t in args.orthocentric.split(","))
        params = OrthocentricParams(taus)
    return VolumeRequest(params, args.kappa, args.tol)


def cmd_volume(args):
    t0 = time.perf_counter()
    req = _build_request(args)
    res = volume(req)
    wall_ms = int(1000 * (time.perf_counter() - t0))
    if args.format == "json":
        print(json.dumps({
            "volume": res.volume, "abs_error": res.abs_error,
            "residual_imag": res.residual_imag, "branch": res.branch.value,
            "tool_version": __version__,
        }, sort_keys=True))
    elif args.format == "csv":
        params = {k: getattr(args, k) for k in
                  ("regular", "ideal", "orthocentric", "ell", "kappa")
                  if getattr(args, k) is not None}
        print(_file_header("volume", params, args.tol))
        print("param,volume,abs_error,residual_imag,status")
        print(f",{_fmt(res.volume)},{_fmt(res.abs_error)},"
              f"{_fmt(res.residual_imag)},ok")
    else:
        print(f"volume        = {_fmt(res.volume)}")
        print(f"abs_error     = {_fmt(res.abs_error)}")
        print(f"residual_imag = {_fmt(res.residual_imag)}")
        print(f"branch        = {res.branch.value}")
        print(f"wall_time_ms  = {wall_ms}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_grid(args):
    if args.ell_grid is not None:
        grid = [float(t) for t in args.ell_grid.split(",") if t.strip()]
    elif args.ell_log_range is not None:
        lo, hi, n = args.ell_log_range.split(":")
        grid = list(np.geomspace(float(lo), float(hi), int(n)))
    else:
        raise GeometryDomainError("sweep requires --ell-grid or --ell-log-range")
    for ell in grid:  # every value is checked before the first row is computed
        regular_parameters(args.d, ell, args.kappa)
    return grid


def cmd_sweep(args):
    t0 = time.perf_counter()
    grid = _sweep_grid(args)

    def one(ell):
        try:
            r = regular_volume(args.d, ell, args.kappa, tolerance=args.tol)
            return (ell, r.volume, r.abs_error, r.residual_imag, "ok")
        except SimplexVolError as exc:
            return (ell, math.nan, math.nan, math.nan, f"failed:{type(exc).__name__}")

    nthreads = _thread_count()
    if nthreads > 1 and len(grid) > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            rows = list(pool.map(one, grid))
    else:
        rows = [one(ell) for ell in grid]

    wall_ms = int(1000 * (time.perf_counter() - t0))
    params = {"d": args.d, "kappa": args.kappa,
              "grid": [("inf" if math.isinf(g) else g) for g in grid]}
    lines = [_file_header("sweep", params, args.tol),
             "param,volume,abs_error,residual_imag,status,monotone"]
    prev = None
    for ell, vol, err, resid, status in rows:
        if status == "ok":
            mono = "first" if prev is None else ("yes" if vol > prev else "no")
            prev = vol
        else:
            mono = "n/a"
        lines.append(f"{_fmt(ell)},{_fmt(vol)},{_fmt(err)},{_fmt(resid)},{status},{mono}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(rows)} rows, {wall_ms} ms)")
    else:
        sys.stdout.write(text)
    if any(r[4] != "ok" for r in rows):
        return EXIT_TOLERANCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(name, measured, expected, tol):
    ok = abs(measured - expected) <= tol
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: measured={measured!r} expected={expected!r} tol={tol:g}")
    return ok, name


def _suite_phi(args):
    from .cnormal import norm_cdf_array
    rng = np.random.default_rng(args.seed)
    n = args.samples or 2000
    z = rng.uniform(0, 10, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    v = norm_cdf_array(z)
    vm = norm_cdf_array(-z)
    vc = norm_cdf_array(np.conj(z))
    scale = np.maximum(1.0, np.maximum(np.abs(v), np.abs(vm)))
    checks = [
        _check("reflection max residual", float(np.max(np.abs(v + vm - 1.0) / scale)),
               0.0, 1e-11),
        _check("conjugation max residual",
               float(np.max(np.abs(vc - np.conj(v)) / np.maximum(1.0, np.abs(v)))),
               0.0, 1e-11),
    ]
    xs = np.linspace(-8, 8, 41)
    import mpmath as mp
    with mp.workdps(30):
        ref = np.array([float(mp.mpf(1) / 2 + mp.quad(
            lambda t: mp.exp(-t * t / 2), [0, float(x)]) / mp.sqrt(2 * mp.pi))
            for x in xs])
    got = norm_cdf_array(xs.astype(complex)).real
    checks.append(_check("real-axis max error", float(np.max(np.abs(got - ref))),
                         0.0, 1e-12))
    for R in (10.0, 20.0, 40.0):
        th = np.linspace(-np.pi / 4, np.pi / 4, 33)
        w = norm_cdf_array(R * np.exp(1j * th))
        bound = 1.5 / (math.sqrt(2 * math.pi) * R)
        checks.append(_check(f"sector limit R={R:g}", float(np.max(np.abs(w - 1.0))),
                             0.0, bound))
    return checks


def _suite_rotation(args):
    from .rayquad import HalfPlane, RayIntegralProblem, ray_integral
    checks = []
    for z in (1.0, 4.0, 9.0):
        vals = []
        for om, hp in [(1.0, HalfPlane.UPPER),
                       (np.exp(1j * np.pi / 8), HalfPlane.UPPER),
                       (1 - 1j, HalfPlane.UPPER), (1 + 1j, HalfPlane.LOWER)]:
            p = RayIntegralProblem((1.0, 1.0, 1.0), z, om, hp)
            vals.append(ray_integral(p).value)
        worst = max(abs(a - b) for a in vals for b in vals)
        checks.append(_check(f"rotation agreement z={z:g}", worst, 0.0, 1e-10))
    return checks


def _suite_ideal_values(args):
    from .oracles import ideal_tetrahedron_volume
    checks = []
    v2 = regular_volume(2, math.inf, -1.0).volume
    checks.append(_check("ideal d=2 vs pi", v2, math.pi, 1e-8))
    v3 = regular_volume(3, math.inf, -1.0).volume
    checks.append(_check("ideal d=3 vs log-sine integral", v3,
                         ideal_tetrahedron_volume(), 1e-8))
    v4 = regular_volume(4, math.inf, -1.0).volume
    ref4 = 10 * math.pi / 3 * math.asin(1.0 / 3.0) - math.pi ** 2 / 3
    checks.append(_check("ideal d=4 vs closed form", v4, ref4, 1e-8))
    return checks


def _suite_abrosimov(args):
    from .oracles import regular_tetrahedron_volume
    checks = []
    for ell in (0.25, 0.5, 1.0, 2.0, 4.0):
        v = regular_volume(3, ell, -1.0).volume
        checks.append(_check(f"regular d=3 ell={ell:g}", v,
                             regular_tetrahedron_volume(ell), 1e-7))
    return checks


def _suite_mc_spherical(args):
    from .oracles import mc_spherical_volume
    rng = np.random.default_rng(args.seed)
    checks = []
    n = args.samples or 1_000_000
    for trial in range(3):
        d = int(rng.integers(2, 7))
        taus = tuple(rng.uniform(0.5, 2.0, d + 1))
        p = OrthocentricParams(taus)
        kappa = p.s * float(rng.uniform(1.0, 3.0))
        rep = mc_spherical_volume(p, kappa, samples=n, seed=int(rng.integers(2**31)))
        eng = volume(VolumeRequest(geometry=p, kappa=kappa)).volume
        checks.append(_check(f"mc-spherical trial {trial} (d={d})",
                             eng, rep.estimate, 3.0 * rep.std_error))
    return checks


def _suite_klein_direct(args):
    from .geometry import realize_vertices
    from .oracles import direct_klein_volume
    rng = np.random.default_rng(args.seed)
    checks = []
    for trial in range(3):
        d = int(rng.integers(2, 4))
        p = OrthocentricParams(tuple(rng.uniform(0.5, 2.0, d + 1)))
        kappa = float(rng.uniform(0.3, 0.9)) * min_curvature(p)
        ref = direct_klein_volume(realize_vertices(p), kappa, rel_tol=1e-8)
        eng = volume(VolumeRequest(geometry=p, kappa=kappa)).volume
        checks.append(_check(f"klein-direct trial {trial} (d={d})",
                             eng, ref, 1e-4 * abs(ref)))
    return checks


def _suite_asymptotic(args):
    from ._hp import ideal_volume_highprec
    import mpmath as mp
    checks = []
    prev = None
    for d in range(10, (args.dmax or 14) + 1):
        v = ideal_volume_highprec(d)
        ratio = float(v * mp.factorial(d) / (mp.e * mp.sqrt(d)))
        ok = 0.5 <= ratio <= 1.5 and (prev is None or abs(ratio - 1) < prev)
        print(f"{'PASS' if ok else 'FAIL'} asymptotic d={d}: ratio={ratio!r} "
              f"(bounded in [0.5, 1.5], |ratio-1| decreasing)")
        checks.append((ok, f"asymptotic d={d}"))
        prev = abs(ratio - 1)
    return checks


_SUITES = {
    "phi": _suite_phi,
    "rotation": _suite_rotation,
    "ideal-values": _suite_ideal_values,
    "abrosimov": _suite_abrosimov,
    "mc-spherical": _suite_mc_spherical,
    "klein-direct": _suite_klein_direct,
    "asymptotic": _suite_asymptotic,
}


def cmd_verify(args):
    checks = _SUITES[args.suite](args)
    for ok, name in checks:
        if not ok:
            print(f"first failing check: {name}", file=sys.stderr)
            return EXIT_VERIFY_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="simplexvol",
        description="Hyperbolic and spherical simplex volumes via contour "
                    "integrals of the complex normal CDF.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pv = sub.add_parser("volume", help="compute a single volume")
    pv.add_argument("--regular", type=int, metavar="D",
                    help="regular simplex of dimension D (needs --ell)")
    pv.add_argument("--ideal", type=int, metavar="D",
                    help="ideal regular simplex of dimension D")
    pv.add_argument("--orthocentric", metavar="T0,T1,...",
                    help="orthocentric parameters, comma separated")
    pv.add_argument("--ell", help="side length ('inf' for ideal)")
    pv.add_argument("--kappa", type=float, required=True, help="curvature")
    pv.add_argument("--tol", type=float, default=1e-10,
                    help="absolute tolerance on the transform values")
    pv.add_argument("--format", choices=("json", "csv", "text"), default="text")
    pv.set_defaults(func=cmd_volume)

    ps = sub.add_parser("sweep", help="sweep side lengths at fixed d, kappa")
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--kappa", type=float, default=-1.0)
    ps.add_argument("--ell-grid", help="comma-separated side lengths, 'inf' allowed")
    ps.add_argument("--ell-log-range", metavar="LO:HI:N",
                    help="logarithmic grid from LO to HI with N points")
    ps.add_argument("--tol", type=float, default=1e-10)
    ps.add_argument("--out", help="output CSV path (stdout if omitted)")
    ps.set_defaults(func=cmd_sweep)

    pc = sub.add_parser("verify", help="run a verification suite")
    pc.add_argument("suite", choices=sorted(_SUITES))
    pc.add_argument("--samples", type=int, default=None)
    pc.add_argument("--seed", type=int, default=20240815)
    pc.add_argument("--dmax", type=int, default=None,
                    help="largest dimension for the asymptotic suite")
    pc.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except CostLimitError as exc:
        print(f"cost limit: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (SimplexVolError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
