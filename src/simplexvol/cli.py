"""Command-line front end: single volumes, side-length sweeps, verification suites.

Exit codes: 0 success, 1 verification failure (also a suite that ran no
checks), 2 domain violation (any other library error, an invalid value, or
a usage error that argparse reports), 3 tolerance failure or cost limit
(including partially failed sweep rows).

Data files are CSV with a '#'-prefixed JSON manifest header line; identical
invocations produce byte-identical files (volatile fields such as wall time
are printed to the console, never written to the file).
"""

import argparse
import functools
import inspect
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .engine import VolumeRequest, volume, volumes
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


def _fmt(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def _build_request(args):
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
    """Each grid value with its row's VolumeRequest, all built before any row runs.

    A bad side length, d, kappa or tolerance raises here (exit 2), before a
    row is computed or a file written; an empty grid still has d, kappa and
    the tolerance checked, through the request of the ideal simplex.
    """
    if args.ell_grid is not None:
        grid = [float(t) for t in args.ell_grid.split(",") if t.strip()]
    elif args.ell_log_range is not None:
        lo, hi, n = args.ell_log_range.split(":")
        grid = list(np.geomspace(float(lo), float(hi), int(n)))
    else:
        raise GeometryDomainError("sweep requires --ell-grid or --ell-log-range")
    requests = [VolumeRequest(regular_parameters(args.d, ell, args.kappa), args.kappa, args.tol)
                for ell in grid or [math.inf]]
    return list(zip(grid, requests))


def cmd_sweep(args):
    """One volume per grid value, in grid order, from one volumes() call; a
    row whose result is a library error is written as failed:<Name> and
    makes the exit code 3."""
    t0 = time.perf_counter()
    grid = _sweep_grid(args)
    rows = []
    for (ell, _), r in zip(grid, volumes([req for _, req in grid])):
        if isinstance(r, SimplexVolError):
            rows.append((ell, math.nan, math.nan, math.nan, f"failed:{type(r).__name__}"))
        else:
            rows.append((ell, r.volume, r.abs_error, r.residual_imag, "ok"))

    wall_ms = int(1000 * (time.perf_counter() - t0))
    params = {"d": args.d, "kappa": args.kappa,
              "grid": [("inf" if math.isinf(ell) else ell) for ell, *_ in rows]}
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


#: the seed of every seeded suite unless --seed is given
DEFAULT_SEED = 20240815


def _suite_phi(*, samples=2000, seed=DEFAULT_SEED):
    from .cnormal import norm_cdf_array
    rng = np.random.default_rng(seed)
    z = rng.uniform(0, 10, samples) * np.exp(1j * rng.uniform(-np.pi, np.pi, samples))
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


def _suite_rotation():
    from .rayquad import RayIntegralProblem, ray_integral
    checks = []
    for z in (1.0, 4.0, 9.0):
        vals = [ray_integral(RayIntegralProblem((1.0, 1.0, 1.0), z, om)).value
                for om in (1.0, np.exp(1j * np.pi / 8), 1 - 1j, 1 + 1j)]
        worst = max(abs(a - b) for a in vals for b in vals)
        checks.append(_check(f"rotation agreement z={z:g}", worst, 0.0, 1e-10))
    return checks


def _suite_ideal_values():
    """The ideal d = 2, 3, 4 rows from one volumes() call, against closed forms."""
    from .oracles import ideal_tetrahedron_volume
    refs = {2: ("ideal d=2 vs pi", math.pi),
            3: ("ideal d=3 vs log-sine integral", ideal_tetrahedron_volume()),
            4: ("ideal d=4 vs closed form",
                10 * math.pi / 3 * math.asin(1.0 / 3.0) - math.pi ** 2 / 3)}
    results = _checked_volumes([VolumeRequest(regular_parameters(d, math.inf, -1.0), -1.0)
                                for d in refs])
    return [_check(name, res.volume, ref, 1e-8)
            for (name, ref), res in zip(refs.values(), results)]


def _suite_abrosimov():
    """The five d = 3 rows from one volumes() call, which shares one series table."""
    from .oracles import regular_tetrahedron_volume
    ells = (0.25, 0.5, 1.0, 2.0, 4.0)
    results = _checked_volumes([VolumeRequest(regular_parameters(3, ell, -1.0), -1.0)
                                for ell in ells])
    return [_check(f"regular d=3 ell={ell:g}", res.volume, regular_tetrahedron_volume(ell), 1e-7)
            for ell, res in zip(ells, results)]


def _checked_volumes(requests):
    """volumes(requests), raising the first row's library error, if any."""
    results = volumes(requests)
    for res in results:
        if isinstance(res, SimplexVolError):
            raise res
    return results


#: the chi-squared(3) quantile at 1 - 1e-4 (scipy.stats.chi2.isf(1e-4, 3)):
#: correct code fails the mc-spherical suite on about 1 seed in 10,000
_CHI2_3_AT_1E4 = 21.1075


def _suite_mc_spherical(*, samples=1_000_000, seed=DEFAULT_SEED):
    """Three random spherical simplices, one mc_spherical_volumes batch
    against one volumes() call, judged jointly: each trial's z-score, the
    engine's distance from the estimate in standard errors, is about
    N(0, 1) for correct code, so the sum of the three squares must stay
    within the chi-squared(3) quantile _CHI2_3_AT_1E4."""
    from .oracles import mc_spherical_volumes
    rng = np.random.default_rng(seed)
    jobs = []
    for _ in range(3):
        d = int(rng.integers(2, 7))
        p = OrthocentricParams(tuple(rng.uniform(0.5, 2.0, d + 1)))
        kappa = p.s * float(rng.uniform(1.0, 3.0))
        jobs.append((p, kappa, samples, int(rng.integers(2**31))))
    reports = mc_spherical_volumes(jobs)
    results = _checked_volumes([VolumeRequest(geometry=p, kappa=kappa) for p, kappa, _, _ in jobs])
    zs = [(res.volume - rep.estimate) / rep.std_error if rep.std_error else math.inf
          for res, rep in zip(results, reports)]
    stat = sum(z * z for z in zs)
    ok = stat <= _CHI2_3_AT_1E4
    dims = ",".join(str(p.dimension) for p, *_ in jobs)
    print(f"{'PASS' if ok else 'FAIL'} mc-spherical trials d={dims}: "
          f"z={', '.join(f'{z:.3g}' for z in zs)} sum z^2={stat:.4g} tol={_CHI2_3_AT_1E4:g}")
    return [(ok, "mc-spherical sum of squared z-scores")]


def _suite_klein_direct(*, seed=DEFAULT_SEED):
    from .geometry import realize_vertices
    from .oracles import direct_klein_volume
    rng = np.random.default_rng(seed)
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


def _suite_asymptotic(*, dmax=14):
    """The ideal d = 10..dmax volumes from one volumes() call, against the
    asymptotics e sqrt(d)/d!."""
    dims = range(10, dmax + 1)
    results = _checked_volumes([VolumeRequest(regular_parameters(d, math.inf, -1.0), -1.0)
                                for d in dims])
    checks = []
    prev = None
    for d, res in zip(dims, results):
        ratio = res.volume * math.factorial(d) / (math.e * math.sqrt(d))
        ok = 0.5 <= ratio <= 1.5 and (prev is None or abs(ratio - 1) < prev)
        print(f"{'PASS' if ok else 'FAIL'} asymptotic d={d}: ratio={ratio!r} "
              f"(bounded in [0.5, 1.5], |ratio-1| decreasing)")
        checks.append((ok, f"asymptotic d={d}"))
        prev = abs(ratio - 1)
    return checks


#: each suite's keyword parameters are the verify flags it reads, with their
#: defaults; a flag given to a suite that does not read it is rejected
_SUITES = {
    "phi": _suite_phi,
    "rotation": _suite_rotation,
    "ideal-values": _suite_ideal_values,
    "abrosimov": _suite_abrosimov,
    "mc-spherical": _suite_mc_spherical,
    "klein-direct": _suite_klein_direct,
    "asymptotic": _suite_asymptotic,
}


_VERIFY_FLAGS = ("samples", "seed", "dmax")


def cmd_verify(args):
    suite = _SUITES[args.suite]
    given = {k: getattr(args, k) for k in _VERIFY_FLAGS if getattr(args, k) is not None}
    unread = [f"--{k}" for k in given if k not in inspect.signature(suite).parameters]
    if unread:
        raise ValueError(f"the {args.suite} suite does not read {', '.join(unread)}")
    checks = suite(**given)
    if not checks:
        print(f"suite {args.suite} ran no checks", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    for ok, name in checks:
        if not ok:
            print(f"first failing check: {name}", file=sys.stderr)
            return EXIT_VERIFY_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------

def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes -1e-3, like -0.001, as a negative number
    rather than an option; add_parser builds the subcommands with this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process; each command
    looks up the library functions it calls when it runs."""
    ap = _Parser(
        prog="simplexvol",
        description="Hyperbolic and spherical simplex volumes via contour "
                    "integrals of the complex normal CDF.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pv = sub.add_parser("volume", help="compute a single volume")
    geometry = pv.add_mutually_exclusive_group(required=True)
    geometry.add_argument("--regular", type=int, metavar="D",
                          help="regular simplex of dimension D (needs --ell)")
    geometry.add_argument("--ideal", type=int, metavar="D",
                          help="ideal regular simplex of dimension D")
    geometry.add_argument("--orthocentric", metavar="T0,T1,...",
                          help="orthocentric parameters, comma separated")
    pv.add_argument("--ell", help="side length ('inf' for ideal)")
    pv.add_argument("--kappa", type=float, required=True, help="curvature")
    pv.add_argument("--tol", type=float, default=VolumeRequest.tolerance,
                    help="absolute tolerance on the transform values")
    pv.add_argument("--format", choices=("json", "csv", "text"), default="text")
    pv.set_defaults(func=cmd_volume)

    ps = sub.add_parser("sweep", help="sweep side lengths at fixed d, kappa")
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--kappa", type=float, default=-1.0)
    ps.add_argument("--ell-grid", help="comma-separated side lengths, 'inf' allowed")
    ps.add_argument("--ell-log-range", metavar="LO:HI:N",
                    help="logarithmic grid from LO to HI with N points")
    ps.add_argument("--tol", type=float, default=VolumeRequest.tolerance)
    ps.add_argument("--out", help="output CSV path (stdout if omitted)")
    ps.set_defaults(func=cmd_sweep)

    pc = sub.add_parser("verify", help="run a verification suite")
    pc.add_argument("suite", choices=sorted(_SUITES))
    pc.add_argument("--samples", type=_positive_int,
                    help="sample count (phi: 2000, mc-spherical: 1000000)")
    pc.add_argument("--seed", type=int,
                    help=f"seed of phi, mc-spherical and klein-direct ({DEFAULT_SEED})")
    pc.add_argument("--dmax", type=int,
                    help="largest dimension of the asymptotic suite's ideal "
                         "volumes, which start at 10 (14; certified up to 150)")
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
