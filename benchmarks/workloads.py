"""The benchmark's workloads: seeded case lists, the operations of one pass, and their checks.

Every operation goes through a module attribute of simplexvol at call time
(``cli.main``, ``engine.volume``), so the traced run's wrappers see it.  A pass
is the workload's fixed list of operations; every run repeats whole passes.
"""

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from simplexvol import cli, engine, geometry, oracles
from simplexvol.errors import SimplexVolError

import checks

REFERENCES = Path(__file__).resolve().parent / "references.json"


#: The cost of one volume changes by up to +-25% between independent draws of
#: the taus, which would swamp the run-to-run comparison.  So the workloads
#: that draw taus take them from this fixed stream, and the run's --seed
#: moves each tau by up to 3% and each kappa by a few percent.
BASE_SEED = 20240815


def jittered_taus(base, jitter, d):
    """d + 1 taus ~ U(0.5, 2) from the fixed base stream, each scaled by e^U(-0.03, 0.03)."""
    taus = base.uniform(0.5, 2.0, d + 1) * np.exp(jitter.uniform(-0.03, 0.03, d + 1))
    return [float(t) for t in taus]


class OperationFailed(Exception):
    """An operation raised a simplexvol error or exited nonzero."""


def call_cli(argv):
    """cli.main in-process with stdout captured; nonzero exit is a failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise OperationFailed(f"simplexvol {' '.join(argv[:2])} exited {rc}")
    return buf.getvalue()


def call_volume(taus, kappa, lower=False):
    req = engine.VolumeRequest(geometry=geometry.OrthocentricParams(tuple(taus)),
                               kappa=kappa, use_lower_branch=lower)
    try:
        r = engine.volume(req)
    except SimplexVolError as exc:
        raise OperationFailed(f"volume(d={len(taus) - 1}): {exc!r}") from exc
    return r.volume, r.abs_error


def volume_operations(cases):
    """One volume() call per (taus, kappa) case."""
    return [(f"volume d={len(t) - 1}", lambda t=t, k=k: call_volume(t, k)) for t, k in cases]


def ideal_reference(d):
    """(volume, error) of the ideal regular d-simplex at kappa = -1: a closed form
    for d <= 4, the stored mpmath-twin value above."""
    if d <= 4:
        return checks.ideal_regular_closed_form(d), 1e-15
    with open(REFERENCES) as fh:
        return float(json.load(fh)["ideal_volume_highprec"][str(d)]), 1e-20


def warm_up(chk):
    """The first volume of the process: the ideal regular triangle, checked against pi."""
    r = engine.regular_volume(2, math.inf, -1.0)
    chk.against("warm-up ideal d=2 vs pi", r.volume, r.abs_error,
                checks.ideal_regular_closed_form(2), 1e-15)


def parse_sweep(text):
    """(ell, volume, abs_error) rows of a sweep CSV; every row must have status ok."""
    rows = []
    for line in text.splitlines()[2:]:
        param, vol, err, _resid, status, _mono = line.split(",")
        if status != "ok":
            raise OperationFailed(f"sweep row {param} has status {status}")
        rows.append((float(param), float(vol), float(err)))
    return rows


class RegularSweep:
    """25-row side-length sweeps of regular simplices through ``simplexvol sweep``."""

    name = "regular-sweep"
    #: (d, kappa); the kappa = -4 grid is the kappa = -1 grid halved, so
    #: ell * sqrt(|kappa|) lands exactly on the kappa = -1 rows
    SWEEPS = ((3, -1.0), (3, -4.0), (5, -1.0))
    ROWS = 25

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        lo = 0.1 * math.exp(rng.uniform(-0.2, 0.2))
        hi = 10.0 * math.exp(rng.uniform(-0.2, 0.2))
        self.base = [float(x) for x in np.geomspace(lo, hi, self.ROWS - 1)]

    def grid(self, kappa):
        return [ell / math.sqrt(-kappa) for ell in self.base] + [math.inf]

    def operations(self):
        ops = []
        for d, kappa in self.SWEEPS:
            text = ",".join("inf" if math.isinf(x) else repr(x) for x in self.grid(kappa))
            argv = ["sweep", "--d", str(d), "--kappa", repr(kappa), "--ell-grid", text]
            ops.append((f"sweep d={d} kappa={kappa:g}",
                        lambda argv=argv: parse_sweep(call_cli(argv))))
        return ops

    def check(self, outputs, chk):
        rows = dict(zip(self.SWEEPS, outputs))
        for (d, kappa), sweep in rows.items():
            tag = f"d={d} kappa={kappa:g}"
            want = self.grid(kappa)
            chk.require(f"{tag} grid", [r[0] for r in sweep] == want,
                        "rows do not match the requested side lengths")
            vols = [r[1] for r in sweep]
            chk.require(f"{tag} monotone in ell", all(a < b for a, b in zip(vols, vols[1:])),
                        f"volumes {vols}")
            chk.require(f"{tag} positive", vols[0] > 0.0, f"smallest volume {vols[0]!r}")
            if kappa == -1.0:
                chk.against(f"{tag} ideal vs reference", sweep[-1][1], sweep[-1][2],
                            *ideal_reference(d))
            if kappa == -1.0 and d == 3:
                for ell, vol, err in sweep[:-1]:
                    ref = oracles.regular_tetrahedron_volume(ell)
                    chk.against(f"{tag} ell={ell:.6g} vs tetrahedron integral", vol, err,
                                ref, 1e-12 * ref + 1e-15)
            if kappa != -1.0:
                unit = rows[(d, -1.0)]
                f = abs(kappa) ** (-d / 2.0)
                for (ell, vol, err), (_, v1, e1) in zip(sweep, unit):
                    chk.against(f"{tag} ell={ell:.6g} curvature scaling", vol, err,
                                f * v1, f * e1)
        self.check_unswept(chk)

    def check_unswept(self, chk):
        """Checks outside the timed pass: ideal d=4, and thread-count determinism."""
        r = engine.regular_volume(4, math.inf, -1.0)
        chk.against("ideal d=4 vs closed form", r.volume, r.abs_error, *ideal_reference(4))
        argv = ["sweep", "--d", "3", "--kappa", "-1.0", "--ell-grid",
                f"{self.base[0]!r},{self.base[-1]!r},inf"]
        texts = {}
        old = os.environ.get("SIMPLEXVOL_THREADS")
        try:
            for threads in ("1", "2"):
                os.environ["SIMPLEXVOL_THREADS"] = threads
                texts[threads] = call_cli(argv)
        finally:
            if old is None:
                os.environ.pop("SIMPLEXVOL_THREADS", None)
            else:
                os.environ["SIMPLEXVOL_THREADS"] = old
        chk.require("sweep CSV byte-identical with 1 and 2 threads",
                    texts["1"] == texts["2"], "the two CSV texts differ")


class OrthocentricHyperbolic:
    """volume() on distinct-tau orthocentric simplices, d = 2..8, kappa in (kappa0, 0)."""

    name = "orthocentric-hyperbolic"
    #: cases per dimension, fewer where a volume costs more
    CASES = {2: 4, 3: 4, 4: 3, 5: 2, 6: 2, 7: 1, 8: 1}
    #: the lower branch costs as much again, so it is checked on one case per d <= 5
    LOWER_BRANCH_DMAX = 5
    MC_SAMPLES = 400_000

    def __init__(self, seed):
        base = np.random.default_rng(BASE_SEED)
        jitter = np.random.default_rng(seed)
        self.seed = seed
        self.cases = []
        for d, count in self.CASES.items():
            for _ in range(count):
                taus = jittered_taus(base, jitter, d)
                u = base.uniform(0.2, 0.8) + jitter.uniform(-0.02, 0.02)
                self.cases.append((taus, float(u) * checks.min_curvature(taus)))

    def operations(self):
        return volume_operations(self.cases)

    def check(self, outputs, chk):
        branch_checked = set()
        for i, ((taus, kappa), (vol, err)) in enumerate(zip(self.cases, outputs)):
            d = len(taus) - 1
            tag = f"d={d} kappa={kappa:.6g}"
            if d <= 3:
                rel = 1e-10
                ref = oracles.direct_klein_volume(
                    geometry.realize_vertices(geometry.OrthocentricParams(tuple(taus))),
                    kappa, rel_tol=rel)
                chk.against(f"{tag} vs direct Klein integration", vol, err, ref,
                            100 * rel * abs(ref))
            else:
                est, se = checks.klein_monte_carlo(taus, kappa, self.MC_SAMPLES,
                                                   seed=[self.seed, i])
                chk.within_se(f"{tag} vs Klein-density Monte Carlo", vol, err, est, se)
                chk.require(f"{tag} error bar", err < abs(vol),
                            f"claimed error {err:.3g} swallows the value {vol!r}")
            if d <= self.LOWER_BRANCH_DMAX and d not in branch_checked:
                branch_checked.add(d)
                low, low_err = call_volume(taus, kappa, lower=True)
                chk.require(f"{tag} upper and lower branches agree",
                            abs(vol - low) <= err + low_err,
                            f"upper {vol!r} +- {err:.3g}, lower {low!r} +- {low_err:.3g}")


class SphericalBatch:
    """Many volume() calls on orthocentric spherical simplices, kappa >= s, d = 2..8."""

    name = "spherical-batch"
    DIMS = range(2, 9)
    PER_DIM = 18
    GENZ_CASES = 2

    def __init__(self, seed):
        base = np.random.default_rng(BASE_SEED)
        jitter = np.random.default_rng(seed)
        self.seed = seed
        self.cases = []
        for _ in range(self.PER_DIM):
            for d in self.DIMS:
                taus = jittered_taus(base, jitter, d)
                # kappa >= s: just below s the ray integral's head grows without bound
                u = 1.0 + base.uniform(0.0, 2.0) * math.exp(jitter.uniform(-0.03, 0.03))
                self.cases.append((taus, u * math.fsum(t * t for t in taus)))
        self.genz = sorted(jitter.choice(len(self.cases), self.GENZ_CASES, replace=False))

    def operations(self):
        return volume_operations(self.cases)

    def check(self, outputs, chk):
        for i, ((taus, kappa), (vol, err)) in enumerate(zip(self.cases, outputs)):
            tag = f"case {i} d={len(taus) - 1}"
            ref, ref_err = checks.spherical_one_factor(taus, kappa)
            chk.against(f"{tag} vs one-factor integral", vol, err, ref, ref_err)
            if i in self.genz:
                ref, ref_err = checks.spherical_genz(taus, kappa, seed=[self.seed, i])
                chk.against(f"{tag} vs Genz orthant probability", vol, err, ref, ref_err)


class VerifyOracles:
    """The verify suites, in-process through cli.main."""

    name = "verify-oracles"
    #: d = 10..12: enough dimensions for the suite's decreasing-ratio test
    ASYMPTOTIC_DMAX = "12"
    MC_SAMPLES = 200_000

    def __init__(self, seed):
        self.seed = seed
        self.suites = [
            ["ideal-values"],
            ["abrosimov"],
            ["rotation"],
            # the suite's own default seed: it allows 3 standard errors on
            # each of three trials, so correct code fails on some seeds
            ["mc-spherical"],
            ["klein-direct", "--seed", str(seed)],
            ["asymptotic", "--dmax", self.ASYMPTOTIC_DMAX],
        ]

    def operations(self):
        return [(f"verify {s[0]}", lambda s=s: call_cli(["verify", *s])) for s in self.suites]

    def check(self, outputs, chk):
        for suite, text in zip(self.suites, outputs):
            lines = [ln for ln in text.splitlines() if ln.strip()]
            chk.require(f"verify {suite[0]} reports only PASS lines",
                        bool(lines) and all(ln.startswith("PASS ") for ln in lines),
                        text.strip())
        self.check_mc_determinism(chk)

    def check_mc_determinism(self, chk):
        rng = np.random.default_rng(self.seed)
        taus = tuple(float(t) for t in rng.uniform(0.5, 2.0, 5))
        params = geometry.OrthocentricParams(taus)
        kappa = params.s * 2.0
        seed = int(rng.integers(2 ** 31))
        a = oracles.mc_spherical_volume(params, kappa, samples=self.MC_SAMPLES, seed=seed)
        b = oracles.mc_spherical_volume(params, kappa, samples=self.MC_SAMPLES, seed=seed)
        chk.require("mc_spherical_volume bit-identical for a fixed seed", a == b,
                    f"{a} != {b}")


WORKLOADS = {w.name: w for w in (RegularSweep, OrthocentricHyperbolic, SphericalBatch,
                                 VerifyOracles)}
