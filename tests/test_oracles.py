"""Reference oracles: Monte Carlo cone sampling, Klein integration, tetrahedra."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import hyp2f1, ndtr

import simplexvol
from simplexvol import _hp, oracles
from simplexvol.engine import VolumeRequest, regular_volume, volume
from simplexvol.errors import CostLimitError, GeometryDomainError
from simplexvol.geometry import (
    OrthocentricParams, euclidean_volume, min_curvature, realize_vertices,
    regular_parameters,
)
from simplexvol.oracles import (
    direct_klein_volume, ideal_tetrahedron_volume, mc_spherical_volume,
    mc_spherical_volumes, regular_tetrahedron_volume,
)

LOG_SINE_VALUE = 1.0149416064096535


def test_mc_exact_orthant_at_kappa_equals_s():
    # at kappa = s the coupling vanishes: probability is exactly 2^-(d+1)
    p = OrthocentricParams((1.0, 1.0, 1.0))
    rep = mc_spherical_volume(p, kappa=p.s, samples=400_000, seed=9)
    exact = volume(VolumeRequest(geometry=p, kappa=p.s)).volume
    assert abs(rep.estimate - exact) <= 3.5 * rep.std_error


def test_mc_seed_determinism():
    p = OrthocentricParams((0.8, 1.1, 1.4))
    a = mc_spherical_volume(p, kappa=2.0 * p.s, samples=250_000, seed=123)
    b = mc_spherical_volume(p, kappa=2.0 * p.s, samples=250_000, seed=123)
    assert a == b
    c = mc_spherical_volume(p, kappa=2.0 * p.s, samples=250_000, seed=124)
    assert c.estimate != a.estimate


@pytest.mark.parametrize("taus, factor, samples, seed, estimate, std_error", [
    ((0.8, 1.1, 1.4), 2.0, 250_000, 123, "0x1.2e45ad74e9163p-2", "0x1.4b7394fc0d707p-10"),
    # 19 chunks, the last of 54,919 samples
    ((1.3, 0.7, 1.9, 1.1, 0.6), 1.7, 1_234_567, 4242,
     "0x1.1ef27242347efp-7", "0x1.1a087e51ff2eap-15"),
], ids=["250000-samples", "1234567-samples"])
def test_mc_reports_are_pinned_bits(taus, factor, samples, seed, estimate, std_error):
    # reports of the sampler that draws rows 0 and 1 from their joint law,
    # on 65,536-sample substreams
    p = OrthocentricParams(taus)
    rep = mc_spherical_volume(p, factor * p.s, samples=samples, seed=seed)
    assert rep == oracles.MonteCarloReport(float.fromhex(estimate),
                                           float.fromhex(std_error), samples, seed)


def test_mc_memory_does_not_grow_with_dimension():
    # a (d+1) x n block and its product would take 2 x 56 MB at d = 6
    import tracemalloc
    p = OrthocentricParams((1.0, 1.1, 0.9, 1.2, 0.8, 1.3, 1.05))
    tracemalloc.start()
    try:
        mc_spherical_volume(p, 2.0 * p.s, samples=1_000_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


@pytest.mark.parametrize("samples", [-5, 0, 1])
def test_mc_rejects_fewer_than_two_samples(samples):
    p = OrthocentricParams((1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="at least 2 samples"):
        mc_spherical_volume(p, kappa=2.0 * p.s, samples=samples)


def test_mc_zscores_over_many_seeds():
    # closed-form orthant probability 2^-(d+1); 99th-percentile z-score <= 4
    p = OrthocentricParams((1.3, 1.3, 1.3, 1.3))
    exact = volume(VolumeRequest(geometry=p, kappa=p.s)).volume
    reports = mc_spherical_volumes([(p, p.s, 100_000, seed) for seed in range(100)])
    bad = sum(abs(rep.estimate - exact) > 4.0 * rep.std_error for rep in reports)
    assert bad <= 1


def test_mc_rejects_small_kappa():
    p = OrthocentricParams((1.0, 1.0, 1.0))
    with pytest.raises(GeometryDomainError):
        mc_spherical_volume(p, kappa=0.5 * p.s)


def test_mc_engine_cross_check():
    rng = np.random.default_rng(31)
    jobs = []
    for _ in range(3):
        d = int(rng.integers(2, 7))
        p = OrthocentricParams(tuple(rng.uniform(0.5, 2.0, d + 1)))
        kappa = p.s * float(rng.uniform(1.0, 2.5))
        jobs.append((p, kappa, 1_000_000, int(rng.integers(2 ** 31))))
    for (p, kappa, _, _), rep in zip(jobs, mc_spherical_volumes(jobs)):
        eng = volume(VolumeRequest(geometry=p, kappa=kappa)).volume
        assert abs(eng - rep.estimate) <= 3.5 * rep.std_error


#: d = 2..5 jobs: 1,000 samples (one short chunk), 131,072 (two whole
#: chunks), 2,100,000 (33 chunks, the last of 2,848 samples) and 65,537 (one
#: whole chunk and one of a single sample); each with its report's estimate
#: and standard error as mc_spherical_volume gives it for the job alone
MIXED_JOBS = [
    ((1.0, 1.2, 0.9), 1.5, 1_000, 11, "0x1.377880383bbcbp-2", "0x1.af11e75981204p-6"),
    ((0.7, 1.3, 1.0, 1.6, 0.9), 2.2, 131_072, 12,
     "0x1.2323c6f0e1a8dp-7", "0x1.76e7a2a596afep-14"),
    ((1.1, 0.8, 1.4, 1.0), 1.3, 2_100_000, 13, "0x1.96480b03a8111p-4", "0x1.eb913e1ae834bp-13"),
    ((0.9, 1.5, 0.6, 1.2, 1.0, 1.3), 1.8, 65_537, 14,
     "0x1.840081e743cfcp-10", "0x1.089ebc0bcd142p-15"),
]


def _mixed_batch():
    jobs, pinned = [], []
    for taus, factor, samples, seed, estimate, std_error in MIXED_JOBS:
        p = OrthocentricParams(taus)
        jobs.append((p, factor * p.s, samples, seed))
        pinned.append(oracles.MonteCarloReport(float.fromhex(estimate),
                                               float.fromhex(std_error), samples, seed))
    return jobs, pinned


def test_mc_batch_is_one_call_per_job_bit_for_bit():
    assert oracles._CHUNK == 65_536
    jobs, pinned = _mixed_batch()
    assert mc_spherical_volumes(jobs) == pinned
    assert [mc_spherical_volume(*job) for job in jobs] == pinned
    assert mc_spherical_volumes([]) == []


@pytest.mark.parametrize("cpus", [1, 3])
def test_mc_batch_reports_do_not_depend_on_the_worker_count(monkeypatch, cpus):
    pools = []

    class RecordingPool(oracles.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(oracles, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(oracles.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    jobs, pinned = _mixed_batch()
    assert mc_spherical_volumes(jobs) == pinned
    assert pools == [cpus]  # 38 chunks, so the CPU count sets the pool size


def test_mc_batch_memory_stays_bounded():
    # a 1.5-million-sample job (23 chunks) at d = 6 beside a small one: at
    # most one chunk per worker is in flight, and the tracemalloc peak of one
    # chunk is 0.44 MB for this job and about 0.82 MB at most (rows of
    # c = 50), so even 40 workers stay below the bound
    import tracemalloc
    p = OrthocentricParams((1.0, 1.1, 0.9, 1.2, 0.8, 1.3, 1.05))
    q = OrthocentricParams((1.0, 1.2, 0.9))
    tracemalloc.start()
    try:
        mc_spherical_volumes([(p, 2.0 * p.s, 1_500_000, 3), (q, 1.5 * q.s, 1_000, 4)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def _reference_chunk_hits(stream, m, coef):
    """The layout mc_spherical_volume's docstring states, as a plain loop:
    one binomial draw, at the wedge's share alpha / (2 pi) of the plane, for
    the number n of the survivors of rows 0 and 1; n uniforms U, n
    exponentials E and n normals Z, and xi = Z / q + rho sqrt(2E) cos(alpha U
    - beta) for each; then for each later row in tau order one standard
    normal per sample still inside, in sample order.  A single row is one
    binomial draw at 1/2."""
    rng = np.random.default_rng(stream)
    if len(coef) == 1:
        return int(rng.binomial(m, 0.5))
    c0, c1, *rest = coef.tolist()
    q = math.sqrt(1.0 + c0 * c0 + c1 * c1)
    r = c0 * c1 / math.sqrt((1.0 + c0 * c0) * (1.0 + c1 * c1))
    alpha = math.pi - math.acos(r)
    rho = math.hypot(c0, c1) / q
    beta = math.atan2(c0 * q, c1)
    n = int(rng.binomial(m, alpha / (2.0 * math.pi)))
    u = rng.random(n).tolist()
    e = rng.standard_exponential(n).tolist()
    z = rng.standard_normal(n).tolist()
    xi = [zi / q + math.cos(alpha * ui - beta) * (math.sqrt(2.0 * ei) * rho)
          for ui, ei, zi in zip(u, e, z)]
    for c in rest:
        row = rng.standard_normal(len(xi)).tolist()
        xi = [x for x, r in zip(xi, row) if r <= c * x]
    return len(xi)


@pytest.mark.parametrize("job", [0, 3], ids=["1000-samples", "65537-samples"])
def test_chunk_hits_follow_the_documented_layout(job):
    # the pinned MIXED_JOBS reports come from these per-chunk counts: one
    # short chunk, and a whole chunk followed by one of a single sample
    jobs, _ = _mixed_batch()
    p, kappa, samples, seed = jobs[job]
    coef = oracles._cone_coefficients(p, kappa, samples)
    streams = np.random.SeedSequence(seed).spawn(-(-samples // oracles._CHUNK))
    sizes = [min(oracles._CHUNK, samples - i * oracles._CHUNK) for i in range(len(streams))]
    assert sum(sizes) == samples
    for stream, m in zip(streams, sizes):
        assert oracles._chunk_hits(stream, m, coef) == _reference_chunk_hits(stream, m, coef)


def _orthant_integral(coef):
    """Prob[xi_j <= c_j xi for every row] as the one-dimensional integral of
    phi(x) prod_j Phi(c_j x), by QUADPACK, split at 0 where the product
    turns."""
    c = np.array(coef)

    def f(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * float(np.prod(ndtr(c * x)))

    return sum(integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
               for a, b in ((-math.inf, 0.0), (0.0, math.inf)))


def _orthant_probability(coef):
    """Exact Prob[xi_j <= c_j xi for every row].

    The rows' (xi_j - c_j xi) / sqrt(1 + c_j^2) are standard normals with
    correlations r_ij = c_i c_j / sqrt((1 + c_i^2)(1 + c_j^2)), and the
    orthant probabilities of one to three of them have closed forms; past
    three rows it is _orthant_integral."""
    r = [[ci * cj / math.sqrt((1 + ci * ci) * (1 + cj * cj)) for cj in coef] for ci in coef]
    if len(coef) == 1:
        return 0.5
    if len(coef) == 2:
        return 0.25 + math.asin(r[0][1]) / (2 * math.pi)
    if len(coef) == 3:
        return 0.125 + (math.asin(r[0][1]) + math.asin(r[0][2])
                        + math.asin(r[1][2])) / (4 * math.pi)
    return _orthant_integral(coef)


_CONE_ROWS = ([(c,) for c in (0.0, 0.3, 1.0, 5.0)]
              + [(a, b) for a in (0.0, 0.3, 1.0, 5.0) for b in (0.0, 0.3, 1.0, 5.0)]
              + [(0.0, 0.0, 0.0), (0.3, 1.0, 5.0), (5.0, 1.0, 0.3), (1.0, 5.0, 0.3),
                 (5.0, 5.0, 5.0), (0.0, 5.0, 1.0), (5.0, 0.0, 0.3)])

#: rows 0 and 1 with c = 50 (r up to 0.9996: a wedge of opening near pi,
#: and xi almost all in its plane part), and four to seven rows, checked
#: against _orthant_integral
_WIDE_ROWS = [(50.0, 50.0), (50.0, 0.3), (0.0, 50.0),
              (50.0, 50.0, 1.0), (50.0, 0.3, 5.0), (0.3, 50.0, 1.0), (50.0, 0.0, 50.0),
              (0.3, 1.0, 5.0, 0.0), (50.0, 50.0, 0.3, 1.0), (1.0, 1.0, 1.0, 1.0, 1.0),
              (5.0, 0.3, 1.0, 50.0, 0.0), (1.3, 0.7, 1.9, 1.1, 0.6, 5.0, 0.3),
              (50.0, 1.0, 0.3, 0.3, 5.0, 1.0, 50.0)]


@pytest.mark.parametrize("coef", _CONE_ROWS + _WIDE_ROWS, ids=lambda c: "-".join(map(str, c)))
def test_chunk_hits_have_the_exact_cone_probability(coef):
    # the first two rows are drawn from their probability and the law of xi
    # given them, not sampled, so this checks that law against the exact
    # probabilities: eight seeded substreams of a whole chunk each, within
    # 4 se.  Each case has its own SeedSequence (spawn key = its index), so
    # the cases' counts are independent draws
    case = (_CONE_ROWS + _WIDE_ROWS).index(coef)
    m, streams = oracles._CHUNK, np.random.SeedSequence(2026, spawn_key=(case,)).spawn(8)
    hits = sum(oracles._chunk_hits(s, m, np.array(coef)) for s in streams)
    n, p = m * len(streams), _orthant_probability(coef)
    assert abs(hits / n - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("coef", [(0.3,), (50.0, 0.3), (0.3, 1.0, 5.0), (50.0, 50.0, 1.0)],
                         ids=lambda c: "-".join(map(str, c)))
def test_orthant_integral_agrees_with_the_closed_forms(coef):
    # the integral that checks four to seven rows gives the closed forms of
    # one to three rows
    assert _orthant_integral(coef) == pytest.approx(_orthant_probability(coef), abs=1e-11)


@pytest.mark.parametrize("factor, samples, error", [
    (math.nan, 1_000, GeometryDomainError),
    (0.5, 1_000, GeometryDomainError),
    (2.0, 1, ValueError),
], ids=["nan-kappa", "kappa-below-s", "one-sample"])
def test_mc_batch_checks_every_job_before_sampling(monkeypatch, factor, samples, error):
    def no_sampling(*args):
        raise AssertionError("a chunk was sampled")

    monkeypatch.setattr(oracles, "_chunk_hits", no_sampling)
    p = OrthocentricParams((1.0, 1.1, 0.9))
    jobs = [(p, 2.0 * p.s, 2_000_000, 5), (p, factor * p.s, samples, 6)]
    with pytest.raises(error):
        mc_spherical_volumes(jobs)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_oracles_reject_a_non_finite_kappa(kappa):
    p = OrthocentricParams((1.0, 1.1, 0.9))
    with pytest.raises(GeometryDomainError, match="finite"):
        mc_spherical_volume(p, kappa, samples=1_000)
    with pytest.raises(GeometryDomainError, match="finite"):
        direct_klein_volume(realize_vertices(p), kappa)

def test_klein_near_zero_curvature_matches_euclidean():
    p = OrthocentricParams((1.0, 1.2, 0.9))
    ev = euclidean_volume(p)
    dk = direct_klein_volume(realize_vertices(p), kappa=1e-8, rel_tol=1e-9)
    assert abs(dk - ev) / ev < 1e-6


def test_klein_matches_engine_d2():
    p = regular_parameters(2, math.acosh(2.0), -1.0)
    dk = direct_klein_volume(realize_vertices(p), -1.0, rel_tol=1e-8)
    eng = volume(VolumeRequest(geometry=p, kappa=-1.0)).volume
    assert abs(dk - eng) / dk < 1e-4


def test_klein_abrosimov_engine_triple_check_d3():
    p = regular_parameters(3, 1.0, -1.0)
    dk = direct_klein_volume(realize_vertices(p), -1.0, rel_tol=1e-8)
    ab = regular_tetrahedron_volume(1.0)
    eng = volume(VolumeRequest(geometry=p, kappa=-1.0)).volume
    assert abs(dk - ab) < 1e-4
    assert abs(eng - ab) < 1e-7
    assert abs(dk - eng) < 1e-4


def test_klein_monotone_decreasing_in_kappa():
    p = OrthocentricParams((1.0, 1.1, 0.9))
    r = realize_vertices(p)
    k0 = min_curvature(p)
    kappas = [0.8 * k0, 0.4 * k0, 0.0 + 1e-12, 1.0, 5.0]
    vals = [direct_klein_volume(r, k, rel_tol=1e-8) for k in kappas]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_klein_dimension_cap():
    p = OrthocentricParams((1.0, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(CostLimitError):
        direct_klein_volume(realize_vertices(p), -0.1)


def test_log_sine_integral_value():
    v = ideal_tetrahedron_volume()
    assert v == pytest.approx(LOG_SINE_VALUE, abs=1e-12)
    assert round(v, 5) == 1.01494


def test_regular_tetrahedron_limits():
    assert regular_tetrahedron_volume(1e-9) < 1e-17
    big = regular_tetrahedron_volume(30.0)
    assert big < LOG_SINE_VALUE
    assert LOG_SINE_VALUE - big < 1e-8
    with pytest.raises(GeometryDomainError):
        regular_tetrahedron_volume(0.0)


def test_regular_tetrahedron_vs_engine():
    assert regular_volume(3, 1.0, -1.0).volume == pytest.approx(
        regular_tetrahedron_volume(1.0), abs=1e-7)


def test_package_import_leaves_oracles_and_reference_unloaded():
    # an ideal, a near-ideal and a series volume load no SciPy either, nor
    # does an orthocentric volume at kappa < 0, nor the asymptotic suite,
    # which loads no mpmath reference; the first ray, here at kappa > 0,
    # loads scipy.special; then the submodules are package attributes on
    # first use, as before
    code = ("import io, sys, simplexvol; "
            "loaded = lambda: sorted(m for m in ('scipy.integrate', 'scipy.special', 'mpmath', "
            "'simplexvol._hp') if m in sys.modules); "
            "print(loaded()); "
            "from simplexvol import cli; "
            "stdout, sys.stdout = sys.stdout, io.StringIO(); "
            "code = cli.main(['verify', 'asymptotic', '--dmax', '12']); "
            "text, sys.stdout = sys.stdout.getvalue(), stdout; "
            "print(code, text.count('PASS '), loaded()); "
            "ideal = simplexvol.regular_volume(2, float('inf'), -1.0); "
            "near = simplexvol.regular_volume(3, 8.0, -1.0); "
            "series = simplexvol.regular_volume(5, 1.0, -1.0); "
            "print(ideal.branch.value, near.branch.value, series.branch.value, loaded()); "
            "ortho = simplexvol.OrthocentricParams((1.0, 1.2, 0.9, 1.1)); "
            "hyp = simplexvol.volume(simplexvol.VolumeRequest(ortho, -0.5)); "
            "print(hyp.branch.value, loaded()); "
            "ray = simplexvol.volume(simplexvol.VolumeRequest(ortho, 0.5)); "
            "print(ray.branch.value, loaded()); "
            "print(simplexvol.oracles.__name__, simplexvol._hp.__name__)")
    src = str(Path(simplexvol.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split("\n")[:6] == [
        "[]", "0 3 []", "series series series []", "series []", "upper_ray ['scipy.special']",
        "simplexvol.oracles simplexvol._hp"]


def test_monte_carlo_loads_no_scipy():
    code = ("import sys; from simplexvol import OrthocentricParams; "
            "from simplexvol.oracles import mc_spherical_volume; "
            "p = OrthocentricParams((1.0, 1.2, 0.9)); "
            "rep = mc_spherical_volume(p, 2.0 * p.s, samples=1_000, seed=1); "
            "print(rep.estimate > 0, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(simplexvol.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout == "True []\n"


def test_lazy_package_names_are_the_module_attributes():
    for name in ("MonteCarloReport", "direct_klein_volume", "ideal_tetrahedron_volume",
                 "mc_spherical_volume", "mc_spherical_volumes", "regular_tetrahedron_volume"):
        assert getattr(simplexvol, name) is getattr(oracles, name)
    assert simplexvol.ideal_volume_highprec is _hp.ideal_volume_highprec
    assert simplexvol.oracles is oracles and simplexvol._hp is _hp
    namespace = {}
    exec("from simplexvol import *", namespace)
    assert set(simplexvol.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        simplexvol.no_such_name


def test_klein_refuses_a_simplex_outside_the_model_ball():
    p = OrthocentricParams((1.0, 1.1, 0.9, 1.2))
    verts = realize_vertices(p)
    assert direct_klein_volume(verts, 0.5 * min_curvature(p)) > 0
    with pytest.raises(GeometryDomainError):
        direct_klein_volume(verts, 1.5 * min_curvature(p))


def _klein_per_dimension(vertices, kappa, rel_tol):
    """The Klein integral by dblquad at d = 2 and tplquad at d = 3, through
    the standard map of the unit cube onto the simplex: a reference that
    shares no step with direct_klein_volume's cones from the origin."""
    d = vertices.shape[1]
    ex = (d + 1) / 2.0
    v0 = vertices[0]
    B = (vertices[1:] - v0).T
    jac0 = abs(np.linalg.det(B))
    if d == 2:
        def f(t2, t1):
            y = v0 + B[:, 0] * t1 + B[:, 1] * (t2 * (1.0 - t1))
            return (1.0 - t1) / (1.0 + kappa * (y @ y)) ** ex
        return jac0 * integrate.dblquad(f, 0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=rel_tol)[0]

    def f(t3, t2, t1):
        y = (v0 + B[:, 0] * t1 + B[:, 1] * (t2 * (1.0 - t1))
             + B[:, 2] * (t3 * (1.0 - t1) * (1.0 - t2)))
        return (1.0 - t1) ** 2 * (1.0 - t2) / (1.0 + kappa * (y @ y)) ** ex
    return jac0 * integrate.tplquad(f, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0,
                                    epsabs=0.0, epsrel=rel_tol)[0]


@pytest.mark.parametrize("taus, factor", [
    ((1.0, 1.3, 0.7), 0.6),
    ((0.9, 1.6, 0.6, 1.2), 0.4),
    ((1.0, 1.1, 0.9, 1.2), -0.5),
], ids=["d2-hyperbolic", "d3-hyperbolic", "d3-spherical"])
def test_klein_cones_match_per_dimension_quadrature(taus, factor):
    p = OrthocentricParams(taus)
    verts = realize_vertices(p)
    kappa = factor * min_curvature(p)
    ref = _klein_per_dimension(verts, kappa, 1e-12)
    assert abs(direct_klein_volume(verts, kappa, 1e-12) - ref) <= 1e-12 * ref


def _origin_weights(vertices):
    """The origin's barycentric coordinates in the simplex: the signed
    shares of the cones from the origin over the facets opposite each vertex."""
    d = vertices.shape[1]
    return np.linalg.solve(np.vstack([np.ones(d + 1), vertices.T]), np.eye(d + 1)[0])


def _cone_case(d, case):
    """Seeded vertices and a kappa for one edge case of the cone sum."""
    p = OrthocentricParams(tuple(np.random.default_rng(9).uniform(0.5, 2.0, d + 1)))
    verts = realize_vertices(p)
    where, _, sign = case.partition("-")
    if where not in ("outside", "facet"):
        return verts, {"flat": 1e-8, "half-s": p.s / 2, "twice-s": 2.0 * p.s,
                       "near-kappa0": 0.97 * min_curvature(p)}[case]
    # move the origin past the facet opposite v_0, or onto its centroid
    facet = verts[1:].mean(axis=0)
    verts = verts - (1.4 * facet - 0.4 * verts[0] if where == "outside" else facet)
    r2 = float(np.max(np.sum(verts * verts, axis=1)))
    return verts, -0.5 / r2 if sign == "hyperbolic" else 1.0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", [
    "flat", "half-s", "twice-s", "near-kappa0", "outside-hyperbolic", "outside-spherical",
    "facet-hyperbolic", "facet-spherical"])
def test_klein_cone_sum_edge_cases(d, case):
    # kappa ~ 0, spherical at s/2 and 2s, close to kappa0, and the origin
    # outside the simplex (a negative cone) or on a facet's plane (a zero one)
    verts, kappa = _cone_case(d, case)
    lam = _origin_weights(verts)
    if case.startswith("outside"):
        assert lam[0] < -0.1
    elif case.startswith("facet"):
        assert abs(lam[0]) < 1e-15
    else:
        assert lam.min() > 0.0
    ref = _klein_per_dimension(verts, kappa, 1e-10)
    assert abs(direct_klein_volume(verts, kappa, 1e-10) - ref) <= 1e-10 * ref


#: the points a of the radial closed forms' checks: both sides of 0 down to
#: 1e-12, both sides of the switch to R_3's series at |a| = 0.25, up to 1e7,
#: and down to 1e-13 above -1, where the density blows up
_RADIAL_POINTS = np.concatenate([
    -np.geomspace(1e-12, 0.9, 60), np.geomspace(1e-12, 1e7, 80),
    -1.0 + np.geomspace(1e-13, 0.1, 30), [0.0],
    [np.nextafter(s * 0.25, 0.0) for s in (1, -1)], [0.25, -0.25]])


@pytest.mark.parametrize("d", [2, 3])
def test_klein_radial_closed_forms_match_hyp2f1(d):
    # R_d(a) = 2F1((d+1)/2, d/2; d/2 + 1; -a)/d: within 6 ulp of a 40-digit
    # 2F1 everywhere, and within 12 ulp of scipy's hyp2f1 where that is
    # itself that close (it is off by 3e-14 near a = -0.996)
    a = _RADIAL_POINTS
    got = oracles._klein_radial(d, a)
    with mp.workdps(40):
        ref = np.array([float(mp.hyp2f1(mp.mpf(d + 1) / 2, mp.mpf(d) / 2, mp.mpf(d) / 2 + 1,
                                         -mp.mpf(x)) / d) for x in a])
    eps = np.finfo(float).eps
    assert np.max(np.abs(got / ref - 1.0)) <= 6 * eps
    inside = a >= -0.9
    scipy_ref = hyp2f1((d + 1) / 2, d / 2, d / 2 + 1, -a[inside]) / d
    assert np.max(np.abs(got[inside] / scipy_ref - 1.0)) <= 12 * eps
