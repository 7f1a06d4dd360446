"""Ray integrals: head/tail split, split-point invariance, rotation invariance."""

import math

import numpy as np
import pytest

from simplexvol import rayquad
from simplexvol.cnormal import SQRT_2PI, norm_cdf_array
from simplexvol.engine import orthant_probability
from simplexvol.errors import NearPoleError, SectorError
from simplexvol.geometry import (
    OrthocentricParams, min_curvature, regular_parameters,
)
from simplexvol.quadrature import adaptive_gk, oscillation_edges
from simplexvol.rayquad import (
    SPLIT_A, IntegralResult, RayIntegralProblem, head_integral, ibp_tail, ray_integral,
)

BOUNDARY_RAYS = [1 - 1j, 1 + 1j]

# N(x) + N(-x) = 1, so int_0^inf (N(x) + N(-x)) e^{-x^2/2} dx = sqrt(2 pi) / 2
D0_RAY_VALUE = SQRT_2PI / 2


def test_head_empty_interval_is_zero():
    p = RayIntegralProblem((1.0,), 1.0, 1.0)
    assert head_integral(p, 0.0).value == 0.0


def test_single_factor_real_ray_oracle():
    r = ray_integral(RayIntegralProblem((1.0,), 1.0, 1.0))
    assert abs(r.value - D0_RAY_VALUE) < 1e-12
    assert abs(r.value.imag) < 1e-14


def test_single_factor_boundary_ray_matches_oracle():
    r = ray_integral(RayIntegralProblem((1.0,), 1.0, 1 - 1j))
    assert abs(r.value - D0_RAY_VALUE) < 1e-11
    assert r.abs_error_estimate < 1e-10


def test_equal_factor_ray_closed_form():
    # int_0^inf (N(x)^m + N(-x)^m) e^{-x^2/2} dx = int_R N(x)^m e^{-x^2/2} dx
    # = sqrt(2 pi) / (m+1): the chance that the largest of m+1 iid normals is
    # a given one; on the real ray and on both boundary rays
    for m in range(1, 6):
        for om in [1.0] + BOUNDARY_RAYS:
            r = ray_integral(RayIntegralProblem((1.0,) * m, 1.0, om))
            assert abs(r.value - SQRT_2PI / (m + 1)) <= r.abs_error_estimate
            assert r.abs_error_estimate < 1e-12


def test_interior_ray_matches_real_ray():
    # absolutely convergent rotated ray agrees with the real axis
    pa = RayIntegralProblem((1.0, 1.0), 1.0, np.exp(1j * np.pi / 8))
    pb = RayIntegralProblem((1.0, 1.0), 1.0, 1.0)
    ra, rb = ray_integral(pa), ray_integral(pb)
    assert abs(ra.value - rb.value) < 1e-10


def test_rotation_invariance_three_factors():
    results = []
    for om in [1.0, np.exp(1j * np.pi / 8), 1 - 1j, 1 + 1j]:
        p = RayIntegralProblem((1.0, 1.0, 1.0), 4.0, om)
        results.append(ray_integral(p))
    for a in results:
        for b in results:
            diff = abs(a.value - b.value)
            assert diff < 1e-10
            if a is not b:
                assert diff <= a.abs_error_estimate + b.abs_error_estimate


def test_real_positive_z_gives_real_value():
    for om in BOUNDARY_RAYS:
        r = ray_integral(RayIntegralProblem((0.6, 1.1, 1.7), 2.5, om))
        assert abs(r.value.imag) < 1e-10


def test_conjugation_between_half_planes():
    # the ray 1 + i at conj(z) is the mirror image of the ray 1 - i at z, on
    # the cut too, where each ray picks its own side (Im z = +0 and -0 alike)
    rng = np.random.default_rng(13)
    for i in range(20):
        mus = tuple(rng.uniform(0.3, 2.0, int(rng.integers(1, 5))))
        if i % 2:
            z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.0, 3.0))
        else:
            z = complex(rng.uniform(-3.0, -0.1), rng.choice([0.0, -0.0]))
        ru = ray_integral(RayIntegralProblem(mus, z, 1 - 1j))
        rl = ray_integral(RayIntegralProblem(mus, z.conjugate(), 1 + 1j))
        assert abs(ru.value - rl.value.conjugate()) <= (ru.abs_error_estimate
                                                        + rl.abs_error_estimate)


def _split_point_gap(p, A, B):
    """|head(A) + tail(A) - head(B) - tail(B)|: the ray integral split at A vs at B,
    and the sum of the four claimed bars."""
    parts = [head_integral(p, A), ibp_tail(p, A), head_integral(p, B), ibp_tail(p, B)]
    gap = abs(parts[0].value + parts[1].value - parts[2].value - parts[3].value)
    return gap, sum(r.abs_error_estimate for r in parts)


def test_split_point_invariance_random_problems():
    rng = np.random.default_rng(11)
    for _ in range(6):
        m = int(rng.integers(1, 4))
        mus = tuple(rng.uniform(0.3, 2.0, m) * rng.choice([-1.0, 1.0], m))
        z = complex(rng.uniform(-2.0, 3.0), rng.uniform(0.0, 2.5))
        p = RayIntegralProblem(mus, z, 1 - 1j)
        A = float(rng.uniform(0.8, 3.0))
        B = float(rng.uniform(8.0, 20.0))
        assert _split_point_gap(p, A, B)[0] < 1e-9


def test_split_point_invariance_large_A():
    # the tail's rates grow like A^2 and its factors sit deep in the erfcx
    # asymptotics; the split stays exact far out
    p = RayIntegralProblem((1.0, 0.8), 1.0 + 0.5j, 1 - 1j)
    assert _split_point_gap(p, 12.0, 30.0)[0] < 1e-9


def test_boundary_ray_at_z_zero():
    # every factor is N(0) = 1/2, so the integral is 2^(1-m) int_0^inf e^{-t^2/2} dt
    for m in range(1, 6):
        for om in BOUNDARY_RAYS:
            r = ray_integral(RayIntegralProblem((1.0,) * m, 0.0, om))
            assert abs(r.value - 2.0 ** -m * SQRT_2PI) <= r.abs_error_estimate
            assert r.abs_error_estimate < 1e-12


def test_ibp_assembly_matches_interior_ray_for_upper_z():
    # For Im z > 0 an interior ray keeps the CDF arguments inside the bounded
    # sectors and decays exponentially, giving an independent reference for
    # the boundary-ray head + stabilized tail
    z = 1.0 + 1.5j
    assembled = ray_integral(RayIntegralProblem((0.9, 1.4), z, 1 - 1j))
    interior = ray_integral(RayIntegralProblem((0.9, 1.4), z, np.exp(-0.5j)))
    assert abs(assembled.value - interior.value) < 1e-10


def test_near_pole_is_rejected():
    mus = (1.0, 0.5)
    z = -1.0 + 1e-12  # within the guard band of -1/mu^2 for mu = 1
    with pytest.raises(NearPoleError):
        ibp_tail(RayIntegralProblem(mus, z, 1 - 1j), SPLIT_A)


def test_problem_validation():
    with pytest.raises(ValueError):
        RayIntegralProblem((), 1.0, 1.0)
    with pytest.raises(ValueError):
        RayIntegralProblem((0.0,), 1.0, 1.0)
    with pytest.raises(ValueError):
        RayIntegralProblem((1.0,), 1.0, 1j)  # arg = pi/2 > pi/4
    with pytest.raises(ValueError):
        RayIntegralProblem((1.0,), -1j, 1 - 1j)  # Im z < 0


def test_branch_sqrt_half_plane_convention():
    def root(z, om):
        return RayIntegralProblem((1.0,), z, om).branch_sqrt_z()

    # the cut: the ray 1 - i takes +i sqrt(r) and 1 + i takes -i sqrt(r),
    # whatever the sign of Im z = 0
    for im in (0.0, -0.0):
        assert root(complex(-4.0, im), 1 - 1j) == pytest.approx(2j, abs=1e-15)
        assert root(complex(-4.0, im), 1 + 1j) == pytest.approx(-2j, abs=1e-15)
    for om in BOUNDARY_RAYS:
        assert root(0j, om) == 0
    rng = np.random.default_rng(3)
    for om, (lo, hi) in [(1 - 1j, (0.0, math.pi)), (1 + 1j, (-math.pi, 0.0))]:
        for r, th in zip(rng.uniform(0.1, 10.0, 20), rng.uniform(lo, hi, 20)):
            want = math.sqrt(r) * np.exp(0.5j * th)
            assert root(r * np.exp(1j * th), om) == pytest.approx(want, rel=1e-14)


def test_half_plane_omega_mismatch():
    # the boundary ray 1 + i faces an upper-half-plane z across the real axis
    with pytest.raises(ValueError):
        RayIntegralProblem((1.0,), 1.0 + 1j, 1 + 1j)


def test_interior_ray_sector_guard():
    # complex z pushes the CDF arguments outside the bounded sectors
    p = RayIntegralProblem((1.0,), 4j, np.exp(1j * np.pi / 8))
    with pytest.raises(SectorError):
        ray_integral(p)


def _half_kappa0(taus):
    params = OrthocentricParams(taus)
    return params, min_curvature(params) / 2


@pytest.mark.parametrize("params, kappa", [
    # ideal regular d = 5: all six factors equal (1 + 6 + 15 integrals, 3 distinct)
    (regular_parameters(5, math.inf, -1.0), -1.0),
    # distinct taus: all 1 + 5 + 10 integrals differ
    _half_kappa0((1.0, 1.4, 0.7, 1.1, 0.9)),
    # two repeated pairs: 1 + 3 + 5 distinct integrals
    _half_kappa0((1.0, 1.0, 1.3, 1.3, 0.8)),
], ids=["ideal-regular-d5", "distinct-d4", "two-pairs-d4"])
def test_ibp_tail_runs_one_tail_pass_per_ray(monkeypatch, params, kappa):
    nodes = []
    real = rayquad.tail_product_integral

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        nodes.append(result[2])
        return result

    monkeypatch.setattr(rayquad, "tail_product_integral", counted)
    p = RayIntegralProblem(params.multipliers(), kappa - params.s, 1 - 1j)
    r = ibp_tail(p, SPLIT_A)
    assert len(nodes) == 1
    # every node of the pass, and nothing else
    assert r.evaluations == nodes[0]
    # a transform integrates both CDF products on one ray, in one tail pass
    nodes.clear()
    orthant_probability(params.multipliers(), kappa - params.s)
    assert len(nodes) == 1


def _hyperbolic_rays():
    """Seeded distinct-tau rays, then the ideal regular rays d = 2..8 (the only
    ones with a composition of rate exactly 0, whose tail decays algebraically)."""
    rng = np.random.default_rng(7)
    for _ in range(8):
        params = OrthocentricParams(tuple(rng.uniform(0.6, 1.8, int(rng.integers(3, 8)))))
        z = float(rng.uniform(0.2, 0.8)) * min_curvature(params) - params.s
        yield params, z, float(rng.uniform(1.0, 3.0)), float(rng.uniform(5.0, 8.0))
    for d in range(2, 9):
        params = regular_parameters(d, math.inf, -1.0)
        yield (params, -1.0 - params.s,
               float(rng.uniform(1.0, 3.0)), float(rng.uniform(5.0, 8.0)))


def test_split_point_invariance_hyperbolic_rays():
    # real z < 0, as every hyperbolic volume has, on both half planes; the two
    # splits see different tail rates X |g_n|, rotations and truncation points
    for params, z, A, B in _hyperbolic_rays():
        for om in BOUNDARY_RAYS:
            p = RayIntegralProblem(params.multipliers(), z, om)
            gap, bars = _split_point_gap(p, A, B)
            assert gap <= bars
            assert gap < 1e-10


def test_problem_groups_factors_in_order_of_first_appearance():
    p = RayIntegralProblem((0.7, 1.2, 0.7, -0.5, 1.2, 0.7), 1.0, 1 - 1j)
    assert p.distinct == (0.7, 1.2, -0.5)
    assert p.counts == (3, 2, 1)
    assert p.index == (0, 1, 0, 2, 1, 0)
    assert tuple(p.distinct[g] for g in p.index) == p.mus
    # the grouping is derived, so it takes no part in equality
    assert p == RayIntegralProblem(p.mus, 1.0, 1 - 1j)


def _per_factor_segment(p, L, tol, min_panels):
    """The direct segment with one CDF row per factor, grouping nothing:
    the reference the grouped rows must reproduce bit for bit."""
    cs = np.array(p.mus) * p.branch_sqrt_z() * p.omega
    om2 = p.omega * p.omega

    def f(y):
        vals = norm_cdf_array(cs[:, None] * y[None, :])
        return ((np.prod(vals, axis=0) + np.prod(1.0 - vals, axis=0))
                * np.exp(-0.5 * om2 * y * y) * p.omega)

    edges = oscillation_edges(L, abs(om2.imag), min_panels=min_panels)
    vals, errs, neval = adaptive_gk(f, edges, tol,
                                    max_panels=max(rayquad._MAX_PANELS, 3 * len(edges)))
    return complex(vals[0]), float(errs[0]) + 2 * len(cs) * L * 2e-15, neval


_REGULAR_D12 = regular_parameters(12, 1.0, -1.0)
_DISTINCT_D6 = OrthocentricParams((1.0, 1.4, 0.7, 1.1, 0.9, 1.25, 0.65))
_REPEATED_D6 = OrthocentricParams((1.0, 1.3, 0.8, 1.0, 1.3, 0.8, 1.0))


@pytest.mark.parametrize("params, distinct", [
    (_REGULAR_D12, 1), (_DISTINCT_D6, 7), (_REPEATED_D6, 3),
], ids=["regular-d12", "distinct-d6", "repeated-non-adjacent-d6"])
def test_grouped_segment_is_bit_identical_to_per_factor_rows(monkeypatch, params, distinct):
    # one hyperbolic head per boundary ray, and one spherical interior ray
    mus = params.multipliers()
    z_hyp = min_curvature(params) / 2 - params.s
    problems = [RayIntegralProblem(mus, z_hyp, om) for om in BOUNDARY_RAYS]
    interior = RayIntegralProblem(mus, params.s, np.exp(-0.3j))
    assert len(interior.distinct) == distinct

    calls = []
    real_cdf = rayquad.norm_cdf_array

    def spy(z):
        calls.append(np.shape(z))
        return real_cdf(z)

    monkeypatch.setattr(rayquad, "norm_cdf_array", spy)
    got = [head_integral(p, SPLIT_A) for p in problems] + [ray_integral(interior)]
    # each call evaluates one row per distinct multiplier, at every node once
    assert calls and all(rows == distinct for rows, _ in calls)
    assert sum(n for _, n in calls) == sum(r.evaluations for r in got)

    monkeypatch.setattr(rayquad, "_segment", _per_factor_segment)
    want = [head_integral(p, SPLIT_A) for p in problems] + [ray_integral(interior)]
    assert got == want


# tail_product_integral (value, bar, nodes) on both boundary rays at X = SPLIT_A^2,
# as computed before the tail shared the ray's grouping
_TAIL_PINS = {
    "ideal-regular-d5": [
        ((-0.37256880666468395 - 0.13044707168393824j), 1.205886113895312e-14, 315),
        ((-0.37256880666468395 + 0.13044707168393824j), 1.2021624552998807e-14, 315),
    ],
    "two-pairs-d4": [
        ((-0.16026700127942065 - 0.15561081665558352j), 4.99606866352136e-15, 255),
        ((-0.16026700127942065 + 0.15561081665558352j), 4.995750601291803e-15, 255),
    ],
    # six distinct taus: the bars' last digits follow the order of the
    # composition-by-log-erfcx product, which the two cases above do not see
    "distinct-d5": [
        ((-0.05677132055312211 - 0.1905654764218061j), 1.5717448648762755e-14, 255),
        ((-0.05677132055312211 + 0.1905654764218061j), 1.5716045731430866e-14, 255),
    ],
}

#: an orthocentric-hyperbolic case of the benchmark (seed 1, d = 5)
_DISTINCT_D5 = (OrthocentricParams((1.1502267565475663, 1.9380465443057255, 1.2503735331030115,
                                    1.2990622094824895, 1.720991295621691, 0.5470554023001624)),
                -0.19485179548080855)


@pytest.mark.parametrize("name, params, kappa", [
    ("ideal-regular-d5", regular_parameters(5, math.inf, -1.0), -1.0),
    ("two-pairs-d4", *_half_kappa0((1.0, 1.0, 1.3, 1.3, 0.8))),
    ("distinct-d5", *_DISTINCT_D5),
])
def test_tail_product_integral_pinned(name, params, kappa):
    for om, pin in zip(BOUNDARY_RAYS, _TAIL_PINS[name]):
        p = RayIntegralProblem(params.multipliers(), kappa - params.s, om)
        assert rayquad.tail_product_integral(p, SPLIT_A ** 2) == pin


def test_ibp_tail_refuses_interior_rays_and_non_positive_splits():
    with pytest.raises(SectorError):
        ibp_tail(RayIntegralProblem((1.0, 0.8), 1.0, np.exp(-1j * np.pi / 8)), SPLIT_A)
    p = RayIntegralProblem((1.0, 0.8), -0.5, 1 - 1j)
    assert ibp_tail(p, SPLIT_A).abs_error_estimate < 1e-10
    for A in (0.0, -1.0):
        with pytest.raises(ValueError):
            ibp_tail(p, A)
