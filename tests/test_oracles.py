"""Reference oracles: Monte Carlo cone sampling, Klein integration, tetrahedra."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    regular_tetrahedron_volume,
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


def test_mc_zscores_over_many_seeds():
    # closed-form orthant probability 2^-(d+1); 99th-percentile z-score <= 4
    p = OrthocentricParams((1.3, 1.3, 1.3, 1.3))
    exact = volume(VolumeRequest(geometry=p, kappa=p.s)).volume
    bad = 0
    for seed in range(100):
        rep = mc_spherical_volume(p, kappa=p.s, samples=100_000, seed=seed)
        if abs(rep.estimate - exact) > 4.0 * rep.std_error:
            bad += 1
    assert bad <= 1


def test_mc_rejects_small_kappa():
    p = OrthocentricParams((1.0, 1.0, 1.0))
    with pytest.raises(GeometryDomainError):
        mc_spherical_volume(p, kappa=0.5 * p.s)


def test_mc_engine_cross_check():
    rng = np.random.default_rng(31)
    for _ in range(3):
        d = int(rng.integers(2, 7))
        p = OrthocentricParams(tuple(rng.uniform(0.5, 2.0, d + 1)))
        kappa = p.s * float(rng.uniform(1.0, 2.5))
        rep = mc_spherical_volume(p, kappa, samples=1_000_000,
                                  seed=int(rng.integers(2 ** 31)))
        eng = volume(VolumeRequest(geometry=p, kappa=kappa)).volume
        assert abs(eng - rep.estimate) <= 3.5 * rep.std_error


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


def test_package_import_leaves_oracles_and_twin_unloaded():
    # then the submodules are package attributes on first use, as before
    code = ("import sys, simplexvol; "
            "print(sorted(m for m in ('scipy.integrate', 'mpmath') if m in sys.modules)); "
            "print(simplexvol.oracles.__name__, simplexvol._hp.__name__)")
    src = str(Path(simplexvol.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split("\n")[:2] == ["[]", "simplexvol.oracles simplexvol._hp"]


def test_lazy_package_names_are_the_module_attributes():
    for name in ("MonteCarloReport", "direct_klein_volume", "ideal_tetrahedron_volume",
                 "mc_spherical_volume", "regular_tetrahedron_volume"):
        assert getattr(simplexvol, name) is getattr(oracles, name)
    assert simplexvol.ideal_volume_highprec is _hp.ideal_volume_highprec
    assert simplexvol.oracles is oracles and simplexvol._hp is _hp
    namespace = {}
    exec("from simplexvol import *", namespace)
    assert set(simplexvol.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        simplexvol.no_such_name
