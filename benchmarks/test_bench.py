"""Tests of the benchmark's own pieces.

    python3 -m pytest benchmarks/test_bench.py -q
"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Span, self_times  # noqa: E402


def test_p90_needs_at_least_100_samples():
    samples = [float(i) for i in range(1, 100)]
    assert set(run.op_percentiles(samples)) == {"op_p50_ms"}
    pct = run.op_percentiles(samples + [100.0])
    assert set(pct) == {"op_p50_ms", "op_p90_ms"}
    assert pct["op_p50_ms"] == 50.5
    # ten of the hundred samples lie above the 90th percentile
    assert sum(s > pct["op_p90_ms"] for s in samples + [100.0]) == 10


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, "cli", "main", 0.0, 10.0),
        Span(1, 0, "engine", "volume", 1.0, 4.0),
        Span(2, 1, "cnormal", "norm_cdf_array", 2.0, 3.0),
        Span(3, 0, "engine", "volume", 3.0, 6.0),      # overlaps span 1
        Span(4, 0, "oracles", "mc", 8.0, 12.0),        # runs past its parent
    ]
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 5 - 2
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_a_volume_perturbed_by_one_part_in_a_million_is_rejected():
    from simplexvol import OrthocentricParams, VolumeRequest, regular_volume, volume

    r = regular_volume(3, math.inf, -1.0)
    ref = checks.ideal_regular_closed_form(3)
    chk = checks.Checks()
    assert chk.against("ideal d=3", r.volume, r.abs_error, ref, 1e-15)
    assert not chk.against("ideal d=3 perturbed", r.volume * (1 + 1e-6), r.abs_error, ref, 1e-15)

    taus = (0.7, 1.3, 1.9, 1.1)
    kappa = 1.7 * math.fsum(t * t for t in taus)
    r = volume(VolumeRequest(geometry=OrthocentricParams(taus), kappa=kappa))
    ref, ref_err = checks.spherical_one_factor(taus, kappa)
    assert chk.against("spherical d=3", r.volume, r.abs_error, ref, ref_err)
    assert not chk.against("spherical d=3 perturbed", r.volume * (1 - 1e-6), r.abs_error,
                           ref, ref_err)
    assert len(chk.failures) == 2


def test_a_claimed_error_below_the_actual_error_is_rejected():
    ref = checks.ideal_regular_closed_form(4)
    chk = checks.Checks()
    assert chk.against("honest", ref + 1e-9, 2e-9, ref, 1e-15)
    assert not chk.against("dishonest", ref + 1e-9, 5e-10, ref, 1e-15)
    assert not chk.against("swallowed", 1e-12, 1e-11, 0.0, 0.0)
    assert len(chk.failures) == 2


def test_independent_references_agree_with_each_other():
    taus = (0.9, 1.4, 0.6)
    kappa = 2.5 * math.fsum(t * t for t in taus)
    a, a_err = checks.spherical_one_factor(taus, kappa)
    b, b_err = checks.spherical_genz(taus, kappa, seed=1)
    assert abs(a - b) <= a_err + b_err
    # ideal regular triangle in the Klein model: kappa -> kappa0 makes it ideal,
    # so a kappa well inside must give less than pi
    est, se = checks.klein_monte_carlo((1.0, 1.0, 1.0), 0.5 * checks.min_curvature((1.0,) * 3),
                                       samples=20_000, seed=0)
    assert 0.0 < est < math.pi and se < 0.01 * est
