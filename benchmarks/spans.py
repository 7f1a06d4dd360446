"""In-memory spans around the public functions of the simplexvol layers.

Callers bind names at import time (``rayquad.norm_cdf_array``,
``rayquad.adaptive_gk``, ``engine.ray_integral``, ...), so a wrapper is put on
every module attribute that names the wrapped function, in the calling module
as well as the defining one.  Spans are kept in a list while a pass runs and
turned into per-layer metrics afterwards; nothing is written during a pass.
"""

import functools
import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("cnormal", "quadrature", "rayquad", "engine", "geometry", "cli", "oracles", "_hp")

#: work recorded on a span from (args, result): CDF points, GK nodes, MC samples
_WORK = {
    ("cnormal", "norm_cdf_array"): lambda args, result: int(np.size(args[0])),
    ("quadrature", "adaptive_gk"): lambda args, result: int(result[2]),
    ("oracles", "mc_spherical_volume"): lambda args, result: int(result.samples),
}


class Span:
    __slots__ = ("id", "parent", "layer", "name", "t0", "t1", "work")

    def __init__(self, id, parent, layer, name, t0=0.0, t1=0.0, work=0):
        self.id = id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.work = work

    @property
    def duration(self):
        return self.t1 - self.t0


class Tracer:
    """Records one span per wrapped call; single-threaded use only."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, layer, name, fn):
        work = _WORK.get((layer, name))
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1].id if stack else None, layer, name)
            spans.append(span)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        return wrapper


@contextmanager
def traced(tracer):
    """Install the tracer's wrappers on every simplexvol module, and remove them after."""
    for layer in LAYERS:
        importlib.import_module(f"simplexvol.{layer}")
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "simplexvol" or n.startswith("simplexvol.")]
    patched = []
    try:
        for layer in LAYERS:
            mod = sys.modules[f"simplexvol.{layer}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = tracer.wrap(layer, name, fn)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, attr, wrapper)
                            patched.append((ns, attr, fn))
        yield tracer
    finally:
        for ns, attr, fn in reversed(patched):
            setattr(ns, attr, fn)


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover.

    spans is a sequence of objects with id (equal to the index), parent, t0, t1.
    """
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        end = s.t0
        for a, b in sorted(kids):
            a, b = max(a, end), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out.append(s.duration - covered)
    return out


def layer_metrics(spans):
    """Per-layer counts and times of one traced pass (see the README's table)."""
    selfs = self_times(spans)
    n = len(spans)
    in_head = [False] * n
    in_tail = [False] * n
    has_head_child = [False] * n
    for s in spans:
        p = s.parent
        in_head[s.id] = (p is not None and in_head[p]) or s.name == "head_integral"
        in_tail[s.id] = (p is not None and in_tail[p]) or s.name == "ibp_tail"
        if p is not None and s.name in ("head_integral", "ibp_tail"):
            has_head_child[p] = True

    def named(layer, *names):
        return [s for s in spans if s.layer == layer and s.name in names]

    def self_s(layer):
        return sum(t for s, t in zip(spans, selfs) if s.layer == layer)

    def total(ss):
        return sum(s.duration for s in ss)

    cdf = named("cnormal", "norm_cdf_array")
    points = sum(s.work for s in cdf)
    top_cdf = [s for s in spans if s.layer == "cnormal"
               and (s.parent is None or spans[s.parent].layer != "cnormal")]
    gk = named("quadrature", "adaptive_gk")
    rays = named("rayquad", "ray_integral")
    mc = named("oracles", "mc_spherical_volume")
    mc_s = total(mc)
    hp = named("_hp", "ideal_volume_highprec")
    cnormal_self = self_s("cnormal")
    return {
        "cnormal.calls": len(top_cdf),
        "cnormal.points": points,
        "cnormal.self_s": cnormal_self,
        "cnormal.ns_per_point": 1e9 * cnormal_self / points if points else 0.0,
        "quadrature.calls": len(gk),
        "quadrature.rule_applications": sum(s.work // 15 for s in gk),
        "quadrature.self_s": self_s("quadrature"),
        "rayquad.ray_calls": len(rays),
        "rayquad.head_s": total(named("rayquad", "head_integral")),
        "rayquad.head_rule_applications": sum(s.work // 15 for s in gk if in_head[s.id]),
        "rayquad.tail_s": total(named("rayquad", "ibp_tail")),
        "rayquad.tail_products": len(named("rayquad", "tail_product_integral")),
        "rayquad.tail_quadratures": sum(1 for s in gk if in_tail[s.id]),
        "rayquad.tail_rule_applications": sum(s.work // 15 for s in gk if in_tail[s.id]),
        "rayquad.interior_s": total(s for s in rays if not has_head_child[s.id]),
        "engine.volume_calls": len(named("engine", "volume")),
        "engine.orthant_s": total(named("engine", "orthant_probability")),
        "engine.self_s": self_s("engine"),
        "geometry.self_s": self_s("geometry"),
        "cli.self_s": self_s("cli"),
        "oracles.mc_s": mc_s,
        "oracles.mc_samples_per_s": sum(s.work for s in mc) / mc_s if mc_s > 0 else 0.0,
        "oracles.klein_s": total(named("oracles", "direct_klein_volume")),
        "oracles.tetrahedron_s": total(named("oracles", "ideal_tetrahedron_volume",
                                             "regular_tetrahedron_volume")),
        "oracles.hp_s": total(hp),
        "oracles.hp_calls": len(hp),
    }


#: fixed probe seed, so the kernel figures compare across runs and commits
PROBE_SEED = 20240815


def cnormal_probe(norm_cdf_array, points=2000, repeats=5):
    """ns per point of the CDF on fixed seeded batches, per evaluation region.

    bounded: |arg(+-z)| <= pi/4, |z| <= 8; growth: the other two sectors,
    |z| <= 8; asymptotic: any direction, 8 < |z| <= 20.
    """
    rng = np.random.default_rng(PROBE_SEED)
    quarter = np.pi / 4

    def batch(rlo, rhi, thlo, thhi):
        r = rng.uniform(rlo, rhi, points)
        th = rng.uniform(thlo, thhi, points)
        sign = rng.choice([-1.0, 1.0], points)
        return sign * r * np.exp(1j * th)

    regions = {
        "bounded": batch(0.0, 8.0, -quarter, quarter),
        "growth": batch(0.0, 8.0, quarter, 3 * quarter),
        "asymptotic": batch(8.0 + 1e-9, 20.0, -np.pi, np.pi),
    }
    out = {}
    for name, z in regions.items():
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            norm_cdf_array(z)
            times.append(time.perf_counter() - t0)
        out[f"cnormal.{name}_ns_per_point"] = 1e9 * statistics.median(times) / points
    return out
