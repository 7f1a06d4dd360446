"""Write a BENCH_*.json performance record comparing two checkouts.

    python3 tools/record_bench.py --parent <dir> --change <dir> \\
        --parent-label <rev> --change-label <rev> --out BENCH_<n>.json

Each checkout is a full tree (``git archive`` or ``git clone``) with its own
``benchmarks/`` and ``src/``.  The record holds:

* a machine note: cores, CPU model, Python, NumPy, SciPy and mpmath versions,
  and the 1/5/15-minute load averages when the record starts and when it
  ends (one benchmark process adds about 1; more says that other work was
  loading the machine);
* for each workload of BENCHMARK.json and each end-to-end metric, both sides'
  runs, median and quartiles over PAIRS alternating pairs
  (``benchmarks/run.py --seconds 20 --trace 0``, one seed per pair, the side
  that runs first alternating), and how many pairs the change won;
* the ``--trace 1`` CDF points, head time, tail counts and time, the
  engine's self time, and the ``_hp`` and Monte Carlo oracle times, of every
  gated workload, on both sides;
* the time an orthocentric-hyperbolic pass spends building curvature-series
  tables (``engine._series_table``): the median over REPEATS passes after a
  warm-up, on both sides;
* per row, one 25-row ``volumes()`` call against the same 25 requests as
  one-row ``volume()`` calls, on the regular-sweep grid at d = 3, 5 and 12
  (kappa = -1): each the median over REPEATS calls after a warm-up, divided
  by 25, on both sides;
* ``regular_volume(d, ell)`` times for d = 2..14 at ell = inf and at the
  finite side lengths of REGULAR_ROWS, on both sides: per d the first call
  on its own (cold: it builds what the series keeps for its dimension) and
  the median of WARM_CALLS warm calls;
* orthocentric hyperbolic ``volume()`` times for d = 2..14 (taus ~ U(0.6, 1.8)
  from ``default_rng(d)``) at each fraction of kappa0 in ORTHO_FRACS, on both
  sides, cold and warm as the regular ones, each marked when the accuracy
  gate refuses it;
* ``ideal_volume_highprec(d)`` times for d = 2, 12 and 20, and the
  ``_hp._series_volume`` time of the d = 12 State taus at kappa0, each
  call after ``_hp``'s caches are cleared, on both sides (the State row
  only on a side whose ``_hp`` has that function);
* the ``tracemalloc`` peak of one cold d = 6, 10^6-sample
  ``mc_spherical_volume`` call, median over MC_COLD fresh processes, and the
  median time of REPEATS warm calls after it with tracing off, on both sides;
* the ``direct_klein_volume`` time of ``verify klein-direct`` per seed, for
  the seeds FIRST_SEED.. of the end-to-end pairs: the median over REPEATS
  runs of the suite after a warm-up, each the sum of its three calls, on
  both sides;
* the Tier-1 suite's wall time, summary line and slowest-test lines (the
  ``--durations`` that pyproject.toml asks pytest for), on both sides.

Runs are sequential, one process at a time, so the two sides never compete
for the machine.  Once ``benchmarks/`` writes the record itself, this script
goes.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from run import PINNED_ENV  # noqa: E402  the benchmark's environment, for the timings outside it

#: alternating parent/change pairs, one seed each from FIRST_SEED on
PAIRS = 10
FIRST_SEED = 3
#: the workload seed of the traced runs and of the table timing
TRACE_SEED = 1
#: ``--seconds`` of every benchmarks/run.py run
SECONDS = 20
#: timings of the table, high-precision, Monte Carlo and Klein children, after a warm-up
REPEATS = 5
#: warm calls per d of regular_volume and of the orthocentric volume, after
#: the first: the median of 5 could not show the direction of a change of
#: 20-40 us a call on a loaded 2-vCPU machine
WARM_CALLS = 200
#: an orthocentric volume slower than this is timed once (the parent's d = 14)
LONG_CALL_S = 5.0

TRACED_WORKLOADS = ("regular-sweep", "orthocentric-hyperbolic", "verify-oracles")
TRACED_METRICS = ("cnormal.points", "rayquad.head_s", "rayquad.tail_products",
                  "rayquad.tail_quadratures", "rayquad.tail_s", "engine.self_s",
                  "oracles.hp_s", "oracles.hp_calls", "oracles.mc_s")

#: one child per side and side length: warm up at d = 15, outside the timed
#: range, then per d the first call on its own (cold) and the median of
#: WARM_CALLS warm calls
REGULAR_CHILD = """
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from simplexvol import regular_volume
ell = float(sys.argv[3])

def timed(d):
    t0 = time.perf_counter()
    regular_volume(d, ell)
    return time.perf_counter() - t0

regular_volume(15, ell)
out = {}
for d in range(2, 15):
    cold = timed(d)
    warm = [timed(d) for _ in range(int(sys.argv[2]))]
    out[d] = {"cold_ms": 1e3 * cold, "ms": 1e3 * statistics.median(warm)}
print(json.dumps(out))
"""

#: the finite side lengths of the regular rows timed at kappa = -1: the
#: series ratio rho = 1 - 1/cosh(ell) is 0.35, 0.96, 0.992 and the
#: near-ideal 0.9993
REGULAR_ROWS = (1.0, 4.0, 5.5, 8.0)

#: the fractions of kappa0 of the orthocentric rows: at kappa0/2 the sums
#: stop within a few dozen terms; at 0.99 kappa0 and at kappa0 itself they
#: read grouped tables of up to 257 entries and, where the sum cannot stop
#: there, add the closed-form tail (a parent without that tail may take the
#: ray, or refuse the row)
ORTHO_FRACS = (0.5, 0.99, 1.0)

#: one child per side and fraction of kappa0: warm up at d = 15, outside the
#: timed range, and on the lower branch at d = 2, which takes the ray and
#: reads no table; then per d the first call on its own (cold) and the
#: median of WARM_CALLS warm calls, none where the first takes longer than
#: LONG_CALL_S
ORTHO_CHILD = """
import dataclasses, json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from simplexvol import engine, geometry
from simplexvol.errors import ToleranceError
warm_calls, long_call, frac = int(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4])

def request(d):
    taus = tuple(float(t) for t in np.random.default_rng(d).uniform(0.6, 1.8, d + 1))
    params = geometry.OrthocentricParams(taus)
    return engine.VolumeRequest(geometry=params, kappa=frac * geometry.min_curvature(params))

def timed(req):
    t0 = time.perf_counter()
    try:
        engine.volume(req)
    except ToleranceError:
        refused.add(req.geometry.dimension)
    return time.perf_counter() - t0

out, refused = {}, set()
for req in (request(15), dataclasses.replace(request(2), use_lower_branch=True)):
    timed(req)
refused.clear()
for d in range(2, 15):
    req = request(d)
    cold = timed(req)
    warm = [timed(req) for _ in range(warm_calls if cold < long_call else 0)]
    out[d] = {"cold_ms": 1e3 * cold, "ms": 1e3 * statistics.median(warm) if warm else None,
              "warm_calls": len(warm), "refused": d in refused}
print(json.dumps(out))
"""


#: one child per side: warm up, then per row the median of REPEATS calls,
#: each after every cache of _hp is cleared, so that a call builds the
#: tables it reads, as a test's first call on them does; the State row at
#: kappa0 only where _hp has _series_volume
HP_CHILD = """
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from simplexvol import OrthocentricParams, _hp, ideal_volume_highprec, min_curvature
rows = {d: lambda d=d: ideal_volume_highprec(d) for d in (2, 12, 20)}
if hasattr(_hp, "_series_volume"):
    taus = tuple(np.random.default_rng(12).uniform(0.6, 1.8, 13))
    kappa0 = min_curvature(OrthocentricParams(taus))
    rows["state12_kappa0"] = lambda: _hp._series_volume(taus, kappa0)
ideal_volume_highprec(2)
out = {}
for row, call in rows.items():
    times = []
    for _ in range(int(sys.argv[2])):
        for f in vars(_hp).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    out[row] = 1e3 * statistics.median(times)
print(json.dumps(out))
"""

#: one child per side: the tracemalloc peak of one cold Monte Carlo call, then
#: the median of REPEATS warm calls with tracing off
MC_CHILD = """
import json, statistics, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
from simplexvol import OrthocentricParams, mc_spherical_volume
params = OrthocentricParams((1.0, 1.1, 0.9, 1.2, 0.8, 1.3, 1.05))
def call():
    mc_spherical_volume(params, 2.0 * params.s, samples=1_000_000, seed=3)
tracemalloc.start()
call()
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
times = []
for _ in range(int(sys.argv[2])):
    t0 = time.perf_counter()
    call()
    times.append(time.perf_counter() - t0)
print(json.dumps({"peak_mib": peak / 2 ** 20, "ms": 1e3 * statistics.median(times)}))
"""


#: one child per side: the summed time of the _series_table calls of one
#: orthocentric-hyperbolic pass (its operations, not its checks), the median
#: over REPEATS passes after a warm-up pass
TABLE_CHILD = """
import json, statistics, sys, time
from pathlib import Path
sys.path[:0] = [sys.argv[1], str(Path(sys.argv[1]).parent / "benchmarks")]
from simplexvol import engine
from workloads import OrthocentricHyperbolic
inner, spent = engine._series_table, []
def timed(*args):
    t0 = time.perf_counter()
    try:
        return inner(*args)
    finally:
        spent.append(time.perf_counter() - t0)
engine._series_table = timed
ops = OrthocentricHyperbolic(int(sys.argv[3])).operations()
def run():
    spent.clear()
    for _, op in ops:
        op()
    return sum(spent)
run()
passes = [run() for _ in range(int(sys.argv[2]))]
print(json.dumps({"ms": 1e3 * statistics.median(passes), "calls_per_pass": len(spent)}))
"""


#: one child per side: per d, the 25 requests of the regular-sweep grid at
#: kappa = -1 as one volumes() call and as 25 one-row volume() calls, each
#: the median of REPEATS calls after a warm-up, in us per row
BATCH_CHILD = """
import json, statistics, sys, time
from pathlib import Path
sys.path[:0] = [sys.argv[1], str(Path(sys.argv[1]).parent / "benchmarks")]
from simplexvol import engine, geometry
from workloads import RegularSweep
grid, repeats = RegularSweep(int(sys.argv[3])).grid(-1.0), int(sys.argv[2])

def per_row_us(call, reqs):
    call(reqs)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call(reqs)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times) / len(reqs)

out = {}
for d in (3, 5, 12):
    reqs = [engine.VolumeRequest(geometry.regular_parameters(d, ell, -1.0), -1.0) for ell in grid]
    out[d] = {"batch_us": per_row_us(engine.volumes, reqs),
              "single_us": per_row_us(lambda rs: [engine.volume(r) for r in rs], reqs)}
print(json.dumps(out))
"""


#: fresh processes per side for the Monte Carlo peak: one cold call's traced
#: peak varies by up to 9% between processes of the same code
MC_COLD = 5

#: one child per side: per seed, the median over REPEATS runs of the
#: klein-direct suite of the time spent in its direct_klein_volume calls,
#: after a warm-up run; the suite's PASS lines are discarded
KLEIN_CHILD = """
import contextlib, io, json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from simplexvol import cli, oracles
inner, spent = oracles.direct_klein_volume, []
def timed(*args, **kwargs):
    t0 = time.perf_counter()
    try:
        return inner(*args, **kwargs)
    finally:
        spent.append(time.perf_counter() - t0)
oracles.direct_klein_volume = timed
def run(seed):
    spent.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        ok = all(passed for passed, _ in cli._suite_klein_direct(seed=seed))
    assert ok and len(spent) == 3, (seed, ok, len(spent))
    return sum(spent)
run(int(sys.argv[3]))
out = {}
for seed in range(int(sys.argv[3]), int(sys.argv[4])):
    out[seed] = 1e3 * statistics.median(run(seed) for _ in range(int(sys.argv[2])))
print(json.dumps(out))
"""


def machine_note():
    import mpmath
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cores": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "load_average_start": os.getloadavg()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def run_bench(root, workload, seed, trace):
    """The final JSON line of one benchmarks/run.py run in the checkout at root."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=30 * SECONDS + 600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(sides, workloads, metrics, seeds):
    runs = {w: {side: [] for side in sides} for w in workloads}
    for i, seed in enumerate(seeds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for w in workloads:
            for side in order:
                res = run_bench(sides[side], w, seed, 0)
                runs[w][side].append(res)
                print(f"pair {i} seed {seed} {w} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)
    out = {}
    for w in workloads:
        par, chg = runs[w]["parent"], runs[w]["change"]
        entry = {"correct": all(r["correct"] for r in par + chg),
                 "failed": sum(r["failed"] for r in par + chg)}
        for m in metrics:
            a = [r["metrics"][m]["value"] for r in par]
            b = [r["metrics"][m]["value"] for r in chg]
            entry[m] = {"unit": par[0]["metrics"][m]["unit"],
                        "parent": summary(a), "change": summary(b),
                        "change_wins": sum(y < x for x, y in zip(a, b))}
        out[w] = entry
    return out


def traced(sides, seed):
    out = {}
    for w in TRACED_WORKLOADS:
        out[w] = {}
        for side, root in sides.items():
            res = run_bench(root, w, seed, 1)
            out[w][side] = {m: res["metrics"][m]["value"] for m in TRACED_METRICS}
            out[w][side]["correct"] = res["correct"]
    return out


def cold_children(sides, child, runs, *args):
    """The median of each figure over runs fresh children per side, the two
    sides alternating, with every child's figures kept."""
    rows = {side: [] for side in sides}
    for i in range(runs):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            rows[side].append(child_times({side: sides[side]}, child, *args)[side])
    return {side: {**{k: statistics.median(r[k] for r in rs) for k in rs[0]}, "runs": rs}
            for side, rs in rows.items()}


def child_times(sides, child, *args):
    env = dict(os.environ, **PINNED_ENV)
    out = {}
    for side, root in sides.items():
        proc = subprocess.run([sys.executable, "-c", child, str(Path(root) / "src"),
                               *map(str, args)], capture_output=True, text=True, check=True,
                              env=env, timeout=1800)
        out[side] = json.loads(proc.stdout)
    return out


#: a line of pytest's slowest-durations report, "4.34s call     tests/..."
DURATION = re.compile(r"\d+\.\d+s (setup|call|teardown) ")


def tier1(sides):
    env = dict(os.environ, **PINNED_ENV, PYTHONPATH="src")
    out = {}
    for side, root in sides.items():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"], cwd=root,
                              capture_output=True, text=True, env=env, timeout=3600)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        out[side] = {"wall_s": wall, "summary": lines[-1].strip("= "),
                     "durations": [ln for ln in lines if DURATION.match(ln)]}
    return out


#: what REGULAR_CHILD and ORTHO_CHILD report per d
SINGLE_CALL_STATISTIC = (f"cold_ms the first call at d after a warm-up at d = 15, ms the median "
                     f"of {WARM_CALLS} warm calls after it")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--parent-label", required=True)
    ap.add_argument("--change-label", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    with open(Path(args.change) / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    seeds = list(range(FIRST_SEED, FIRST_SEED + PAIRS))
    record = {
        "commits": {"parent": args.parent_label, "change": args.change_label},
        "machine": machine_note(),
        "method": {"command": "python3 benchmarks/run.py --workload <w> --seed <n> "
                              f"--seconds {SECONDS} --trace 0",
                   "pairs": PAIRS, "seeds": seeds,
                   "order": "parent first in even pairs, change first in odd pairs",
                   "quartiles": "statistics.quantiles(n=4, method='inclusive')",
                   "change_wins": "pairs in which the change's value is lower"},
        "end_to_end": end_to_end(sides, workloads, metrics, seeds),
        "trace": {"seed": TRACE_SEED, "seconds": SECONDS,
                  "workloads": traced(sides, TRACE_SEED)},
        "orthocentric_table_ms": {"call": "the engine._series_table calls of one "
                                          "orthocentric-hyperbolic pass, --seed "
                                          f"{TRACE_SEED}, summed",
                                  "statistic": f"median of {REPEATS} passes after a warm-up",
                                  **child_times(sides, TABLE_CHILD, REPEATS, TRACE_SEED)},
        "series_batch_us": {"call": "engine.volumes() on the 25 requests of the regular-sweep "
                                    f"grid (--seed {TRACE_SEED}) at kappa = -1 and d = 3, 5 "
                                    "and 12, against the same requests as 25 one-row "
                                    "engine.volume() calls",
                            "statistic": f"per row: the median of {REPEATS} calls after a "
                                         "warm-up, divided by 25",
                            **child_times(sides, BATCH_CHILD, REPEATS, TRACE_SEED)},
        "regular_volume_ms": {"call": "regular_volume(d, inf)",
                              "statistic": SINGLE_CALL_STATISTIC,
                              **child_times(sides, REGULAR_CHILD, WARM_CALLS, "inf")},
        "regular_row_ms": {ell: {"call": f"regular_volume(d, {ell})",
                                 "statistic": SINGLE_CALL_STATISTIC,
                                 **child_times(sides, REGULAR_CHILD, WARM_CALLS, ell)}
                           for ell in REGULAR_ROWS},
        "orthocentric_volume_ms": {frac: {
            "call": "volume() of OrthocentricParams(taus), taus = "
                    f"default_rng(d).uniform(0.6, 1.8, d + 1), kappa = {frac} min_curvature",
            "statistic": f"{SINGLE_CALL_STATISTIC}; no warm calls (ms null) where the cold "
                         f"one takes over {LONG_CALL_S} s; a call the accuracy gate "
                         "refuses (ToleranceError) is timed to the refusal and marked",
            **child_times(sides, ORTHO_CHILD, WARM_CALLS, LONG_CALL_S, frac)}
            for frac in ORTHO_FRACS},
        "highprec_ms": {"call": "ideal_volume_highprec(d), and _hp._series_volume(taus, "
                                "kappa0) at the d = 12 State taus (state12_kappa0) where "
                                "_hp has it",
                        "statistic": f"median of {REPEATS} calls after a warm-up, each "
                                     "after every cache of _hp is cleared",
                        **child_times(sides, HP_CHILD, REPEATS)},
        "mc_spherical": {"call": "mc_spherical_volume(OrthocentricParams((1.0, 1.1, 0.9, "
                                 "1.2, 0.8, 1.3, 1.05)), 2 s, samples=10**6, seed=3), "
                                 "d = 6",
                         "statistic": "tracemalloc peak over one cold call in a "
                                      f"fresh process, and ms the median of {REPEATS} warm "
                                      "calls after it, untraced; each the median over "
                                      f"{MC_COLD} processes, the sides alternating",
                         **cold_children(sides, MC_CHILD, MC_COLD, REPEATS)},
        "klein_direct_ms": {"call": "the three direct_klein_volume(vertices, kappa, "
                                    "rel_tol=1e-8) calls of verify klein-direct --seed <n>",
                            "statistic": f"per seed, the median of {REPEATS} suite runs "
                                         "after a warm-up, each the sum of its three calls",
                            **child_times(sides, KLEIN_CHILD, REPEATS, FIRST_SEED,
                                          FIRST_SEED + PAIRS)},
        "tier1": tier1(sides),
    }
    record["machine"]["load_average_end"] = os.getloadavg()
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
