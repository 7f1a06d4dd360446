"""simplexvol benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; simplexvol is imported from ./src.  The run
repeats whole passes over the workload's case list until the next pass would
end after --seconds, checks every output against references computed without
the engine, and prints the metrics by name and unit, then one JSON line.
It exits 1 if any check fails and 2 if simplexvol cannot be imported.

--trace 0 reports setup_s, wall_s, op_p50_ms and peak_rss_mb.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus trace.overhead_s; spans are written to .bench_out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: one thread per BLAS pool and for sweeps: the timed passes are serial
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "SIMPLEXVOL_THREADS": "1"}

#: set-up is timed this many times before the timed passes and again after the
#: checks; the machine's speed drifts over seconds, so the two groups see
#: different conditions and their median is steadier than one group's
SETUP_REPEATS = 2

#: a fresh interpreter: import simplexvol, finish one volume, report it
SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import simplexvol; "
    "r = simplexvol.regular_volume(2, float('inf'), -1.0); "
    "print(repr(float(r.volume)), repr(float(r.abs_error)), flush=True)"
)


def declared_units(trace):
    """Metric names and units as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def op_percentiles(samples_ms):
    """Median of the operation times, and p90 only when at least 100 samples
    leave ten or more beyond it.

    Both are printed but not in the JSON: with 3 to 17 operations per run,
    the median operation of most workloads is one or two samples of about a
    second, too noisy to gate (see the README)."""
    out = {"op_p50_ms": statistics.median(samples_ms)}
    if len(samples_ms) >= 100:
        out["op_p90_ms"] = statistics.quantiles(samples_ms, n=10, method="inclusive")[-1]
    return out


@dataclass
class Pass:
    wall: float = 0.0
    op_ms: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def run_pass(workload):
    import workloads
    p = Pass()
    start = time.perf_counter()
    for label, op in workload.operations():
        t0 = time.perf_counter()
        try:
            out = op()
        except workloads.OperationFailed as exc:
            out = None
            p.failures.append(f"{label}: {exc}")
        p.op_ms.append(1e3 * (time.perf_counter() - t0))
        p.outputs.append(out)
    p.wall = time.perf_counter() - start
    return p


def measure_setup(chk):
    """Wall times from spawning a fresh interpreter to its first volume."""
    import checks
    env = dict(os.environ, **PINNED_ENV)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC)], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if chk.require("set-up process exits 0 and reports a volume", rc == 0 and line,
                       f"exit code {rc}"):
            vol, err = (float(x) for x in line.split())
            chk.against("set-up ideal d=2 vs pi", vol, err,
                        checks.ideal_regular_closed_form(2), 1e-15)
    return times


def run(args):
    import checks
    import spans
    import workloads

    units = declared_units(args.trace)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    chk = checks.Checks()
    workloads.warm_up(chk)
    setup_times = [] if args.trace else measure_setup(chk)

    passes, traced_passes, tracers = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload))
        if args.trace:
            tracer = spans.Tracer()
            with spans.traced(tracer):
                traced_passes.append(run_pass(workload))
            tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = passes + traced_passes
    failures = [f for p in every for f in p.failures]
    attempted = sum(len(p.outputs) for p in every)
    chk.require("no operation failed", not failures, "; ".join(failures[:5]))
    if not failures:
        first = every[0].outputs
        chk.require("every pass gives the same outputs", all(p.outputs == first for p in every),
                    "outputs differ between passes")
        workload.check(first, chk)

    lines = [f"workload {args.workload} seed {args.seed}: {len(passes)} untraced"
             + (f" + {len(traced_passes)} traced" if args.trace else "")
             + f" passes, {attempted} operations attempted, {len(failures)} failed",
             "  pass wall times: " + " ".join(f"{p.wall:.4f}" for p in every) + " s"]
    if args.trace:
        per_pass = [spans.layer_metrics(t.spans) for t in tracers]
        counts = {k: v for k, v in per_pass[0].items() if units[k] == "count"}
        chk.require("per-layer counts repeat in every traced pass",
                    all({k: m[k] for k in counts} == counts for m in per_pass))
        metrics = {k: (v if k in counts else statistics.median(m[k] for m in per_pass))
                   for k, v in per_pass[0].items()}
        from simplexvol import cnormal
        metrics.update(spans.cnormal_probe(cnormal.norm_cdf_array))
        untraced_wall = statistics.fmean(p.wall for p in passes)
        traced_wall = statistics.fmean(p.wall for p in traced_passes)
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        lines.append(f"tracing overhead: {traced_wall - untraced_wall:.4f} s per pass "
                     f"({traced_wall:.4f} s traced, {untraced_wall:.4f} s untraced)")
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(dump, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                       "passes": [[[s.id, s.parent, s.layer, s.name, s.t0, s.t1, s.work]
                                   for s in t.spans] for t in tracers]}, fh)
        lines.append(f"spans written to {dump.relative_to(ROOT)}")
    else:
        op_ms = [t for p in passes for t in p.op_ms]
        setup_times += measure_setup(chk)
        # the mean, not the median, of the passes: the machine's speed moves
        # in episodes of seconds, and the median of a few short passes jumps
        # between episodes where the mean averages over them
        metrics = {"setup_s": statistics.median(setup_times),
                   "wall_s": statistics.fmean(p.wall for p in passes),
                   "peak_rss_mb": peak_rss_mb}
        lines.extend(f"  {name} = {value:.6g} ms (over {len(op_ms)} operations; not in the JSON)"
                     for name, value in op_percentiles(op_ms).items())
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    for name, value in metrics.items():
        lines.append(f"  {name:<34} = {value:.6g} {units[name]}")
    lines.append(f"checks: {chk.passed} passed, {len(chk.failures)} failed")
    lines.extend(f"  FAILED {f}" for f in chk.failures)
    print("\n".join(lines))
    print(json.dumps({"correct": chk.ok, "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if chk.ok else 1


def main(argv=None):
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    try:
        import simplexvol
        import workloads
    except ImportError as exc:
        print(f"cannot import simplexvol from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(simplexvol.__file__).resolve().is_relative_to(SRC):
        print(f"simplexvol was imported from {simplexvol.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
