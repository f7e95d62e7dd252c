#!/usr/bin/env python3
"""inka benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload crossings --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in, never from an installed copy.  The run makes its inputs
from --seed, times a fixed number of rounds of the workload (the number
that fills --seconds on the machine the benchmark was tuned on, so it
does not change with the machine's speed), checks the first round's
outputs and that later rounds repeat them, and
prints one result as the last line of standard output.  The times it
reports are the process's CPU seconds, which leave out the time the host
takes the CPU away, scaled to a fixed host speed by a reference kernel
timed between the items (``workloads.reference``); wall times go on
comment lines.  --trace 0 reports
the end-to-end metrics of BENCHMARK.json; --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics instead.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 9
# CPU seconds the reference kernel takes at about the median speed of the
# 2-vCPU machine the benchmark was tuned on.  A run whose kernel runs take
# ref seconds (median) reports each CPU time t as t * REF_S / ref.
REF_S = 0.001
# A run stops early, with fewer rounds than planned, only when its next
# round would likely end past this many times --seconds; then it says so.
# This keeps a run within its time budget in the machine's slow spells.
OVERRUN = 1.3


SETUP_CODE = """\
import sys, time
from pathlib import Path
w0, c0 = time.perf_counter(), time.process_time()
sys.path.insert(0, {src!r})
import inka
import_wall, import_cpu = time.perf_counter() - w0, time.process_time() - c0
sys.path.insert(0, {bench!r})
from workloads import WORKLOADS
wl = WORKLOADS[{name!r}](Path({root!r}), Path({work!r}), {seed})
w1, c1 = time.perf_counter(), time.process_time()
wl.load(inka)
wall, cpu = import_wall + time.perf_counter() - w1, import_cpu + time.process_time() - c1
from workloads import reference
print(wall, cpu, sorted(reference() for _ in range(9))[4])
"""


def setup_seconds(name: str, work: Path, seed: int) -> tuple[float, float]:
    """Median wall time and scaled CPU time of `import inka` plus the
    workload's load calls, each in a fresh interpreter; making the
    workload object is not timed.  Each interpreter scales its CPU time by
    REF_S over its own reference kernel median, from nine runs after the
    loads.  One unrecorded run first fills the bytecode cache, which users
    pay once, not per command."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name, root=str(ROOT),
                             work=str(work), seed=seed)
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        wall, cpu, ref = map(float, done.stdout.split()[-3:])
        times.append((wall, cpu * REF_S / ref))
    return (statistics.median(w for w, _ in times[1:]),
            statistics.median(c for _, c in times[1:]))


def percentile(samples, q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def environment() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']}-{blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset (one per CPU)")
    return (f"cpus={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas={blas} OPENBLAS_NUM_THREADS={threads}")


def run(args, spec, work: Path) -> tuple[dict, bool]:
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](ROOT, work, args.seed)
    setup_wall_s, setup_s = setup_seconds(args.workload, work, args.seed)

    import inka

    warnings.simplefilter("ignore", inka.ParseWarning)
    wl.load(inka)
    wl.generate(inka)
    n_items = len(wl.items)

    # Round walls and the rounds' summed item CPU times, traced and
    # untraced, the untraced rounds' item CPU times, and every reference
    # kernel time.
    walls: dict[bool, list[float]] = {False: [], True: []}
    busy: dict[bool, list[float]] = {False: [], True: []}
    lats: list[list[float]] = []
    refs: list[float] = []
    tracer = Tracer()
    first_out = first_keys = None
    round_fail: list[str | None] = []
    planned = wl.rounds(args.seconds)
    rounds = 0
    start = time.perf_counter()
    while rounds < planned:
        traced = bool(args.trace) and rounds % 2 == 1
        t0 = time.perf_counter()
        if traced:
            with tracer:
                cpu, outs, errs, round_refs = wl.run(inka)
        else:
            cpu, outs, errs, round_refs = wl.run(inka)
        walls[traced].append(time.perf_counter() - t0)
        busy[traced].append(sum(cpu))
        refs.extend(round_refs)
        if not traced:
            lats.append(cpu)
        if first_out is None:
            first_out, round_fail = outs, list(errs)
            first_keys = [wl.output_key(o) for o in outs]
        else:
            for i, (o, e) in enumerate(zip(outs, errs)):
                if e or wl.output_key(o) != first_keys[i]:
                    round_fail[i] = round_fail[i] or e or "output differs from round 1"
        rounds += 1
        next_end = time.perf_counter() - start + time.perf_counter() - t0
        if 2 <= rounds < planned and next_end > OVERRUN * args.seconds:
            print(f"# stopped after {rounds} of {planned} rounds: the next would "
                  f"end past {OVERRUN:g} x {args.seconds:g} s")
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # One speed factor for the run.  Scaling each item by the kernel runs
    # next to it steadied no workload more in same-machine trials.
    factor = REF_S / statistics.median(refs)

    # Round 1 is checked and later rounds must repeat it, so an item that
    # failed in any round counts as failed in every round.
    checks = wl.check(inka, first_out)
    reasons = [e or c for e, c in zip(round_fail, checks)]
    failed = sum(r is not None for r in reasons) * rounds
    attempted = n_items * rounds
    for r in reasons:
        if r:
            print(f"FAIL {r}", file=sys.stderr)

    if args.trace:
        layers = tracer.layer_metrics(len(walls[True]))
        layers["bench.workers"] = getattr(wl, "workers", 0)
        tasks_s, bench_s = layers.get("bench.layer_busy_s", 0), layers.get("bench.run_bench_s", 0)
        layers["bench.parallel_efficiency"] = (
            tasks_s / (bench_s * layers["bench.workers"]) if bench_s else 0.0)
        layers["trace.overhead_share"] = (statistics.median(busy[True])
                                          / statistics.median(busy[False]) - 1.0)
        declared = spec["per_layer"]
        tracer.dump(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        for name in sorted(set(layers) - {m["name"] for m in declared}):
            print(f"  {name} = {layers[name]:.6g}")
        values = {m["name"]: layers.get(m["name"], 0.0) for m in declared}
    else:
        declared = spec["end_to_end"]
        per_item = [factor * statistics.median(item) for item in zip(*lats)]
        values = {
            "setup_s": setup_s,
            "norm_cpu_s": factor * statistics.median(busy[False]),
            "norm_item_cpu_p50_ms": 1e3 * statistics.median(per_item),
            "norm_item_cpu_p95_ms": 1e3 * percentile(per_item, 95),
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    correct = failed == 0
    print(f"# {environment()}")
    print(f"# workload {args.workload} seed {args.seed}: {rounds} rounds "
          f"({len(walls[True])} traced) of {n_items} items; round walls "
          + " ".join(f"{w:.3f}" for w in walls[False] + walls[True])
          + f" s; median untraced round {statistics.median(walls[False]):.3f} s wall, "
          f"{statistics.median(busy[False]):.3f} s CPU; reference kernel median "
          f"{1e3 * statistics.median(refs):.4f} ms CPU, speed factor {factor:.4f}; "
          f"setup {setup_wall_s:.4f} s wall")
    print(f"# verdict {'PASS' if correct else 'FAIL'}: failed {failed} of {attempted} "
          f"(failed_share {failed / attempted:g})")
    for name, m in metrics.items():
        print(f"  {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [SRC / "inka" / "__init__.py", ROOT / "data" / "bench.json",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not an inka checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, correct = run(args, spec, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
