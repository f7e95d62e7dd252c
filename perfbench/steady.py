#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and report how much each
end-to-end metric spreads.

    python3 perfbench/steady.py --workloads crossings --seeds 1-10 --out runs.json
    python3 perfbench/steady.py --workloads crossings --seeds 4,4,4,4,4

Every run lasts BENCHMARK.json's run_seconds.  The runs go seed by seed,
each seed through every workload, so a slow spell of the machine falls on
all workloads alike.  For each workload and metric it prints the median of
the runs and the distance between the first and third quartile
(statistics.quantiles with n=4) as a share of that median: the figure
BENCHMARK.json's bounds are judged against.  A seed may repeat: runs of
one seed differ only by the machine's noise, runs of many seeds also by
their inputs.  --out writes every run's metrics with its seed, the
machine and the git commit, when the checkout is a git repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"git_sha": git_sha(), "cpus": os.cpu_count(),
              "python": platform.python_version(), "seconds": spec["run_seconds"],
              "runs": []}
    ok = True
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            env = next((ln[2:] for ln in lines if ln.startswith("# cpus=")), "")
            result = json.loads(lines[-1])
            record["environment"] = env
            record["runs"].append({"workload": workload, "seed": seed, **result})
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    for workload in workloads:
        for name, vals in values[workload].items():
            if len(vals) < 2:
                continue
            s = spread(vals)
            flag = "" if s <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {workload} {name}: median {statistics.median(vals):.4g} "
                  f"spread {s:.3f} (bound {bounds[name]}){flag}")
            record.setdefault("spread", {}).setdefault(workload, {})[name] = {
                "median": statistics.median(vals), "iqr_share": s}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
