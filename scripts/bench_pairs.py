#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``, written to one JSON file.

    python scripts/bench_pairs.py OLD_TREE NEW_TREE --seeds 7919,1 --out BENCH_41.json

Each tree is a checkout holding ``perfbench/run.py``; each runs its own copy
with ``--trace 0`` for the ``run_seconds`` of the new tree's
``BENCHMARK.json``.  For every workload listed there and every seed the
script makes ten pairs of runs, the old tree first in even pairs and the new
tree first in odd ones.  Before each run it deletes the tree's ``src/mzlab/__pycache__`` and
runs with ``PYTHONDONTWRITEBYTECODE=1``, so every run compiles mzlab afresh.

The file keeps every run's scaled metrics, its raw metrics, its host factor
and its load average (from the run record perfbench writes), and per
workload, seed and metric: each side's median and quartiles, scaled and raw,
the median new/old ratio of the pairs and how many pairs the new tree won.
It names each tree by a SHA-256 over its ``src/mzlab/*.py`` files, and
records before and after the pairs whether the host runs two CPU-bound
processes as fast as one (``cpu_check``): a parallel speed-up can only show
where it does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10


def src_digest(tree: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((tree / "src" / "mzlab").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_check() -> dict:
    """Wall time of a fixed CPU-bound loop in one process, then in two at once."""
    argv = [sys.executable, "-c", "sum(i * i for i in range(10_000_000))"]
    times = {}
    for k in (1, 2):
        t0 = time.perf_counter()
        for proc in [subprocess.Popen(argv) for _ in range(k)]:
            proc.wait()
        times[f"{k}_process_s"] = time.perf_counter() - t0
    return times


def run(tree: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One perfbench run: its metrics, and the environment its record names."""
    shutil.rmtree(tree / "src" / "mzlab" / "__pycache__", ignore_errors=True)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True,
                          env=os.environ | {"PYTHONDONTWRITEBYTECODE": "1"})
    out = json.loads(proc.stdout.splitlines()[-1])
    path = next(line.split(": ", 1)[1] for line in proc.stdout.splitlines() if line.startswith("record: "))
    record = json.loads((tree / path).read_text())
    result = record["result"]
    return {"correct": out["correct"], "failed": out["failed"], "attempted": out["attempted"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()},
            "raw_metrics": result["raw_metrics"], "host_factor": result["host_factor"],
            "loadavg_before": record["env"]["loadavg_before"]}, record["env"]


def quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summary(pairs: list[dict], better: dict) -> dict:
    out = {}
    for name, sign in better.items():
        old = [p["old"]["metrics"][name] for p in pairs]
        new = [p["new"]["metrics"][name] for p in pairs]
        raw = {side: [p[side]["raw_metrics"][name] for p in pairs] for side in ("old", "new")
               if name in pairs[0][side]["raw_metrics"]}
        out[name] = {"old": quartiles(old), "new": quartiles(new),
                     "raw": {side: quartiles(xs) for side, xs in raw.items()},
                     "ratio_new_over_old": statistics.median(n / o for n, o in zip(new, old)),
                     "pairs_new_better": sum((n - o) * sign > 0 for n, o in zip(new, old)), "pairs": len(pairs)}
    out["host_factor"] = {side: quartiles([p[side]["host_factor"] for p in pairs]) for side in ("old", "new")}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--seeds", required=True, help="comma-separated workload seeds, e.g. 7919,1")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    seeds = [int(s) for s in args.seeds.split(",")]
    bench = json.loads((trees["new"] / "BENCHMARK.json").read_text())
    workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    better = {m["name"]: 1 if m["better"] == "higher" else -1 for m in bench["end_to_end"]}
    results, cpu = [], {"before": cpu_check()}
    for workload in workloads:
        for seed in seeds:
            pairs = []
            for i in range(PAIRS):
                pair = {}
                for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
                    pair[side], env = run(trees[side], workload, seed, seconds)
                pairs.append(pair)
                old, new = pair["old"]["metrics"], pair["new"]["metrics"]
                print(f"{workload} seed {seed} pair {i}: " + "  ".join(
                    f"{name} {old[name]:.4g} -> {new[name]:.4g}" for name in better), flush=True)
            results.append({"workload": workload, "seed": seed, "summary": summary(pairs, better), "pairs": pairs})
    cpu["after"] = cpu_check()
    doc = {"old_src_sha256": src_digest(trees["old"]), "new_src_sha256": src_digest(trees["new"]),
           "workloads": workloads, "seeds": seeds, "pairs": PAIRS, "seconds": seconds,
           "env": {k: v for k, v in env.items() if not k.startswith("loadavg")}, "cpu_check": cpu,
           "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "results": results}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
