#!/usr/bin/env python3
"""Cold wall time and peak RSS of mzlab ops against their size, two source trees alternating.

    python scripts/bench_scaling.py OLD_TREE NEW_TREE --out BENCH_scaling.json

Each tree is a checkout holding ``src/mzlab``.  The ops are the cold rows of
ROADMAP's "Where the time goes now" table, each at a few sizes (N, |alpha|,
|beta| or r), plus ``compare_outputs.LARGE_N_OPS``.  Every run is a fresh
``python -m mzlab`` child (``python -c "import mzlab.cli"`` for the start-up
row) with ``PYTHONDONTWRITEBYTECODE=1``, after the tree's
``src/mzlab/__pycache__`` is deleted, so each run compiles mzlab afresh.
``os.wait4`` gives the child's ``ru_maxrss``; its wall time is taken from
the start of the child to its reaping.  For each op the script makes
``PAIRS`` pairs, the old tree first in even pairs and the new tree first in
odd ones, so both trees see the same drift of the host.

Every child runs under an address-space limit (``RLIMIT_AS``) of half of
this host's ``MemAvailable``.  A child's address space is at least its
resident set, so an op that would need more than that fails there with
exit 3 and "out of memory"; it is run no further, and the file names it
under ``left_out`` instead of timing it.

The file keeps every run (wall seconds, peak RSS in MB, exit code) and per
op each tree's median and the median new/old ratio of the pairs.  It names
each tree by a SHA-256 over its ``src/mzlab/*.py`` files.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import src_digest
from compare_outputs import LARGE_N_OPS

PAIRS = 3

# (row, axis, value, argv): the cold rows of ROADMAP's table, each at a few sizes
SCALING_OPS = (
    [("import mzlab.cli", "-", 0, ["-c", "import mzlab.cli"])]
    + [("fock sweep", "N", n, ["sweep", "--scenario", "fock", "--n", str(n)]) for n in (16, 1000, 3000)]
    + [("noon sweep", "N", n, ["sweep", "--scenario", "noon", "--n", str(n)]) for n in (100, 400, 1000)]
    + [("twin_fock sweep", "N", n, ["sweep", "--scenario", "twin_fock", "--n", str(n)]) for n in (50, 100, 200)]
    + [("sample 10^5 trials", "N", n, ["sample", "--n", str(n), "--trials", "100000"]) for n in (100, 300)]
    + [("coherent sweep", "alpha/beta", f"{a}/{b}", ["sweep", "--scenario", "coherent", "--alpha", a, "--beta", b])
       for a, b in (("1000", "1"), ("1", "1000"), ("2", "3000"))]
    + [("squeezed sweep", "alpha/r", "300/2.8", ["sweep", "--scenario", "squeezed", "--alpha", "300", "--r", "2.8"]),
       ("squeezed sweep", "alpha/r", "300/5", ["sweep", "--scenario", "squeezed", "--alpha", "300", "--r", "5"]),
       ("squeezed sweep, epsilon_trunc 1e-6", "alpha/r", "300/5",
        ["sweep", "--scenario", "squeezed", "--alpha", "300", "--r", "5", "--epsilon-trunc", "1e-6"])]
    + [(f"{cmd} --beta", "beta", 40, [cmd, "--beta", "40"]) for cmd in ("qfi-table", "metric-check")]
    + [(f"large_n:{i}", "-", 0, argv) for i, argv in enumerate(LARGE_N_OPS)]
)


def mem_available_mb() -> float:
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no MemAvailable in /proc/meminfo")


def run(tree: Path, argv: list[str], budget_mb: int, workdir: str) -> dict:
    """One fresh child: its wall seconds, peak RSS in MB, exit code and last stderr line."""
    shutil.rmtree(tree / "src" / "mzlab" / "__pycache__", ignore_errors=True)
    cmd = [sys.executable] + (argv if argv[0] == "-c" else ["-m", "mzlab", *argv, "--out", "out.csv"])
    env = os.environ | {"PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    limit = budget_mb * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            preexec_fn=cap)
    err = proc.stderr.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    return {"wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode,
            "stderr": err.strip().splitlines()[-1] if err.strip() else ""}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    budget = int(mem_available_mb() / 2)
    rows, left_out = [], []
    with tempfile.TemporaryDirectory() as workdir:
        for row, axis, value, argv in SCALING_OPS:
            runs = {"old": [], "new": []}
            for i in range(PAIRS):
                for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
                    runs[side].append(run(trees[side], argv, budget, workdir))
                if any("out of memory" in r["stderr"] for side in runs for r in runs[side]):
                    break
            over = [side for side in runs if any("out of memory" in r["stderr"] for r in runs[side])]
            if over:
                reason = f"out of memory under the {budget} MB address-space cap ({', '.join(over)})"
                left_out.append({"row": row, "axis": axis, "value": value, "argv": argv, "reason": reason})
                print(f"{row} {value}: left out, over the {budget} MB cap", flush=True)
                continue
            med = {side: {k: statistics.median(r[k] for r in runs[side]) for k in ("wall_s", "maxrss_mb")}
                   for side in runs}
            ratio = statistics.median(n["wall_s"] / o["wall_s"] for o, n in zip(runs["old"], runs["new"]))
            rows.append({"row": row, "axis": axis, "value": value, "argv": argv, "median": med,
                         "wall_ratio_new_over_old": ratio,
                         "pairs_new_faster": sum(n["wall_s"] < o["wall_s"] for o, n in zip(runs["old"], runs["new"])),
                         "runs": runs})
            print(f"{row} {value}: old {med['old']['wall_s']:.3f} s {med['old']['maxrss_mb']:.1f} MB, "
                  f"new {med['new']['wall_s']:.3f} s {med['new']['maxrss_mb']:.1f} MB", flush=True)
    doc = {"old_src_sha256": src_digest(trees["old"]), "new_src_sha256": src_digest(trees["new"]),
           "pairs": PAIRS, "budget_mb": budget,
           "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy"), "machine": platform.machine()},
           "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "rows": rows, "left_out": left_out}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
