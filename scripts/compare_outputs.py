#!/usr/bin/env python3
"""Compare the outputs of two mzlab source trees, op by op.

    python scripts/compare_outputs.py OLD_TREE NEW_TREE --seeds 1-3

A tree is a checkout (holding ``src/mzlab``) or a directory holding
``mzlab``.  The ops are every CLI call of the three benchmark workloads for
each seed (``perfbench/workloads.generate``, imported without writing
anything there), fixed ``sample`` ops on edges the workloads never reach
(``EDGE_SAMPLE_OPS``), fixed ops on photon numbers above the workloads',
on weak metric-check probes and on the tables' coherent rows at beta 5 and
20 (``LARGE_N_OPS``), one refusal of each
kind that mzlab itself raises (``REFUSAL_OPS``), command lines at the edge of
what mzlab reads without argparse (``ARGV_OPS``), ops that read a ``--config``
file (``CONFIG_OPS``), one squeezed sweep right
after the edge ops (``AFTER_EDGE_OP``), shorter outputs written over longer
ones at one path (``OVERWRITE_OPS``), ``scripts/run_benchmark_cases.py``, the five
reference sweeps and the two tables, and ``scripts/noon_loss_study.py --trials
20000``, whose CSV and stdout are compared too: each tree runs its own copy of the
loss study (this checkout's, for a tree that holds only ``mzlab``).  Each tree
runs the workload, edge, large-N, config and overwrite ops in a subprocess of
its own, one op after another
in one interpreter, as the benchmark does; BLAS is pinned to one thread so
both trees sum in the same order.  Like the benchmark's warm passes, that
subprocess then runs the workload ops a second time over their own
first-pass CSVs, and the script says for each tree whether every second
pass wrote the bytes of the first.

The squeezed sweep is there to catch state that one op leaves behind for
the next.  It runs as ``after_edge:0`` in a second interpreter, right after
the edge ops run there again, and as ``fresh:0`` alone in a third.  Its
amplitudes read log-factorials; a table of those grown across calls would
give it other last bits after the small sample ops than in a fresh process.
So a number that depends on what ran earlier shows up as a difference
between the two trees, and the script says for each tree whether the two
runs of the op wrote the same CSV.

For every op it prints whether the exit code, the stdout, the stderr and
the CSV are byte-identical, then the worst difference per CSV column over
all ops, scaled by max(1, |x|), with the number of numeric cells that moved
and of the ops they are in, and the cells whose empty/inf/nan pattern
changed.  It ends with each tree's ``mzlab/*.py`` line total, counted as
``wc -l`` counts it (newline bytes).
Exit status: 0 if every op is byte-identical and every second pass of the
new tree wrote the bytes of its first, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CASES_SCRIPT = REPO / "scripts" / "run_benchmark_cases.py"
LOSS_STUDY = Path("scripts") / "noon_loss_study.py"
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# sample ops off the workloads' path: total loss, unequal arms, N = 1 and 16, no post-selection,
# 1 and 2**16 + 1 trials, the largest seed, and a phase on a zero of the NOON parity fringe cos(N phi)
EDGE_SAMPLE_OPS = [
    ["sample", "--n", "4", "--eta", "0", "--trials", "5000", "--seed", "1"],
    ["sample", "--n", "4", "--eta", "0", "--trials", "5000", "--seed", "1", "--post-select"],
    ["sample", "--n", "6", "--eta-a", "0.95", "--eta-b", "0.6", "--trials", "200000", "--seed", "17", "--post-select"],
    ["sample", "--n", "1", "--eta", "0.8", "--trials", "100000", "--seed", "5", "--post-select"],
    ["sample", "--n", "16", "--eta", "0.9", "--trials", "300000", "--seed", "99", "--post-select"],
    ["sample", "--n", "8", "--eta", "0.7", "--trials", "250000", "--seed", "2024"],
    ["sample", "--n", "4", "--eta", "0.9", "--trials", "1", "--seed", "3"],
    ["sample", "--n", "4", "--eta", "0.9", "--trials", "65537", "--seed", str(2**64 - 1), "--post-select"],
    ["sample", "--n", "4", "--phi-at", repr(math.pi / 8), "--eta", "0.85", "--trials", "100000", "--seed", "8",
     "--post-select"],
]

# fixed-N ops above the workloads' N <= 16: their splitter blocks (BS1_SYMMETRIC to 2N = 80, BS2_JX to
# N = 150) are ones no workload op builds, so byte identity covers the ladder and the splitter memo there too;
# and a product probe of ~40,000 amplitudes a mode, far above the workloads' and still below the ~55,100 where
# an int64 product of four ladder factors would overflow, so both trees must agree there byte for byte;
# and product readouts off the workloads' path: a squeezed probe of ~2,000 and ~1,700 amplitudes a mode, a
# squeezed vacuum with a squeeze phase (complex amplitudes on the BS1 path), and two caps below the coherent
# cutoffs of 59: at 55 every pair sum takes a truncated partial sum, and 20 leaves too much mass out (exit 3);
# a coherent probe of ~10^6 amplitudes in mode a and its mirror in mode b, the ops here whose plans take their
# rows one run at a time, the mirror again with a cap that truncates its pair sums, and a 300/300 probe: there
# the amplitude fill stops below the peak at AMP_FLUSH and the deficits sum only the nonzero masses, in both
# modes; two weak probes whose metric-check rate is far below the float epsilon of an overlap; and a
# metric-check at beta 1, whose truncated coherent state has squared norm 0.9999999999999999 but a deficit
# that rounds to 0.0 when summed on the two-mode basis; and two squeezed vacua past r ~ 2.69, where a cutoff
# search capped at 12 rebuilds gave up (exit 3): r = 2.8 and 3.5 now keep cutoffs 3,238 and 14,440, prefixes
# of one build of 4,220 and 18,782 amplitudes at the first cutoff past the squeezed tail bound; and a squeezed
# probe capped below its cutoffs 76 + 40, so the BS1 plan, whose rows read up to two mode-b words each, takes
# truncated partial pair sums: against the uncapped sweep, a cap of 90 moves second_o by up to 7.7e-15
# relative and a cap of 60 by 5.3e-6; and qfi-table and metric-check at beta 5 and 20, whose coherent rows
# a difference <n^2> - <n>^2 would cancel (1.9e-12 relative in f_q at beta 20); and the tables' fock and
# noon rows above the workloads' N, read on their weights over the generator values
LARGE_N_OPS = [
    ["sweep", "--scenario", "noon", "--n", "60"],
    ["sweep", "--scenario", "noon", "--n", "150"],
    ["sweep", "--scenario", "twin_fock", "--n", "40"],
    ["sample", "--n", "40", "--eta", "0.9", "--trials", "20000", "--seed", "3", "--post-select"],
    ["qfi-table", "--noon-n", "30", "--fock-n", "40"],
    ["metric-check", "--noon-n", "30"],
    ["sweep", "--scenario", "coherent", "--alpha", "200", "--beta", "200"],
    ["sweep", "--scenario", "squeezed", "--alpha", "40", "--r", "2.5"],
    ["sweep", "--scenario", "squeezed", "--alpha", "4", "--r", "1", "--theta", "1.3"],
    ["sweep", "--scenario", "coherent", "--alpha", "3", "--beta", "3", "--n-cap", "20"],
    ["sweep", "--scenario", "coherent", "--alpha", "3", "--beta", "3", "--n-cap", "55"],
    ["sweep", "--scenario", "coherent", "--alpha", "1000", "--beta", "1"],
    ["sweep", "--scenario", "coherent", "--alpha", "1", "--beta", "1000"],
    ["sweep", "--scenario", "coherent", "--alpha", "1", "--beta", "1000", "--n-cap", "1005000", "--epsilon-trunc",
     "1e-6"],
    ["sweep", "--scenario", "coherent", "--alpha", "300", "--beta", "300"],
    ["metric-check", "--beta", "1e-4"],
    ["metric-check", "--beta", "1e-2", "--noon-n", "1"],
    ["metric-check", "--beta", "1"],
    ["sweep", "--scenario", "squeezed", "--alpha", "300", "--r", "2.8"],
    ["sweep", "--scenario", "squeezed", "--alpha", "60", "--r", "3.5"],
    ["sweep", "--scenario", "squeezed", "--alpha", "4", "--r", "0.9", "--n-cap", "90", "--epsilon-trunc", "1e-6"],
    ["sweep", "--scenario", "squeezed", "--alpha", "4", "--r", "0.9", "--n-cap", "60", "--epsilon-trunc", "1e-6"],
    ["qfi-table", "--beta", "5"],
    ["qfi-table", "--beta", "20"],
    ["metric-check", "--beta", "5"],
    ["metric-check", "--beta", "20"],
    ["qfi-table", "--fock-n", "64", "--noon-n", "16"],
    ["metric-check", "--noon-n", "16", "--step", "1e-2"],
]


# inputs mzlab refuses with exit 2 after its flags have been read, one of each kind: a grid whose top
# harmonic overflows, a config field out of range, a field the scenario does not read, a probe the squeezed
# scenario refuses (|alpha|^2 < 8 sinh(r)^2), a sampled phase whose phase factor overflows, a probe with no
# Fisher information, a finite-difference step that moves no sampled phase and one whose product with the
# largest generator value overflows
REFUSAL_OPS = [
    ["sweep", "--scenario", "noon", "--n", "400", "--phi", "0:1e306:5"],
    ["sweep", "--scenario", "fock", "--n", "0"],
    ["sweep", "--scenario", "fock", "--n", "3", "--n-cap", "5"],
    ["sweep", "--scenario", "squeezed", "--alpha", "1", "--r", "1"],
    ["sample", "--n", "4", "--phi-at", "1e308"],
    ["qfi-table", "--beta", "0"],
    ["metric-check", "--step", "1e-300"],
    ["metric-check", "--step", "1e308"],
]

# command lines at the edge of what mzlab reads without argparse (exact flags, each with a value that does
# not start with '-'): a repeated flag (the last one wins) and a repeated --post-select, which it reads, and
# what it leaves to argparse: an abbreviation, the '=' form, a negative value, an unknown flag, a flag with no
# value, a bad choice, a bad int, help and an unknown command.  Their errors print the subcommand's usage line,
# which lists its flags, so both trees must have the same flags for these to match.
ARGV_OPS = [
    ["sweep", "--scen", "fock", "--n", "3", "--phi", "0:1:5"],
    ["sweep", "--scenario", "fock", "--n", "3", "--phi=-1:1:5"],
    ["sweep", "--scenario", "coherent", "--alpha", "-1"],
    ["sweep", "--scenario", "fock", "--n", "3", "--n", "5", "--phi", "0:1:5"],
    ["sample", "--n", "2", "--trials", "1000", "--seed", "3", "--post-select", "--post-select"],
    ["sweep", "--no-such-flag"],
    ["sweep", "--scenario", "fock", "--n"],
    ["sweep", "--scenario", "bogus"],
    ["sweep", "--scenario", "fock", "--n", "x"],
    ["sweep", "-h"],
    ["bogus"],
]

# ops that read a --config file, as (file text, argv): the worker writes the text, in latin-1, to a file of
# its own and appends --config <file>.  A fock sweep, a flag over that file's grid, a lossy sample, a coherent
# file whose epsilon_trunc no absent flag may mask (alone, then under the flag that sets the default again),
# and three refusals: a sample file whose scenario is not noon, a file that is not UTF-8 (the byte 0xff) and a
# file that sets a key twice
CONFIG_OPS = [
    ("scenario = fock\nn = 6\nphi_steps = 31\n", ["sweep"]),
    ("scenario = fock\nn = 6\nphi_steps = 31\n", ["sweep", "--phi", "0:1:7"]),
    ("n = 5\neta_a = 0.9\neta_b = 0.75\ntrials = 50000\nseed = 12\npost_select = true\n", ["sample"]),
    ("scenario = coherent\nn_cap = 28\nepsilon_trunc = 1e-7\nphi_steps = 5\n", ["sweep"]),
    ("scenario = coherent\nn_cap = 28\nepsilon_trunc = 1e-7\nphi_steps = 5\n", ["sweep", "--epsilon-trunc", "1e-10"]),
    ("scenario = fock\nn = 3\ntrials = 100\n", ["sample"]),
    ("n = 4\n\xff\n", ["sweep"]),
    ("scenario = fock\nn = 3\nphi_steps = 5\nn = 4\n", ["sweep"]),
]

AFTER_EDGE_OP = ["sweep", "--scenario", "squeezed", "--alpha", "4", "--r", "1"]

# a long output, then a shorter one written over it at the same path: the CSV left must hold no tail of the first
OVERWRITE_OPS = [
    [["sweep", "--scenario", "coherent"], ["sweep", "--scenario", "coherent", "--phi", "0:1:3"]],
    [["sweep", "--scenario", "noon", "--n", "8"], ["sweep", "--scenario", "fock", "--n", "3", "--phi", "0:1:3"]],
    [["sweep", "--scenario", "fock", "--n", "16"], ["sample", "--n", "2", "--eta", "0.9", "--trials", "1000", "--seed", "4"]],
    [["qfi-table"], ["metric-check"]],
]


def _src_dir(tree: str) -> Path:
    root = Path(tree).resolve()
    for cand in (root / "src", root):
        if (cand / "mzlab" / "__init__.py").is_file():
            return cand
    raise SystemExit(f"no mzlab package under {tree}")


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def workload_ops(seeds: list[int]) -> list[tuple[str, list[str]]]:
    sys.dont_write_bytecode = True  # leave perfbench/ exactly as it is
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads

    ops = [(f"{name}:{seed}:{i}", argv)
           for name in workloads.WORKLOADS for seed in seeds
           for i, argv in enumerate(workloads.generate(name, seed))]
    return (ops + [(f"edge_sample:{i}", argv) for i, argv in enumerate(EDGE_SAMPLE_OPS)]
            + [(f"large_n:{i}", argv) for i, argv in enumerate(LARGE_N_OPS)]
            + [(f"refusal:{i}", argv) for i, argv in enumerate(REFUSAL_OPS)]
            + [(f"argv:{i}", argv) for i, argv in enumerate(ARGV_OPS)])


def _run_op(main, argvs: list[list[str]], path: str, config: str | None = None) -> dict:
    """Each argv of one op in turn, written to one path; the exit code, stdout, stderr and CSV the last one left.
    With ``config``, each argv reads a file of that text with --config."""
    names = {path: "<out>"}
    if config is not None:
        cfg_path = path.removesuffix(".csv") + ".cfg"
        Path(cfg_path).write_bytes(config.encode("latin-1"))
        argvs = [argv + ["--config", cfg_path] for argv in argvs]
        names[cfg_path] = "<config>"
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv + ["--out", path])
            except Exception as exc:  # a traceback breaks the exit-code contract; report it as a result
                rc = f"raised {exc!r}"
    stdout, stderr = out.getvalue(), err.getvalue()
    for name, tag in names.items():
        stdout, stderr = stdout.replace(name, tag), stderr.replace(name, tag)
    return {"rc": rc, "stdout": stdout, "stderr": stderr, "csv": _read(Path(path))}


def worker() -> None:
    """Run the prelude, then the ops, of stdin's job under the first entry of sys.path; print one JSON result.

    With ``rerun`` set, the ops run a second time over their own first-pass CSVs, and each result
    records whether that pass left the same exit code, stdout and CSV."""
    job = json.loads(sys.stdin.read())
    import mzlab.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in job["prelude"]:
            mzlab.cli.main(argv + ["--out", os.path.join(job["outdir"], "prelude.csv")])
    paths = {op_id: os.path.join(job["outdir"], op_id.replace(":", "_") + ".csv") for op_id, _ in job["ops"]}
    configs = job["configs"]
    results = {op_id: _run_op(mzlab.cli.main, argvs, paths[op_id], configs.get(op_id)) for op_id, argvs in job["ops"]}
    for op_id, argvs in job["ops"] if job["rerun"] else ():
        results[op_id]["rerun_same"] = _run_op(mzlab.cli.main, argvs, paths[op_id], configs.get(op_id)) == results[op_id]
    sys.stdout.write(json.dumps(results) + "\n")


def _run_worker(env: dict, ops, outdir: Path, prelude=(), rerun=False, configs=None) -> dict:
    """``ops``, each a list of argvs written to one path, in one fresh interpreter after ``prelude``;
    ``configs`` maps an op id to the text of the config file its argvs read.  Op id -> result with its CSV text."""
    job = {"ops": ops, "prelude": list(prelude), "outdir": str(outdir), "rerun": rerun, "configs": configs or {}}
    proc = subprocess.run([sys.executable, __file__, "--worker"], input=json.dumps(job),
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_tree(src: Path, ops, workdir: Path) -> dict:
    """Every op under one tree, plus the benchmark cases script and the tree's loss study;
    op id -> result with its CSV text."""
    outdir = workdir / "ops"
    outdir.mkdir(parents=True)
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    results = _run_worker(env, [(op_id, [argv]) for op_id, argv in ops], outdir, rerun=True)
    results.update(_run_worker(env, [(f"overwrite:{i}", argvs) for i, argvs in enumerate(OVERWRITE_OPS)], outdir))
    results.update(_run_worker(env, [(f"config:{i}", [argv]) for i, (_, argv) in enumerate(CONFIG_OPS)], outdir,
                               configs={f"config:{i}": text for i, (text, _) in enumerate(CONFIG_OPS)}))
    results.update(_run_worker(env, [("after_edge:0", [AFTER_EDGE_OP])], outdir, prelude=EDGE_SAMPLE_OPS))
    results.update(_run_worker(env, [("fresh:0", [AFTER_EDGE_OP])], outdir))
    cases = subprocess.run([sys.executable, str(CASES_SCRIPT), "--outdir", "cases"], cwd=workdir,
                           capture_output=True, text=True, env=env)
    results["cases:script"] = {"rc": cases.returncode, "stdout": cases.stdout, "stderr": cases.stderr, "csv": None}
    for path in sorted((workdir / "cases").glob("*.csv")):
        results[f"cases:{path.stem}"] = {"rc": cases.returncode, "stdout": "", "stderr": "", "csv": _read(path)}
    study = (src.parent if src.name == "src" else src) / LOSS_STUDY
    study = study if study.is_file() else REPO / LOSS_STUDY
    loss = subprocess.run([sys.executable, str(study), "--trials", "20000", "--out", "loss_study.csv"], cwd=workdir,
                          capture_output=True, text=True, env=env)
    results["loss_study:script"] = {"rc": loss.returncode, "stdout": loss.stdout, "stderr": loss.stderr,
                                    "csv": _read(workdir / "loss_study.csv")}
    return results


def line_total(src: Path) -> int:
    """The newline bytes of the tree's ``mzlab/*.py``: the total line of ``wc -l src/mzlab/*.py``."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "mzlab").glob("*.py"))


def _read(path: Path) -> str | None:
    return path.read_text(encoding="utf-8") if path.exists() else None


def _cell(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(old: str, new: str, worst: dict, pattern: dict, moved: dict) -> None:
    """Fold the scaled differences of two CSV texts into ``worst``/``pattern``, per column name, and the
    numeric cells whose text changed into ``moved`` (column name -> [cells, ops])."""
    old_rows, new_rows = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0] or len(old_rows) != len(new_rows):
        pattern["<shape or header>"] = pattern.get("<shape or header>", 0) + 1
        return
    header = old_rows[0]
    cells: dict[str, int] = {}
    for orow, nrow in zip(old_rows[1:], new_rows[1:]):
        for name, a, b in zip(header, orow, nrow):
            x, y = _cell(a), _cell(b)
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                if a != b:  # empty, text, inf or nan cells must match exactly
                    pattern[name] = pattern.get(name, 0) + 1
                continue
            worst[name] = max(worst.get(name, 0.0), abs(x - y) / max(1.0, abs(x)))
            if a != b:
                cells[name] = cells.get(name, 0) + 1
    for name, count in cells.items():
        tally = moved.setdefault(name, [0, 0])
        tally[0] += count
        tally[1] += 1


def main() -> int:
    if sys.argv[1:] == ["--worker"]:
        worker()
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_tree")
    ap.add_argument("new_tree")
    ap.add_argument("--seeds", default="1-3", help="workload seeds, e.g. 1-3 or 1,5,7919 (default 1-3)")
    args = ap.parse_args()
    ops = workload_ops(_seeds(args.seeds))
    srcs = {"old": _src_dir(args.old_tree), "new": _src_dir(args.new_tree)}
    with tempfile.TemporaryDirectory() as tmp:
        old = run_tree(srcs["old"], ops, Path(tmp) / "old")
        new = run_tree(srcs["new"], ops, Path(tmp) / "new")
    argv_of = {**dict(ops), "after_edge:0": AFTER_EDGE_OP, "fresh:0": AFTER_EDGE_OP,
               **{f"overwrite:{i}": [*argvs[0], "then", *argvs[1]] for i, argvs in enumerate(OVERWRITE_OPS)},
               **{f"config:{i}": [*argv, "--config", ascii(text)] for i, (text, argv) in enumerate(CONFIG_OPS)}}
    worst: dict[str, float] = {}
    pattern: dict[str, int] = {}
    moved: dict[str, list[int]] = {}
    identical = 0
    for op_id in sorted(old.keys() | new.keys(), key=lambda k: [int(p) if p.isdigit() else p for p in k.split(":")]):
        o, n = old.get(op_id), new.get(op_id)
        if o is None or n is None:
            print(f"{op_id:28s} only in the {'new' if o is None else 'old'} tree")
            continue
        same = {"exit": o["rc"] == n["rc"], "stdout": o["stdout"] == n["stdout"], "stderr": o["stderr"] == n["stderr"],
                "csv": o["csv"] == n["csv"]}
        identical += all(same.values())
        if o["csv"] is not None and n["csv"] is not None and o["csv"] != n["csv"]:
            compare_csv(o["csv"], n["csv"], worst, pattern, moved)
        marks = "  ".join(f"{k} {'same' if v else 'DIFF'}" for k, v in same.items())
        rc = o["rc"] if o["rc"] == n["rc"] else f"{o['rc']}->{n['rc']}"
        print(f"{op_id:28s} rc {rc!s:6s} {marks}  {' '.join(argv_of.get(op_id, []))}")
    total = len(old.keys() | new.keys())
    print(f"\n{identical}/{total} ops byte-identical (exit code, stdout, stderr and CSV)")
    same = {side: "same" if res["after_edge:0"]["csv"] == res["fresh:0"]["csv"] else "DIFF"
            for side, res in (("old", old), ("new", new))}
    print(f"after_edge:0 against fresh:0, the same sweep in a fresh interpreter: old {same['old']}, new {same['new']}")
    stale = {side: sorted(op_id for op_id, r in res.items() if r.get("rerun_same") is False)
             for side, res in (("old", old), ("new", new))}
    print("second pass of the workload ops over their first-pass CSVs: "
          + ", ".join(f"{side} {'same' if not ids else 'DIFF in ' + ' '.join(ids)}" for side, ids in stale.items()))
    if worst or pattern:
        print("worst scaled difference |new - old| / max(1, |old|) per column, over the differing CSVs:")
        for name, val in sorted(worst.items()):
            cells, ops = moved.get(name, (0, 0))
            print(f"  {name:24s} {val:.3g}  ({cells} cells in {ops} ops)")
        for name, count in sorted(pattern.items()):
            print(f"  {name:24s} {count} empty/inf/nan/text cells differ")
    print("mzlab/*.py lines (wc -l): " + ", ".join(f"{side} {line_total(src):,}" for side, src in srcs.items()))
    return 0 if identical == total and not stale["new"] else 1


if __name__ == "__main__":
    sys.exit(main())
