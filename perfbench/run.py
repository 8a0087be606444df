#!/usr/bin/env python3
"""mzlab benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_large_basis --seed 1 --seconds 15 --trace 0

One client runs in a closed loop: an operation is one in-process
``mzlab.cli.main(argv)`` call writing its CSV to a temporary directory, and the
next starts when it returns.  Each run uses fresh child processes with one
BLAS thread and no pool.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``setup_s``           fresh interpreter to a finished ``import mzlab.cli``,
                        median of several fresh processes;
* ``cold_s``            first full pass in a fresh process (empty caches);
* ``warm_items_per_s``  phi grid points (sweeps), table rows (qfi-table,
                        metric-check) or Monte Carlo trials (sample) per
                        second of warm operation time;
* ``op_p50_s``, ``op_tail_s``  warm per-operation latency; the tail is the
                        highest percentile with at least 10 samples beyond it;
* ``peak_rss_mb``       peak resident memory of the measuring process.

The machine this benchmark was written on, a shared 2-core VM, changes speed
by up to 2x within minutes, which no run length averages out.  So each run
also times ``child.host_probe``, a fixed mix of small-array numpy,
interpreter and sampling work that runs no mzlab code, next to every sample,
and reports the timings at the probe's nominal speed: each sample is divided
(a rate: multiplied) by its probe time / ``PROBE_NOMINAL_S`` before the
medians and the tail are taken.  The raw values and the median factor are
printed beside them and kept in the run record.  A change to mzlab moves the
sample but not the probe, so commits still compare fairly.

``failed_frac`` (failed / attempted operations) is printed with them and is
carried by the result's ``attempted`` and ``failed``; it is 0 on a correct
program, so it is not a bounded metric.

``--trace 1`` reports the per-layer metrics instead: the traced cold pass,
per-pass means over traced warm passes, the tracing overhead, the n_cap
scaling series and the ROADMAP baseline table.  ``layer_map.json`` says
which end-to-end metric and workload each layer metric should move.

Each run writes a record with the generated argv lists, the environment and
the raw timings to ``.perfbench_runs/``; traced runs add their spans there.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS  # noqa: E402
from workloads import HOLDOUT_SEED, WORKLOADS, generate  # noqa: E402

COLD_SAMPLES = 5  # fresh processes per run that each give one set-up and one cold sample
PROBE_NOMINAL_S = 0.02  # host_probe time that counts as nominal host speed
SERIES_N_CAPS = (40, 100, 160)
SERIES_REPS = 15
CHILD_TIMEOUT_S = 150

# ROADMAP "Open items" baseline cases: (metric slug, case, argv)
BASELINE_CASES = (
    ("coherent_ncap40", "coherent, |a|=|b|=2, n_cap=40", ["sweep", "--scenario", "coherent", "--alpha", "2", "--beta", "2", "--n-cap", "40"]),
    ("coherent_auto", "coherent, |a|=|b|=2, auto cutoff", ["sweep", "--scenario", "coherent", "--alpha", "2", "--beta", "2"]),
    ("fock16", "fock N=16", ["sweep", "--scenario", "fock", "--n", "16"]),
    ("twin_fock3", "twin_fock N=3", ["sweep", "--scenario", "twin_fock", "--n", "3"]),
    ("squeezed", "squeezed, alpha=4, r=1", ["sweep", "--scenario", "squeezed", "--alpha", "4", "--r", "1"]),
    ("noon4", "noon N=4", ["sweep", "--scenario", "noon", "--n", "4"]),
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(job: dict) -> dict:
    job = dict(job, t_spawn=perf_counter())
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=json.dumps(job), capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": Path("/proc/loadavg").read_text().strip(),
    }


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, n): the highest whole percentile with >= 10 samples beyond it."""
    xs, n = sorted(latencies), len(latencies)
    if n <= 10:
        return xs[-1], 100, n
    p = (100 * (n - 10)) // n
    return xs[math.ceil(p * n / 100) - 1], p, n


def end_to_end(ops: list[list[str]], seconds: int, tmpdir: str) -> tuple[dict, dict]:
    job = {"ops": ops, "tmpdir": tmpdir}
    colds = [run_child(dict(job, mode="cold")) for _ in range(COLD_SAMPLES - 1)]
    res = run_child(dict(job, mode="workload", seconds=seconds, trace=False))
    colds.append(res)
    # each sample is scaled by the host probe taken next to it: cold and set-up
    # samples by their own process's probe, warm passes by the probes around them
    lat, passes, n_ops = res["warm_ops_s"], res["warm_pass_s"], len(ops)
    rates = [n / t for n, t in zip(res["warm_pass_items"], passes)]
    pass_f = [p / PROBE_NOMINAL_S for p in res["warm_pass_probe_s"]]
    cold_f = [c["probe_s"] / PROBE_NOMINAL_S for c in colds]
    scaled_lat = [t / pass_f[i // n_ops] for i, t in enumerate(lat)]
    t_value, t_pct, t_n = tail(scaled_lat)
    metrics = {
        "setup_s": (statistics.median(c["setup_s"] / f for c, f in zip(colds, cold_f)), "s"),
        "cold_s": (statistics.median(c["cold_s"] / f for c, f in zip(colds, cold_f)), "s"),
        "warm_items_per_s": (statistics.median(r * f for r, f in zip(rates, pass_f)), "items/s"),
        "op_p50_s": (statistics.median(scaled_lat), "s"),
        "op_tail_s": (t_value, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    raw = {
        "setup_s": statistics.median(c["setup_s"] for c in colds),
        "cold_s": statistics.median(c["cold_s"] for c in colds),
        "warm_items_per_s": statistics.median(rates),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail(lat)[0],
    }
    host = statistics.median(cold_f + pass_f)
    for c in colds[:-1]:
        res["attempted"] += c["attempted"]
        res["failures"] += c["failures"]
    res.update(setup_samples_s=[c["setup_s"] for c in colds], cold_samples_s=[c["cold_s"] for c in colds],
               warm_pass_rates=rates, tail_percentile=t_pct, tail_samples=t_n, host_factor=host, raw_metrics=raw)
    return metrics, res


def mean_of(passes: list[dict], key: str) -> float:
    return statistics.fmean(p[key] for p in passes)


def per_layer(ops: list[list[str]], seconds: int, tmpdir: str, spans_path: str) -> tuple[dict, dict]:
    res = run_child({"mode": "workload", "ops": ops, "seconds": seconds, "trace": True, "tmpdir": tmpdir,
                     "spans_path": spans_path})
    traced = res["traced_passes"]
    metrics = {key: mean_of(traced, key) for key in traced[0] if key != "pass_s"}
    pass_s = mean_of(traced, "pass_s")
    untraced_s = statistics.fmean(res["warm_pass_s"])
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    metrics.update({
        "trace.pass_s": pass_s,
        "trace.unattributed_s": pass_s - layer_sum,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_s": pass_s - untraced_s,
        "trace.cold_pass_s": res["cold_s"],
        "trace.cold_unattributed_s": res["cold_s"] - sum(res["cold_layers"][f"{l}.self_s"] for l in LAYERS),
    })
    for layer in LAYERS:
        metrics[f"cold.{layer}.self_s"] = res["cold_layers"][f"{layer}.self_s"]
    metrics["optics.beam_splitter.cold_s"] = res["cold_layers"]["optics.beam_splitter.cold_s"]
    metrics["optics.beam_splitter.cold.calls"] = res["cold_layers"]["optics.beam_splitter.cold.calls"]

    series = {}
    for n_cap in SERIES_N_CAPS:
        series[n_cap] = run_child({"mode": "series", "n_cap": n_cap, "reps": SERIES_REPS})
        for key, value in series[n_cap].items():
            metrics[f"{key}.ncap{n_cap}"] = value

    table = []
    for slug, case, argv in BASELINE_CASES:
        row = run_child({"mode": "baseline", "argv": argv, "tmpdir": tmpdir})
        res["failures"] += row.pop("failures")
        res["attempted"] += row.pop("attempted")
        table.append(dict(case=case, **row))
        for key in ("cold_s", "warm_s", "n_cap"):
            metrics[f"baseline.{slug}.{key}"] = row[key]
    res.update(series=series, baseline_table=table)
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, res


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s.ncap" in name:
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_fraction")):
        return "ratio"
    if name.endswith("block_flops"):
        return "flop"
    return "count"


def baseline_markdown(table: list[dict]) -> str:
    lines = ["| `run_sweep` case (181 phi points) | n_cap (dim) | cold | warm |", "|---|---|---|---|"]
    for r in table:
        case = r["case"].replace("|", "\\|")
        lines.append(f"| {case} | {r['n_cap']} ({r['dim']}) | {r['cold_s'] * 1e3:.0f} ms | {r['warm_s'] * 1e3:.0f} ms |")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description="mzlab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mzlab" / "cli.py").is_file():
        print(f"error: no mzlab sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    ops = generate(args.workload, args.seed)
    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
              "seconds": args.seconds, "trace": args.trace, "ops": ops, "env": environment()}
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
    try:
        if args.trace:
            metrics, res = per_layer(ops, args.seconds, tmpdir, f"{stem}.spans.csv.gz")
        else:
            metrics, res = end_to_end(ops, args.seconds, tmpdir)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    record["env"].update(res.pop("env"), loadavg_after=Path("/proc/loadavg").read_text().strip())
    record.update(result=res, metrics={k: v for k, (v, _) in metrics.items()})
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))

    attempted, failed = res["attempted"], len(res["failures"])
    env = record["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}  nproc={env['nproc']} python={env['python']} "
          f"numpy={env.get('numpy')} scipy={env.get('scipy')} openblas={env.get('openblas')} "
          f"blas_threads={sorted({b.get('threads') for b in env['blas'].values()})} "
          f"loadavg {env['loadavg_before']} -> {env['loadavg_after']}")
    for name, (value, unit) in metrics.items():
        extra = f"  (raw {res['raw_metrics'][name]:.6g})" if name in res.get("raw_metrics", {}) else ""
        if name == "op_tail_s":
            extra += f"  (p{res['tail_percentile']} of {res['tail_samples']} warm ops)"
        print(f"{name} = {value:.6g} {unit}{extra}")
    if "host_factor" in res:
        print(f"host_factor = {res['host_factor']:.4g}  (median host probe / {PROBE_NOMINAL_S} s; each sample is scaled by its own factor)")
    print(f"failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    for reason in res["failures"][:10]:
        print(f"FAILED {reason}")
    if res.get("trace_missing"):
        print(f"warning: no trace hook for {', '.join(res['trace_missing'])}")
    if args.trace:
        print(baseline_markdown(res["baseline_table"]))
    print(f"record: {stem.relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
