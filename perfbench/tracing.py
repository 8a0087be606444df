"""Per-layer tracing from outside the program.

Each hook replaces one public function of mzlab on the name its caller looks
up (``mzlab.cli.run_sweep``, ``mzlab.scenarios.beam_splitter``, ...), so no
file under ``src/mzlab`` changes.  A layer is a module; every span records
its name, start, end, parent and operation id.  Self time is a span's
duration minus its child spans, so the layers' self times add up to the
traced time of the root spans (``cli.main``).

Hooks whose target no longer exists are skipped and listed, so a refactor of
the program degrades the breakdown instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "scenarios", "states", "optics", "fock", "measurement", "estimation", "numerics")


def _n_cap_of_result(t: "Tracer", args, kwargs, result) -> None:
    t.peak("states.n_cap_max", result.n_cap)
    t.add("states.dim_sum", result.amps.size)


def _searched(t: "Tracer", args, kwargs, result) -> None:
    t.add("states.searches", 1)


def _splitter_flops(t: "Tracer", args, kwargs, result) -> None:
    n = result.n_cap  # sum over blocks N = 0..n of 8 (N+1)^2
    t.add("optics.block_flops", 8 * (n + 1) * (n + 2) * (2 * n + 3) // 6)


def _amp_bytes(t: "Tracer", args, kwargs, result) -> None:
    t.add("fock.amp_bytes", 16 * args[0].amps.size)


def _sample_chunks(t: "Tracer", args, kwargs, result) -> None:
    chunk = getattr(importlib.import_module("mzlab.measurement"), "_SAMPLE_CHUNK", 1 << 16)
    t.add("measurement.sample_chunks", math.ceil(result.trials / chunk))


def _kept(t: "Tracer", args, kwargs, result) -> None:
    post = kwargs.get("post_select_total", args[1] if len(args) > 1 else None)
    if post is not None:
        t.add("measurement.kept_events", round(result.kept_fraction * args[0].trials))
        t.add("measurement.kept_trials", args[0].trials)


def _csv_bytes(t: "Tracer", args, kwargs, result) -> None:
    t.add("scenarios.csv_bytes", os.path.getsize(args[1]))


def _splitter_span(t: "Tracer", args) -> str:
    """First call per (splitter, n_cap) in the process builds the blocks."""
    key = (args[1].matrix.tobytes(), args[0].n_cap)
    if key in t.seen_splitters:
        return "optics.beam_splitter.warm"
    t.seen_splitters.add(key)
    return "optics.beam_splitter.cold"


# (module, attribute path, span name, on_exit)
HOOKS = [
    ("mzlab.cli", "main", "cli.main", None),
    ("mzlab.cli", "run_sweep", "scenarios.run", None),
    ("mzlab.cli", "run_noon_sampling", "scenarios.run", None),
    ("mzlab.cli", "run_qfi_table", "scenarios.run", None),
    ("mzlab.cli", "run_metric_check", "scenarios.run", None),
    ("mzlab.scenarios", "SweepTable.write_csv", "scenarios.csv", _csv_bytes),
    ("mzlab.cli", "write_qfi_table_csv", "scenarios.csv", _csv_bytes),
    ("mzlab.cli", "write_metric_csv", "scenarios.csv", _csv_bytes),
    ("mzlab.cli", "write_histogram_csv", "measurement.csv", None),
    ("mzlab.scenarios", "auto_coherent", "states.search", _searched),
    ("mzlab.scenarios", "auto_squeezed", "states.search", _searched),
    ("mzlab.states", "coherent_amplitudes", "states.amplitudes", None),
    ("mzlab.states", "squeezed_vacuum_amplitudes", "states.amplitudes", None),
    ("mzlab.scenarios", "product_state", "states.build", _n_cap_of_result),
    ("mzlab.scenarios", "fock_after_symmetric_bs", "states.build", _n_cap_of_result),
    ("mzlab.scenarios", "noon_state", "states.build", _n_cap_of_result),
    ("mzlab.scenarios", "twin_fock", "states.build", _n_cap_of_result),
    ("mzlab.scenarios", "beam_splitter", _splitter_span, _splitter_flops),
    ("mzlab.scenarios", "phase_shift", "optics.phase_shift", None),
    ("mzlab.scenarios", "expect_j", "optics.expect_j", None),
    ("mzlab.scenarios", "expect_j2", "optics.expect_j2", None),
    ("mzlab.fock", "TwoModeState.__post_init__", "fock.construct", _amp_bytes),
    ("mzlab.scenarios", "photon_distribution", "measurement.distribution", None),
    ("mzlab.scenarios", "jz_moments", "measurement.moments", None),
    ("mzlab.scenarios", "parity_expectation", "measurement.moments", None),
    ("mzlab.scenarios", "lossy_distribution", "measurement.lossy", None),
    ("mzlab.scenarios", "sample_counts", "measurement.sample", _sample_chunks),
    ("mzlab.scenarios", "parity_from_histogram", "measurement.estimate", _kept),
    ("mzlab.scenarios", "delta_phi_error_propagation", "estimation.errprop", None),
    ("mzlab.scenarios", "central_difference", "estimation.errprop", None),
    ("mzlab.scenarios", "qfi_analytic", "estimation.qfi", None),
    ("mzlab.scenarios", "qfi_numeric", "estimation.qfi", None),
    ("mzlab.scenarios", "metric_distance", "estimation.metric", None),
    ("mzlab.measurement", "binomial_thinning_matrix", "numerics.thinning", None),
]


class Tracer:
    """Spans and counters for one process; spans are kept in memory until ``write_spans``."""

    def __init__(self) -> None:
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, self_s, entered_s]
        self.counters: dict[str, float] = defaultdict(float)
        self.seen_splitters: set = set()
        self.spans: list[tuple] = []
        self.record = False
        self.op = -1  # operation id of the current root span
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, name, child time]
        self._next_id = 0
        self._installed: list[tuple] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters[key], value)

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()

    def call(self, name, fn, on_exit, args, kwargs):
        if callable(name):
            name = name(self, args)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.op += 1  # a root span (``cli.main``) is one operation
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            dur = t1 - t0
            st = self.stats[name]
            st[0] += 1
            st[1] += dur - frame[2]
            if parent is None or parent[1].split(".", 1)[0] != name.split(".", 1)[0]:
                st[2] += dur  # time spent inside this layer, entered from another
            if parent is not None:
                parent[2] += dur
            if self.record:
                self.spans.append((frame[0], name, t0, t1, -1 if parent is None else parent[0], self.op))
        if on_exit is not None:
            on_exit(self, args, kwargs, result)
        return result

    def install(self, layers=LAYERS) -> None:
        self.missing.clear()
        for module, attr, name, on_exit in HOOKS:
            span_layer = "optics" if callable(name) else name.split(".", 1)[0]
            if span_layer not in layers:
                continue
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(name, fn, on_exit))
            self._installed.append((owner, leaf, fn))

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._installed):
            setattr(owner, leaf, fn)
        self._installed.clear()

    def _wrap(self, name, fn, on_exit):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, on_exit, args, kwargs)

        return traced

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{op}\n")

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "counters": dict(self.counters)}


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metrics from one pass's ``Tracer.snapshot``."""
    stats, ctr = snap["stats"], snap["counters"]

    def calls(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[0] for n in names)

    def self_s(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[1] for n in names)

    def prefixed(prefix):
        return [n for n in stats if n.split(".", 1)[0] == prefix]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(*prefixed(layer))
    m["cli.calls"] = calls("cli.main")
    m["scenarios.calls"] = calls("scenarios.run")
    m["scenarios.csv_s"] = self_s("scenarios.csv")
    m["scenarios.csv.calls"] = calls("scenarios.csv")
    m["scenarios.csv_bytes"] = ctr.get("scenarios.csv_bytes", 0)
    m["states.prepare_s"] = sum(stats[n][2] for n in prefixed("states"))
    m["states.prepare.calls"] = calls("states.search", "states.build")
    m["states.cutoff_attempts"] = calls("states.amplitudes")
    m["states.cutoff_useful_ratio"] = ctr.get("states.searches", 0) / max(1, m["states.cutoff_attempts"])
    m["states.n_cap_max"] = ctr.get("states.n_cap_max", 0)
    m["states.dim_sum"] = ctr.get("states.dim_sum", 0)
    for kind in ("cold", "warm"):
        m[f"optics.beam_splitter.{kind}_s"] = self_s(f"optics.beam_splitter.{kind}")
        m[f"optics.beam_splitter.{kind}.calls"] = calls(f"optics.beam_splitter.{kind}")
    m["optics.phase_shift.self_s"] = self_s("optics.phase_shift")
    m["optics.phase_shift.calls"] = calls("optics.phase_shift")
    m["optics.angular.self_s"] = self_s("optics.expect_j", "optics.expect_j2")
    m["optics.angular.calls"] = calls("optics.expect_j", "optics.expect_j2")
    m["optics.block_flops"] = ctr.get("optics.block_flops", 0)
    m["fock.states_built"] = calls("fock.construct")
    m["fock.construct_s"] = self_s("fock.construct")
    m["fock.amp_bytes"] = ctr.get("fock.amp_bytes", 0)
    for key in ("distribution", "moments", "lossy", "sample", "csv"):
        m[f"measurement.{key}_s"] = self_s(f"measurement.{key}")
        m[f"measurement.{key}.calls"] = calls(f"measurement.{key}")
    m["measurement.sample_chunks"] = ctr.get("measurement.sample_chunks", 0)
    kept_trials = ctr.get("measurement.kept_trials", 0)
    m["measurement.kept_fraction"] = ctr.get("measurement.kept_events", 0) / kept_trials if kept_trials else 0.0
    m["estimation.errprop_s"] = self_s("estimation.errprop")
    m["estimation.errprop.calls"] = calls("estimation.errprop")
    m["estimation.qfi_s"] = self_s("estimation.qfi")
    m["estimation.qfi.calls"] = calls("estimation.qfi")
    m["numerics.thinning_s"] = self_s("numerics.thinning")
    m["numerics.thinning.calls"] = calls("numerics.thinning")
    return m
