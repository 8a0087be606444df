"""One measured process.  ``run.py`` starts it fresh for every run.

Reads a JSON job from stdin and prints one JSON result line on stdout.  The
program's own stdout and stderr are captured per operation, so that line is
the only output.  Modes:

* ``cold``      import and one cold pass, for the set-up and cold samples;
* ``workload``  import, a cold pass, then warm passes for the given seconds;
                with ``trace`` the cold pass is traced and warm passes
                alternate untraced and traced, giving the tracing overhead.
* ``series``    per-call times of the layer functions at one n_cap, cold
                splitter first (needs a process of its own).
* ``baseline``  one ROADMAP baseline case: a cold and three warm sweeps.
"""

from __future__ import annotations

from time import perf_counter

# First, so that the set-up time (spawn to a finished import) covers nothing else.
import mzlab.cli

IMPORTED_AT = perf_counter()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def environment() -> dict:
    """Library versions, and thread count and build of each OpenBLAS loaded in this process."""
    import numpy
    import scipy

    blas = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                nthreads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if nthreads is not None and "threads" not in info:
                    info["threads"] = nthreads()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        blas[os.path.basename(path)] = info
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas": blas,
    }


@functools.cache
def _probe_data() -> tuple:
    import numpy as np

    rng = np.random.default_rng(0)
    cdf = np.cumsum(rng.random(45))
    return rng.normal(size=12000) + 1j * rng.normal(size=12000), np.arange(12000), cdf / cdf[-1]


def host_probe() -> float:
    """Seconds for a fixed mix of small-array numpy, interpreter and random-sampling work.

    It runs no mzlab code, so it measures only how fast the host runs right now;
    ``run.py`` divides the end-to-end timings by it (see there).
    """
    import numpy as np

    a, idx, cdf = _probe_data()
    t0 = perf_counter()
    for _ in range(12):
        b = a * np.exp(0.3j * idx)
        c = np.zeros_like(b)
        c[idx[1:] - 1] += b[1:] * 0.5
        float(np.vdot(b, c).real)
    x = 0
    for i in range(40000):
        x += i * i % 7
    draws = np.random.default_rng(1)
    for _ in range(2):
        np.bincount(np.searchsorted(cdf, draws.random(1 << 16)), minlength=cdf.size)
    return perf_counter() - t0


class Runner:
    """Runs CLI operations in this process, one after another, and checks each."""

    def __init__(self, tmpdir: str):
        self.cli = mzlab.cli
        self.tmpdir = tmpdir
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, i: int, argv: list[str]) -> tuple[float, int]:
        """(seconds, items) of one operation; a failed one is recorded."""
        path = os.path.join(self.tmpdir, f"op{i}.csv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.cli.main(argv + ["--out", path])  # looked up each call, so hooks apply
            except Exception as exc:  # the exit-code contract forbids tracebacks; count it
                rc = f"raised {exc!r}"
            elapsed = perf_counter() - t0
        self.attempted += 1
        reason = f"raised: {rc}" if isinstance(rc, str) else checks.check(argv, rc, out.getvalue(), path)
        if reason is not None:
            self.failures.append(f"{' '.join(argv)}: {reason} {err.getvalue().strip()[:200]}")
            return elapsed, 0
        return elapsed, _items(argv, path)

    def run_pass(self, ops: list[list[str]]) -> list[tuple[float, int]]:
        return [self.op(i, argv) for i, argv in enumerate(ops)]


def _items(argv: list[str], path: str) -> int:
    """Phi grid points of a sweep, rows of a table, Monte Carlo trials of a sample."""
    if argv[0] == "sample":
        return int(argv[argv.index("--trials") + 1])
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def cold(job: dict) -> dict:
    runner = Runner(job["tmpdir"])
    done = runner.run_pass(job["ops"])
    return {"setup_s": IMPORTED_AT - job["t_spawn"], "cold_s": sum(t for t, _ in done),
            "probe_s": statistics.median(host_probe() for _ in range(3)),
            "attempted": runner.attempted, "failures": runner.failures}


def workload(job: dict) -> dict:
    runner = Runner(job["tmpdir"])
    res = {"setup_s": IMPORTED_AT - job["t_spawn"]}
    ops, seconds = job["ops"], job["seconds"]
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
        tracer.record = True
    cold = runner.run_pass(ops)
    res["cold_s"] = sum(t for t, _ in cold)
    res["cold_ops_s"] = [t for t, _ in cold]
    if tracer:
        res["cold_layers"] = layer_metrics(tracer.snapshot())
        res["trace_missing"] = tracer.missing
    lat, items, passes, traced, pass_probe = [], [], [], [], []
    cold_probe = [host_probe() for _ in range(3)]
    before = cold_probe[-1]
    warm_start = perf_counter()
    k = 0
    while perf_counter() - warm_start < seconds or k < 4:
        use_trace = tracer is not None and k % 2 == 1
        k += 1
        if tracer:
            tracer.uninstall()
            if use_trace:
                tracer.install()
            tracer.reset()
            tracer.record = use_trace and not traced
        done = runner.run_pass(ops)
        after = host_probe()
        pass_s = sum(t for t, _ in done)
        if use_trace:
            traced.append({"pass_s": pass_s, **layer_metrics(tracer.snapshot())})
        else:
            passes.append(pass_s)
            pass_probe.append((before + after) / 2)
            lat.extend(t for t, _ in done)
            items.append(sum(n for _, n in done))
        before = after
    if tracer:
        tracer.uninstall()
        tracer.write_spans(job["spans_path"])
        res["traced_passes"] = traced
    res.update(
        warm_ops_s=lat,
        warm_pass_items=items,
        warm_pass_s=passes,
        probe_s=statistics.median(cold_probe),
        warm_pass_probe_s=pass_probe,
        attempted=runner.attempted,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cpu_s=sum(resource.getrusage(resource.RUSAGE_SELF)[:2]),
        env=environment(),
    )
    return res


def series(job: dict) -> dict:
    """Median per-call times at one n_cap; the first splitter call builds every block."""
    import numpy as np
    from mzlab.fock import TwoModeState, basis_dim
    from mzlab.measurement import jz_moments, photon_distribution
    from mzlab.optics import BS2_JY, beam_splitter, expect_j2, phase_shift

    n_cap, reps = job["n_cap"], job["reps"]
    rng = np.random.default_rng(n_cap)
    amps = rng.normal(size=basis_dim(n_cap)) + 1j * rng.normal(size=basis_dim(n_cap))
    psi = TwoModeState(n_cap, amps / np.linalg.norm(amps))

    def timed(fn):
        t0 = perf_counter()
        fn()
        return perf_counter() - t0

    def median(fn):
        return statistics.median(timed(fn) for _ in range(reps))

    return {
        "optics.beam_splitter.cold_s": timed(lambda: beam_splitter(psi, BS2_JY)),
        "optics.beam_splitter.warm_s": median(lambda: beam_splitter(psi, BS2_JY)),
        "optics.phase_shift.call_s": median(lambda: phase_shift(psi, 0.7, "mode_b")),
        "measurement.readout.call_s": median(lambda: jz_moments(photon_distribution(psi))),
        "optics.expect_j2.call_s": median(lambda: expect_j2(psi, "x")),
    }


def baseline(job: dict) -> dict:
    """Cold and best-of-three warm ``run_sweep`` time of one case, from its spans."""
    runner = Runner(job["tmpdir"])
    tracer = Tracer()
    tracer.install(layers=("scenarios", "states"))  # light hooks keep the sweep times honest
    tracer.record = True
    for _ in range(4):
        runner.op(0, job["argv"])
    runs = [t1 - t0 for _, name, t0, t1, _, _ in tracer.spans if name == "scenarios.run"]
    n_cap = int(tracer.counters["states.n_cap_max"])
    return {
        "n_cap": n_cap,
        "dim": (n_cap + 1) * (n_cap + 2) // 2,
        "cold_s": runs[0],
        "warm_s": min(runs[1:]),
        "attempted": runner.attempted,
        "failures": runner.failures,
    }


def main() -> None:
    job = json.loads(sys.stdin.read())
    result = {"cold": cold, "workload": workload, "series": series, "baseline": baseline}[job["mode"]](job)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
