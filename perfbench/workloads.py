"""Seeded operation lists for the three benchmark workloads.

An operation is the argv of one ``mzlab`` CLI call, without ``--out`` (the
harness appends a fresh CSV path).  A pass is the whole list; the same seed
always gives the same list, so any run can be replayed from its record.

Seeds 1 to 10 were used while this benchmark was written.  A performance
claim must also hold on ``HOLDOUT_SEED``, which no development run used.
"""

from __future__ import annotations

import random

HOLDOUT_SEED = 7919

TRIALS = 1_000_000


def _f(x: float) -> str:
    return f"{x:.4f}"


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw from each of k equal slices of [lo, hi]."""
    w = (hi - lo) / k
    return [rng.uniform(lo + i * w, lo + (i + 1) * w) for i in range(k)]


def _int_strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One integer from each of k near-equal slices of lo..hi."""
    edges = [lo + round(i * (hi - lo + 1) / k) for i in range(k + 1)]
    return [rng.randint(edges[i], edges[i + 1] - 1) for i in range(k)]


def sweep_large_basis(rng: random.Random) -> list[list[str]]:
    """Two squeezed and three coherent sweeps on the automatic cutoff.

    n_cap lands between about 75 and 170, so block building (cold) and the
    per-point phase, splitter and angular-momentum work (warm) dominate.
    Each sweep draws from its own stratum of |alpha| in [3.6, 4.4] or
    |alpha|, |beta| in [1.5, 2.5], so the cost of a pass varies little from
    seed to seed.  r stays above the step of the squeezed cutoff from 60 to
    86 photons near r = 0.87, so both squeezed sweeps cost about the same:
    then the latency median falls inside the coherent group and the tail
    inside the squeezed group, not on the edge between two groups.
    """
    ops = []
    for alpha in _strata(rng, 3.6, 4.4, 2):
        ops.append(["sweep", "--scenario", "squeezed", "--alpha", _f(alpha), "--r", _f(rng.uniform(0.9, 1.0))])
    for a, b in zip(_strata(rng, 1.5, 2.5, 3), _strata(rng, 1.5, 2.5, 3)):
        ops.append(["sweep", "--scenario", "coherent", "--alpha", _f(a), "--beta", _f(b)])
    rng.shuffle(ops)
    return ops


def sweep_small_probes(rng: random.Random) -> list[list[str]]:
    """About twenty short sweeps plus one qfi-table and one metric-check.

    Every sweep basis has n_cap <= 40, so per-call overhead (state copies
    and validation, scenario loops, estimation, CSV and argument parsing)
    dominates instead of linear algebra.  Photon numbers are drawn by strata
    so the cost of a pass varies little from seed to seed.
    """
    ops = []
    for n in _int_strata(rng, 1, 32, 8):
        ops.append(["sweep", "--scenario", "fock", "--n", str(n)])
    for n in _int_strata(rng, 1, 16, 6):
        ops.append(["sweep", "--scenario", "noon", "--n", str(n)])
    for n in _int_strata(rng, 1, 8, 3):
        ops.append(["sweep", "--scenario", "twin_fock", "--n", str(n)])
    for a, b in zip(_strata(rng, 1.5, 2.2, 3), _strata(rng, 1.5, 2.2, 3)):
        ops.append(["sweep", "--scenario", "coherent", "--n-cap", "40", "--alpha", _f(a), "--beta", _f(b)])
    ops.append(["qfi-table", "--beta", _f(rng.uniform(1.5, 2.5)),
                "--fock-n", str(rng.randint(1, 16)), "--noon-n", str(rng.randint(1, 8))])
    ops.append(["metric-check", "--beta", _f(rng.uniform(1.5, 2.5)), "--noon-n", str(rng.randint(1, 8))])
    rng.shuffle(ops)
    return ops


def sample_noon_loss(rng: random.Random) -> list[list[str]]:
    """Post-selected lossy NOON sampling, 10^6 trials (16 chunks) per call."""
    ops = []
    for n in (2, 4, 8) * 4:
        ops.append(["sample", "--post-select", "--n", str(n), "--eta", _f(rng.uniform(0.5, 1.0)),
                    "--trials", str(TRIALS), "--seed", str(rng.getrandbits(63))])
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "sweep_large_basis": sweep_large_basis,
    "sweep_small_probes": sweep_small_probes,
    "sample_noon_loss": sample_noon_loss,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    # the workload name is mixed in so that seed n differs across workloads
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
