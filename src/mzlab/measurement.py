"""Photon counting at the output plane: exact distributions, loss, sampling.

Loss is modeled as binomial thinning of the ideal joint count distribution
(transmissivity eta per mode).  A beam-splitter loss channel changes the
Fock-diagonal probabilities by exactly this binomial convolution, and photon
counting reads only those diagonals, so for counting observables the model
is exact while avoiding density matrices entirely.

Monte Carlo sampling draws i.i.d. counts by inverse CDF over the outcomes
ordered by (total, l1): a uniform u lands on the first outcome whose CDF
value exceeds it.  Trials are split into fixed-size chunks of 2**16, chunk c
seeded from (seed, c).  The chunks run on one thread per usable CPU, at most
one per chunk; the per-thread counts are integers, so their sum, and the
histogram, is the same bit for bit for any number of threads.  Each thread
takes a full-chunk set of scratch buffers from ``_SPARE`` and gives it back
when it finishes, so a warm call reuses memory that is already mapped; the
list keeps at most one 1.1 MB set per usable CPU, and
``measurement._SPARE.clear()`` frees them.

A histogram needs only the number of uniforms in each CDF interval, so the
sampler counts buckets instead of searching the CDF once per trial.  [0, 1)
is cut into 2**12 equal buckets; their edges b / 2**12 are exact doubles,
and so is u * 2**12, whose integer part is u's bucket.  A bucket that no CDF
value splits is clean: every uniform in it lands on the same outcome, so
only its count is kept.  At most one bucket per outcome is dirty, and only
the uniforms that fall in a dirty bucket are searched.  Each trial still
resolves to the outcome the per-trial search gives, so the histogram is the
same, bit for bit.  The histogram is one read-only int64 array in the layout
of the distribution (``pair_index``); the parity, the moments and the CSV
rows are reductions of that array, and the rows go in sampling order.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import threading
from dataclasses import dataclass, field
from typing import Iterator, Literal, NamedTuple, Union

import numpy as np

from .errors import FilterExhaustedError
from .fock import TwoModeState, index_pairs, pair_index
from .numerics import binomial_thinning_matrix

OutputMode = Literal["a", "b"]

_SAMPLE_CHUNK = 1 << 16
_BUCKETS = 1 << 12  # equal buckets of [0, 1) in sample_counts; a constant, the edges stay exact


@dataclass(frozen=True)
class CountDistribution:
    """Exact joint probabilities over photon counts (l1, l2), l1+l2 <= n_cap."""

    n_cap: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64, copy=True)
        if p.min() < -1e-15:
            raise ValueError("negative probability")
        np.clip(p, 0.0, None, out=p)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def prob(self, l1: int, l2: int) -> float:
        return float(self.probs[pair_index(l1, l2)])

    def total(self) -> float:
        return float(math.fsum(self.probs))


class CountHistogram(NamedTuple):
    """Sampled counts: ``counts[pair_index(l1, l2)]`` trials landed on (l1, l2), read-only; they sum to ``trials``."""

    n_cap: int
    counts: np.ndarray
    trials: int


class ParityEstimate(NamedTuple):
    estimate: float
    stderr: float
    kept_fraction: float


def photon_distribution(s: TwoModeState) -> CountDistribution:
    """probs(l1, l2) = |amplitude(l1, l2)|^2."""
    return CountDistribution(s.n_cap, np.abs(s.amps) ** 2)


def lossy_distribution(d: CountDistribution, eta_a: float, eta_b: float) -> CountDistribution:
    """Push the distribution through independent transmissivity-eta channels.

    probs'(k1,k2) = sum_{l1>=k1, l2>=k2} probs(l1,l2) B(k1; l1, eta_a) B(k2; l2, eta_b).
    Total probability is preserved (the thinning matrices are column
    stochastic); thinning only lowers totals, so the support stays inside
    the same truncated basis.
    """
    n1, n2 = index_pairs(d.n_cap)
    rect = np.zeros((d.n_cap + 1, d.n_cap + 1))
    rect[n1, n2] = d.probs
    ta = binomial_thinning_matrix(d.n_cap, eta_a)
    tb = binomial_thinning_matrix(d.n_cap, eta_b)
    rect = ta @ rect @ tb.T
    return CountDistribution(d.n_cap, rect[n1, n2])


def _sampling_order(n_cap: int) -> np.ndarray:  # the pair indices by (l1 + l2, l1)
    n1, n2 = index_pairs(n_cap)
    return np.lexsort((n1, n1 + n2))


def _bucket_table(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per bucket of [0, 1): the outcome of its lowest uniform, and whether a CDF value splits it.

    The uniforms of bucket b resolve to outcomes lo[b] .. hi[b]: the search
    is monotone in u, and every u in the bucket satisfies b/M <= u < (b+1)/M
    with M = _BUCKETS.  Both ends are clamped to K - 1 like the per-trial
    search; with the normalised CDF (last value exactly 1) neither clamp binds.
    """
    last = cdf.size - 1
    edges = np.arange(_BUCKETS + 1) / _BUCKETS
    lo = np.minimum(np.searchsorted(cdf, edges[:-1], side="right"), last)
    hi = np.minimum(np.searchsorted(cdf, edges[1:], side="left"), last)
    return lo, lo != hi


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_ChunkBuffers = tuple[np.ndarray, np.ndarray, np.ndarray]
_SPARE: list[_ChunkBuffers] = []  # full-chunk sets kept between sample_counts calls, at most one per usable CPU


def _new_chunk_buffers() -> _ChunkBuffers:
    """(uniforms, buckets, in_dirty) for one full chunk: 512 KB + 512 KB + 64 KB."""
    return np.empty(_SAMPLE_CHUNK), np.empty(_SAMPLE_CHUNK, dtype=np.intp), np.empty(_SAMPLE_CHUNK, dtype=bool)


@contextlib.contextmanager
def _chunk_buffers(keep: int) -> Iterator[_ChunkBuffers]:
    """A spare set, or a new one when none is left; given back afterwards, the list cut to ``keep`` sets."""
    try:
        buffers = _SPARE.pop()  # not a check for an empty list first: another worker may pop in between
    except IndexError:
        buffers = _new_chunk_buffers()
    try:
        yield buffers
    finally:
        _SPARE.append(buffers)
        del _SPARE[keep:]  # one atomic cut, so racing give-backs still leave at most ``keep``


def sample_counts(d: CountDistribution, trials: int, seed: int) -> CountHistogram:
    """Draw ``trials`` i.i.d. outcomes; reproducible and chunk-parallelizable.

    Chunk c of 2**16 trials draws its uniforms from ``SeedSequence([seed, c])``,
    and each uniform u resolves to ``min(searchsorted(cdf, u, "right"), K - 1)``
    over the K outcomes in sampling order.  The trials are counted per bucket of
    [0, 1) (see the module docstring): a clean bucket's count goes to its one
    outcome after the last chunk.  At most K of the 4096 buckets are dirty, and
    only the uniforms that fall in one, about K / 4096 of them, are searched.
    Worker w of W = min(usable CPUs, chunks) counts chunks w, w + W, ...; worker 0
    is the calling thread, and every other is joined before the call returns.
    Each worker draws into a full-chunk buffer set taken from ``_SPARE`` and
    given back when it finishes; at most one 1.1 MB set per usable CPU stays
    there between calls, until ``measurement._SPARE.clear()``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    order = _sampling_order(d.n_cap)
    cdf = np.cumsum(d.probs[order])
    cdf /= cdf[-1]  # distribution may carry a truncation deficit ~1e-12
    last = cdf.size - 1
    lo, dirty = _bucket_table(cdf)
    chunks = -(-trials // _SAMPLE_CHUNK)
    cpus = _usable_cpus()
    workers = min(cpus, chunks)
    tallies, errors = [], []

    def work(w: int) -> None:  # chunks w, w + workers, ...; an error stops every worker at its next chunk
        try:
            occupancy, per_bucket = np.zeros(cdf.size, dtype=np.int64), np.zeros(_BUCKETS, dtype=np.int64)
            with _chunk_buffers(cpus) as (uniforms, buckets, in_dirty):
                for chunk_index in range(w, chunks, workers):
                    if errors:
                        return
                    n = min(_SAMPLE_CHUNK, trials - chunk_index * _SAMPLE_CHUNK)
                    rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
                    u = rng.random(out=uniforms[:n])
                    g = buckets[:n]
                    np.multiply(u, _BUCKETS, out=g, casting="unsafe")  # exact product; u >= 0, so the cast is floor
                    per_bucket += np.bincount(g, minlength=_BUCKETS)
                    # u < 1 puts every g in [0, 4096), so "wrap" never wraps; "raise" would copy through a temporary
                    hits = np.searchsorted(cdf, u[dirty.take(g, out=in_dirty[:n], mode="wrap")], side="right")
                    occupancy += np.bincount(np.minimum(hits, last), minlength=cdf.size)
            tallies.append((occupancy, per_bucket))
        except BaseException as exc:  # re-raised in the calling thread, after every worker is joined
            errors.append(exc)

    threads = []
    try:
        for w in range(1, workers):
            t = threading.Thread(target=work, args=(w,))
            t.start()
            threads.append(t)
    except BaseException as exc:  # a thread that cannot start: the started ones stop, and it is raised below
        errors.append(exc)
    work(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    occupancy, per_bucket = (sum(parts) for parts in zip(*tallies))  # integer sums: the same in any order
    clean = ~dirty
    np.add.at(occupancy, lo[clean], per_bucket[clean])
    counts = np.empty_like(occupancy)
    counts[order] = occupancy
    counts.flags.writeable = False
    return CountHistogram(d.n_cap, counts, trials)


def jz_moments(src: Union[CountDistribution, CountHistogram]) -> tuple[float, float]:
    """Moments of the half-difference (l1 - l2)/2 of the output counts."""
    n1, n2 = index_pairs(src.n_cap)
    if isinstance(src, CountDistribution):
        v = (n1 - n2) / 2.0
        return float(math.fsum(src.probs * v)), float(math.fsum(src.probs * v * v))
    if not src.counts.any():
        raise ValueError("empty histogram")
    freq = src.counts * (1.0 / src.trials)
    return math.fsum(freq * (n1 - n2) / 2.0), math.fsum(freq * ((n1 - n2) / 2.0) ** 2)


def parity_expectation(d: CountDistribution, mode: OutputMode = "a") -> float:
    """<(-1)^l> on the chosen output mode, from the exact distribution."""
    n1, n2 = index_pairs(d.n_cap)
    l = n1 if mode == "a" else n2
    signs = np.where(l % 2 == 0, 1.0, -1.0)
    return float(math.fsum(d.probs * signs))


def parity_from_histogram(h: CountHistogram, post_select_total: int | None = None) -> ParityEstimate:
    """Sample parity of mode a, optionally post-selecting on l1 + l2.

    The standard error uses the plug-in sample variance 1 - estimate^2
    (parity squares to one), which remains valid after post-selection.
    """
    if not h.counts.any():
        raise ValueError("empty histogram")
    n1, n2 = index_pairs(h.n_cap)
    counts = h.counts if post_select_total is None else h.counts * (n1 + n2 == post_select_total)
    kept = int(counts.sum())
    acc = int(np.where(n1 % 2 == 0, counts, -counts).sum())
    if kept == 0:
        raise FilterExhaustedError(f"post-selection on total={post_select_total} kept no events")
    estimate = acc / kept
    var = max(0.0, 1.0 - estimate * estimate)
    return ParityEstimate(estimate=estimate, stderr=math.sqrt(var / kept), kept_fraction=kept / h.trials)


def histogram_rows(h: CountHistogram) -> list[tuple[int, int, int]]:
    """(l1, l2, count) of every outcome drawn, in sampling order (l1 + l2, then l1)."""
    n1, n2 = index_pairs(h.n_cap)
    order = _sampling_order(h.n_cap)
    order = order[h.counts[order] != 0]
    return list(zip(n1[order].tolist(), n2[order].tolist(), h.counts[order].tolist()))


def write_histogram_csv(h: CountHistogram, path) -> None:
    write_text(path, "l1,l2,count\n" + "".join(f"{l1},{l2},{c}\n" for l1, l2, c in histogram_rows(h)))


def write_text(path, text: str) -> None:
    """The one output path: ``text`` as UTF-8 written over ``path`` in place, then the file cut to its length.

    It writes through the same inode as ``open(path, "w")``, so modes, symlinks, hard links, /dev/null
    and FIFOs behave alike.  It does not truncate to zero first: ext4 flushes a file truncated to zero
    when it is closed (auto_da_alloc), so rewriting a 38 KB CSV that way took ~260 us median against
    ~19 us in place (ext4 root mounted with discard, 2-CPU VM).
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
