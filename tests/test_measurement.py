import math
import os
import stat
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mzlab.measurement
from mzlab.cli import main
from mzlab.errors import FilterExhaustedError
from mzlab.fock import TwoModeState, basis_dim, index_pairs, pair_index
from mzlab.measurement import (
    CountDistribution,
    _bucket_table,
    CountHistogram,
    ParityEstimate,
    histogram_rows,
    jz_moments,
    lossy_distribution,
    parity_expectation,
    parity_from_histogram,
    photon_distribution,
    sample_counts,
    write_histogram_csv,
)
from mzlab.optics import BS2_JX, BS2_JY, beam_splitter, phase_shift
from mzlab.scenarios import ScenarioConfig, noon_output_distribution, run_noon_sampling
from mzlab.states import fock_after_symmetric_bs, noon_state

from conftest import random_state


# ----- exact distributions ------------------------------------------------------

def test_distribution_examples():
    d = photon_distribution(noon_state(4))
    assert d.prob(4, 0) == pytest.approx(0.5, abs=1e-15)
    assert d.prob(0, 4) == pytest.approx(0.5, abs=1e-15)
    v = photon_distribution(TwoModeState.basis_state(0, 0, 0))
    assert v.prob(0, 0) == 1.0
    d2 = photon_distribution(fock_after_symmetric_bs(2))
    assert d2.prob(2, 0) == pytest.approx(0.25, abs=1e-15)
    assert d2.prob(1, 1) == pytest.approx(0.5, abs=1e-15)
    assert d2.prob(0, 2) == pytest.approx(0.25, abs=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distribution_totals_squared_norm(seed):
    rng = np.random.default_rng(seed)
    n_cap = int(rng.integers(0, 8))
    amps = rng.normal(size=basis_dim(n_cap)) + 1j * rng.normal(size=basis_dim(n_cap))
    s = TwoModeState(n_cap, amps)
    assert photon_distribution(s).total() == pytest.approx(s.squared_norm(), abs=1e-12)


# ----- loss -----------------------------------------------------------------------

def _thinned_oracle(d: CountDistribution, eta_a: float, eta_b: float) -> dict:
    """Independent double-sum with exact integer binomials."""
    n1, n2 = index_pairs(d.n_cap)
    out: dict = {}
    for i in range(d.probs.size):
        p = d.probs[i]
        if p == 0.0:
            continue
        l1, l2 = int(n1[i]), int(n2[i])
        for k1 in range(l1 + 1):
            w1 = math.comb(l1, k1) * eta_a**k1 * (1 - eta_a) ** (l1 - k1)
            for k2 in range(l2 + 1):
                w2 = math.comb(l2, k2) * eta_b**k2 * (1 - eta_b) ** (l2 - k2)
                out[(k1, k2)] = out.get((k1, k2), 0.0) + p * w1 * w2
    return out


def test_lossy_identity_and_total_loss():
    d = photon_distribution(noon_state(3))
    same = lossy_distribution(d, 1.0, 1.0)
    assert np.abs(same.probs - d.probs).max() <= 1e-15
    dark = lossy_distribution(d, 0.0, 0.0)
    assert dark.prob(0, 0) == pytest.approx(1.0, abs=1e-15)


def test_lossy_single_photon():
    d = photon_distribution(TwoModeState.basis_state(1, 1, 0))
    out = lossy_distribution(d, 0.9, 1.0)
    assert out.prob(1, 0) == pytest.approx(0.9, abs=1e-15)
    assert out.prob(0, 0) == pytest.approx(0.1, abs=1e-15)


def test_lossy_matches_double_sum_oracle():
    s = random_state(5, seed=77)
    d = photon_distribution(s)
    out = lossy_distribution(d, 0.8, 0.55)
    oracle = _thinned_oracle(d, 0.8, 0.55)
    for (k1, k2), p in oracle.items():
        assert out.prob(k1, k2) == pytest.approx(p, abs=1e-13)
    assert out.total() == pytest.approx(d.total(), abs=1e-12)


def test_lossy_mode_swap_symmetry():
    # equal transmissivities commute with swapping the two counters
    d = photon_distribution(random_state(4, seed=3))
    out = lossy_distribution(d, 0.7, 0.7)
    swapped_out = lossy_distribution(_swap(d), 0.7, 0.7)
    for l1 in range(5):
        for l2 in range(5 - l1):
            assert out.prob(l1, l2) == pytest.approx(swapped_out.prob(l2, l1), abs=1e-13)


def _swap(d: CountDistribution) -> CountDistribution:
    n1, n2 = index_pairs(d.n_cap)
    p = np.zeros_like(d.probs)
    for i in range(p.size):
        p[pair_index(int(n2[i]), int(n1[i]))] = d.probs[i]
    return CountDistribution(d.n_cap, p)


def test_lossy_rejects_bad_eta():
    d = photon_distribution(noon_state(2))
    with pytest.raises(ValueError):
        lossy_distribution(d, 1.2, 1.0)
    with pytest.raises(ValueError):
        lossy_distribution(d, 0.5, -0.1)


# ----- sampling --------------------------------------------------------------------

def on_pairs(n_cap: int, counts: dict) -> np.ndarray:
    """An (l1, l2) -> count dict as the histogram's array: the count of (l1, l2) at pair_index(l1, l2)."""
    out = np.zeros(basis_dim(n_cap), dtype=np.int64)
    for (l1, l2), c in counts.items():
        out[pair_index(l1, l2)] = c
    return out


def histogram(n_cap: int, counts: dict) -> CountHistogram:
    return CountHistogram(n_cap, on_pairs(n_cap, counts), sum(counts.values()))


def test_sampling_deterministic_and_complete():
    d = photon_distribution(noon_state(2))
    h1 = sample_counts(d, 5000, seed=9)
    h2 = sample_counts(d, 5000, seed=9)
    assert h1.counts.tobytes() == h2.counts.tobytes()
    assert h1.counts.dtype == np.int64 and h1.counts.shape == (basis_dim(2),) and not h1.counts.flags.writeable
    assert h1.counts.sum() == 5000


def test_sampling_point_mass():
    d = photon_distribution(TwoModeState.basis_state(3, 2, 1))
    h = sample_counts(d, 777, seed=1)
    assert h.counts.tolist() == on_pairs(3, {(2, 1): 777}).tolist()


def _oracle_counts(d: CountDistribution, trials: int, seed: int) -> dict:
    """The per-trial sampler: each chunk's uniforms searched in the CDF one by one, then counted into the
    (l1, l2) -> count dict that sample_counts used to return."""
    n1, n2 = index_pairs(d.n_cap)
    order = np.lexsort((n1, n1 + n2))
    cdf = np.cumsum(d.probs[order])
    cdf /= cdf[-1]
    occupancy = np.zeros(cdf.size, dtype=np.int64)
    done = 0
    chunk = 0
    while done < trials:
        n = min(1 << 16, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk]))
        hits = np.searchsorted(cdf, rng.random(n), side="right")
        occupancy += np.bincount(np.minimum(hits, cdf.size - 1), minlength=cdf.size)
        done += n
        chunk += 1
    return {(int(n1[order[pos]]), int(n2[order[pos]])): int(occupancy[pos]) for pos in np.nonzero(occupancy)[0]}


def _in_sampling_order(n_cap: int, p_sorted: np.ndarray) -> CountDistribution:
    """The distribution whose probabilities, in sampling order (total, then l1), are ``p_sorted``."""
    n1, n2 = index_pairs(n_cap)
    probs = np.empty(basis_dim(n_cap))
    probs[np.lexsort((n1, n1 + n2))] = p_sorted
    return CountDistribution(n_cap, probs)


def _drawn_distribution(kind: str, n_cap: int, seed: int) -> CountDistribution:
    rng = np.random.default_rng(seed)
    k = basis_dim(n_cap)
    if kind == "sparse":  # zero-probability outcomes repeat a CDF value
        p = rng.random(k) ** 3 * (rng.random(k) < 0.6)
        p[rng.integers(k)] += 0.1
    elif kind == "dyadic":  # every CDF value lies on an edge j/4096 of the buckets
        p = rng.multinomial(4096, rng.dirichlet(np.full(k, 0.5))) / 4096
    elif kind == "deficit":  # cdf[-1] < 1 until sample_counts normalises it
        p = rng.random(k)
        p *= (1 - 10.0 ** -rng.integers(1, 13)) / p.sum()
    elif kind == "point":
        p = np.zeros(k)
        p[rng.integers(k)] = 1.0
    else:  # lossy NOON parity readout
        n = max(n_cap, 1)
        psi = beam_splitter(phase_shift(noon_state(n), float(rng.uniform(0, math.pi)), "relative"), BS2_JX)
        return lossy_distribution(photon_distribution(psi), float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
    return _in_sampling_order(n_cap, p)


def test_sampling_chunk_merge_invariance():
    """Histogram must be the sum of the fixed-size chunk substreams."""
    d = photon_distribution(noon_state(2))
    trials = (1 << 16) + 12345  # spans two chunks
    assert sample_counts(d, trials, seed=31).counts.tolist() == on_pairs(d.n_cap, _oracle_counts(d, trials, 31)).tolist()


@pytest.mark.parametrize("trials", [1, 4097, (1 << 16) - 1, 1 << 16, (1 << 16) + 1])
@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(["sparse", "dyadic", "deficit", "point", "noon"]),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**64 - 1),
)
def test_sampling_matches_per_trial_oracle(trials, kind, n_cap, dist_seed, seed):
    d = _drawn_distribution(kind, n_cap, dist_seed)
    assert sample_counts(d, trials, seed).counts.tolist() == on_pairs(d.n_cap, _oracle_counts(d, trials, seed)).tolist()


@pytest.mark.parametrize("trials", [1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1_000_000])
def test_sampling_matches_oracle_across_chunk_edges(trials):
    d = lossy_distribution(noon_output_distribution(8, math.pi / 24), 0.8, 0.7)
    assert sample_counts(d, trials, seed=3).counts.tolist() == on_pairs(d.n_cap, _oracle_counts(d, trials, 3)).tolist()


def test_sampling_total_loss_point_mass():
    d = lossy_distribution(noon_output_distribution(6, 0.2), 0.0, 0.0)
    h = sample_counts(d, (1 << 16) + 1, seed=12)
    assert _oracle_counts(d, (1 << 16) + 1, 12) == {(0, 0): (1 << 16) + 1}
    assert h.counts.tolist() == on_pairs(d.n_cap, {(0, 0): (1 << 16) + 1}).tolist()


def test_sampling_uniform_on_a_cdf_value_takes_the_next_outcome():
    """A uniform equal to a CDF value lands past it: outcome k holds [cdf[k-1], cdf[k]).

    The CDF values are uniforms that chunk 0 really draws, all in [0.5, 1), so
    their differences and the cumulative sum reproduce them exactly.  None lies
    on a bucket edge, so the dirty-bucket search resolves them.
    """
    seed, trials = 5, 1000
    u = np.random.default_rng(np.random.SeedSequence([seed, 0])).random(trials)
    edges = np.concatenate(([0.0], np.sort(u[u >= 0.5][:5]), [1.0]))
    assert np.all(edges[1:-1] * 4096 % 1 != 0)
    d = _in_sampling_order(2, np.diff(edges))
    n1, n2 = index_pairs(2)
    order = np.lexsort((n1, n1 + n2))
    assert np.array_equal(np.cumsum(d.probs[order]), edges[1:])
    h = sample_counts(d, trials, seed)
    assert h.counts[order].tolist() == np.histogram(u, edges)[0].tolist()  # half-open bins [edges[k], edges[k+1])
    assert h.counts.tolist() == on_pairs(d.n_cap, _oracle_counts(d, trials, seed)).tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.sampled_from(["random", "dyadic", "short"]))
def test_bucket_table_agrees_with_per_uniform_search(k, seed, kind):
    """lo[b] is the outcome of the bucket's lowest uniform, and b is dirty exactly
    when its highest uniform resolves elsewhere; a CDF that stops short of 1
    (before normalisation) sends the top buckets to the last outcome."""
    rng = np.random.default_rng(seed)
    if kind == "dyadic":
        cdf = np.cumsum(rng.multinomial(4096, np.full(k, 1 / k))) / 4096
    else:
        cdf = np.cumsum(rng.random(k) * (rng.random(k) < 0.7))
        top = rng.uniform(0.3, 0.99) if kind == "short" else 1.0
        if cdf[-1] > 0:
            cdf *= top / cdf[-1]
    lo, dirty = _bucket_table(cdf)
    m = 4096
    lowest = np.arange(m) / m
    highest = np.nextafter(np.arange(1, m + 1) / m, 0.0)
    resolve = lambda u: np.minimum(np.searchsorted(cdf, u, side="right"), k - 1)
    assert np.array_equal(lo, resolve(lowest))
    assert np.array_equal(dirty, resolve(highest) != resolve(lowest))
    assert np.count_nonzero(dirty) <= k
    if kind == "dyadic":  # no CDF value falls inside a bucket
        assert not dirty.any()


# histograms of the per-trial sampler, before the bucket counting; the first is the README example
_PINNED = [
    (
        lambda: run_noon_sampling(ScenarioConfig(scenario="noon", n=4, eta_a=0.9, eta_b=0.9, trials=100_000, seed=42,
                                                 post_select=True)).histogram,
        {(0, 0): 17, (0, 1): 199, (0, 2): 1191, (0, 3): 3608, (0, 4): 6084, (1, 0): 191, (1, 1): 2410,
         (1, 2): 10910, (1, 3): 8202, (2, 0): 1178, (2, 1): 10950, (2, 2): 37201, (3, 0): 3591, (3, 1): 8118,
         (4, 0): 6150},
    ),
    (
        lambda: sample_counts(lossy_distribution(noon_output_distribution(2, 0.3), 0.6, 0.8), 65537, 7),
        {(0, 0): 6365, (0, 1): 11461, (0, 2): 19096, (1, 0): 15053, (1, 1): 2691, (2, 0): 10871},
    ),
    (
        lambda: sample_counts(lossy_distribution(photon_distribution(random_state(3, seed=11)), 0.75, 0.9),
                              3 * 65536 + 5, 2**63 + 1),
        {(0, 0): 48640, (0, 1): 31372, (0, 2): 22313, (0, 3): 43661, (1, 0): 25573, (1, 1): 3907, (1, 2): 5349,
         (2, 0): 9125, (2, 1): 311, (3, 0): 6362},
    ),
]


@pytest.mark.parametrize("case", range(len(_PINNED)))
def test_sampling_pinned_histograms(case):
    draw, expected = _PINNED[case]
    h = draw()
    assert h.counts.tolist() == on_pairs(h.n_cap, expected).tolist()


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
def test_sampling_is_the_same_on_any_number_of_workers(cpus, monkeypatch):
    """One worker per usable CPU, at most one per chunk, each joined before the call returns; the
    histogram is the per-trial oracle's and the pinned one whatever the count."""
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(mzlab.measurement, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(threading, "Thread", Thread)
    before = threading.active_count()
    d = lossy_distribution(noon_output_distribution(8, math.pi / 24), 0.8, 0.7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that a lost tally update would show
    try:
        for trials in (1, 1 << 16, (1 << 16) + 1, 5 * (1 << 16) + 3, 1_000_000):
            started.clear()
            h = sample_counts(d, trials, seed=3)
            assert len(started) == min(cpus, -(-trials // (1 << 16))) - 1
            assert threading.active_count() == before
            assert h.counts.tolist() == on_pairs(d.n_cap, _oracle_counts(d, trials, 3)).tolist()
        pinned = [draw() for draw, _ in _PINNED]
    finally:
        sys.setswitchinterval(interval)
    for h, (_, expected) in zip(pinned, _PINNED):
        assert h.counts.tolist() == on_pairs(h.n_cap, expected).tolist()


def test_sampling_frequency_matches_probability():
    d = photon_distribution(noon_state(2))
    h = sample_counts(d, 100_000, seed=2024)
    frac = h.counts[pair_index(2, 0)] / h.trials
    stderr = math.sqrt(0.25 / 100_000)
    assert abs(frac - 0.5) <= 4 * stderr


# ----- the histogram array against the (l1, l2) -> count dict it replaced -------------------

def parity_oracle(counts: dict, trials: int, post_select_total: int | None) -> ParityEstimate:
    """The dict loop of parity_from_histogram before the counts became an array."""
    kept = 0
    acc = 0
    for (l1, l2), c in counts.items():
        if post_select_total is not None and l1 + l2 != post_select_total:
            continue
        kept += c
        acc += c if l1 % 2 == 0 else -c
    if kept == 0:
        raise FilterExhaustedError(f"post-selection on total={post_select_total} kept no events")
    estimate = acc / kept
    var = max(0.0, 1.0 - estimate * estimate)
    return ParityEstimate(estimate=estimate, stderr=math.sqrt(var / kept), kept_fraction=kept / trials)


def jz_oracle(counts: dict, trials: int) -> tuple[float, float]:
    """The dict form of jz_moments on a histogram."""
    w = 1.0 / trials
    mean = math.fsum(c * w * (l1 - l2) / 2.0 for (l1, l2), c in counts.items())
    second = math.fsum(c * w * ((l1 - l2) / 2.0) ** 2 for (l1, l2), c in counts.items())
    return mean, second


def rows_oracle(counts: dict) -> list[tuple[int, int, int]]:
    """The sorted rows of the dict form of histogram_rows."""
    return sorted(((l1, l2, c) for (l1, l2), c in counts.items()), key=lambda r: (r[0] + r[1], r[0]))


def float_bytes(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["sparse", "dyadic", "deficit", "point", "noon"]),
    st.integers(0, 10),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, (1 << 16) - 1, (1 << 16) + 1, 1_000_000]),
    st.integers(0, 2**64 - 1),
)
@example("noon", 10, 1, 1_000_000, 2**64 - 1)
@example("point", 0, 0, 1, 2**64 - 1)
@example("sparse", 10, 5, (1 << 16) + 1, 2**64 - 1)
def test_histogram_array_matches_the_dict_it_replaced(kind, n_cap, dist_seed, trials, seed):
    d = _drawn_distribution(kind, n_cap, dist_seed)
    h = sample_counts(d, trials, seed)
    counts = _oracle_counts(d, trials, seed)
    pairs = [(l1, total - l1) for total in range(d.n_cap + 1) for l1 in range(total + 1)]
    assert [int(h.counts[pair_index(l1, l2)]) for l1, l2 in pairs] == [counts.get(pair, 0) for pair in pairs]
    for post in [None, *range(d.n_cap + 2)]:  # d.n_cap + 1 keeps no event
        try:
            want = parity_oracle(counts, trials, post)
        except FilterExhaustedError:
            with pytest.raises(FilterExhaustedError):
                parity_from_histogram(h, post_select_total=post)
            continue
        assert float_bytes(parity_from_histogram(h, post_select_total=post)) == float_bytes(want), post
    assert float_bytes(jz_moments(h)) == float_bytes(jz_oracle(counts, trials))
    assert histogram_rows(h) == rows_oracle(counts)


# ----- moments ----------------------------------------------------------------------

def test_jz_moments_of_fock_pipeline():
    out = beam_splitter(phase_shift(fock_after_symmetric_bs(4), math.pi / 3, "mode_b"), BS2_JY)
    mean, second = jz_moments(photon_distribution(out))
    assert mean == pytest.approx(1.0, abs=1e-10)
    assert second >= mean**2


def test_jz_moments_symmetric_distribution():
    mean, _ = jz_moments(photon_distribution(noon_state(3)))
    assert mean == pytest.approx(0.0, abs=1e-15)


def test_jz_moments_histogram_against_exact():
    out = beam_splitter(phase_shift(fock_after_symmetric_bs(6), 0.9, "mode_b"), BS2_JY)
    d = photon_distribution(out)
    mean_exact, second_exact = jz_moments(d)
    h = sample_counts(d, 1_000_000, seed=5150)
    mean_mc, second_mc = jz_moments(h)
    var = second_exact - mean_exact**2
    assert abs(mean_mc - mean_exact) <= 5 * math.sqrt(var / 1e6)
    n1, n2 = index_pairs(d.n_cap)
    v = ((n1 - n2) / 2.0) ** 2
    var_v2 = float(np.sum(d.probs * v**2) - second_exact**2)
    assert abs(second_mc - second_exact) <= 5 * math.sqrt(max(var_v2, 1e-30) / 1e6)


def test_jz_moments_empty_histogram_rejected():
    with pytest.raises(ValueError):
        jz_moments(CountHistogram(2, np.zeros(basis_dim(2), dtype=np.int64), 0))


# ----- parity ------------------------------------------------------------------------

def test_parity_basics():
    assert parity_expectation(photon_distribution(TwoModeState.basis_state(0, 0, 0))) == 1.0
    d = photon_distribution(TwoModeState.basis_state(1, 1, 0))
    assert parity_expectation(d, "a") == -1.0
    assert parity_expectation(d, "b") == 1.0


def test_parity_noon_fringe_zero_crossing():
    st_out = beam_splitter(phase_shift(noon_state(4), math.pi / 8, "relative"), BS2_JX)
    assert parity_expectation(photon_distribution(st_out), "a") == pytest.approx(0.0, abs=1e-12)


def test_parity_from_histogram_no_loss():
    st_out = beam_splitter(phase_shift(noon_state(2), 0.0, "relative"), BS2_JX)
    d = photon_distribution(st_out)
    h = sample_counts(d, 40_000, seed=6)
    est = parity_from_histogram(h)
    assert est.estimate == 1.0  # every outcome has even l1 at phi = 0
    filt = parity_from_histogram(h, post_select_total=2)
    assert filt.kept_fraction == 1.0


def test_parity_filter_kept_fraction_under_loss():
    st_out = beam_splitter(phase_shift(noon_state(4), 0.6, "relative"), BS2_JX)
    lossy = lossy_distribution(photon_distribution(st_out), 0.9, 0.9)
    h = sample_counts(lossy, 100_000, seed=88)
    est = parity_from_histogram(h, post_select_total=4)
    expected_keep = 0.9**4
    stderr = math.sqrt(expected_keep * (1 - expected_keep) / 100_000)
    assert abs(est.kept_fraction - expected_keep) <= 4 * stderr


def test_parity_filter_exhausted():
    h = histogram(4, {(0, 0): 10})
    with pytest.raises(FilterExhaustedError):
        parity_from_histogram(h, post_select_total=4)


@pytest.mark.parametrize("eta", [0.5, 0.7, 0.9])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_filtered_parity_unbiased_for_definite_total(n, eta):
    """Conditioning the thinned distribution on full transmission reproduces
    the lossless parity exactly for a definite-photon-number probe."""
    st_out = beam_splitter(phase_shift(noon_state(n), 0.47, "relative"), BS2_JX)
    d = photon_distribution(st_out)
    lossy = lossy_distribution(d, eta, eta)
    n1, n2 = index_pairs(d.n_cap)
    keep = (n1 + n2) == n
    kept_mass = float(np.sum(lossy.probs[keep]))
    signs = np.where(n1 % 2 == 0, 1.0, -1.0)
    conditional = float(np.sum(lossy.probs[keep] * signs[keep])) / kept_mass
    lossless = parity_expectation(d, "a")
    assert conditional == pytest.approx(lossless, abs=1e-12)
    assert kept_mass == pytest.approx(eta**n, abs=1e-12)


# ----- CSV ---------------------------------------------------------------------------

def test_histogram_csv_layout(tmp_path):
    h = histogram(2, {(2, 0): 5, (0, 2): 7, (1, 0): 3, (0, 0): 1})
    assert histogram_rows(h) == [(0, 0, 1), (1, 0, 3), (0, 2, 7), (2, 0, 5)]
    path = tmp_path / "h.csv"
    write_histogram_csv(h, path)
    text = path.read_text()
    assert text.splitlines()[0] == "l1,l2,count"
    assert text.splitlines()[1] == "0,0,1"
    write_histogram_csv(h, tmp_path / "h2.csv")
    assert (tmp_path / "h2.csv").read_bytes() == path.read_bytes()


def test_shorter_histogram_over_a_longer_one_leaves_no_tail(tmp_path):
    long = run_noon_sampling(ScenarioConfig(scenario="noon", n=8, eta_a=0.7, eta_b=0.7, trials=20_000, seed=3)).histogram
    short = histogram(1, {(1, 0): 2})
    write_histogram_csv(long, tmp_path / "reused.csv")
    write_histogram_csv(short, tmp_path / "reused.csv")
    write_histogram_csv(short, tmp_path / "fresh.csv")
    assert (tmp_path / "reused.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes() == b"l1,l2,count\n1,0,2\n"


def test_histogram_csv_through_links_and_to_devnull(tmp_path, capsys):
    target, link, hard = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "hard.csv"
    target.write_text("x" * 10_000)
    link.symlink_to(target)
    os.link(target, hard)
    h = histogram(1, {(0, 1): 4})
    write_histogram_csv(h, link)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text() == hard.read_text() == "l1,l2,count\n0,1,4\n"
    assert main(["sample", "--n", "2", "--trials", "100", "--out", os.devnull]) == 0


def test_new_histogram_csv_gets_the_mode_the_umask_leaves(tmp_path):
    old = os.umask(0o002)
    try:
        write_histogram_csv(histogram(0, {(0, 0): 1}), tmp_path / "new.csv")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o666 & ~0o002
