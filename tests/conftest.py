import numpy as np
import pytest
from hypothesis import settings

from mzlab.fock import TwoModeState, basis_dim, index_pairs, normalize
from mzlab.measurement import CountDistribution

# Property tests draw the same examples on every run, so a pass or a failure
# repeats.  Per-test max_examples and deadline settings still apply.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def random_state(n_cap: int, seed: int) -> TwoModeState:
    """Normalized two-mode state with iid Gaussian amplitudes."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis_dim(n_cap)) + 1j * rng.normal(size=basis_dim(n_cap))
    return normalize(TwoModeState(n_cap, amps))


def random_fixed_total_state(total: int, seed: int) -> TwoModeState:
    """Normalized state supported on a single total-photon-number block."""
    rng = np.random.default_rng(seed)
    amps = np.zeros(basis_dim(total), dtype=complex)
    block = rng.normal(size=total + 1) + 1j * rng.normal(size=total + 1)
    amps[-(total + 1):] = block
    return normalize(TwoModeState(total, amps))


def oracle_counts(d: CountDistribution, trials: int, seed: int) -> dict:
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
