import numpy as np
import pytest
from hypothesis import settings

from mzlab.fock import TwoModeState, basis_dim, normalize

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
