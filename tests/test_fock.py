import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzlab.errors import BasisMismatchError, DegenerateStateError
from mzlab.fock import (
    TwoModeState,
    basis_dim,
    index_pairs,
    inner,
    normalize,
    pair_index,
)
from mzlab.optics import phase_shift
from mzlab.states import noon_state

from conftest import random_state


# ----- basis layout ----------------------------------------------------------

@given(st.integers(0, 60))
def test_basis_dim_formula(n_cap):
    assert basis_dim(n_cap) == (n_cap + 1) * (n_cap + 2) // 2
    n1, n2 = index_pairs(n_cap)
    assert n1.size == basis_dim(n_cap)


def test_index_layout_block_then_m_descending():
    n1, n2 = index_pairs(3)
    # within a block n1 descends (m descending), blocks by ascending total
    assert list(zip(n1[:6], n2[:6])) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for a, b in [(0, 0), (2, 1), (0, 3)]:
        i = pair_index(a, b)
        assert (n1[i], n2[i]) == (a, b)


# ----- inner / normalize -----------------------------------------------------

def test_inner_self_and_orthogonality():
    s = random_state(5, seed=1)
    assert abs(inner(s, s) - 1.0) <= 1e-12
    e10 = TwoModeState.basis_state(2, 1, 0)
    e01 = TwoModeState.basis_state(2, 0, 1)
    assert inner(e10, e01) == 0


def test_inner_conjugate_symmetry_and_mismatch():
    a, b = random_state(4, 2), random_state(4, 3)
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-14)
    with pytest.raises(BasisMismatchError):
        inner(a, random_state(5, 4))


def test_inner_noon_family_overlap():
    # overlap of the dephased NOON pair has modulus |cos(delta)| at N = 2
    s = noon_state(2)
    for phi, phip in [(0.2, 0.9), (0.0, 1.3), (2.0, 0.4)]:
        a = phase_shift(s, phi, "relative")
        b = phase_shift(s, phip, "relative")
        assert abs(inner(a, b)) == pytest.approx(abs(math.cos(phi - phip)), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inner_sesquilinear(seed):
    rng = np.random.default_rng(seed)
    n_cap = int(rng.integers(1, 7))
    mk = lambda: TwoModeState(n_cap, rng.normal(size=basis_dim(n_cap)) + 1j * rng.normal(size=basis_dim(n_cap)))
    a, b, c = mk(), mk(), mk()
    lhs = inner(a, TwoModeState(n_cap, b.amps + c.amps))
    assert lhs == pytest.approx(inner(a, b) + inner(a, c), abs=1e-12 * max(1.0, abs(lhs)))


def test_normalize_idempotent_and_ray():
    s = random_state(6, seed=7)
    again = normalize(s)
    assert np.abs(again.amps - s.amps).max() <= 1e-15
    scaled = normalize(TwoModeState(s.n_cap, 3.0 * s.amps))
    assert np.abs(scaled.amps - s.amps).max() <= 1e-12


def test_normalize_zero_state_rejected():
    zero = TwoModeState(3, np.zeros(basis_dim(3)))
    with pytest.raises(DegenerateStateError):
        normalize(zero)


# ----- state container invariants -------------------------------------------

def test_amplitudes_are_read_only():
    s = random_state(3, seed=5)
    with pytest.raises(ValueError):
        s.amps[0] = 1.0


def test_subnormal_amplitudes_flushed():
    amps = np.zeros(basis_dim(1), dtype=complex)
    amps[0] = 1.0
    amps[1] = 1e-310
    s = TwoModeState(1, amps)
    assert s.amps[1] == 0.0


def test_nonfinite_amplitudes_rejected():
    amps = np.zeros(basis_dim(1), dtype=complex)
    amps[0] = np.nan
    with pytest.raises(ValueError):
        TwoModeState(1, amps)

