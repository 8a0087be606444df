"""Truncated two-mode Fock space: indexing, states, inner products.

The basis keeps every pair (n1, n2) with n1 + n2 <= n_cap, so the dimension
is (n_cap+1)(n_cap+2)/2.  Amplitudes are stored densely, ordered by total
photon number block and, inside a block, by m = (n1-n2)/2 descending, i.e.
(N,0), (N-1,1), ..., (0,N).  Beam splitters and phase shifts conserve the
total photon number, so they act block-diagonally on this layout and the
only truncation error in the whole pipeline is the one introduced at state
preparation; it is recorded in ``TwoModeState.deficit`` and never silently
dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BasisMismatchError, DegenerateStateError

# Amplitudes below this magnitude are flushed to exact zeros: they sit far
# below every tolerance in use and only cause subnormal slowdowns.
AMP_FLUSH = 1e-300


def basis_dim(n_cap: int) -> int:
    """Number of kept basis states, (n_cap+1)(n_cap+2)/2."""
    return (n_cap + 1) * (n_cap + 2) // 2


def pair_index(n1: int, n2: int) -> int:
    """Flat index of |n1, n2> in the block-ordered layout."""
    total = n1 + n2
    return total * (total + 1) // 2 + n2


def block_slice(total: int) -> slice:
    """Slice of the flat array holding the fixed-total-photon block."""
    lo = total * (total + 1) // 2
    return slice(lo, lo + total + 1)


@lru_cache(maxsize=32)
def index_pairs(n_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (n1[i], n2[i]) for every flat index i; the last 32 n_cap are memoized."""
    total = np.repeat(np.arange(n_cap + 1, dtype=np.int64), np.arange(1, n_cap + 2))
    n2 = np.arange(total.size, dtype=np.int64) - total * (total + 1) // 2
    n1 = total - n2
    n1.flags.writeable = False
    n2.flags.writeable = False
    return n1, n2


@dataclass(frozen=True)
class TwoModeState:
    """Immutable amplitudes over the truncated two-mode basis.

    ``deficit`` is the probability mass lost to truncation at preparation
    time (1 - ||psi||^2 of the untruncated target).  States produced by
    unitaries inherit the deficit of their input; states produced by
    non-unitary operator applications (e.g. angular momentum operators) are
    not normalized and carry deficit NaN.
    """

    n_cap: int
    amps: np.ndarray
    deficit: float = 0.0

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128, copy=True)
        if amps.shape != (basis_dim(self.n_cap),):
            raise ValueError(f"amplitude array has shape {amps.shape}, expected ({basis_dim(self.n_cap)},)")
        if not np.isfinite(amps).all():
            raise ValueError("non-finite amplitude")
        small = np.abs(amps) < AMP_FLUSH
        if small.any():
            amps[small] = 0.0
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    def amplitude(self, n1: int, n2: int) -> complex:
        if n1 < 0 or n2 < 0 or n1 + n2 > self.n_cap:
            raise ValueError(f"({n1}, {n2}) outside the n_cap={self.n_cap} basis")
        return complex(self.amps[pair_index(n1, n2)])

    def squared_norm(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def with_amps(self, amps: np.ndarray, deficit: float | None = None) -> "TwoModeState":
        return TwoModeState(self.n_cap, amps, self.deficit if deficit is None else deficit)

    @classmethod
    def basis_state(cls, n_cap: int, n1: int, n2: int) -> "TwoModeState":
        if n1 < 0 or n2 < 0 or n1 + n2 > n_cap:
            raise ValueError("basis label outside the truncated basis")
        amps = np.zeros(basis_dim(n_cap), dtype=np.complex128)
        amps[pair_index(n1, n2)] = 1.0
        return cls(n_cap, amps)


def inner(a: TwoModeState, b: TwoModeState) -> complex:
    """<a|b> = sum conj(a) * b over the shared basis."""
    if a.n_cap != b.n_cap:
        raise BasisMismatchError(f"n_cap mismatch: {a.n_cap} != {b.n_cap}")
    return complex(np.vdot(a.amps, b.amps))


def normalize(s: TwoModeState) -> TwoModeState:
    sq = s.squared_norm()
    if sq <= 1e-15:
        raise DegenerateStateError(f"cannot normalize state with squared norm {sq:.3e}")
    return s.with_amps(s.amps / math.sqrt(sq))
