"""SU(2) operator algebra and interferometer unitaries on the truncated basis.

Every passive two-mode element (beam splitter, phase shifter) conserves the
total photon number, so it acts block-diagonally: the block with total N is
the spin-j representation, j = N/2.  A 2x2 mode matrix M (the Heisenberg
action on the annihilation pair, (a, b) -> M (a, b)) is realized on Fock
space by Euler-decomposing its conjugate C = conj(M), which is the action
on creation operators:

    C = e^{i delta} Rz(phi_l) Ry(beta) Rz(phi_r)

with Rz(t) = diag(e^{-it/2}, e^{it/2}) and Ry(t) the real rotation by t/2.
The block of total photon number 2j is then

    U^j[v, u] = e^{2ij delta} e^{-i phi_r v} d^j_{v,u}(beta) e^{-i phi_l u}

over m-values v, u = j, j-1, ..., -j, where d^j is the Wigner (small)
d-matrix.  The overall phase is pinned by mapping vacuum to +vacuum, which
makes the block the 2j-th symmetric power of C^T and hence unique.

Convention notes, fixed once here and relied on everywhere else:

* ``BS1_SYMMETRIC`` maps a -> (a+b)/sqrt(2), b -> (a-b)/sqrt(2), so a Fock
  state |N, 0> spreads into the positive binomial profile.
* ``BS2_JY`` is exp(+i pi/2 Jy).  With this sign the number-difference
  observable at the output pulls back to +Jx before the splitter:
  <Jz>_out = <Jx>_inside (and likewise for squares); the opposite sign
  would flip the fringe.
* ``BS2_JX`` is exp(+i pi/2 Jx) preceded by the arm phase exp(-i pi/2 Jz).
  The extra z-rotation only re-references where phi = 0 sits, but it makes
  the output-port parity of a NOON probe exactly +cos(N phi) for every N;
  the bare exp(i pi/2 Jx) yields (-1)^(N/2) cos(N phi) / +-sin(N phi)
  depending on N mod 4, which is the same fringe up to an unobservable
  phase origin.

Sweep readouts are evaluated harmonically.  The arm phase is generated by
n2 (``mode_b``) or Jz (``relative``), whose spectra step by whole units
inside a fixed-total block, and every readout used here conserves the
total photon number.  So each swept moment is an exact trigonometric
polynomial Re(sum_d c_d e^{i d phi}) whose coefficients are sums over the
probe: ``exchange_harmonics`` (degree 1 and 2) and ``parity_harmonics``
(degree N) compute them once, and ``eval_harmonics`` evaluates a whole
grid in one expression.

Wigner d-matrices are evaluated through the Jacobi-polynomial form with a
log-factorial prefactor.  The textbook alternating factorial sum cancels
catastrophically in float64 once 2j exceeds roughly 40; the Jacobi
three-term recurrence is stable to 2j well beyond 100 (orthogonality holds
at the 1e-13 level at 2j = 120).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.special import eval_jacobi

from .fock import TwoModeState, block_slice, index_pairs
from .numerics import log_factorials

AngularAxis = Literal["x", "y", "z"]
PhaseConvention = Literal["relative", "mode_b"]

UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class BeamSplitterSpec:
    """A passive two-mode element given by its unit mode matrix.

    ``matrix`` acts on the annihilation pair: (a, b) -> matrix @ (a, b).
    """

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.shape != (2, 2):
            raise ValueError("mode matrix must be 2x2")
        if np.abs(m @ m.conj().T - np.eye(2)).max() > UNITARITY_TOL:
            raise ValueError("mode matrix is not unitary within 1e-12")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def cache_key(self) -> bytes:
        return self.matrix.tobytes()


def _preset(matrix, label):
    return BeamSplitterSpec(matrix=np.asarray(matrix, dtype=np.complex128), label=label)


_RT2 = math.sqrt(2.0)

BS1_SYMMETRIC = _preset([[1 / _RT2, 1 / _RT2], [1 / _RT2, -1 / _RT2]], "bs1_symmetric")

# exp(+i pi/2 Jy): creation map Ry(-pi/2); real, so the mode matrix is equal.
BS2_JY = _preset([[1 / _RT2, -1 / _RT2], [1 / _RT2, 1 / _RT2]], "bs2_jy")

# exp(i pi/2 Jx) after exp(-i pi/2 Jz); see module docstring.
_C_JX = np.diag([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)]) @ (
    np.array([[1, 1j], [1j, 1]]) / _RT2
)
BS2_JX = _preset(_C_JX.conj(), "bs2_jx")

IDENTITY_BS = _preset(np.eye(2), "identity")


def mode_matrix_of(spec: BeamSplitterSpec) -> np.ndarray:
    """Writable copy of the (verified unitary) mode matrix."""
    return spec.matrix.copy()


# --------------------------------------------------------------------------
# Wigner d-matrix blocks
# --------------------------------------------------------------------------

_d_cache: dict[tuple[int, float], "WignerBlock"] = {}
_cache_lock = threading.Lock()


@dataclass(frozen=True)
class WignerBlock:
    """d^j_{v,u}(theta) on one fixed-total-photon block, m ordered descending."""

    twice_j: int
    theta: float
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.array(self.entries, dtype=np.float64, copy=True)
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)


def _wigner_pi_pattern(twice_j: int, sign: int) -> np.ndarray:
    # d(-pi)[i, dim-1-i] = (-1)^i ; d(+pi)[i, dim-1-i] = (-1)^(2j - i).
    dim = twice_j + 1
    out = np.zeros((dim, dim))
    i = np.arange(dim)
    par = i if sign < 0 else twice_j - i
    out[i, dim - 1 - i] = np.where(par % 2 == 0, 1.0, -1.0)
    return out


def _wigner_entries(twice_j: int, theta: float) -> np.ndarray:
    if theta == 0.0:
        return np.eye(twice_j + 1)
    if theta == math.pi or theta == -math.pi:
        # cos(pi/2) is 6e-17 in float64; pin the exact antidiagonal instead.
        return _wigner_pi_pattern(twice_j, 1 if theta > 0 else -1)
    dim = twice_j + 1
    # doubled m values, descending: 2m = 2j, 2j-2, ..., -2j
    tm = twice_j - 2 * np.arange(dim)
    tmp = tm[:, None]  # row index: m'
    tmv = tm[None, :]  # column index: m
    jpm = (twice_j + tmv) // 2
    jmm = (twice_j - tmv) // 2
    jpmp = (twice_j + tmp) // 2
    jmmp = (twice_j - tmp) // 2
    k = np.minimum(np.minimum(jpm, jmm), np.minimum(jpmp, jmmp))
    # (a, lambda) per the smallest of the four corner indices
    mp_minus_m = (tmp - tmv) // 2
    a = np.empty_like(k)
    lam = np.empty_like(k)
    c1 = k == jpm
    c2 = ~c1 & (k == jmm)
    c3 = ~c1 & ~c2 & (k == jpmp)
    c4 = ~(c1 | c2 | c3)
    for cond, aval, lval in ((c1, mp_minus_m, mp_minus_m), (c2, -mp_minus_m, 0), (c3, -mp_minus_m, 0), (c4, mp_minus_m, mp_minus_m)):
        a[cond] = aval[cond] if isinstance(aval, np.ndarray) else aval
        lam[cond] = lval[cond] if isinstance(lval, np.ndarray) else lval
    b = twice_j - 2 * k - a
    lf = log_factorials(twice_j)
    prefactor = np.exp(0.5 * (lf[k] + lf[twice_j - k] - lf[k + a] - lf[k + b]))
    sign = np.where(lam % 2 == 0, 1.0, -1.0)
    sh, ch = math.sin(theta / 2), math.cos(theta / 2)
    return sign * prefactor * sh**a * ch**b * eval_jacobi(k, a, b, math.cos(theta))


def wigner_d_block(twice_j: int, theta: float) -> WignerBlock:
    """d^j(theta) = matrix of exp(-i theta Jy) in the 2j-photon block; memoized."""
    if twice_j < 0:
        raise ValueError("twice_j must be >= 0")
    key = (twice_j, float(theta))
    blk = _d_cache.get(key)
    if blk is None:
        blk = WignerBlock(twice_j, float(theta), _wigner_entries(twice_j, float(theta)))
        with _cache_lock:
            _d_cache.setdefault(key, blk)
        blk = _d_cache[key]
    return blk


# --------------------------------------------------------------------------
# Angular momentum operators
# --------------------------------------------------------------------------


def apply_angular(s: TwoModeState, which: AngularAxis) -> TwoModeState:
    """Apply Jx, Jy or Jz.  The result is generally not normalized."""
    n1, n2 = index_pairs(s.n_cap)
    a = s.amps
    if which == "z":
        out = a * ((n1 - n2) / 2.0)
    elif which in ("x", "y"):
        out = np.zeros_like(a)
        up = n2 >= 1  # (n1, n2) -> (n1+1, n2-1), one slot earlier in the block
        dn = n1 >= 1  # (n1, n2) -> (n1-1, n2+1), one slot later
        cu = 0.5 * np.sqrt(n2[up] * (n1[up] + 1.0))
        cd = 0.5 * np.sqrt(n1[dn] * (n2[dn] + 1.0))
        if which == "y":
            cu = cu * -1j
            cd = cd * 1j
        # each source index has a distinct target, so fancy += is safe
        out[np.where(up)[0] - 1] += cu * a[up]
        out[np.where(dn)[0] + 1] += cd * a[dn]
    else:
        raise ValueError(f"unknown axis {which!r}")
    return s.with_amps(out, deficit=math.nan)


def expect_j(s: TwoModeState, which: AngularAxis) -> float:
    """<J_which> on a normalized state; guaranteed real for Hermitian J."""
    val = np.vdot(s.amps, apply_angular(s, which).amps)
    return float(val.real)


def expect_j2(s: TwoModeState, which: AngularAxis) -> float:
    """<J_which^2> computed as ||J psi||^2, hence real and nonnegative."""
    js = apply_angular(s, which).amps
    return float(np.vdot(js, js).real)


def phase_shift(s: TwoModeState, phi: float, conv: PhaseConvention) -> TwoModeState:
    """Diagonal phase unitary in either bookkeeping convention.

    "relative" multiplies |n1,n2> by exp(-i m phi), m = (n1-n2)/2 (the Jz
    generator); "mode_b" multiplies by exp(+i phi n2) (all phase on the
    second arm).  On a fixed-total-photon block the two differ only by a
    global phase; across blocks they are distinct conventions and each
    scenario documents which one it uses.
    """
    n1, n2 = index_pairs(s.n_cap)
    if conv == "relative":
        diag = np.exp(-0.5j * phi * (n1 - n2))
    elif conv == "mode_b":
        diag = np.exp(1j * phi * n2)
    else:
        raise ValueError(f"unknown phase convention {conv!r}")
    return s.with_amps(s.amps * diag)


# --------------------------------------------------------------------------
# Beam splitters
# --------------------------------------------------------------------------


def _euler_zyz(c: np.ndarray) -> tuple[float, float, float, float]:
    """(delta, phi_l, beta, phi_r) with c = e^{i delta} Rz(phi_l) Ry(beta) Rz(phi_r).

    Any valid solution yields the same Fock-space blocks (they are
    polynomial in the entries of c), so branch choices here are free.
    """
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    delta = math.atan2(det.imag, det.real) / 2
    b = c * np.exp(-1j * delta)
    beta = 2.0 * math.atan2(abs(b[0, 1]), abs(b[0, 0]))
    spl = -2.0 * np.angle(b[0, 0])  # phi_l + phi_r
    dif = -2.0 * np.angle(b[0, 1])  # phi_l - phi_r
    return delta, (spl + dif) / 2, beta, (spl - dif) / 2


_block_cache: dict[tuple[bytes, int], np.ndarray] = {}


def _bs_block(spec: BeamSplitterSpec, twice_j: int) -> np.ndarray:
    key = (spec.cache_key, twice_j)
    blk = _block_cache.get(key)
    if blk is None:
        delta, phi_l, beta, phi_r = _euler_zyz(spec.matrix.conj())
        tm = twice_j - 2 * np.arange(twice_j + 1)  # doubled m, descending
        d = wigner_d_block(twice_j, beta).entries
        left = np.exp(-0.5j * phi_r * tm)
        right = np.exp(-0.5j * phi_l * tm)
        blk = np.exp(1j * twice_j * delta) * (left[:, None] * d * right[None, :])
        blk.flags.writeable = False
        with _cache_lock:
            _block_cache.setdefault(key, blk)
        blk = _block_cache[key]
    return blk


def beam_splitter(s: TwoModeState, spec: BeamSplitterSpec) -> TwoModeState:
    """Apply the element block-diagonally; exactly photon-number conserving."""
    out = np.empty_like(s.amps)
    for total in range(s.n_cap + 1):
        sl = block_slice(total)
        out[sl] = _bs_block(spec, total) @ s.amps[sl]
    return s.with_amps(out)


# --------------------------------------------------------------------------
# Harmonic readout kernels
# --------------------------------------------------------------------------


def exchange_harmonics(s: TwoModeState) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients in phi of <Jx> and <Jx^2> under the ``mode_b`` phase.

    The phase exp(i phi n2) turns b into b e^{i phi}, so with the phi = 0
    sums A = <a+ b>, B = <(a+ b)^2> and C = <a+a b b+ + b+b a a+>:

        <Jx>(phi)   = Re(A e^{i phi})
        <Jx^2>(phi) = Re(B e^{2i phi}) / 2 + C / 4

    Through ``BS2_JY`` the output half difference pulls back to Jx, so the
    same coefficients give the counting readout (l1 - l2)/2 at the output.
    Returns the coefficient arrays of the mean and the second moment for
    :func:`eval_harmonics`.
    """
    n1, n2 = index_pairs(s.n_cap)
    psi = s.amps
    # a+ b maps |n1, n2> one slot earlier in its block, (a+ b)^2 two slots;
    # the weights vanish where that would leave the block.
    hop = np.sqrt(n2 * (n1 + 1.0))
    hop2 = hop[1:] * hop[:-1]
    a = np.vdot(psi[:-1], hop[1:] * psi[1:])
    b = np.vdot(psi[:-2], hop2[1:] * psi[2:])
    c = np.dot(np.abs(psi) ** 2, n1 * (n2 + 1.0) + n2 * (n1 + 1.0))
    return np.array([0.0, a]), np.array([c / 4, 0.0, b / 2])


def parity_harmonics(s: TwoModeState) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients in phi of the output parity <(-1)^l1> and its square.

    The phase is the ``relative`` one, exp(-i phi m), and ``BS2_JX`` closes
    the interferometer.  On a block with splitter block U the parity pulls
    back to M = U^dagger Pi_a U, and with m_k - m_l = l - k inside the block

        <Pi_a>(phi) = sum_{k,l} conj(psi_k) M_kl psi_l e^{i (l - k) phi},

    so the coefficient of e^{i d phi} is the d-th diagonal sum of
    conj(psi) M psi.  That matrix is Hermitian, so the d < 0 terms fold into
    twice the real part of the d > 0 ones.  Parity squares to one, so the
    second moment is the squared norm at every phi.
    """
    coeffs = np.zeros(s.n_cap + 1, dtype=np.complex128)
    for total in range(s.n_cap + 1):
        v = s.amps[block_slice(total)]
        if not v.any():
            continue
        u = _bs_block(BS2_JX, total)
        parity = np.where(np.arange(total, -1, -1) % 2 == 0, 1.0, -1.0)  # (-1)^n1 down the block
        g = v.conj()[:, None] * (u.conj().T @ (parity[:, None] * u)) * v[None, :]
        coeffs[0] += np.trace(g)
        for d in range(1, total + 1):
            coeffs[d] += 2.0 * np.trace(g, offset=d)
    return coeffs, np.array([s.squared_norm()])


def eval_harmonics(coeffs: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Re(sum_d coeffs[d] e^{i d phi}) at every phi of the grid."""
    return (np.exp(1j * np.outer(phis, np.arange(len(coeffs)))) @ coeffs).real
