"""SU(2) operator algebra and interferometer unitaries on the truncated basis.

Every passive two-mode element (beam splitter, phase shifter) conserves the
total photon number, so it acts block-diagonally: the block with total N is
the spin-j representation, j = N/2.  A 2x2 mode matrix M (the Heisenberg
action on the annihilation pair, (a, b) -> M (a, b)) acts on the creation
operators through G = M^dagger,

    U a+ U^dag = g00 a+ + g10 b+,    U b+ U^dag = g01 a+ + g11 b+,

so G is the one-photon block.  Inside a block, index k = n2 runs 0..N
(n1 = N - k, m = j - k descending).  Applying U to the photon ladder

    (N+1) |n1, n2> = sqrt(n1) a+ |n1-1, n2> + sqrt(n2) b+ |n1, n2-1>

builds block N+1 from block N in O(N^2): the a+ term of old column k lands
in new column k with weight sqrt(n1 n1'), the b+ term of old column k in
new column k+1 with weight sqrt(n2 n2'), where the primed number belongs to
the new column and the unprimed one to the new row (g00/g01 keep the row,
g10/g11 move it down one), and the sum is divided by N+1.  Vacuum maps to
+vacuum, so block N is the N-th symmetric power of G and unique.

Two numerical points.  Both ladder terms are kept: the one-sided form (a+
only, divided by sqrt(n1)) is exact in algebra but amplifies rounding by
about sqrt(C(N, k)), to 1e8 at N = 170, while the two-term form keeps every
block orthogonal to a few 1e-14 at that size.  And every weight is the
square root of an integer product, never a product of square roots, so
sqrt(n^2) = n holds exactly: the identity stays exactly the identity and a
half turn exactly the signed antidiagonal.  The Wigner d-matrix d^j(theta),
the block of exp(-i theta Jy), is the same ladder on the real rotation
[[c, -s], [s, c]], c = cos(theta/2), s = sin(theta/2).

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
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .fock import TwoModeState, block_slice, index_pairs

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
# Fixed-total blocks by the photon ladder
# --------------------------------------------------------------------------

_ladders: dict[object, list[np.ndarray]] = {}  # blocks 0, 1, ... per splitter or d(theta)
_d_cache: dict[tuple[int, float], "WignerBlock"] = {}
_cache_lock = threading.Lock()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _ladder_step(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Block N+1 from block N of the element whose one-photon block is ``g``."""
    n = u.shape[0]  # the new total N+1
    # Old row/column k keeps n1 = n - k in place and gets n2 = k + 1 one
    # slot down, so all four weight patterns are flips of one matrix.
    w = np.sqrt(np.outer(np.arange(n, 0, -1), np.arange(n, 0, -1)))
    out = np.zeros((n + 1, n + 1), dtype=np.result_type(u, g))
    out[:-1, :-1] = g[0, 0] * w * u
    out[1:, :-1] += g[1, 0] * w[::-1] * u
    out[:-1, 1:] += g[0, 1] * w[:, ::-1] * u
    out[1:, 1:] += g[1, 1] * w[::-1, ::-1] * u
    out /= n
    return _frozen(out)


def _ladder_block(key, g: np.ndarray, total: int) -> np.ndarray:
    """Block ``total`` of the element with one-photon block ``g``.

    Every block up to ``total`` is built once and cached under ``key``.
    """
    blocks = _ladders.get(key)
    if blocks is None or len(blocks) <= total:
        with _cache_lock:
            blocks = _ladders.setdefault(key, [_frozen(np.ones((1, 1), dtype=g.dtype))])
            while len(blocks) <= total:
                blocks.append(_ladder_step(blocks[-1], g))
    return blocks[total]


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


def wigner_d_block(twice_j: int, theta: float) -> WignerBlock:
    """d^j(theta) = matrix of exp(-i theta Jy) in the 2j-photon block; memoized."""
    if twice_j < 0:
        raise ValueError("twice_j must be >= 0")
    theta = float(theta)
    key = (twice_j, theta)
    blk = _d_cache.get(key)
    if blk is None:
        # cos(pi/2) is 6e-17 in float64, so pin c = 0 at a half turn (and
        # s = 0 at theta = 0); the ladder then gives both cases exactly.
        c = 0.0 if abs(theta) == math.pi else math.cos(theta / 2)
        s = 0.0 if theta == 0.0 else math.sin(theta / 2)
        rotation = np.array([[c, -s], [s, c]])
        blk = WignerBlock(twice_j, theta, _ladder_block(("d", theta), rotation, twice_j))
        with _cache_lock:
            blk = _d_cache.setdefault(key, blk)
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


def _bs_block(spec: BeamSplitterSpec, twice_j: int) -> np.ndarray:
    return _ladder_block(spec.cache_key, spec.matrix.conj().T, twice_j)


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
