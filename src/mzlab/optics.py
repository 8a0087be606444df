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
+vacuum, so block N is the N-th symmetric power of G and unique.  A climb
keeps only its current block and nothing is memoized, so a block of total
N needs O(N^2) memory.  No CLI path climbs: each fixed-N probe reads its
splitter columns in closed form (``bs2_jx_edges``, ``states``).

Two numerical points.  Both ladder terms are kept: the one-sided form (a+
only, divided by sqrt(n1)) is exact in algebra but amplifies rounding by
about sqrt(C(N, k)), to 1e8 at N = 170, while the two-term form keeps every
block orthogonal to a few 1e-14 at that size.  And every weight is the
square root of an integer product, never a product of square roots, so
sqrt(n^2) = n holds exactly.  On a real one-photon block that makes the
identity exactly the identity and a half turn exactly the signed
antidiagonal.  A complex block is divided by N+1 componentwise, on its
real and imaginary parts, so the complex identity too stays exactly the
identity (tested to N = 170); numpy's complex division multiplies by a
rounded 1/(N+1) and drifted it by 8.9e-16 at N = 60.  The Wigner d-matrix
d^j(theta), the block of exp(-i theta Jy), is the same ladder on the real
rotation [[c, -s], [s, c]], c = cos(theta/2), s = sin(theta/2).

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
  phase origin.  Every entry of its one-photon block is an eighth turn over
  sqrt(2), so a NOON probe's two columns of block N are binomial
  (``bs2_jx_edges``) and no CLI path climbs its ladder.

Sweep readouts are evaluated harmonically.  The arm phase is generated by
n2 (``mode_b``) or Jz (``relative``), whose spectra step by whole units
inside a fixed-total block, and every readout used here conserves the
total photon number.  So each swept moment is an exact trigonometric
polynomial Re(sum_d c_d e^{i d phi}) whose coefficients are sums over the
probe: ``exchange_harmonics`` (degree 1 and 2) and ``parity_harmonics``
(degree N, a NOON probe on ``BS2_JX``'s two edge columns) compute them once,
and ``eval_harmonics`` evaluates a whole grid in one expression.

Product probes skip the two-mode state.  When the probe is U (|a> (x) |b>)
with single-mode inputs a, b and a passive U, a readout sum <P> equals
<a, b| U^dag P U |a, b>, and U^dag P U is P with every letter substituted
(``pull_back``; the Heisenberg-picture splitter map of Campos, Saleh and
Teich, Phys. Rev. A 40, 1371 (1989)).  Modes a and b commute, so each
monomial splits into a mode-a word times a mode-b word, and each word acts
on one amplitude array.  Every monomial conserves the total photon number,
so on the truncated basis n1 + n2 <= n_cap the monomial's expectation is
the sum of ga[i] gb[j] over i + j <= n_cap, exactly what the two-mode
state gives (``product_expectations``).  ``product_exchange_sums`` returns
the exchange sums A, B, C and the n2 moments this way, in
O(cutoff_a + cutoff_b) per word, with no block built.

One plan per polynomial set is built at import, bare and through
``BS1_SYMMETRIC`` (``_ProductPlan``).  It reads its rows in runs of at most
2^20 // (fa.size + fb.size) rows, so a probe of 10^6 photons in either mode
holds one row's words at a time, and builds a run's word terms as one
(words, size) array per mode.  Every entry is the arithmetic of one word and
one pair sum alone, so the readout is the same to the bit however the rows
are split.  Three choices keep it so.  The pair sums are gathered with
``take`` along the row axis: fancy indexing returns a column-major array,
whose strided rows take another BLAS path in the dot product.  Squeezed
amplitudes use ``math.exp``, which differs from ``np.exp`` in the last bit
for a few inputs in a hundred.  And each complex product is a new array of
its operands' rank: numpy multiplies a lone element in place, or against
an operand of lower rank, without its vector loop's fused multiply-adds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .fock import TwoModeState, block_slice, index_pairs, pair_index
from .numerics import binomial_weights, pair_operands

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


_RT2 = math.sqrt(2.0)

BS1_SYMMETRIC = BeamSplitterSpec([[1 / _RT2, 1 / _RT2], [1 / _RT2, -1 / _RT2]], "bs1_symmetric")

# exp(+i pi/2 Jy): creation map Ry(-pi/2); real, so the mode matrix is equal.
BS2_JY = BeamSplitterSpec([[1 / _RT2, -1 / _RT2], [1 / _RT2, 1 / _RT2]], "bs2_jy")

# exp(i pi/2 Jx) after exp(-i pi/2 Jz); see module docstring.
_C_JX = np.diag([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)]) @ (
    np.array([[1, 1j], [1j, 1]]) / _RT2
)
BS2_JX = BeamSplitterSpec(_C_JX.conj(), "bs2_jx")


def bs2_jx_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, signs) of columns 0 and N of ``BS2_JX``'s block N: |U_k0|^2 = |U_kN|^2 = w_k = C(N, k) / 2^N, rounded
    once, and conj(U_k0) U_kN = signs_k w_k, signs_k = (-1)^(N-k) exactly.  The columns are (g00 a+ + g10 b+)^N and
    (g01 a+ + g11 b+)^N on the vacuum over sqrt(N!), and every entry of the one-photon block g is an eighth turn over
    sqrt(2): |g|^2 = 1/2, conj(g00) g01 = -1/2 and conj(g10) g11 = +1/2."""
    return binomial_weights(n), np.where(np.arange(n, -1, -1) % 2 == 0, 1.0, -1.0)


# --------------------------------------------------------------------------
# Fixed-total blocks by the photon ladder
# --------------------------------------------------------------------------


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
    out.view(np.float64)[...] /= n  # componentwise: complex division multiplies by a rounded 1/n
    return _frozen(out)


def _climb(g: np.ndarray, total: int) -> np.ndarray:
    """Block ``total`` of the element with one-photon block ``g``, keeping only the current block of the climb."""
    u = _frozen(np.ones((1, 1), dtype=g.dtype))
    for _ in range(total):
        u = _ladder_step(u, g)
    return u


def wigner_d_block(twice_j: int, theta: float) -> np.ndarray:
    """d^j_{v,u}(theta), the matrix of exp(-i theta Jy) in the 2j-photon block with m descending,
    as a read-only float64 array climbed afresh on each call."""
    if twice_j < 0:
        raise ValueError("twice_j must be >= 0")
    theta = float(theta)
    # cos(pi/2) is 6e-17 in float64, so pin c = 0 at a half turn; the
    # ladder then gives the signed antidiagonal exactly.
    c = 0.0 if abs(theta) == math.pi else math.cos(theta / 2)
    s = math.sin(theta / 2)
    return _climb(np.array([[c, -s], [s, c]]), twice_j)


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
    return s.with_amps(out)


def expect_j(s: TwoModeState, which: AngularAxis) -> float:
    """<J_which> on a normalized state; guaranteed real for Hermitian J."""
    val = np.vdot(s.amps, apply_angular(s, which).amps)
    return float(val.real)


def expect_j2(s: TwoModeState, which: AngularAxis) -> float:
    """<J_which^2> computed as ||J psi||^2, hence real and nonnegative."""
    js = apply_angular(s, which).amps
    return float(np.vdot(js, js).real)


def phase_generator(n_cap: int, conv: PhaseConvention) -> tuple[float, np.ndarray]:
    """The arm phase of convention ``conv`` on the basis of ``n_cap`` as (c, K).

    The phase multiplies |n1,n2> by exp(i c phi K), K an integer diagonal,
    and its generator is G = |c| K: "mode_b" puts all the phase on the
    second arm (c = 1, K = n2, G = n2) and "relative" is exp(-i phi Jz)
    (c = -1/2, K = n1 - n2, G = Jz).  On a fixed-total-photon block the two
    differ only by a global phase; across blocks they are distinct
    conventions, and each scenario names its own.
    """
    if conv not in ("mode_b", "relative"):
        raise ValueError(f"unknown phase convention {conv!r}; pick 'mode_b' or 'relative'")
    n1, n2 = index_pairs(n_cap)
    return (1.0, n2) if conv == "mode_b" else (-0.5, n1 - n2)


def phase_shift(s: TwoModeState, phi: float, conv: PhaseConvention) -> TwoModeState:
    """The arm phase exp(i c phi K) of :func:`phase_generator`, one exp per value of K gathered by K; c phi is rounded before it meets K."""
    c, k = phase_generator(s.n_cap, conv)
    return s.with_amps(s.amps * np.exp(c * 1j * phi * np.arange(-s.n_cap, s.n_cap + 1))[k + s.n_cap])


# --------------------------------------------------------------------------
# Beam splitters
# --------------------------------------------------------------------------


def beam_splitter(s: TwoModeState, spec: BeamSplitterSpec) -> TwoModeState:
    """Apply the element block-diagonally, exactly photon-number conserving, in one climb from block 0 to the highest
    occupied block, so every block is the one :func:`_climb` gives; library API and test oracle, on no CLI path."""
    out, g, u = np.zeros_like(s.amps), spec.matrix.conj().T, None
    occupied = {total for total in range(s.n_cap + 1) if s.amps[block_slice(total)].any()}
    for total in range(max(occupied, default=-1) + 1):
        u = _climb(g, 0) if u is None else _ladder_step(u, g)
        if total in occupied:
            out[block_slice(total)] = u @ s.amps[block_slice(total)]
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
    return _exchange_coeffs(a, b, c)


def _exchange_coeffs(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic coefficients of <Jx> and <Jx^2> from the sums A, B and C."""
    return np.array([0.0, a]), np.array([c / 4, 0.0, b / 2])


def parity_harmonics(s: TwoModeState) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients in phi of the output parity <(-1)^l1> and its square on v0 |N,0> + vN |0,N>, N = n_cap.

    Any other nonzero amplitude is refused.  The ``relative`` phase, ``BS2_JX``'s edge columns
    (:func:`bs2_jx_edges`) and parity signs_k on row k of block N give <Pi_a>(phi) =
    (|v0|^2 + |vN|^2) fsum(signs w) + 2 Re(conj(v0) vN e^{i N phi}) fsum(w); the second moment is the squared norm.
    """
    n = s.n_cap
    edges = [pair_index(n, 0), pair_index(0, n)]
    if n < 1 or np.delete(s.amps, edges).any():
        raise ValueError("the parity readout takes a state on |N,0> and |0,N> alone, N = n_cap >= 1")
    v0, vn = s.amps[edges]
    w, signs = bs2_jx_edges(n)
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = (abs(v0) ** 2 + abs(vn) ** 2) * math.fsum(signs * w)
    coeffs[n] = 2 * v0.conjugate() * vn * math.fsum(w)
    return coeffs, np.array([s.squared_norm()])


def eval_harmonics(coeffs: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Re(sum_d coeffs[d] e^{i d phi}) at every phi of the grid."""
    return (_harmonic_basis(np.asarray(phis, dtype=np.float64).tobytes(), len(coeffs)) @ coeffs).real


@functools.lru_cache(maxsize=16)
def _harmonic_basis(grid: bytes, size: int) -> np.ndarray:
    """exp(1j * outer(phis, arange(size))) on the float64 grid with the bytes ``grid``, memoized.

    A sweep evaluates two coefficient sizes on one grid, and a small-probe
    benchmark pass asks for about 13 (grid, size) pairs.  Each size keeps its
    own contiguous matrix, though slices matched it in 7,290 of 7,290 products.
    """
    return _frozen(np.exp(1j * np.outer(np.frombuffer(grid), np.arange(size))))


# --------------------------------------------------------------------------
# Product-form readout
# --------------------------------------------------------------------------

# An operator polynomial: (mode-a word, mode-b word) -> coefficient.  A word
# lists its letters in operator order (the rightmost acts first), +1 for a
# creation and -1 for an annihilation operator.
Word = tuple[int, ...]
Poly = dict[tuple[Word, Word], complex]


def pull_back(poly: Poly, matrix: np.ndarray) -> Poly:
    """U^dag P U for the element with mode matrix ``matrix``.

    From U (a, b) U^dag = M (a, b), U^dag (a, b) U = M^dag (a, b): the
    annihilation operator of mode m becomes sum_k conj(M[k, m]) times that
    of mode k, and the creation operator sum_k M[k, m] times that of mode k.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    out: dict = {}
    for (wa, wb), coeff in poly.items():
        terms = {((), ()): coeff}
        for mode, letter in [(0, x) for x in wa] + [(1, x) for x in wb]:
            grown: dict = {}
            for (ta, tb), c in terms.items():
                for k in (0, 1):
                    w = m[k, mode] if letter > 0 else m[k, mode].conjugate()
                    key = (ta + (letter,), tb) if k == 0 else (ta, tb + (letter,))
                    grown[key] = grown.get(key, 0.0) + c * w
            terms = grown
        for key, c in terms.items():
            out[key] = out.get(key, 0.0) + c
    return {key: complex(c) for key, c in out.items() if c != 0}


class _ModeWords:
    """The distinct words of one mode as the factors of their matrix elements.

    Read from the right, letter i of a word multiplies <n + d| word |n> by
    n + offset[i]: a creation operator after it raises the count, an
    annihilation operator before it lowers it.  The letters go in pairs;
    a padded slot (live 0, offset 1) is a factor of one.
    """

    def __init__(self, words: list[Word]):
        pairs = max([1] + [(len(w) + 1) // 2 for w in words])
        self.live = np.zeros((len(words), 2 * pairs), dtype=np.int64)  # 1 for a letter, 0 for padding
        self.offset = np.ones_like(self.live)
        for row, word in enumerate(words):
            k = 0
            for slot, letter in enumerate(reversed(word)):
                k += letter > 0
                self.live[row, slot], self.offset[row, slot] = 1, k
                k -= letter < 0
        self.shift = np.array([sum(w) for w in words], dtype=np.int64)  # the photon change d of each word

    def terms(self, f: np.ndarray, words: slice | np.ndarray = slice(None)) -> np.ndarray:
        """g[w, n] = conj(f[n + d]) <n + d| word w |n> f[n] for each of ``words``, zero where n + d leaves f.

        The matrix element is the square root of one product rounded once,
        so <n| a+ a |n> is exactly n.  A running int64 product of four
        letters overflows once f passes ~55,100 entries, so each pair of
        letters is multiplied exactly in int64 (below 2^53, so exact in
        float64 too), and the float product of the pairs is that one
        rounding for words of up to four letters.
        """
        n = np.arange(f.size)
        live, offset = self.live[words], self.offset[words]

        def factor(slot):  # (words, f.size) int64
            return n * live[:, slot, None] + offset[:, slot, None]

        weight = math.prod((factor(slot) * factor(slot + 1) for slot in range(0, live.shape[1], 2)), start=1.0)
        d = self.shift[words, None]
        g = f.conj().take(n + d, mode="clip")  # conj(f[n + d]), set to +0 below where n + d leaves f
        g *= np.sqrt(weight, out=weight)
        del weight
        g = g * f[None]  # a new array of equal rank, see the module docstring
        g[(n + d).view(np.uint64) >= f.size] = 0  # a negative n + d wraps past f.size
        return g

    def read(self, f: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The terms of the distinct entries of ``words`` in ascending order, and the row of each word's terms."""
        seen = np.bincount(words, minlength=self.shift.size) > 0
        return self.terms(f, np.flatnonzero(seen)), np.cumsum(seen) - 1


_CHUNK_ENTRIES = 1 << 20  # the most rows x (fa.size + fb.size) a plan reads in one run; at least one row


class _ProductPlan:
    """How :func:`product_expectations` reads a list of polynomials, worked out once.

    Each (polynomial, mode-a word) pair is one row, mapped to its monomials'
    (coefficient, mode-b word) pairs in the polynomial's dict order; the rows
    keep the order in which the polynomials add them.  A polynomial's value is
    the sum over its rows, in that order, of the truncated pair sum of the
    mode-a word terms with the sum of c times the mode-b word terms.
    """

    def __init__(self, polys):
        words_a: dict = {}
        words_b: dict = {}
        rows: dict = {}  # (polynomial, mode-a word) -> [(coefficient, mode-b word), ...]
        for p, poly in enumerate(polys):
            for (wa, wb), c in poly.items():
                row = rows.setdefault((p, words_a.setdefault(wa, len(words_a))), [])
                row.append((c, words_b.setdefault(wb, len(words_b))))
        self.a, self.b = _ModeWords(list(words_a)), _ModeWords(list(words_b))
        self.n_polys = len(polys)
        self.rows = np.array(list(rows), dtype=np.int64).reshape(-1, 2)  # (polynomial, mode-a word) of each row
        self.coeff = np.zeros((max(map(len, rows.values()), default=0), len(rows)), dtype=np.complex128)
        self.word_b = np.full(self.coeff.shape, -1)  # line k, column i: row i's k-th monomial, or (0, -1) past its last
        for i, monomials in enumerate(rows.values()):
            self.coeff[: len(monomials), i], self.word_b[: len(monomials), i] = zip(*monomials)

    def __call__(self, fa: np.ndarray, fb: np.ndarray, n_cap: int) -> list[complex]:
        """The polynomials' values; the rows go in runs of at most ``_CHUNK_ENTRIES // (fa.size + fb.size)``, one at least."""
        step = max(1, _CHUNK_ENTRIES // (fa.size + fb.size))
        out = [0j] * self.n_polys
        for lo in range(0, len(self.rows), step):
            run = slice(lo, lo + step)
            (poly, word_a), c, w = self.rows[run].T, self.coeff[:, run], self.word_b[:, run]
            gb, at = self.b.read(fb, w[w >= 0])
            sums = np.zeros((poly.size, fb.size), dtype=np.complex128)
            sums += c[0, :, None] * gb[at[w[0]]]  # every row has a first monomial, so this adds in place
            for ck, wk in zip(c[1:], w[1:]):  # one add per later position, on the rows that reach it
                r = np.flatnonzero(wk >= 0)
                sums[r] += ck[r, None] * gb[at[wk[r]]]
            del gb
            ga, at = self.a.read(fa, word_a)
            ga, partial = pair_operands(ga, sums, n_cap)
            del sums  # each array is freed once read, before the next is built
            for p, i, part in zip(poly.tolist(), at[word_a].tolist(), partial):
                out[p] += np.dot(ga[i], part)
            del ga, partial
        return out


def product_expectations(fa: np.ndarray, fb: np.ndarray, n_cap: int, polys) -> list[complex]:
    """<P> for each polynomial P on the product fa (x) fb kept on n1 + n2 <= n_cap.

    Each photon-number conserving monomial wa wb contributes the truncated
    two-mode sum of its word terms; monomials sharing a mode-a word are
    summed on the mode-b side first.
    """
    return _ProductPlan(polys)(fa, fb, n_cap)


# A = <a+ b>, B = <(a+ b)^2>, C = <a+a b b+ + b+b a a+>, <n2>, <n2^2>
EXCHANGE_SUMS: tuple[Poly, ...] = (
    {((1,), (-1,)): 1.0},
    {((1, 1), (-1, -1)): 1.0},
    {((1, -1), (-1, 1)): 1.0, ((-1, 1), (1, -1)): 1.0},
    {((), (1, -1)): 1.0},
    {((), (1, -1, 1, -1)): 1.0},
)
EXCHANGE_SUMS_BS1 = tuple(pull_back(p, BS1_SYMMETRIC.matrix) for p in EXCHANGE_SUMS)
_EXCHANGE_PLANS = {False: _ProductPlan(EXCHANGE_SUMS), True: _ProductPlan(EXCHANGE_SUMS_BS1)}


def product_exchange_sums(fa: np.ndarray, fb: np.ndarray, n_cap: int, bs1: bool) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Exchange harmonics (as :func:`exchange_harmonics`) and <n2>, <n2^2> of a product probe.

    The probe is fa (x) fb on n1 + n2 <= n_cap, sent through ``BS1_SYMMETRIC``
    first when ``bs1`` is set.
    """
    a, b, c, n2, n2_sq = _EXCHANGE_PLANS[bs1](fa, fb, n_cap)
    mean_c, second_c = _exchange_coeffs(a, b, c.real)
    return mean_c, second_c, n2.real, n2_sq.real
