"""Input-state preparation: coherent, squeezed vacuum, Fock, NOON, twin-Fock, and BS1's closed-form columns.

Every preparation reports its truncation deficit and refuses one above the
allowed epsilon.  ``auto_coherent``/``auto_squeezed`` build each mode once,
at a cutoff a tail bound proves: by Chernoff the Poisson tail above the
coherent policy cutoff is below 2e-22, and squeezed pair masses shrink by
tanh^2 r or more a step, so their tail above 2K is <= cosh r tanh^2K r.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import TruncationError
from .fock import AMP_FLUSH, TwoModeState, basis_dim, block_slice, index_pairs, pair_index
from .numerics import binomial_weights, log_factorials, pair_operands

EPS_TRUNC_DEFAULT = 1e-10


class SingleModeAmplitudes(NamedTuple):
    """Number-basis amplitudes of one mode up to ``cutoff`` (a read-only array of cutoff + 1), plus tail mass."""

    cutoff: int
    amps: np.ndarray
    deficit: float


class SqueezeParams(NamedTuple):
    """Polar squeeze parameter zeta = r * exp(i theta); :func:`squeezed_vacuum_amplitudes` refuses r < 0."""

    r: float
    theta: float = 0.0


def _deficit(p: np.ndarray) -> float:
    """1 - sum(p), correctly rounded by fsum: the zeros cannot move it, and a longer prefix of p never raises it."""
    return 1.0 - math.fsum(p[p != 0])


def _checked(cutoff: int, amps: np.ndarray, eps_trunc: float, what: str) -> SingleModeAmplitudes:
    """The cutoff + 1 amplitudes just built, frozen in place once their deficit passes (a nan one never does)."""
    deficit = _deficit(np.abs(amps) ** 2)
    if not deficit <= eps_trunc:
        raise TruncationError(f"{what}: cutoff {cutoff} leaves deficit {deficit:.3e} > {eps_trunc:.1e}")
    amps.flags.writeable = False
    return SingleModeAmplitudes(cutoff, amps, deficit)


def coherent_amplitudes(alpha: complex, cutoff: int, eps_trunc: float = EPS_TRUNC_DEFAULT) -> SingleModeAmplitudes:
    """amps[n] = exp(-|alpha|^2/2) alpha^n / sqrt(n!), Poisson photon statistics.

    The ratio amps[n+1] / amps[n] = alpha / sqrt(n+1) fills the array from one
    anchor.  The anchor is the vacuum term exp(-|alpha|^2/2) while that is
    at least ``AMP_FLUSH`` (|alpha| <= 37.1).  Beyond, it underflows, so the
    anchor moves to the peak n0 = floor(|alpha|^2), whose logarithm is taken
    in log space with Stirling's series, the large terms cancelled in closed
    form, and the ratio runs up from there and down to the first amplitude
    below ``AMP_FLUSH`` (a step down multiplies by sqrt(n)/|alpha| <= 1).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    alpha = complex(alpha)
    x = abs(alpha) ** 2
    vacuum = math.exp(-x / 2)
    n0 = 0 if vacuum >= AMP_FLUSH else math.floor(x)
    amps = np.zeros(max(cutoff, n0) + 1, dtype=np.complex128)
    if n0 == 0:
        amps[0] = vacuum
    else:
        # log|amps[n0]| = -x/2 + (n0/2) log x - lgamma(n0 + 1)/2, to ~1e-16
        log_mag = (n0 - x) / 2 + n0 / 2 * math.log1p((x - n0) / n0) - math.log(2 * math.pi * n0) / 4
        log_mag -= 1 / (24 * n0) - 1 / (720 * n0**3)
        phase = n0 * math.atan2(alpha.imag, alpha.real)
        amps[n0] = math.exp(log_mag) * complex(math.cos(phase), math.sin(phase))
        for n in range(n0, 0, -1):
            amps[n - 1] = amps[n] * math.sqrt(n) / alpha
            if abs(amps[n - 1]) < AMP_FLUSH:
                break
    for n in range(n0, cutoff):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    return _checked(cutoff, amps[: cutoff + 1], eps_trunc, f"coherent |alpha|={abs(alpha):.3g}")


def squeezed_vacuum_amplitudes(p: SqueezeParams, cutoff: int, eps_trunc: float = EPS_TRUNC_DEFAULT) -> SingleModeAmplitudes:
    """Number expansion of the squeezed vacuum: even photon numbers only.

    amps[2k] = cosh(r)^(-1/2) (-e^{i theta} tanh r)^k sqrt((2k)!) / (2^k k!).
    The closed form is validated against a generator-exponentiation oracle in
    the test suite rather than trusted.
    """
    if p.r < 0:
        raise ValueError(f"squeezing magnitude r must be >= 0, got {p.r}")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    if p.r == 0.0:
        amps[0] = 1.0
        return _checked(cutoff, amps, eps_trunc, "squeezed r=0")
    lf = log_factorials(cutoff)
    log_tanh = math.log(math.tanh(p.r))
    base = -0.5 * math.log(math.cosh(p.r))
    k = np.arange(cutoff // 2 + 1)
    # math.exp, not np.exp: the two differ in the last bit for a few inputs in a hundred
    mag = np.array(list(map(math.exp, (base + k * log_tanh + 0.5 * lf[2 * k] - k * math.log(2.0) - lf[k]).tolist())))
    amps[::2] = np.where(k % 2 == 0, 1.0, -1.0) * np.exp(1j * p.theta * k) * mag
    return _checked(cutoff, amps, eps_trunc, f"squeezed r={p.r:.3g}")


def policy_coherent_cutoff(alpha_mag: float) -> int:
    """Cheap conservative floor: mean + 10 sigma + slack."""
    # |alpha|^2 amplitudes of 16 bytes would fill a quarter of the address space: refuse before squaring
    if not alpha_mag <= math.sqrt(sys.maxsize) / 8:
        raise MemoryError(f"coherent |alpha|={alpha_mag:.3g} needs about |alpha|^2 amplitudes, more than an address space holds")
    n = alpha_mag**2
    return math.ceil(n + 10 * math.sqrt(n) + 20)


def policy_squeezed_cutoff(r: float) -> int:
    c = math.ceil(40 * max(1.0, r))
    return c + (c % 2)


def auto_coherent(alpha: complex, eps_trunc: float = EPS_TRUNC_DEFAULT) -> SingleModeAmplitudes:
    """Coherent amplitudes at the policy cutoff, refused unless their deficit is at most eps_trunc / 4."""
    return coherent_amplitudes(alpha, policy_coherent_cutoff(abs(alpha)), eps_trunc / 4)


def auto_squeezed(p: SqueezeParams, eps_trunc: float = EPS_TRUNC_DEFAULT) -> SingleModeAmplitudes:
    """Squeezed-vacuum amplitudes at the first cutoff of floor, x1.3 + 8, ... whose deficit is at most eps_trunc / 4, each
    a byte-identical prefix of one build past the tail bound (which bounds a target below the least subnormal as it)."""
    target, t = eps_trunc / 4, math.tanh(p.r)
    bound = (math.log(max(target, math.ulp(0.0))) - math.log(math.cosh(p.r))) / math.log(t) if 0 < t < 1 else 0.0
    if t == 1.0 or bound > sys.maxsize / 64:  # refused before policy_squeezed_cutoff, which cannot take r = inf
        raise MemoryError(f"squeezed r={p.r:.3g} needs a cutoff past what an address space holds")
    cutoffs = [policy_squeezed_cutoff(p.r)]
    while cutoffs[-1] < bound:
        cutoffs.append(math.ceil(cutoffs[-1] * 1.3) + 8)
    sm = squeezed_vacuum_amplitudes(p, cutoffs[-1], target)  # a refusal is final: no prefix has a smaller deficit
    for c in cutoffs[:-1]:
        if (deficit := _deficit(np.abs(sm.amps[: c + 1]) ** 2)) <= target:
            return SingleModeAmplitudes(c, sm.amps[: c + 1], deficit)
    return sm


def product_state(a: SingleModeAmplitudes, b: SingleModeAmplitudes, n_cap: int, eps_trunc: float = EPS_TRUNC_DEFAULT) -> TwoModeState:
    """Tensor product a (x) b restricted to n1 + n2 <= n_cap, refused as :func:`product_probe` refuses it;
    the state records no deficit: ``product_probe(a, b, n_cap).deficit`` is the mass it leaves out."""
    product_probe(a, b, n_cap, eps_trunc)
    n1s, n2s = index_pairs(n_cap)
    amps = np.zeros(basis_dim(n_cap), dtype=np.complex128)
    sel = (n1s <= a.cutoff) & (n2s <= b.cutoff)
    amps[sel] = a.amps[n1s[sel]] * b.amps[n2s[sel]]
    return TwoModeState(n_cap, amps)


class ProductProbe(NamedTuple):
    """Single-mode inputs a (x) b on the basis n1 + n2 <= n_cap, then BS1 if ``bs1``.

    The coherent and squeezed sweeps read this out on the two amplitude
    arrays (``optics.product_exchange_sums``) and never build the two-mode
    state; ``deficit`` is the truncated mass of a (x) b on that basis.
    """

    a: SingleModeAmplitudes
    b: SingleModeAmplitudes
    n_cap: int
    bs1: bool
    deficit: float


def product_probe(
    a: SingleModeAmplitudes, b: SingleModeAmplitudes, n_cap: int | None = None, eps_trunc: float = EPS_TRUNC_DEFAULT, bs1: bool = False
) -> ProductProbe:
    """a (x) b restricted to n1 + n2 <= n_cap, refused when its deficit is above ``eps_trunc`` (a nan one always is);
    the kept mass is the truncated pair sum of |a|^2 and |b|^2, linear in the two cutoffs.  The default cap,
    ``a.cutoff + b.cutoff``, keeps every pair of the two cutoffs."""
    n_cap = a.cutoff + b.cutoff if n_cap is None else n_cap
    if n_cap < 0:
        raise ValueError("n_cap must be >= 0")
    deficit = _deficit(np.multiply(*pair_operands(np.abs(a.amps) ** 2, np.abs(b.amps) ** 2, n_cap)))
    if not deficit <= eps_trunc:
        raise TruncationError(f"product state at n_cap={n_cap} leaves deficit {deficit:.3e} > {eps_trunc:.1e}")
    return ProductProbe(a, b, n_cap, bs1, deficit)


def fock_after_symmetric_bs(n_photons: int) -> TwoModeState:
    """|N> mixed with vacuum on a symmetric 50:50 splitter: sqrt(C(N, k) / 2^N) on |N-k, k>, the square roots of
    ``binomial_weights``, an exactly normalized binomial profile with no truncation (n_cap = N)."""
    if n_photons < 0:
        raise ValueError("photon number must be >= 0")
    amps = np.zeros(basis_dim(n_photons), dtype=np.complex128)
    amps[block_slice(n_photons)] = np.sqrt(binomial_weights(n_photons))  # k = n2 runs down the block
    return TwoModeState(n_photons, amps)


def noon_state(n_photons: int) -> TwoModeState:
    """(|N,0> + |0,N>)/sqrt(2); N = 0 is rejected as degenerate."""
    if n_photons < 1:
        raise ValueError("NOON state needs N >= 1 (both branches coincide at N = 0)")
    amps = np.zeros(basis_dim(n_photons), dtype=np.complex128)
    amps[pair_index(n_photons, 0)] = 1 / math.sqrt(2)
    amps[pair_index(0, n_photons)] = 1 / math.sqrt(2)
    return TwoModeState(n_photons, amps)


def twin_fock(n_photons: int) -> TwoModeState:
    """|N, N> on a basis with n_cap = 2N."""
    if n_photons < 1:
        raise ValueError("twin-Fock state needs N >= 1")
    return TwoModeState.basis_state(2 * n_photons, n_photons, n_photons)


def twin_fock_after_symmetric_bs(n_photons: int) -> TwoModeState:
    """|N, N> through a symmetric 50:50 splitter (Holland and Burnett, PRL 71, 1355 (1993)), n_cap = 2N: on |2N-2l, 2l>,
    (-1)^l sqrt(C(2l, l) C(2N-2l, N-l) / 4^N), each weight an exact integer rounded once, and exactly 0 at odd n2."""
    if n_photons < 1:
        raise ValueError("twin-Fock state needs N >= 1")
    amps, n = np.zeros(basis_dim(2 * n_photons), dtype=np.complex128), n_photons  # first: too large a basis fails here
    c, d = [1], 4**n  # C(2l, l) by the exact integer recurrence, and 4^N
    for l in range(n):
        c.append(c[-1] * (4 * l + 2) // (l + 1))
    amps[block_slice(2 * n)][::2] = [(-1) ** l * math.sqrt(c[l] * c[n - l] / d) for l in range(n + 1)]  # n2 = 2l
    return TwoModeState(2 * n, amps)
