"""Input-state preparation: coherent, squeezed vacuum, Fock, NOON, twin-Fock.

Every preparation reports its truncation deficit and fails loudly when the
deficit exceeds the allowed epsilon; nothing here returns a silently
truncated state.  The published cutoff heuristics are treated as floors:
``auto_coherent``/``auto_squeezed`` extend the cutoff until the measured
tail actually meets the target, because e.g. a squeezed vacuum with r = 1
still holds ~2e-6 of its mass above photon number 40.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .fock import AMP_FLUSH, TwoModeState, basis_dim, index_pairs, pair_index
from .numerics import log_factorials, pair_operands

EPS_TRUNC_DEFAULT = 1e-10


@dataclass(frozen=True)
class SingleModeAmplitudes:
    """Number-basis amplitudes of one mode up to ``cutoff``, plus tail mass."""

    cutoff: int
    amps: np.ndarray
    deficit: float

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128, copy=True)
        if amps.shape != (self.cutoff + 1,):
            raise ValueError("amplitude length must be cutoff + 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True)
class SqueezeParams:
    """Polar squeeze parameter zeta = r * exp(i theta)."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("squeezing magnitude r must be >= 0")


def _checked(cutoff: int, amps: np.ndarray, eps_trunc: float, what: str) -> SingleModeAmplitudes:
    deficit = 1.0 - math.fsum(np.abs(amps) ** 2)
    if deficit > eps_trunc:
        raise TruncationError(f"{what}: cutoff {cutoff} leaves deficit {deficit:.3e} > {eps_trunc:.1e}")
    return SingleModeAmplitudes(cutoff=cutoff, amps=amps, deficit=deficit)


def coherent_amplitudes(alpha: complex, cutoff: int, eps_trunc: float = EPS_TRUNC_DEFAULT) -> SingleModeAmplitudes:
    """amps[n] = exp(-|alpha|^2/2) alpha^n / sqrt(n!), Poisson photon statistics.

    The ratio amps[n+1] / amps[n] = alpha / sqrt(n+1) fills the array from one
    anchor.  The anchor is the vacuum term exp(-|alpha|^2/2) while that is
    at least ``AMP_FLUSH`` (|alpha| <= 37.1).  Beyond, it underflows, so the
    anchor moves to the peak n0 = floor(|alpha|^2), whose logarithm is taken
    in log space with Stirling's series, the large terms cancelled in closed
    form, and the ratio runs both ways from there.
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
    for n in range(n0, cutoff):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    return _checked(cutoff, amps[: cutoff + 1], eps_trunc, f"coherent |alpha|={abs(alpha):.3g}")


def squeezed_vacuum_amplitudes(p: SqueezeParams, cutoff: int, eps_trunc: float = EPS_TRUNC_DEFAULT) -> SingleModeAmplitudes:
    """Number expansion of the squeezed vacuum: even photon numbers only.

    amps[2k] = cosh(r)^(-1/2) (-e^{i theta} tanh r)^k sqrt((2k)!) / (2^k k!).
    The closed form is validated against a generator-exponentiation oracle in
    the test suite rather than trusted.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    if p.r == 0.0:
        amps[0] = 1.0
        return _checked(cutoff, amps, eps_trunc, "squeezed r=0")
    lf = log_factorials(cutoff)
    log_tanh = math.log(math.tanh(p.r))
    base = -0.5 * math.log(math.cosh(p.r))
    for k in range(0, cutoff // 2 + 1):
        mag = math.exp(base + k * log_tanh + 0.5 * lf[2 * k] - k * math.log(2.0) - lf[k])
        amps[2 * k] = ((-1.0) ** k) * np.exp(1j * p.theta * k) * mag
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
    """Coherent amplitudes with the cutoff grown until the tail is verified small."""
    return _auto(lambda cut: coherent_amplitudes(alpha, cut, eps_trunc=1.0), policy_coherent_cutoff(abs(alpha)), eps_trunc)


def auto_squeezed(p: SqueezeParams, eps_trunc: float = EPS_TRUNC_DEFAULT) -> SingleModeAmplitudes:
    """Squeezed-vacuum amplitudes with the cutoff grown until the tail is verified small."""
    return _auto(lambda cut: squeezed_vacuum_amplitudes(p, cut, eps_trunc=1.0), policy_squeezed_cutoff(p.r), eps_trunc)


def _auto(make, floor: int, eps_trunc: float) -> SingleModeAmplitudes:
    target = eps_trunc / 4
    cutoff = floor
    for _ in range(12):
        sm = make(cutoff)
        if sm.deficit <= target:
            return sm
        cutoff = math.ceil(cutoff * 1.3) + 8
    raise TruncationError(f"no cutoff up to {cutoff} reached tail target {target:.1e}")


def product_state(a: SingleModeAmplitudes, b: SingleModeAmplitudes, n_cap: int, eps_trunc: float = EPS_TRUNC_DEFAULT) -> TwoModeState:
    """Tensor product a (x) b restricted to n1 + n2 <= n_cap."""
    if n_cap < 0:
        raise ValueError("n_cap must be >= 0")
    n1s, n2s = index_pairs(n_cap)
    amps = np.zeros(basis_dim(n_cap), dtype=np.complex128)
    keep1 = n1s <= a.cutoff
    keep2 = n2s <= b.cutoff
    sel = keep1 & keep2
    amps[sel] = a.amps[n1s[sel]] * b.amps[n2s[sel]]
    deficit = 1.0 - math.fsum(np.abs(amps) ** 2)
    if deficit > eps_trunc:
        raise TruncationError(f"product state at n_cap={n_cap} leaves deficit {deficit:.3e} > {eps_trunc:.1e}")
    return TwoModeState(n_cap, amps, deficit=deficit)


@dataclass(frozen=True)
class ProductProbe:
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
    a: SingleModeAmplitudes, b: SingleModeAmplitudes, n_cap: int, eps_trunc: float = EPS_TRUNC_DEFAULT, bs1: bool = False
) -> ProductProbe:
    """a (x) b restricted to n1 + n2 <= n_cap, checked as :func:`product_state` checks it;
    the kept mass is the truncated pair sum of |a|^2 and |b|^2, linear in the two cutoffs."""
    if n_cap < 0:
        raise ValueError("n_cap must be >= 0")
    deficit = 1.0 - math.fsum(np.multiply(*pair_operands(np.abs(a.amps) ** 2, np.abs(b.amps) ** 2, n_cap)))
    if deficit > eps_trunc:
        raise TruncationError(f"product state at n_cap={n_cap} leaves deficit {deficit:.3e} > {eps_trunc:.1e}")
    return ProductProbe(a, b, n_cap, bs1, deficit)


def fock_after_symmetric_bs(n_photons: int) -> TwoModeState:
    """State of |N> mixed with vacuum on a symmetric 50:50 splitter.

    Amplitude over |k, N-k> is sqrt(C(N,k) / 2^N): an exactly normalized
    binomial profile, with no truncation (n_cap = N).
    """
    if n_photons < 0:
        raise ValueError("photon number must be >= 0")
    amps = np.zeros(basis_dim(n_photons), dtype=np.complex128)
    c = 1  # C(N, k), by the exact integer recurrence
    for k in range(n_photons + 1):
        # C(N,k)/2^N is rounded once by the int / int division, then once by sqrt.
        amps[pair_index(n_photons - k, k)] = math.sqrt(c / 2**n_photons)
        c = c * (n_photons - k) // (k + 1)
    return TwoModeState(n_photons, amps, deficit=0.0)


def noon_state(n_photons: int) -> TwoModeState:
    """(|N,0> + |0,N>)/sqrt(2); N = 0 is rejected as degenerate."""
    if n_photons < 1:
        raise ValueError("NOON state needs N >= 1 (both branches coincide at N = 0)")
    amps = np.zeros(basis_dim(n_photons), dtype=np.complex128)
    amps[pair_index(n_photons, 0)] = 1 / math.sqrt(2)
    amps[pair_index(0, n_photons)] = 1 / math.sqrt(2)
    return TwoModeState(n_photons, amps, deficit=0.0)


def twin_fock(n_photons: int) -> TwoModeState:
    """|N, N> on a basis with n_cap = 2N."""
    if n_photons < 1:
        raise ValueError("twin-Fock state needs N >= 1")
    return TwoModeState.basis_state(2 * n_photons, n_photons, n_photons)
