"""Phase-uncertainty pipelines: error propagation and the quantum bound.

Error propagation turns a measured observable curve <O>(phi), <O^2>(phi)
into delta_phi = Delta O / |d<O>/dphi| with a central-difference derivative.
Stationary points and the grid endpoints get the first-class ``SINGULAR``
marker (serialized as inf) instead of raising: sweeps legitimately cross
them and the output must record the divergence.  ``error_propagation`` is
the one entry point and the one owner of the variance: on plain arrays it
returns var, d<O>/dphi and delta_phi = sqrt(var) / |d| for the whole curve at
once.  A variance that rounds below zero is clamped to zero.

The quantum side evaluates the pure-state Fisher information F, and the
quantum Cramer-Rao bound delta_phi >= 1/sqrt(F) is ``cramer_rao(F)``
(Braunstein and Caves, Phys. Rev. Lett. 72, 3439 (1994)).  A sweep's F is
4 (<G^2> - <G>^2) on the probe as prepared (``qfi_analytic``,
``fisher_from_moments``), so a truncated probe keeps its deficit in it.
Every row of ``qfi-table`` and ``metric-check`` is taken on the normalised
probe by ``phase_family``: for an arm phase diagonal in the generator basis,
F, the F of the central difference and the rate of the Fubini-Study
distance sqrt(1 - |<psi|psi(h)>|^2) (Wootters, Phys. Rev. D 23, 357
(1981)), which tends to F/4, depend only on the probe's weights over the
generator values.  Each is a ``math.fsum`` with no cancellation, the same at
every phi, and within 1.7 float epsilons of 200-bit references; the state
oracles ``qfi_numeric`` and ``metric_distance`` evolve the family instead.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BasisMismatchError, ConfigError, NoInformationError
from .fock import TwoModeState, inner
from .optics import PhaseConvention, phase_generator

SINGULAR = math.inf

DERIVATIVE_STEP_DEFAULT = 1e-4


def is_singular(x: float) -> bool:
    return math.isinf(x)


def check_phi_grid(phi: np.ndarray) -> None:
    """ValueError unless ``phi`` ascends strictly in steps that agree to 1e-9 max(1, step)."""
    steps = np.diff(phi)
    if steps.min() <= 0:
        raise ValueError("phi grid must be strictly ascending")
    if (steps.max() - steps.min()) > 1e-9 * max(steps.max(), 1.0):
        raise ValueError("phi grid must be uniform")


def error_propagation(phi: np.ndarray, mean: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, ...]:
    """(var, d, delta_phi) of a curve on a uniform grid; d covers the interior points 1 .. n-2 only.

    var = max(0, s - m * m) and delta_phi = sqrt(var) / |d| at every point, with step = phi[1] - phi[0]
    and d = (mean[i+1] - mean[i-1]) / (2 step).  delta_phi is SINGULAR at both endpoints and where the
    derivative counts as vanishing: d = 0 or |d| < 1e-9 max(min(1, rms), |m|)/step, i.e. a two-point
    difference at the level of rounding noise.  rms = sqrt(max(second)) scales the floor to a weak
    curve (a coherent probe of beta = 3e-3 has a fringe slope of 9e-6); an all-zero curve keeps 1.
    """
    step = float(phi[1] - phi[0])
    var = np.fmax(0.0, second - mean * mean)
    d = (mean[2:] - mean[:-2]) / (2 * step)
    floor = min(1.0, math.sqrt(max(0.0, float(second.max())))) or 1.0
    # a subnormal step puts the threshold past the float range (inf, all singular); a tiny floor over
    # a huge step rounds it to 0, where only d = 0 is singular
    with np.errstate(over="ignore"):
        singular = (d == 0) | (np.abs(d) < 1e-9 * np.fmax(floor, np.abs(mean[1:-1])) / step)
    delta = np.full(mean.shape, SINGULAR)
    np.divide(np.sqrt(var[1:-1]), np.abs(d), out=delta[1:-1], where=~singular)
    return var, d, delta


def generator_weights(s: TwoModeState, conv: PhaseConvention) -> tuple[np.ndarray, np.ndarray]:
    """(p, v): the weights |amp|^2 of the state's nonzero entries and the value |c| K of the ``conv`` generator on
    each.  An ``fsum`` over them is correctly rounded, so the dropped zeros cannot move it."""
    c, k = phase_generator(s.n_cap, conv)
    p = np.abs(s.amps) ** 2
    kept = p != 0
    return p[kept], abs(c) * k[kept]


def qfi_analytic(s_tilde: TwoModeState, conv: PhaseConvention) -> float:
    """F = 4 Var(G) on the probe state as prepared, G the generator of the ``conv`` arm phase."""
    p, v = generator_weights(s_tilde, conv)
    return fisher_from_moments(float(math.fsum(p * v)), float(math.fsum(p * v * v)))


def fisher_from_moments(mean: float, second: float) -> float:
    """F = 4 (<G^2> - <G>^2) from the first two moments of the generator on the probe."""
    return 4.0 * (second - mean * mean)


def _centred_fisher(q: list[float], v: list[float]) -> float:
    """4 Var_q(v) as 4 sum q (v - m)^2 with m = sum q v (q sums to 1), free of the cancellation of <v^2> - <v>^2."""
    m = math.fsum(w * x for w, x in zip(q, v))
    return 4.0 * math.fsum(w * (x - m) * (x - m) for w, x in zip(q, v))


def phase_family(p: np.ndarray, v: np.ndarray, h: float) -> tuple[float, float, float]:
    """F, the F of the central difference of step h, and the metric rate at step h of the normalised family
    sum_j sqrt(q_j) e^{i phi v_j} |j>, q = p / sum p, of a probe's weights p over its generator values v.

    The difference's derivative is e^{i phi v} i sin(h v) / h, so its F is 4 Var_q(sin(h v) / h).  With
    u = sum q e^{i h v}, 1 - |u|^2 = x (1 - x/4) for x = sum q 4 sin^2((arg u - h v)/2), which sums no negative
    term.  ConfigError if h max|v| overflows."""
    top = float(np.abs(v).max())
    if not math.isfinite(h * top):
        raise ConfigError(f"step {h:g} times the largest generator value {top:g} overflows")
    q, hv = (p / math.fsum(p)).tolist(), [h * x for x in v.tolist()]
    arg = math.atan2(math.fsum(w * math.sin(t) for w, t in zip(q, hv)), math.fsum(w * math.cos(t) for w, t in zip(q, hv)))
    x = math.fsum(4.0 * w * math.sin((arg - t) / 2) ** 2 for w, t in zip(q, hv))
    return _centred_fisher(q, v.tolist()), _centred_fisher(q, [math.sin(t) / h for t in hv]), x * (1.0 - x / 4.0) / h / h


def qfi_numeric(
    family: Callable[[float], TwoModeState],
    phi: float,
    h: float = DERIVATIVE_STEP_DEFAULT,
) -> float:
    """F = 4 [<dpsi|dpsi> - |<dpsi|psi>|^2] of a state family, dpsi its central difference; O(h^2) from ``qfi_analytic``."""
    if h <= 0:
        raise ValueError("step h must be positive")
    plus, minus, center = family(phi + h), family(phi - h), family(phi)
    if plus.n_cap != minus.n_cap or plus.n_cap != center.n_cap:
        raise BasisMismatchError("family changed its basis across the derivative stencil")
    dpsi = (plus.amps - minus.amps) / (2 * h)
    norm2 = float(np.vdot(dpsi, dpsi).real)
    overlap = complex(np.vdot(dpsi, center.amps))
    return 4.0 * (norm2 - abs(overlap) ** 2)


def cramer_rao(f_q: float) -> float:
    if f_q <= 0:
        raise NoInformationError(f"Fisher information must be positive, got {f_q}")
    return 1.0 / math.sqrt(f_q)


def metric_distance(a: TwoModeState, b: TwoModeState) -> float:
    """Projective distance sqrt(1 - |<a|b>|^2) between states of equal norm, free of cancellation.

    With u = <a|b> / |<a|b>| (u = 1 when the overlap is 0), x = ||u a - b||^2 / ||a||^2 equals
    2 - 2|<a|b>| / ||a||^2 but is summed from the small differences, and 1 - |<a|b>|^2 = x (1 - x/4).
    """
    ov = inner(a, b)
    diff = (ov / abs(ov) if ov else 1.0) * a.amps - b.amps
    x = float(np.vdot(diff, diff).real) / float(np.vdot(a.amps, a.amps).real)
    return math.sqrt(max(0.0, x * (1.0 - x / 4.0)))


def uncertainty_product(s_tilde: TwoModeState) -> float:
    """delta_phi_min * 2 Delta m; identically 1 whenever Var(Jz) > 0."""
    f_q = qfi_analytic(s_tilde, "relative")
    if f_q <= 0:
        raise NoInformationError("state carries no half-difference variance, product undefined")
    two_dm = 2.0 * math.sqrt(f_q / 4.0)
    return cramer_rao(f_q) * two_dm
