"""The interferometer case studies wired end to end, with CSV emission.

Each scenario builds its probe state just after the first splitter, applies
the arm phase phi over a uniform grid, reads out one observable, and
reports side by side: the error-propagation uncertainty (central
difference on the grid), the Fisher information of the probe family and
its Cramer-Rao bound, and an independently evaluated closed-form
delta-phi column where a textbook expression exists.  The engine never
consumes the closed forms; they are emitted purely so tests and users can
check one column against the other.

Observable conventions (recorded per row in the ``convention`` column):

* ``jz_half``   - half photon-number difference (l1 - l2)/2 of the output
                  counts; used by the coherent and Fock scenarios.
* ``jx_half``   - the exchange observable (a+ b + b+ a)/2 evaluated before
                  the second splitter; equal to jz_half at the output by
                  the pullback identity.  Used by the twin-Fock scenario.
* ``jx_pair``   - the unhalved exchange observable a+ b + b+ a.  The
                  squeezed scenario reports this one because the standard
                  results for the coherent (x) squeezed-vacuum input (mean
                  signal cos(phi) [|alpha|^2 - sinh^2 r]) are written for
                  the pair form; delta-phi is scale invariant either way.
* ``parity_a``  - photon-number parity (-1)^l1 of output port a.

The ``convention`` text names the arm phase before its slash: ``mode_b``
(all phase on arm b, generator n2) for the coherent, Fock, twin-Fock and
squeezed scenarios, ``relative`` (generator Jz) for the NOON scenario.

Sweeps are evaluated harmonically, not by evolving the probe at every grid
point.  The arm phase is generated by n2 or Jz, and every readout conserves
the total photon number, so each swept moment is an exact trigonometric
polynomial in phi: degree 1 (mean) and 2 (second moment) for the exchange
readout, degree N for the NOON parity.  Its Fourier coefficients come from
one pass over the probe (``optics.exchange_harmonics``,
``optics.parity_harmonics``), and the whole grid is then evaluated at once
(Pezze et al., Rev. Mod. Phys. 90, 035005 (2018), Sec. II).  The counting
readout of the coherent and Fock scenarios rests on the pullback identity:
through ``BS2_JY`` the output half difference (l1 - l2)/2 equals Jx inside
the interferometer, moment by moment, so ``jz_half`` and ``jx_half`` share
one kernel and no ``BS2_JY`` block is built.  The NOON parity and the
count distribution ``sample`` draws from read ``BS2_JX``'s two edge columns
(``optics.bs2_jx_edges``), and the fock and twin-Fock probes are columns of
``BS1``'s block in closed form (``states``), so no subcommand climbs a
splitter ladder.  Direct evolution (phase, splitter and count distribution
at each phi) is the reference the tests compare against.  Each scenario is one
``Scenario`` entry of ``SCENARIOS``, run by :func:`run_sweep`; the
Fisher-information table and the metric cross-check take their probes,
readouts and arm phases from the same entries.

The coherent and squeezed probes are products of two single-mode inputs
(the squeezed one followed by BS1), so their probe is a
``states.ProductProbe`` and the sweep reads its mean, second moment and
Fisher information straight off the two amplitude arrays
(``optics.product_exchange_sums``), with no two-mode state and no BS1
block (Pezze and Smerzi, Phys. Rev. Lett. 100, 073601 (2008)).  Fock,
twin-Fock and NOON keep the two-mode path.  The tables read every row's F,
numeric F and metric rate on the normalised probe's weights over its
generator values (``estimation.phase_family``): |amp|^2 over |c| K for fock
and NOON, and mode b's |b_n|^2 over n for the coherent row, which keeps
every pair and puts its phase on mode b alone.

A sweep's table, ``SweepTable``, is its numpy columns over the grid.  Its
three uncertainty columns, ``var_o``, ``d_mean_dphi`` and ``delta_phi``, are
the arrays ``estimation.error_propagation`` returns for the whole curve, so
the table computes no variance of its own.  Its CSV is formatted with one
template per row and written in place in one piece (``measurement.write_text``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .estimation import (
    DERIVATIVE_STEP_DEFAULT,
    check_phi_grid,
    cramer_rao,
    error_propagation,
    fisher_from_moments,
    generator_weights,
    phase_family,
    qfi_analytic,
)
from .fock import TwoModeState, basis_dim, block_slice
from .measurement import (
    CountDistribution,
    CountHistogram,
    ParityEstimate,
    lossy_distribution,
    parity_expectation,
    parity_from_histogram,
    sample_counts,
    write_text,
)
from .optics import (
    PhaseConvention,
    bs2_jx_edges,
    eval_harmonics,
    exchange_harmonics,
    parity_harmonics,
    phase_generator,
    phase_shift,
    product_exchange_sums,
)
from .states import (
    EPS_TRUNC_DEFAULT,
    ProductProbe,
    SqueezeParams,
    auto_coherent,
    auto_squeezed,
    fock_after_symmetric_bs,
    noon_state,
    product_probe,
    twin_fock_after_symmetric_bs,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """One run's settings, checked when built; ``dataclasses.replace`` checks the copy it makes."""

    scenario: str = "fock"
    # coherent inputs |alpha| e^{i theta1}, |beta| e^{i theta2}
    alpha_mag: float = 2.0
    beta_mag: float = 2.0
    theta1: float = 0.0
    theta2: float = 0.0
    # photon number for fock / twin_fock / noon
    n: int = 4
    # squeezed scenario: alpha = |alpha| e^{i f}, zeta = r e^{i theta}
    r: float = 1.0
    theta: float = 0.0
    f: float | None = None  # None -> (pi - theta)/2, the optimal-phase choice
    # NOON sampling
    eta_a: float = 1.0
    eta_b: float = 1.0
    trials: int = 100_000
    seed: int = 0
    post_select: bool = False
    sample_phi: float | None = None  # None -> pi/(3 n)
    # grid and numerics
    phi_start: float = 0.0
    phi_stop: float = math.pi
    phi_steps: int = 181
    epsilon_trunc: float = EPS_TRUNC_DEFAULT
    n_cap: int | None = None  # coherent and squeezed only; the other bases are fixed by n

    def __post_init__(self) -> None:
        for fld in fields(self):
            val = getattr(self, fld.name)
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"{fld.name} must be finite, got {val}")
        if self.scenario not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario {self.scenario!r}; pick one of {SCENARIO_NAMES}")
        if self.phi_steps < 3:
            raise ConfigError("phi grid needs at least 3 steps")
        if not self.phi_stop > self.phi_start:
            raise ConfigError("phi_stop must exceed phi_start")
        if not 0.0 < self.epsilon_trunc <= 1e-6:
            raise ConfigError("epsilon_trunc must lie in (0, 1e-6]")
        for tag, eta in (("eta_a", self.eta_a), ("eta_b", self.eta_b)):
            if not 0.0 <= eta <= 1.0:
                raise ConfigError(f"{tag} must lie in [0, 1]")
        if "n" in SCENARIOS[self.scenario].reads:
            if self.n < 1:
                raise ConfigError(f"scenario {self.scenario} needs n >= 1")
            dim = basis_dim(2 * self.n if self.scenario == "twin_fock" else self.n)  # twin_fock holds 2n photons
            if 16 * dim > sys.maxsize:  # numpy refuses such an array with a ValueError: refuse before building any
                raise MemoryError(f"{self.scenario} n={self.n} needs {dim} amplitudes, "
                                  "more than an address space holds")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.r < 0:
            raise ConfigError("squeezing magnitude r must be >= 0")
        if self.n_cap is not None and self.n_cap < 0:
            raise ConfigError("n_cap must be >= 0")
        if self.alpha_mag < 0 or self.beta_mag < 0:
            raise ConfigError("magnitudes must be >= 0")

    def phi_grid(self) -> np.ndarray:
        """The sweep's grid, built and checked once per sweep; only a sweep reads it."""
        try:  # numpy refuses a grid too long to address; check_phi_grid one whose float64 steps differ
            if not math.isfinite(self.phi_stop - self.phi_start):
                raise ValueError("its span overflows")
            grid = np.linspace(self.phi_start, self.phi_stop, self.phi_steps)
            check_phi_grid(grid)
        except ValueError as exc:
            raise ConfigError(f"phi grid {self.phi_start!r}:{self.phi_stop!r}:{self.phi_steps} refused: {exc}") from None
        return grid

    def f_effective(self) -> float:
        return (math.pi - self.theta) / 2 if self.f is None else self.f


SWEEP_COLUMNS = ("phi", "mean_o", "second_o", "var_o", "d_mean_dphi", "delta_phi", "qfi", "crb",
                 "closed_form_delta_phi", "convention")


class SweepTable(NamedTuple):
    """One sweep as columns over its phi grid.

    The array columns cover every grid point except ``d_mean_dphi``, which
    holds the interior points 1 .. n-2: the derivative is undefined at the
    grid endpoints.  ``delta_phi`` is SINGULAR (inf) at the endpoints and at
    stationary points.  ``qfi``, ``crb`` and ``convention`` are the same on
    every row.
    """

    scenario: str
    phi: np.ndarray
    mean_o: np.ndarray
    second_o: np.ndarray
    var_o: np.ndarray
    d_mean_dphi: np.ndarray
    delta_phi: np.ndarray
    closed_form_delta_phi: tuple[float | None, ...]  # None where no closed form applies
    qfi: float
    crb: float
    convention: str
    annotation: str = ""

    def write_csv(self, path) -> None:
        """The sweep CSV, one % template per row ('%.17g' % x is f"{x:.17g}" for every double): the qfi,
        crb and phi cells and each distinct closed form are formatted once."""
        closed = self.closed_form_delta_phi
        memo = {v: _fmt(v) for v in set(closed) if v}  # 0.0 and -0.0 share a key, so zeros go to _fmt
        cols = [_phi_text(self.phi.tobytes()), *(c.tolist() for c in (self.mean_o, self.second_o, self.var_o)),
                self.delta_phi.tolist(), [memo[v] if v else _fmt(v) for v in closed]]
        head, tail = "%s,%.17g,%.17g,%.17g,", f",%.17g,{_fmt(self.qfi)},{_fmt(self.crb)},%s,{self.convention}"
        edge, row = head + tail, head + "%.17g" + tail  # d_mean_dphi is empty on the endpoint rows
        inner = zip(*(c[1:-1] for c in cols[:4]), self.d_mean_dphi.tolist(), *(c[1:-1] for c in cols[4:]))
        lines = [edge % tuple(c[0] for c in cols), *map(row.__mod__, inner), edge % tuple(c[-1] for c in cols)]
        write_text(path, ",".join(SWEEP_COLUMNS) + "\n" + "\n".join(lines) + "\n")


def _fmt(x) -> str:
    return "" if x is None else f"{x:.17g}"


@lru_cache(maxsize=8)
def _phi_text(grid: bytes) -> tuple[str, ...]:
    """The phi cells of a grid, keyed by its float64 bytes; a benchmark pass repeats a few grids."""
    return tuple(map(_fmt, np.frombuffer(grid).tolist()))


def _assemble_table(
    scenario: str,
    phis: np.ndarray,
    mean: np.ndarray,
    second: np.ndarray,
    fisher: float,
    closed: list[float | None],
    convention: str,
    annotation: str = "",
) -> SweepTable:
    var, d, delta = error_propagation(phis, mean, second)
    for arr in (phis, mean, second, var, d, delta):
        arr.flags.writeable = False
    crb = 1.0 / math.sqrt(fisher) if fisher > 0 else math.inf
    return SweepTable(scenario, phis, mean, second, var, d, delta, tuple(closed), fisher, crb, convention, annotation)


# --------------------------------------------------------------------------
# probe construction
# --------------------------------------------------------------------------

Probe = TwoModeState | ProductProbe


def coherent_probe(cfg: ScenarioConfig) -> ProductProbe:
    """Post-splitter coherent pair |alpha>|beta> on a verified basis."""
    a = auto_coherent(cfg.alpha_mag * np.exp(1j * cfg.theta1), cfg.epsilon_trunc)
    b = auto_coherent(cfg.beta_mag * np.exp(1j * cfg.theta2), cfg.epsilon_trunc)
    return product_probe(a, b, cfg.n_cap, cfg.epsilon_trunc)


def squeezed_probe(cfg: ScenarioConfig) -> ProductProbe:
    """Coherent (x) squeezed-vacuum input, to be pushed through the 50:50 splitter."""
    if math.asinh(cfg.alpha_mag / math.sqrt(8)) < cfg.r:  # |alpha|^2 < 8 sinh(r)^2, with no square to overflow
        raise ConfigError(f"squeezed scenario requires |alpha|^2 >= 8 sinh(r)^2; got |alpha| = {cfg.alpha_mag:.3g}, r = {cfg.r:.3g}")
    a = auto_coherent(cfg.alpha_mag * np.exp(1j * cfg.f_effective()), cfg.epsilon_trunc)
    b = auto_squeezed(SqueezeParams(cfg.r, cfg.theta), cfg.epsilon_trunc)
    return product_probe(a, b, cfg.n_cap, cfg.epsilon_trunc, bs1=True)


# --------------------------------------------------------------------------
# scenario runners
# --------------------------------------------------------------------------

Harmonics = tuple[np.ndarray, np.ndarray]  # Fourier coefficients of mean and second moment


class Scenario(NamedTuple):
    """What one sweep measures; :func:`run_sweep` does the rest.

    ``readout`` gives the Fourier coefficients in phi of the observable's
    mean and second moment on a two-mode probe; the reported observable is
    ``scale`` times it.  A product probe is always read out through the
    exchange sums under the ``mode_b`` phase.  ``closed_form`` gives the
    textbook delta-phi column over the grid, None where none applies.
    ``phase``, the arm phase of ``optics.phase_generator``, is the
    ``convention`` text before its slash.
    ``reads`` names the ``ScenarioConfig`` fields that the probe and the
    closed form read, besides the phi grid; a sweep rejects any other
    field that differs from its default.
    """

    probe: Callable[[ScenarioConfig], Probe]
    readout: Callable[[TwoModeState], Harmonics]
    scale: float
    closed_form: Callable[[ScenarioConfig, np.ndarray], list[float | None]]
    convention: str
    reads: tuple[str, ...]
    annotation: str = ""

    @property
    def phase(self) -> PhaseConvention:
        return self.convention.partition("/")[0]


def _coherent_closed(cfg: ScenarioConfig, phis: np.ndarray) -> list[float]:
    amp = cfg.alpha_mag * cfg.beta_mag
    if amp == 0.0:
        return [math.inf] * len(phis)
    scale, shift = math.sqrt(cfg.alpha_mag**2 + cfg.beta_mag**2) / (2 * amp), cfg.theta2 - cfg.theta1
    return [scale / s if (s := abs(math.sin(phi + shift))) else math.inf for phi in phis.tolist()]


def _fock_closed(cfg: ScenarioConfig, phis: np.ndarray) -> list[float | None]:
    value = 1.0 / math.sqrt(cfg.n)
    return [value if abs(math.sin(phi)) > 1e-12 else None for phi in phis.tolist()]


def _squeezed_closed(cfg: ScenarioConfig, phis: np.ndarray) -> list[float | None]:
    if not cfg.alpha_mag > 0:
        return [None] * len(phis)
    value = math.exp(-cfg.r) / cfg.alpha_mag
    return [value if abs(math.cos(phi)) <= 1e-9 else None for phi in phis.tolist()]


def _noon_closed(cfg: ScenarioConfig, phis: np.ndarray) -> list[float | None]:
    value = 1.0 / cfg.n
    return [value if abs(math.sin(cfg.n * phi)) > 1e-12 else None for phi in phis.tolist()]


# truncated probes read the cutoff settings; the fock, twin_fock and noon bases are fixed by n and exact
_TRUNCATION = ("epsilon_trunc", "n_cap")

SCENARIOS: dict[str, Scenario] = {
    "coherent": Scenario(
        coherent_probe, exchange_harmonics, 1.0, _coherent_closed, "mode_b/jz_half",
        ("alpha_mag", "beta_mag", "theta1", "theta2", *_TRUNCATION),
    ),
    "fock": Scenario(
        lambda cfg: fock_after_symmetric_bs(cfg.n), exchange_harmonics, 1.0, _fock_closed, "mode_b/jz_half", ("n",)
    ),
    "twin_fock": Scenario(
        lambda cfg: twin_fock_after_symmetric_bs(cfg.n), exchange_harmonics, 1.0, lambda cfg, phis: [None] * len(phis),
        "mode_b/jx_half", ("n",), annotation="number-difference readout carries no first-order signal for a twin-Fock input",
    ),
    # reported observable is the unhalved pair exchange a+ b + b+ a
    "squeezed": Scenario(
        squeezed_probe, exchange_harmonics, 2.0, _squeezed_closed, "mode_b/jx_pair",
        ("alpha_mag", "r", "theta", "f", *_TRUNCATION),
    ),
    "noon": Scenario(
        lambda cfg: noon_state(cfg.n), parity_harmonics, 1.0, _noon_closed, "relative/parity_a", ("n",)
    ),
}

SCENARIO_NAMES = tuple(SCENARIOS)

_PHI_GRID = ("phi_start", "phi_stop", "phi_steps")
# the fields run_noon_sampling reads
_SAMPLING_READS = ("n", "eta_a", "eta_b", "trials", "seed", "post_select", "sample_phi")
_DEFAULTS = ScenarioConfig()


def _reject_unread(cfg: ScenarioConfig, reads: tuple[str, ...], run: str) -> None:
    """ConfigError if a field other than ``scenario`` and ``reads`` differs from its default:
    the run would ignore it and write the output of the run without it."""
    unread = [fld.name for fld in fields(cfg)
              if fld.name != "scenario" and fld.name not in reads and getattr(cfg, fld.name) != getattr(_DEFAULTS, fld.name)]
    if unread:
        raise ConfigError(f"{run} does not read {', '.join(unread)}; it reads {', '.join(reads)}")


def _readout(sc: Scenario, probe: Probe) -> tuple[Harmonics, float]:
    """The probe's readout harmonics (unscaled) and its Fisher information under the scenario's arm phase."""
    if isinstance(probe, ProductProbe):
        mean_c, second_c, n2_mean, n2_second = product_exchange_sums(probe.a.amps, probe.b.amps, probe.n_cap, probe.bs1)
        return (mean_c, second_c), fisher_from_moments(n2_mean, n2_second)
    return sc.readout(probe), qfi_analytic(probe, sc.phase)


def run_sweep(cfg: ScenarioConfig) -> SweepTable:
    """Sweep the scenario named by ``cfg`` over its phi grid."""
    phis = cfg.phi_grid()
    sc = SCENARIOS[cfg.scenario]
    _reject_unread(cfg, sc.reads + _PHI_GRID, f"a {cfg.scenario} sweep")
    probe = sc.probe(cfg)
    top = cfg.n if sc.readout is parity_harmonics else 2  # the readout's highest harmonic e^{i top phi}
    if not math.isfinite(top * max(abs(cfg.phi_start), abs(cfg.phi_stop))):
        raise ConfigError(f"phi grid {cfg.phi_start!r}:{cfg.phi_stop!r}:{cfg.phi_steps} refused: {top} phi, "
                          f"the phase of the {cfg.scenario} readout's top harmonic, overflows")
    (mean_c, second_c), fisher = _readout(sc, probe)
    mean = sc.scale * eval_harmonics(mean_c, phis)
    second = sc.scale**2 * eval_harmonics(second_c, phis)
    return _assemble_table(cfg.scenario, phis, mean, second, fisher, sc.closed_form(cfg, phis), sc.convention, sc.annotation)


def noon_output_distribution(n: int, phi: float) -> CountDistribution:
    """Exact output count distribution of the NOON probe at one phase: the phase leaves a on |N,0> and b on |0,N>,
    and row k of block N is |U_k0 a + U_kN b|^2 = w_k (|a|^2 + |b|^2 + 2 signs_k Re(conj(a) b)) (``bs2_jx_edges``)."""
    st = phase_shift(noon_state(n), phi, SCENARIOS["noon"].phase)
    a, b = st.amplitude(n, 0), st.amplitude(0, n)
    w, signs = bs2_jx_edges(n)
    probs = np.zeros(basis_dim(n))
    probs[block_slice(n)] = w * (abs(a) ** 2 + abs(b) ** 2 + 2 * signs * (a.conjugate() * b).real)
    return CountDistribution(n, probs)


class NoonSamplingReport(NamedTuple):
    """Monte Carlo parity estimation with loss and optional post-selection: the config run and what it measured."""

    config: ScenarioConfig
    phi: float
    exact_parity_lossless: float
    exact_parity_lossy: float
    unfiltered: ParityEstimate
    filtered: ParityEstimate | None
    histogram: CountHistogram

    def lines(self) -> list[str]:
        cfg = self.config
        out = [
            f"scenario = noon  n = {cfg.n}",
            f"phi = {_fmt(self.phi)}",
            f"eta_a = {_fmt(cfg.eta_a)}  eta_b = {_fmt(cfg.eta_b)}  trials = {cfg.trials}  seed = {cfg.seed}",
            f"exact_parity_lossless = {_fmt(self.exact_parity_lossless)}",
            f"exact_parity_lossy = {_fmt(self.exact_parity_lossy)}",
            f"unfiltered_estimate = {_fmt(self.unfiltered.estimate)}  stderr = {_fmt(self.unfiltered.stderr)}",
        ]
        if self.filtered is not None:
            out.append(
                f"filtered_estimate = {_fmt(self.filtered.estimate)}  stderr = {_fmt(self.filtered.stderr)}"
                f"  kept_fraction = {_fmt(self.filtered.kept_fraction)}"
            )
        return out


def run_noon_sampling(cfg: ScenarioConfig) -> NoonSamplingReport:
    if cfg.scenario != "noon":
        raise ConfigError(f"count sampling is defined for the noon scenario only, got scenario {cfg.scenario!r}")
    _reject_unread(cfg, _SAMPLING_READS, "sample")
    phi = cfg.sample_phi if cfg.sample_phi is not None else math.pi / (3 * cfg.n)
    c, _ = phase_generator(cfg.n, SCENARIOS["noon"].phase)
    if not math.isfinite(c * phi * cfg.n):  # the largest exponent c phi K of the phase factor, |K| = n
        raise ConfigError(f"sample_phi {phi!r} makes the arm phase of {cfg.n} photons overflow")
    ideal = noon_output_distribution(cfg.n, phi)
    lossy = lossy_distribution(ideal, cfg.eta_a, cfg.eta_b)
    hist = sample_counts(lossy, cfg.trials, cfg.seed)
    filtered = parity_from_histogram(hist, post_select_total=cfg.n) if cfg.post_select else None
    return NoonSamplingReport(cfg, phi, parity_expectation(ideal, "a"), parity_expectation(lossy, "a"),
                              parity_from_histogram(hist, post_select_total=None), filtered, hist)


# --------------------------------------------------------------------------
# Fisher-information comparison table and metric cross-check
# --------------------------------------------------------------------------


class QfiRow(NamedTuple):
    case: str
    f_q: float
    f_q_numeric: float
    delta_phi_min: float
    delta_phi_error_prop: float
    ratio: float
    note: str = ""


def _coherent_case(beta_mag: float, epsilon_trunc: float) -> tuple[ScenarioConfig, str]:
    """The |beta>|beta> row of a table and its label."""
    cfg = ScenarioConfig(scenario="coherent", alpha_mag=beta_mag, beta_mag=beta_mag, epsilon_trunc=epsilon_trunc)
    return cfg, f"coherent beta={beta_mag:g}"


def _table_probe(cfg: ScenarioConfig, label: str, command: str, h: float) -> tuple[Probe, float, float, float]:
    """The table probe of ``cfg`` and ``phase_family``'s (F, F_h, rate) on its weights over the values of its arm
    phase's generator.  The tables' coherent row keeps every pair, has no BS1 and puts its phase on mode b, so its
    weights are mode b's |b_n|^2 over n.  F is refused below the smallest normal float: the tables divide by it,
    and a subnormal F keeps too few digits to mean anything."""
    sc = SCENARIOS[cfg.scenario]
    probe = sc.probe(cfg)
    if isinstance(probe, ProductProbe):
        weights = np.abs(probe.b.amps) ** 2, np.arange(len(probe.b.amps))
    else:
        weights = generator_weights(probe, sc.phase)
    f_q, f_h, rate = phase_family(*weights, h)
    if not f_q >= sys.float_info.min:
        raise ConfigError(f"{command} needs Fisher information >= {sys.float_info.min:g}, and {label} has "
                          f"F_Q = {f_q:g}, so the relative error is undefined")
    return probe, f_q, f_h, rate


def run_qfi_table(
    beta_mag: float = 2.0,
    fock_n: int = 9,
    noon_n: int = 4,
    epsilon_trunc: float = EPS_TRUNC_DEFAULT,
) -> list[QfiRow]:
    """One row per probe family: analytic and numeric Fisher information,
    the Cramer-Rao bound, and the best error-propagation uncertainty."""
    eps = epsilon_trunc
    # (config, label, fringe centre, stencil step, note)
    cases = [
        (*_coherent_case(beta_mag, eps), math.pi / 2, 1e-4, "number-difference readout sits sqrt(2) above the one-arm bound"),
        (ScenarioConfig(scenario="fock", n=fock_n, epsilon_trunc=eps), f"fock n={fock_n}", math.pi / 2, 1e-4, ""),
        (ScenarioConfig(scenario="noon", n=noon_n, epsilon_trunc=eps), f"noon n={noon_n}", math.pi / (2 * noon_n), 1e-5, ""),
    ]
    rows = []
    for cfg, label, center, step, note in cases:
        probe, f_q, f_num, _ = _table_probe(cfg, label, "qfi-table", DERIVATIVE_STEP_DEFAULT)
        harmonics, _ = _readout(SCENARIOS[cfg.scenario], probe)
        bound = cramer_rao(f_q)
        phis = center + step * np.arange(-2.0, 3.0)  # the error propagation's 5-point fine grid around the centre
        dp = float(error_propagation(phis, *(eval_harmonics(c, phis) for c in harmonics))[2][2])
        rows.append(QfiRow(label, f_q, f_num, bound, dp, dp / bound, note))
    return rows


def write_qfi_table_csv(rows: list[QfiRow], path) -> None:
    write_text(path, "case,f_q,f_q_numeric,delta_phi_min,delta_phi_error_prop,ratio,note\n" + "".join(
        f"{r.case},{_fmt(r.f_q)},{_fmt(r.f_q_numeric)},{_fmt(r.delta_phi_min)},"
        f"{_fmt(r.delta_phi_error_prop)},{_fmt(r.ratio)},{r.note}\n" for r in rows))


class MetricRow(NamedTuple):
    family: str
    phi: float
    dl_dphi_squared: float
    quarter_f_q: float
    rel_error: float


_METRIC_PHIS = (0.3, 1.1, 2.0)  # the phases at which run_metric_check samples the rate


def run_metric_check(
    beta_mag: float = 2.0, noon_n: int = 4, h: float = 1e-4, epsilon_trunc: float = EPS_TRUNC_DEFAULT
) -> list[MetricRow]:
    """Rate of change of the projective distance against F/4 per family, both on the normalised probe's weights;
    the rate is the same at every sampled phase."""
    eps = epsilon_trunc
    cases = [
        _coherent_case(beta_mag, eps),
        (ScenarioConfig(scenario="noon", n=noon_n, epsilon_trunc=eps), f"noon n={noon_n}"),
    ]
    if not 0.0 < h < math.inf:
        raise ConfigError(f"step must be finite and > 0, got {h}")
    if any(phi + h == phi for phi in _METRIC_PHIS):  # no step to take; every step whose rate overflows is one
        raise ConfigError(f"step must move every sampled phase {_METRIC_PHIS} (phi + step != phi), got {h!r}")
    rows = []
    for cfg, label in cases:
        _, f_q, _, rate = _table_probe(cfg, label, "metric-check", h)
        quarter = f_q / 4
        rows += [MetricRow(label, phi, rate, quarter, abs(rate - quarter) / quarter) for phi in _METRIC_PHIS]
    return rows


def write_metric_csv(rows: list[MetricRow], path) -> None:
    write_text(path, "family,phi,dl_dphi_squared,quarter_f_q,rel_error\n" + "".join(
        f"{r.family},{_fmt(r.phi)},{_fmt(r.dl_dphi_squared)},{_fmt(r.quarter_f_q)},{_fmt(r.rel_error)}\n" for r in rows))


# --------------------------------------------------------------------------
# flat key = value config files
# --------------------------------------------------------------------------

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(text: str) -> bool:
    if text.lower() not in _BOOL_WORDS:
        raise ValueError(f"expected a boolean, got {text!r}")
    return _BOOL_WORDS[text.lower()]


_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool}

# config key -> parser of its value text, one per ScenarioConfig field
_CONFIG_FIELDS = {fld.name: _PARSERS[fld.type.removesuffix(" | None")] for fld in fields(ScenarioConfig)}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat ``key = value`` lines; '#' comments; unknown keys and a key set twice are rejected."""
    values: dict = {}
    set_on: dict = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}, first set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = _CONFIG_FIELDS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read(), source=str(path))
    except (OSError, UnicodeDecodeError) as exc:  # a missing file, or one that is not UTF-8 text
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def config_lines(cfg: ScenarioConfig) -> list[str]:
    """Serialize the effective config; reloading reproduces identical runs."""
    out = []
    for fld in fields(cfg):
        val = getattr(cfg, fld.name)
        if val is None:
            continue
        if isinstance(val, bool):
            text = "true" if val else "false"
        elif isinstance(val, float):
            text = _fmt(val)
        else:
            text = str(val)
        out.append(f"{fld.name} = {text}")
    return out
