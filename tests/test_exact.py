"""Fixed-N sweeps against references computed at 200 bits.

Each sweep runs on the default grid (0 to pi in 181 steps), and every cell
is compared with its closed form evaluated by mpmath at the float phi the
sweep used:

* fock:      mean (N/2) cos phi, second (N/2)^2 cos^2 phi + (N/4) sin^2 phi, F_Q = N;
* twin_fock: mean 0, second N(N+1)/2 sin^2 phi, F_Q = 2N(N+1);
* noon:      mean cos(N phi), second 1, F_Q = N^2.

The reference var_o is second - mean^2.  The reference delta_phi applies
the sweep's own rule, sqrt(var) / |central difference|, to the exact means
at the sweep's float phi with its float step phi[1] - phi[0], on the rows
the sweep reports finite; the difference cancels, so its distances run to
thousands of eps.

The rows of ``qfi-table`` and ``metric-check`` are compared with the
normalised probe as built: its weights q = |amp|^2 / sum |amp|^2 over the
values v of its generator, taken exactly from its float amplitudes (mode
b's |b_n|^2 over n for the coherent row, |amp|^2 over |c| K of the arm
phase for the fock and NOON rows), give F_Q = 4 Var_q(v) (``f_q``, and
``quarter_f_q`` as F_Q / 4), the Fisher information of the central
difference 4 Var_q(sin(h v) / h) (``f_q_numeric``), and the finite-step
rate (1 - |sum q e^{i h v}|^2) / h^2 (``dl_dphi_squared``), each at the
float h = 1e-4 the tables use.  The lossless parity that ``sample`` prints
is compared with cos(N phi) at its float phi = pi / (3N).

A cell's distance is |x - ref| / (2^-52 max(1, |ref|)), in units of the
float epsilon.  ``WORST``, ``COHERENT_WORST``, ``FIXED_TABLE_WORST`` and
``PARITY_WORST`` pin the largest distance per case and column that the code
reached when these tests were written, rounded up to three significant
digits; a change may lower a bound, and must not raise one.

The single-mode amplitude arrays of ``auto_coherent`` and ``auto_squeezed``
are compared entry by entry with their closed forms at 40 digits,
e^{-|a|^2/2} a^n / sqrt(n!) and cosh(r)^{-1/2} (-tanh r)^k sqrt((2k)!) /
(2^k k!) at n = 2k (odd n hold exactly 0), on every entry of at least
``AMP_FLUSH``.  ``COHERENT_AMP_WORST`` and ``SQUEEZED_AMP_WORST`` pin the
largest relative error |x - ref| / |ref| in the same way.

A coherent sweep's ``qfi`` and ``var_o`` are compared with the closed forms
of the untruncated pair, 4 |beta|^2 and (|alpha|^2 + |beta|^2) / 4 (the
latter at every phi), and ``COHERENT_SWEEP_WORST`` pins their relative
errors in the same way.  These hold truncation and rounding together.
"""

import cmath
import math

import mpmath
import pytest

from mzlab.fock import AMP_FLUSH
from mzlab.measurement import parity_expectation
from mzlab.optics import phase_generator
from mzlab.scenarios import (SCENARIOS, ScenarioConfig, coherent_probe, noon_output_distribution, run_metric_check,
                             run_qfi_table, run_sweep)
from mzlab.states import SqueezeParams, auto_coherent, auto_squeezed

mpmath.mp.prec = 200
EPS = mpmath.mpf(2) ** -52


def _fock(n, phi):
    c, s = mpmath.cos(phi), mpmath.sin(phi)
    return mpmath.mpf(n) / 2 * c, (mpmath.mpf(n) / 2) ** 2 * c**2 + mpmath.mpf(n) / 4 * s**2


def _twin_fock(n, phi):
    return mpmath.mpf(0), mpmath.mpf(n * (n + 1)) / 2 * mpmath.sin(phi) ** 2


def _noon(n, phi):
    return mpmath.cos(n * phi), mpmath.mpf(1)


# scenario -> (mean and second moment at phi, F_Q) as exact functions of N
REFERENCE = {
    "fock": (_fock, lambda n: n),
    "twin_fock": (_twin_fock, lambda n: 2 * n * (n + 1)),
    "noon": (_noon, lambda n: n * n),
}

# (scenario, N) -> the largest distance of (mean_o, second_o, var_o, delta_phi, qfi) over the grid, in units of 2^-52
WORST = {
    ("fock", 1): (0.621, 0.25, 0.393, 1940, 0),
    ("fock", 2): (1.25, 1.06, 1.98, 3690, 0),
    ("fock", 3): (0.625, 1.39, 3.75, 3490, 0),
    ("fock", 8): (0.43, 1.47, 15.4, 1270, 0),
    ("fock", 9): (0.698, 2.25, 24.2, 5300, 0),
    ("fock", 16): (0.43, 3.35, 62.8, 2540, 0),
    ("fock", 18): (0.698, 4.58, 96.7, 3750, 14.3),
    ("fock", 31): (0.727, 5.28, 262, 5140, 0),
    ("fock", 32): (0.43, 21.4, 276, 6440, 32),
    ("fock", 64): (0.43, 9.15, 1020, 7840, 0),
    ("twin_fock", 1): (0, 0.87, 0.87, 0, 0),
    ("twin_fock", 2): (0, 2.87, 2.87, 0, 1.34),
    ("twin_fock", 4): (5.56e-17, 7.53, 7.53, 0, 3.2),
    ("twin_fock", 8): (1.67e-16, 26.3, 26.3, 0, 8.89),
    ("noon", 1): (2.25, 1, 3.1, 3060, 1),
    ("noon", 2): (3.24, 1, 5.34, 728, 1),
    ("noon", 4): (7.25, 1, 12.5, 281, 1),
    ("noon", 8): (12.8, 1, 22, 252, 1),
    ("noon", 14): (32.6, 1, 45.5, 807, 1.31),
    ("noon", 16): (22.3, 1, 36.9, 207, 1),
    ("noon", 64): (88.7, 1, 154, 260, 1),
}
COLUMNS = ("mean_o", "second_o", "var_o", "delta_phi", "qfi")


def _distance(x: float, ref) -> float:
    return float(abs(mpmath.mpf(x) - ref) / (EPS * max(1, abs(ref))))


def distances(scenario: str, n: int) -> tuple[float, ...]:
    """The largest distance of the sweep's mean_o, second_o, var_o, delta_phi and qfi cells from the
    200-bit references.  The reference delta_phi is the sweep's central difference taken on the exact
    means at the sweep's float phi, with its float step phi[1] - phi[0], on the rows it reports finite."""
    moments, f_q = REFERENCE[scenario]
    table = run_sweep(ScenarioConfig(scenario=scenario, n=n))
    phi = table.phi.tolist()
    refs = [moments(n, mpmath.mpf(p)) for p in phi]
    step = mpmath.mpf(phi[1] - phi[0])
    worst = [0.0] * 4
    for i, cells in enumerate(zip(table.mean_o.tolist(), table.second_o.tolist(), table.var_o.tolist(),
                                  table.delta_phi.tolist())):
        ref_mean, ref_second = refs[i]
        ref_var = ref_second - ref_mean**2
        ref_delta = None
        if 0 < i < len(phi) - 1 and math.isfinite(cells[3]):
            ref_delta = mpmath.sqrt(ref_var) / abs((refs[i + 1][0] - refs[i - 1][0]) / (2 * step))
        for k, ref in enumerate((ref_mean, ref_second, ref_var, ref_delta)):
            if ref is not None:
                worst[k] = max(worst[k], _distance(cells[k], ref))
    return (*worst, _distance(table.qfi, mpmath.mpf(f_q(n))))


@pytest.mark.parametrize("scenario, n", list(WORST), ids=[f"{s}-{n}" for s, n in WORST])
def test_fixed_n_sweep_stays_within_its_pinned_distance_from_exact(scenario, n):
    got = distances(scenario, n)
    for column, value, bound in zip(COLUMNS, got, WORST[scenario, n], strict=True):
        assert value <= bound, f"{scenario} N={n} {column}: {value:.4g} eps from exact, pinned at {bound}"


# beta -> the largest distance of the coherent row's (f_q, quarter_f_q, f_q_numeric, dl_dphi_squared), in units of 2^-52
COHERENT_WORST = {
    0.5: (0.82, 0.205, 0.0551, 0.153),
    1.0: (0.551, 0.551, 0.27, 0.237),
    2.0: (0.287, 0.287, 0.0829, 0.402),
    2.5: (0.386, 0.386, 0.371, 0.629),
    10.0: (0.359, 0.359, 1.65, 0.218),
    20.0: (0.0317, 0.0317, 0.115, 0.0386),
}
TABLE_COLUMNS = ("f_q", "quarter_f_q", "f_q_numeric", "dl_dphi_squared")


# (scenario, N) -> the same four distances of the fixed-N row; metric-check has no fock row (None)
FIXED_TABLE_WORST = {
    ("fock", 1): (0, None, 0.738, None),
    ("fock", 2): (0.308, None, 1.47, None),
    ("fock", 3): (0.627, None, 0.389, None),
    ("fock", 8): (0.786, None, 0.467, None),
    ("fock", 9): (0.493, None, 0.614, None),
    ("fock", 16): (0.273, None, 0.315, None),
    ("fock", 32): (0.783, None, 0.49, None),
    ("noon", 1): (0, 0, 0.689, 0.0471),
    ("noon", 2): (0, 0, 0.738, 0.263),
    ("noon", 4): (0, 0, 0.712, 0.212),
    ("noon", 8): (0, 0, 0.998, 1.01),
    ("noon", 16): (0, 0, 0.521, 0.98),
}


def table_distances(qfi_row, metric_rows, amps, v) -> tuple[float | None, ...]:
    """A probe's distances of (f_q, quarter_f_q, f_q_numeric, dl_dphi_squared) from the 200-bit F_Q, F_Q / 4,
    central-difference F and finite-step rate of the weights |amps|^2, normalised, over the generator values v,
    at the tables' step h = 1e-4; None where metric-check has no row for the probe."""
    p = [abs(mpmath.mpc(x)) ** 2 for x in amps.tolist()]
    total = mpmath.fsum(p)
    q = [x / total for x in p]

    def variance(x):
        m = mpmath.fsum(w * y for w, y in zip(q, x))
        return mpmath.fsum(w * (y - m) ** 2 for w, y in zip(q, x))

    h = mpmath.mpf(1e-4)
    f_q = 4 * variance(v)
    f_num = 4 * variance([mpmath.sin(h * k) / h for k in v])
    rate = (1 - abs(mpmath.fsum(w * mpmath.expj(h * k) for w, k in zip(q, v))) ** 2) / h**2
    assert all(r.family == qfi_row.case for r in metric_rows)
    quarter, dl = ((max(_distance(getattr(r, col), ref) for r in metric_rows) if metric_rows else None)
                   for col, ref in (("quarter_f_q", f_q / 4), ("dl_dphi_squared", rate)))
    return _distance(qfi_row.f_q, f_q), quarter, _distance(qfi_row.f_q_numeric, f_num), dl


def coherent_table_distances(beta: float) -> tuple[float, ...]:
    """The coherent rows' distances, on mode b's weights over n."""
    b = coherent_probe(ScenarioConfig(scenario="coherent", alpha_mag=beta, beta_mag=beta)).b.amps
    return table_distances(run_qfi_table(beta_mag=beta)[0], run_metric_check(beta_mag=beta)[:3], b, range(len(b)))


def fixed_table_distances(scenario: str, n: int) -> tuple[float | None, ...]:
    """The fock or NOON row's distances, on the probe's weights over |c| K of its arm phase."""
    sc = SCENARIOS[scenario]
    probe = sc.probe(ScenarioConfig(scenario=scenario, n=n))
    c, k = phase_generator(probe.n_cap, sc.phase)
    v = [abs(mpmath.mpf(c)) * x for x in k.tolist()]
    if scenario == "fock":
        return table_distances(run_qfi_table(fock_n=n)[1], [], probe.amps, v)
    return table_distances(run_qfi_table(noon_n=n)[2], run_metric_check(noon_n=n)[3:], probe.amps, v)


@pytest.mark.parametrize("beta", list(COHERENT_WORST))
def test_coherent_table_rows_stay_within_their_pinned_distance_from_exact(beta):
    got = coherent_table_distances(beta)
    for column, value, bound in zip(TABLE_COLUMNS, got, COHERENT_WORST[beta], strict=True):
        assert value <= bound, f"coherent beta={beta} {column}: {value:.4g} eps from exact, pinned at {bound}"


# (|alpha|, |beta|) -> the relative errors of a coherent sweep's qfi from 4 |beta|^2 and of its worst var_o from
# (|alpha|^2 + |beta|^2) / 4, the closed forms of the untruncated pair, on the probe at its default cap
COHERENT_SWEEP_WORST = {
    (2, 2): (1.78e-15, 8.00e-15), (2, 30): (5.18e-13, 1.61e-14), (30, 30): (5.18e-13, 1.82e-12),
    (2, 100): (2.99e-12, 4.37e-14), (2, 300): (1.22e-9, 2.82e-13), (300, 300): (2.60e-9, 6.19e-9),
}


@pytest.mark.parametrize("alpha, beta", list(COHERENT_SWEEP_WORST), ids=[f"{a}-{b}" for a, b in COHERENT_SWEEP_WORST])
def test_coherent_sweep_stays_within_its_pinned_error_from_its_closed_forms(alpha, beta):
    table = run_sweep(ScenarioConfig(scenario="coherent", alpha_mag=alpha, beta_mag=beta))
    f_q, var = 4 * beta**2, (alpha**2 + beta**2) / 4
    got = abs(float(table.qfi) - f_q) / f_q, max(abs(x - var) for x in table.var_o.tolist()) / var
    for column, value, bound in zip(("qfi", "var_o"), got, COHERENT_SWEEP_WORST[alpha, beta], strict=True):
        assert value <= bound, f"coherent {alpha}/{beta} {column}: {value:.4g} from its closed form, pinned at {bound}"


@pytest.mark.parametrize("scenario, n", list(FIXED_TABLE_WORST), ids=[f"{s}-{n}" for s, n in FIXED_TABLE_WORST])
def test_fixed_n_table_rows_stay_within_their_pinned_distance_from_exact(scenario, n):
    got = fixed_table_distances(scenario, n)
    for column, value, bound in zip(TABLE_COLUMNS, got, FIXED_TABLE_WORST[scenario, n], strict=True):
        assert (value is None) == (bound is None), column
        assert bound is None or value <= bound, f"{scenario} N={n} {column}: {value:.4g} eps from exact, pinned at {bound}"


# N -> the largest distance of the lossless parity at phi = pi / (3N), in units of 2^-52
PARITY_WORST = {
    1: 0.0522, 2: 0.553, 3: 0.269, 4: 2.56, 5: 0.661, 6: 1.77, 7: 1.1, 8: 1.56, 9: 2.44, 10: 2.67,
    11: 3.72, 12: 3.27, 13: 4.67, 14: 4.6, 15: 4.44, 16: 5.06, 40: 11.7, 64: 19.1,
}


@pytest.mark.parametrize("n", list(PARITY_WORST))
def test_lossless_parity_stays_within_its_pinned_distance_from_exact(n):
    phi = math.pi / (3 * n)  # the phase sample takes without --phi-at
    got = _distance(parity_expectation(noon_output_distribution(n, phi), "a"), mpmath.cos(n * mpmath.mpf(phi)))
    assert got <= PARITY_WORST[n], f"noon N={n} parity: {got:.4g} eps from exact, pinned at {PARITY_WORST[n]}"


# alpha -> the largest relative error of auto_coherent's amplitudes; up to |alpha| = 37 the fill starts from the
# vacuum term, from 38 on from the peak n0 = floor(|alpha|^2) both ways
COHERENT_AMP_WORST = {
    0.5: 1.76e-16, 2.0: 1.16e-15, cmath.rect(4.16, 0.3): 1.34e-15, 20.0: 2.23e-15, 37.0: 2.45e-15,
    38.0: 7.68e-14, 100.0: 1.01e-13,
}
# r -> the largest relative error of auto_squeezed's amplitudes
SQUEEZED_AMP_WORST = {0.3: 7.05e-15, 0.95: 3.05e-14, 1.5: 2.58e-13, 2.5: 1.36e-11, 3.0: 4.07e-11}


def _worst_relative_error(amps, ref) -> float:
    """The largest |x - ref(n)| / |ref(n)| over the entries x = amps[n] of at least AMP_FLUSH."""
    worst = 0.0
    for n, x in enumerate(amps.tolist()):
        if abs(x) >= AMP_FLUSH:
            exact = ref(n)
            worst = max(worst, float(abs(mpmath.mpc(x) - exact) / abs(exact)))
    return worst


def _log_factorials(m: int) -> list:
    out = [mpmath.mpf(0)]
    for n in range(1, m + 1):
        out.append(out[-1] + mpmath.log(n))
    return out


@pytest.mark.parametrize("alpha", list(COHERENT_AMP_WORST), ids=[f"{a:.3g}" for a in COHERENT_AMP_WORST])
def test_coherent_amplitudes_stay_within_their_pinned_error_from_exact(alpha):
    sm = auto_coherent(alpha)
    with mpmath.workdps(40):
        a = mpmath.mpc(alpha)
        log_a, lf = mpmath.log(a), _log_factorials(sm.cutoff)
        got = _worst_relative_error(sm.amps, lambda n: mpmath.exp(n * log_a - abs(a) ** 2 / 2 - lf[n] / 2))
    assert got <= COHERENT_AMP_WORST[alpha], f"coherent alpha={alpha:.3g}: {got:.4g} from exact"


@pytest.mark.parametrize("r", list(SQUEEZED_AMP_WORST))
def test_squeezed_amplitudes_stay_within_their_pinned_error_from_exact(r):
    sm = auto_squeezed(SqueezeParams(r))
    assert not sm.amps[1::2].any()
    with mpmath.workdps(40):
        t, lf = mpmath.mpf(r), _log_factorials(sm.cutoff)
        base, step = -mpmath.log(mpmath.cosh(t)) / 2, mpmath.log(mpmath.tanh(t) / 2)
        got = _worst_relative_error(sm.amps[::2], lambda k: (-1) ** k * mpmath.exp(base + k * step + lf[2 * k] / 2 - lf[k]))
    assert got <= SQUEEZED_AMP_WORST[r], f"squeezed r={r}: {got:.4g} from exact"
