import math

import numpy as np
import pytest

from mzlab.errors import BasisMismatchError, NoInformationError
from mzlab.estimation import (
    SINGULAR,
    check_phi_grid,
    cramer_rao,
    error_propagation,
    fisher_from_moments,
    is_singular,
    metric_distance,
    qfi_analytic,
    qfi_numeric,
    uncertainty_product,
)
from mzlab.fock import TwoModeState, basis_dim, normalize
from mzlab.optics import phase_generator, phase_shift
from mzlab.states import coherent_amplitudes, fock_after_symmetric_bs, noon_state, product_state, twin_fock

from conftest import random_fixed_total_state, random_state


def cosine_curve(amplitude, var, step=0.01, n=101):
    phi = np.arange(n) * step
    mean = amplitude * np.cos(phi)
    second = mean**2 + var
    return phi, mean, second


def delta_phi_at(curve, i):
    """delta_phi at interior grid point i, read off the whole-curve evaluation."""
    return float(error_propagation(*curve)[2][i])


# ----- error propagation ----------------------------------------------------------

def test_delta_phi_against_hand_derivative():
    curve = cosine_curve(amplitude=4.0, var=2.0)
    i = 50
    phi = curve[0][i]
    step = float(curve[0][1] - curve[0][0])
    # central difference of a sampled cosine is the exact derivative times sinc(step)
    expected = math.sqrt(2.0) / (4.0 * math.sin(phi) * (math.sin(step) / step))
    assert delta_phi_at(curve, i) == pytest.approx(expected, rel=1e-12)


def test_delta_phi_singular_at_stationary_point():
    # cos is stationary at phi = 0; index 4 sits on it and keeps the symmetric difference tiny
    phi = (np.arange(9) - 4) * 0.01
    curve = (phi, np.cos(phi), np.cos(phi) ** 2 + 0.5)
    assert is_singular(delta_phi_at(curve, 4))
    assert delta_phi_at(curve, 4) == SINGULAR


def test_whole_curve_error_propagation_matches_each_point():
    phi = (np.arange(21) - 10) * 0.01  # crosses the stationary point of cos at phi = 0
    mean, second = 3.0 * np.cos(phi), 9.0 * np.cos(phi) ** 2 + 0.7
    var, d, delta = error_propagation(phi, mean, second)
    assert var.shape == delta.shape == (21,) and d.shape == (19,)
    assert delta[0] == delta[-1] == SINGULAR  # no derivative at the grid endpoints
    dp = delta[1:-1]
    # the rule point by point, in Python floats, on the step phi[1] - phi[0]
    m, s = mean.tolist(), second.tolist()
    want_var = [max(0.0, s[i] - m[i] * m[i]) for i in range(21)]
    step = float(phi[1] - phi[0])
    want_d = [float((mean[i + 1] - mean[i - 1]) / (2 * step)) for i in range(1, 20)]
    floor = min(1.0, math.sqrt(max(second)))  # 1 unless the curve's rms is below 1
    want_dp = [SINGULAR if x == 0 or abs(x) < 1e-9 * max(floor, abs(mean[i])) / step
               else math.sqrt(max(0.0, float(second[i] - mean[i] * mean[i]))) / abs(x)
               for i, x in zip(range(1, 20), want_d)]
    assert var.tolist() == want_var
    assert d.tolist() == want_d
    assert dp.tolist() == want_dp
    assert is_singular(dp[9]) and not any(is_singular(x) for x in np.delete(dp, 9))


def test_check_phi_grid_refuses_a_non_uniform_grid():
    check_phi_grid(np.array([0.0, 0.1, 0.2]))
    with pytest.raises(ValueError):
        check_phi_grid(np.array([0.0, 0.1, 0.35]))  # non-uniform


def test_error_propagation_clamps_a_variance_below_zero():
    # second < mean^2 by rounding, as at the endpoints of a large fixed-N sweep: no error, a zero spread
    phi = np.array([0.0, 0.1, 0.2])
    mean = np.array([681.0, 680.0, 679.0])
    second = mean**2 - np.array([0.0, 1e-7, 0.0])
    var, d, delta = error_propagation(phi, mean, second)
    assert d[0] == pytest.approx(-10.0) and delta[1] == 0.0
    assert var[1] == 0.0 and delta[0] == delta[2] == SINGULAR


def test_rounding_noise_on_a_zero_second_moment_stays_singular():
    # rms = 0 keeps the floor at 1, so a 1e-33 ramp is noise, not a slope with delta_phi = 0 / |d| = 0
    phi = 0.1 * np.arange(5)
    var, d, delta = error_propagation(phi, 1e-33 * np.array([0.0, 1.0, 3.0, 6.0, 10.0]), np.zeros(5))
    assert d.all() and delta.tolist() == [SINGULAR] * 5 and var.tolist() == [0.0] * 5


# ----- Fisher information ----------------------------------------------------------

def test_qfi_analytic_coherent():
    b = coherent_amplitudes(2.0, 44)
    vac = coherent_amplitudes(0.0, 0)
    s = product_state(vac, b, 44)
    f_q = qfi_analytic(s, "mode_b")
    assert f_q == pytest.approx(16.0, abs=1e-8)
    assert cramer_rao(f_q) == pytest.approx(0.25, abs=1e-9)
    assert cramer_rao(f_q) * math.sqrt(f_q) == pytest.approx(1.0, abs=1e-12)


def test_qfi_analytic_fock_and_noon():
    assert qfi_analytic(fock_after_symmetric_bs(9), "mode_b") == pytest.approx(9.0, abs=1e-10)
    f_q = qfi_analytic(noon_state(4), "relative")
    assert f_q == pytest.approx(16.0, abs=1e-10)
    assert cramer_rao(f_q) == pytest.approx(0.25, abs=1e-12)


def test_qfi_generators_agree_on_definite_total():
    # on a fixed-total block, Var(n_b) equals Var((n1-n2)/2)
    for st in (noon_state(4), fock_after_symmetric_bs(7)):
        a = qfi_analytic(st, "relative")
        b = qfi_analytic(st, "mode_b")
        assert a == pytest.approx(b, abs=1e-10)


def test_qfi_analytic_sums_only_the_occupied_entries():
    """Dropping the p = 0 entries leaves both fsums exact, and a definite-Jz probe keeps F_Q = +0.0."""
    def full_basis(s, conv):  # the sums over the whole basis, zeros included
        c, k = phase_generator(s.n_cap, conv)
        p, v = np.abs(s.amps) ** 2, abs(c) * k
        return fisher_from_moments(math.fsum(p * v), math.fsum(p * v * v))

    states = (twin_fock(3), noon_state(4), fock_after_symmetric_bs(9), random_state(6, 3), random_fixed_total_state(5, 4))
    for st in states:
        for conv in ("mode_b", "relative"):
            assert qfi_analytic(st, conv) == full_basis(st, conv)
    # |3,3> has Jz = 0: its one kept term is +0.0, and the dropped p = 0 terms at n1 < n2 are -0.0
    f_q = qfi_analytic(twin_fock(3), "relative")
    assert f_q == 0.0 and math.copysign(1.0, f_q) == 1.0
    with pytest.raises(NoInformationError):  # no bound to take
        cramer_rao(f_q)


def test_qfi_analytic_names_the_two_conventions():
    with pytest.raises(ValueError, match="'mode_b' or 'relative'"):
        qfi_analytic(noon_state(2), "jz")


def test_qfi_numeric_noon():
    fam = lambda p: phase_shift(noon_state(4), p, "relative")
    assert qfi_numeric(fam, 0.3, h=1e-4) == pytest.approx(16.0, abs=1e-6)


def test_qfi_numeric_constant_family():
    s = noon_state(2)
    assert qfi_numeric(lambda p: s, 0.5, h=1e-4) == pytest.approx(0.0, abs=1e-12)


def test_qfi_numeric_coherent_unit_amplitude():
    b = coherent_amplitudes(1.0, 30)
    vac = coherent_amplitudes(0.0, 0)
    s = product_state(vac, b, 30)
    fam = lambda p: phase_shift(s, p, "mode_b")
    assert qfi_numeric(fam, 0.9, h=1e-4) == pytest.approx(4.0, abs=1e-6)


def test_qfi_numeric_second_order_convergence():
    b = coherent_amplitudes(2.0, 44)
    vac = coherent_amplitudes(0.0, 0)
    coherent_pair = product_state(vac, b, 44)
    families = [
        (lambda p: phase_shift(noon_state(4), p, "relative"), 16.0),
        (lambda p: phase_shift(coherent_pair, p, "mode_b"), 16.0),
    ]
    hs = (1e-2, 1e-3, 1e-4)
    for fam, target in families:
        errs = [abs(qfi_numeric(fam, 0.3, h=h) - target) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 1.8


def test_qfi_numeric_basis_mismatch():
    def fam(p):
        return noon_state(4) if p > 0.5 else noon_state(3)

    with pytest.raises(BasisMismatchError):
        qfi_numeric(fam, 0.5, h=0.2)


def test_cramer_rao():
    assert cramer_rao(16.0) == 0.25
    assert cramer_rao(1.0) == 1.0
    with pytest.raises(NoInformationError):
        cramer_rao(0.0)


# ----- metric cross-check ------------------------------------------------------------

def test_metric_distance_limits():
    # the distance is summed from u s - s, not from |<s|s>|^2 = 1 - O(eps), so it has no ~sqrt(eps) floor
    s = random_state(5, seed=42)
    assert metric_distance(s, s) == 0.0
    a = TwoModeState.basis_state(2, 1, 0)
    b = TwoModeState.basis_state(2, 0, 1)
    assert metric_distance(a, b) == 1.0


def test_metric_rate_equals_quarter_fisher():
    h = 1e-4
    fam = lambda p: phase_shift(noon_state(4), p, "relative")
    rate = (metric_distance(fam(0.4), fam(0.4 + h)) / h) ** 2
    assert rate == pytest.approx(4.0**2 / 4, rel=1e-6)  # j^2 = F/4


# ----- the uncertainty product -------------------------------------------------------

def test_uncertainty_product_cases():
    assert uncertainty_product(noon_state(4)) == pytest.approx(1.0, abs=1e-12)
    assert uncertainty_product(fock_after_symmetric_bs(9)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NoInformationError):
        uncertainty_product(TwoModeState.basis_state(3, 3, 0))


def test_uncertainty_product_random_states():
    for seed in range(20):
        s = random_state(6, seed=1000 + seed)
        assert uncertainty_product(s) == pytest.approx(1.0, abs=1e-10)


def test_quantum_bound_dominates_error_propagation():
    # delta-phi from counting can only sit above the Cramer-Rao bound
    psi = fock_after_symmetric_bs(9)
    from mzlab.measurement import jz_moments, photon_distribution
    from mzlab.optics import BS2_JY, beam_splitter

    phis = np.linspace(0.05, math.pi - 0.05, 41)
    mean, second = np.empty_like(phis), np.empty_like(phis)
    for i, p in enumerate(phis):
        d = photon_distribution(beam_splitter(phase_shift(psi, float(p), "mode_b"), BS2_JY))
        mean[i], second[i] = jz_moments(d)
    curve = (phis, mean, second)
    bound = cramer_rao(qfi_analytic(psi, "mode_b"))
    grid_slack = bound * 1e-3
    for i in range(1, phis.size - 1):
        dp = delta_phi_at(curve, i)
        assert dp >= bound - grid_slack
