"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 4 carries one assertion that is mathematically unattainable as
stated: at alpha = 4, r = 1 the exact error-propagation uncertainty at the
fringe quadrature is 0.128820 because the sinh^2(r) fluctuation terms that
the approximation delta-phi ~ e^-r/|alpha| discards are not small there
(sinh^2(1) = 1.381 against |alpha|^2 e^-2r = 2.165).  The assertion is kept
at its stated 10% tolerance and fails honestly; the quantum Cramer-Rao
value 0.08386 does land within 10% of the target and is printed alongside.
"""

import math
import time

import numpy as np
import pytest

from mzlab.estimation import cramer_rao, is_singular, qfi_analytic, uncertainty_product
from mzlab.fock import index_pairs
from mzlab.measurement import (
    lossy_distribution,
    parity_from_histogram,
    photon_distribution,
    sample_counts,
)
from mzlab.optics import (
    BS2_JY,
    beam_splitter,
    expect_j,
    expect_j2,
    wigner_d_block,
)
from mzlab.scenarios import (
    ScenarioConfig,
    noon_output_distribution,
    run_metric_check,
    run_qfi_table,
    run_sweep,
)
from mzlab.states import noon_state

from conftest import random_state

SQRT8 = math.sqrt(8.0)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")


def test_criterion_1_coherent_shot_noise_limit():
    t0 = time.monotonic()
    cfg = ScenarioConfig(scenario="coherent", alpha_mag=2.0, beta_mag=2.0, n_cap=40, phi_steps=181)
    table = run_sweep(cfg)
    finite = [x for x in table.delta_phi if not is_singular(x)]
    minimum = min(finite)
    assert abs(minimum - 1 / SQRT8) <= 1e-4, f"grid minimum {minimum} vs {1 / SQRT8}"
    # full curve against the closed form, allowing the documented grid error:
    # a sampled cosine mean makes the central difference low by exactly sinc(h)
    h = table.phi[1] - table.phi[0]
    sinc = math.sin(h) / h
    for phi, dp, closed in zip(table.phi, table.delta_phi, table.closed_form_delta_phi):
        if is_singular(dp) or closed is None:
            continue
        tol = 1e-6 + closed * ((1 / sinc - 1) * 1.000001 + 1e-9)
        assert abs(dp - closed) <= tol, f"phi={phi}"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(1, "coherent-SQL", True, f"min delta-phi {minimum:.6f}, runtime {elapsed:.2f}s")


def test_criterion_2_fock_shot_noise_limit():
    t0 = time.monotonic()
    for n in (1, 4, 9, 16):
        table = run_sweep(ScenarioConfig(scenario="fock", n=n, phi_steps=181))
        phis, mean, var = table.phi, table.mean_o, table.var_o
        assert np.abs(mean - n * np.cos(phis) / 2).max() <= 1e-10
        assert np.abs(var - n * np.sin(phis) ** 2 / 4).max() <= 1e-10
        fine = run_sweep(
            ScenarioConfig(scenario="fock", n=n, phi_start=math.pi / 2 - 2e-4, phi_stop=math.pi / 2 + 2e-4, phi_steps=5)
        )
        assert abs(fine.delta_phi[2] - 1 / math.sqrt(n)) <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, "fock-SQL", True, f"runtime {elapsed:.2f}s")


def test_criterion_3_twin_fock_null_signal():
    t0 = time.monotonic()
    from mzlab.optics import BS1_SYMMETRIC
    from mzlab.states import twin_fock

    for n in (1, 2, 3, 4):
        table = run_sweep(ScenarioConfig(scenario="twin_fock", n=n, phi_steps=181))
        assert max(abs(m) for m in table.mean_o) <= 1e-12
        st = beam_splitter(twin_fock(n), BS1_SYMMETRIC)
        n1, n2 = index_pairs(st.n_cap)
        occupied = np.abs(st.amps) > 1e-14
        assert np.all((n1[occupied] - n2[occupied]) % 2 == 0)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(3, "twin-fock-null", True, f"runtime {elapsed:.2f}s")


def test_criterion_4_squeezed_sub_shot_noise():
    t0 = time.monotonic()
    cfg = ScenarioConfig(scenario="squeezed", alpha_mag=4.0, r=1.0, theta=0.0, phi_steps=181)
    table = run_sweep(cfg)
    phis, mean = table.phi, table.mean_o
    target_mean = np.cos(phis) * (16.0 - math.sinh(1.0) ** 2)
    worst_mean = np.abs(mean - target_mean).max()
    assert worst_mean <= 1e-8, f"signal curve off by {worst_mean:.3e}"

    mid = 90  # phi = pi/2, the only grid point with cos(phi) = 0
    dp = float(table.delta_phi[mid])
    assert not is_singular(dp)
    sql = 0.25
    assert dp < sql, f"delta-phi {dp} is not below the shot-noise value {sql}"

    target = math.exp(-1.0) / 4.0
    crb = table.crb
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    detail = (
        f"signal exact to {worst_mean:.1e}; delta-phi {dp:.6f} < SQL {sql}; "
        f"quantum bound {crb:.6f} within {abs(crb - target) / target:.1%} of {target:.6f}; runtime {elapsed:.1f}s"
    )
    ok = abs(dp - target) <= 0.10 * target
    report(4, "squeezed-sub-SQL", ok, detail)
    assert ok, (
        f"error-propagation delta-phi at cos(phi)=0 is {dp:.6f}; the 10% corridor around "
        f"e^-r/|alpha| = {target:.6f} requires <= {1.1 * target:.6f}.  The exact value is "
        f"sqrt(|a|^2 e^-2r + sinh^2 r)/(|a|^2 - sinh^2 r) = 0.128820: the discarded sinh^2(r) "
        f"terms are not negligible at alpha=4, r=1, so this stated tolerance cannot be met by "
        f"a faithful simulation (the quantum bound {crb:.6f} does fall inside the corridor)."
    )


def test_criterion_5_noon_heisenberg_scaling():
    t0 = time.monotonic()
    for n in (1, 2, 4, 6, 8):
        table = run_sweep(ScenarioConfig(scenario="noon", n=n, phi_steps=181))
        phis, mean = table.phi, table.mean_o
        assert np.abs(mean - np.cos(n * phis)).max() <= 1e-12
        center = math.pi / (2 * n)
        fine = run_sweep(
            ScenarioConfig(scenario="noon", n=n, phi_start=center - 2e-5, phi_stop=center + 2e-5, phi_steps=5)
        )
        assert abs(fine.delta_phi[2] - 1.0 / n) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(5, "noon-heisenberg", True, f"runtime {elapsed:.2f}s")


def test_criterion_6_fisher_information_table():
    t0 = time.monotonic()
    rows = run_qfi_table(beta_mag=2.0, fock_n=9, noon_n=4)
    expected = {"coherent": 16.0, "fock": 9.0, "noon": 16.0}
    for r in rows:
        want = expected[r.case.split()[0]]
        assert abs(r.f_q - want) <= 1e-8
        assert abs(r.f_q_numeric - r.f_q) <= 1e-5 * r.f_q
    coherent = next(r for r in rows if r.case.startswith("coherent"))
    assert abs(coherent.ratio - math.sqrt(2)) <= 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(6, "fisher-table", True, f"F = {[round(r.f_q, 6) for r in rows]}, runtime {elapsed:.2f}s")


def test_criterion_7_metric_cross_check():
    t0 = time.monotonic()
    rows = run_metric_check(beta_mag=2.0, noon_n=4)
    for r in rows:
        assert r.rel_error <= 1e-5, f"{r.family} at phi={r.phi}: rel {r.rel_error:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(7, "metric-cross-check", True, f"worst rel err {max(r.rel_error for r in rows):.2e}, runtime {elapsed:.2f}s")


def test_criterion_8_loss_and_post_selection():
    t0 = time.monotonic()
    n, eta, phi = 4, 0.9, 0.6
    ideal = noon_output_distribution(n, phi)
    lossless_parity = math.cos(n * phi)
    lossy = lossy_distribution(ideal, eta, eta)
    n1, n2 = index_pairs(lossy.n_cap)
    keep = (n1 + n2) == n
    kept_mass = float(np.sum(lossy.probs[keep]))
    signs = np.where(n1 % 2 == 0, 1.0, -1.0)
    conditional = float(np.sum(lossy.probs[keep] * signs[keep])) / kept_mass
    assert abs(conditional - lossless_parity) <= 1e-12

    trials, seed = 100_000, 20240817
    hist = sample_counts(lossy, trials, seed)
    filtered = parity_from_histogram(hist, post_select_total=n)
    assert abs(filtered.estimate - lossless_parity) <= 4 * filtered.stderr
    expected_keep = eta**n
    keep_stderr = math.sqrt(expected_keep * (1 - expected_keep) / trials)
    assert abs(filtered.kept_fraction - expected_keep) <= 4 * keep_stderr
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(
        8,
        "loss-post-selection",
        True,
        f"conditional exact, MC filtered {filtered.estimate:.4f} vs {lossless_parity:.4f} "
        f"(stderr {filtered.stderr:.4f}), kept {filtered.kept_fraction:.4f} vs {expected_keep:.4f}, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_9_structural_invariants():
    t0 = time.monotonic()
    # rotation blocks stay orthogonal far up the photon ladder
    for tj in range(0, 101):
        d = wigner_d_block(tj, math.pi / 2)
        assert np.abs(d @ d.T - np.eye(tj + 1)).max() <= 1e-12
    # half-turn identity: exact antidiagonal with alternating signs
    for tj in (1, 2, 3, 6, 9, 12):
        d = wigner_d_block(tj, -math.pi)
        want = np.zeros((tj + 1, tj + 1))
        for i in range(tj + 1):
            want[i, tj - i] = (-1.0) ** i
        assert np.array_equal(d, want)
    # output number difference pulls back to the in-arm exchange observable
    for seed in range(50):
        s = random_state(3 + seed % 9, seed=7000 + seed)
        out = beam_splitter(s, BS2_JY)
        assert abs(expect_j(out, "z") - expect_j(s, "x")) <= 1e-10
        assert abs(expect_j2(out, "z") - expect_j2(s, "x")) <= 1e-10
    # parity squares to the identity
    for seed in range(10):
        d = photon_distribution(random_state(6, seed=8000 + seed))
        assert abs(d.total() - 1.0) <= 1e-12
    # uncertainty product
    for seed in range(100):
        s = random_state(4 + seed % 8, seed=9000 + seed)
        assert abs(uncertainty_product(s) - 1.0) <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(9, "structural-invariants", True, f"runtime {elapsed:.1f}s")
