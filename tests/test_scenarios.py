import math
import os
import stat
import tempfile
from dataclasses import FrozenInstanceError, astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzlab.cli import main as cli_main
from mzlab.errors import ConfigError, TruncationError
from mzlab.estimation import SINGULAR, error_propagation, is_singular, qfi_analytic, qfi_numeric
from mzlab.fock import TwoModeState, normalize
from mzlab.measurement import jz_moments, parity_expectation, photon_distribution
from mzlab.optics import (BS1_SYMMETRIC, BS2_JX, BS2_JY, beam_splitter, eval_harmonics, expect_j, expect_j2, phase_generator,
                          phase_shift)
from mzlab.scenarios import (
    SCENARIO_NAMES,
    SCENARIOS,
    SWEEP_COLUMNS,
    ScenarioConfig,
    _assemble_table,
    _phi_text,
    coherent_probe,
    config_lines,
    noon_output_distribution,
    parse_config_text,
    run_metric_check,
    run_noon_sampling,
    run_qfi_table,
    run_sweep,
    squeezed_probe,
    write_metric_csv,
    write_qfi_table_csv,
)
from mzlab.states import fock_after_symmetric_bs, noon_state, product_state, twin_fock

SINC_181 = math.sin(math.pi / 180) / (math.pi / 180)  # grid derivative attenuation


def two_mode(probe) -> TwoModeState:
    """The probe as a two-mode state, a product probe expanded on its basis: the oracle of the product readouts."""
    if isinstance(probe, TwoModeState):
        return probe
    psi = product_state(probe.a, probe.b, probe.n_cap, eps_trunc=1.0)  # deficit checked by product_probe
    return beam_splitter(psi, BS1_SYMMETRIC) if probe.bs1 else psi


# ----- closed forms ---------------------------------------------------------------


def closed_form_oracle(name: str, cfg: ScenarioConfig, phi: float) -> float | None:
    """The textbook delta-phi of each scenario at one phase, one point at a time."""
    if name == "coherent":
        amp = cfg.alpha_mag * cfg.beta_mag
        s = abs(math.sin(phi + (cfg.theta2 - cfg.theta1)))
        if amp == 0.0 or s == 0.0:
            return math.inf
        return math.sqrt(cfg.alpha_mag**2 + cfg.beta_mag**2) / (2 * amp) / s
    if name == "fock":
        return 1.0 / math.sqrt(cfg.n) if abs(math.sin(phi)) > 1e-12 else None
    if name == "squeezed":
        if cfg.alpha_mag > 0 and abs(math.cos(phi)) <= 1e-9:
            return math.exp(-cfg.r) / cfg.alpha_mag
        return None
    if name == "noon":
        return 1.0 / cfg.n if abs(math.sin(cfg.n * phi)) > 1e-12 else None
    return None


CLOSED_FORM_CASES = [
    ("coherent", {}), ("coherent", {"alpha_mag": 0.0}), ("coherent", {"alpha_mag": 1.3, "beta_mag": 0.7, "theta2": 0.4}),
    ("coherent", {"theta1": math.pi / 2}), ("fock", {"n": 1}), ("fock", {"n": 7}), ("twin_fock", {"n": 3}),
    ("squeezed", {"alpha_mag": 4.0, "r": 1.0}), ("squeezed", {"alpha_mag": 0.0, "r": 0.0}), ("noon", {"n": 1}),
    ("noon", {"n": 6}), ("noon", {"n": 16}),
]
CLOSED_FORM_GRIDS = [np.linspace(0.0, math.pi, 181), np.linspace(-math.pi, math.pi, 8), np.linspace(0.0, 1e-320, 5),
                     np.linspace(math.pi / 2 - 1e-9, math.pi / 2 + 1e-9, 7)]


@pytest.mark.parametrize("name,values", CLOSED_FORM_CASES, ids=[f"{n}-{i}" for i, (n, _) in enumerate(CLOSED_FORM_CASES)])
def test_closed_form_columns_match_the_per_point_oracle_byte_for_byte(name, values):
    cfg = replace(ScenarioConfig(scenario=name), **values)
    for phis in CLOSED_FORM_GRIDS:
        got = SCENARIOS[name].closed_form(cfg, phis)
        assert list(map(repr, got)) == [repr(closed_form_oracle(name, cfg, float(phi))) for phi in phis]


# ----- coherent -----------------------------------------------------------------

def test_coherent_sweep_matches_closed_form():
    cfg = ScenarioConfig(scenario="coherent", alpha_mag=2.0, beta_mag=2.0, n_cap=40, phi_steps=181)
    table = run_sweep(cfg)
    mid = 90  # phi = pi/2
    assert table.mean_o[mid] == pytest.approx(0.0, abs=1e-10)
    assert table.closed_form_delta_phi[mid] == pytest.approx(1 / math.sqrt(8), abs=1e-12)
    assert table.delta_phi[mid] == pytest.approx(table.closed_form_delta_phi[mid] / SINC_181, rel=1e-9)
    assert table.mean_o[0] == pytest.approx(4.0, abs=1e-10)  # |alpha||beta| at phi = 0
    assert is_singular(table.delta_phi[0])  # endpoint
    assert table.qfi == pytest.approx(16.0, abs=1e-8)
    assert table.crb == pytest.approx(0.25, abs=1e-9)


def test_coherent_theta_offset_shifts_fringe():
    cfg = ScenarioConfig(scenario="coherent", theta1=0.3, theta2=0.9, n_cap=40, phi_steps=61)
    table = run_sweep(cfg)
    phis, mean = table.phi, table.mean_o
    assert np.abs(mean - 4.0 * np.cos(phis + 0.6)).max() <= 1e-9


def test_coherent_dark_second_port():
    cfg = ScenarioConfig(scenario="coherent", alpha_mag=2.0, beta_mag=0.0, n_cap=30, phi_steps=21)
    table = run_sweep(cfg)
    assert all(is_singular(x) for x in table.delta_phi)


# ----- fock ----------------------------------------------------------------------

def test_fock_sweep_moments():
    for n in (1, 4, 9):
        cfg = ScenarioConfig(scenario="fock", n=n, phi_steps=61)
        table = run_sweep(cfg)
        phis, mean, var = table.phi, table.mean_o, table.var_o
        assert np.abs(mean - n * np.cos(phis) / 2).max() <= 1e-10
        assert np.abs(var - n * np.sin(phis) ** 2 / 4).max() <= 1e-10
        assert table.qfi == pytest.approx(n, abs=1e-10)


def test_fock_fine_grid_delta_phi():
    n = 16
    cfg = ScenarioConfig(
        scenario="fock", n=n, phi_start=math.pi / 2 - 2e-4, phi_stop=math.pi / 2 + 2e-4, phi_steps=5
    )
    table = run_sweep(cfg)
    assert table.delta_phi[2] == pytest.approx(0.25, abs=1e-8)


def test_fock_single_photon_limits_coincide():
    cfg = ScenarioConfig(scenario="fock", n=1, phi_start=1.2 - 2e-4, phi_stop=1.2 + 2e-4, phi_steps=5)
    table = run_sweep(cfg)
    dp = table.delta_phi[2]
    assert dp == pytest.approx(1.0, rel=1e-6)


# ----- twin fock -------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3, 40])
def test_twin_fock_null_signal(n):
    # the probe is 0 at every odd n2, so every <a+ b> term pairs a zero with its neighbour: the mean is exactly 0
    cfg = ScenarioConfig(scenario="twin_fock", n=n, phi_steps=31)
    table = run_sweep(cfg)
    assert not table.mean_o.any() and not table.d_mean_dphi.any()
    assert all(is_singular(x) for x in table.delta_phi)
    assert "no first-order signal" in table.annotation
    assert all(c is None for c in table.closed_form_delta_phi)


# ----- squeezed --------------------------------------------------------------------

def test_squeezed_mean_small_case():
    cfg = ScenarioConfig(scenario="squeezed", alpha_mag=2.0, r=0.6, theta=0.0, phi_steps=41)
    table = run_sweep(cfg)
    phis, mean = table.phi, table.mean_o
    target = np.cos(phis) * (4.0 - math.sinh(0.6) ** 2)
    assert np.abs(mean - target).max() <= 1e-8


def test_squeezed_signal_exact_outside_working_regime():
    """The mean-signal identity holds at any alpha, r; check it at alpha = 2,
    r = 1 directly (the sweep runner rejects those as outside its regime)."""
    from mzlab.optics import BS1_SYMMETRIC, beam_splitter, expect_j
    from mzlab.states import SqueezeParams, auto_coherent, auto_squeezed, product_state

    a = auto_coherent(2.0 * np.exp(1j * math.pi / 2), 1e-10)
    b = auto_squeezed(SqueezeParams(1.0, 0.0), 1e-10)
    psi = beam_splitter(product_state(a, b, a.cutoff + b.cutoff), BS1_SYMMETRIC)
    pair_mean = 2.0 * expect_j(psi, "x")  # phi = 0
    assert pair_mean == pytest.approx(4.0 - math.sinh(1.0) ** 2, abs=1e-8)
    assert pair_mean == pytest.approx(2.61890, abs=1e-4)


def test_squeezed_r_zero_reduces_to_single_coherent():
    cfg = ScenarioConfig(
        scenario="squeezed", alpha_mag=3.0, r=0.0,
        phi_start=math.pi / 2 - 2e-4, phi_stop=math.pi / 2 + 2e-4, phi_steps=5,
    )
    table = run_sweep(cfg)
    assert table.delta_phi[2] == pytest.approx(1 / 3.0, abs=1e-7)


def test_squeezed_large_probe_signal():
    # n_cap 386: 75,078 two-mode amplitudes, read off the two single-mode arrays instead
    cfg = ScenarioConfig(scenario="squeezed", alpha_mag=8.0, r=1.5, phi_steps=41)
    table = run_sweep(cfg)
    phis = table.phi
    target = np.cos(phis) * (64.0 - math.sinh(1.5) ** 2)
    mean = table.mean_o
    assert np.all(np.abs(mean - target) <= 1e-8 * np.maximum(1.0, np.abs(target)))


def test_squeezed_regime_guard():
    with pytest.raises(ConfigError):
        run_sweep(ScenarioConfig(scenario="squeezed", alpha_mag=1.0, r=1.0))


# ----- noon ------------------------------------------------------------------------

def test_noon_sweep_exact_fringe():
    cfg = ScenarioConfig(scenario="noon", n=4, phi_steps=91)
    table = run_sweep(cfg)
    phis, mean = table.phi, table.mean_o
    assert np.abs(mean - np.cos(4 * phis)).max() <= 1e-12
    assert table.qfi == pytest.approx(16.0, abs=1e-10)
    assert table.second_o[20] == pytest.approx(1.0, abs=1e-12)


def test_noon_single_photon():
    cfg = ScenarioConfig(scenario="noon", n=1, phi_steps=41)
    table = run_sweep(cfg)
    phis, mean = table.phi, table.mean_o
    assert np.abs(mean - np.cos(phis)).max() <= 1e-12


def test_noon_sampling_report():
    cfg = ScenarioConfig(scenario="noon", n=4, eta_a=0.9, eta_b=0.9, trials=20_000, seed=7, post_select=True)
    rep = run_noon_sampling(cfg)
    assert rep.config is cfg
    assert rep.phi == pytest.approx(math.pi / 12)
    assert rep.exact_parity_lossless == pytest.approx(math.cos(4 * rep.phi), abs=1e-12)
    assert abs(rep.filtered.estimate - rep.exact_parity_lossless) <= 4 * rep.filtered.stderr
    assert rep.filtered.kept_fraction == pytest.approx(0.9**4, abs=0.02)
    assert abs(rep.unfiltered.estimate - rep.exact_parity_lossy) <= 4 * rep.unfiltered.stderr
    # filtering trades events for bias removal
    assert rep.filtered.kept_fraction < 1.0


def test_readme_tour_runs_on_the_package_namespace():
    # the package re-exports only the tour's names, so the tour is what pins them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(tour, scope)
    assert abs(scope["parity"]) <= 1e-14
    assert abs(scope["f_q"] - 16) <= 1e-14 * 16


def test_noon_sampling_requires_noon():
    cfg = ScenarioConfig(scenario="fock", n=4)
    with pytest.raises(ConfigError):
        run_noon_sampling(cfg)


# ----- harmonic sweeps against direct evolution ------------------------------------------

def direct_sweep(cfg: ScenarioConfig):
    """The sweep evolved and measured at every grid point, as the reference."""
    phis = cfg.phi_grid()
    mean, second = np.empty_like(phis), np.empty_like(phis)
    if cfg.scenario == "noon":
        psi, generator = noon_state(cfg.n), "relative"
        for i, phi in enumerate(phis):
            d = noon_output_distribution(cfg.n, float(phi))
            mean[i], second[i] = parity_expectation(d, "a"), d.total()
        closed = [1 / cfg.n if abs(math.sin(cfg.n * phi)) > 1e-12 else None for phi in phis]
        return _assemble_table("noon", phis, mean, second, qfi_analytic(psi, generator), closed, "relative/parity_a")

    def expanded(probe):  # the product probe as a two-mode state on its basis
        return product_state(probe.a, probe.b, probe.n_cap, cfg.epsilon_trunc)

    psi = {
        "coherent": lambda: expanded(coherent_probe(cfg)),
        "fock": lambda: fock_after_symmetric_bs(cfg.n),
        "twin_fock": lambda: beam_splitter(twin_fock(cfg.n), BS1_SYMMETRIC),
        "squeezed": lambda: beam_splitter(expanded(squeezed_probe(cfg)), BS1_SYMMETRIC),
    }[cfg.scenario]()
    scale = 2.0 if cfg.scenario == "squeezed" else 1.0
    for i, phi in enumerate(phis):
        inside = phase_shift(psi, float(phi), "mode_b")
        if cfg.scenario in ("coherent", "fock"):
            mean[i], second[i] = jz_moments(photon_distribution(beam_splitter(inside, BS2_JY)))
        else:
            mean[i], second[i] = scale * expect_j(inside, "x"), scale**2 * expect_j2(inside, "x")
    fisher = qfi_analytic(psi, "mode_b")
    if cfg.scenario == "coherent":
        amp, dc = cfg.alpha_mag * cfg.beta_mag, cfg.theta2 - cfg.theta1
        root = math.sqrt(cfg.alpha_mag**2 + cfg.beta_mag**2) / (2 * amp) if amp else math.inf
        closed = [root / abs(math.sin(phi + dc)) if math.sin(phi + dc) != 0 else math.inf for phi in phis]
        return _assemble_table("coherent", phis, mean, second, fisher, closed, "mode_b/jz_half")
    if cfg.scenario == "fock":
        closed = [1 / math.sqrt(cfg.n) if abs(math.sin(phi)) > 1e-12 else None for phi in phis]
        return _assemble_table("fock", phis, mean, second, fisher, closed, "mode_b/jz_half")
    if cfg.scenario == "twin_fock":
        return _assemble_table("twin_fock", phis, mean, second, fisher, [None] * phis.size, "mode_b/jx_half")
    opt = math.exp(-cfg.r) / cfg.alpha_mag
    closed = [opt if abs(math.cos(phi)) <= 1e-9 else None for phi in phis]
    return _assemble_table("squeezed", phis, mean, second, fisher, closed, "mode_b/jx_pair")


ORACLE_CASES = [
    ScenarioConfig(scenario="coherent", alpha_mag=1.7, beta_mag=2.3, theta1=0.3, theta2=0.9, n_cap=40),
    ScenarioConfig(scenario="fock", n=16),
    ScenarioConfig(scenario="twin_fock", n=3),
    ScenarioConfig(scenario="squeezed", alpha_mag=3.0, r=0.5, phi_steps=61),
    ScenarioConfig(scenario="noon", n=5),
]


@pytest.mark.parametrize("cfg", ORACLE_CASES, ids=[c.scenario for c in ORACLE_CASES])
def test_harmonic_sweep_matches_direct_evolution(cfg):
    assert_sweep_matches_direct_evolution(cfg)


# n_cap below the cutoffs 76 + 40, so the BS1 plan reads partial pair sums.  At 90 (deficit 1.4e-7) the cut pairs
# move no cell by more than 7.7e-15 relative, below the tolerances; at 60 (deficit 2.1e-7) they move second_o by
# 5.3e-6 and the mean by 4.7e-8
TRUNCATED_SQUEEZED = [
    ScenarioConfig(scenario="squeezed", alpha_mag=4.0, r=0.9, n_cap=n_cap, epsilon_trunc=1e-6, phi_steps=41) for n_cap in (90, 60)
]


@pytest.mark.parametrize("cfg", TRUNCATED_SQUEEZED, ids=[f"n_cap{c.n_cap}" for c in TRUNCATED_SQUEEZED])
def test_truncated_squeezed_sweep_matches_direct_evolution(cfg):
    probe = squeezed_probe(cfg)
    assert (probe.a.cutoff, probe.b.cutoff) == (76, 40) and 1e-7 < probe.deficit <= cfg.epsilon_trunc
    assert_sweep_matches_direct_evolution(cfg)


def assert_sweep_matches_direct_evolution(cfg: ScenarioConfig):
    got, want = run_sweep(cfg), direct_sweep(cfg)
    assert got.scenario == want.scenario and got.phi.size == want.phi.size
    # product probes sum the Fisher information on the single-mode arrays, in another order; the sweep's twin_fock
    # probe is the closed-form column, and the oracle's the climbed block, independent builds that agree to rounding
    fisher_rel = 1e-13 if cfg.scenario in ("coherent", "squeezed", "twin_fock") else 0.0
    assert got.convention == want.convention
    for name in ("qfi", "crb"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=fisher_rel, abs=0.0), name
    for i in range(want.phi.size):
        for name in ("phi", "closed_form_delta_phi"):
            assert getattr(got, name)[i] == getattr(want, name)[i], name
        for name in ("mean_o", "second_o"):
            g, w = getattr(got, name)[i], getattr(want, name)[i]
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), name
        assert got.var_o[i] == pytest.approx(want.var_o[i], rel=1e-9, abs=1e-12 * max(1.0, want.second_o[i]))
        assert is_singular(got.delta_phi[i]) == is_singular(want.delta_phi[i])
        if not is_singular(want.delta_phi[i]):
            assert got.delta_phi[i] == pytest.approx(want.delta_phi[i], rel=1e-8)
    # d_mean_dphi holds the interior points only: the derivative is undefined at both endpoints
    assert got.d_mean_dphi.shape == want.d_mean_dphi.shape == (want.phi.size - 2,)
    for g, w in zip(got.d_mean_dphi, want.d_mean_dphi):
        assert g == pytest.approx(w, rel=1e-9, abs=1e-9)


# ----- columnar table against the row-by-row reference ----------------------------------

def per_point(table) -> list[list]:
    """Each column of the table in ``SWEEP_COLUMNS`` order, one Python value per grid point,
    with None where d_mean_dphi is undefined."""
    n = table.phi.size
    return [table.phi.tolist(), table.mean_o.tolist(), table.second_o.tolist(), table.var_o.tolist(),
            [None, *table.d_mean_dphi.tolist(), None], table.delta_phi.tolist(), [table.qfi] * n, [table.crb] * n,
            list(table.closed_form_delta_phi), [table.convention] * n]


def reference_table(phis, mean, second, qfi, crb, closed, convention):
    """The sweep table built point by point with scalar float operations: (row tuples, CSV text).

    This is the row-by-row assembly and cell formatting the columnar table
    replaced; the columnar table must reproduce it to the byte.
    """
    step = float(phis[1] - phis[0])
    floor = min(1.0, math.sqrt(max(0.0, *second))) or 1.0  # the rms of the curve, 1 for an all-zero one
    rows = []
    for i, phi in enumerate(phis):
        d, dp = None, SINGULAR
        if 1 <= i <= phis.size - 2:
            d = float((mean[i + 1] - mean[i - 1]) / (2 * step))
            m = mean[i]
            if d != 0 and not abs(d) < 1e-9 * max(floor, abs(m)) / step:
                dp = math.sqrt(max(0.0, float(second[i] - m * m))) / abs(d)
        var = max(0.0, second[i] - mean[i] * mean[i])  # the same square as dp above
        rows.append((float(phi), float(mean[i]), float(second[i]), float(var), d, dp, qfi, crb, closed[i], convention))

    def fmt(x):
        if x is None:
            return ""
        if math.isinf(x):
            return "inf"
        return f"{x:.17g}"

    lines = ["phi,mean_o,second_o,var_o,d_mean_dphi,delta_phi,qfi,crb,closed_form_delta_phi,convention"]
    for r in rows:
        lines.append(",".join([*map(fmt, r[:-1]), r[-1]]))
    return rows, "\n".join(lines) + "\n"


def assert_matches_reference(table, phis, mean, second, closed):
    rows, text = reference_table(phis, mean, second, table.qfi, table.crb, closed, table.convention)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        table.write_csv(path)
        assert path.read_bytes() == text.encode("utf-8")
    assert table.phi.size == len(rows)
    for name, got, want in zip(SWEEP_COLUMNS, per_point(table), zip(*rows), strict=True):
        assert got == list(want), name
        assert [type(v) for v in got] == [type(v) for v in want], name


TAIL_CASES = ORACLE_CASES + [
    ScenarioConfig(scenario="fock", n=3, phi_steps=3),
    ScenarioConfig(scenario="twin_fock", n=2, phi_steps=21),  # every delta_phi SINGULAR
    ScenarioConfig(scenario="coherent", alpha_mag=0.0, beta_mag=2.0, n_cap=30, phi_steps=21),
]


@pytest.mark.parametrize("cfg", TAIL_CASES, ids=[f"{c.scenario}-{c.phi_steps}" for c in TAIL_CASES])
def test_columnar_table_matches_row_reference(cfg):
    table = run_sweep(cfg)
    assert table.phi.size == cfg.phi_steps
    assert_matches_reference(table, table.phi, table.mean_o, table.second_o, list(table.closed_form_delta_phi))


# Python's pow() squares these one bit away from x * x
POW_DIFFERS = (7.2249061795510094, 5.5843648958137475, -1.9548520872562296)


@st.composite
def random_curves(draw):
    """A uniform grid with means that mix free values, pow-sensitive values, flat stretches
    and differences right at the SINGULAR threshold; variances that are free, zero or
    slightly negative (clipped to 0).  Hypothesis picks the pattern, a seeded generator
    the values, which keeps each example cheap to draw."""
    n = draw(st.integers(3, 25))
    step = draw(st.sampled_from([1e-4, 0.01, math.pi / 180, 0.3]))
    kinds = draw(st.lists(st.sampled_from(["free", "pow", "flat", "threshold"]), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phis = rng.uniform(-4.0, 4.0) + step * np.arange(n)
    mean: list[float] = []
    for i, kind in enumerate(kinds):
        if kind == "pow":
            mean.append(float(rng.choice(POW_DIFFERS)))
        elif kind == "flat" and i >= 1:
            mean.append(mean[i - 1])
        elif kind == "threshold" and i >= 2:
            # |m[i] - m[i-2]| = c * 2e-9 max(1, |m[i-1]|) puts |d| at c times the threshold
            c = float(rng.choice([0.5, 0.999999, 1.0, 1.000001, 2.0]))
            mean.append(mean[i - 2] + c * 2e-9 * max(1.0, abs(mean[i - 1])))
        else:
            mean.append(float(rng.uniform(-10.0, 10.0)))
    m = np.array(mean)
    var = np.where(rng.random(n) < 0.3, rng.choice([0.0, -5e-11], n), rng.uniform(0.0, 10.0, n))
    closed = [[None, math.inf, float(x)][k] for k, x in zip(rng.integers(0, 3, n), rng.uniform(0.0, 5.0, n))]
    return phis, m, m * m + var, closed


@settings(max_examples=150, deadline=None)
@given(random_curves())
@example((np.arange(4) * 0.01, np.array([*POW_DIFFERS, POW_DIFFERS[2]]),
          np.array(POW_DIFFERS + (POW_DIFFERS[2],)) ** 2 + 0.25, [None, 1.0, math.inf, None]))
@example((0.5 * np.arange(3), np.array([0.0, 0.5, 2e-9]), np.array([1.0, 1.25, 1.0]), [None] * 3))  # |d| == threshold
def test_columnar_table_matches_row_reference_on_random_curves(curve):
    phis, mean, second, closed = curve
    table = _assemble_table("fock", phis, mean, second, 3.0, closed, "mode_b/jz_half")
    assert table.qfi == 3.0 and table.crb == 1 / math.sqrt(3.0)
    assert_matches_reference(table, phis, mean, second, closed)


def test_probe_without_fisher_information_writes_an_infinite_bound():
    # an empty arm b carries no n2 variance: F_Q = 0 and the table's crb is inf, not a refusal
    table = run_sweep(ScenarioConfig(scenario="coherent", alpha_mag=2.0, beta_mag=0.0, phi_steps=5))
    assert table.qfi == 0.0 and table.crb == math.inf


# ----- cross-cutting table invariants ------------------------------------------------

def test_every_finite_delta_phi_dominates_crb():
    for cfg in (
        ScenarioConfig(scenario="coherent", n_cap=40, phi_steps=61),
        ScenarioConfig(scenario="fock", n=9, phi_steps=61),
        ScenarioConfig(scenario="noon", n=4, phi_steps=61),
        ScenarioConfig(scenario="squeezed", alpha_mag=3.0, r=0.5, phi_steps=21),
    ):
        table = run_sweep(cfg)
        for dp in table.delta_phi:
            if not is_singular(dp):
                assert dp >= table.crb * (1 - 1e-6)


# fixed-N sweeps, product probes on a 3 x 3 grid each, and the two squeezed inputs of the benchmark workloads
IDENTITY_CASES = (
    [ScenarioConfig(scenario="fock", n=n) for n in range(1, 33)]
    + [ScenarioConfig(scenario="noon", n=n) for n in range(1, 17)]
    + [ScenarioConfig(scenario="twin_fock", n=n) for n in range(1, 9)]
    + [ScenarioConfig(scenario="coherent", alpha_mag=a, beta_mag=b) for a in (0.5, 2.0, 5.0) for b in (1.0, 2.0, 3.0)]
    + [ScenarioConfig(scenario="squeezed", alpha_mag=a, r=r) for a in (4.0, 6.0, 9.0) for r in (0.3, 0.6, 1.0)]
    + [ScenarioConfig(scenario="squeezed", alpha_mag=3.7315, r=0.9462),
       ScenarioConfig(scenario="squeezed", alpha_mag=4.1603, r=0.9362)]
)


def test_delta_phi_is_the_root_of_var_o_over_the_slope_bit_for_bit():
    # the CSV's own columns reproduce delta_phi exactly: var_o is the variance delta_phi was divided from
    broken = []
    for cfg in IDENTITY_CASES:
        table = run_sweep(cfg)
        var, d, delta = table.var_o.tolist(), table.d_mean_dphi.tolist(), table.delta_phi.tolist()
        broken += [(cfg.scenario, cfg.n, cfg.alpha_mag, cfg.beta_mag, cfg.r, i) for i in range(1, len(var) - 1)
                   if math.isfinite(delta[i]) and delta[i] != math.sqrt(var[i]) / abs(d[i - 1])]
    assert broken == []


_CLOSING_SPLITTER = {"mode_b": BS2_JY, "relative": BS2_JX}
CHAIN_CASES = [
    ScenarioConfig(scenario="coherent", alpha_mag=1.5, beta_mag=1.0, n_cap=30),
    ScenarioConfig(scenario="fock", n=8),
    ScenarioConfig(scenario="twin_fock", n=3),
    ScenarioConfig(scenario="squeezed", alpha_mag=2.0, r=0.4, n_cap=30),
    ScenarioConfig(scenario="noon", n=5),
]


def counting_fisher(conv, psi, phi):
    """F_C = sum (dp/dphi)^2 / p of the output counts after the arm phase ``conv`` and its closing splitter.

    dp/dphi is exact: the phase exp(i c phi K) differentiates to i c K, applied before the splitter.
    """
    c, k = phase_generator(psi.n_cap, conv)
    inside = phase_shift(psi, phi, conv)
    out = beam_splitter(inside, _CLOSING_SPLITTER[conv]).amps
    d_out = beam_splitter(inside.with_amps(1j * c * k * inside.amps), _CLOSING_SPLITTER[conv]).amps
    p, dp = np.abs(out) ** 2, 2 * (out.conj() * d_out).real
    return float(np.sum(np.divide(dp * dp, p, out=np.zeros_like(p), where=p > 0)))


@pytest.mark.parametrize("grid", [(0.0, math.pi, 181), (0.1, 3.0, 30)], ids=["default", "coarse"])
@pytest.mark.parametrize("cfg", CHAIN_CASES, ids=[c.scenario for c in CHAIN_CASES])
def test_counting_fisher_lies_between_error_propagation_and_the_quantum_bound(cfg, grid):
    """1/delta_phi^2 <= F_C <= F_Q at every interior grid point: every readout is a function of the counts."""
    cfg = replace(cfg, phi_start=grid[0], phi_stop=grid[1], phi_steps=grid[2])
    sc = SCENARIOS[cfg.scenario]
    table = run_sweep(cfg)
    psi = two_mode(sc.probe(cfg))
    for phi, dp in zip(table.phi[1:-1].tolist(), table.delta_phi[1:-1].tolist()):
        f_c = counting_fisher(sc.phase, psi, phi)
        assert 1 / dp**2 <= f_c * (1 + 1e-12), (phi, dp, f_c)
        assert f_c <= table.qfi * (1 + 1e-12), (phi, f_c, table.qfi)
        if cfg.scenario == "fock":
            assert f_c == pytest.approx(cfg.n, rel=1e-12)


def test_sweep_csv_deterministic(tmp_path):
    cfg = ScenarioConfig(scenario="fock", n=5, phi_steps=31)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(cfg).write_csv(a)
    run_sweep(cfg).write_csv(b)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "phi,mean_o,second_o,var_o,d_mean_dphi,delta_phi,qfi,crb,closed_form_delta_phi,convention"


def test_sweep_csv_singular_and_na_serialization(tmp_path):
    cfg = ScenarioConfig(scenario="twin_fock", n=2, phi_steps=11)
    path = tmp_path / "t.csv"
    run_sweep(cfg).write_csv(path)
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    assert cells[4] == ""  # endpoint derivative: not defined
    assert cells[5] == "inf"  # SINGULAR
    assert cells[8] == ""  # no closed form
    assert cells[9] == "mode_b/jx_half"


# ----- the in-place CSV writes -----------------------------------------------------

def _row_by_row_csv(table) -> str:
    """The sweep CSV formatted cell by cell, with no template and no memo."""
    *numbers, convention = per_point(table)
    cells = zip(*([f"{x:.17g}" if x is not None else "" for x in col] for col in numbers), convention)
    return ",".join(SWEEP_COLUMNS) + "\n" + "".join(",".join(row) + "\n" for row in cells)


def _sweep_csv(steps: int):
    return lambda path: run_sweep(ScenarioConfig(scenario="coherent", phi_steps=steps)).write_csv(path)


# (long write, short write) per CSV writer; the short one goes over the long one
OVERWRITES = {
    "sweep": (_sweep_csv(181), _sweep_csv(3)),
    "qfi-table": (lambda path: write_qfi_table_csv(run_qfi_table(), path),
                  lambda path: write_qfi_table_csv(run_qfi_table()[:1], path)),
    "metric-check": (lambda path: write_metric_csv(run_metric_check(), path),
                     lambda path: write_metric_csv(run_metric_check()[:2], path)),
}


@pytest.mark.parametrize("name", OVERWRITES)
def test_a_shorter_csv_over_a_longer_one_leaves_no_tail(tmp_path, name):
    long, short = OVERWRITES[name]
    long(tmp_path / "reused.csv")
    long_size = (tmp_path / "reused.csv").stat().st_size
    short(tmp_path / "reused.csv")
    short(tmp_path / "fresh.csv")
    assert (tmp_path / "reused.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert (tmp_path / "fresh.csv").stat().st_size < long_size


def test_sweep_csv_to_devnull_exits_zero(capsys):
    assert cli_main(["sweep", "--scenario", "fock", "--n", "3", "--out", os.devnull]) == 0
    assert cli_main(["qfi-table", "--out", os.devnull]) == 0


def test_csv_written_through_links_keeps_them(tmp_path):
    target, link, hard = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "hard.csv"
    target.write_text("x" * 100_000)
    link.symlink_to(target)
    os.link(target, hard)
    table = run_sweep(ScenarioConfig(scenario="fock", n=3, phi_steps=5))
    table.write_csv(link)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text() == hard.read_text() == _row_by_row_csv(table)


def test_new_csv_gets_the_mode_the_umask_leaves(tmp_path):
    old = os.umask(0o027)
    try:
        run_sweep(ScenarioConfig(scenario="fock", n=3, phi_steps=5)).write_csv(tmp_path / "new.csv")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o666 & ~0o027


def test_phi_text_memo_stays_bounded_and_csvs_stay_exact(tmp_path):
    bound = _phi_text.cache_info().maxsize
    assert bound == 8
    texts = {}
    for steps in [*range(3, 3 + bound + 4), 3, 4]:  # more distinct grids than the bound, then the evicted first ones
        table = run_sweep(ScenarioConfig(scenario="coherent", phi_steps=steps))
        table.write_csv(tmp_path / "s.csv")
        text = (tmp_path / "s.csv").read_text()
        assert text == _row_by_row_csv(table) == texts.setdefault(steps, text)
        assert _phi_text.cache_info().currsize <= bound


def test_template_formats_every_double_as_fmt():
    rng = np.random.default_rng(5)
    specials = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    for x in [*specials, *rng.standard_normal(2000).tolist(), *rng.integers(0, 2**64, 2000, dtype=np.uint64).view(np.float64).tolist()]:
        assert "%.17g" % x == f"{x:.17g}"


# ----- qfi table and metric check -----------------------------------------------------

def test_qfi_table_values():
    rows = run_qfi_table(beta_mag=2.0, fock_n=9, noon_n=4)
    assert len(rows) == 3
    by_case = {r.case.split()[0]: r for r in rows}
    assert by_case["coherent"].f_q == pytest.approx(16.0, abs=1e-8)
    assert by_case["fock"].f_q == pytest.approx(9.0, abs=1e-8)
    assert by_case["noon"].f_q == pytest.approx(16.0, abs=1e-8)
    assert by_case["coherent"].ratio == pytest.approx(math.sqrt(2), abs=1e-6)
    assert by_case["fock"].ratio == pytest.approx(1.0, abs=1e-6)
    for r in rows:
        assert r.f_q_numeric == pytest.approx(r.f_q, rel=1e-5)
        assert r.delta_phi_min == pytest.approx(1 / math.sqrt(r.f_q), abs=1e-12)


@pytest.mark.parametrize("beta", [1e-4, 3e-3, 1e-2])
def test_weak_coherent_row_keeps_its_error_propagation(beta):
    # the fringe slope beta^2 sits below 1e-9 / step = 1e-5 for beta < 3.2e-3; the singular floor scales
    # with the curve's rms, so a weak probe still reads the sqrt(2) of the strong one, not inf
    (row, *_) = run_qfi_table(beta_mag=beta)
    assert row.delta_phi_error_prop == pytest.approx(math.sqrt(2) / (2 * beta), rel=1e-6)
    assert row.ratio == pytest.approx(math.sqrt(2), abs=1e-6)


def test_zero_mean_curve_stays_singular_everywhere():
    # twin_fock's exchange readout has mean 0 at every phase, and a second moment that reaches 4.25: no slope to invert
    table = run_sweep(ScenarioConfig(scenario="twin_fock", n=3, phi_start=-1.0, phi_stop=1.0, phi_steps=5))
    assert np.abs(table.mean_o).max() < 1e-30 and table.second_o.max() > 1  # rounding residue of a zero mean
    assert table.delta_phi.tolist() == [SINGULAR] * 5


def test_metric_check_rows():
    rows = run_metric_check(beta_mag=2.0, noon_n=4)
    assert len(rows) == 6
    for r in rows:
        assert r.rel_error <= 1e-5


def two_mode_coherent_rows(beta: float) -> tuple[tuple, tuple]:
    """The coherent rows of qfi-table (f_q, delta_phi_min, delta_phi_error_prop, ratio) and of metric-check
    (quarter_f_q) as the tables took them on the expanded two-mode state, the unnormalised one for qfi-table
    and the renormalised one for metric-check."""
    sc = SCENARIOS["coherent"]
    psi = two_mode(coherent_probe(ScenarioConfig(scenario="coherent", alpha_mag=beta, beta_mag=beta)))
    f_q = qfi_analytic(psi, "mode_b")
    mean_c, second_c = sc.readout(psi)
    phis = math.pi / 2 + 1e-4 * np.arange(-2.0, 3.0)
    _, _, delta = error_propagation(phis, eval_harmonics(mean_c, phis), eval_harmonics(second_c, phis))
    bound = 1 / math.sqrt(f_q)
    return (f_q, bound, float(delta[2]), float(delta[2]) / bound), (qfi_analytic(normalize(psi), "mode_b") / 4,)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 2.5, 5.0])
def test_coherent_table_rows_match_the_two_mode_oracle(beta):
    # the rows read mode b's weights of the normalised probe; the expanded state gives the same numbers to
    # rounding (f_q_numeric and the metric rate are held to their 200-bit references in test_exact.py)
    (qfi_row, *_), (metric_row, *_) = run_qfi_table(beta_mag=beta), run_metric_check(beta_mag=beta)
    (f_q, bound, dp, ratio), (quarter,) = two_mode_coherent_rows(beta)
    got = [qfi_row.f_q, qfi_row.delta_phi_min, qfi_row.delta_phi_error_prop, qfi_row.ratio, metric_row.quarter_f_q]
    for name, x, want in zip(("f_q", "delta_phi_min", "delta_phi_error_prop", "ratio", "quarter_f_q"), got,
                             (f_q, bound, dp, ratio, quarter)):
        assert abs(x - want) <= 1.1e-13 * max(1.0, abs(want)), (name, x, want)


NUMERIC_ORACLE_CASES = ([("fock", n) for n in range(1, 17)] + [("noon", n) for n in range(1, 9)]
                        + [("coherent", beta) for beta in (0.5, 1.0, 2.0, 2.5)])


@pytest.mark.parametrize("family, size", NUMERIC_ORACLE_CASES, ids=[f"{f}-{x:g}" for f, x in NUMERIC_ORACLE_CASES])
def test_table_f_q_numeric_matches_the_evolved_stencil(family, size):
    # f_q_numeric is read on the probe's weights; qfi_numeric differentiates the phase-shifted two-mode probe
    # (the normalised product_state expansion for the coherent row) at the same step h = 1e-4
    if family == "coherent":
        (row, *_) = run_qfi_table(beta_mag=size)
        probe = normalize(two_mode(coherent_probe(ScenarioConfig(scenario="coherent", alpha_mag=size, beta_mag=size))))
    else:
        row = run_qfi_table(**{f"{family}_n": size})[1 if family == "fock" else 2]
        probe = SCENARIOS[family].probe(ScenarioConfig(scenario=family, n=size))
    phase = SCENARIOS[family].phase
    want = qfi_numeric(lambda phi: phase_shift(probe, phi, phase), 0.7, h=1e-4)
    assert abs(row.f_q_numeric - want) <= 2e-12 * want, (row.f_q_numeric, want)


@pytest.mark.parametrize("run, n_caps", [(run_qfi_table, [9, 4]), (run_metric_check, [4])], ids=["qfi-table", "metric-check"])
def test_tables_build_no_two_mode_state_for_the_coherent_row(monkeypatch, run, n_caps):
    # at beta 40 the expanded coherent pair would take n_cap 4,040 (~8.2M amplitudes); every row is read on its
    # weights, so the only two-mode states built are the fock and noon probes themselves (fock 9 and noon 4 by
    # default), and no phase-shifted copy of them
    built, init = [], TwoModeState.__post_init__

    def record(self):
        built.append(self.n_cap)
        init(self)

    monkeypatch.setattr(TwoModeState, "__post_init__", record)
    run(beta_mag=40.0)
    assert built == n_caps


def finite_step_rate(cfg: ScenarioConfig, h: float) -> float:
    """The rate (1 - |<psi|psi(h)>|^2) / h^2 that metric-check estimates, summed with no cancellation.

    psi(h) multiplies the weight q_K of each generator value K by exp(i c h K), so
    1 - |<psi|psi(h)>|^2 = sum_{K, K'} 2 q_K q_K' sin^2(c h (K - K') / 2) / (sum q)^2, every term >= 0.
    q is summed per K from the state metric-check uses (before its renormalisation, which cancels).
    """
    sc = SCENARIOS[cfg.scenario]
    psi = two_mode(sc.probe(cfg))
    c, k = phase_generator(psi.n_cap, sc.phase)
    p = np.abs(psi.amps) ** 2
    values = [int(v) for v in np.unique(k)]
    q = [math.fsum(p[k == v]) for v in values]
    pairs = math.fsum(2 * qi * qj * math.sin(c * h * (ki - kj) / 2) ** 2
                      for qi, ki in zip(q, values) for qj, kj in zip(q, values))
    return pairs / (h * h * math.fsum(q) ** 2)


@pytest.mark.parametrize("h", [1e-4, 1e-2])
@pytest.mark.parametrize("noon_n", [1, 2, 4, 8])
@pytest.mark.parametrize("beta", [1e-4, 1e-2, 2.0])
def test_metric_rate_matches_the_exact_finite_step_rate(beta, noon_n, h):
    # the overlap form 1 - |<a|b>|^2 read 0 at beta 1e-4 and was 9e-9 off at the defaults
    want = {"coherent": finite_step_rate(ScenarioConfig(scenario="coherent", alpha_mag=beta, beta_mag=beta), h),
            "noon": finite_step_rate(ScenarioConfig(scenario="noon", n=noon_n), h)}
    rows = run_metric_check(beta_mag=beta, noon_n=noon_n, h=h)
    assert [r.phi for r in rows] == [0.3, 1.1, 2.0] * 2
    for r in rows:
        ref = want[r.family.split()[0]]
        assert abs(r.dl_dphi_squared - ref) <= 1e-11 * ref, r


# ----- config handling -----------------------------------------------------------------

def test_config_text_round_trip():
    cfg = ScenarioConfig(scenario="noon", n=6, eta_a=0.8, eta_b=0.75, trials=5000, seed=11, post_select=True, phi_steps=21)
    text = "\n".join(config_lines(cfg))
    reloaded = ScenarioConfig(**parse_config_text(text))
    assert reloaded == cfg


def test_config_text_round_trip_with_optional_fields():
    # every Optional-typed key set, plus an explicit false boolean
    cfg = ScenarioConfig(scenario="coherent", f=0.25, sample_phi=0.125, n_cap=30, post_select=False, phi_steps=21)
    text = "\n".join(config_lines(cfg))
    assert {"f = 0.25", "sample_phi = 0.125", "n_cap = 30", "post_select = false"} <= set(text.splitlines())
    reloaded = ScenarioConfig(**parse_config_text(text))
    assert reloaded == cfg
    assert [type(v) for v in astuple(reloaded)] == [type(v) for v in astuple(cfg)]  # 30.0 == 30, so check types too


def test_config_round_trip_reproduces_runs(tmp_path):
    cfg = ScenarioConfig(scenario="noon", n=3, phi_steps=21)
    text = "\n".join(config_lines(cfg))
    again = ScenarioConfig(**parse_config_text(text))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(cfg).write_csv(a)
    run_sweep(again).write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_config_parser_rejects_unknown_keys_and_junk():
    with pytest.raises(ConfigError):
        parse_config_text("bogus_key = 3")
    with pytest.raises(ConfigError):
        parse_config_text("scenario fock")
    with pytest.raises(ConfigError):
        parse_config_text("n = not_an_int")
    with pytest.raises(ConfigError):
        parse_config_text("post_select = maybe")


def test_config_parser_comments_and_blanks():
    values = parse_config_text("# comment\n\nscenario = noon  # trailing\nn = 6\npost_select = true\n")
    assert values == {"scenario": "noon", "n": 6, "post_select": True}


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="fock", phi_steps=2)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="fock", epsilon_trunc=1e-5)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="noon", eta_a=1.5)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="nope")


def test_config_is_frozen_and_checked_whenever_one_is_built():
    cfg = ScenarioConfig(scenario="fock", n=3)
    with pytest.raises(FrozenInstanceError):
        cfg.n = 0
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="fock", n=0)
    with pytest.raises(ConfigError):
        replace(cfg, n=0)
    with pytest.raises(TypeError, match="'bogus'"):  # a library caller's unknown key; the CLI never passes one
        ScenarioConfig(**{"n": 3, "bogus": 1})


# each scenario's declared fields, one at a time, moved off a base config
_READ_BASES = {"coherent": {"alpha_mag": 1.5, "beta_mag": 1.0}, "squeezed": {"alpha_mag": 3.0, "r": 0.5}}
_READ_ALTERNATIVES = {"alpha_mag": 3.5, "beta_mag": 1.3, "theta1": 0.3, "theta2": 0.7, "n": 3, "r": 0.6, "theta": 0.2,
                      "f": 1.0, "epsilon_trunc": 1e-6, "n_cap": 20}
# a cutoff whose deficit (~6e-8) the default tolerance refuses and epsilon_trunc = 1e-6 accepts
_DEFICIT_CUTOFF = {"coherent": 16, "squeezed": 32}


def _sweep_outcome(cfg: ScenarioConfig):
    try:
        table = run_sweep(cfg)
    except TruncationError:
        return "deficit above epsilon_trunc"
    return per_point(table)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_field_a_scenario_declares_changes_its_sweep(name):
    """``Scenario.reads`` lists no field the sweep ignores: moving any one of them changes the outcome."""
    base = ScenarioConfig(scenario=name, phi_steps=11, **_READ_BASES.get(name, {}))
    for field in SCENARIOS[name].reads:
        ref = replace(base, n_cap=_DEFICIT_CUTOFF[name]) if field == "epsilon_trunc" else base
        assert _sweep_outcome(ref) != _sweep_outcome(replace(ref, **{field: _READ_ALTERNATIVES[field]})), field


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_sweep_rejects_every_field_its_scenario_does_not_read(name):
    base = ScenarioConfig(scenario=name, phi_steps=11, **_READ_BASES.get(name, {}))
    unread = set(_READ_ALTERNATIVES) - set(SCENARIOS[name].reads)
    assert unread
    for field in sorted(unread):
        with pytest.raises(ConfigError, match=field):
            run_sweep(replace(base, **{field: _READ_ALTERNATIVES[field]}))
