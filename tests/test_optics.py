import functools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_jacobi, gammaln

from mzlab import numerics, optics
from mzlab.cli import main
from mzlab.estimation import qfi_analytic
from mzlab.fock import TwoModeState, basis_dim, block_slice, index_pairs, inner, normalize, pair_index
from mzlab.measurement import jz_moments, parity_expectation, photon_distribution
from mzlab.optics import (
    BS1_SYMMETRIC,
    BS2_JX,
    BS2_JY,
    EXCHANGE_SUMS,
    EXCHANGE_SUMS_BS1,
    BeamSplitterSpec,
    apply_angular,
    beam_splitter,
    eval_harmonics,
    exchange_harmonics,
    expect_j,
    expect_j2,
    parity_harmonics,
    phase_shift,
    product_exchange_sums,
    product_expectations,
    pull_back,
    wigner_d_block,
)
from mzlab.scenarios import noon_output_distribution
from mzlab.states import SingleModeAmplitudes, fock_after_symmetric_bs, noon_state, product_state

from conftest import random_fixed_total_state, random_state

RT2 = math.sqrt(2.0)


# ----- independent matrix oracles ---------------------------------------------

def block_operator(twice_j: int, which: str) -> np.ndarray:
    """Angular momentum matrix on one block, m descending; built from the
    ladder formula independently of the package implementation."""
    j = twice_j / 2
    dim = twice_j + 1
    m = j - np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        mm = m[col]
        if which == "z":
            mat[col, col] = mm
            continue
        cp = math.sqrt(max(j * (j + 1) - mm * (mm + 1), 0.0))  # raise m
        cm = math.sqrt(max(j * (j + 1) - mm * (mm - 1), 0.0))  # lower m
        if col - 1 >= 0:
            mat[col - 1, col] += cp / 2 * (1 if which == "x" else -1j)
        if col + 1 < dim:
            mat[col + 1, col] += cm / 2 * (1 if which == "x" else 1j)
    return mat


def euler_zyz(c: np.ndarray) -> tuple[float, float, float, float]:
    """(delta, phi_l, beta, phi_r) with c = e^{i delta} Rz(phi_l) Ry(beta) Rz(phi_r)."""
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    delta = math.atan2(det.imag, det.real) / 2
    b = c * np.exp(-1j * delta)
    beta = 2.0 * math.atan2(abs(b[0, 1]), abs(b[0, 0]))
    spl = -2.0 * np.angle(b[0, 0])  # phi_l + phi_r
    dif = -2.0 * np.angle(b[0, 1])  # phi_l - phi_r
    return delta, (spl + dif) / 2, beta, (spl - dif) / 2


@functools.lru_cache(maxsize=8)  # the three presets share beta = pi/2
def jacobi_wigner_d(twice_j: int, theta: float) -> np.ndarray:
    """d^j(theta) from the Jacobi-polynomial form with a log-factorial prefactor.

    Rows m', columns m, both descending.  The smallest of j+-m, j+-m' picks
    the polynomial degree k and the pair (a, lambda); the three-term
    recurrence inside ``eval_jacobi`` is stable to 2j well beyond 100.
    """
    tm = twice_j - 2 * np.arange(twice_j + 1)  # doubled m, descending
    tmp, tmv = tm[:, None], tm[None, :]
    jpm, jmm = (twice_j + tmv) // 2, (twice_j - tmv) // 2
    jpmp, jmmp = (twice_j + tmp) // 2, (twice_j - tmp) // 2
    k = np.minimum(np.minimum(jpm, jmm), np.minimum(jpmp, jmmp))
    diff = (tmp - tmv) // 2  # m' - m
    first = (k == jpm) | ((k != jmm) & (k != jpmp))  # k = j+m or k = j-m'
    a = np.where(first, diff, -diff)
    lam = np.where(first, diff, 0)
    b = twice_j - 2 * k - a
    lf = gammaln(np.arange(twice_j + 1) + 1.0)
    prefactor = np.exp(0.5 * (lf[k] + lf[twice_j - k] - lf[k + a] - lf[k + b]))
    sign = np.where(lam % 2 == 0, 1.0, -1.0)
    sh, ch = math.sin(theta / 2), math.cos(theta / 2)
    return sign * prefactor * sh**a * ch**b * eval_jacobi(k, a, b, math.cos(theta))


def euler_jacobi_block(spec: BeamSplitterSpec, twice_j: int) -> np.ndarray:
    """The splitter block from the Euler angles of conj(M) and the Jacobi d-matrix:
    U^j[v, u] = e^{2ij delta} e^{-i phi_r v} d^j_{v,u}(beta) e^{-i phi_l u}."""
    delta, phi_l, beta, phi_r = euler_zyz(spec.matrix.conj())
    tm = twice_j - 2 * np.arange(twice_j + 1)
    left = np.exp(-0.5j * phi_r * tm)
    right = np.exp(-0.5j * phi_l * tm)
    return np.exp(1j * twice_j * delta) * (left[:, None] * jacobi_wigner_d(twice_j, beta) * right[None, :])


def random_spec(seed: int) -> BeamSplitterSpec:
    g = np.random.default_rng(seed)
    q, _ = np.linalg.qr(g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2)))
    return BeamSplitterSpec(q, label=f"random{seed}")


# ----- angular momentum action -------------------------------------------------

def test_jz_eigenvalue():
    s = TwoModeState.basis_state(2, 2, 0)
    out = apply_angular(s, "z")
    assert out.amplitude(2, 0) == pytest.approx(1.0)


def test_jx_single_photon():
    s = TwoModeState.basis_state(1, 1, 0)
    out = apply_angular(s, "x")
    assert out.amplitude(0, 1) == pytest.approx(0.5)
    assert out.amplitude(1, 0) == 0.0


def test_casimir_on_fixed_total_states():
    for total in (1, 2, 5, 9):
        s = random_fixed_total_state(total, seed=100 + total)
        j = total / 2
        total_j2 = sum(expect_j2(s, ax) for ax in "xyz")
        assert total_j2 == pytest.approx(j * (j + 1), abs=1e-12)


def test_commutators_on_random_states():
    # <[Ja, Jb]> = i eps_abc <Jc> evaluated by composing operator applications
    for seed in range(6):
        s = random_state(8 + seed % 4, seed=seed)
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            ja, jb = apply_angular(s, a), apply_angular(s, b)
            comm = inner(ja, jb) - inner(jb, ja)  # <s|[Ja,Jb]|s>
            assert comm == pytest.approx(1j * expect_j(s, c), abs=1e-10)


def test_expectations_on_fock_family():
    psi = fock_after_symmetric_bs(4)
    st = phase_shift(psi, math.pi / 3, "mode_b")
    assert expect_j(st, "x") == pytest.approx(4 * math.cos(math.pi / 3) / 2, abs=1e-12)
    st = phase_shift(psi, math.pi / 2, "mode_b")
    var = expect_j2(st, "x") - expect_j(st, "x") ** 2
    assert var == pytest.approx(4 * math.sin(math.pi / 2) ** 2 / 4, abs=1e-12)


def test_jz_expectation_twin_photon():
    assert expect_j(TwoModeState.basis_state(2, 1, 1), "z") == 0.0


# ----- phase shifts -------------------------------------------------------------

def test_phase_shift_identity_and_norm():
    s = random_state(6, seed=11)
    assert np.abs(phase_shift(s, 0.0, "relative").amps - s.amps).max() == 0.0
    for conv in ("relative", "mode_b"):
        out = phase_shift(s, 1.234, conv)
        assert abs(out.squared_norm() - s.squared_norm()) <= 1e-14


@pytest.mark.parametrize("n_cap", [0, 5, 40, 96])
@pytest.mark.parametrize("conv", ["mode_b", "relative"])
def test_phase_shift_matches_the_per_entry_exp_bit_for_bit(n_cap, conv):
    # one exp per value of K, gathered by K, gives the very doubles of one exp per basis entry
    s = random_state(n_cap, seed=n_cap + 3)
    c, k = optics.phase_generator(n_cap, conv)
    for phi in (0.0, 1e-9, 0.1, -1.3, math.pi, 2.5, -7.77, 100.3, 1e5):
        assert phase_shift(s, phi, conv).amps.tobytes() == (s.amps * np.exp(c * 1j * phi * k)).tobytes(), phi


def test_phase_shift_relative_on_noon():
    phi = 0.77
    out = phase_shift(noon_state(2), phi, "relative")
    # m = +-1 components pick up e^{-+ i phi}
    assert out.amplitude(2, 0) == pytest.approx(np.exp(-1j * phi) / RT2, abs=1e-15)
    assert out.amplitude(0, 2) == pytest.approx(np.exp(+1j * phi) / RT2, abs=1e-15)


def test_phase_shift_mode_b_on_fock_family():
    n = 5
    phi = 0.41
    base = fock_after_symmetric_bs(n)
    out = phase_shift(base, phi, "mode_b")
    for k in range(n + 1):
        expected = base.amplitude(k, n - k) * np.exp(1j * phi * (n - k))
        assert out.amplitude(k, n - k) == pytest.approx(expected, abs=1e-14)


# ----- Wigner blocks ------------------------------------------------------------

def test_wigner_identity_at_zero():
    for tj in range(171):
        assert np.array_equal(wigner_d_block(tj, 0.0), np.eye(tj + 1)), tj


def test_wigner_half_rotation():
    d = wigner_d_block(1, math.pi / 2)
    assert np.abs(np.abs(d) - 1 / RT2).max() <= 1e-12
    oracle = expm(-1j * (math.pi / 2) * block_operator(1, "y")).real
    assert np.abs(d - oracle).max() <= 1e-13


@pytest.mark.parametrize("tj", [1, 2, 3, 5, 8, 13])
@pytest.mark.parametrize("theta", [0.3, -1.2, math.pi / 2, 2.9])
def test_wigner_matches_exponentiated_generator(tj, theta):
    d = wigner_d_block(tj, theta)
    oracle = expm(-1j * theta * block_operator(tj, "y"))
    assert np.abs(oracle.imag).max() <= 1e-12
    assert np.abs(d - oracle.real).max() <= 5e-13


def test_wigner_exact_antidiagonal_at_minus_pi():
    # d(-pi)[i, dim-1-i] = (-1)^i exactly, zero elsewhere, and d(+pi) is its transpose
    for tj in range(171):
        expected = np.zeros((tj + 1, tj + 1))
        expected[np.arange(tj + 1), np.arange(tj, -1, -1)] = (-1.0) ** np.arange(tj + 1)
        assert np.array_equal(wigner_d_block(tj, -math.pi), expected), tj
        assert np.array_equal(wigner_d_block(tj, math.pi), expected.T), tj


def test_wigner_orthogonality_to_twice_j_100():
    for tj in range(0, 101):
        d = wigner_d_block(tj, math.pi / 2)
        err = np.abs(d @ d.T - np.eye(tj + 1)).max()
        assert err <= 1e-12, f"2j={tj}: {err}"


def test_ladder_cache_holds_only_the_splitters_the_subcommands_use(tmp_path):
    memo = optics._bs_block
    memo.cache_clear()
    out = str(tmp_path / "x.csv")
    for argv in (["sweep", "--scenario", "twin_fock", "--n", "3"], ["sweep", "--scenario", "noon", "--n", "4"],
                 ["sample", "--n", "4", "--trials", "100"], ["qfi-table"], ["metric-check"]):
        assert main(argv + ["--out", out]) == 0, argv
    # the twin_fock probe reads BS1_SYMMETRIC block 2N; the noon parity, sample and qfi-table BS2_JX block N
    used = [(BS1_SYMMETRIC.matrix.tobytes(), 6), (BS2_JX.matrix.tobytes(), 4)]
    assert memo.cache_info().currsize == len(used)
    misses = memo.cache_info().misses
    for key in used:
        memo(*key)
    assert memo.cache_info().misses == misses  # these are the blocks held
    wigner_d_block(9, 0.77)
    assert memo.cache_info().currsize == len(used)  # d-blocks keep nothing in it
    bound = memo.cache_info().maxsize
    for total in range(bound + 5):
        memo(BS2_JY.matrix.tobytes(), total)
    assert memo.cache_info().currsize == bound


def test_fixed_n_sweeps_keep_no_ladder():
    # a fresh interpreter, so that no earlier test has grown a store the sweep could reuse
    code = ("import sys, tracemalloc; from mzlab.scenarios import ScenarioConfig, run_sweep; "
            "tracemalloc.start(); run_sweep(ScenarioConfig(scenario=sys.argv[1], n=int(sys.argv[2]))); "
            "print(tracemalloc.get_traced_memory()[1])")
    for scenario, n in (("noon", 150), ("twin_fock", 75)):
        proc = subprocess.run([sys.executable, "-c", code, scenario, str(n)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        peak = int(proc.stdout)
        assert peak < 4 * 2**20, f"{scenario} n={n}: traced peak {peak / 2**20:.1f} MiB"


# ----- beam splitters ------------------------------------------------------------

def test_bs1_single_photon():
    out = beam_splitter(TwoModeState.basis_state(1, 1, 0), BS1_SYMMETRIC)
    assert out.amplitude(1, 0) == pytest.approx(1 / RT2, abs=1e-15)
    assert out.amplitude(0, 1) == pytest.approx(1 / RT2, abs=1e-15)


def test_mode_matrices():
    assert np.abs(BS1_SYMMETRIC.matrix - np.array([[1, 1], [1, -1]]) / RT2).max() <= 1e-15
    # single-photon action of BS2_JY equals the exponentiated y-generator block
    blk = np.empty((2, 2), dtype=complex)
    for col, (n1, n2) in enumerate([(1, 0), (0, 1)]):
        out = beam_splitter(TwoModeState.basis_state(1, n1, n2), BS2_JY)
        blk[0, col] = out.amplitude(1, 0)
        blk[1, col] = out.amplitude(0, 1)
    oracle = expm(1j * (math.pi / 2) * block_operator(1, "y"))
    assert np.abs(blk - oracle).max() <= 1e-14
    # cross-check against the Wigner block of the opposite rotation sense
    assert np.abs(blk - wigner_d_block(1, -math.pi / 2)).max() <= 1e-14


def test_non_unitary_matrix_rejected():
    with pytest.raises(ValueError):
        BeamSplitterSpec(np.array([[1.0, 0.0], [0.0, 1.1]]))


def test_beam_splitter_inverse_round_trip():
    for seed in range(4):
        g = np.random.default_rng(800 + seed)
        x = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
        q, _ = np.linalg.qr(x)
        spec = BeamSplitterSpec(q)
        inv = BeamSplitterSpec(q.conj().T)
        s = random_state(9, seed=300 + seed)
        back = beam_splitter(beam_splitter(s, spec), inv)
        assert np.abs(back.amps - s.amps).max() <= 1e-12


def test_beam_splitter_norm_preservation():
    s = random_state(12, seed=41)
    for spec in (BS1_SYMMETRIC, BS2_JY, BS2_JX):
        out = beam_splitter(s, spec)
        assert abs(out.squared_norm() - s.squared_norm()) <= 1e-12


def test_beam_splitter_matches_generator_oracle():
    """Random passive element: blocks must equal expm of the block generator."""
    g = np.random.default_rng(7)
    h = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
    h = (h + h.conj().T) / 2
    cmat = expm(1j * h.T)  # creation-operator map of exp(i sum h_kl a_k+ a_l)
    spec = BeamSplitterSpec(cmat.conj())
    n_cap = 6
    s = random_state(n_cap, seed=99)
    out = beam_splitter(s, spec)
    for total in range(n_cap + 1):
        hblk = (
            np.diag(h[0, 0] * (total - np.arange(total + 1)) + h[1, 1] * np.arange(total + 1))
            + np.diag([h[0, 1] * math.sqrt((total - k) * (k + 1)) for k in range(total)], 1)
            + np.diag([h[1, 0] * math.sqrt((k + 1) * (total - k)) for k in range(total)], -1)
        )
        # columns indexed by n2 ascending: (n1, n2) = (total - k, k)
        ublk = expm(1j * hblk)
        sl = block_slice(total)
        assert np.abs(out.amps[sl] - ublk @ s.amps[sl]).max() <= 1e-12


def test_pullback_identity_bs2_jy():
    # <Jz> at the output equals <Jx> before the splitter, including squares
    for seed in range(8):
        s = random_state(4 + seed, seed=500 + seed)
        out = beam_splitter(s, BS2_JY)
        assert expect_j(out, "z") == pytest.approx(expect_j(s, "x"), abs=1e-10)
        assert expect_j2(out, "z") == pytest.approx(expect_j2(s, "x"), abs=1e-10)


def test_parity_pullback_noon_fringe():
    for n in range(1, 11):
        for phi in np.linspace(0.0, math.pi, 17):
            st = beam_splitter(phase_shift(noon_state(n), float(phi), "relative"), BS2_JX)
            par = parity_expectation(photon_distribution(st), "a")
            assert par == pytest.approx(math.cos(n * phi), abs=1e-12)


def test_parity_squared_is_total_probability():
    for seed in range(4):
        s = random_state(6, seed=900 + seed)
        d = photon_distribution(s)
        n1, _ = index_pairs(s.n_cap)
        signs_sq = np.ones_like(d.probs)
        assert math.fsum(d.probs * signs_sq) == d.total()
        assert d.total() == pytest.approx(1.0, abs=1e-12)


def ladder(spec: BeamSplitterSpec):
    """Blocks 0, 1, 2, ... of the splitter, one ladder step each."""
    g = spec.matrix.conj().T
    u = optics._climb(g, 0)
    while True:
        yield u
        u = optics._ladder_step(u, g)


def test_ladder_blocks_match_euler_jacobi_oracle():
    specs = [BS1_SYMMETRIC, BS2_JX, BS2_JY] + [random_spec(1200 + i) for i in range(4)]
    ladders = [ladder(spec) for spec in specs]
    for tj in range(171):
        for spec, blocks in zip(specs, ladders):
            blk = next(blocks)
            err = np.abs(blk - euler_jacobi_block(spec, tj)).max()
            assert err <= 1e-12, f"{spec.label} 2j={tj}: entries off by {err}"
            err = np.abs(blk @ blk.conj().T - np.eye(tj + 1)).max()
            assert err <= 1e-12, f"{spec.label} 2j={tj}: unitarity off by {err}"


def test_walk_from_the_memo_matches_fresh_climbs():
    # blocks 5..12 occupied except 8: the walk starts at the memo's block 5 and steps through the empty one
    spec = random_spec(1300)
    g = np.random.default_rng(1301)
    amps = np.zeros(basis_dim(14), dtype=complex)
    for total in (5, 6, 7, 9, 10, 11, 12):
        amps[block_slice(total)] = g.normal(size=total + 1) + 1j * g.normal(size=total + 1)
    s = TwoModeState(14, amps)
    want = np.concatenate([optics._climb(spec.matrix.conj().T, t) @ s.amps[block_slice(t)] for t in range(15)])
    optics._bs_block.cache_clear()
    for _ in range(2):  # a miss, then a hit
        assert beam_splitter(s, spec).amps.tobytes() == s.with_amps(want).amps.tobytes()
    assert optics._bs_block.cache_info()[:2] == (1, 1)  # one miss, for the lowest occupied block, then one hit
    # the parity readout walks the same way
    coeffs, _ = parity_harmonics(s)
    fresh = np.zeros(15, dtype=complex)
    for total in (5, 6, 7, 9, 10, 11, 12):
        v, u = s.amps[block_slice(total)], optics._climb(BS2_JX.matrix.conj().T, total)
        parity = np.where(np.arange(total, -1, -1) % 2 == 0, 1.0, -1.0)
        m = v.conj()[:, None] * (u.conj().T @ (parity[:, None] * u)) * v[None, :]
        fresh[0] += np.trace(m)
        for d in range(1, total + 1):
            fresh[d] += 2.0 * np.trace(m, offset=d)
    assert coeffs.tobytes() == fresh.tobytes()


# ----- harmonic sweep kernels against direct evolution ------------------------------

def close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**32 - 1), st.floats(-2 * math.pi, 2 * math.pi), st.booleans())
def test_harmonic_kernels_match_direct_evolution(n_cap, seed, phi, sparse):
    psi = random_state(n_cap, seed)
    if sparse:  # zero amplitudes inside and at the head of some blocks
        psi = normalize(psi.with_amps(psi.amps * (np.arange(psi.dim) % 3 != 1)))
    grid = np.array([phi])
    mean_c, second_c = exchange_harmonics(psi)
    mean, second = eval_harmonics(mean_c, grid)[0], eval_harmonics(second_c, grid)[0]
    inside = phase_shift(psi, phi, "mode_b")
    out_mean, out_second = jz_moments(photon_distribution(beam_splitter(inside, BS2_JY)))
    assert close(mean, out_mean) and close(second, out_second)
    assert close(mean, expect_j(inside, "x")) and close(second, expect_j2(inside, "x"))
    parity_c, norm_c = parity_harmonics(psi)
    out = photon_distribution(beam_splitter(phase_shift(psi, phi, "relative"), BS2_JX))
    assert close(eval_harmonics(parity_c, grid)[0], parity_expectation(out, "a"))
    assert close(eval_harmonics(norm_c, grid)[0], out.total())


def test_harmonic_basis_memo_stays_bounded_and_evaluations_stay_exact(rng):
    # each (grid, degree) keeps its own matrix; the evaluation is the one-expression form to the bit
    bound = optics._harmonic_basis.cache_info().maxsize
    assert bound == 16
    grids = [np.linspace(0.0, math.pi, 181), np.linspace(-1.0, 2.0, 7), 0.3 + 1e-4 * np.arange(-2.0, 3.0)]
    for _ in range(2):  # the second round after the first ones were evicted
        for grid in grids:
            for size in (1, 2, 3, 5, 17, 41, 151):
                coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
                want = (np.exp(1j * np.outer(grid, np.arange(size))) @ coeffs).real
                assert eval_harmonics(coeffs, grid).tobytes() == want.tobytes(), size
                assert optics._harmonic_basis.cache_info().currsize <= bound
    basis = optics._harmonic_basis(grids[0].tobytes(), 3)
    assert not basis.flags.writeable and basis is optics._harmonic_basis(grids[0].tobytes(), 3)


def test_parity_harmonics_match_noon_output_distribution():
    phis = np.linspace(-0.3, math.pi + 0.3, 53)
    for n in range(1, 17):
        parity_c, norm_c = parity_harmonics(noon_state(n))
        assert parity_c.size == n + 1  # a degree-N trigonometric polynomial
        got, norm = eval_harmonics(parity_c, phis), eval_harmonics(norm_c, phis)
        for i, phi in enumerate(phis):
            d = noon_output_distribution(n, float(phi))
            assert abs(got[i] - parity_expectation(d, "a")) <= 1e-12
            assert abs(norm[i] - d.total()) <= 1e-12


# ----- product-form readout against the two-mode state ------------------------------

def unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    return v / norm if norm else v


def expanded(fa: np.ndarray, fb: np.ndarray, n_cap: int) -> TwoModeState:
    """fa (x) fb on n1 + n2 <= n_cap as a two-mode state, whatever its deficit."""
    a, b = SingleModeAmplitudes(fa.size - 1, fa, 0.0), SingleModeAmplitudes(fb.size - 1, fb, 0.0)
    return product_state(a, b, n_cap, eps_trunc=math.inf)


def two_mode_sums(psi: TwoModeState) -> list:
    """A, B, C from exchange_harmonics, then <n2> and <n2^2>, on a two-mode state."""
    mean_c, second_c = exchange_harmonics(psi)
    p = np.abs(psi.amps) ** 2
    n2 = index_pairs(psi.n_cap)[1]
    return [mean_c[1], 2 * second_c[2], 4 * second_c[0], math.fsum(p * n2), math.fsum(p * n2 * n2)]


@st.composite
def product_inputs(draw):
    """Two random complex single-mode arrays of length 1-12 and a cap up to the sum of their cutoffs."""
    def amps():
        parts = draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=12))
        return unit(np.array([complex(re, im) for re, im in parts]))

    fa, fb = amps(), amps()
    return fa, fb, draw(st.integers(0, fa.size + fb.size - 2))


@settings(max_examples=80, deadline=None)
@given(product_inputs(), st.booleans())
def test_product_exchange_sums_match_two_mode_state(inputs, bs1):
    fa, fb, n_cap = inputs
    psi = expanded(fa, fb, n_cap)
    if bs1:
        psi = beam_splitter(psi, BS1_SYMMETRIC)
    mean_c, second_c, n2, n2_sq = product_exchange_sums(fa, fb, n_cap, bs1)
    got = [mean_c[1], 2 * second_c[2], 4 * second_c[0], n2, n2_sq]
    for name, g, w in zip(("A", "B", "C", "n2", "n2^2"), got, two_mode_sums(psi)):
        assert close(g, w), name
    assert close(4 * (n2_sq - n2 * n2), qfi_analytic(psi, "mode_b"))


def test_pull_back_convention_on_a_random_unitary(rng):
    # BS1 is real and its own inverse, so only a general unitary tells M from M^T or conj(M)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    fa = unit(rng.normal(size=7) + 1j * rng.normal(size=7))
    fb = unit(rng.normal(size=9) + 1j * rng.normal(size=9))
    for n_cap in (5, 14):
        want = two_mode_sums(beam_splitter(expanded(fa, fb, n_cap), BeamSplitterSpec(q)))
        got = product_expectations(fa, fb, n_cap, [pull_back(p, q) for p in EXCHANGE_SUMS])
        for g, w in zip(got, want):
            assert close(g, w)


def _exact_weights(size: int, word) -> list[float]:
    """<n + d| word |n>^2 as a Python integer for every n, rounded once to a float (0 for a zero element)."""
    out = []
    for n in range(size):
        k, product = n, 1
        for letter in reversed(word):
            if letter > 0:
                k += 1
                product *= k
            else:
                product *= k
                k -= 1
        out.append(float(product))
    return out


@pytest.mark.parametrize("word", [(1, -1, 1, -1), (1, 1, -1, -1), (-1, 1, 1, -1), (-1, 1, -1), (1, 1), (-1,)])
def test_word_terms_take_the_root_of_the_exact_product_past_the_int64_range(word):
    # a four-letter product passes 2**63 at ~55,100 entries; every weight stays sqrt(exact integer product)
    size = 60_000
    g = optics._ModeWords([word]).terms(np.ones(size, dtype=np.complex128))[0]
    d = sum(word)
    lo, hi = max(0, -d), min(size, size - d)
    want = np.sqrt(np.array(_exact_weights(size, word)))[lo:hi]
    assert np.isfinite(g).all()
    assert g[lo:hi].real.tobytes() == want.tobytes() and not g[lo:hi].imag.any()


# ----- the readout plan against the per-word form it replaced ---------------------


def word_terms_oracle(f: np.ndarray, word) -> np.ndarray:
    """g[n] = conj(f[n + d]) <n + d| word |n> f[n], one word at a time, the weight built letter by letter."""
    n = np.arange(f.size)
    k, weight, half = n, np.ones(f.size), 1
    for i, letter in enumerate(reversed(word), 1):
        if letter > 0:
            k = k + 1
            half = half * k
        else:
            half = half * k
            k = k - 1
        if i % 2 == 0 or i == len(word):
            weight, half = weight * half, 1
    d = sum(word)
    g = np.zeros(f.size, dtype=np.complex128)
    lo, hi = max(0, -d), min(f.size, f.size - d)
    if lo < hi:
        g[lo:hi] = f[lo + d : hi + d].conj() * np.sqrt(weight[lo:hi]) * f[lo:hi]
    return g


def expectations_oracle(fa: np.ndarray, fb: np.ndarray, n_cap: int, polys) -> list:
    """The monomial loop: sum the mode-b terms per mode-a word, then one truncated pair sum per word."""
    words_a: dict = {}
    words_b: dict = {}
    out = []
    for poly in polys:
        by_a: dict = {}
        for (wa, wb), c in poly.items():
            if wb not in words_b:
                words_b[wb] = word_terms_oracle(fb, wb)
            by_a[wa] = by_a.get(wa, 0.0) + c * words_b[wb]
        total = 0j
        top = min(n_cap, fa.size + fb.size)
        i = np.arange(min(fa.size, top + 1))
        for wa, gb in by_a.items():
            if wa not in words_a:
                words_a[wa] = word_terms_oracle(fa, wa)
            total += np.dot(words_a[wa][: i.size], np.cumsum(gb)[np.minimum(top - i, gb.size - 1)])
        out.append(total)
    return out


_Q, _ = np.linalg.qr(np.random.default_rng(19).normal(size=(2, 2)) + 1j * np.random.default_rng(23).normal(size=(2, 2)))
POLY_SETS = {
    "bare": EXCHANGE_SUMS,
    "bs1": EXCHANGE_SUMS_BS1,
    "unitary": tuple(pull_back(p, _Q) for p in EXCHANGE_SUMS),
}
PLAN_SIZES = [(s, s) for s in range(1, 13)] + [
    (1, 12), (12, 1), (2, 40), (40, 3), (40, 173), (173, 40), (173, 173), (1000, 173), (40, 1000), (1000, 1000)]


def plan_amps(rng, size: int, variant: int) -> np.ndarray:
    """Random amplitudes: complex, real, or complex on the even entries only (a squeezed vacuum's pattern)."""
    f = rng.normal(size=size) + 1j * rng.normal(size=size) * (variant != 1)
    if variant == 2:
        f[1::2] = 0
    return unit(f)


@pytest.mark.parametrize("sizes", PLAN_SIZES, ids=[f"{a}x{b}" for a, b in PLAN_SIZES])
@pytest.mark.parametrize("name", list(POLY_SETS))
def test_plan_matches_the_per_word_oracle_byte_for_byte(name, sizes):
    size_a, size_b = sizes
    rng = np.random.default_rng([size_a, size_b, len(name)])
    cutoffs = size_a + size_b - 2
    plans = [optics._ProductPlan(POLY_SETS[name])]
    if name != "unitary":  # the plans product_exchange_sums reads, built at import
        plans.append(optics._EXCHANGE_PLANS[name == "bs1"])
    for variant in range(3):
        fa, fb = plan_amps(rng, size_a, variant), plan_amps(rng, size_b, (variant + 1) % 3)
        # caps below, at and above the sum of the two cutoffs, and one far past the int64 sum n_cap - i
        for n_cap in sorted({0, 1, cutoffs // 2, max(0, cutoffs - 1), cutoffs, cutoffs + 1, cutoffs + size_a, 2**62}):
            want = np.array(expectations_oracle(fa, fb, n_cap, POLY_SETS[name])).tobytes()
            assert np.array(product_expectations(fa, fb, n_cap, POLY_SETS[name])).tobytes() == want, n_cap
            for plan in plans:
                assert np.array(plan(fa, fb, n_cap)).tobytes() == want, n_cap


def test_plan_words_match_the_per_word_oracle_byte_for_byte(rng):
    # every word of the import-time plans, and longer and empty ones, on arrays of 1 to 12 and 173 entries
    words = list(dict.fromkeys(w for p in EXCHANGE_SUMS_BS1 + EXCHANGE_SUMS for key in p for w in key))
    words += [(), (1, 1, 1), (-1, -1, -1, -1, 1), (1, -1, 1, -1, 1, -1)]
    mode = optics._ModeWords(words)
    for size in [*range(1, 13), 173]:
        f = unit(rng.normal(size=size) + 1j * rng.normal(size=size))
        got = mode.terms(f)
        for word, row in zip(words, got):
            assert row.tobytes() == word_terms_oracle(f, word).tobytes(), (size, word)


@pytest.mark.parametrize("rows_per_run", [1, 2])
@pytest.mark.parametrize("name", list(POLY_SETS))
def test_plan_in_runs_of_words_matches_one_run_and_the_oracle(monkeypatch, name, rows_per_run):
    # the plan reads its rows in runs: one row at a time once fa.size + fb.size reaches 2^20, and a smaller
    # run limit splits these small probes alike, with the large mode on either side.  A run of one row over a
    # one-entry mode multiplies lone elements, which numpy does without fused multiply-adds in place or when
    # broadcasting, unlike the per-word slices
    rng = np.random.default_rng([rows_per_run, len(name)])
    runs = []

    def counted(*args):
        runs.append(args)
        return numerics.pair_operands(*args)

    monkeypatch.setattr(optics, "pair_operands", counted)
    n_rows = len(optics._ProductPlan(POLY_SETS[name]).rows)
    for size_a, size_b in [(1, 1), (1, 12), (12, 1), (12, 5), (40, 173), (173, 40), (3, 1000)]:
        fa, fb = plan_amps(rng, size_a, 0), plan_amps(rng, size_b, 2)
        for n_cap in (0, (size_a + size_b) // 2, size_a + size_b):
            whole = np.array(product_expectations(fa, fb, n_cap, POLY_SETS[name])).tobytes()
            assert len(runs) == 1
            with monkeypatch.context() as m:
                m.setattr(optics, "_CHUNK_ENTRIES", rows_per_run * (size_a + size_b))
                split = np.array(product_expectations(fa, fb, n_cap, POLY_SETS[name])).tobytes()
            assert len(runs) == 1 + -(-n_rows // rows_per_run)
            runs.clear()
            assert split == whole == np.array(expectations_oracle(fa, fb, n_cap, POLY_SETS[name])).tobytes()


def test_plan_holds_one_word_of_a_large_mode_at_a_time():
    # all five mode-a words of a 10^6-entry mode at once peaked at 200 MB (tracemalloc); the plan holds one row,
    # and so one mode-a word, at a time
    size = 10**6
    fa = np.full(size, size**-0.5, dtype=np.complex128)
    fb = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
    tracemalloc.start()
    try:
        a, _, _, _, n2 = optics._EXCHANGE_PLANS[False](fa, fb, size + 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a == 0 and n2 == 0
    assert peak < 100e6


@pytest.mark.parametrize("bs1", [False, True])
def test_plan_holds_one_row_of_a_large_mode_b_at_a_time(bs1):
    # the mirror of the test above: runs of mode-a words with every mode-b word held whole peaked at 272 MB
    # (bare) and ~1.5 GB (BS1) traced; a run of one row builds only the mode-b words that row reads
    size = 10**6
    fa = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
    fb = np.full(size, size**-0.5, dtype=np.complex128)
    tracemalloc.start()
    try:
        a, _, _, n2, _ = optics._EXCHANGE_PLANS[bs1](fa, fb, size + 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # mode a is the vacuum and mode b holds (size - 1) / 2 photons on average; BS1 sends half of them to each port
    mean_b = (size - 1) / 2
    assert a == pytest.approx(-mean_b / 2 if bs1 else 0, rel=1e-12)
    assert n2 == pytest.approx(mean_b / 2 if bs1 else mean_b, rel=1e-12)
    assert peak < (150e6 if bs1 else 100e6)
