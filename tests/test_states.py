import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammaln

from mzlab import states
from mzlab.errors import TruncationError
from mzlab.fock import AMP_FLUSH, inner, index_pairs
from mzlab.numerics import log_factorials, pair_operands
from mzlab.optics import BS1_SYMMETRIC, beam_splitter, product_exchange_sums
from mzlab.scenarios import ScenarioConfig, coherent_probe, squeezed_probe
from mzlab.states import (
    SingleModeAmplitudes,
    SqueezeParams,
    auto_coherent,
    auto_squeezed,
    coherent_amplitudes,
    fock_after_symmetric_bs,
    noon_state,
    policy_coherent_cutoff,
    policy_squeezed_cutoff,
    product_probe,
    product_state,
    squeezed_vacuum_amplitudes,
    twin_fock,
)


# ----- coherent --------------------------------------------------------------

def test_coherent_vacuum_limit():
    sm = coherent_amplitudes(0.0, 5)
    assert sm.amps[0] == 1.0
    assert np.all(sm.amps[1:] == 0.0)
    assert sm.deficit == pytest.approx(0.0, abs=1e-15)


def test_coherent_ground_probability():
    sm = coherent_amplitudes(1.0, 30)
    assert abs(sm.amps[0]) ** 2 == pytest.approx(math.exp(-1.0), abs=1e-14)


def test_coherent_mean_photon_number():
    sm = coherent_amplitudes(2.0, 30)
    mean = math.fsum(n * abs(sm.amps[n]) ** 2 for n in range(31))
    # oracle: direct Poisson series
    oracle = math.fsum(n * math.exp(-4.0) * 4.0**n / math.factorial(n) for n in range(31))
    assert mean == pytest.approx(oracle, abs=1e-12)
    assert mean == pytest.approx(4.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5))
def test_coherent_recurrence(re, im):
    alpha = complex(re, im)
    sm = coherent_amplitudes(alpha, 25, eps_trunc=1.0)
    for n in range(10):
        if abs(sm.amps[n]) < 1e-12:
            continue
        assert sm.amps[n + 1] == pytest.approx(sm.amps[n] * alpha / math.sqrt(n + 1), abs=1e-12)


def vacuum_recursion(alpha: complex, cutoff: int) -> np.ndarray:
    """The amplitudes built up from exp(-|alpha|^2/2), valid while that term is a normal float."""
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2)
    for n in range(cutoff):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    return amps


@pytest.mark.parametrize("alpha", [0.3, 2.0, 2.0 * np.exp(0.7j), 5.0, 5.0 * np.exp(-2.1j)])
def test_coherent_matches_vacuum_recursion(alpha):
    got, want = coherent_amplitudes(alpha, 100, eps_trunc=1.0).amps, vacuum_recursion(alpha, 100)
    nonzero = want != 0
    assert np.all(got[~nonzero] == 0)
    assert np.max(np.abs(got[nonzero] - want[nonzero]) / np.abs(want[nonzero])) <= 1e-15


@pytest.mark.parametrize("alpha", [37.3, 37.3 * np.exp(0.4j)])
def test_coherent_peak_anchor_continues_the_vacuum_recursion(alpha):
    # exp(-|alpha|^2/2) ~ 1e-302 is below the flush level but still normal, so both anchors apply
    cutoff = math.ceil(abs(alpha) ** 2 + 10 * abs(alpha) + 20)
    got, want = coherent_amplitudes(alpha, cutoff, eps_trunc=1.0).amps, vacuum_recursion(alpha, cutoff)
    big = np.abs(want) > 1e-250
    assert np.max(np.abs(got[big] - want[big]) / np.abs(want[big])) <= 1e-12


@pytest.mark.parametrize("alpha", [45.0, 60.0 * np.exp(1.3j)])
def test_coherent_large_alpha_does_not_underflow(alpha):
    x = abs(alpha) ** 2
    sm = auto_coherent(alpha)
    assert sm.deficit <= 2.5e-11
    n = np.arange(sm.cutoff + 1)
    p = np.abs(sm.amps) ** 2
    mean = math.fsum(p * n)
    assert mean == pytest.approx(x, rel=1e-13)
    assert math.fsum(p * (n - mean) ** 2) == pytest.approx(x, rel=1e-10)
    near = np.arange(int(x) - 50, int(x) + 50)
    log_mag = [-x / 2 + k * math.log(abs(alpha)) - math.lgamma(k + 1) / 2 for k in near]
    assert np.abs(np.abs(sm.amps[near]) / np.exp(log_mag) - 1).max() <= 1e-9
    assert np.abs(np.angle(sm.amps[near] / (alpha / abs(alpha)) ** near)).max() <= 1e-9


@pytest.mark.parametrize("alpha", [40.0, 100.0 * np.exp(0.9j), 300.0])
def test_coherent_downward_fill_stops_at_the_flush_level(alpha):
    # the reference runs the ratio from the peak all the way down to n = 0; every entry the fill
    # skips is below AMP_FLUSH, and no deficit or readout moves by a bit without them
    sm = auto_coherent(alpha)
    got, ref = sm.amps, sm.amps.copy()
    for n in range(math.floor(abs(alpha) ** 2), 0, -1):
        ref[n - 1] = ref[n] * math.sqrt(n) / alpha
    stop = np.flatnonzero(got)[0]
    assert stop > 0 and abs(got[stop]) < AMP_FLUSH <= abs(got[stop + 1])
    assert got[stop:].tobytes() == ref[stop:].tobytes()
    assert not got[:stop].any() and (np.abs(ref[:stop]) < AMP_FLUSH).all() and ref[:stop].any()
    assert sm.deficit == 1.0 - math.fsum(np.abs(ref) ** 2)
    b = auto_coherent(1.5)
    n_cap = sm.cutoff + b.cutoff
    kept = np.multiply(*pair_operands(np.abs(ref) ** 2, np.abs(b.amps) ** 2, n_cap))
    assert product_probe(sm, b, n_cap).deficit == 1.0 - math.fsum(kept)
    for bs1 in (False, True):
        for x, y in (product_exchange_sums(got, b.amps, n_cap, bs1), product_exchange_sums(ref, b.amps, n_cap, bs1)), \
                    (product_exchange_sums(b.amps, got, n_cap, bs1), product_exchange_sums(b.amps, ref, n_cap, bs1)):
            assert [np.asarray(v).tobytes() for v in x] == [np.asarray(v).tobytes() for v in y]


def test_coherent_cutoff_too_small():
    with pytest.raises(TruncationError):
        coherent_amplitudes(3.0, 4)


# ----- squeezed vacuum -------------------------------------------------------

def _squeezed_oracle(r, theta, cutoff, pad=140):
    """Exponentiate the truncated generator (zeta* b^2 - zeta b^+2)/2 on vacuum.

    The pad keeps the generator-truncation boundary far from the compared
    amplitudes; 140 extra levels suffice for r <= 1.5 at the 1e-12 level.
    """
    dim = cutoff + pad
    b = np.diag(np.sqrt(np.arange(1, dim)), 1)
    zeta = r * np.exp(1j * theta)
    gen = 0.5 * (np.conj(zeta) * (b @ b) - zeta * (b.T @ b.T))
    vac = np.zeros(dim)
    vac[0] = 1.0
    return (expm(gen) @ vac)[: cutoff + 1]


def test_log_factorials_prefix_is_the_shorter_sum():
    # a squeezed expansion reads log(k!) up to its cutoff: the same k must give the same bits whatever cutoff asked
    longest = log_factorials(400)
    for n in (0, 1, 2, 40, 86, 399):
        assert np.array_equal(log_factorials(n), longest[: n + 1]), n
    assert longest[170] == pytest.approx(math.lgamma(171), rel=1e-14)


def test_squeezed_identity_limit():
    sm = squeezed_vacuum_amplitudes(SqueezeParams(0.0), 10)
    assert sm.amps[0] == 1.0
    assert np.all(sm.amps[1:] == 0.0)


@pytest.mark.parametrize("r", [-1.0, -1e-300])
def test_negative_squeezing_is_refused(r):
    # SqueezeParams is a plain record; the amplitudes, which every squeezed preparation goes through, refuse r < 0
    with pytest.raises(ValueError, match="r must be >= 0"):
        squeezed_vacuum_amplitudes(SqueezeParams(r), 10)
    with pytest.raises(ValueError, match="r must be >= 0"):
        auto_squeezed(SqueezeParams(r, 0.3))


@pytest.mark.parametrize("params", [SqueezeParams(math.nan), SqueezeParams(0.5, math.nan)], ids=["r", "theta"])
def test_nan_squeezing_is_refused(params):
    # nan amplitudes have a nan deficit, which no cutoff may pass (nan > eps_trunc is false)
    with pytest.raises(TruncationError, match="deficit nan"):
        squeezed_vacuum_amplitudes(params, 10, eps_trunc=1.0)
    with pytest.raises(TruncationError, match="deficit nan"):
        auto_squeezed(params)


def test_prepared_amplitudes_are_read_only():
    for sm in (coherent_amplitudes(2.0, 30), coherent_amplitudes(40.0, 1200, eps_trunc=1.0), squeezed_vacuum_amplitudes(SqueezeParams(0.5), 30),
               auto_squeezed(SqueezeParams(0.0)), auto_coherent(3.0)):
        assert not sm.amps.flags.writeable and sm.amps.shape == (sm.cutoff + 1,) and sm.amps.dtype == np.complex128
        with pytest.raises(ValueError):
            sm.amps[0] = 0.0


@pytest.mark.parametrize("r,theta", [(0.5, 0.0), (1.0, 0.0), (1.5, 0.7), (1.0, -1.2)])
def test_squeezed_matches_generator_exponentiation(r, theta):
    cutoff = 60
    sm = squeezed_vacuum_amplitudes(SqueezeParams(r, theta), cutoff, eps_trunc=1e-6 if r < 1.2 else 1.0)
    oracle = _squeezed_oracle(r, theta, cutoff)
    assert np.abs(sm.amps - oracle).max() <= 1e-9


def squeezed_loop_oracle(r: float, theta: float, cutoff: int) -> np.ndarray:
    """The per-entry form of the closed expansion: one math.exp and one scalar phase per even entry."""
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    if r == 0.0:
        amps[0] = 1.0
        return amps
    lf = log_factorials(cutoff)
    log_tanh = math.log(math.tanh(r))
    base = -0.5 * math.log(math.cosh(r))
    for k in range(0, cutoff // 2 + 1):
        mag = math.exp(base + k * log_tanh + 0.5 * lf[2 * k] - k * math.log(2.0) - lf[k])
        amps[2 * k] = ((-1.0) ** k) * np.exp(1j * theta * k) * mag
    return amps


@pytest.mark.parametrize("r", [0.0, 1e-12, 0.3, 0.95, 1.0, 2.5, 20.0])
@pytest.mark.parametrize("theta", [0.0, -0.0, 1.3, -2.0, math.pi])
def test_squeezed_amplitudes_match_the_per_entry_loop_byte_for_byte(r, theta):
    for cutoff in (0, 1, 2, 3, 40, 41, 86, 87, 401):
        got = squeezed_vacuum_amplitudes(SqueezeParams(r, theta), cutoff, eps_trunc=1.0).amps
        assert got.tobytes() == squeezed_loop_oracle(r, theta, cutoff).tobytes(), cutoff


def test_squeezed_even_support():
    sm = squeezed_vacuum_amplitudes(SqueezeParams(0.9), 41, eps_trunc=1e-5)
    assert np.all(sm.amps[1::2] == 0.0)


def test_squeezed_mean_photon_number():
    # at cutoff 60 the reported ~7e-9 tail still shifts the mean by ~5e-7
    sm = squeezed_vacuum_amplitudes(SqueezeParams(1.0), 60, eps_trunc=1e-6)
    mean = math.fsum(n * abs(sm.amps[n]) ** 2 for n in range(61))
    assert mean == pytest.approx(math.sinh(1.0) ** 2, abs=1e-6)
    aut = auto_squeezed(SqueezeParams(1.0), 1e-10)
    mean = math.fsum(n * abs(aut.amps[n]) ** 2 for n in range(aut.cutoff + 1))
    assert mean == pytest.approx(math.sinh(1.0) ** 2, abs=1e-9)


def test_squeezed_heuristic_cutoff_is_insufficient_at_r1():
    # the 40-photon heuristic leaves ~2e-6 of mass for r = 1; the auto sizer
    # must extend it rather than return a silently truncated state
    assert policy_squeezed_cutoff(1.0) == 40
    with pytest.raises(TruncationError):
        squeezed_vacuum_amplitudes(SqueezeParams(1.0), 40, eps_trunc=1e-10)
    aut = auto_squeezed(SqueezeParams(1.0), eps_trunc=1e-10)
    assert aut.cutoff > 40
    assert aut.deficit <= 2.5e-11


# ----- cutoffs from a tail bound ----------------------------------------------

def _auto(make, floor: int, eps_trunc: float) -> SingleModeAmplitudes:
    """The grow-and-rebuild cutoff search the tail bounds replaced, kept verbatim as the oracle."""
    target = eps_trunc / 4
    cutoff = floor
    for _ in range(12):
        sm = make(cutoff)
        if sm.deficit <= target:
            return sm
        cutoff = math.ceil(cutoff * 1.3) + 8
    raise TruncationError(f"no cutoff up to {cutoff} reached tail target {target:.1e}")


def _search_coherent(alpha, eps_trunc):
    return _auto(lambda cut: states.coherent_amplitudes(alpha, cut, eps_trunc=1.0), policy_coherent_cutoff(abs(alpha)), eps_trunc)


def _search_squeezed(p, eps_trunc):
    return _auto(lambda cut: states.squeezed_vacuum_amplitudes(p, cut, eps_trunc=1.0), policy_squeezed_cutoff(p.r), eps_trunc)


def _assert_same_preparation(got: SingleModeAmplitudes, want: SingleModeAmplitudes):
    assert (got.cutoff, got.deficit) == (want.cutoff, want.deficit)
    assert got.amps.tobytes() == want.amps.tobytes() and not got.amps.flags.writeable


_EPS_GRID = [1e-6, 1e-10, 1e-14]


# at 5e-324 the target eps / 4 underflows to 0, which only a deficit rounding to <= 0 meets
@pytest.mark.parametrize("eps", [*_EPS_GRID, 5e-324])
@pytest.mark.parametrize("theta", [0.0, 1.3])
@pytest.mark.parametrize("r", [0.0, 1e-12, 0.3, 0.87, 0.95, 1.0, 1.5, 2.0, 2.5, 2.69])
def test_auto_squeezed_keeps_every_cutoff_the_search_found(r, theta, eps):
    p = SqueezeParams(r, theta)
    try:
        want = _search_squeezed(p, eps)
    except TruncationError:
        sm = auto_squeezed(p, eps)  # the bound may run where the capped search gave up, never the other way
        assert sm.deficit <= eps / 4
        return
    _assert_same_preparation(auto_squeezed(p, eps), want)


@pytest.mark.parametrize("eps", _EPS_GRID)
@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 37.0, 38.0, 300.0])
def test_auto_coherent_keeps_every_cutoff_the_search_found(alpha, eps):
    want = _search_coherent(alpha, eps)
    assert want.cutoff == policy_coherent_cutoff(alpha)  # the search never grew a coherent cutoff
    _assert_same_preparation(auto_coherent(alpha, eps), want)


def test_auto_coherent_refuses_a_deficit_above_a_quarter_of_epsilon():
    # at |alpha| = 38 the rounded masses sum to 1 - 1.3e-15, which the test sizes epsilon around
    deficit = auto_coherent(38.0).deficit
    assert deficit > 0
    with pytest.raises(TruncationError, match="leaves deficit"):
        auto_coherent(38.0, 2 * deficit)
    assert auto_coherent(38.0, 4 * deficit).deficit == deficit


@pytest.mark.parametrize("theta", [0.0, 1.3])
@pytest.mark.parametrize("r", [2.7, 3.0, 3.5])
def test_auto_squeezed_prepares_where_the_search_gave_up(r, theta):
    p = SqueezeParams(r, theta)
    with pytest.raises(TruncationError, match="no cutoff up to"):
        _search_squeezed(p, 1e-10)
    sm = auto_squeezed(p, 1e-10)
    assert sm.deficit <= 2.5e-11 and sm.cutoff > 2000
    assert sm.amps.tobytes() == squeezed_vacuum_amplitudes(p, sm.cutoff, eps_trunc=1.0).amps.tobytes()


def _counting(monkeypatch, name):
    calls = []
    real = getattr(states, name)
    monkeypatch.setattr(states, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def test_each_mode_is_built_once(monkeypatch):
    squeezed, coherent = _counting(monkeypatch, "squeezed_vacuum_amplitudes"), _counting(monkeypatch, "coherent_amplitudes")
    p = SqueezeParams(0.95)
    _search_squeezed(p, 1e-10)
    assert [args[1] for args in squeezed] == [40, 60, 86]
    squeezed.clear()
    assert auto_squeezed(p).cutoff == 86 and [args[1] for args in squeezed] == [86]
    for cfg, built in ((ScenarioConfig(scenario="squeezed", alpha_mag=4.0, r=0.95), ([4.0], [0.95])),
                       (ScenarioConfig(scenario="coherent", alpha_mag=2.0, beta_mag=38.0), ([2.0, 38.0], []))):
        squeezed.clear()
        coherent.clear()
        (squeezed_probe if cfg.scenario == "squeezed" else coherent_probe)(cfg)
        assert ([abs(args[0]) for args in coherent], [args[0].r for args in squeezed]) == built


def _squeezed_tail(r: float, k0: int) -> float:
    """sum over k >= k0 of P(2k) = C(2k, k) 4^-k tanh^2k r / cosh r, each term taken in log space."""
    log_t2, log_cosh = 2 * math.log(math.tanh(r)), math.log(math.cosh(r))
    k = np.arange(k0, k0 + math.ceil(80 / -log_t2) + 1)  # past it the terms fall below e^-80 of the first
    log_p = gammaln(2 * k + 1) - 2 * gammaln(k + 1) - k * math.log(4.0) + k * log_t2 - log_cosh
    return math.fsum(np.exp(log_p))


class _Built(Exception):
    """Stops a preparation at its amplitude build, carrying the cutoff asked for."""


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, 4.0), st.floats(-14.0, -6.0))
def test_the_squeezed_tail_bound_holds(r, log_eps):
    # photon numbers above a cutoff c hold pair indices k >= floor(c / 2) + 1
    eps = 10**log_eps
    target = eps / 4
    bound = math.log(target / math.cosh(r)) / math.log(math.tanh(r))
    assert _squeezed_tail(r, math.floor(max(bound, 0.0) / 2) + 1) <= target

    def build(p, cutoff, eps_trunc):
        raise _Built(cutoff)

    with pytest.MonkeyPatch.context() as mp, pytest.raises(_Built) as built:
        mp.setattr(states, "squeezed_vacuum_amplitudes", build)
        auto_squeezed(SqueezeParams(r), eps)
    assert built.value.args[0] >= bound


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 300.0))
def test_the_coherent_policy_cutoff_leaves_no_tail(alpha):
    x, cutoff = alpha**2, policy_coherent_cutoff(alpha)
    if x == 0.0:
        return  # the vacuum holds no photon at all
    n = np.arange(cutoff + 1, cutoff + 2001)  # the terms fall by x / n <= 0.97 a step
    tail = math.fsum(np.exp(-x + n * math.log(x) - gammaln(n + 1)))
    chernoff = math.exp(-x + (cutoff + 1) * (1 + math.log(x / (cutoff + 1))))  # P(n >= k) <= e^-x (e x / k)^k
    assert tail <= chernoff < 2e-22 and tail < 1e-21


@pytest.mark.parametrize("r", [18.5, 19.06, 20.0, math.inf])
def test_a_squeeze_past_the_address_space_is_refused_before_allocating(r, monkeypatch):
    # past r ~ 18.2 the tail bound asks for more than 2^57 amplitudes, and tanh r rounds to 1 from r ~ 19.07
    for name in ("squeezed_vacuum_amplitudes", "log_factorials"):
        monkeypatch.setattr(states, name, lambda *args: pytest.fail("allocated"))
    with pytest.raises(MemoryError, match="address space"):
        auto_squeezed(SqueezeParams(r))


# ----- products and special states --------------------------------------------

def test_product_vacuum():
    v = coherent_amplitudes(0.0, 0)
    s = product_state(v, v, 4)
    assert s.amplitude(0, 0) == 1.0
    assert s.squared_norm() == pytest.approx(1.0, abs=1e-15)


def test_product_coherent_vacuum_amplitudes():
    a = coherent_amplitudes(1.0, 20)
    v = coherent_amplitudes(0.0, 0)
    s = product_state(a, v, 20)
    assert s.amplitude(1, 0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert s.amplitude(0, 1) == 0.0


def test_product_norm_and_failure():
    a = coherent_amplitudes(1.0, 20)
    s = product_state(a, a, 20)
    assert s.squared_norm() >= 1 - 1e-10
    with pytest.raises(TruncationError):
        product_state(a, a, 2)


def test_product_probe_deficit_matches_product_state():
    a, b = coherent_amplitudes(1.0, 20), coherent_amplitudes(1.5, 25)
    for n_cap in (8, 12, 45):
        probe = product_probe(a, b, n_cap, eps_trunc=1.0)
        kept = np.abs(product_state(a, b, n_cap, eps_trunc=1.0).amps) ** 2
        assert probe.deficit == pytest.approx(1.0 - math.fsum(kept), abs=1e-15)
    with pytest.raises(TruncationError):
        product_probe(a, b, 8)


def test_product_with_a_nan_amplitude_is_refused_by_its_deficit():
    # a nan mass gives a nan deficit, which no tolerance passes: the probe and the state refuse it alike
    a = coherent_amplitudes(1.0, 20)
    bad = SingleModeAmplitudes(2, np.array([1.0, math.nan, 0.0], dtype=np.complex128), 0.0)
    for make in (product_probe, product_state):
        for x, y in ((a, bad), (bad, a)):
            with pytest.raises(TruncationError, match="deficit nan"):
                make(x, y, 22, eps_trunc=1.0)


def test_fock_after_symmetric_bs_small():
    s0 = fock_after_symmetric_bs(0)
    assert s0.amplitude(0, 0) == 1.0
    s2 = fock_after_symmetric_bs(2)
    assert s2.amplitude(2, 0) == pytest.approx(0.5, abs=1e-15)
    assert s2.amplitude(1, 1) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert s2.amplitude(0, 2) == pytest.approx(0.5, abs=1e-15)


def test_fock_after_symmetric_bs_exact_binomial_norm():
    # oracle: exact integer binomial sum
    assert sum(Fraction(math.comb(10, k), 2**10) for k in range(11)) == 1
    s = fock_after_symmetric_bs(10)
    assert s.squared_norm() == pytest.approx(1.0, abs=1e-14)


def test_fock_after_symmetric_bs_matches_fraction_oracle():
    # oracle: C(N,k)/2^N held exactly as a Fraction, rounded to float, then sqrt
    for n in range(201):
        s = fock_after_symmetric_bs(n)
        for k in range(n + 1):
            assert s.amplitude(n - k, k) == math.sqrt(Fraction(math.comb(n, k), 2**n)), (n, k)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
def test_fock_after_symmetric_bs_equals_beam_splitter(n):
    from mzlab.fock import TwoModeState

    direct = fock_after_symmetric_bs(n)
    via_bs = beam_splitter(TwoModeState.basis_state(n, n, 0), BS1_SYMMETRIC)
    assert np.abs(direct.amps - via_bs.amps).max() <= 1e-12


def test_noon_state():
    s = noon_state(2)
    assert s.amplitude(2, 0) == pytest.approx(1 / math.sqrt(2))
    assert s.amplitude(0, 2) == pytest.approx(1 / math.sqrt(2))
    assert s.amplitude(1, 1) == 0.0
    s1 = noon_state(1)
    assert s1.amplitude(1, 0) == pytest.approx(1 / math.sqrt(2))
    s4 = noon_state(4)
    probs = np.abs(s4.amps) ** 2
    assert probs.sum() == pytest.approx(1.0)
    assert s4.amplitude(4, 0) ** 2 == pytest.approx(0.5)
    assert s4.amplitude(0, 4) ** 2 == pytest.approx(0.5)
    with pytest.raises(ValueError):
        noon_state(0)


def test_twin_fock():
    s = twin_fock(1)
    assert s.amplitude(1, 1) == 1.0
    s3 = twin_fock(3)
    assert s3.amplitude(3, 3) == 1.0
    assert s3.n_cap == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_twin_fock_through_splitter_matches_polynomial_oracle(n):
    """Oracle: expand ((a+)^2 - (b+)^2)^n / (2^n n!) on vacuum exactly."""
    out = beam_splitter(twin_fock(n), BS1_SYMMETRIC)
    n1s, n2s = index_pairs(out.n_cap)
    expected = np.zeros(out.dim, dtype=complex)
    for k in range(n + 1):
        n1, n2 = 2 * k, 2 * (n - k)
        coeff = Fraction(math.comb(n, k) * (-1) ** (n - k), 2**n * math.factorial(n))
        from mzlab.fock import pair_index

        expected[pair_index(n1, n2)] = float(coeff) * math.sqrt(math.factorial(n1) * math.factorial(n2))
    assert np.abs(out.amps - expected).max() <= 1e-12
    # support only where n1 - n2 is even
    occupied = np.abs(out.amps) > 1e-14
    assert np.all((n1s[occupied] - n2s[occupied]) % 2 == 0)


def test_auto_coherent_meets_target():
    sm = auto_coherent(4.0, 1e-10)
    assert sm.deficit <= 2.5e-11


def _convolved_deficit(a, b, n_cap: int) -> float:
    """The product deficit from the full convolution of the two photon-number distributions."""
    return 1.0 - math.fsum(np.convolve(np.abs(a.amps) ** 2, np.abs(b.amps) ** 2)[: n_cap + 1])


@pytest.mark.parametrize("pair", ["coherent", "coherent-large", "squeezed", "squeezed-large"])
def test_product_probe_deficit_matches_the_convolution(pair):
    a, b = {
        "coherent": lambda: (auto_coherent(2.0), auto_coherent(1.5j)),
        "coherent-large": lambda: (auto_coherent(6.0), auto_coherent(0.5)),
        "squeezed": lambda: (auto_coherent(4.0j), auto_squeezed(SqueezeParams(1.0))),
        "squeezed-large": lambda: (auto_coherent(8.0), auto_squeezed(SqueezeParams(1.5, 0.4))),
    }[pair]()
    default = a.cutoff + b.cutoff
    for n_cap in (default, default - 1, default - 7, default // 2, default // 5, 0):  # at, below, well below
        got = product_probe(a, b, n_cap, eps_trunc=1.0).deficit
        assert got == pytest.approx(_convolved_deficit(a, b, n_cap), abs=1e-15), n_cap


@pytest.mark.parametrize("pair", ["coherent", "squeezed"])
def test_product_probe_default_cap_keeps_every_pair_of_the_two_cutoffs(pair):
    a, b, bs1 = {
        "coherent": lambda: (auto_coherent(2.0), auto_coherent(1.5j), False),
        "squeezed": lambda: (auto_coherent(4.0j), auto_squeezed(SqueezeParams(1.0)), True),
    }[pair]()
    got, want = product_probe(a, b, None, bs1=bs1), product_probe(a, b, a.cutoff + b.cutoff, bs1=bs1)
    for name, x, y in zip(want._fields, got, want, strict=True):
        assert x is y or x == y, name
