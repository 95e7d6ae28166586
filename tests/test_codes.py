"""Repetition-code layer: success probabilities, corrected and encoded channels."""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import binom

from cohlab.channel import ChannelMetrics, metrics_closed, x_state_metrics
from cohlab.codes import (
    bitflip_metrics,
    bitflip_p_e,
    corrected_c,
    corrected_channel_metrics,
    phase_success_prob,
)
from cohlab.qubit import phase_error_prob

from oracles import (
    element_map_density,
    fef_oracle,
    phase_success_mp,
    random_channel_states,
    wootters_concurrence,
)


def brute_force_success(n: int, p: float) -> float:
    """Enumerate all error patterns; success iff at most (n-1)/2 flips."""
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=n):
        k = sum(pattern)
        if k <= (n - 1) // 2:
            total += p**k * (1 - p) ** (n - k)
    return total


def test_phase_success_prob_trivial_cases():
    assert phase_success_prob(1, 0.3) == 0.7
    assert phase_success_prob(7, 0.0) == 1.0
    with pytest.raises(ValueError):
        phase_success_prob(4, 0.1)
    with pytest.raises(ValueError):
        phase_success_prob(3, 1.0)


def test_phase_success_prob_n3_against_enumeration():
    assert abs(brute_force_success(3, 0.1) - 0.972) < 1e-15
    assert abs(phase_success_prob(3, 0.1) - 0.972) < 1e-15
    for p in (0.02, 0.25, 0.49):
        for n in (1, 3, 5, 7, 9):
            assert abs(phase_success_prob(n, p) - brute_force_success(n, p)) < 1e-13


def test_phase_success_prob_log_space_consistency():
    # exact-comb route vs log-space route vs binomial CDF on both sides of
    # the n = 60 switch
    for n in (59, 61, 101):
        for p in (0.05, 0.3, 0.47):
            ref = binom.cdf((n - 1) // 2, n, p)
            assert abs(phase_success_prob(n, p) - ref) < 1e-12


def test_phase_success_prob_monotone_in_n():
    for p in (0.1, 0.3, 0.45):
        vals = [phase_success_prob(n, p) for n in range(1, 52, 2)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.5 < v <= 1.0 for v in vals)


def test_corrected_c_values():
    assert corrected_c(3, 0.0) == 1.0
    assert abs(corrected_c(1, 0.3) - 0.4) < 1e-15          # bare channel
    assert corrected_c(101, 0.4) > 0.95                    # threshold behavior
    for n in (1, 3, 9, 101):
        for p in (0.1, 0.49):
            assert corrected_c(n, p) >= 1 - 2 * p - 1e-15  # never hurts


def test_corrected_metrics_reduce_to_unencoded_at_n1():
    u = 0.7 * np.exp(0.4j)
    m1 = corrected_channel_metrics(1.2, u, 1)
    m0 = metrics_closed(1.2, u)
    assert abs(m1.concurrence - m0.concurrence) < 1e-14
    assert abs(m1.fidelity - m0.fidelity) < 1e-14


def test_corrected_metrics_strong_coupling_headlines():
    # steady moduli of the strong-coupling propagator
    m = corrected_channel_metrics(1.2, 0.829050, 3)
    assert abs(m.concurrence - 0.237) < 0.02
    assert abs(m.fidelity - 0.747) < 0.01
    m = corrected_channel_metrics(1.2, 0.642771, 101)
    assert abs(m.concurrence - 0.796) < 0.02
    assert abs(m.fidelity - 0.958) < 0.01


def test_bitflip_p_e_consistency_and_monotonicity():
    u = 0.8
    assert abs(bitflip_p_e(1, 1.2, u) - phase_error_prob(1.2, u)) < 1e-15
    for n in (1, 2, 5):
        assert bitflip_p_e(n, 1.2, 1.0) == 0.0
    p3, p6, p9 = (bitflip_p_e(n, 1.2, 0.8) for n in (3, 6, 9))
    assert p3 < p6 < p9 < 0.5


@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_bitflip_density_trace_and_invariants(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        u = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        state = element_map_density(1.2, u, n)
        assert abs(np.trace(state.rho) - 1.0) < 1e-12
        state.validate()


def test_bitflip_metrics_n1_reduces_to_unencoded():
    u = 0.77 * np.exp(-0.2j)
    m1 = bitflip_metrics(1, 1.2, u)
    m0 = metrics_closed(1.2, u)
    assert abs(m1.concurrence - m0.concurrence) < 1e-14
    assert abs(m1.f_max - m0.f_max) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_bitflip_metrics_match_matrix_oracles(n):
    for u in np.linspace(0.05, 1.0, 12):
        state = element_map_density(1.2, u, n)
        m = bitflip_metrics(n, 1.2, u)
        assert abs(m.concurrence - wootters_concurrence(state)) < 1e-10
        assert abs(m.f_max - fef_oracle(state)) < 1e-10


def test_bitflip_encoding_degrades_strong_channel():
    for u in (0.642771, 0.690049, 0.829050):
        fids = [bitflip_metrics(n, 1.2, u).fidelity for n in (1, 3, 6, 9)]
        assert all(a > b for a, b in zip(fids, fids[1:]))


def test_encoded_metrics_against_oracles_random():
    rng = np.random.default_rng(42)
    for a0, u, n in random_channel_states(rng, 40):
        state = element_map_density(a0, u, n)
        state.validate()
        m = bitflip_metrics(n, a0, u)
        assert abs(m.concurrence - wootters_concurrence(state)) < 1e-10
        assert abs(m.f_max - fef_oracle(state)) < 1e-10


@pytest.mark.parametrize("n", [1, 3, 9, 61, 101, 201])
def test_corrected_c_against_exact_binomial_sum(n):
    # the upper-tail sum by its ratio recurrence, on both sides of p = 1/2,
    # where the sum switches to the complement: measured ≤ 4.4e-16 in c'
    p = np.concatenate([np.geomspace(1e-12, 0.499, 40), [0.5, 0.51, 0.8, 0.999]])
    ref = np.array([2.0 * phase_success_mp(n, x) - 1.0 for x in p])
    np.testing.assert_allclose(corrected_c(n, p), ref, rtol=0, atol=2e-15)


def test_phase_success_prob_largest_n():
    # C(n, (n+1)/2) fits a double up to n = 1029; past it the call refuses
    assert abs(phase_success_prob(1029, 0.3) - phase_success_mp(1029, 0.3)) <= 1e-15
    assert abs(phase_success_prob(1029, 0.49) - phase_success_mp(1029, 0.49)) <= 1e-15
    with pytest.raises(ValueError, match="1029"):
        phase_success_prob(1031, 0.1)


def test_phase_success_prob_is_elementwise():
    p = np.array([0.0, 1e-9, 0.1, 0.3, 0.499])
    got = phase_success_prob(9, p)
    assert got.shape == p.shape
    assert list(got) == [phase_success_prob(9, x) for x in p]
    with pytest.raises(ValueError, match="outside"):
        phase_success_prob(9, np.array([0.1, 1.0]))
    with pytest.raises(ValueError, match="outside"):
        phase_success_prob(9, np.array([-1e-3, 0.1]))


def _curve(rng, size=30):
    """Moduli spanning (0, 1] with a u = 1 row, random phases."""
    r = np.concatenate([[1.0, 1e-8], rng.uniform(0.0, 1.0, size - 2)])
    return r * np.exp(2j * np.pi * rng.uniform(size=size))


@pytest.mark.parametrize("n", [1, 3, 6, 9, 101])
def test_x_state_kernel_against_matrix_oracles(n):
    """Bit code (any n) and phase code (odd n), one array call per curve,
    row by row against Wootters and the magic-basis eigenvalue."""
    rng = np.random.default_rng(200 + n)
    a0 = 1.2
    u = _curve(rng)
    m = bitflip_metrics(n, a0, u)
    for k, uk in enumerate(u):
        state = element_map_density(a0, uk, n)
        assert abs(m.concurrence[k] - wootters_concurrence(state)) < 1e-10
        assert abs(m.f_max[k] - fef_oracle(state)) < 1e-10
    np.testing.assert_allclose(m.fidelity, (2.0 * m.f_max + 1.0) / 3.0, rtol=0, atol=1e-15)
    if n % 2 == 0:
        return
    cp = corrected_c(n, phase_error_prob(a0, u))
    m = corrected_channel_metrics(a0, u, n)
    for k, uk in enumerate(u):
        # normalized at t = 0, as the code's M is: trace 1 only where c' = c
        state = element_map_density(a0, uk, c=cp[k])
        assert abs(m.concurrence[k] - wootters_concurrence(state)) < 1e-10
        assert abs(m.f_max[k] - fef_oracle(state)) < 1e-10


def test_x_state_kernel_matches_scalar_calls():
    rng = np.random.default_rng(9)
    u = _curve(rng)
    for fn in (lambda x: metrics_closed(1.2, x), lambda x: bitflip_metrics(6, 1.2, x),
               lambda x: corrected_channel_metrics(1.2, x, 9)):
        m = fn(u)
        for k, uk in enumerate(u):
            one = fn(uk)
            assert isinstance(one.concurrence, float)
            for got, want in ((m.concurrence[k], one.concurrence), (m.f_max[k], one.f_max),
                              (m.fidelity[k], one.fidelity)):
                assert abs(got - want) <= 1e-15


def test_x_state_kernel_range_checks():
    u = np.array([0.9, 0.5, 0.2])
    for modes in (1, 2):
        # one unphysical row, c > 1, pushes f_max (and C) above 1
        with pytest.raises(ValueError, match=r"f_max = 1\.0\d* outside \[0, 1\]"):
            x_state_metrics(3.0, u, np.array([0.9, 1.0 + 1e-6, 0.2]), modes)
        with pytest.raises(ValueError, match=r"f_max = nan outside \[0, 1\]"):
            x_state_metrics(1.2, u, np.array([0.9, np.nan, 0.2]), modes)
    ok = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="concurrence 1.1 outside"):
        ChannelMetrics(np.array([0.5, 1.1]), ok, ok)
    with pytest.raises(ValueError, match="fidelity 0.3 outside"):
        ChannelMetrics(ok, ok, np.array([0.5, 0.3]))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_even_n_fmax_at_large_amplitude_stays_in_range(n):
    # |α_t|² large: a = b = 1/√2 up to rounding, where a²b² from the rounded
    # a and b used to exceed 1/4 and push f_max to 1 + 2e-16 (a ValueError)
    u = np.array([1.0, 0.9999, 0.99])
    for a0 in (2.0, 3.0, 6.0):
        m = bitflip_metrics(n, a0, u)
        assert np.all(m.f_max <= 1.0)
        for k, uk in enumerate(u):
            assert abs(m.f_max[k] - fef_oracle(element_map_density(a0, uk, n))) < 1e-10
