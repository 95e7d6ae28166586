"""Single-qubit element map, cat-state evolution, operator-sum equivalence."""

import cmath

import numpy as np
import pytest

from cohlab.qubit import coherence_factor, phase_error_prob

from oracles import (
    CatState,
    CoherentElement,
    cat_evenodd_density,
    coherent_overlap,
    evenodd_coeffs,
    evolve_cat,
    evolve_element,
    operator_sum_density,
)


def random_cat(rng) -> CatState:
    c1 = rng.normal() + 1j * rng.normal()
    c2 = rng.normal() + 1j * rng.normal()
    norm = np.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
    return CatState(c1 / norm, c2 / norm, rng.uniform(0.4, 1.8))


def random_u(rng) -> complex:
    return rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())


def test_coherent_overlap_basics():
    assert coherent_overlap(1.3, 1.3) == 1.0
    a, b = 0.9 + 0.2j, -0.4 + 1.1j
    expect = cmath.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2 + a.conjugate() * b)
    assert abs(coherent_overlap(a, b) - expect) < 1e-15
    # opposite phases: <alpha|-alpha> = e^{-2|alpha|^2}
    assert abs(coherent_overlap(1.2, -1.2) - np.exp(-2 * 1.44)) < 1e-15


def test_evolve_element_diagonal_preserves_prefactor():
    elem = CoherentElement(1.0, 0.8 + 0.3j, 0.8 + 0.3j)
    out = evolve_element(elem, 0.5 * np.exp(0.7j))
    assert abs(out.prefactor - 1.0) < 1e-15
    assert out.ket_amp == elem.ket_amp * 0.5 * np.exp(0.7j)


def test_evolve_element_identity_at_u1():
    elem = CoherentElement(0.3 - random_u(np.random.default_rng(0)), 1.1, -0.6 + 0.2j)
    out = evolve_element(elem, 1.0)
    assert out == elem


def test_evolve_element_off_diagonal_damping():
    # alpha=1.2, beta=-1.2, |u|=0.5: multiplier e^{-0.75*2.88} = e^{-2.16}
    out = evolve_element(CoherentElement(1.0, 1.2, -1.2), 0.5)
    assert abs(abs(out.prefactor) - np.exp(-2.16)) < 1e-12
    assert abs(out.prefactor - 0.11533) < 5e-6


def test_phase_error_prob_values():
    assert phase_error_prob(1.2, 1.0) == 0.0
    assert abs(phase_error_prob(1.2, 0.0) - 0.5 * (1 - np.exp(-2 * 1.44))) < 1e-15
    assert abs(phase_error_prob(1.2, 0.0) - 0.472) < 5e-4
    assert abs(phase_error_prob(1.2, 0.5) - 0.5 * (1 - np.exp(-2.16))) < 1e-15
    assert abs(phase_error_prob(1.2, 0.5) - 0.44234) < 5e-6


def test_phase_error_prob_monotone_in_damping():
    us = np.linspace(1.0, 0.0, 21)
    ps = [phase_error_prob(1.2, u) for u in us]
    assert all(p2 > p1 for p1, p2 in zip(ps, ps[1:]))
    assert all(0.0 <= p < 0.5 for p in ps)


def test_phase_error_prob_rejects_u_above_one():
    with pytest.raises(ValueError):
        phase_error_prob(1.2, 1.5)
    with pytest.raises(ValueError, match="exceeds 1"):
        phase_error_prob(1.2, np.array([0.5, 1.0, 1.5j]))
    assert phase_error_prob(1.2, 1.0 + 1e-10) == 0.0   # solver roundoff is tolerated


def test_channel_functions_are_elementwise():
    rng = np.random.default_rng(8)
    a0 = 1.1
    u = rng.uniform(0, 1, 25) * np.exp(2j * np.pi * rng.uniform(size=25))
    for f in (coherence_factor, phase_error_prob):
        np.testing.assert_allclose(f(a0, u), [f(a0, x) for x in u], rtol=1e-15, atol=0)
    a, b = evenodd_coeffs(a0 * u)
    pairs = [evenodd_coeffs(a0 * x) for x in u]
    np.testing.assert_allclose(a, [p[0] for p in pairs], rtol=1e-15, atol=0)
    np.testing.assert_allclose(b, [p[1] for p in pairs], rtol=1e-15, atol=0)


def test_coherence_factor_is_one_minus_two_pe():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a0, u = rng.uniform(0.2, 2.0), random_u(rng)
        assert abs(coherence_factor(a0, u) - (1 - 2 * phase_error_prob(a0, u))) < 1e-15


def test_cat_state_validation_and_normalization():
    with pytest.raises(ValueError):
        CatState(1.0, 0.5, 1.2)
    s = CatState(1 / np.sqrt(2), 1 / np.sqrt(2), 1.2)
    assert abs(s.normalization - (1 + np.exp(-2 * 1.44))) < 1e-15


def test_evolve_cat_u1_is_pure_input_state():
    s = CatState(0.6, 0.8j, 1.0)
    rho = cat_evenodd_density(s, 1.0)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    ev = np.linalg.eigvalsh(rho)
    assert abs(ev[-1] - 1.0) < 1e-12


def test_evolve_cat_single_branch():
    # c1=1, c2=0: a single damped coherent state, no interference suppression
    s = CatState(1.0, 0.0, 1.2)
    coeff = evolve_cat(s, 0.3)
    assert abs(coeff[0, 0] - 1.0) < 1e-15
    assert coeff[0, 1] == 0.0 and coeff[1, 0] == 0.0 and coeff[1, 1] == 0.0


def test_operator_sum_equivalence_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = random_cat(rng)
        u = random_u(rng)
        direct = cat_evenodd_density(s, u)
        osum = operator_sum_density(s, u)
        assert np.max(np.abs(direct - osum)) < 1e-12


def test_evolved_cat_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = random_cat(rng)
        rho = cat_evenodd_density(s, random_u(rng))
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_evenodd_coeffs_limits():
    a, b = evenodd_coeffs(0.0)
    assert (a, b) == (1.0, 0.0)
    a, b = evenodd_coeffs(30.0)
    assert abs(a - np.sqrt(0.5)) < 1e-15 and abs(b - np.sqrt(0.5)) < 1e-15
    a, b = evenodd_coeffs(0.9 + 0.4j)
    assert abs(a * a + b * b - 1.0) < 1e-14 and a >= b >= 0
