"""Two-qubit channel: X-form state, concurrence, FEF, teleportation fidelity."""

import math

import numpy as np
import pytest

from cohlab.channel import ChannelMetrics, metrics_closed, teleportation_fidelity
from cohlab.qubit import coherence_factor

from oracles import (
    CoherentElement,
    TwoQubitState,
    coherent_overlap,
    element_map_density,
    evenodd_coeffs,
    evolve_element,
    fef_direct_search,
    fef_oracle,
    random_channel_states,
    wootters_concurrence,
)


def test_cluster_state_pure_at_u1():
    state = element_map_density(1.2, 1.0)
    state.validate()
    ev = np.linalg.eigvalsh(state.rho)
    assert abs(ev[-1] - 1.0) < 1e-10         # rank one
    assert abs(np.trace(state.rho) - 1.0) < 1e-12


def test_cluster_state_trace_identity_random():
    # trace 1 hinges on c^2 e^{-4|alpha_t|^2} = e^{-4|alpha0|^2}
    rng = np.random.default_rng(2)
    for _ in range(50):
        a0 = rng.uniform(0.2, 2.0)
        u = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        state = element_map_density(a0, u)
        assert abs(np.trace(state.rho) - 1.0) < 1e-12
        state.validate()


def test_cluster_state_matches_element_map_one_element_at_a_time():
    # the 16 elements |s1 α0, s2 α0⟩⟨r1 α0, r2 α0| of |+,+⟩ + i|+,-⟩ + i|-,+⟩ + |-,-⟩,
    # each mode through `evolve_element` on its own and |±α_t⟩ = a|e⟩ ± b|o⟩,
    # over the initial norm Σ ⟨r1 α0|s1 α0⟩⟨r2 α0|s2 α0⟩ of the coherent overlaps
    amps = {(1, 1): 1.0, (1, -1): 1j, (-1, 1): 1j, (-1, -1): 1.0}
    rng = np.random.default_rng(24)
    for _ in range(50):
        a0, u = rng.uniform(0.2, 2.0), rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        a, b = evenodd_coeffs(a0 * u)
        vec = {1: np.array([a, b]), -1: np.array([a, -b])}
        rho, norm = np.zeros((4, 4), dtype=complex), 0.0
        for (s1, s2), ket in amps.items():
            for (r1, r2), bra in amps.items():
                first = evolve_element(CoherentElement(ket * np.conj(bra), s1 * a0, r1 * a0), u)
                both = evolve_element(CoherentElement(first.prefactor, s2 * a0, r2 * a0), u)
                rho += both.prefactor * np.outer(np.kron(vec[s1], vec[s2]), np.kron(vec[r1], vec[r2]))
                norm += ket * np.conj(bra) * coherent_overlap(r1 * a0, s1 * a0) * coherent_overlap(r2 * a0, s2 * a0)
        np.testing.assert_allclose(element_map_density(a0, u).rho, rho / norm, rtol=0, atol=1e-14)


def test_cluster_state_x_structure():
    state = element_map_density(1.2, 0.6 * np.exp(0.9j))
    off_x = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]
    for i, j in off_x:
        assert abs(state.rho[i, j]) < 1e-14


def test_validate_rejects_each_violation():
    rho = element_map_density(1.2, 0.7 * np.exp(0.4j)).rho
    TwoQubitState(rho).validate()
    skewed = rho.copy()
    skewed[0, 3] += 1e-6
    negative = np.diag([0.5 + 1e-6, 0.5, 0.0, -1e-6]).astype(complex)
    for bad, why in ((np.eye(3, dtype=complex) / 3, "must be 4x4"),
                     (1.1 * rho, "trace deviates"),
                     (skewed, "not Hermitian"),
                     (negative, "negative eigenvalue")):
        with pytest.raises(AssertionError, match=why):
            TwoQubitState(bad).validate()


def test_concurrence_closed_values():
    assert abs(metrics_closed(1.2, 1.0).concurrence - math.tanh(2 * 1.44)) < 1e-14
    assert abs(metrics_closed(1.2, 1.0).concurrence - 0.9937) < 5e-4
    assert metrics_closed(1e-8, 0.9).concurrence < 1e-14    # vacuum limit


def test_concurrence_sudden_death_threshold():
    # C vanishes exactly when c <= sqrt(2) - 1
    a0 = 1.2
    target_c = math.sqrt(2.0) - 1.0
    u_star = math.sqrt(1.0 + math.log(target_c) / (2 * a0 * a0))
    assert metrics_closed(a0, u_star * 0.999).concurrence == 0.0
    assert metrics_closed(a0, u_star * 1.001).concurrence > 0.0


def test_wootters_on_known_states():
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert abs(wootters_concurrence(TwoQubitState(bell)) - 1.0) < 1e-12
    prod = np.zeros((4, 4), dtype=complex)
    prod[0, 0] = 1.0
    assert wootters_concurrence(TwoQubitState(prod)) == 0.0


def test_wootters_matches_closed_form_sweep():
    for u in np.linspace(0.0, 1.0, 20):
        state = element_map_density(1.2, u * np.exp(0.3j))
        assert abs(wootters_concurrence(state) - metrics_closed(1.2, u).concurrence) < 1e-10


def test_fef_closed_values():
    assert abs(metrics_closed(6.0, 1.0).f_max - 1.0) < 1e-12  # large amplitude
    expect = 1.0 / (1.0 + math.exp(-4 * 1.44))
    assert abs(metrics_closed(1.2, 1.0).f_max - expect) < 1e-14
    assert abs(metrics_closed(1.2, 1.0).f_max - 0.99686) < 5e-6


def test_fef_oracle_on_known_states():
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert abs(fef_oracle(TwoQubitState(bell)) - 1.0) < 1e-12
    assert abs(fef_oracle(TwoQubitState(np.eye(4, dtype=complex) / 4)) - 0.25) < 1e-12


def test_fef_oracle_matches_closed_form_sweep():
    for u in np.linspace(0.0, 1.0, 20):
        state = element_map_density(1.2, u * np.exp(-0.8j))
        assert abs(fef_oracle(state) - metrics_closed(1.2, u).f_max) < 1e-10


def test_fef_direct_search_certifies_oracle():
    rng = np.random.default_rng(9)
    for _ in range(3):
        a0 = rng.uniform(0.5, 1.6)
        u = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
        state = element_map_density(a0, u)
        direct = fef_direct_search(state, seed=int(rng.integers(1 << 30)))
        assert abs(direct - fef_oracle(state)) < 1e-4


def test_teleportation_fidelity_values():
    assert teleportation_fidelity(1.0) == 1.0
    assert abs(teleportation_fidelity(0.5) - 2.0 / 3.0) < 1e-15
    assert abs(teleportation_fidelity(0.25) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        teleportation_fidelity(1.2)
    with pytest.raises(ValueError):
        teleportation_fidelity(-0.1)


def test_metrics_closed_bundle():
    m = metrics_closed(1.2, 0.9)
    assert isinstance(m, ChannelMetrics)
    assert abs(m.fidelity - (2 * m.f_max + 1) / 3) < 1e-15
    with pytest.raises(ValueError):
        ChannelMetrics(0.5, 0.9, 0.2)


def test_state_invariants_across_random_family():
    rng = np.random.default_rng(6)
    for a0, u, _ in random_channel_states(rng, 60):
        state = element_map_density(a0, u)
        state.validate()
        c = coherence_factor(a0, u)
        assert 0.0 < c <= 1.0


def test_degenerate_amplitude_limit():
    # alpha_t -> 0: b -> 0, the odd sector empties but nothing blows up
    state = element_map_density(1.2, 0.0)
    state.validate()
    assert wootters_concurrence(state) < 1e-12
    assert abs(fef_oracle(state) - metrics_closed(1.2, 0.0).f_max) < 1e-10
