"""Propagator: time stepping vs Laplace inversion, poles, Markov diagnostic."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from cohlab.bath import BathSpec, imaginary_axis_denominator, spectral_density
from cohlab.propagator import (
    NonConvergenceError,
    PropagatorSolution,
    TimeGrid,
    find_poles,
    lamb_shift,
    markov_u,
    resample,
    solve_laplace,
    solve_volterra,
    volterra_residual,
)
from cohlab.bath import pv_power_exp
from cohlab import propagator

from oracles import find_poles_scan, step_history_direct

S_VALUES = (0.5, 1.0, 3.0)
REFERENCE_PAIRS = [(s, e) for s in S_VALUES for e in (0.01, 0.5)]


# ---------------------------------------------------------------------------
# grids and solution records
# ---------------------------------------------------------------------------

def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.2]))          # must start at 0
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.2, 0.2]))     # strictly increasing
    g = TimeGrid.uniform(10.0, 100)
    assert g.samples[0] == 0.0 and g.t_max == 10.0 and abs(g.step - 0.1) < 1e-15
    lg = TimeGrid.log(100.0, 50)
    assert lg.samples[0] == 0.0 and len(lg.samples) == 50
    with pytest.raises(ValueError):
        lg.step


def test_solution_validate_catches_bad_modulus():
    g = TimeGrid.uniform(1.0, 2)
    sol = PropagatorSolution(g, np.array([1.0, 1.1, 0.5], dtype=complex), "volterra")
    with pytest.raises(AssertionError):
        sol.validate()


# ---------------------------------------------------------------------------
# free evolution and weak coupling
# ---------------------------------------------------------------------------

def test_free_evolution_both_solvers():
    spec = BathSpec(1.0, 0.0)
    grid = TimeGrid.uniform(50.0, 500)
    for solver in (solve_volterra, solve_laplace):
        sol = solver(spec, 0.1, grid)
        np.testing.assert_allclose(np.abs(sol.u), 1.0, atol=1e-12)
        np.testing.assert_allclose(sol.u, np.exp(-1j * 0.1 * grid.samples), atol=1e-12)
    assert find_poles(spec, 0.1) == [(-1j * 0.1, 1.0 + 0.0j)]


@pytest.mark.parametrize("s,eta0", REFERENCE_PAIRS)
def test_cross_solver_agreement_short(s, eta0):
    spec = BathSpec(s, eta0)
    grid = TimeGrid.uniform(100.0, 10000)
    sv = solve_volterra(spec, 0.1, grid)
    sl = solve_laplace(spec, 0.1, grid)
    assert np.max(np.abs(sv.u - sl.u)) < 1e-4
    sv.validate()
    sl.validate(u0_tol=1e-3)


def test_generic_s_fallback_cross_solver():
    # s = 2 takes the Ei principal value (the Kummer sum past ω ≈ 15)
    # through pole finding and the branch-cut quadrature
    spec = BathSpec(2.0, 0.3)
    grid = TimeGrid.uniform(50.0, 5000)
    sv = solve_volterra(spec, 0.1, grid)
    sl = solve_laplace(spec, 0.1, TimeGrid(grid.samples[::50]))
    assert np.max(np.abs(sv.u[::50] - sl.u)) < 1e-4
    assert len(sl.poles) == 1 and sl.steady_modulus > 0.5


def test_generic_s_fractional_cross_solver():
    # s = 1.5 takes the hypergeometric principal value and the continued
    # fraction / series imaginary-axis integral
    spec = BathSpec(1.5, 0.3)
    grid = TimeGrid.uniform(50.0, 5000)
    sv = solve_volterra(spec, 0.1, grid)
    sl = solve_laplace(spec, 0.1, TimeGrid(grid.samples[::50]))
    assert np.max(np.abs(sv.u[::50] - sl.u)) < 1e-4
    assert len(sl.poles) == 1 and sl.steady_modulus > 0.5


def test_generic_s_laplace_emits_no_integration_warning():
    # the per-point quad of the old principal value warned 1 087 times here
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        sol = solve_laplace(BathSpec(0.7, 0.01), 0.1, TimeGrid.log(1000.0, 100))
    assert np.all(np.isfinite(sol.u))


def test_laplace_sum_rule():
    # residues plus branch-cut weight integrate to unity
    for s, eta0 in ((0.5, 0.5), (3.0, 0.01)):
        spec = BathSpec(s, eta0)
        sol = solve_laplace(spec, 0.1, TimeGrid.uniform(1.0, 4))
        assert abs(sol.u[0] - 1.0) < 1e-3


def test_volterra_u0_exact_and_residual():
    spec = BathSpec(3.0, 0.5)
    sol = solve_volterra(spec, 0.1, TimeGrid.uniform(100.0, 10000))
    assert sol.u[0] == 1.0 + 0.0j
    assert volterra_residual(spec, 0.1, sol) <= 1e-6


@pytest.mark.parametrize("s,eta0", REFERENCE_PAIRS)
def test_step_history_matches_direct_sum(s, eta0):
    # the blocked FFT history sum against the O(n^2) direct sum: n = 9 is
    # the first step past the start-up, 1000, 3001 and 5000 cross several
    # dyadic block levels, 3001 is no power of two times the near block
    spec = BathSpec(s, eta0)
    for n in (1, 8, 9, 1000, 3001, 5000):
        t, u = propagator._step_history(spec, 0.1, 0.05, n)
        t_ref, u_ref = step_history_direct(spec, 0.1, 0.05, n)
        assert len(u) == n + 1
        np.testing.assert_array_equal(t, t_ref)
        assert np.max(np.abs(u - u_ref)) <= 1e-12, n


@pytest.mark.parametrize("s,eta0", REFERENCE_PAIRS)
def test_halving_gate_decisions_match_direct_sum(s, eta0, monkeypatch):
    spec = BathSpec(s, eta0)
    grid = TimeGrid.uniform(40.0, 400)
    fast = solve_volterra(spec, 0.1, grid)
    monkeypatch.setattr(propagator, "_step_history", step_history_direct)
    ref = solve_volterra(spec, 0.1, grid)
    assert fast.diagnostics["refinements"] == ref.diagnostics["refinements"] >= 1
    assert fast.diagnostics["h_final"] == ref.diagnostics["h_final"]
    assert abs(fast.diagnostics["halving_delta"] - ref.diagnostics["halving_delta"]) <= 1e-12
    assert np.max(np.abs(fast.u - ref.u)) <= 1e-12


def test_volterra_diagnostics():
    spec = BathSpec(1.0, 0.5)
    grid = TimeGrid.uniform(20.0, 200)
    sol = solve_volterra(spec, 0.1, grid)
    d = sol.diagnostics
    assert d["h_final"] == grid.step / 2 ** d["refinements"]
    assert 0.0 <= d["halving_delta"] < 1e-5
    assert resample(sol, TimeGrid.log(20.0, 10)).diagnostics == d
    assert solve_volterra(BathSpec(1.0, 0.0), 0.1, grid).diagnostics == {}


def test_volterra_refinement_budget_error():
    spec = BathSpec(3.0, 0.5)
    with pytest.raises(NonConvergenceError):
        solve_volterra(spec, 0.1, TimeGrid.uniform(100.0, 250), max_refinements=1)


def test_volterra_requires_uniform_grid():
    spec = BathSpec(1.0, 0.01)
    with pytest.raises(ValueError):
        solve_volterra(spec, 0.1, TimeGrid.log(10.0, 20))


def test_weak_coupling_monotone_modulus():
    # |u| decays monotonically at weak coupling; super-Ohmic feedback
    # produces genuine wiggles at the few-1e-6 level, hence the slack
    for s in S_VALUES:
        spec = BathSpec(s, 0.01)
        sol = solve_volterra(spec, 0.1, TimeGrid.uniform(200.0, 4000))
        increases = np.diff(np.abs(sol.u))
        assert increases.max() < 1e-5


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", S_VALUES)
def test_no_pole_at_weak_coupling(s):
    assert find_poles(BathSpec(s, 0.01), 0.1) == []


@pytest.mark.parametrize("s", S_VALUES)
def test_single_pole_at_strong_coupling(s):
    spec = BathSpec(s, 0.5)
    poles = find_poles(spec, 0.1)
    assert len(poles) == 1
    z, res = poles[0]
    assert z.real == 0.0 and z.imag > 0.0
    assert 0.0 < abs(res) < 1.0
    # the pole is a zero of the imaginary-axis denominator
    assert abs(imaginary_axis_denominator(spec, 0.1, z.imag)) < 1e-10


@pytest.mark.parametrize("s,eta0", REFERENCE_PAIRS + [
    (1.0, 1000.0), (3.0, 1000.0), (1.5, 0.5), (2.0, 0.5), (0.3, 0.05), (4.0, 0.01)])
def test_find_poles_matches_scan(s, eta0):
    # one bracket on the monotone B_loc finds what the 4000-point scan finds,
    # including nothing when the zero lies beyond y_max (eta0 = 1000)
    spec = BathSpec(s, eta0)
    got, ref = find_poles(spec, 0.1), find_poles_scan(spec, 0.1)
    assert len(got) == len(ref)
    for (z, res), (z_ref, res_ref) in zip(got, ref):
        assert abs(z - z_ref) <= 1e-12
        assert abs(res - res_ref) <= 1e-12


def test_pole_existence_threshold():
    # a pole exists iff eta_s * Gamma(s) > omega0
    s = 1.0
    for eta0 in (0.03, 0.05):
        spec = BathSpec(s, eta0)
        expect = spec.eta_s * math.gamma(s) > 0.1
        assert bool(find_poles(spec, 0.1)) == expect


def test_residue_matches_finite_difference_derivative():
    spec = BathSpec(3.0, 0.5)
    (z, res), = find_poles(spec, 0.1)
    y = z.imag
    h = 1e-6
    fd = (imaginary_axis_denominator(spec, 0.1, y + h)
          - imaginary_axis_denominator(spec, 0.1, y - h)) / (2 * h)
    assert abs(1.0 / res - fd) <= 1e-6 * abs(fd)


def test_steady_modulus_matches_long_time_volterra():
    spec = BathSpec(3.0, 0.5)
    grid = TimeGrid.uniform(300.0, 30000)
    sv = solve_volterra(spec, 0.1, grid)
    sl = solve_laplace(spec, 0.1, grid)
    assert sl.steady_modulus > 0.0
    # at t=300 the branch-cut part has decayed to ~1e-9
    assert abs(abs(sv.u[-1]) - sl.steady_modulus) < 1e-3


# ---------------------------------------------------------------------------
# Markovian diagnostic and the Lamb shift
# ---------------------------------------------------------------------------

def test_lamb_shift_free_limit():
    assert lamb_shift(BathSpec(1.0, 0.0), 0.1).omega0_prime == 0.1


def test_lamb_shift_two_method_agreement():
    # symmetric excision + extrapolation vs analytic-subtraction PV quadrature
    spec = BathSpec(1.0, 0.01)
    got = lamb_shift(spec, 0.1).omega0_prime
    expect = 0.1 - spec.eta_s * pv_power_exp(1.0, 0.1)
    assert abs(got - expect) <= 1e-6 * abs(expect)


def test_markov_u_t0_and_modulus():
    spec = BathSpec(1.0, 0.01)
    assert markov_u(spec, 0.1, 0.0) == 1.0 + 0.0j
    t = np.array([0.0, 3.0, 17.0])
    rate = 0.5 * spectral_density(spec, 0.1)
    np.testing.assert_allclose(np.abs(markov_u(spec, 0.1, t)), np.exp(-rate * t), rtol=1e-12)


def test_markov_phase_convention_matches_exact_solver():
    # the shifted frequency must rotate the same way the exact solution does
    spec = BathSpec(1.0, 0.01)
    grid = TimeGrid.uniform(50.0, 5000)
    sv = solve_volterra(spec, 0.1, grid)
    measured = np.angle(sv.u[-1])
    w_minus = lamb_shift(spec, 0.1).omega0_prime
    w_plus = 0.1 + (0.1 - w_minus)  # opposite sign convention
    def wrap(x):
        return (x + np.pi) % (2 * np.pi) - np.pi
    err_minus = abs(wrap(measured - (-w_minus * 50.0)))
    err_plus = abs(wrap(measured - (-w_plus * 50.0)))
    assert err_minus < 0.3
    assert err_minus < 0.2 * err_plus


def test_markov_agrees_with_exact_at_genuinely_weak_coupling():
    # in the true weak-coupling limit the diagnostic converges on the solver
    spec = BathSpec(1.0, 0.0005)
    grid = TimeGrid.uniform(100.0, 4000)
    sv = solve_volterra(spec, 0.1, grid)
    mu = markov_u(spec, 0.1, grid.samples)
    assert np.max(np.abs(np.abs(sv.u) - np.abs(mu))) < 2e-3


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def test_resample_to_log_grid_matches_laplace():
    spec = BathSpec(1.0, 0.5)
    uniform = TimeGrid.uniform(100.0, 10000)
    log = TimeGrid.log(100.0, 60, t_min=0.5)
    sv = resample(solve_volterra(spec, 0.1, uniform), log)
    sl = solve_laplace(spec, 0.1, log)
    assert np.max(np.abs(sv.u - sl.u)) < 1e-4
    with pytest.raises(ValueError):
        resample(sv, TimeGrid.uniform(200.0, 10))
