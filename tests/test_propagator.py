"""Propagator: time stepping vs Laplace inversion, poles, Markov diagnostic."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from cohlab.bath import (
    BathSpec,
    correlation,
    imaginary_axis_denominator,
    imaginary_axis_denominator_derivative,
    inversion_denominator,
    pv_power_exp,
    spectral_density,
)
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
)
from cohlab import propagator
from cohlab._fourier import FourierQuadratureError

from oracles import (
    block_map_recurrence,
    bound_state_mp,
    cut_tail_quad,
    find_poles_scan,
    kernel_modes_pi4,
    lamb_shift_excised,
    resonance_seeds_brentq,
    step_history_blocked_fft,
    step_history_direct,
    volterra_residual,
)

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
    sol = PropagatorSolution(g, np.array([1.0, 1.1, 0.5], dtype=complex))
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


@pytest.mark.parametrize("s,eta0", REFERENCE_PAIRS)
def test_laplace_diagnostics_record_panel_evidence(s, eta0):
    sol = solve_laplace(BathSpec(s, eta0), 0.1, TimeGrid.log(1000.0, 50))
    d = sol.diagnostics
    assert d["panels"] >= 1
    assert 0.0 <= d["worst_tail"] < 1e-7
    assert d["sum_rule_delta"] == abs(sol.u[0] - 1.0) <= 1e-9
    assert resample(sol, TimeGrid.log(500.0, 10)).diagnostics == d


@pytest.mark.parametrize("s", [3.0, 4.3, 5.5, 7.5])
def test_laplace_matches_time_stepping_past_the_reference_s(s):
    # a running panel scale left u off by 4.1e-5, 1.0e-4 and 3.1e-4 at
    # s = 3, 4.3 and 5.5, and exhausted the panel budget at s = 7.5
    spec, grid = BathSpec(s, 0.01), TimeGrid.uniform(100.0, 2000)
    sl = solve_laplace(spec, 0.1, grid)
    assert np.max(np.abs(sl.u - solve_volterra(spec, 0.1, grid).u)) <= 1e-5
    assert sl.diagnostics["sum_rule_delta"] <= 1e-6


def test_sub_ohmic_band_edge_leaves_no_unresolved_panel():
    # the ω^½ edge is resolved by the panel rule alone, with no edge
    # breakpoints; a tail of 2.4e-8 was left at the minimum panel width
    sol = solve_laplace(BathSpec(0.5, 0.01), 0.1, TimeGrid.log(1000.0, 50))
    assert sol.diagnostics["worst_tail"] == 0.0


def test_worst_tail_is_the_floor_panels_share_of_the_budget():
    # panels stop at the minimum width on the s = 7.5 resonance; their raw
    # Chebyshev tail read 2.3e7 although u is within 3e-7 of time stepping
    sol = solve_laplace(BathSpec(7.5, 0.01), 0.1, TimeGrid.log(100.0, 20))
    assert 0.0 < sol.diagnostics["worst_tail"] <= 1e-6


@pytest.mark.parametrize("s", [1.0, 3.0])
def test_laplace_sum_rule_delta_shows_the_strong_coupling_miss(s):
    # find_poles misses the bound state at eta0 = 1000 (ROADMAP item 1);
    # the solution is still returned, and the delta records the miss
    sol = solve_laplace(BathSpec(s, 1000.0), 0.1, TimeGrid.log(0.5, 20, 0.05))
    assert sol.poles == []
    assert sol.diagnostics["sum_rule_delta"] > 0.99


def test_volterra_u0_exact_and_residual():
    spec = BathSpec(3.0, 0.5)
    sol = solve_volterra(spec, 0.1, TimeGrid.uniform(100.0, 10000))
    assert sol.u[0] == 1.0 + 0.0j
    assert volterra_residual(spec, 0.1, sol) <= 1e-6


@pytest.mark.parametrize("s,eta0", REFERENCE_PAIRS)
def test_step_history_matches_direct_sum(s, eta0):
    # the block map and the mode history sum against the O(n^2) direct
    # sum: n = 9 is the first step past the start-up, blocks start at 9, 73
    # and 137, so 72 to 74 and 136 to 138 end on either side of the first
    # two block edges, 63 to 65 and 127 to 129 inside a block, 1000, 3001
    # and 5000 carry many blocks in the mode sums, 3001 is no power of two
    # times the near block
    spec = BathSpec(s, eta0)
    for n in (1, 8, 9, 63, 64, 65, 72, 73, 74, 127, 128, 129, 136, 137, 138, 1000, 3001, 5000):
        u, _ = propagator._step_history(spec, 0.1, 0.05, n)
        u_ref = step_history_direct(spec, 0.1, 0.05, n)
        assert len(u) == n + 1
        assert np.max(np.abs(u - u_ref)) <= 1e-12, n


@pytest.mark.parametrize("s,eta0,h", [(s, e, h) for s, e in REFERENCE_PAIRS for h in (0.0125, 0.003125)]
                         + [(s, 1000.0, h) for s in (1.0, 3.0) for h in (0.005, 0.00125)])
def test_step_history_matches_direct_sum_at_gate_steps(s, eta0, h):
    # the halving gate's finer steps: the start-up's series depends on H g_0,
    # n = 73 is the first step of the second block and 137 the first step
    # of the first block whose mode sums hold more than the start-up
    spec = BathSpec(s, eta0)
    for n in (8, 9, 65, 73, 129, 137, 1000, 3001):
        u, _ = propagator._step_history(spec, 0.1, h, n)
        u_ref = step_history_direct(spec, 0.1, h, n)
        assert np.max(np.abs(u - u_ref)) <= 1e-12, n


@pytest.mark.parametrize("s,eta0,omega_c", [(s, e, w) for s, e in ((0.5, 0.5), (3.0, 0.01))
                                              for w in (0.4, 2.5)])
def test_step_history_matches_direct_sum_off_unit_cutoff(s, eta0, omega_c):
    # ω_c enters the modes twice, in the rates λ_k and in the weights c_k
    spec = BathSpec(s, eta0, omega_c)
    for n in (65, 129, 1000, 3001):
        u, _ = propagator._step_history(spec, 0.1, 0.05, n)
        u_ref = step_history_direct(spec, 0.1, 0.05, n)
        assert np.max(np.abs(u - u_ref)) <= 1e-12, n


@pytest.mark.parametrize("s,eta0,h,n", [(3.0, 0.01, 0.0125, 32000), (0.5, 0.5, 0.01, 100000)])
def test_step_history_matches_blocked_fft(s, eta0, h, n):
    # past the reach of the O(n^2) direct sum: the time_stepping workload's
    # deepest call, and 10^5 steps to t = 1000 (1562 blocks in the mode sums)
    spec = BathSpec(s, eta0)
    u, _ = propagator._step_history(spec, 0.1, h, n)
    u_ref = step_history_blocked_fft(spec, 0.1, h, n)
    assert np.max(np.abs(u - u_ref)) <= 1e-12


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 3.0, 5.5, 7.5, 9.5])
def test_kernel_modes_fit_the_kernel_past_the_near_block(s):
    # max |Σ c_k e^{-λ_k t} - g(t)| / |g(0)| on a dense and a log grid over
    # [65 h, 1000]; the nodes negligible at t = 65 h are dropped, so a
    # coarser step keeps fewer modes
    spec = BathSpec(s, 1.0)
    counts = []
    for h in (0.1, 0.0125, 0.003125, 0.00125):
        lam, c, powers = propagator._kernel_modes(spec, h)
        assert np.all(lam.real > 0.0)
        t = np.concatenate((np.linspace(65 * h, 1000.0, 10001), np.geomspace(65 * h, 1000.0, 2001)))
        fit = np.concatenate([np.exp(-np.outer(ch, lam)) @ c for ch in np.array_split(t, 24)])
        assert np.max(np.abs(fit - correlation(spec, t))) <= 1e-13 * abs(correlation(spec, 0.0)), h
        # the table by doubling, against exp at each lag: a phase of 10-100 rad
        # carries ~1e-14 relative in the rounded argument alone
        np.testing.assert_allclose(powers, np.exp(-np.outer(np.arange(65) * h, lam)), rtol=1e-13, atol=0)
        counts.append(len(c))
    assert counts == sorted(counts) and 40 <= counts[0] and counts[-1] <= 400


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 3.0, 5.5, 7.5, 9.5])
def test_kernel_modes_fit_to_the_horizon(s):
    # with a horizon T the nodes below y_c = 2^-k ≤ 4/(1 + ω_c T) are one 12-point
    # Gauss rule: the fit over [65 h, T] holds, and each slow mode keeps a positive
    # weight w = c / (η_s ω_c² e^{iλ/ω_c - iθ(s+1)}) on the ray of angle θ
    spec = BathSpec(s, 1.0)
    g0 = abs(correlation(spec, 0.0))
    for h in (0.1, 0.0125, 0.003125, 0.00125):
        full = len(propagator._kernel_modes(spec, h)[1])
        for horizon in (0.24, 150.0, 1000.0, 1e4):
            lam, c, _ = propagator._kernel_modes(spec, h, horizon)
            assert np.all(lam.real > 0.0) and len(c) <= full, (h, horizon)
            y_c = 2.0 ** -math.ceil(math.log2((1.0 + horizon) / 4.0))
            slow = np.abs(lam) < y_c
            theta, dv = propagator._ray(spec, h, horizon)
            w = c[slow] / (spec.eta_s * np.exp(1j * lam[slow] - 1j * theta * (s + 1.0)))
            trapezoid_slow = np.count_nonzero(propagator._trapezoid_nodes(s, dv) < y_c)
            assert np.count_nonzero(slow) == min(12, trapezoid_slow), (h, horizon)
            assert np.all(w.real > 0.0) and np.all(np.abs(w.imag) <= 1e-12 * w.real), (h, horizon)
            if horizon > 65 * h:
                t = np.concatenate((np.linspace(65 * h, horizon, 10001), np.geomspace(65 * h, horizon, 2001)))
                fit = np.concatenate([np.exp(-np.outer(ch, lam)) @ c for ch in np.array_split(t, 24)])
                assert np.max(np.abs(fit - correlation(spec, t))) <= 1e-13 * g0, (h, horizon)
    if s == 0.5:  # 298 modes without the horizon: a fall-back to the full set fails here
        assert len(propagator._kernel_modes(spec, 0.005, 1000.0)[1]) <= 120


def test_kernel_modes_without_horizon_keep_the_pi_over_4_ray():
    # without a horizon the ray stays at π/4 and the step at min(0.1, 0.55/(s+1)), bit for bit
    for s, h, omega_c in itertools.product((0.3, 0.5, 1.0, 3.0, 9.5, 30.0), (0.1, 0.0125, 0.00125), (0.5, 1.0)):
        spec = BathSpec(s, 0.5, omega_c)
        for got, want in zip(propagator._kernel_modes(spec, h), kernel_modes_pi4(spec, h)):
            assert got.shape == want.shape and np.array_equal(got, want), (s, h, omega_c)
    assert propagator._ray(BathSpec(1.0, 0.5), 0.1) == (0.25 * np.pi, 0.1)


TIME_STEPPING = [(s, 0.5, 150.0, 3000) for s in S_VALUES] + [(s, 0.01, 400.0, 4000) for s in S_VALUES]


@pytest.mark.parametrize("s,eta0,t_max,steps", TIME_STEPPING)
def test_kernel_modes_fit_every_halving_level(s, eta0, t_max, steps, monkeypatch):
    # the ray balanced over each level's lags [65 h, T] keeps the fit within 2e-14 of |g(0)|
    # there with at most 80 modes (87-97 on the π/4 ray at the final levels)
    spec = BathSpec(s, eta0)
    levels = []
    step_history = propagator._step_history
    monkeypatch.setattr(propagator, "_step_history", lambda spec, w0, h, n: (
        levels.append((h, n)), step_history(spec, w0, h, n))[1])
    sol = solve_volterra(spec, 0.1, TimeGrid.uniform(t_max, steps))
    assert len(levels) == sol.diagnostics["refinements"] + 1
    g0 = abs(correlation(spec, 0.0))
    for h, n in levels:
        horizon = propagator._whole_blocks(n) * h
        lam, c, _ = propagator._kernel_modes(spec, h, horizon)
        assert len(c) <= 80, (h, len(c))
        t = np.concatenate((np.linspace(65 * h, horizon, 4001), np.geomspace(65 * h, horizon, 1001)))
        fit = np.concatenate([np.exp(-np.outer(ch, lam)) @ c for ch in np.array_split(t, 8)])
        assert np.max(np.abs(fit - correlation(spec, t))) <= 2e-14 * g0, h
    assert sol.diagnostics["fit_bound"] <= 1e-14


def test_slow_rule_is_cached_per_step():
    # one Gauss rule per (s, k, dv): a level with another step builds its own
    rule = propagator._slow_rule(1.0, 6, 0.1)
    assert propagator._slow_rule(1.0, 6, 0.1) is rule
    other = propagator._slow_rule(1.0, 6, 0.08)
    assert other is not rule and not np.array_equal(other[0], rule[0])
    # both integrate the same measure's moments to rounding: Σ w = Σ dv y^{s+1}
    for dv, (x, w) in ((0.1, rule), (0.08, other)):
        y = propagator._trapezoid_nodes(1.0, dv)
        y = y[y < 2.0**-6]
        assert np.all((0.0 < x) & (x < 2.0**-6)) and np.all(w > 0.0)
        assert abs(w.sum() - np.sum(dv * y**2.0)) <= 1e-14 * w.sum()


@pytest.mark.parametrize("s", [0.5, 3.0, 9.5])
def test_kernel_modes_below_two_blocks_of_lags(s):
    # a horizon below (2nb + 1) h is read as (2nb + 1) h for the ray: Re λ > 0, and the
    # fit holds over [65 h, T]
    spec = BathSpec(s, 1.0)
    g0 = abs(correlation(spec, 0.0))
    for h in (0.1, 0.0125):
        for horizon in (73 * h, 100 * h, 128 * h):
            theta, dv = propagator._ray(spec, h, horizon)
            assert (theta, dv) == propagator._ray(spec, h, 129 * h)
            lam, c, _ = propagator._kernel_modes(spec, h, horizon)
            assert np.all(lam.real > 0.0)
            t = np.linspace(65 * h, horizon, 2001)
            assert np.max(np.abs(np.exp(-np.outer(t, lam)) @ c - correlation(spec, t))) <= 1e-13 * g0, h


_RAYS = [(h, horizon) for h in (0.2, 0.05, 0.0125, 0.003125) for horizon in (None, 10.0, 1e3, 1e5)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [108.0, 150.0, 170.0])
def test_stepper_past_its_limit_raises_before_stepping(s, monkeypatch):
    # past s = 107.81 a weight y^(s+1) of the kernel modes overflows, and past 169.62 so does
    # Γ(s+2) in the nodes' bottom: a ValueError that names the limit, and no step taken
    monkeypatch.setattr(propagator, "_step_history", None)
    with pytest.raises(ValueError, match=r"at most 107\.81 for the time stepper"):
        solve_volterra(BathSpec(s, 0.5), 0.1, TimeGrid.uniform(10.0, 200))


@pytest.mark.filterwarnings("error")
def test_stepper_limit_follows_the_node_range():
    # up to the limit every ray's nodes and weights are finite; just past it, where
    # (s+1) ln((45 + 4s)√2) alone is still below ln(DBL_MAX), the last node, up to one step
    # dv past (45 + 4s)√2, already overflows y^(s+1) on some ray
    propagator.check_stepper_range(107.81)
    with pytest.raises(ValueError, match=r"at most 107\.81"):
        propagator.check_stepper_range(107.82)
    for h, horizon in _RAYS:
        _, c, powers = propagator._kernel_modes(BathSpec(107.81, 0.5), h, horizon)
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(powers))
    s, log_max = 107.85, math.log(np.finfo(float).max)
    assert (s + 1.0) * math.log((45.0 + 4.0 * s) * 2**0.5) < log_max
    top = max(propagator._trapezoid_nodes(s, propagator._ray(BathSpec(s, 0.5), h, horizon)[1])[-1]
              for h, horizon in _RAYS)
    assert (s + 1.0) * math.log(top) > log_max


@pytest.mark.parametrize("s,eta0", REFERENCE_PAIRS + [(1.0, 1000.0), (3.0, 1000.0)])
def test_block_map_matches_unit_vector_recurrence(s, eta0):
    spec = BathSpec(s, eta0)
    for h in (0.05, 0.0125, 0.003125):
        g = correlation(spec, np.arange(256) * h)
        step_map = propagator._block_map(g, 0.1, h)
        step_ref = block_map_recurrence(g, 0.1, h, 55)[0]
        assert step_map.shape == step_ref.shape
        assert np.max(np.abs(step_map - step_ref)) <= 1e-13 * np.max(np.abs(step_ref)), h


@pytest.mark.parametrize("k", [1, 2, 3, 55, 64, 512])
def test_series_inverse_times_series_is_one(k):
    # Newton doubling at lengths on and off powers of two; the residual of
    # (t q)_m is measured against (|t| |q|)_m, the size of its rounding
    rng = np.random.default_rng(k)
    t = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * 0.9 ** np.arange(k)
    t[0] = 1.0
    q = propagator._series_inverse(t)
    assert len(q) == k
    residual = np.convolve(t, q)[:k] - np.eye(1, k)[0]
    assert np.all(np.abs(residual) <= 1e-14 * np.convolve(np.abs(t), np.abs(q))[:k])


@pytest.mark.parametrize("s,eta0", REFERENCE_PAIRS)
def test_halving_gate_decisions_match_direct_sum(s, eta0, monkeypatch):
    spec = BathSpec(s, eta0)
    grid = TimeGrid.uniform(40.0, 400)
    fast = solve_volterra(spec, 0.1, grid)
    # the direct sum's u, with the modes the fit check reads
    monkeypatch.setattr(propagator, "_step_history", lambda spec, w0, h, n: (
        step_history_direct(spec, w0, h, n), propagator._kernel_modes(spec, h, propagator._whole_blocks(n) * h)))
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
    horizon = propagator._whole_blocks(200 * 2 ** d["refinements"]) * d["h_final"]
    assert d["modes"] == len(propagator._kernel_modes(spec, d["h_final"], horizon)[1])
    assert 0.0 < d["fit_bound"] <= 1e-13
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
    (1.0, 1000.0), (3.0, 1000.0), (1.5, 0.5), (2.0, 0.5), (0.3, 0.05), (4.0, 0.01),
    (0.2, 0.5), (1.0 + 1e-9, 0.5), (2.0 - 1e-9, 0.5)])
def test_find_poles_matches_scan(s, eta0):
    # one bracket on the monotone B_loc finds what the 4000-point scan finds,
    # including nothing when the zero lies beyond y_max (eta0 = 1000); the
    # residue is the one the closed-form slope gives at the returned zero
    spec = BathSpec(s, eta0)
    got, ref = find_poles(spec, 0.1), find_poles_scan(spec, 0.1)
    assert len(got) == len(ref)
    for (z, res), (z_ref, res_ref) in zip(got, ref):
        assert abs(z - z_ref) <= 1e-12
        assert abs(res - res_ref) <= 1e-12
        expect = 1.0 / imaginary_axis_denominator_derivative(spec, z.imag / spec.omega_c)
        assert abs(res - expect) <= 1e-14 * abs(expect)


@pytest.mark.parametrize("s,eta0", [(s, eta0) for s in (0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 7.5)
                                     for eta0 in (0.1, 0.5, 2.0) if (s, eta0) != (7.5, 0.1)])
def test_find_poles_against_mpmath_root(s, eta0):
    # the bound state and its residue against a 40-digit root of B_loc built
    # on mpmath's incomplete gamma, not on bath; measured ≤ 8.9e-16 and 6.7e-16
    y_ref, res_ref = bound_state_mp(s, eta0, 0.1)
    (z, res), = find_poles(BathSpec(s, eta0), 0.1)
    assert abs(z.imag - y_ref) <= 2e-15 and z.real == 0.0
    assert abs(res - res_ref) <= 2e-15


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


@pytest.mark.parametrize("s,eta0", REFERENCE_PAIRS + [(1.5, 0.01), (2.0, 0.5)])
def test_resonance_seeds_bracket_each_sign_change(s, eta0):
    # the array scan brackets the pairs a pairwise loop over Re B finds, and
    # the whole-array Newton lands where brentq on each bracket does
    spec = BathSpec(s, eta0)
    ws = np.unique(np.concatenate([np.geomspace(1e-8, 50.0, 1200), np.linspace(1e-6, 50.0, 1200)]))
    re = np.real(inversion_denominator(spec, 0.1, ws))
    expect = [(ws[i], ws[i + 1]) for i in range(len(ws) - 1) if (re[i] < 0) != (re[i + 1] < 0)]
    seeds = propagator._resonance_seeds(spec, 0.1)
    ref = resonance_seeds_brentq(spec, 0.1)
    assert len(seeds) == len(ref)
    assert all(abs(w - w_ref) <= 2e-15 for w, w_ref in zip(seeds, ref))
    assert len(expect) == (1 if eta0 == 0.01 else 0)
    # ω0 and the zeros of Re B, nothing else
    assert seeds[0] == 0.1 and len(seeds) == 1 + len(expect)
    assert all(a < w < b for w, (a, b) in zip(seeds[1:], expect))


def test_seed_scan_is_built_once_and_read_only():
    # every solve shares the scan grid, a module constant, so no caller may write to it
    ws = np.unique(np.concatenate([np.geomspace(1e-8, 50.0, 1200), np.linspace(1e-6, 50.0, 1200)]))
    assert not propagator._SEED_SCAN.flags.writeable
    np.testing.assert_array_equal(propagator._SEED_SCAN, ws)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 3.0, 5.5])
def test_principal_value_slope_identity(s):
    # PV' = (s PV - Γ(s+1))/ω - PV, the slope _resonance_seeds' Newton uses,
    # against a fourth-order central difference of the principal value
    w = np.array([0.02, 0.1, 0.7, 3.0, 12.0, 40.0])
    h = 1e-3 * w
    pv = pv_power_exp(s, w)
    fd = (8 * (pv_power_exp(s, w + h) - pv_power_exp(s, w - h))
          - (pv_power_exp(s, w + 2 * h) - pv_power_exp(s, w - 2 * h))) / (12 * h)
    closed = (s * pv - math.gamma(s + 1.0)) / w - pv
    assert np.max(np.abs(closed - fd) / np.abs(closed)) <= 1e-7


@pytest.mark.parametrize("s,eta0", REFERENCE_PAIRS + [(5.5, 0.01), (7.5, 0.01)])
def test_cut_tail_matches_adaptive_quadrature(s, eta0):
    spec = BathSpec(s, eta0)
    got, ref = propagator._cut_tail(spec, 0.1), cut_tail_quad(spec, 0.1)
    assert 0.0 < ref < propagator._TAIL_TOL
    assert abs(got - ref) <= 1e-12 * ref


def test_branch_cut_tail_raises():
    # the spectral peak at ω = s = 60 lies past _OMEGA_MAX, where no panel goes
    with pytest.raises(FourierQuadratureError, match="branch-cut tail"):
        solve_laplace(BathSpec(60.0, 0.01), 0.1, TimeGrid.log(100.0, 20))


def test_resonance_narrower_than_panel_floor_raises():
    # the resonance near ω0 is 2.7e-17 wide; clamped to the 1e-14 floor it
    # left u off by 0.090 from time stepping on this grid, with no error
    with pytest.raises(FourierQuadratureError, match="width 2.7e-17"):
        solve_laplace(BathSpec(9.5, 0.01), 0.1, TimeGrid.uniform(100.0, 2000))


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
    assert lamb_shift(BathSpec(1.0, 0.0), 0.1) == 0.1


def test_lamb_shift_two_method_agreement():
    # closed-form principal value vs symmetric excision + extrapolation
    for s, eta0, omega_c in itertools.product((0.5, 1.0, 1.5, 3.0), (0.01, 0.5), (1.0, 2.5)):
        spec = BathSpec(s, eta0, omega_c)
        got = lamb_shift(spec, 0.1)
        expect = lamb_shift_excised(spec, 0.1)
        assert abs(got - expect) <= 1e-6 * abs(expect), (s, eta0, omega_c)


def test_lamb_shift_rejects_omega0_past_the_principal_value_range():
    # e^{-ω0/ωc} underflows in the principal value: an error, not a silent ω0
    with pytest.raises(ValueError):
        lamb_shift(BathSpec(1.0, 0.01, 2.0), 1401.0)
    assert np.isfinite(lamb_shift(BathSpec(1.0, 0.01, 2.0), 1400.0))


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
    w_minus = lamb_shift(spec, 0.1)
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
