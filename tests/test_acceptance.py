"""Acceptance criteria, one test per criterion (split per spectral leg where
legs behave differently).  Each test prints a PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s

Two criteria test the weak-coupling limits of the exact dynamics, and each
checks the limit in the form the exact dynamics actually reaches it:

- criterion 1 compares |u| with the Weisskopf-Wigner pole approximation
  Z e^{-Z J(ω_r) t/2}, where ω_r is the Lamb-shifted resonance (the zero of
  Re B) and Z = 1/|∂_ω Re B(ω_r)| its weight, after the bath correlation
  time 1/ω_c.  The bare-rate exponential e^{-J(ω_0)t/2} misses |u| by 56%
  at s=1, η_0=0.01, because the shift moves the resonance down the steep
  edge of J;
- the super-Ohmic legs of criteria 4 and 7 are evaluated at t = 1e6, about
  13 decay times of the s=3 golden-rule rate J/2 ~ 1.3e-5, and also assert
  that |u| has damped there, so they test the limit and not a crossing.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from cohlab.bath import BathSpec, inversion_denominator, spectral_density
from cohlab.channel import metrics_closed
from cohlab.codes import (
    bitflip_metrics,
    bitflip_p_e,
    corrected_channel_metrics,
)
from cohlab.propagator import TimeGrid, find_poles, solve_laplace, solve_volterra
from cohlab.qubit import coherence_factor

from oracles import (
    correlation_quadrature,
    element_map_density,
    fef_direct_search,
    fef_oracle,
    random_channel_states,
    wootters_concurrence,
)

ALPHA0 = 1.2
OMEGA0 = 0.1
S_VALUES = (0.5, 1.0, 3.0)
T_LONG = 1000.0
T_SUPER_OHMIC = 1e6  # ~13 decay times of the s=3, η_0=0.01 golden-rule rate

_volterra_cache: dict = {}
_laplace_cache: dict = {}


def volterra_long(s: float, eta0: float):
    """Shared [0, 1e3] time-stepped solution (heavy; computed once)."""
    key = (s, eta0)
    if key not in _volterra_cache:
        n = 100000 if eta0 >= 0.1 else 40000
        grid = TimeGrid.uniform(T_LONG, n)
        _volterra_cache[key] = solve_volterra(BathSpec(s, eta0), OMEGA0, grid)
    return _volterra_cache[key]


def laplace_long(s: float, eta0: float):
    key = (s, eta0)
    if key not in _laplace_cache:
        sol_v = volterra_long(s, eta0)
        step = (len(sol_v.grid.samples) - 1) // 2000
        sub = TimeGrid(sol_v.grid.samples[::step])
        _laplace_cache[key] = solve_laplace(BathSpec(s, eta0), OMEGA0, sub)
    return _laplace_cache[key]


def report(num, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_weak_coupling_markov_agreement():
    spec = BathSpec(1.0, 0.01)
    grid = TimeGrid.uniform(200.0, 8000)
    start = time.perf_counter()
    sol = solve_volterra(spec, OMEGA0, grid)
    elapsed = time.perf_counter() - start

    # Pole approximation from the branch-cut denominator alone: Re B > 0 at
    # the band edge (no bound state) and < 0 at ω_0 (the shift is downward).
    def re_b(w):
        return float(np.real(inversion_denominator(spec, OMEGA0, w)))

    w_r = brentq(re_b, 1e-3 * OMEGA0, OMEGA0, xtol=1e-15)
    dw = 1e-6 * w_r
    slope = (re_b(w_r + dw) - re_b(w_r - dw)) / (2.0 * dw)
    z = 1.0 / abs(slope)
    rate = 0.5 * z * spectral_density(spec, w_r)
    late = grid.samples >= 1.0  # past the bath correlation time 1/ω_c
    model = z * np.exp(-rate * grid.samples[late])
    rel = float(np.max(np.abs(np.abs(sol.u[late]) / model - 1.0)))
    ok = rel <= 0.02 and elapsed <= 30.0
    report(1, ok,
           f"|u| vs Z exp(-Z J(w_r) t/2) with w_r = {w_r:.4f} (w0 = {OMEGA0}), "
           f"Z = {z:.4f}: max rel dev {rel:.4f} over t in [1/w_c, 200] "
           f"(tol 0.02), runtime {elapsed:.1f}s (budget 30s)")


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("eta0", (0.01, 0.5))
def test_criterion_2_cross_solver_agreement(s, eta0):
    sol_v = volterra_long(s, eta0)
    sol_l = laplace_long(s, eta0)
    step = (len(sol_v.grid.samples) - 1) // 2000
    diff = float(np.max(np.abs(sol_v.u[::step] - sol_l.u)))
    report(2, diff <= 1e-3,
           f"s={s} eta0={eta0}: max|u_volterra - u_laplace| = {diff:.2e} "
           f"over t in [0, 1e3] (tol 1e-3)")


def test_criterion_3_strong_coupling_plateau():
    spec = BathSpec(3.0, 0.5)
    poles = find_poles(spec, OMEGA0)
    steady = abs(sum(r for _, r in poles)) if poles else 0.0
    sol = volterra_long(3.0, 0.5)
    terminal = abs(sol.u[-1])
    ok = steady > 0.0 and abs(terminal - steady) <= 1e-3
    report(3, ok,
           f"steady modulus {steady:.6f} vs volterra |u(1e3)| {terminal:.6f} "
           f"(|diff| = {abs(terminal - steady):.2e}, tol 1e-3)")


def _fidelity_at(s: float, eta0: float, t: float, n: int = 0) -> tuple[float, float]:
    """(|u(t)|, F(t)) of the unencoded (n=0) or n-qubit phase-coded channel."""
    grid = TimeGrid(np.array([0.0, t]))
    sol = solve_laplace(BathSpec(s, eta0), OMEGA0, grid)
    u = sol.u[-1]
    u = u / abs(u) if abs(u) > 1.0 else u
    if n:
        return abs(u), corrected_channel_metrics(ALPHA0, u, n).fidelity
    return abs(u), metrics_closed(ALPHA0, u).fidelity


@pytest.mark.parametrize("s", (0.5, 1.0))
def test_criterion_4_classical_limit_fidelity(s):
    _, f = _fidelity_at(s, 0.01, 1e4)
    report(4, abs(f - 2.0 / 3.0) <= 0.005,
           f"s={s}: unencoded F(t=1e4) = {f:.4f} vs classical 2/3 (tol 0.005)")


def test_criterion_4_classical_limit_fidelity_super_ohmic():
    mod, f = _fidelity_at(3.0, 0.01, T_SUPER_OHMIC)
    report(4, mod <= 1e-3 and abs(f - 2.0 / 3.0) <= 0.005,
           f"s=3: at t={T_SUPER_OHMIC:.0e}, |u| = {mod:.2e} (<= 1e-3) and "
           f"unencoded F = {f:.6f} vs classical 2/3 (tol 0.005)")


@pytest.mark.parametrize("s", S_VALUES)
def test_criterion_5_strong_coupling_degradation(s):
    sol = volterra_long(s, 0.5)
    f = metrics_closed(ALPHA0, sol.u[-1]).fidelity
    report(5, f < 2.0 / 3.0,
           f"s={s}: unencoded strong-coupling F(t=1e3) = {f:.4f} < 2/3")


def test_criterion_6_phase_flip_headline_numbers():
    u3 = volterra_long(3.0, 0.5).u[-1]
    m3 = corrected_channel_metrics(ALPHA0, u3, 3)
    u05 = volterra_long(0.5, 0.5).u[-1]
    m101 = corrected_channel_metrics(ALPHA0, u05, 101)
    ok = (abs(m3.concurrence - 0.237) <= 0.02 and abs(m3.fidelity - 0.747) <= 0.01
          and abs(m101.concurrence - 0.796) <= 0.02 and abs(m101.fidelity - 0.958) <= 0.01)
    report(6, ok,
           f"super-Ohmic n=3: C={m3.concurrence:.4f} (0.237±0.02), "
           f"F={m3.fidelity:.4f} (0.747±0.01); "
           f"sub-Ohmic n=101: C={m101.concurrence:.4f} (0.796±0.02), "
           f"F={m101.fidelity:.4f} (0.958±0.01)")


@pytest.mark.parametrize("s", (0.5, 1.0))
def test_criterion_7_weak_coupling_encoded_ceiling(s):
    _, f = _fidelity_at(s, 0.01, 1e4, n=101)
    report(7, abs(f - 0.727) <= 0.01,
           f"s={s}: n=101 encoded F(t=1e4) = {f:.4f} (0.727±0.01)")


def test_criterion_7_weak_coupling_encoded_ceiling_super_ohmic():
    mod, f = _fidelity_at(3.0, 0.01, T_SUPER_OHMIC, n=101)
    report(7, mod <= 1e-3 and abs(f - 0.727) <= 0.01,
           f"s=3: at t={T_SUPER_OHMIC:.0e}, |u| = {mod:.2e} (<= 1e-3) and "
           f"n=101 encoded F = {f:.6f} (0.727±0.01)")


@pytest.mark.parametrize("s", S_VALUES)
def test_criterion_8_bitflip_contrast(s):
    grid = TimeGrid.log(T_LONG, 80, t_min=0.1)
    sol = solve_laplace(BathSpec(s, 0.5), OMEGA0, grid)
    ns = (1, 3, 6, 9)
    terminal = [bitflip_metrics(n, ALPHA0, sol.u[-1]).fidelity for n in ns]
    decreasing = all(a > b for a, b in zip(terminal, terminal[1:]))
    increasing_everywhere = True
    for k in range(1, len(grid.samples)):
        u = sol.u[k]
        u = u / abs(u) if abs(u) > 1.0 else u
        ps = [bitflip_p_e(n, ALPHA0, u) for n in ns]
        if not all(a < b for a, b in zip(ps, ps[1:])):
            increasing_everywhere = False
            break
    report(8, decreasing and increasing_everywhere,
           f"s={s}: terminal F over n=1,3,6,9 = "
           + ", ".join(f"{f:.4f}" for f in terminal)
           + f" strictly decreasing: {decreasing}; p_e^(n) strictly "
           f"increasing in n at all sampled t: {increasing_everywhere}")


def test_criterion_9_oracle_equivalences():
    rng = np.random.default_rng(2024)
    worst_c = worst_f = 0.0
    # reference configurations: steady moduli and a weak-coupling sweep
    params = [(ALPHA0, m, n) for m in (0.642771, 0.690049, 0.829050)
              for n in (1, 3, 6, 9, 101)]
    params += [(ALPHA0, u, 1) for u in np.linspace(0.0, 1.0, 11)]
    params += random_channel_states(rng, 100)
    for a0, u, n in params:
        state = element_map_density(a0, u, n)
        m = bitflip_metrics(n, a0, u) if n > 1 else metrics_closed(a0, u)
        cc, fc = m.concurrence, m.f_max
        worst_c = max(worst_c, abs(cc - wootters_concurrence(state)))
        worst_f = max(worst_f, abs(fc - fef_oracle(state)))
    ok = worst_c <= 1e-10 and worst_f <= 1e-10
    worst_direct = 0.0
    for a0, u, n in random_channel_states(rng, 10):
        state = element_map_density(a0, u)
        direct = fef_direct_search(state, seed=int(rng.integers(1 << 30)))
        worst_direct = max(worst_direct, abs(direct - fef_oracle(state)))
    ok = ok and worst_direct <= 1e-4
    report(9, ok,
           f"closed-vs-Wootters worst |dC| = {worst_c:.2e}, closed-vs-magic-basis "
           f"worst |df| = {worst_f:.2e} (tol 1e-10); direct-search vs oracle "
           f"worst |df| = {worst_direct:.2e} (tol 1e-4, 1e4+ states each)")


def test_criterion_10_structural_invariants():
    rng = np.random.default_rng(7)
    worst_mod = 0.0
    for s in S_VALUES:
        for eta0 in (0.01, 0.5):
            sol = volterra_long(s, eta0)
            worst_mod = max(worst_mod, float(np.max(np.abs(sol.u))))
            assert sol.u[0] == 1.0
            lap = laplace_long(s, eta0)
            worst_mod = max(worst_mod, float(np.max(np.abs(lap.u))))
            assert abs(lap.u[0] - 1.0) <= 1e-3
    checked = 0
    for a0, u, n in random_channel_states(rng, 60):
        element_map_density(a0, u, n).validate()
        element_map_density(a0, u).validate()
        checked += 2
    for eta0 in (0.01, 0.5):
        sol = laplace_long(1.0, eta0)
        for u in sol.u[:: len(sol.u) // 20]:
            u = u / abs(u) if abs(u) > 1.0 else u
            element_map_density(ALPHA0, u).validate()
            checked += 1
    report(10, worst_mod <= 1.0 + 1e-9,
           f"max |u| over all six solutions = {worst_mod:.12f} (<= 1+1e-9); "
           f"{checked} density matrices passed trace-1 (1e-10), Hermiticity "
           f"(1e-12) and PSD (-1e-10) checks")


def test_criterion_11_bath_identities():
    worst = 0.0
    for s in S_VALUES:
        spec = BathSpec(s, 0.5)
        for t in np.geomspace(0.05, 50.0, 10):
            from cohlab.bath import correlation
            ref = correlation_quadrature(spec, float(t))
            worst = max(worst, abs(correlation(spec, float(t)) - ref) / abs(ref))
    peaks_ok = True
    for s in S_VALUES:
        spec = BathSpec(s, 0.5)
        peaks_ok &= abs(spectral_density(spec, s) - 2 * np.pi * 0.5) <= 1e-10
        w = np.linspace(s * 0.9, s * 1.1, 2001)
        j = spectral_density(spec, w)
        peaks_ok &= abs(w[np.argmax(j)] - s) < 1e-3
        peaks_ok &= bool(np.all(j <= 2 * np.pi * 0.5 + 1e-10))
    ok = worst <= 1e-8 and peaks_ok
    report(11, ok,
           f"closed-form g(t) vs defining-integral quadrature worst rel dev "
           f"{worst:.2e} (tol 1e-8, 10 times x 3 s); peak height/location "
           f"identities hold: {peaks_ok}")
