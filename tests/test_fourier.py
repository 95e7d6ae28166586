"""Panel Fourier quadrature: the exact transform of e^{-ω} and the panel loop."""

import math

import numpy as np
import pytest

from cohlab import _fourier, propagator
from cohlab.bath import BathSpec
from cohlab.propagator import TimeGrid, solve_laplace

from oracles import build_panels_one_level, fourier_integral_panelwise


def _exp_panels():
    return _fourier.build_panels(lambda w: np.exp(-w), 0.0, 50.0)


def _exp_transform(t):
    """∫_0^50 e^{-ω} e^{-iωt} dω."""
    z = 1.0 + 1j * np.asarray(t)
    return (1.0 - np.exp(-50.0 * z)) / z


def test_exponential_transform_in_every_regime():
    panels = _exp_panels()
    h = panels.halfs.max()
    assert len(np.unique(panels.halfs)) > 1
    # θ = h t just below and above both switches for the widest panel (the
    # narrower ones fall in lower regimes at the same t), then large times
    edges = [x * (1.0 + d) for x in (_fourier._TAYLOR_SWITCH, _fourier._THETA_SWITCH) for d in (-1e-12, 1e-12)]
    t = np.concatenate(([0.0, 1e-3], np.array(edges) / h, [1.0, 10.0, 100.0, 1e4, 1e12]))
    got = _fourier.fourier_integral(panels, t)
    assert got[0] == pytest.approx(1.0 - np.exp(-50.0), abs=1e-15)
    assert np.max(np.abs(got - _exp_transform(t))) <= 1e-9
    assert np.max(np.abs(got - fourier_integral_panelwise(panels, t))) <= 1e-15


def _scale(panels):
    """Σ_i h_i Σ_k w_k |f_ik|, the size the quadrature's rounding is taken against."""
    return np.sum(panels.halfs * (np.abs(panels.gl_vals) @ _fourier._GL_W))


def test_sharp_resonance_at_every_panel_switch():
    # a Lorentzian of width 1e-4 seeded at ω = 3 on e^{-ω}: panels from 50 ω_c down to
    # ~1e-5 ω_c wide; every panel's θ = h t just below and above both switches, at ±t
    gamma = 1e-4
    panels = _fourier.build_panels(
        lambda w: np.exp(-w) + gamma / np.pi / ((w - 3.0) ** 2 + gamma**2), 0.0, 50.0, seeds=(3.0,))
    assert panels.halfs.max() / panels.halfs.min() > 1e5
    edges = np.array([x * (1.0 + d) for x in (_fourier._TAYLOR_SWITCH, _fourier._THETA_SWITCH)
                      for d in (-1e-12, 1e-12)])
    t = np.outer(1.0 / panels.halfs, edges).ravel()
    t = np.concatenate((t, -t))
    got = _fourier.fourier_integral(panels, t)
    assert np.max(np.abs(got - fourier_integral_panelwise(panels, t))) <= 1e-15 * _scale(panels)


def test_complex_integrand_raises():
    # the real path would drop Im f
    with pytest.raises(TypeError, match="real values"):
        _fourier.build_panels(lambda w: np.exp(-w) * (1.0 + 0.5j), 0.0, 50.0)


def test_scalar_time_gives_a_scalar():
    got = _fourier.fourier_integral(_exp_panels(), 1.0)
    assert np.ndim(got) == 0
    assert abs(got - (0.5 - 0.5j)) <= 1e-15


def test_times_past_one_array_pass():
    # 7 panels × 20 001 times is more than one block of pairs
    panels = _exp_panels()
    t = np.linspace(0.0, 2000.0, 20001)
    assert len(panels) * len(t) > _fourier._BLOCK
    got = _fourier.fourier_integral(panels, t)
    assert np.max(np.abs(got - fourier_integral_panelwise(panels, t))) <= 1e-15
    assert np.max(np.abs(got - _exp_transform(t))) <= 1e-9


def test_panel_budget_exhausted_raises():
    # noise is resolved on no panel: every level doubles until the budget runs out
    rng = np.random.default_rng(0)
    with pytest.raises(_fourier.FourierQuadratureError, match="panel budget 6000 exhausted"):
        _fourier.build_panels(lambda w: rng.standard_normal(w.shape), 0.0, 1.0)


def test_breakpoints_split_and_panels_come_sorted():
    # seeds outside (a, b) and repeated ones are dropped; panels tile [a, b]
    panels = _fourier.build_panels(lambda w: np.exp(-w), 0.0, 50.0, seeds=(-1.0, 0.3, 0.3, 7.0, 50.0, 60.0))
    edges_lo, edges_hi = panels.mids - panels.halfs, panels.mids + panels.halfs
    assert edges_lo[0] == 0.0 and edges_hi[-1] == 50.0
    np.testing.assert_allclose(edges_lo[1:], edges_hi[:-1], rtol=0, atol=1e-14)
    assert np.any(np.abs(edges_hi - 0.3) <= 1e-15) and np.any(np.abs(edges_hi - 7.0) <= 1e-14)


FIGURE_SOLVES = [(s, eta0, tmax) for s in (0.5, 1.0, 3.0)
                 for eta0, tmax in ((0.01, 1000.0), (0.5, 1000.0), (0.01, 10000.0))]


@pytest.mark.parametrize("s,eta0,tmax", FIGURE_SOLVES)
def test_matches_the_panel_loop_on_figure_solves(s, eta0, tmax, monkeypatch):
    # the figure 2a-6 solves: u on the default 400-row log grid
    seen = []

    def recording(panels, times):
        seen.append((panels, times))
        return _fourier.fourier_integral(panels, times)

    monkeypatch.setattr(propagator, "fourier_integral", recording)
    solve_laplace(BathSpec(s, eta0), 0.1, TimeGrid.log(tmax, 400, 0.1))
    (panels, times), = seen
    diff = _fourier.fourier_integral(panels, times) - fourier_integral_panelwise(panels, times)
    assert np.max(np.abs(diff)) <= 1e-15 * _scale(panels)


def _assert_matches_one_level(f, a, b, seeds=()):
    """build_panels against the one-level bisection: the same panels, bit for
    bit, from at most ⌈levels/2⌉ + 2 calls of f."""
    calls = []

    def counted(w):
        calls.append(np.size(w))
        return f(w)

    got = _fourier.build_panels(counted, a, b, seeds=seeds)
    calls_now = len(calls)
    want = build_panels_one_level(counted, a, b, seeds=seeds)
    levels = len(calls) - calls_now - 1  # one call per level, then the Gauss-Legendre values
    for name in ("mids", "halfs", "coeffs", "gl_vals"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert got.worst_tail == want.worst_tail
    assert calls_now <= math.ceil(levels / 2) + 2
    return got


# the six reference pairs, the generic-s pairs and the two η0 = 1000 pairs
BISECTION_PAIRS = [(s, eta0) for s in (0.5, 1.0, 3.0) for eta0 in (0.01, 0.5)] + [
    (1.5, 0.01), (2.0, 0.5), (0.3, 0.01), (5.5, 0.01), (7.5, 0.01), (1.0, 1000.0), (3.0, 1000.0)]


@pytest.mark.parametrize("s,eta0", BISECTION_PAIRS)
def test_bisection_matches_the_one_level_bisection(s, eta0, monkeypatch):
    # the Laplace route's own density and seeds: the same panels, bit for bit,
    # from at most half the density calls
    seen = []

    def recording(f, a, b, *, seeds=()):
        seen.append((f, a, b, seeds))
        return _fourier.build_panels(f, a, b, seeds=seeds)

    monkeypatch.setattr(propagator, "build_panels", recording)
    solve_laplace(BathSpec(s, eta0), 0.1, TimeGrid.log(100.0, 20, 0.1))
    (f, a, b, seeds), = seen
    _assert_matches_one_level(f, a, b, seeds)


def test_bisection_matches_at_the_floor_width():
    # a singularity no panel resolves: panels stop at the floor width 50 levels down,
    # and worst_tail carries the largest share left there
    panels = _assert_matches_one_level(lambda w: 1.0 / np.sqrt(np.abs(w - 0.3) + 1e-300), 0.0, 1.0)
    assert panels.worst_tail > _fourier._PANEL_TOL


def test_bisection_shares_the_budget_error():
    # a pointwise density no panel resolves: both bisections give up at the
    # same level, naming the same panel
    def f(w):
        return np.sin(1e9 * w)

    with pytest.raises(_fourier.FourierQuadratureError, match="panel budget 6000 exhausted") as got:
        _fourier.build_panels(f, 0.0, 1.0)
    with pytest.raises(_fourier.FourierQuadratureError) as want:
        build_panels_one_level(f, 0.0, 1.0)
    assert str(got.value) == str(want.value)
