"""Panel Fourier quadrature: the exact transform of e^{-ω} and the panel loop."""

import numpy as np
import pytest

from cohlab import _fourier, propagator
from cohlab.bath import BathSpec
from cohlab.propagator import TimeGrid, solve_laplace

from oracles import fourier_integral_panelwise


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
    scale = np.sum(panels.halfs * (np.abs(panels.gl_vals) @ _fourier._GL_W))
    diff = _fourier.fourier_integral(panels, times) - fourier_integral_panelwise(panels, times)
    assert np.max(np.abs(diff)) <= 1e-15 * scale
