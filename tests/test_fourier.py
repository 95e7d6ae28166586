"""Panel Fourier quadrature: the exact transform of e^{-ω} and the panel loop."""

import math
import tracemalloc

import numpy as np
import pytest

from cohlab import _fourier, propagator
from cohlab.bath import BathSpec
from cohlab.propagator import TimeGrid, solve_laplace

from oracles import build_panels_one_level, fourier_integral_panelwise, fourier_integral_reference


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
    assert got.tobytes() == fourier_integral_reference(panels, t).tobytes()
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
    assert got.tobytes() == fourier_integral_reference(panels, t).tobytes()
    assert np.max(np.abs(got - fourier_integral_panelwise(panels, t))) <= 1e-15
    assert np.max(np.abs(got - _exp_transform(t))) <= 1e-9


def _traced_peak(panels, times):
    """The most bytes one `fourier_integral` call holds at once."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _fourier.fourier_integral(panels, times)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_blocks_do_not_hold_each_others_buffers():
    # two full blocks of Taylor pairs (h t ≤ 2): each block's five P × T
    # buffers are freed before the next block allocates; held over, the first
    # block's would lift the peak to about eleven
    panels = _exp_panels()
    step = _fourier._BLOCK // len(panels)
    t = np.linspace(0.0, _fourier._TAYLOR_SWITCH / panels.halfs.max(), 2 * step)
    got = _fourier.fourier_integral(panels, t)
    assert got.tobytes() == fourier_integral_reference(panels, t).tobytes()
    assert _traced_peak(panels, t) <= 6 * 8 * len(panels) * step + got.nbytes


def test_filon_heavy_blocks_hold_about_one_more_buffer():
    # nearly every pair lies past θ = 14: the Filon stage runs in passes of 1/24 of the
    # block, so its rows and recurrence temporaries stay within about one P × T buffer;
    # taken over the whole regime at once they lifted the peak to 13.3
    panels = _exp_panels()
    step = _fourier._BLOCK // len(panels)
    t = np.linspace(0.0, 2000.0, 20001)
    assert np.mean(np.outer(panels.halfs, t) > _fourier._THETA_SWITCH) > 0.99
    got = _fourier.fourier_integral(panels, t)
    assert got.tobytes() == fourier_integral_reference(panels, t).tobytes()
    assert _traced_peak(panels, t) <= 6 * 8 * len(panels) * step + got.nbytes


def test_gauss_legendre_heavy_blocks_hold_about_one_more_buffer():
    # 50 panels of half-width 1/2 at 4.5 ≤ t ≤ 27.5: every pair in 2 < θ ≤ 14, two blocks.
    # The (n, 12) node buffer and the gathered folds take passes of 1/24 of the block;
    # over the whole regime at once they lifted the peak to 30 buffers
    panels = _fourier.build_panels(lambda w: np.exp(-w), 0.0, 50.0, seeds=np.arange(1.0, 50.0))
    assert np.all(panels.halfs == 0.5)
    step = _fourier._BLOCK // len(panels)
    t = np.linspace(4.5, 27.5, 2 * step)
    got = _fourier.fourier_integral(panels, t)
    assert got.tobytes() == fourier_integral_reference(panels, t).tobytes()
    assert _traced_peak(panels, t) <= 6 * 8 * len(panels) * step + got.nbytes


def test_gauss_legendre_rule_is_leggauss():
    # written out so that the import needs no numpy.polynomial and no eigensolver
    x, w = np.polynomial.legendre.leggauss(_fourier._GL_POINTS)
    assert np.array_equal(_fourier._GL_X, x) and _fourier._GL_X.tobytes() == x.tobytes()
    assert np.array_equal(_fourier._GL_W, w) and _fourier._GL_W.tobytes() == w.tobytes()


def test_monomial_matrix_is_cheb2poly():
    # the integer recurrence of T_k against numpy.polynomial's conversion, zeros padded past ξ^k
    p = _fourier._DEGREE
    want = np.column_stack([np.pad(np.polynomial.chebyshev.cheb2poly(e), (0, p - k))
                            for k, e in enumerate(np.eye(p + 1))])
    assert np.array_equal(_fourier._MONO_MAT, want)
    assert _fourier._MONO_MAT.tobytes() == want.tobytes()


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


def _figure_panels(s, eta0, tmax, monkeypatch):
    """The panels and times of a figure 2a-6 solve: u on the default 400-row log grid."""
    seen = []

    def recording(panels, times):
        seen.append((panels, times))
        return _fourier.fourier_integral(panels, times)

    monkeypatch.setattr(propagator, "fourier_integral", recording)
    solve_laplace(BathSpec(s, eta0), 0.1, TimeGrid.log(tmax, 400, 0.1))
    (panels, times), = seen
    return panels, times


@pytest.mark.parametrize("s,eta0,tmax", FIGURE_SOLVES)
def test_matches_the_panel_loop_on_figure_solves(s, eta0, tmax, monkeypatch):
    panels, times = _figure_panels(s, eta0, tmax, monkeypatch)
    got = _fourier.fourier_integral(panels, times)
    # buffers reused, every float operation kept: the fresh-array kernel's bits
    assert got.tobytes() == fourier_integral_reference(panels, times).tobytes()
    diff = got - fourier_integral_panelwise(panels, times)
    assert np.max(np.abs(diff)) <= 1e-15 * _scale(panels)


def test_working_set_of_the_largest_figure_solve(monkeypatch):
    # s = 3, η0 = 0.01 to t = 10^4 has the most panels of the figure solves, all
    # (panel, time) pairs in one block; five P × T float arrays are alive at
    # once, where fresh arrays at every stage held 11.2
    panels, times = _figure_panels(3.0, 0.01, 1e4, monkeypatch)
    pairs = len(panels) * len(times)
    assert pairs <= _fourier._BLOCK
    _fourier.fourier_integral(panels, times)
    assert _traced_peak(panels, times) <= 6 * 8 * pairs


def _recording(f, calls):
    """f, appending the points of each call to `calls`."""
    def recorded(w):
        calls.append(w)
        return f(w)

    return recorded


def _is_subsequence(want: list, got: list) -> bool:
    """Whether `want` is `got` with some entries left out, the rest in order."""
    rest = iter(got)
    return all(x in rest for x in want)


def _assert_matches_one_level(f, a, b, seeds=()):
    """build_panels against the one-level bisection: the same panels, bit for
    bit, from at most ⌈levels/2⌉ + 2 calls of f, whose points hold the
    one-level bisection's points, call after call, in their order."""
    got_calls, want_calls = [], []
    got = _fourier.build_panels(_recording(f, got_calls), a, b, seeds=seeds)
    want = build_panels_one_level(_recording(f, want_calls), a, b, seeds=seeds)
    levels = len(want_calls) - 1  # one call per level, then the Gauss-Legendre values
    for name in ("mids", "halfs", "coeffs", "gl_vals"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert got.worst_tail == want.worst_tail
    assert len(got_calls) <= math.ceil(levels / 2) + 2
    assert _is_subsequence(np.concatenate(want_calls).tolist(), np.concatenate(got_calls).tolist())
    return got


# the six reference pairs, the generic-s pairs and the two η0 = 1000 pairs at ω0 = 0.1, then
# the deepest bisections the route meets: 314 and 1 416 panels, floor-width ones among them
BISECTION_CASES = [pytest.param(s, eta0, 0.1, id=f"{s}-{eta0}") for s, eta0 in [
    *((s, eta0) for s in (0.5, 1.0, 3.0) for eta0 in (0.01, 0.5)),
    (1.5, 0.01), (2.0, 0.5), (0.3, 0.01), (5.5, 0.01), (7.5, 0.01), (1.0, 1000.0), (3.0, 1000.0),
    (7.5, 0.05)]] + [pytest.param(10.0, 1.0, 1.0, id="10.0-1.0-1.0")]


@pytest.mark.parametrize("s,eta0,omega0", BISECTION_CASES)
def test_bisection_matches_the_one_level_bisection(s, eta0, omega0, monkeypatch):
    # the Laplace route's own density and seeds: the same panels, bit for bit,
    # from at most half the density calls
    seen = []

    def recording(f, a, b, *, seeds=()):
        seen.append((f, a, b, seeds))
        return _fourier.build_panels(f, a, b, seeds=seeds)

    monkeypatch.setattr(propagator, "build_panels", recording)
    solve_laplace(BathSpec(s, eta0), omega0, TimeGrid.log(100.0, 20, 0.1))
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


def test_each_level_of_a_call_is_a_one_level_call():
    # every panel of sin(10⁹ ω) on [0, 1] splits until the budget runs out: each level's
    # slice of a call is the one-level bisection's call for that level, point for point
    def f(w):
        return np.sin(1e9 * w)

    got, want = [], []
    for build, calls in ((_fourier.build_panels, got), (build_panels_one_level, want)):
        with pytest.raises(_fourier.FourierQuadratureError):
            build(_recording(f, calls), 0.0, 1.0)
    assert len(got) < len(want)
    levels = iter(want)
    for call in got:
        start = 0
        while start < call.size:
            level = next(levels)
            assert call[start:start + level.size].tobytes() == level.tobytes()
            start += level.size
    assert next(levels, None) is None


@pytest.mark.parametrize("level", [0, 1, 2])
def test_budget_error_on_each_level_of_a_call(level, monkeypatch):
    # the first call samples 1 + 2 + 4 panels of sin(10⁹ ω) on [0, 1], none resolved: a
    # budget of 1, 3 or 7 runs out on its first, second or third level, and the error names
    # a panel of that level, as the one-level bisection's does on its own call for that level
    monkeypatch.setattr(_fourier, "_MAX_PANELS", 2 ** (level + 1) - 1)
    calls = []

    def f(w):
        calls.append(w.size)
        return np.sin(1e9 * w)

    with pytest.raises(_fourier.FourierQuadratureError) as got:
        _fourier.build_panels(f, 0.0, 1.0)
    assert calls == [7 * (_fourier._DEGREE + 1)]
    with pytest.raises(_fourier.FourierQuadratureError) as want:
        build_panels_one_level(f, 0.0, 1.0)
    assert calls[1:] == [2 ** j * (_fourier._DEGREE + 1) for j in range(level + 1)]
    assert str(got.value) == str(want.value)
    assert f"budget {2 ** (level + 1) - 1} exhausted" in str(got.value)
    assert f"half-width {0.5 / 2 ** level:.3e}" in str(got.value)
