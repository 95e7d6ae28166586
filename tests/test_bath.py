"""Bath model: scaling convention, closed-form correlation, denominators."""

import functools
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

import cohlab
from cohlab.bath import (
    BathSpec,
    imaginary_axis_denominator,
    inversion_denominator,
    pv_power_exp,
    spectral_density,
    correlation,
)
from cohlab.bath import _PV_EDGES, _kummer_sum, _pv_table, _stieltjes

from oracles import (
    correlation_quadrature,
    ghat_laplace_quadrature,
    imaginary_axis_denominator_derivative,
    imaginary_axis_denominator_hand,
    inversion_denominator_hand,
    pv_power_exp_closed_mp,
    pv_power_exp_mp,
    stieltjes_closed_mp,
    stieltjes_mp,
)

S_VALUES = (0.5, 1.0, 3.0)
GENERIC_S = (0.3, 0.7, 1.5, 2.0, 2.5, 4.0, 6.5)


def test_spec_validation():
    with pytest.raises(ValueError):
        BathSpec(0.0, 0.1)
    with pytest.raises(ValueError):
        BathSpec(1.0, -0.1)
    # frequencies are in units of ω_c: there is no third field to set it
    with pytest.raises(TypeError):
        BathSpec(1.0, 0.5, 2.0)


@pytest.mark.parametrize("field", ["s", "eta0"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spec_rejects_non_finite(field, bad):
    values = {"s": 1.0, "eta0": 0.1, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        BathSpec(**values)


def test_eta_s_scaling():
    spec = BathSpec(3.0, 0.5)
    assert abs(spec.eta_s - 0.5 * (np.e / 3.0) ** 3) < 1e-15


def test_spec_names_the_limits_on_s_and_eta_s():
    # Γ(s+1) overflows past s = 170.62; there η_s = η0 (e/s)^s had already read 0.0
    # at s = 200.5, and at s = 170, η0 = 0.001 it is the subnormal 4.5e-309
    with pytest.raises(ValueError, match="at most 170.62"):
        BathSpec(200.5, 0.5)
    with pytest.raises(ValueError, match="smallest normal float"):
        BathSpec(170.0, 0.001)
    assert BathSpec(170.0, 0.0).eta_s == 0.0  # free: no coupling to lose
    # every s that passes keeps today's bits
    for s, eta0 in ((150.5, 0.5), (170.5, 0.5), (3.0, 0.5)):
        assert BathSpec(s, eta0).eta_s == eta0 * (np.e / s) ** s
    assert spectral_density(BathSpec(150.5, 0.5), 150.5) == pytest.approx(np.pi, rel=1e-12)


@pytest.mark.parametrize("s", S_VALUES)
def test_peak_height_and_position(s):
    # common peak 2π η0 ωc at ω = s ωc is the scaling convention's point
    spec = BathSpec(s, 0.5)
    assert abs(spectral_density(spec, s) - 2 * np.pi * 0.5) < 1e-12
    res = minimize_scalar(lambda w: -spectral_density(spec, w),
                          bracket=(0.1, s, 10.0), method="golden")
    assert abs(res.x - s) < 1e-6


def test_peak_heights_agree_across_s():
    peaks = [spectral_density(BathSpec(s, 0.37), s) for s in S_VALUES]
    assert max(peaks) - min(peaks) < 1e-12


def test_spectral_density_edge_and_domain():
    spec = BathSpec(0.5, 0.3)
    assert spectral_density(spec, 0.0) == 0.0
    with pytest.raises(ValueError):
        spectral_density(spec, -1.0)
    w = np.linspace(0.0, 40.0, 401)
    assert np.all(spectral_density(spec, w) >= 0.0)


@pytest.mark.parametrize("s", S_VALUES)
def test_spectral_density_integral_identity(s):
    spec = BathSpec(s, 0.42)
    total, _ = quad(lambda w: spectral_density(spec, w), 0.0, np.inf, limit=400)
    exact = 2 * np.pi * spec.eta_s * math.gamma(s + 1.0)
    assert abs(total - exact) <= 1e-8 * exact


@pytest.mark.parametrize("s", S_VALUES)
def test_correlation_t0_matches_quadrature(s):
    spec = BathSpec(s, 0.5)
    g0 = correlation(spec, 0.0)
    ref = correlation_quadrature(spec, 0.0)
    assert abs(g0 - ref) <= 1e-10 * abs(ref)
    assert abs(g0 - spec.eta_s * math.gamma(s + 1.0)) < 1e-14


@pytest.mark.parametrize("s", S_VALUES)
def test_correlation_closed_form_vs_quadrature(s):
    spec = BathSpec(s, 0.5)
    for t in np.geomspace(0.05, 50.0, 10):
        ref = correlation_quadrature(spec, float(t))
        assert abs(correlation(spec, t) - ref) <= 1e-8 * abs(ref)


def test_correlation_specific_point_ohmic():
    spec = BathSpec(1.0, 0.5)
    ref = correlation_quadrature(spec, 2.0)
    assert abs(correlation(spec, 2.0) - ref) <= 1e-8 * abs(ref)


def test_correlation_modulus_identity():
    spec = BathSpec(3.0, 0.2)
    t = np.array([0.0, 0.7, 4.0, 31.0])
    expect = spec.eta_s * math.gamma(4.0) / (1.0 + t**2) ** 2
    np.testing.assert_allclose(np.abs(correlation(spec, t)), expect, rtol=1e-13)


def test_correlation_matches_mpmath_to_rounding():
    # the principal branch in real arithmetic, against 40 digits on t in ±[1e-6, 1e12];
    # numpy's complex power is 4.2e-14 off at s = 9.5, t = 42
    t = np.r_[np.geomspace(1e-6, 1e12, 37), 42.0]
    t = np.r_[t, -t]
    for s in (0.3, 0.5, 1.0, 3.0, 5.5, 9.5, 15.0):
        spec = BathSpec(s, 0.5)
        with mpmath.workdps(40):
            ref = np.array([complex(spec.eta_s * mpmath.gamma(s + 1) / (1 + 1j * mpmath.mpf(x)) ** (s + 1))
                            for x in t])
        got = correlation(spec, t)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 5e-15, s
        scalar = correlation(spec, 42.0)
        assert type(scalar) is complex and abs(scalar - ref[37]) <= 5e-15 * abs(ref[37])


def test_denominator_free_limit():
    spec = BathSpec(3.0, 0.0)
    w = np.array([0.3, 1.0, 4.0])
    np.testing.assert_allclose(inversion_denominator(spec, 0.1, w), 0.1 - w, atol=1e-15)


def test_denominator_ohmic_vs_laplace_quadrature():
    # B(ω) = ω0 - ω - i ĝ(-iω + 0+), with ĝ from time-domain quadrature
    spec = BathSpec(1.0, 0.5)
    w = 1.0
    ref = 0.1 - w - 1j * ghat_laplace_quadrature(spec, w)
    val = inversion_denominator(spec, 0.1, w)
    assert abs(val - ref) < 1e-6


@pytest.mark.parametrize("s", S_VALUES)
def test_denominator_hand_forms_vs_generic(s):
    # the one code path for every s must reproduce the hand-derived forms
    w = np.geomspace(1e-8, 50.0, 200)
    y = np.geomspace(1e-6, 50.0, 200)
    for eta0 in (0.01, 0.5):
        spec = BathSpec(s, eta0)
        b = inversion_denominator(spec, 0.1, w)
        b_hand = inversion_denominator_hand(spec, 0.1, w)
        assert np.max(np.abs(b / b_hand - 1.0)) <= 1e-13
        b_loc = imaginary_axis_denominator(spec, 0.1, y)
        b_loc_hand = imaginary_axis_denominator_hand(spec, 0.1, y)
        assert np.max(np.abs(b_loc / b_loc_hand - 1.0)) <= 1e-13


def test_denominator_generic_s_supported_and_gate():
    spec = BathSpec(2.0, 0.3)
    val = inversion_denominator(spec, 0.1, 0.8)
    assert np.imag(val) < 0.0


def test_subohmic_imaginary_part_limit():
    # Im B → -π η_s √ω → 0 as ω → 0+
    spec = BathSpec(0.5, 0.5)
    for w in (1e-6, 1e-8, 1e-10):
        val = inversion_denominator(spec, 0.1, w)
        expect = -np.pi * spec.eta_s * np.sqrt(w)
        assert abs(val.imag - expect) <= 1e-6 * abs(expect)
    assert abs(inversion_denominator(spec, 0.1, 1e-14).imag) < 1e-6


def test_denominator_requires_positive_omega():
    spec = BathSpec(1.0, 0.5)
    with pytest.raises(ValueError):
        inversion_denominator(spec, 0.1, 0.0)


def test_pv_power_exp_against_cauchy_weight():
    # scipy's dedicated Cauchy-weight quadrature as a second PV method
    for s, w in ((1.0, 0.1), (3.0, 0.7), (0.5, 1.9)):
        near, _ = quad(lambda x: x**s * np.exp(-x), 0.0, 2 * w + 5.0,
                       weight="cauchy", wvar=w, limit=400)
        far, _ = quad(lambda x: x**s * np.exp(-x) / (x - w), 2 * w + 5.0, np.inf, limit=400)
        assert abs(pv_power_exp(s, w) - (near + far)) < 1e-9


@pytest.mark.parametrize("s", S_VALUES)
def test_imaginary_axis_denominator_closed_vs_quadrature(s):
    spec = BathSpec(s, 0.5)
    ys = np.array([0.05, 0.4, 2.0, 11.0])
    closed = imaginary_axis_denominator(spec, 0.1, ys)
    for y, c in zip(ys, closed):
        integral, _ = quad(lambda x: x**s * np.exp(-x) / (x + y), 0.0, np.inf, limit=400)
        assert abs(c - (0.1 + y - spec.eta_s * integral)) < 1e-10


def test_imaginary_axis_derivative_vs_finite_difference():
    spec = BathSpec(3.0, 0.5)
    y = 0.5066
    h = 1e-6
    fd = (imaginary_axis_denominator(spec, 0.1, y + h)
          - imaginary_axis_denominator(spec, 0.1, y - h)) / (2 * h)
    assert abs(imaginary_axis_denominator_derivative(spec, y) - fd) < 1e-6


_DISPERSION_Y = np.concatenate([np.geomspace(1e-9, 50.0, 10), [0.999, 1.0]])


@functools.lru_cache(maxsize=None)
def _dispersion_errors(s):
    """Worst relative errors of I(y) = ∫x^s e^{-x}/(x+y), -I'(y) and the
    principal value against mpmath's closed forms (`stieltjes_closed_mp`,
    `pv_power_exp_closed_mp`), over y = w ∈ [1e-9, 50]; the test below
    holds them to the quadrature of the definitions.  The PV passes
    through zero, so its error is taken relative to the modulus of the
    boundary value PV + iπ w^s e^{-w} it is the real part of.  The grid
    includes both sides of the switch from series to continued fraction
    at y = 1, where each converges slowest.  Cached: two tests gate the
    same s.
    """
    y = _DISPERSION_Y
    i_ref, d_ref = np.array([[float(v) for v in stieltjes_closed_mp(s, v)] for v in y]).T
    pv_ref, im_ref = np.array([pv_power_exp_closed_mp(s, v) for v in y]).T
    i, d = _stieltjes(s, y)
    return (np.max(np.abs(i / i_ref - 1.0)),
            np.max(np.abs(d / d_ref - 1.0)),
            np.max(np.abs(pv_power_exp(s, y) - pv_ref) / np.hypot(pv_ref, im_ref)))


@pytest.mark.parametrize("s", (0.5, 4.3, 3.000000001))
def test_dispersion_closed_forms_match_quadrature(s):
    # the references of _dispersion_errors against mpmath quadrature of the definitions, on
    # its grid: measured 0 at these s (elsewhere up to one ulp, 2.2e-16)
    y = _DISPERSION_Y
    closed = np.array([[float(v) for v in stieltjes_closed_mp(s, v)] for v in y])
    quad_ = np.array([[stieltjes_mp(s, v), stieltjes_mp(s, v, power=2)] for v in y])
    assert np.max(np.abs(quad_ / closed - 1.0)) <= 2e-16
    pv, im = np.array([pv_power_exp_closed_mp(s, v) for v in y]).T
    pv_q, im_q = np.array([pv_power_exp_mp(s, v) for v in y]).T
    assert np.max(np.abs(pv_q - pv) / np.hypot(pv, im)) <= 2e-16
    assert np.max(np.abs(im_q / im - 1.0)) <= 2e-16


def _tightened(s, tol, old_tol):
    """An entry whose PV tolerance was tightened, under the id it had at
    old_tol, the bound of the scipy hyp1f1 or Ei route it once took."""
    return pytest.param(s, tol, id=f"{s}-{old_tol}")


# the 1e-9 entries keep their parameter ids; test_pv_power_exp_vs_mpmath_tight
# holds their principal value to the measured bound.  On this grid the one
# evaluator is within 1.1e-15 at every s listed.
@pytest.mark.parametrize("s,tol_pv", [(s, 1e-9) for s in GENERIC_S] + [
    _tightened(1.9, 1e-14, 1e-12), _tightened(2.1, 1e-14, 1e-12),
    (1.98, 1e-9), (2.02, 1e-9),
    (1.981, 1e-12), (2.000001, 1e-12), (1.001, 1e-12), (6.001, 1e-12),
    (0.001, 1e-9), (3.000000001, 1e-12),
    _tightened(0.5, 1e-14, 1e-12), _tightened(1.0, 1e-14, 1e-12),  # the reference s
    _tightened(3.0, 1e-14, 1e-12),
    (4.3, 1e-13), (7.5, 1e-13), (9.5, 1e-13), (12.5, 1e-13),
])
def test_dispersion_integrals_vs_mpmath(s, tol_pv):
    # I and -I' have no band: their series stays exact as s nears an integer
    err_i, err_d, err_pv = _dispersion_errors(s)
    assert err_i <= 1e-12 and err_d <= 1e-12 and err_pv <= tol_pv


@pytest.mark.parametrize("s,tol_pv", [
    _tightened(s, 1e-14, 1e-13) for s in GENERIC_S if s != 6.5] + [(6.5, 1e-13)] + [
    (1.98, 1e-14), (2.02, 1e-14), (0.001, 1e-14)])
def test_pv_power_exp_vs_mpmath_tight(s, tol_pv):
    # measured on this grid: ≤ 7.6e-16; the dense-grid test below holds
    # every s to 1e-14 out to w = 700
    assert _dispersion_errors(s)[2] <= tol_pv


def test_pv_power_exp_integer_s_large_w():
    # where the Ei form Σ (n-1-k)! w^k - w^n e^{-w} Ei(w) cancels (s ≥ 2, w ≳ 10)
    w = np.linspace(10.0, 70.0, 13)
    for s in (2.0, 3.0, 4.0, 6.0):
        pv_ref, im_ref = np.array([pv_power_exp_mp(s, v) for v in w]).T
        assert np.max(np.abs(pv_power_exp(s, w) - pv_ref) / np.hypot(pv_ref, im_ref)) <= 1e-14


def test_pv_power_exp_keeps_shape():
    w = np.array([[0.2, 1.0], [3.0, 40.0]])
    for s in (1.5, 2.0):
        out = pv_power_exp(s, w)
        assert out.shape == w.shape
        assert out[1, 0] == pv_power_exp(s, 3.0)
    with pytest.raises(ValueError):
        pv_power_exp(1.5, np.array([1.0, 0.0]))
    # a point gets the same bits alone or in an array, on either side of a panel edge
    w = np.concatenate([np.geomspace(1e-9, 700.0, 120), _PV_EDGES[1:], np.nextafter(_PV_EDGES[1:], 0.0)])
    for s in (0.5, 1.0, 2.000001, 7.5):
        assert list(pv_power_exp(s, w)) == [pv_power_exp(s, float(v)) for v in w]


PV_TABLE_S = (0.001, 0.3, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 1.5, 2.0, 2.5, 3 - 1e-9, 3.0,
              4.3, 6.001, 7.5, 9.5, 12.5, 15.0)


def test_pv_closed_form_oracle_matches_quadrature():
    # the dense-grid oracle against the quadrature of the definition
    for s, w in ((0.5, 0.3), (1.0, 42.4), (3.0, 7.0), (2.000001, 20.0), (7.5, 60.0)):
        pv, im = pv_power_exp_closed_mp(s, w)
        pv_ref, im_ref = pv_power_exp_mp(s, w)
        assert abs(pv - pv_ref) <= 1e-15 * math.hypot(pv_ref, im_ref) and im == im_ref


@pytest.mark.parametrize("s", PV_TABLE_S)
def test_pv_power_exp_dense_grid_vs_mpmath(s):
    # the table over its whole range, every panel edge included: measured
    # ≤ 4.4e-15 at these s
    w = np.concatenate([np.geomspace(1e-9, 700.0, 300), _PV_EDGES[1:]])
    pv_ref, im_ref = np.array([pv_power_exp_closed_mp(s, v) for v in w]).T
    assert np.max(np.abs(pv_power_exp(s, w) - pv_ref) / np.hypot(pv_ref, im_ref)) <= 1e-14


@pytest.mark.parametrize("s", (0.001, 1.0, 1 + 1e-9, 2.5, 15.0))
def test_pv_table_is_continuous_at_every_panel_edge(s):
    # each panel at x = 1 against the next at x = -1; measured ≤ 3.4e-15 of S_s
    c = _pv_table(s)[0]
    left = c[:, :-1].sum(axis=0)
    right = ((-1.0) ** np.arange(c.shape[0]) @ c[:, 1:])
    assert np.max(np.abs(left - right) / np.abs(_kummer_sum(s, _PV_EDGES[1:-1]))) <= 1e-14


@pytest.mark.parametrize("s", (30.0, 30.5, 60.5, 150.5))
def test_pv_power_exp_past_the_table(s):
    # the last tabulated s, then the direct sum, across w ≈ s, where the
    # panels stop resolving S_s as s grows (8e-12 at s = 120.5 if tabulated);
    # w^n e^{-w} is formed in halves, since 700^150 alone would overflow
    w = np.concatenate([np.geomspace(1e-3, 700.0, 60), np.linspace(0.5 * s, min(2.0 * s, 700.0), 40)])
    pv_ref, im_ref = np.array([pv_power_exp_closed_mp(s, v, dps=120) for v in w]).T
    assert np.max(np.abs(pv_power_exp(s, w) - pv_ref) / np.hypot(pv_ref, im_ref)) <= 1e-14


def test_pv_table_built_on_first_use_and_kept():
    # nothing is tabulated at import; one table per s, reused by later calls
    code = ("import cohlab, cohlab.cli; from cohlab import bath; t = bath._pv_table; "
            "n0 = t.cache_info().currsize; bath.pv_power_exp(2.5, 1.0); bath.pv_power_exp(2.5, [3.0, 40.0]); "
            "bath.inversion_denominator(bath.BathSpec(2.5, 0.1), 0.1, 5.0); print(n0, t.cache_info().currsize, t.cache_info().misses)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cohlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "1", "1"]


def test_imaginary_axis_builds_no_pv_table():
    # the imaginary axis reads the bracket's a alone, kept per s apart from the
    # table: a first find_poles at a new s builds no table, and gives the pole,
    # residue and B_loc that it gives once the table is built
    code = ("import sys; from cohlab import bath, propagator; spec = bath.BathSpec(2.7, 0.5); "
            "sys.argv[1] == 'table' and bath._pv_table(2.7); poles = propagator.find_poles(spec, 0.1); "
            "b = bath.imaginary_axis_denominator(spec, 0.1, [1e-3, 0.5, 3.0]); "
            "print(bath._pv_table.cache_info().currsize, *(x.hex() for z, r in poles for x in "
            "(z.real, z.imag, r.real, r.imag)), *(x.hex() for x in b))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cohlab.__file__)))
    fresh, kept = (subprocess.run([sys.executable, "-c", code, first], env=env, capture_output=True,
                                  text=True, check=True).stdout.split() for first in ("poles", "table"))
    assert fresh[0] == "0" and kept[0] == "1"
    assert len(fresh) == 1 + 4 + 3  # one pole
    assert fresh[1:] == kept[1:]


@pytest.mark.parametrize("s", (1.0, 3.0))
def test_imaginary_axis_denominator_far_from_the_cut(s):
    # e^y E1(y) overflows past y ≈ 709; the continued fraction does not
    spec = BathSpec(s, 0.5)
    y = np.array([200.0, 800.0])
    b_loc = imaginary_axis_denominator(spec, 0.1, y)
    ref = 0.1 + y - spec.eta_s * np.array([stieltjes_mp(s, v) for v in y])
    assert np.all(np.isfinite(b_loc))
    assert np.max(np.abs(b_loc / ref - 1.0)) <= 1e-13


@pytest.mark.parametrize("s", (20.5, 30.5, 60.5))
def test_imaginary_axis_denominator_large_s_near_the_origin(s):
    # the Kummer sum at w = -y below y = 1, past the s the dispersion grid
    # reaches; the reference takes the same η_s, whose rounding grows with s.
    # At η0 = 0.1 there is no bound state, so B_loc ≥ 0.04 and its relative
    # error is I's; measured ≤ 6.7e-16 for B_loc and -I'
    spec = BathSpec(s, 0.1)
    y = np.concatenate([np.geomspace(1e-9, 0.9999, 30), [0.5, 0.999]])
    refs = [stieltjes_closed_mp(s, v) for v in y]
    ref = np.array([float(0.1 + mpmath.mpf(v) - mpmath.mpf(spec.eta_s) * i) for v, (i, _) in zip(y, refs)])
    ref_d = np.array([float(d) for _, d in refs])
    assert np.max(np.abs(imaginary_axis_denominator(spec, 0.1, y) / ref - 1.0)) <= 2e-15
    assert np.max(np.abs(_stieltjes(s, y)[1] / ref_d - 1.0)) <= 2e-15


@pytest.mark.parametrize("s", (20.5, 60.5, 120.5))
def test_power_exp_large_s_vs_mpmath(s):
    # Im B = -π η_s w^s e^{-w} and J = 2π η_s ω_c w^s e^{-w}: finite up to w = 700
    # where w^s alone overflows (s = 120.5 from w ≈ 360); the reference takes the
    # same float η_s, at 40 digits
    spec = BathSpec(s, 0.5)
    w = np.concatenate([np.linspace(0.5, 700.0, 200), [s, 600.0]])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.pi * spec.eta_s * mpmath.mpf(v) ** s * mpmath.exp(-v)) for v in w])
    assert np.max(np.abs(-inversion_denominator(spec, 0.1, w).imag / ref - 1.0)) <= 1e-14
    assert np.max(np.abs(spectral_density(spec, w) / (2.0 * ref) - 1.0)) <= 1e-14


def test_pv_power_exp_rejects_underflowing_w():
    # e^{-w} underflows in the Kummer sum: an error, not a silent 0
    for s in (1.001, 2.5, 4.0):
        with pytest.raises(ValueError):
            pv_power_exp(s, np.array([1.0, 701.0]))
    assert np.isfinite(pv_power_exp(1.001, 700.0))


@pytest.mark.parametrize("s", (0.5, 3.0, 15.0))
def test_stieltjes_pointwise_far_from_the_cut(s):
    # one y per call, so each sets its own continued-fraction depth
    for y in np.geomspace(1.0, 800.0, 12):
        i, d = _stieltjes(s, np.array([y]))
        assert abs(i[0] / stieltjes_mp(s, y) - 1.0) <= 1e-14
        assert abs(d[0] / stieltjes_mp(s, y, power=2) - 1.0) <= 1e-12
