"""Bath model: scaling convention, closed-form correlation, denominators."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from cohlab.bath import (
    BathSpec,
    imaginary_axis_denominator,
    imaginary_axis_denominator_derivative,
    inversion_denominator,
    pv_power_exp,
    spectral_density,
    correlation,
)
from cohlab.bath import _stieltjes

from oracles import (
    correlation_quadrature,
    ghat_laplace_quadrature,
    imaginary_axis_denominator_hand,
    inversion_denominator_hand,
    pv_power_exp_mp,
    stieltjes_mp,
)

S_VALUES = (0.5, 1.0, 3.0)
GENERIC_S = (0.3, 0.7, 1.5, 2.0, 2.5, 4.0, 6.5)


def test_spec_validation():
    with pytest.raises(ValueError):
        BathSpec(0.0, 0.1)
    with pytest.raises(ValueError):
        BathSpec(1.0, -0.1)
    with pytest.raises(ValueError):
        BathSpec(1.0, 0.1, 0.0)


def test_eta_s_scaling():
    spec = BathSpec(3.0, 0.5)
    assert abs(spec.eta_s - 0.5 * (np.e / 3.0) ** 3) < 1e-15


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


def _dispersion_errors(s, points=10):
    """Worst relative errors of I(y) = ∫x^s e^{-x}/(x+y), -I'(y) and the
    principal value against mpmath quadrature, over y = w ∈ [1e-9, 50].
    The PV passes through zero, so its error is taken relative to the
    modulus of the boundary value PV + iπ w^s e^{-w} it is the real part of.
    The grid includes both sides of the switch from series to continued
    fraction at y = 1, where each converges slowest.
    """
    y = np.concatenate([np.geomspace(1e-9, 50.0, points), [0.999, 1.0]])
    i_ref = np.array([stieltjes_mp(s, v) for v in y])
    d_ref = np.array([stieltjes_mp(s, v, power=2) for v in y])
    pv_ref, im_ref = np.array([pv_power_exp_mp(s, v) for v in y]).T
    i, d = _stieltjes(s, y)
    return (np.max(np.abs(i / i_ref - 1.0)),
            np.max(np.abs(d / d_ref - 1.0)),
            np.max(np.abs(pv_power_exp(s, y) - pv_ref) / np.hypot(pv_ref, im_ref)))


@pytest.mark.parametrize("s,tol_pv", [(s, 1e-9) for s in GENERIC_S] + [
    (1.9, 1e-12), (2.1, 1e-12),          # hyp1f1 PV at the edges of the near-integer band
    (1.98, 1e-9), (2.02, 1e-9),          # the Kummer sum inside it
    (1.981, 1e-12), (2.000001, 1e-12), (1.001, 1e-12), (6.001, 1e-12),
    (0.001, 1e-9), (3.000000001, 1e-12),
    (0.5, 1e-12), (1.0, 1e-12), (3.0, 1e-12),  # the reference s
])
def test_dispersion_integrals_vs_mpmath(s, tol_pv):
    # I and -I' have no band: their series stays exact as s nears an integer
    err_i, err_d, err_pv = _dispersion_errors(s)
    assert err_i <= 1e-12 and err_d <= 1e-12 and err_pv <= tol_pv


def test_pv_power_exp_integer_s_large_w():
    # where the Ei form cancels (s ≥ 2, w ≳ 10) the Kummer sum takes over
    w = np.linspace(10.0, 70.0, 13)
    for s in (2.0, 3.0, 4.0, 6.0):
        pv_ref, im_ref = np.array([pv_power_exp_mp(s, v) for v in w]).T
        assert np.max(np.abs(pv_power_exp(s, w) - pv_ref) / np.hypot(pv_ref, im_ref)) <= 1e-13


def test_pv_power_exp_keeps_shape():
    w = np.array([[0.2, 1.0], [3.0, 40.0]])
    for s in (1.5, 2.0):
        out = pv_power_exp(s, w)
        assert out.shape == w.shape
        assert out[1, 0] == pv_power_exp(s, 3.0)
    with pytest.raises(ValueError):
        pv_power_exp(1.5, np.array([1.0, 0.0]))


@pytest.mark.parametrize("s", (1.0, 3.0))
def test_imaginary_axis_denominator_far_from_the_cut(s):
    # e^y E1(y) overflows past y ≈ 709; the continued fraction does not
    spec = BathSpec(s, 0.5)
    y = np.array([200.0, 800.0])
    b_loc = imaginary_axis_denominator(spec, 0.1, y)
    ref = 0.1 + y - spec.eta_s * np.array([stieltjes_mp(s, v) for v in y])
    assert np.all(np.isfinite(b_loc))
    assert np.max(np.abs(b_loc / ref - 1.0)) <= 1e-13


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
