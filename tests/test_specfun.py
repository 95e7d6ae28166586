"""The scipy special functions behind `cohlab.bath` (E1 in `_cut_part`) and
behind the hand-derived denominators of `tests/oracles.py` (Ei, E1, Dawson,
erfcx), gated by high-precision independent oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import dawsn as dawson, erfcx, exp1, expi

from oracles import dawson_quadrature, e1_continued_fraction, e1_series, ei_series

# frozen from the series/continued-fraction oracle at 60-digit precision
E1_OF_1 = 0.21938393439552027368
EI_OF_1 = 1.89511781635593675546
DAWSON_MAX_X = 0.92413887300459176701
DAWSON_MAX = 0.54104422463518169847


def test_e1_reference_value():
    series = complex(e1_series(1.0))
    cf = complex(e1_continued_fraction(1.0))
    assert abs(series - cf) < 1e-45
    assert abs(series - E1_OF_1) < 1e-15
    assert abs(exp1(1.0) - E1_OF_1) <= 1e-12 * E1_OF_1


@pytest.mark.parametrize("z", [0.5 + 0.0j, 2.0 - 1.0j, -1.5 + 2.0j, 0.1 + 0.1j, 8.0 + 3.0j])
def test_e1_complex_against_oracle(z):
    ref = complex(e1_series(z) if abs(z) < 4 else e1_continued_fraction(z))
    assert abs(exp1(z) - ref) <= 1e-12 * abs(ref)


def test_e1_asymptotic_ratio():
    for x in (50.0, 200.0, 600.0):
        ratio = exp1(x) * x * np.exp(x)
        assert abs(ratio - 1.0) < 2.0 / x


def test_e1_branch_relation_to_ei():
    # E1(x e^{±iπ}) = -Ei(x) ∓ iπ: approach the cut from both sides
    for x in (0.5, 1.0, 2.5):
        above = exp1(complex(-x, 1e-12))
        below = exp1(complex(-x, -1e-12))
        assert abs(above - (-expi(x) - 1j * np.pi)) < 1e-10
        assert abs(below - (-expi(x) + 1j * np.pi)) < 1e-10


def test_e1_derivative_identity():
    # dE1/dz = -e^{-z}/z, by central differences
    rng = np.random.default_rng(7)
    for _ in range(8):
        z = complex(rng.uniform(0.3, 4.0), rng.uniform(-3.0, 3.0))
        h = 1e-6
        fd = (exp1(z + h) - exp1(z - h)) / (2 * h)
        exact = -np.exp(-z) / z
        assert abs(fd - exact) <= 1e-6 * abs(exact)


def test_ei_reference_value():
    assert abs(float(ei_series(1.0)) - EI_OF_1) < 1e-15
    assert abs(expi(1.0) - EI_OF_1) <= 1e-12 * EI_OF_1


def test_ei_defining_series_small_x():
    x = 0.3
    gamma_euler = 0.57721566490153286061
    partial = sum(x**k / (k * math.factorial(k)) for k in range(1, 30))
    assert abs(expi(x) - np.log(x) - gamma_euler - partial) < 1e-13


def test_ei_consistency_with_e1_across_cut():
    for x in (0.7, 1.3, 3.1):
        assert abs((-expi(x) - 1j * np.pi) - exp1(complex(-x, 1e-13))) < 1e-10
        assert abs((-expi(x) + 1j * np.pi) - exp1(complex(-x, -1e-13))) < 1e-10


def test_dawson_values():
    assert dawson(0.0) == 0.0
    ref = float(dawson_quadrature(DAWSON_MAX_X))
    assert abs(ref - DAWSON_MAX) < 1e-15
    assert abs(dawson(DAWSON_MAX_X) - DAWSON_MAX) <= 1e-12
    for x in (-1.7, 0.4, 2.9):
        assert abs(dawson(x) - float(dawson_quadrature(x))) <= 1e-12


def test_dawson_asymptotic_ratio():
    x = 50.0
    assert abs(dawson(x) * 2.0 * x - 1.0) < 5e-4


def test_dawson_ode_property():
    # F'(x) + 2xF(x) = 1 with a finite-difference derivative
    for x in np.linspace(-3.0, 3.0, 13):
        h = 1e-5
        fd = (dawson(x + h) - dawson(x - h)) / (2 * h)
        assert abs(fd + 2 * x * dawson(x) - 1.0) < 1e-9


def test_dawson_vectorized():
    xs = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(dawson(xs), [dawson(float(x)) for x in xs], rtol=1e-15)


def test_gamma_values():
    assert math.gamma(1.0) == 1.0
    assert abs(math.gamma(1.5) - np.sqrt(np.pi) / 2) <= 1e-12
    assert math.gamma(4.0) == 6.0
    with pytest.raises(ValueError):
        math.gamma(0.0)


def test_special_functions_at_bath_arguments():
    # E1 on (0, 1) as in `_cut_part`; Ei, E1, Dawson and erfcx over the
    # ω, y ∈ [1e-8, 50] of the hand-derived oracle forms
    for y in np.geomspace(1e-8, 0.999, 7):
        assert abs(exp1(y) - float(e1_series(y))) <= 1e-14 * exp1(y)
    for x in np.geomspace(1e-8, 50.0, 9):
        ref_ei = float(ei_series(x))
        assert abs(expi(x) - ref_ei) <= 1e-13 * abs(ref_ei)
        ref_e1 = float(e1_series(x) if x < 4 else e1_continued_fraction(x))
        assert abs(exp1(x) - ref_e1) <= 1e-13 * ref_e1
        r = np.sqrt(x)
        assert abs(dawson(r) - float(dawson_quadrature(r))) <= 1e-14
        with mp.workdps(30):
            ref_erfcx = float(mp.exp(mp.mpf(r) ** 2) * mp.erfc(r))
        assert abs(erfcx(r) - ref_erfcx) <= 1e-14 * ref_erfcx
