"""Bath model: spectral density family, correlation function, and the
frequency-domain denominators entering the Laplace inversion.

The spectral density is a power law with exponential cutoff,

    J(ω) = 2π η_s ω (ω/ω_c)^{s-1} e^{-ω/ω_c},   η_s = η_0 (e/s)^s,

scaled so that the peak height 2π η_0 ω_c at ω = s ω_c is the same for
every power s.  At zero temperature the noise correlation function is the
half-range Fourier transform of J, which evaluates in closed form to

    g(t) = η_s ω_c² Γ(s+1) / (1 + i ω_c t)^{s+1}

(principal branch).  The closed form is gated against direct quadrature of
the defining integral in the test suite.

All frequencies are nondimensionalized by ω_c internally; τ_c = 1/ω_c only
appears at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp
from scipy.integrate import quad

from .specfun import gamma_real

__all__ = [
    "BathSpec",
    "spectral_density",
    "correlation",
    "inversion_denominator",
    "imaginary_axis_denominator",
    "imaginary_axis_denominator_derivative",
    "pv_power_exp",
]

# Dispersion integrals of x^s e^{-x} for s outside the hand-derived set.
# scipy's hyp1f1, which gives the principal value, is inaccurate near
# b = 1 - n for a positive integer n: within _NEAR_INTEGER of n the PV falls
# back to per-point quad (slow, and good to quad's default 1.5e-8).  At the
# band edge it is good to 2e-10 against mpmath (s ≤ 10).
_NEAR_INTEGER = 0.02
_CF_FROM = 1.0     # y at and above which I(y) comes from its continued fraction
_CF_DEPTH = 120    # terms; converged to 2e-16 at y = 1 for s up to 10
_SERIES_TERMS = 25  # y^m/m! < 1e-25 past it, for y < 1
_ZETA_TERMS = 60    # ζ(k) ε^k/k < 1e-19 past it, for |ε| ≤ 1/2


@dataclass(frozen=True)
class BathSpec:
    """Spectral-density parameters (s, η_0, ω_c).

    s : power of the low-frequency behaviour (sub-Ohmic s<1, Ohmic s=1,
        super-Ohmic s>1); any s > 0 is supported.
    eta0 : dimensionless coupling strength (peak height is 2π η_0 ω_c).
    omega_c : cutoff frequency; unity in all reference configurations.
    """

    s: float
    eta0: float
    omega_c: float = 1.0

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"power s must be > 0, got {self.s}")
        if self.eta0 < 0:
            raise ValueError(f"coupling eta0 must be >= 0, got {self.eta0}")
        if not self.omega_c > 0:
            raise ValueError(f"cutoff omega_c must be > 0, got {self.omega_c}")

    @property
    def eta_s(self) -> float:
        """Scaled coupling η_s = η_0 (e/s)^s; recomputed, never stored."""
        return self.eta0 * (np.e / self.s) ** self.s


def spectral_density(spec: BathSpec, omega):
    """J(ω) = 2π η_s ω (ω/ω_c)^{s-1} e^{-ω/ω_c} for ω ≥ 0 (vectorized)."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValueError("spectral_density requires omega >= 0")
    x = w / spec.omega_c
    # x**s handles the ω=0 limit (J→0 for s>0) without a 0**(s-1) warning
    out = 2.0 * np.pi * spec.eta_s * spec.omega_c * x**spec.s * np.exp(-x)
    return float(out) if np.ndim(omega) == 0 else out


def correlation(spec: BathSpec, t):
    """Noise correlation g(t) = ∫_0^∞ dω/2π J(ω) e^{-iωt} in closed form.

    g(t) = η_s ω_c² Γ(s+1) / (1 + i ω_c t)^{s+1}, principal branch.
    Valid for t ≥ 0 (and in fact all real t).
    """
    tt = np.asarray(t, dtype=float)
    g0 = spec.eta_s * spec.omega_c**2 * gamma_real(spec.s + 1.0)
    out = g0 / (1.0 + 1j * spec.omega_c * tt) ** (spec.s + 1.0)
    return complex(out) if np.ndim(t) == 0 else out


def _near_integer(s: float) -> bool:
    """0 < |s - n| < _NEAR_INTEGER for a positive integer n."""
    n = round(s)
    return n >= 1 and s != n and abs(s - n) < _NEAR_INTEGER


def _pv_quad(s: float, w: float) -> float:
    """PV ∫_0^∞ x^s e^{-x}/(x - w) dx by symmetric splitting around w: on
    [0, 2w] the principal value of f(w)/(x-w) vanishes, so

        PV = ∫_0^{2w} (f(x)-f(w))/(x-w) dx + ∫_{2w}^∞ f(x)/(x-w) dx,

    with f(x) = x^s e^{-x} and a regular first integrand.
    """
    fw = w**s * np.exp(-w)

    def regular(x):
        if x == w:
            return (s / w - 1.0) * fw
        return (x**s * np.exp(-x) - fw) / (x - w)

    r1, _ = quad(regular, 0.0, 2.0 * w, points=[w], limit=400)
    r2, _ = quad(lambda x: x**s * np.exp(-x) / (x - w), 2.0 * w, np.inf, limit=400)
    return r1 + r2


def _u1_continued_fraction(s: float, y: np.ndarray) -> np.ndarray:
    """U(1, 1-s, y) = y^s e^y Γ(-s, y) by Legendre's continued fraction

        1/(y+1+s - 1(1+s)/(y+3+s - 2(2+s)/(y+5+s - ...))),

    summed backward from a fixed depth; for y ≥ _CF_FROM.
    """
    f = np.zeros_like(y)
    for k in range(_CF_DEPTH, 0, -1):
        f = k * (k + s) / (y + 2 * k + 1 + s - f)
    return 1.0 / (y + 1 + s - f)


def _cut_part(s: float, y: np.ndarray):
    """G and G' in I(y) = Σ_{k<n} Γ(s-k)(-y)^k + (-y)^n G(y), n = round(s),
    for 0 < y < 1.  With ε = s - n,

        G(y) = π/sin(πε) Σ_m [y^m/Γ(m+1-ε) - y^{m+ε}/m!],

    summed as π/sin(πε) y^ε Σ_m (y^m/m!) expm1(L_m - ε ln y) with
    L_m = ln(m!/Γ(m+1-ε)) from the Taylor series of ln Γ(1-ε), so that no
    term cancels as ε → 0, where G → e^y E1(y).
    """
    eps = s - round(s)
    if eps == 0.0:
        g = np.exp(y) * _sp.exp1(y)
        return g, g - 1.0 / y
    j = np.arange(2, _ZETA_TERMS)
    ln_gamma = np.euler_gamma * eps + np.sum(_sp.zeta(j) * eps**j / j)  # ln Γ(1-ε)
    m = np.arange(_SERIES_TERMS)
    big_l = -ln_gamma - np.concatenate(([0.0], np.cumsum(np.log1p(-eps / m[1:]))))
    e = np.expm1(big_l[:, None] - eps * np.log(y))
    t = y ** m[:, None] / _sp.factorial(m)[:, None] * e
    c = np.pi / np.sin(np.pi * eps) * y**eps
    return c * np.sum(t, axis=0), c / y * (np.sum(m[:, None] * t, axis=0) - eps * np.exp(y))


def _stieltjes(s: float, y: np.ndarray):
    """I(y) = ∫_0^∞ x^s e^{-x}/(x+y) dx = Γ(s+1) U(1, 1-s, y) and
    -I'(y) = ∫_0^∞ x^s e^{-x}/(x+y)² dx, for y > 0, whole-array.

    For y ≥ 1, I from the continued fraction of U and -I' by the recurrence
    -I' = (Γ(s+1) - (s+y) I)/y; below, the expansion of `_cut_part`.
    Against mpmath over y ∈ [1e-9, 50] and s ≤ 15, including s within
    1e-9 of an integer, both are good to 1e-12 relative.
    """
    i = np.empty(y.shape)
    d = np.empty(y.shape)
    far = y >= _CF_FROM
    yf = y[far]
    i[far] = gamma_real(s + 1.0) * _u1_continued_fraction(s, yf)
    d[far] = (gamma_real(s + 1.0) - (s + yf) * i[far]) / yf
    yn = y[~far]
    n = round(s)
    g, dg = _cut_part(s, yn)
    k = np.arange(n)[:, None]
    gk = _sp.gamma(s - k)
    i[~far] = np.sum(gk * (-yn) ** k, axis=0) + (-yn) ** n * g
    d[~far] = np.sum(k[1:] * gk[1:] * (-yn) ** (k[1:] - 1), axis=0) \
        + n * (-yn) ** (n - 1) * g - (-yn) ** n * dg
    return i, d


def pv_power_exp(s: float, w):
    """PV ∫_0^∞ x^s e^{-x} / (x - w) dx for w > 0 (vectorized).

        s not an integer: Γ(s) M(1, 1-s, -w) - π w^s e^{-w} cot(πs)
        s = n           : Σ_{k<n} Γ(n-k) w^k - w^n e^{-w} Ei(w)

    (DLMF §13.2 and §6.2), with M Kummer's function.  Against mpmath over
    w ∈ [1e-9, 70] and s ≤ 15, the error relative to |PV + iπ w^s e^{-w}|
    is at most 2e-10.  Per-point quad takes over within _NEAR_INTEGER of a
    positive integer, and at integer s where the Ei form would cancel past
    1e-10 (s ≥ 4 at w ≳ 40).
    """
    ww = np.asarray(w, dtype=float).ravel()
    if np.any(ww <= 0):
        raise ValueError("pv_power_exp requires w > 0")
    if _near_integer(s):
        out = np.array([_pv_quad(s, wi) for wi in ww])
    elif s == round(s):
        n = int(s)
        k = np.arange(n)[:, None]
        ei = ww**n * np.exp(-ww) * _sp.expi(ww)
        out = np.sum(_sp.gamma(s - k) * ww**k, axis=0) - ei
        # the sum cancels against the Ei term as w grows (s ≥ 4, w ≳ 40):
        # where that costs more than 1e-10 of |PV + iπ w^n e^{-w}|, quad
        lossy = 1e-15 * np.abs(ei) > 1e-10 * np.hypot(out, np.pi * ww**n * np.exp(-ww))
        out[lossy] = [_pv_quad(s, wi) for wi in ww[lossy]]
    else:
        out = gamma_real(s) * _sp.hyp1f1(1.0, 1.0 - s, -ww) \
            - np.pi * ww**s * np.exp(-ww) / np.tan(np.pi * s)
    return float(out[0]) if np.ndim(w) == 0 else out.reshape(np.shape(w))


def _denominator_generic(spec: BathSpec, w0: float, w: np.ndarray) -> np.ndarray:
    s = spec.s
    return w0 - w - spec.eta_s * (pv_power_exp(s, w) + 1j * np.pi * w**s * np.exp(-w))


def inversion_denominator(spec: BathSpec, omega0: float, omega, *, allow_generic: bool = True):
    """Branch-cut denominator B(ω) of the Laplace inversion, ω > 0.

    B is the analytic continuation of the denominator of û(z) onto the
    right side of the cut (z = -iω + 0⁺), divided by i; the inversion reads
    u(t) ∋ (1/π) ∫_0^∞ Im{1/B(ω)} e^{-iω ω_c t} dω.  Arguments are physical;
    ω and ω_0 are scaled by ω_c internally.  Hand-derived closed forms:

        s = 3  : (ω0τc - 2η_s) - (1+η_s)ω - η_s ω² - η_s ω³ e^{-ω}(-Ei(ω)+iπ)
        s = 1  : (ω0τc - η_s) - ω[1 + η_s e^{-ω}(-Ei(ω)+iπ)]
        s = 1/2: (ω0τc - √π η_s) - ω - iπη_s √ω (e^{-ω} + i(2/√π)F(√ω))

    with F Dawson's integral.  For other s, B = ω0τc - ω - η_s(PV + iπ ω^s e^{-ω})
    with the whole-array principal value of `pv_power_exp` (per-point quad
    within 0.02 of an integer); Im B = -π η_s ω^s e^{-ω} < 0 always.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float)) / spec.omega_c
    if np.any(w <= 0):
        raise ValueError("inversion_denominator requires omega > 0")
    w0 = omega0 / spec.omega_c
    es = spec.eta_s

    if spec.s == 3.0:
        ei = _sp.expi(w)
        out = (w0 - 2 * es) - (1 + es) * w - es * w**2 \
            - es * w**3 * np.exp(-w) * (-ei + 1j * np.pi)
    elif spec.s == 1.0:
        ei = _sp.expi(w)
        out = (w0 - es) - w * (1 + es * np.exp(-w) * (-ei + 1j * np.pi))
    elif spec.s == 0.5:
        rw = np.sqrt(w)
        out = (w0 - np.sqrt(np.pi) * es) - w \
            - 1j * np.pi * es * rw * (np.exp(-w) + 1j * (2 / np.sqrt(np.pi)) * _sp.dawsn(rw))
    elif allow_generic:
        out = _denominator_generic(spec, w0, w)
    else:
        raise ValueError(
            f"no hand-derived inversion denominator for s={spec.s} "
            "and the generic fallback is disabled"
        )
    return complex(out[0]) if np.ndim(omega) == 0 else out


def imaginary_axis_denominator(spec: BathSpec, omega0: float, y):
    """Denominator of û on the positive imaginary axis, z = i y ω_c, y > 0.

    There D(iy) = i B_loc(y) with the purely real

        B_loc(y) = ω0τc + y - η_s ∫_0^∞ x^s e^{-x}/(x+y) dx,

    so poles of û(z) are real zeros of B_loc.  Closed forms:

        s = 3  : integral = 2 - y + y² - y³ e^{y} E1(y)
        s = 1  : integral = 1 - y e^{y} E1(y)
        s = 1/2: integral = √π - π √y erfcx(√y)

    and for other s the integral is Γ(s+1) U(1, 1-s, y), whole-array: a
    continued fraction for y ≥ 1 and a power series below (`_stieltjes`,
    good to 1e-12 relative).

    B_loc is strictly increasing (slope ≥ 1), so at most one zero exists;
    it does iff ω0τc < η_s Γ(s).
    """
    yy = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(yy <= 0):
        raise ValueError("imaginary_axis_denominator requires y > 0")
    w0 = omega0 / spec.omega_c
    es = spec.eta_s

    if spec.s == 3.0:
        integral = 2.0 - yy + yy**2 - yy**3 * np.exp(yy) * _sp.exp1(yy)
    elif spec.s == 1.0:
        integral = 1.0 - yy * np.exp(yy) * _sp.exp1(yy)
    elif spec.s == 0.5:
        ry = np.sqrt(yy)
        integral = np.sqrt(np.pi) - np.pi * ry * _sp.erfcx(ry)
    else:
        integral = _stieltjes(spec.s, yy)[0]
    out = w0 + yy - es * integral
    return float(out[0]) if np.ndim(y) == 0 else out


def imaginary_axis_denominator_derivative(spec: BathSpec, y: float) -> float:
    """d B_loc/dy = 1 + η_s ∫_0^∞ x^s e^{-x}/(x+y)² dx, in closed form."""
    if y <= 0:
        raise ValueError("requires y > 0")
    return 1.0 + spec.eta_s * float(_stieltjes(spec.s, np.array([float(y)]))[1][0])
