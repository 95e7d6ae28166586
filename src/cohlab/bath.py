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

The denominators need two dispersion integrals of x^s e^{-x}: the
Stieltjes transform on the imaginary axis (`_stieltjes`) and the principal
value on the real axis (`pv_power_exp`).  Both take one code path for
every s > 0, whole-array and without quadrature (DLMF §13.2: Kummer's
functions M and U).  The tests gate them against mpmath and against the
hand-derived s ∈ {1/2, 1, 3} forms kept in `tests/oracles.py`.

All frequencies are nondimensionalized by ω_c internally; τ_c = 1/ω_c only
appears at the API boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

__all__ = [
    "BathSpec",
    "spectral_density",
    "correlation",
    "inversion_denominator",
    "imaginary_axis_denominator",
    "imaginary_axis_denominator_derivative",
    "pv_power_exp",
]

# scipy's hyp1f1, which gives the principal value, is inaccurate near
# b = 1 - n: within _NEAR_INTEGER of an integer n ≥ 0 the Kummer sum of
# `_pv_kummer` takes over.  Outside it hyp1f1 is good to 1e-12 against
# mpmath for s ≤ 10 and w ≤ 70 (3e-14 at |s - 2| = 0.1, 3e-12 at 0.02).
_NEAR_INTEGER = 0.1
_W_MAX = 700.0  # e^{-w}, the first Kummer term, underflows past it
_CF_FROM = 1.0     # y at and above which I(y) comes from its continued fraction
_CF_DEPTH = 120    # terms; converged to 2e-16 at y = 1 for s up to 15
_SERIES_TERMS = 25  # y^m/m! < 1e-25 past it, for y < 1
_ZETA_K = np.arange(2, 60)  # ζ(k) ε^k/k < 1e-19 past k = 59, for |ε| ≤ 1/2
_ZETA = _sp.zeta(_ZETA_K)
_FACTORIALS = _sp.factorial(np.arange(_SERIES_TERMS))


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
    g0 = spec.eta_s * spec.omega_c**2 * math.gamma(spec.s + 1.0)
    out = g0 / (1.0 + 1j * spec.omega_c * tt) ** (spec.s + 1.0)
    return complex(out) if np.ndim(t) == 0 else out


def _ln_gamma_1p(eps: float) -> float:
    """ln Γ(1+ε) = -γε + Σ_{k≥2} ζ(k)(-ε)^k/k, for |ε| ≤ 1/2."""
    return -np.euler_gamma * eps + float(np.sum(_ZETA * (-eps) ** _ZETA_K / _ZETA_K))


def _u1_continued_fraction(s: float, y: np.ndarray) -> np.ndarray:
    """U(1, 1-s, y) = y^s e^y Γ(-s, y) by Legendre's continued fraction

        1/(y+1+s - 1(1+s)/(y+3+s - 2(2+s)/(y+5+s - ...))),

    summed backward for y ≥ _CF_FROM.  The depth 12 + 110/min(y), at most
    _CF_DEPTH, exceeds what 2e-16 takes for s ≤ 15 (about 100/y terms).
    """
    f = np.zeros_like(y)
    b = y + (1.0 + s)
    for k in range(min(_CF_DEPTH, 12 + int(110.0 / y.min())), 0, -1):
        f = k * (k + s) / ((b + 2 * k) - f)
    return 1.0 / (b - f)


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
    m = np.arange(_SERIES_TERMS)
    big_l = -_ln_gamma_1p(-eps) - np.concatenate(([0.0], np.cumsum(np.log1p(-eps / m[1:]))))
    e = np.expm1(big_l[:, None] - eps * np.log(y))
    t = y ** m[:, None] / _FACTORIALS[:, None] * e
    c = np.pi / np.sin(np.pi * eps) * y**eps
    return c * np.sum(t, axis=0), c / y * (np.sum(m[:, None] * t, axis=0) - eps * np.exp(y))


def _stieltjes(s: float, y: np.ndarray):
    """I(y) = ∫_0^∞ x^s e^{-x}/(x+y) dx = Γ(s+1) U(1, 1-s, y) and
    -I'(y) = ∫_0^∞ x^s e^{-x}/(x+y)² dx, for y > 0, whole-array.

    For y ≥ 1, I from the continued fraction of U and -I' by the recurrence
    -I' = (Γ(s+1) - (s+y) I)/y; below, the expansion of `_cut_part`.  Each
    runs only if some y needs it.  Against mpmath over y ∈ [1e-9, 800] and
    s ≤ 15, including s within 1e-9 of an integer, both are good to 1e-12
    relative.
    """
    i = np.empty(y.shape)
    d = np.empty(y.shape)
    g1 = math.gamma(s + 1.0)
    far = y >= _CF_FROM
    if far.any():
        yf = y[far]
        i[far] = g1 * _u1_continued_fraction(s, yf)
        d[far] = (g1 - (s + yf) * i[far]) / yf
    if not far.all():
        yn = y[~far]
        n = round(s)
        g, dg = _cut_part(s, yn)
        k = np.arange(n)[:, None]
        gk = _sp.gamma(s - k)
        i[~far] = np.sum(gk * (-yn) ** k, axis=0) + (-yn) ** n * g
        d[~far] = np.sum(k[1:] * gk[1:] * (-yn) ** (k[1:] - 1), axis=0) \
            + n * (-yn) ** (n - 1) * g - (-yn) ** n * dg
    return i, d


def _pv_kummer(s: float, w: np.ndarray) -> np.ndarray:
    """PV ∫_0^∞ x^s e^{-x}/(x - w) dx by Kummer's transformation of
    M(1, 1-s, -w) = e^{-w} M(-s, 1-s, w):

        PV = -Γ(s+1) Σ_m p_m/(m-s) - π w^s e^{-w} cot(πs),   p_m = e^{-w} w^m/m!,

    truncated at m < w + 9√w + 25.  With n = round(s) and ε = s - n, the
    m = n term and the cot term combine without cancellation into

        e^{-w} w^n [expm1(δ)/ε + 2 Σ_k ζ(2k) ε^{2k-1} - π cot(πε) expm1(ε ln w)],

    δ = ln(Γ(s+1)/n!), which is ψ(n+1) - ln w at ε = 0.
    """
    top = w.max()
    n = round(s)
    eps = s - n
    m = np.arange(max(int(top + 9.0 * math.sqrt(top)) + 25, n + 1), dtype=float)
    p = np.empty((m.size, w.size))
    p[0] = np.exp(-w)
    np.divide(w, m[1:, None], out=p[1:])
    np.cumprod(p, axis=0, out=p)
    den = m - s
    den[n] = np.inf  # the m = n term joins the cot term below
    lnw = np.log(w)
    if eps == 0.0:
        bracket = _sp.digamma(n + 1.0) - lnw
    else:
        delta = _ln_gamma_1p(eps) + math.fsum(math.log1p(eps / j) for j in range(1, n + 1))
        cot_series = 2.0 * float(np.sum(_ZETA[::2] * eps ** (_ZETA_K[::2] - 1)))
        bracket = math.expm1(delta) / eps + cot_series \
            - np.pi / math.tan(np.pi * eps) * np.expm1(eps * lnw)
    return -math.gamma(s + 1.0) * ((1.0 / den) @ p) + p[n] * math.factorial(n) * bracket


def _pv(s: float, w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """`pv_power_exp` on an array w ∈ (0, _W_MAX], given f = w^s e^{-w}."""
    n = round(s)
    if s == n:
        ei = f * _sp.expi(w)
        out = 0.0
        for j in range(n):  # Horner: the coefficient of w^k is (n-1-k)!
            out = out * w + math.factorial(j)
        out = out - ei
        # ei carries an error of about 1e-15 |ei|, measured against mpmath
        lossy = np.abs(ei) > 100.0 * np.hypot(out, np.pi * f)
        if lossy.any():
            out[lossy] = _pv_kummer(s, w[lossy])
        return out
    if abs(s - n) < _NEAR_INTEGER:
        return _pv_kummer(s, w.ravel()).reshape(w.shape)
    return math.gamma(s) * _sp.hyp1f1(1.0, 1.0 - s, -w) - np.pi / math.tan(np.pi * s) * f


def _check_range(w: np.ndarray, name: str):
    if w.size and not (0.0 < w.min() and w.max() <= _W_MAX):
        raise ValueError(f"{name} requires 0 < w <= {_W_MAX:g} (w in units of omega_c)")


def pv_power_exp(s: float, w):
    """PV ∫_0^∞ x^s e^{-x} / (x - w) dx for 0 < w ≤ 700 (vectorized).

        s = n   : Σ_{k<n} (n-1-k)! w^k - w^n e^{-w} Ei(w)
        other s : Γ(s) M(1, 1-s, -w) - π w^s e^{-w} cot(πs)

    (DLMF §6.2 and §13.2), with M Kummer's function from scipy's hyp1f1.
    Within _NEAR_INTEGER of an integer, and at integer s where the Ei form
    would cancel past 1e-13 (s ≥ 2 at large w), the Kummer sum of
    `_pv_kummer` takes over.  Against mpmath over w ∈ [1e-9, 70], the
    error relative to |PV + iπ w^s e^{-w}| is at most 2e-15 for the Kummer
    sum, 1e-13 for the Ei form and 1e-12 for hyp1f1 (s ≤ 10; 1e-10 at
    s = 15).  Raises ValueError outside 0 < w ≤ 700, where e^{-w} would
    underflow.
    """
    ww = np.array(w, dtype=float, ndmin=1)
    _check_range(ww, "pv_power_exp")
    out = _pv(s, ww, ww**s * np.exp(-ww))
    return float(out[0]) if np.ndim(w) == 0 else out


def inversion_denominator(spec: BathSpec, omega0: float, omega):
    """Branch-cut denominator B(ω) of the Laplace inversion, ω > 0.

    B is the analytic continuation of the denominator of û(z) onto the
    right side of the cut (z = -iω + 0⁺), divided by i; the inversion reads
    u(t) ∋ (1/π) ∫_0^∞ Im{1/B(ω)} e^{-iω ω_c t} dω.  Arguments are physical;
    ω and ω_0 are scaled by ω_c internally.  For every s,

        B = ω0τc - ω - η_s (PV + iπ ω^s e^{-ω}),

    with the principal value of `pv_power_exp` (so ω ≤ 700 ω_c), and
    Im B = -π η_s ω^s e^{-ω} < 0 always.
    """
    w = np.array(omega, dtype=float, ndmin=1) / spec.omega_c
    _check_range(w, "inversion_denominator")
    f = w**spec.s * np.exp(-w)
    es = spec.eta_s
    out = np.empty(w.shape, dtype=complex)
    out.real = omega0 / spec.omega_c - w - es * _pv(spec.s, w, f)
    out.imag = -np.pi * es * f
    return complex(out[0]) if np.ndim(omega) == 0 else out


def imaginary_axis_denominator(spec: BathSpec, omega0: float, y):
    """Denominator of û on the positive imaginary axis, z = i y ω_c, y > 0.

    There D(iy) = i B_loc(y) with the purely real

        B_loc(y) = ω0τc + y - η_s ∫_0^∞ x^s e^{-x}/(x+y) dx,

    so poles of û(z) are real zeros of B_loc.  For every s the integral is
    Γ(s+1) U(1, 1-s, y), whole-array: a continued fraction for y ≥ 1 and a
    power series below (`_stieltjes`, good to 1e-12 relative, and finite
    for any y > 0).

    B_loc is strictly increasing (slope ≥ 1), so at most one zero exists;
    it does iff ω0τc < η_s Γ(s).
    """
    yy = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(yy <= 0):
        raise ValueError("imaginary_axis_denominator requires y > 0")
    out = omega0 / spec.omega_c + yy - spec.eta_s * _stieltjes(spec.s, yy)[0]
    return float(out[0]) if np.ndim(y) == 0 else out


def imaginary_axis_denominator_derivative(spec: BathSpec, y: float) -> float:
    """d B_loc/dy = 1 + η_s ∫_0^∞ x^s e^{-x}/(x+y)² dx, in closed form."""
    if y <= 0:
        raise ValueError("requires y > 0")
    return 1.0 + spec.eta_s * float(_stieltjes(spec.s, np.array([float(y)]))[1][0])
