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

The denominators need two dispersion integrals of x^s e^{-x}, both values
of one function Φ(w) = ∫_0^∞ x^s e^{-x}/(x-w) dx = Γ(s+1) U(1, 1-s, -w)
(DLMF §13.2): the Stieltjes transform I(y) = Φ(-y) on the imaginary axis
(`_stieltjes`) and the principal value Re Φ(w + i0) on the real axis
(`pv_power_exp`).  Both are whole-array closed forms without quadrature for
every s > 0, from one small-|w| expansion: Kummer's transformation split
into an entire sum (`_kummer_sum`) and a closed-form term that carries the
log and the near-integer cancellation (`_bracket_constants`).  On the real
axis the entire sum is read from a piecewise-polynomial table built once
per s (`_pv_table`); the bracket's constants are kept per s on their own
(`_bracket_constants`), read by both axes.  On the imaginary axis the entire
sum is summed at w = -y for y < 1, and Legendre's
continued fraction of U serves y ≥ 1.  The tests gate both
against mpmath and against the hand-derived s ∈ {1/2, 1, 3} forms kept in
`tests/oracles.py`.  Only numpy and `math` are imported.

Every frequency here, at the API as inside, is in units of ω_c and every
time in units of 1/ω_c, so that ω_c = 1 in the formulas above: u depends on
ω_c only through ω_0/ω_c and ω_c t, and physical units follow by rescaling.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BathSpec",
    "spectral_density",
    "correlation",
    "inversion_denominator",
    "imaginary_axis_denominator",
    "pv_power_exp",
]

_W_MAX = 700.0  # e^{-w}, the first Kummer term, underflows past it
_CF_FROM = 1.0     # y at and above which I(y) comes from its continued fraction
_CF_DEPTH = 120    # terms; converged to 2e-16 at y = 1 for s up to 15
# B_2k/(2k)!, k = 1..8, the Euler-Maclaurin corrections of `_zeta`
_EULER_MACLAURIN = np.array([1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                             -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000])
# the principal value's table: 8 panels of width 1/2 on [0, 4], then edges
# 4·1.12^k up to _W_MAX, 54 panels in all, each a degree-12 polynomial in
# the local x ∈ [-1, 1]
_PV_EDGES = np.concatenate((np.arange(0.0, 4.0, 0.5), 4.0 * 1.12 ** np.arange(46), [_W_MAX]))
_PV_MID = 0.5 * (_PV_EDGES[1:] + _PV_EDGES[:-1])
_PV_INV_HALF = 2.0 / np.diff(_PV_EDGES)
_PV_DEGREE = 12
# past this s the panels no longer resolve S_s where w nears s (3e-14 at
# s = 45.5, 8e-12 at s = 120.5): the Kummer sum is summed at each point
_PV_TABLE_S_MAX = 30.0


def _zeta(k: np.ndarray) -> np.ndarray:
    """ζ(k) for k ≥ 2: Euler-Maclaurin summation from N = 10 with the
    corrections B_2..B_16, the smallest terms added first.  Equal to
    mpmath's ζ(k), rounded, for k = 2..59."""
    k = np.asarray(k, dtype=float)
    rising = np.cumprod(k + np.arange(15.0)[:, None], axis=0)[::2]  # (k)_1, (k)_3, ..., (k)_15
    tail = 10.0 ** (1.0 - k) / (k - 1.0) + 0.5 * 10.0**-k \
        + _EULER_MACLAURIN @ (rising * 10.0 ** (-k - 1.0 - 2.0 * np.arange(8.0)[:, None]))
    return 1.0 + (tail + np.sum(np.arange(9.0, 1.0, -1.0)[:, None] ** -k, axis=0))


_ZETA_K = np.arange(2, 60)  # ζ(k) ε^k/k < 1e-19 past k = 59, for |ε| ≤ 1/2
_ZETA = _zeta(_ZETA_K)


@dataclass(frozen=True)
class BathSpec:
    """Spectral-density parameters (s, η_0), frequencies in units of ω_c.

    s : power of the low-frequency behaviour (sub-Ohmic s<1, Ohmic s=1,
        super-Ohmic s>1); any s > 0 up to 170.62, past which Γ(s+1)
        overflows, is supported.  With η_0 > 0, η_s must be a normal float:
        a ValueError names either limit.
    eta0 : dimensionless coupling strength (peak height is 2π η_0 ω_c).
    """

    s: float
    eta0: float

    def __post_init__(self):
        for name in ("s", "eta0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.s > 0:
            raise ValueError(f"power s must be > 0, got {self.s}")
        if self.eta0 < 0:
            raise ValueError(f"coupling eta0 must be >= 0, got {self.eta0}")
        try:
            math.gamma(self.s + 1.0)
        except OverflowError:
            raise ValueError(f"power s must be at most 170.62, where Gamma(s+1) overflows, got {self.s}") from None
        if self.eta0 > 0 and self.eta_s < sys.float_info.min:
            raise ValueError(f"eta_s = eta0 (e/s)^s = {self.eta_s:.3g} at s = {self.s}, eta0 = {self.eta0} is "
                             f"below the smallest normal float, {sys.float_info.min:.3g}")

    @property
    def eta_s(self) -> float:
        """Scaled coupling η_s = η_0 (e/s)^s; recomputed, never stored."""
        return self.eta0 * (np.e / self.s) ** self.s


def _power_exp(s: float, x: np.ndarray) -> np.ndarray:
    """x^s e^{-x} as x^{s/2} e^{-x} x^{s/2}: neither factor overflows before e^{-x}
    scales it (x^s alone does at s = 120.5, x = 600), and x = 0 gives 0 for s > 0."""
    half = x ** (0.5 * s)
    return half * np.exp(-x) * half


def spectral_density(spec: BathSpec, omega):
    """J(ω) = 2π η_s ω^s e^{-ω} for ω ≥ 0 in units of ω_c (vectorized)."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValueError("spectral_density requires omega >= 0")
    out = 2.0 * np.pi * spec.eta_s * _power_exp(spec.s, w)
    return float(out) if np.ndim(omega) == 0 else out


def correlation(spec: BathSpec, t):
    """Noise correlation g(t) = ∫_0^∞ dω/2π J(ω) e^{-iωt} in closed form.

    g(t) = η_s Γ(s+1) / (1 + i t)^{s+1}, t in units of 1/ω_c, principal branch,
    in real arithmetic as |1 + i t|^{-(s+1)} e^{-i(s+1) arctan t}: exact for the
    principal branch as Re(1 + i t) = 1 > 0, and within 3.1e-15 relative of
    mpmath for s ≤ 15 (numpy's complex power is up to 4.2e-14 off).  Valid for
    t ≥ 0 (and in fact all real t).
    """
    tt = np.asarray(t, dtype=float)
    g0 = spec.eta_s * math.gamma(spec.s + 1.0)
    out = g0 * np.hypot(1.0, tt) ** -(spec.s + 1.0) * np.exp(-1j * (spec.s + 1.0) * np.arctan(tt))
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


def _stieltjes(s: float, y: np.ndarray):
    """I(y) = ∫_0^∞ x^s e^{-x}/(x+y) dx = Φ(-y) and -I'(y) = ∫_0^∞ x^s
    e^{-x}/(x+y)² dx = Φ'(-y), for y > 0, whole-array.

    For y ≥ 1, I from the continued fraction of U and -I' by the recurrence
    -I' = (Γ(s+1) - (s+y) I)/y.  Below, the Kummer expansion at w = -y, with
    n = round(s), ε = s - n and a from `_bracket_constants`, kept per s:

        I(y) = e^y (-y)^n β(y) - Γ(s+1) S_s(-y),
        β(y) = a - π tan(πε/2) - π csc(πε) expm1(ε ln y)   (a - ln y at ε = 0),

    free of cancellation as s nears an integer, since csc x - cot x =
    tan(x/2).  -I' is the derivative in w of the same terms,

        -I'(y) = e^y (-y)^n [-y β'(y) - (y+n) β(y)]/y - Γ(s+1) S_s'(-y),

    and as dp_m/dw = p_{m-1} - p_m, S_s' sums the same p_m with the
    coefficients 1/(m+1-s) - 1/(m-s), taken as the product -1/((m+1-s)(m-s))
    but for the two single terms next to the left-out m = n.  Each branch
    runs only if some y needs it.  Against mpmath over y ∈ [1e-9, 800] and
    s ≤ 15, including s within 1e-9 of an integer, both are good to 1e-12
    relative; below y = 1, I is within 3.3e-15 and -I' within 3.2e-14 at
    29 values of s up to 60.5.
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
        eps = s - n
        inv, p = _kummer_terms(s, -yn)
        nxt = np.append(inv[1:], 1.0 / (inv.size - s))  # 1/(m+1-s), 0 at m = n-1
        coef = -inv * nxt
        near = slice(max(n - 1, 0), n + 1)
        coef[near] = nxt[near] - inv[near]  # one of the two is the left-out 0
        lny = np.log(yn)
        a = _bracket_constants(s)[0]
        if eps == 0.0:
            beta, slope = a - lny, 1.0
        else:
            beta = a - np.pi * math.tan(np.pi * eps / 2) \
                - np.pi / math.sin(np.pi * eps) * np.expm1(eps * lny)
            slope = np.pi * eps / math.sin(np.pi * eps) * np.exp(eps * lny)  # -y β'(y)
        scale = np.exp(yn) * (-yn) ** n
        i[~far] = scale * beta - g1 * (inv @ p)
        d[~far] = scale / yn * (slope - (yn + n) * beta) - g1 * (coef @ p)
    return i, d


def _kummer_terms(s: float, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1/(m - s), p_m) for m < |w| + 9√|w| + 25, with p_m = e^{-w} w^m/m!
    as an (M, w.size) array and the m = n = round(s) entry of the first 0."""
    top = np.abs(w).max()
    n = round(s)
    m = np.arange(max(int(top + 9.0 * math.sqrt(top)) + 25, n + 1), dtype=float)
    p = np.empty((m.size, w.size))
    p[0] = np.exp(-w)
    np.divide(w, m[1:, None], out=p[1:])
    np.cumprod(p, axis=0, out=p)
    den = m - s
    den[n] = np.inf  # the m = n term joins the cot term in the bracket
    return 1.0 / den, p


def _kummer_sum(s: float, w: np.ndarray) -> np.ndarray:
    """S_s(w) = Σ_{m≠n} p_m/(m - s), p_m = e^{-w} w^m/m!, n = round(s), summed
    directly over the `_kummer_terms`: the entire part of Kummer's
    transformation M(1, 1-s, -w) = e^{-w} M(-s, 1-s, w), in

        PV = Γ(s) M(1, 1-s, -w) - π w^s e^{-w} cot(πs)
           = -Γ(s+1) S_s(w) + e^{-w} w^n (a - b expm1(ε ln w)),

    with a and b the `_bracket_constants`.
    """
    inv, p = _kummer_terms(s, w)
    return inv @ p


@functools.lru_cache(maxsize=32)
def _bracket_constants(s: float) -> tuple[float, float]:
    """(a, b) in the m = n Kummer term and the cot term over e^{-w} w^n,
    a - b expm1(ε ln w), which has no cancellation.  With ε = s - n and
    δ = ln(Γ(s+1)/n!),

        a = expm1(δ)/ε + 2 Σ_k ζ(2k) ε^{2k-1},   b = π cot(πε),

    and at ε = 0 the limit a - ln w with a = H_n - γ (ψ(n+1)), b = 1.
    Computed once per s and kept, apart from the table: `_stieltjes` reads
    a alone, and the imaginary axis builds no `_pv_table`.
    """
    n = round(s)
    eps = s - n
    if eps == 0.0:
        return math.fsum(1.0 / j for j in range(1, n + 1)) - np.euler_gamma, 1.0
    delta = _ln_gamma_1p(eps) + math.fsum(math.log1p(eps / j) for j in range(1, n + 1))
    cot_series = 2.0 * float(np.sum(_ZETA[::2] * eps ** (_ZETA_K[::2] - 1)))
    return math.expm1(delta) / eps + cot_series, np.pi / math.tan(np.pi * eps)


@functools.lru_cache(maxsize=32)
def _pv_table(s: float) -> tuple[np.ndarray | None, float, float]:
    """The Kummer expansion's state for one s: the (13, 54) monomial
    coefficients, in the local x ∈ [-1, 1] of each panel of _PV_EDGES, of
    the degree-12 interpolant of `_kummer_sum` at the 13 Chebyshev-Lobatto
    points x = cos(πk/12), the panel's ends among them, so that neighbours
    meet to 3.4e-15 of S_s (None past _PV_TABLE_S_MAX), and the
    `_bracket_constants` (a, b).  Built on first use for each s and kept;
    only the principal value (`_pv`, on the real axis) reads it, all three
    entries, while `_stieltjes` takes a from `_bracket_constants` itself.
    It holds the same numbers whichever call builds it.
    """
    if s > _PV_TABLE_S_MAX:
        return (None, *_bracket_constants(s))
    x = np.cos(np.pi * np.arange(_PV_DEGREE + 1) / _PV_DEGREE)
    nodes = _PV_MID[:, None] + x / _PV_INV_HALF[:, None]
    # six panels a call: each sums only as many terms as its own top node needs
    vals = np.vstack([_kummer_sum(s, w.ravel()).reshape(w.shape) for w in np.split(nodes, 9)])
    coef = np.linalg.solve(x[:, None] ** np.arange(_PV_DEGREE + 1), vals.T)
    coef.flags.writeable = False  # shared by every later call at this s
    return (coef, *_bracket_constants(s))


def _pv(s: float, w: np.ndarray) -> np.ndarray:
    """`pv_power_exp` on an array w ∈ (0, _W_MAX]: S_s by Horner on each
    point's panel (the direct sum past _PV_TABLE_S_MAX), plus e^{-w} w^n
    times the bracket."""
    coef, a, b = _pv_table(s)
    if coef is None:
        sum_s = _kummer_sum(s, w.ravel()).reshape(w.shape)
    else:
        i = np.searchsorted(_PV_EDGES[1:-1], w)  # an edge belongs to the panel on its left
        x = (w - _PV_MID[i]) * _PV_INV_HALF[i]
        c = coef[:, i]
        sum_s = c[_PV_DEGREE] * x
        for k in range(_PV_DEGREE - 1, 0, -1):
            sum_s += c[k]
            sum_s *= x
        sum_s += c[0]
    n = round(s)
    lnw = np.log(w)
    bracket = a - b * (np.expm1((s - n) * lnw) if s != n else lnw)
    h = n // 2  # w^n in two halves: neither overflows before e^{-w} scales it
    return -math.gamma(s + 1.0) * sum_s + w**h * np.exp(-w) * w ** (n - h) * bracket


def _check_range(w: np.ndarray, name: str):
    if w.size and not (0.0 < w.min() and w.max() <= _W_MAX):
        raise ValueError(f"{name} requires 0 < w <= {_W_MAX:g} (w in units of omega_c)")


def pv_power_exp(s: float, w):
    """PV ∫_0^∞ x^s e^{-x} / (x - w) dx for 0 < w ≤ 700 (vectorized).

    One evaluator for every s > 0 (DLMF §13.2, Kummer's transformation):

        PV = Γ(s) M(1, 1-s, -w) - π w^s e^{-w} cot(πs)
           = -Γ(s+1) S_s(w) + e^{-w} w^n bracket(w),   n = round(s),

    with the entire part S_s read from its table (`_pv_table`, built from
    the direct sum `_kummer_sum` on first use at each s ≤ 30; past it the
    sum runs at each point) and the bracket
    a - b expm1(ε ln w), ε = s - n, finite as s nears an integer
    (`_bracket_constants`, kept with the table).  Against mpmath over
    w ∈ [1e-9, 700] at 22 values of s from 0.001 to 15, including s within
    1e-9 of an integer, the error relative to |PV + iπ w^s e^{-w}| is at
    most 4.4e-15 (854 points a value of s, every panel edge among them).
    It reads 4.2e-15 at s = 30, and 5.0e-15 from s = 30.5 to 120.5, where
    the sum runs at each point.
    Raises ValueError outside 0 < w ≤ 700, where e^{-w} would underflow.
    """
    ww = np.array(w, dtype=float, ndmin=1)
    _check_range(ww, "pv_power_exp")
    out = _pv(s, ww)
    return float(out[0]) if np.ndim(w) == 0 else out


def inversion_denominator(spec: BathSpec, omega0: float, omega):
    """Branch-cut denominator B(ω) of the Laplace inversion, ω > 0.

    B is the analytic continuation of the denominator of û(z) onto the
    right side of the cut (z = -iω + 0⁺), divided by i; the inversion reads
    u(t) ∋ (1/π) ∫_0^∞ Im{1/B(ω)} e^{-iωt} dω, with ω, ω_0 in units of ω_c
    and t in units of 1/ω_c.  For every s,

        B = ω0 - ω - η_s (PV + iπ ω^s e^{-ω}),

    with the principal value of `pv_power_exp` (so ω ≤ 700), and
    Im B = -π η_s ω^s e^{-ω} < 0 always.
    """
    w = np.array(omega, dtype=float, ndmin=1)
    _check_range(w, "inversion_denominator")
    es = spec.eta_s
    out = np.empty(w.shape, dtype=complex)
    out.real = omega0 - w - es * _pv(spec.s, w)
    out.imag = -np.pi * es * _power_exp(spec.s, w)
    return complex(out[0]) if np.ndim(omega) == 0 else out


def imaginary_axis_denominator(spec: BathSpec, omega0: float, y):
    """Denominator of û on the positive imaginary axis, z = i y, y > 0.

    There D(iy) = i B_loc(y) with the purely real

        B_loc(y) = ω0 + y - η_s ∫_0^∞ x^s e^{-x}/(x+y) dx,

    so poles of û(z) are real zeros of B_loc.  For every s the integral is
    Φ(-y) = Γ(s+1) U(1, 1-s, y), whole-array: a continued fraction for
    y ≥ 1 and below it the Kummer expansion of the principal value, taken
    at w = -y (`_stieltjes`, good to 1e-12 relative, and finite for any
    y > 0).

    B_loc is strictly increasing (slope ≥ 1), so at most one zero exists;
    it does iff ω0 < η_s Γ(s).
    """
    yy = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(yy <= 0):
        raise ValueError("imaginary_axis_denominator requires y > 0")
    out = omega0 + yy - spec.eta_s * _stieltjes(spec.s, yy)[0]
    return float(out[0]) if np.ndim(y) == 0 else out
