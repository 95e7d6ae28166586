"""Independent reference implementations used to gate the package.

Everything here is deliberately built from defining series, continued
fractions, or quadrature of defining integrals — never from the code paths
under test.  The exceptions are code that only the tests use: the
closed-form Lamb shift, the Markovian exponential and the slope of B_loc,
built on `cohlab.bath`'s closed forms; the one-level panel bisection,
`cohlab._fourier`'s decision rule with one density call per level; and the
last two sections, the single-qubit element map and the cat-state
densities, and the two-qubit channel state with its matrix oracles
(Wootters concurrence, magic-basis and direct-search f_max), built on
`cohlab.qubit`'s coherence factor.
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import special as _sp
from scipy.integrate import IntegrationWarning, quad, simpson

from cohlab.qubit import coherence_factor, phase_error_prob


def e1_series(z, dps: int = 60):
    """E1 from the defining series -γ - ln z + Σ (-1)^{k+1} z^k/(k·k!)."""
    with mp.workdps(dps):
        z = mp.mpmathify(z)
        total = -mp.euler - mp.log(z)
        term = mp.mpf(1)
        for k in range(1, 500):
            term *= -z / k
            add = -term / k
            total += add
            if abs(add) < mp.mpf(10) ** (-dps - 5) * max(abs(total), 1):
                break
        return total


def e1_continued_fraction(z, dps: int = 60, depth: int = 400):
    """E1 via the classical continued fraction e^{-z}/(z+1- 1²/(z+3- 2²/...))."""
    with mp.workdps(dps):
        z = mp.mpmathify(z)
        frac = mp.mpf(0)
        for k in range(depth, 0, -1):
            frac = k * k / (z + 2 * k + 1 - frac)
        return mp.e**(-z) / (z + 1 - frac)


def ei_series(x, dps: int = 60):
    """Ei from the defining series γ + ln x + Σ x^k/(k·k!)."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        total = mp.euler + mp.log(x)
        term = mp.mpf(1)
        for k in range(1, 1000):
            term *= x / k
            add = term / k
            total += add
            if add < mp.mpf(10) ** (-dps - 5) * abs(total):
                break
        return total


def dawson_quadrature(x, dps: int = 40):
    """F(x) = e^{-x²} ∫_0^x e^{t²} dt by adaptive quadrature of the integral."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        return mp.e**(-x * x) * mp.quad(lambda t: mp.e**(t * t), [0, x])


def _decades(a: float) -> list:
    """Break points a, 10a, 100a, ... below 1, then 1, 11 and ∞."""
    pts = [a * 10.0**k for k in range(int(np.ceil(np.log10(1.0 / a))))] if a < 1 else []
    top = max(1.0, a)
    return pts + [top, top + 10.0, mp.inf]


def stieltjes_mp(s: float, y: float, power: int = 1, dps: int = 17) -> float:
    """∫_0^∞ x^s e^{-x}/(x+y)^power dx by mpmath quadrature of the definition.

    At the default 17 digits the result, rounded to a double, agrees with
    25 digits to 2e-16 over y ∈ [1e-9, 50] and the s the tests use.
    """
    with mp.workdps(dps):
        s, y = mp.mpf(s), mp.mpf(y)
        return float(mp.quad(lambda x: x**s * mp.exp(-x) / (x + y) ** power,
                             [0] + _decades(float(y))))


def stieltjes_closed_mp(s: float, y, dps: int = 40):
    """(I, -I') = (∫_0^∞ x^s e^{-x}/(x+y) dx, ∫_0^∞ x^s e^{-x}/(x+y)² dx) as
    mpf at dps digits, from the closed form I = Γ(s+1) y^s e^y Γ(-s, y) in
    mpmath's incomplete gamma and the recurrence -I' = (Γ(s+1) - (s+y) I)/y,
    whose cancellation the working digits absorb.  y may be an mpf."""
    with mp.workdps(dps):
        s, y = mp.mpf(s), mp.mpf(y)
        i = mp.gamma(s + 1) * y**s * mp.exp(y) * mp.gammainc(-s, y)
        return +i, (mp.gamma(s + 1) - (s + y) * i) / y


def bound_state_mp(s: float, eta0: float, omega0: float, dps: int = 40):
    """(y_p, 1/B_loc'(y_p)) for the zero of B_loc(y) = ω0 + y - η_s I(y) at
    ω_c = 1, by mpmath's bracketing root finder on `stieltjes_closed_mp`, as
    floats.  The zero exists iff ω0 < η_s Γ(s), and it lies below
    y = √(η_s Γ(s+1)), past which I(y) < Γ(s+1)/y makes B_loc > 0."""
    with mp.workdps(dps):
        eta_s = mp.mpf(eta0) * (mp.e / mp.mpf(s)) ** mp.mpf(s)

        def b_loc(y):
            return omega0 + y - eta_s * stieltjes_closed_mp(s, y, dps)[0]

        y_p = mp.findroot(b_loc, (mp.mpf(10) ** -30, mp.sqrt(eta_s * mp.gamma(s + 1)) + 1),
                          solver="anderson")
        return float(y_p), float(1 / (1 + eta_s * stieltjes_closed_mp(s, y_p, dps)[1]))


def pv_power_exp_mp(s: float, w: float, dps: int = 17) -> tuple[float, float]:
    """(PV ∫_0^∞ x^s e^{-x}/(x-w) dx, π w^s e^{-w}) by mpmath quadrature.

    The principal value subtracts f(w) on [0, 2w], where the PV of
    f(w)/(x-w) vanishes; the second value is the matching imaginary part
    of the boundary value, the scale a relative error is taken against.
    """
    with mp.workdps(dps):
        s, w = mp.mpf(s), mp.mpf(w)
        fw = w**s * mp.exp(-w)
        near = mp.quad(lambda x: (x**s * mp.exp(-x) - fw) / (x - w), [0, w, 2 * w])
        far = mp.quad(lambda x: x**s * mp.exp(-x) / (x - w), [2 * w] + _decades(float(2 * w))[1:])
        return float(near + far), float(mp.pi * fw)


def pv_power_exp_closed_mp(s: float, w: float, dps: int = 80) -> tuple[float, float]:
    """(PV, π w^s e^{-w}) from the closed forms in mpmath's own functions,

        s = n   : Σ_{k<n} (n-1-k)! w^k - w^n e^{-w} Ei(w)
        other s : Γ(s) M(1, 1-s, -w) - π w^s e^{-w} cot(πs),

    at 80 digits, enough for the cancellation at w = 700, s = 15 and for s
    within 1e-9 of an integer.  Fast enough for dense grids, where the
    quadrature of `pv_power_exp_mp` is not; the tests check the two agree.
    """
    with mp.workdps(dps):
        s_, w_ = mp.mpf(s), mp.mpf(w)
        fw = w_**s_ * mp.exp(-w_)
        n = int(round(s))
        if s_ == n:
            pv = mp.fsum(mp.factorial(n - 1 - k) * w_**k for k in range(n)) - w_**n * mp.exp(-w_) * mp.ei(w_)
        else:
            pv = mp.gamma(s_) * mp.hyp1f1(1, 1 - s_, -w_) - mp.pi * mp.cot(mp.pi * s_) * fw
        return float(pv), float(mp.pi * fw)


def inversion_denominator_hand(spec, omega0: float, omega) -> np.ndarray:
    """Branch-cut denominator B(ω) from the hand-derived closed forms

        s = 3  : (ω0τc - 2η_s) - (1+η_s)ω - η_s ω² - η_s ω³ e^{-ω}(-Ei(ω)+iπ)
        s = 1  : (ω0τc - η_s) - ω[1 + η_s e^{-ω}(-Ei(ω)+iπ)]
        s = 1/2: (ω0τc - √π η_s) - ω - iπη_s √ω (e^{-ω} + i(2/√π)F(√ω))

    with F Dawson's integral: Ei and F from scipy, no principal value.
    """
    w = np.asarray(omega, dtype=float) / spec.omega_c
    w0 = omega0 / spec.omega_c
    es = spec.eta_s
    if spec.s == 3.0:
        ei = _sp.expi(w)
        return (w0 - 2 * es) - (1 + es) * w - es * w**2 \
            - es * w**3 * np.exp(-w) * (-ei + 1j * np.pi)
    if spec.s == 1.0:
        ei = _sp.expi(w)
        return (w0 - es) - w * (1 + es * np.exp(-w) * (-ei + 1j * np.pi))
    if spec.s == 0.5:
        rw = np.sqrt(w)
        return (w0 - np.sqrt(np.pi) * es) - w \
            - 1j * np.pi * es * rw * (np.exp(-w) + 1j * (2 / np.sqrt(np.pi)) * _sp.dawsn(rw))
    raise ValueError(f"no hand-derived form for s = {spec.s}")


def imaginary_axis_denominator_hand(spec, omega0: float, y) -> np.ndarray:
    """B_loc(y) = ω0τc + y - η_s ∫_0^∞ x^s e^{-x}/(x+y) dx with the integral

        s = 3  : 2 - y + y² - y³ e^{y} E1(y)
        s = 1  : 1 - y e^{y} E1(y)
        s = 1/2: √π - π √y erfcx(√y)

    from scipy's E1 and erfcx.  The s = 1 and 3 forms cancel as y grows
    (1.6e-10 at y = 200 for s = 3) and return NaN past y ≈ 709.
    """
    yy = np.asarray(y, dtype=float)
    if spec.s == 3.0:
        integral = 2.0 - yy + yy**2 - yy**3 * np.exp(yy) * _sp.exp1(yy)
    elif spec.s == 1.0:
        integral = 1.0 - yy * np.exp(yy) * _sp.exp1(yy)
    elif spec.s == 0.5:
        ry = np.sqrt(yy)
        integral = np.sqrt(np.pi) - np.pi * ry * _sp.erfcx(ry)
    else:
        raise ValueError(f"no hand-derived form for s = {spec.s}")
    return omega0 / spec.omega_c + yy - spec.eta_s * integral


def phase_success_mp(n: int, p: float, dps: int = 50) -> float:
    """Σ_{k ≤ (n-1)/2} C(n,k) (1-p)^{n-k} p^k, summed exactly in mpmath."""
    with mp.workdps(dps):
        p = mp.mpf(p)
        return float(mp.fsum(mp.binomial(n, k) * (1 - p) ** (n - k) * p**k
                             for k in range((n - 1) // 2 + 1)))


def find_poles_scan(spec, omega0: float, y_max: float = 50.0, n_scan: int = 4000):
    """Pole search by sign changes of B_loc on a 4000-point log + linear scan
    of (0, y_max], each polished by brentq: assumes nothing of B_loc's shape.
    """
    from scipy.optimize import brentq

    from cohlab import bath

    def b_loc(y):
        return bath.imaginary_axis_denominator(spec, omega0, y)

    ys = np.unique(np.concatenate([
        np.geomspace(1e-9, y_max, n_scan // 2),
        np.linspace(1e-9, y_max, n_scan // 2),
    ]))
    vals = b_loc(ys)
    poles = []
    for i in range(len(ys) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            yp = ys[i]
        elif (a < 0) != (b < 0):
            yp = brentq(b_loc, ys[i], ys[i + 1], xtol=1e-14, rtol=8.9e-16)
        else:
            continue
        res = 1.0 / imaginary_axis_denominator_derivative(spec, yp)
        poles.append((1j * yp * spec.omega_c, complex(res)))
    return poles


def resonance_seeds_brentq(spec, omega0: float, omega_max: float = 50.0) -> list:
    """ω_0 and the zeros of Re B in (0, omega_max): the sign changes of Re B
    on the 2 400-point log + linear scan, each polished by brentq on its own.
    """
    from scipy.optimize import brentq

    from cohlab import bath

    def re_b(w):
        return np.real(bath.inversion_denominator(spec, omega0, w * spec.omega_c))

    ws = np.unique(np.concatenate([
        np.geomspace(1e-8, omega_max, 1200),
        np.linspace(1e-6, omega_max, 1200),
    ]))
    re = re_b(ws)
    seeds = [omega0 / spec.omega_c]
    for i in np.flatnonzero(np.diff(re < 0)):
        seeds.append(brentq(lambda w: float(re_b(w)), ws[i], ws[i + 1], xtol=1e-15, rtol=8.9e-16))
    return [s for s in seeds if 0.0 < s < omega_max]


def cut_tail_quad(spec, omega0: float, omega_max: float = 50.0) -> float:
    """∫|Im{1/B(ω)}| dω over [omega_max, omega_max + 20] (units of ω_c) by
    adaptive quadrature to 1e-13 relative, one point per call."""
    from cohlab import bath

    def density(w):
        return abs(np.imag(1.0 / bath.inversion_denominator(spec, omega0, w * spec.omega_c)))

    tail, _ = quad(density, omega_max, omega_max + 20.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return tail


def correlation_quadrature(spec, t: float, omega_max: float = 200.0) -> complex:
    """g(t) = ∫_0^∞ dω/2π J(ω) e^{-iωt} by QAWF oscillatory quadrature."""
    from cohlab.bath import spectral_density

    def j(w):
        return spectral_density(spec, w)

    with warnings.catch_warnings():
        # pushed to near machine precision, roundoff reports are expected
        warnings.simplefilter("ignore", IntegrationWarning)
        if t < 0.25:
            # barely oscillatory over the e^{-ω} support; QAWF's infinite-range
            # cycle handling breaks down for long cycles, plain quad is exact here
            kw = dict(limit=800, epsabs=1e-14, epsrel=1e-12)
            re, _ = quad(lambda w: j(w) * np.cos(w * t), 0.0, np.inf, **kw)
            im, _ = quad(lambda w: j(w) * np.sin(w * t), 0.0, np.inf, **kw)
            return (re - 1j * im) / (2.0 * np.pi)
        kw = dict(limit=800, maxp1=800, epsabs=1e-14, epsrel=1e-12)
        re, _ = quad(j, 0.0, np.inf, weight="cos", wvar=t, **kw)
        im, _ = quad(j, 0.0, np.inf, weight="sin", wvar=t, **kw)
        return (re - 1j * im) / (2.0 * np.pi)


def ghat_laplace_quadrature(spec, omega: float, eps: float = 1e-7) -> complex:
    """ĝ(z) = ∫_0^∞ g(t) e^{-zt} dt at z = -iω + ε by time-domain quadrature.

    Independent of the frequency-domain dispersion forms: the only inputs
    are the closed-form g(t) and Fourier-weighted quadrature.
    """
    from cohlab.bath import correlation

    def gr(t):
        return correlation(spec, t).real * np.exp(-eps * t)

    def gi(t):
        return correlation(spec, t).imag * np.exp(-eps * t)

    kw = dict(limit=800, maxp1=800)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        rc, _ = quad(gr, 0.0, np.inf, weight="cos", wvar=omega, **kw)
        rs, _ = quad(gr, 0.0, np.inf, weight="sin", wvar=omega, **kw)
        ic, _ = quad(gi, 0.0, np.inf, weight="cos", wvar=omega, **kw)
        is_, _ = quad(gi, 0.0, np.inf, weight="sin", wvar=omega, **kw)
    # e^{-zt} = e^{-εt} e^{iωt} = e^{-εt}(cos ωt + i sin ωt)
    return (rc - is_) + 1j * (rs + ic)


def lamb_shift(spec, omega0: float) -> float:
    """ω_0' = ω_0 - (1/2π) PV ∫_0^∞ J(ω)/(ω-ω_0) dω = ω_0 - η_s ω_c PV(s, ω_0/ω_c),

    with PV the closed-form principal value of `bath.pv_power_exp`, the
    one B(ω) is built from.  The sign makes the diagnostic consistent with
    the exact solver: the coupling to the band above ω_0 pushes the
    resonance down, as the time-stepped phase confirms at weak coupling.
    Raises ValueError unless 0 < ω_0/ω_c ≤ 700.
    """
    from cohlab.bath import pv_power_exp

    return omega0 - spec.eta_s * spec.omega_c * pv_power_exp(spec.s, omega0 / spec.omega_c)


def markov_u(spec, omega0: float, t):
    """Weak-coupling exponential e^{-(i ω_0' + J(ω_0)/2) t} (diagnostic only).

    The phase rotates at the Lamb-shifted ω_0', but the rate is the bare
    golden-rule rate J(ω_0)/2.  When the shift is a sizeable fraction of ω_0
    (s=1, η_0=0.01 moves the resonance from 0.1 to 0.069, where J is ~30%
    smaller) this exponential leaves the exact |u| far behind.  Acceptance
    criterion 1 (tests/test_acceptance.py) uses the renormalized pole form
    Z e^{-Z J(ω_r) t/2} instead.
    """
    from cohlab.bath import spectral_density

    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise ValueError("markov_u requires t >= 0")
    w0p = lamb_shift(spec, omega0)
    rate = 0.5 * spectral_density(spec, omega0)
    out = np.exp(-(1j * w0p + rate) * tt)
    return complex(out) if np.ndim(t) == 0 else out


def imaginary_axis_denominator_derivative(spec, y: float) -> float:
    """d B_loc/dy = 1 + η_s ∫_0^∞ x^s e^{-x}/(x+y)² dx, in closed form from `bath._stieltjes`."""
    from cohlab.bath import _stieltjes

    if y <= 0:
        raise ValueError("requires y > 0")
    return 1.0 + spec.eta_s * float(_stieltjes(spec.s, np.array([float(y)]))[1][0])


def lamb_shift_excised(spec, omega0: float, rel_tol: float = 1e-6,
                       max_levels: int = 10) -> float:
    """ω_0' = ω_0 - (1/2π) PV ∫_0^∞ J(ω)/(ω-ω_0) dω by quadrature.

    The principal value is computed by symmetric excision with the radius
    extrapolated to zero (Richardson on the ε, ε³, ε⁵ expansion of the
    excision error), so nothing of the closed-form principal value enters.
    """
    from cohlab.bath import spectral_density

    if omega0 <= 0:
        raise ValueError("omega0 must lie inside the support of J (omega0 > 0)")
    if spec.eta0 == 0.0:
        return omega0

    def integrand(w):
        return spectral_density(spec, w) / (w - omega0)

    far = omega0 + max(5.0 * spec.omega_c, 3.0 * omega0)

    def excised(eps: float) -> float:
        left, _ = quad(integrand, 0.0, omega0 - eps, limit=400)
        mid, _ = quad(integrand, omega0 + eps, far, limit=400)
        right, _ = quad(integrand, far, np.inf, limit=400)
        return left + mid + right

    # excision error expands in odd powers: I(ε) = I_PV + a₁ε + a₃ε³ + ...
    eps0 = omega0 / 4.0
    table: list[list[float]] = []
    prev_best = None
    for k in range(max_levels):
        row = [excised(eps0 / 2**k)]
        for j in range(1, k + 1):
            fac = 2.0 ** (2 * j - 1)
            row.append((fac * row[j - 1] - table[k - 1][j - 1]) / (fac - 1.0))
        table.append(row)
        best = row[-1]
        if k >= 2 and abs(best - prev_best) <= rel_tol * max(abs(best), 1e-300):
            return omega0 - best / (2.0 * np.pi)
        prev_best = best
    raise RuntimeError(
        f"principal-value extrapolation did not reach rel_tol={rel_tol}")


def step_history_direct(spec, omega0: float, h: float, n: int):
    """The time stepper with its O(n²) history sum: one dot product over the
    whole history per step.

    Same discrete scheme as `cohlab.propagator._step_history` (ABM4 PECE,
    Gregory end corrections, 64x refined 8-step start-up), stepping one
    step at a time, so the two agree to rounding; this checks the start-up
    there (one power-series division), the blocked history sum and the
    fixed block map that takes each near block's steps at once.
    Returns u on t = 0, h, ..., n h.
    """
    from cohlab.bath import correlation

    g = correlation(spec, np.arange(n + 1) * h)
    g_rev = g[::-1]
    u = np.empty(n + 1, dtype=complex)
    f = np.empty(n + 1, dtype=complex)  # f_k = -i w0 u_k - I_k
    u[0] = 1.0
    f[0] = -1j * omega0

    n0 = min(8, n)
    refine = 64
    hf = h / refine
    nf = n0 * refine
    gf = correlation(spec, np.arange(nf + 1) * hf)
    uf = np.empty(nf + 1, dtype=complex)
    uf[0] = 1.0
    mem = 0.0 + 0.0j
    for k in range(nf):
        fk = -1j * omega0 * uf[k] - mem
        up = uf[k] + hf * fk
        s = np.dot(gf[1:k + 1], uf[k:0:-1]) if k > 0 else 0.0
        mem_p = hf * (0.5 * gf[k + 1] * uf[0] + s + 0.5 * gf[0] * up)
        uf[k + 1] = uf[k] + 0.5 * hf * (fk + (-1j * omega0 * up - mem_p))
        mem = mem_p + 0.5 * hf * gf[0] * (uf[k + 1] - up)
        if (k + 1) % refine == 0:
            m = (k + 1) // refine
            u[m] = uf[k + 1]
            wts = np.ones(k + 2)
            wts[0] = wts[-1] = 0.5
            f[m] = -1j * omega0 * u[m] - hf * np.dot(wts * gf[k + 1::-1], uf[:k + 2])
    if n <= 8:
        return u[:n + 1]

    g0 = g[0]

    def memory(m: int, u_end: complex) -> complex:
        # Gregory weights: 3/8, 7/6, 23/24, 1, ..., 1, 23/24, 7/6, 3/8
        s = np.dot(g_rev[n - m + 1:n], u[1:m]) + g[m] * u[0] + g0 * u_end
        corr = (-5.0 / 8.0) * (g[m] * u[0] + g0 * u_end) \
            + (1.0 / 6.0) * (g[m - 1] * u[1] + g[1] * u[m - 1]) \
            + (-1.0 / 24.0) * (g[m - 2] * u[2] + g[2] * u[m - 2])
        return h * (s + corr)

    c38 = 0.375 * h * g0
    for k in range(n0, n):
        up = u[k] + h / 24.0 * (55 * f[k] - 59 * f[k - 1] + 37 * f[k - 2] - 9 * f[k - 3])
        mem_p = memory(k + 1, up)
        fp = -1j * omega0 * up - mem_p
        u[k + 1] = u[k] + h / 24.0 * (9 * fp + 19 * f[k] - 5 * f[k - 1] + f[k - 2])
        f[k + 1] = -1j * omega0 * u[k + 1] - (mem_p + c38 * (u[k + 1] - up))
    return u


def kernel_modes_pi4(spec, h: float):
    """The stepper's exponential modes of g on the fixed ray x = y e^{-iπ/4}, without a horizon:
    the trapezoid rule in ln y at the step min(0.1, 0.55/(s+1)), nodes from (1e-17
    Γ(s+2))^{1/(s+1)} to (45 + 4s)√2, without those below 1e-18 Γ(s+1) at t = 65 h.

    The form `cohlab.propagator._kernel_modes` took for every h before it fitted the lag
    interval it is given; the mode count the balanced ray must not exceed.  Returns λ, c and
    the table e^{-λ_k j h}, j ≤ 64.
    """
    nb, s, wc = 64, spec.s, spec.omega_c
    dv = min(0.1, 0.55 / (s + 1.0))
    lo = math.log(1e-17 * math.gamma(s + 2.0)) / (s + 1.0)
    y = np.exp(lo + dv * np.arange(math.ceil((math.log((45.0 + 4.0 * s) * 2**0.5) - lo) / dv) + 1))
    wt = dv * y ** (s + 1.0)
    keep = wt * np.exp(-y * (1.0 + (nb + 1) * wc * h) / 2**0.5) > 1e-18 * math.gamma(s + 1.0)
    y, wt = y[keep], wt[keep]
    lam = wc * y * np.exp(0.25j * np.pi)
    c = spec.eta_s * wc**2 * wt * np.exp(1j * lam / wc - 0.25j * np.pi * (s + 1.0))
    powers = np.empty((nb + 1, len(y)), dtype=complex)
    powers[0], powers[1] = 1.0, np.exp(-h * lam)
    for m in 1 << np.arange(6):
        powers[m + 1:2 * m + 1] = powers[1:m + 1] * powers[m]
    return lam, c, powers


def step_history_blocked_fft(spec, omega0: float, h: float, n: int):
    """The time stepper with the dyadic blocked history sum of Hairer, Lubich
    & Schlichte (SIAM J. Sci. Stat. Comput. 6 (1985) 532), O(n log² n).

    Same start-up and step map as `cohlab.propagator._step_history`, but
    the blocks are aligned at multiples of 64: the first, steps 9 to 63,
    takes its map from `block_map_recurrence`, and the history below each
    block differs.  Once u is known below an aligned index r, with L the
    largest power of two dividing r, the square j ∈ [r-L, r), m ∈ [r, r+L)
    is added to the forcing by one Toeplitz
    matrix-vector product for L ≤ 128 and by one cyclic FFT convolution of
    length 2L against g_0..g_{2L-1} above.  So it reaches n = 10⁵, where the
    O(n²) direct sum is too slow for a test.  Returns u_0..u_n.
    """
    from cohlab.bath import correlation
    from cohlab.propagator import _block_map, _series_inverse

    nb = 64
    size = (n // nb + 1) * nb
    u = np.empty(size, dtype=complex)
    n0 = min(8, n)
    refine = 64
    hf = h / refine
    gf = correlation(spec, np.arange(n0 * refine + 1) * hf)
    w = -1j * omega0
    hh = 0.5 * hf * hf
    delta = 1.0 + hf * w * (1.0 + 0.5 * hf * w) - 0.5 * (hh * gf[0]) ** 2
    series = np.concatenate(([1.0], hh * ((1.0 + hf * w - hh * gf[0]) * gf[:-1] + gf[1:])))
    series[1] -= delta
    q = _series_inverse(series)
    uf = 0.5 * (q + np.r_[1.0, delta * q[:-1]])
    u[:n0 + 1] = uf[::refine]
    if n <= 8:
        return u[:n + 1]
    k = refine * np.arange(n0, n0 - 4, -1)
    f = w * uf[k] - hf * np.array([gf[j::-1] @ uf[:j + 1] - 0.5 * (gf[j] + gf[0] * uf[j]) for j in k])

    g = correlation(spec, np.arange(max(size, 4 * nb)) * h)
    step_map = _block_map(g, omega0, h)
    first_map = block_map_recurrence(g, omega0, h, nb - n0 - 1)[1]
    squares = {L: g[L + np.arange(L)[:, None] - np.arange(L)] for L in (nb, 2 * nb)}
    g_hat = {}
    d = np.zeros(size, dtype=complex)
    d[n0 + 1:] = (-0.625 * g[n0 + 1:size] * u[0] + g[n0:size - 1] * u[1] / 6.0
                  - g[n0 - 1:size - 2] * u[2] / 24.0)
    d[n0 + 1:nb] += np.convolve(g[:nb], u[:n0 + 1])[n0 + 1:nb]
    y = first_map @ np.concatenate((d[n0 + 1:nb], u[n0:n0 - 2:-1], f))
    u[n0 + 1:nb], state = y[:-6], y[-6:]
    for r in range(nb, size, nb):
        L = r & -r
        if L in squares:
            d[r:r + L] += squares[L][:size - r] @ u[r - L:r]
        else:
            if L not in g_hat:
                g_hat[L] = np.fft.fft(g[:2 * L], 2 * L)
            d[r:r + L] += np.fft.ifft(np.fft.fft(u[r - L:r], 2 * L) * g_hat[L])[L:L + size - r]
        y = step_map @ np.concatenate((d[r:r + nb], state))
        u[r:r + nb], state = y[:nb], y[nb:]
    return u[:n + 1]


def block_map_recurrence(g, omega0: float, h: float, n_first: int):
    """`cohlab.propagator._block_map` built by running the 64 ABM4 PECE
    steps with Gregory end corrections on the unit vectors, one step at a
    time.

    Columns are the forcing d_r..d_{r+63} and the state (u_{r-1}, u_{r-2},
    f_{r-1}, ..., f_{r-4}); rows are u_r..u_{r+63} and the same state at
    r + 64.  The second map is the first n_first steps alone, with columns
    d_r..d_{r+n_first-1} and the state: the short first block of
    `step_history_blocked_fft`.
    """
    nb = 64
    basis = np.eye(nb + 6, dtype=complex)
    uk, ukm1, fk, fk1, fk2, fk3 = basis[nb:]
    rows = np.empty((nb + 6, nb + 6), dtype=complex)
    g_lags = g[nb - 1:0:-1]  # g_{nb-1}, ..., g_1
    w = -1j * omega0
    a = h / 24.0
    c38 = 0.375 * h * g[0]
    for i in range(nb):
        # Gregory weights 3/8, 7/6, 23/24, 1, ..., 1, 23/24, 7/6, 3/8: the
        # j = 0, 1, 2 corrections are in d, the u_m end term is c38 * u_m
        base = h * (basis[i] + g_lags[nb - 1 - i:] @ rows[:i]
                    + g[1] * uk / 6.0 - g[2] * ukm1 / 24.0)
        up = uk + a * (55 * fk - 59 * fk1 + 37 * fk2 - 9 * fk3)
        fp = w * up - (base + c38 * up)
        un = uk + a * (9 * fp + 19 * fk - 5 * fk1 + fk2)
        rows[i] = un
        ukm1, uk = uk, un
        fk3, fk2, fk1, fk = fk2, fk1, fk, w * un - (base + c38 * un)
        if i + 1 == n_first:
            first = np.vstack((rows[:n_first], [uk, ukm1, fk, fk1, fk2, fk3]))
    rows[nb:] = uk, ukm1, fk, fk1, fk2, fk3
    return rows, first[:, np.r_[:n_first, nb:nb + 6]]


def volterra_residual(spec, omega0: float, solution) -> float:
    """Max |du/dt + iω_0 u + ∫ g u| over 50 grid times of a uniform-grid
    solution, re-evaluated independently of the solver (4th-order
    finite-difference derivative, Simpson memory quadrature)."""
    from cohlab.bath import correlation

    u = solution.u
    t = solution.grid.samples
    h = solution.grid.step
    n = len(u) - 1
    if n < 8:
        raise ValueError("grid too short for a residual check")
    g = correlation(spec, t)
    ks = np.unique(np.linspace(4, n - 2, 50).astype(int))
    worst = 0.0
    for k in ks:
        du = (-u[k + 2] + 8 * u[k + 1] - 8 * u[k - 1] + u[k - 2]) / (12 * h)
        mem = simpson(g[k::-1] * u[:k + 1], dx=h)
        worst = max(worst, abs(du + 1j * omega0 * u[k] + mem))
    return worst


def monomial_moments(theta: np.ndarray, p: int) -> np.ndarray:
    """m_j(θ) = ∫_{-1}^{1} ξ^j e^{-iθξ} dξ for j = 0..p by the complex
    recurrence m_j = (e^{-iθ} - (-1)^j e^{iθ} - j m_{j-1})/(-iθ) from
    m_0 = 2 sin θ/θ; stable for |θ| > p."""
    out = np.empty((p + 1, len(theta)), dtype=complex)
    eip = np.exp(1j * theta)
    eim = np.conj(eip)
    out[0] = 2.0 * np.sin(theta) / theta
    inv = 1.0 / (-1j * theta)
    for j in range(1, p + 1):
        out[j] = (eim - ((-1.0) ** j) * eip - j * out[j - 1]) * inv
    return out


def fourier_integral_panelwise(panels, times) -> np.ndarray:
    """`cohlab._fourier.fourier_integral` as a loop over panels in complex
    arithmetic: on each panel, the 24-point Gauss-Legendre sum with one
    complex exponential per node and time where |h t| ≤ 14, and the Filon
    rule on the complex moments of `monomial_moments` beyond."""
    from cohlab import _fourier as F

    t = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.zeros(len(t), dtype=complex)
    for i in range(len(panels)):
        m, h = panels.mids[i], panels.halfs[i]
        theta = h * t
        small = np.abs(theta) <= F._THETA_SWITCH
        phase = np.exp(-1j * m * t)
        if np.any(small):
            ker = np.exp(-1j * np.outer(theta[small], F._GL_X))
            out[small] += h * phase[small] * (ker @ (F._GL_W * panels.gl_vals[i]))
        if np.any(~small):
            mono = F._MONO_MAT @ panels.coeffs[i]
            mom = monomial_moments(theta[~small], F._DEGREE)
            out[~small] += h * phase[~small] * (mono @ mom)
    return out if np.ndim(times) else out[0]


def build_panels_one_level(f, a: float, b: float, seeds=()):
    """`cohlab._fourier.build_panels` with one call of f per bisection
    level: the pending panels are sampled, decided by the same tail rule,
    floor width and panel budget, and those split are sampled on the next
    call.  The reference for the bisection that decides several levels
    per call."""
    from cohlab import _fourier as F

    def sample(x):
        vals = np.asarray(f(x))
        if np.iscomplexobj(vals):
            raise TypeError(f"f must return real values, got {vals.dtype}")
        return vals

    min_width = (b - a) * 2.0**-50
    pts = np.sort([a, b, *(float(x) for x in seeds if a < x < b)])
    pts = pts[np.r_[True, pts[1:] != pts[:-1]]]
    lo, hi = pts[:-1], pts[1:]
    kept = []
    n_kept = 0
    worst_tail = 0.0
    while lo.size:
        m = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        vals = sample((m[:, None] + h[:, None] * F._CGL_NODES).ravel())
        c = vals.reshape(len(m), F._DEGREE + 1) @ F._COEF_MAT.T
        tail = np.max(np.abs(c[:, -3:]), axis=1)
        share = h * tail
        floor = (hi - lo) <= min_width
        done = (share <= F._PANEL_TOL) | floor
        if floor.any():
            worst_tail = max(worst_tail, float(share[floor].max()))
        kept.append((m[done], h[done], c[done]))
        n_kept += int(done.sum())
        split = ~done
        if n_kept + 2 * int(split.sum()) > F._MAX_PANELS:
            k = np.flatnonzero(split)[np.argmax(share[split])]
            raise F.FourierQuadratureError(
                f"panel budget {F._MAX_PANELS} exhausted on [{a}, {b}]; "
                f"unresolved Chebyshev tail {tail[k]:.3e} on a panel of half-width {h[k]:.3e}"
            )
        lo, hi = np.concatenate((lo[split], m[split])), np.concatenate((m[split], hi[split]))

    mids, halfs, coeffs = (np.concatenate(x) for x in zip(*kept))
    order = np.argsort(mids)
    mids, halfs, coeffs = mids[order], halfs[order], coeffs[order]
    gl_nodes = (mids[:, None] + halfs[:, None] * F._GL_X[None, :]).ravel()
    gl_vals = sample(gl_nodes).reshape(len(mids), F._GL_POINTS)
    return F.PanelSet(mids, halfs, coeffs, gl_vals, worst_tail)


def random_channel_states(rng: np.random.Generator, count: int):
    """Random (alpha0, u, n) parameter triples spanning the channel family."""
    out = []
    for _ in range(count):
        alpha0 = rng.uniform(0.3, 2.0)
        r = rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, 2 * np.pi)
        n = int(rng.integers(1, 10))
        out.append((alpha0, r * np.exp(1j * phi), n))
    return out


# The single-qubit element map and the cat-state densities built on it: the
# two sides of the operator-sum equivalence that `tests/test_qubit.py` checks.

def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """⟨α|β⟩ = exp(-(|α|² + |β|² - 2α*β)/2).

    The single transcendental identity everything else reduces to.
    """
    a, b = complex(alpha), complex(beta)
    return cmath.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2 - 2.0 * a.conjugate() * b))


def evenodd_coeffs(alpha_t):
    """(a, b) with |±α_t⟩ = a|e⟩ ± b|o⟩ in the orthonormal even/odd basis.

    a = sqrt((1 + e^{-2|α_t|²})/2), b = sqrt((1 - e^{-2|α_t|²})/2),
    elementwise over an array α_t; the α_t → 0 limit (b → 0, odd state
    losing its normalization) is taken by direct evaluation with no
    special-casing.
    """
    q = np.exp(-2.0 * np.abs(alpha_t) ** 2)
    return np.sqrt(0.5 * (1.0 + q)), np.sqrt(0.5 * (1.0 - q))


@dataclass(frozen=True)
class CoherentElement:
    """prefactor · |ket_amp⟩⟨bra_amp| between coherent states."""

    prefactor: complex
    ket_amp: complex
    bra_amp: complex


def evolve_element(elem: CoherentElement, u: complex) -> CoherentElement:
    """Exact dissipative map on a single element |α⟩⟨β|."""
    a, b = elem.ket_amp, elem.bra_amp
    damp = cmath.exp(-0.5 * (1.0 - abs(u) ** 2)
                     * (abs(a) ** 2 + abs(b) ** 2 - 2.0 * a * b.conjugate()))
    return CoherentElement(elem.prefactor * damp, a * u, b * u)


@dataclass(frozen=True)
class CatState:
    """(c1|α_0⟩ + c2|-α_0⟩)/√N with N = 1 + 2 e^{-2|α_0|²} Re(c1* c2)."""

    c1: complex
    c2: complex
    alpha0: complex

    def __post_init__(self):
        norm = abs(self.c1) ** 2 + abs(self.c2) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"|c1|^2 + |c2|^2 = {norm} != 1")

    @property
    def normalization(self) -> float:
        n = 1.0 + math.exp(-2.0 * abs(self.alpha0) ** 2) \
            * 2.0 * (self.c1.conjugate() * self.c2).real
        if n <= 0.0:
            raise ValueError("cat-state normalization is not positive")
        return n


def evolve_cat(state: CatState, u: complex) -> np.ndarray:
    """Evolved density matrix as coefficients in the damped {|α_t⟩, |-α_t⟩} basis.

    [[|c1|², c·c1 c2*], [c·c1* c2, |c2|²]] / N — the four-term expression
    with c the coherence factor.
    """
    c = coherence_factor(state.alpha0, u)
    n = state.normalization
    c1, c2 = state.c1, state.c2
    return np.array([
        [abs(c1) ** 2, c * c1 * c2.conjugate()],
        [c * c1.conjugate() * c2, abs(c2) ** 2],
    ], dtype=complex) / n


def _damped_basis_matrix(alpha_t: complex) -> np.ndarray:
    """Columns of |±α_t⟩ in even/odd coordinates."""
    a, b = evenodd_coeffs(alpha_t)
    return np.array([[a, a], [b, -b]])


def cat_evenodd_density(state: CatState, u: complex) -> np.ndarray:
    """Evolved cat state as a density matrix in the orthonormal even/odd basis."""
    coeff = evolve_cat(state, u)
    s = _damped_basis_matrix(state.alpha0 * u)
    return s @ coeff @ s.conj().T


def operator_sum_density(state: CatState, u: complex) -> np.ndarray:
    """(1-p_e)|Q_t⟩⟨Q_t| + p_e Ẑ|Q_t⟩⟨Q_t|Ẑ† in the even/odd basis.

    |Q_t⟩ keeps the t=0 normalization N (deliberately unnormalized) and
    Ẑ|±α_t⟩ = ±|±α_t⟩ is applied by flipping the sign of c2 — never
    materialized as a matrix in the nonorthogonal basis.
    """
    p_e = phase_error_prob(state.alpha0, u)
    s = _damped_basis_matrix(state.alpha0 * u)
    root_n = math.sqrt(state.normalization)
    q = s @ np.array([state.c1, state.c2]) / root_n
    qz = s @ np.array([state.c1, -state.c2]) / root_n
    return (1.0 - p_e) * np.outer(q, q.conj()) + p_e * np.outer(qz, qz.conj())


# The two-qubit channel state and the matrix-level oracles that gate the
# closed-form kernel `cohlab.channel.x_state_metrics`.

_TRACE_TOL = 1e-10
_HERM_TOL = 1e-12
_PSD_TOL = 1e-10


@dataclass
class TwoQubitState:
    """4×4 density matrix in the basis {|ee⟩, |eo⟩, |oe⟩, |oo⟩}."""

    rho: np.ndarray

    def validate(self) -> None:
        """AssertionError unless rho is 4×4, of trace 1 (to _TRACE_TOL),
        Hermitian (to _HERM_TOL) and positive semidefinite (to -_PSD_TOL)."""
        r = self.rho
        if r.shape != (4, 4):
            raise AssertionError("density matrix must be 4x4")
        if abs(np.trace(r) - 1.0) > _TRACE_TOL:
            raise AssertionError(f"trace deviates from 1 by {abs(np.trace(r)-1.0):.3e}")
        if np.max(np.abs(r - r.conj().T)) > _HERM_TOL:
            raise AssertionError("density matrix is not Hermitian")
        ev = np.linalg.eigvalsh(0.5 * (r + r.conj().T))
        if ev.min() < -_PSD_TOL:
            raise AssertionError(f"negative eigenvalue {ev.min():.3e}")


def element_map_density(alpha0: complex, u: complex, n: int = 1, c: float | None = None) -> TwoQubitState:
    """Evolved density matrix of the (n-fold encoded) cluster state: all 16
    elements go through the tensor-product element map and the result is
    expressed in the even/odd basis.

    The encoded initial state carries amplitudes (1, -z^n, -z^n, -z^{2n})
    with z = -i, each ket/bra sign mismatch of an n-mode block damps by
    c^n, and |±α_t⟩^{⊗n} = a_n|e_n⟩ ± b_n|o_n⟩.  c defaults to the
    coherence factor, the bare channel; the phase-flip code's c' gives the
    corrected one.  Odd n gives an X-form normalized by M_n = 4(1 +
    e^{-4n|α_0|²}); even n gives a dense matrix that is trace-1 with M_n = 4.
    """
    if c is None:
        c = coherence_factor(alpha0, u)
    z = -1j
    amps = {(1, 1): 1.0 + 0j, (1, -1): -(z**n), (-1, 1): -(z**n), (-1, -1): -(z ** (2 * n))}
    vec = dict(zip((1, -1), _damped_basis_matrix(math.sqrt(n) * alpha0 * u).T))
    m_n = 4.0 * (1.0 + (math.exp(-4.0 * n * abs(alpha0) ** 2) if n % 2 else 0.0))
    rho = np.zeros((4, 4), dtype=complex)
    for (s1, s2), ket_amp in amps.items():
        for (r1, r2), bra_amp in amps.items():
            damp = c ** (n * ((s1 != r1) + (s2 != r2)))
            rho += ket_amp * np.conj(bra_amp) * damp * np.outer(np.kron(vec[s1], vec[s2]),
                                                                np.kron(vec[r1], vec[r2]))
    return TwoQubitState(rho / m_n)


_YY = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=complex)  # (Y ⊗ Y) in the even/odd product basis


def wootters_concurrence(state: TwoQubitState) -> float:
    """max{0, √λ1 - √λ2 - √λ3 - √λ4} from the spin-flip spectrum
    (Wootters, PRL 80 (1998) 2245).

    λ_i are the (descending) eigenvalues of ρ (Y⊗Y) ρ* (Y⊗Y).  With
    ρ = W W† the √λ_i equal the singular values of the complex symmetric
    Wᵀ (Y⊗Y) W, which an SVD delivers without the √(tiny eigenvalue)
    precision loss of the plain non-Hermitian eigensolve near pure states.
    Roundoff negatives of ρ above -1e-12 are clamped; worse is an error.
    """
    rho = 0.5 * (state.rho + state.rho.conj().T)
    lam, vec = np.linalg.eigh(rho)
    if lam.min() < -1e-12:
        raise ArithmeticError(f"density matrix has eigenvalue {lam.min():.3e} < -1e-12")
    w = vec * np.sqrt(np.clip(lam, 0.0, None))
    sigma = np.linalg.svd(w.T @ _YY @ w, compute_uv=False)
    return max(0.0, sigma[0] - sigma[1] - sigma[2] - sigma[3])


_SQ2 = 1.0 / math.sqrt(2.0)
# magic basis {Φ+, iΦ-, iΨ+, Ψ-} as columns, in the even/odd product basis
_MAGIC = np.array([
    [_SQ2, 1j * _SQ2, 0, 0],
    [0, 0, 1j * _SQ2, _SQ2],
    [0, 0, 1j * _SQ2, -_SQ2],
    [_SQ2, -1j * _SQ2, 0, 0],
], dtype=complex)


def fef_oracle(state: TwoQubitState) -> float:
    """Fully entangled fraction as the largest eigenvalue of Re(ρ) in the
    magic basis (Bell states with phases i on Φ- and Ψ+; Horodecki et al.,
    PRA 60 (1999) 1888)."""
    m = _MAGIC.conj().T @ state.rho @ _MAGIC
    real = 0.5 * (m + m.conj().T).real
    return float(np.linalg.eigvalsh(real)[-1])


def _haar_unitaries(rng: np.random.Generator, size: int) -> np.ndarray:
    g = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _best_overlap(rho: np.ndarray, u1: np.ndarray, u2: np.ndarray):
    # (U1 ⊗ U2)|Φ+⟩ as the 2x2 amplitude matrix U1 U2^T / √2
    psi = np.einsum("bij,bkj->bik", u1, u2) * _SQ2
    flat = psi.reshape(len(psi), 4)
    vals = np.einsum("bi,ij,bj->b", flat.conj(), rho, flat).real
    k = int(np.argmax(vals))
    return float(vals[k]), k


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _rotate(base: np.ndarray, x: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(x))
    if theta == 0.0:
        return base
    n = x / theta
    h = n[0] * _PAULI[0] + n[1] * _PAULI[1] + n[2] * _PAULI[2]
    return base @ (np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * h)


_SEARCH_SAMPLES = 10000  # Haar draws per unitary before the local polish


def fef_direct_search(state: TwoQubitState, seed: int = 0) -> float:
    """Brute-force f_max: maximize ⟨ψ|ρ|ψ⟩ over maximally entangled states
    |ψ⟩ = (U1 ⊗ U2)|Φ+⟩ — Haar sampling followed by derivative-free local
    ascent on the (U1, U2) group chart.

    Phase-convention independent and never touches the magic basis, so it
    certifies fef_oracle rather than re-deriving it.  As a function of the
    state, the overlap has a unique local maximum over this manifold, so the
    polish converges globally from the sampled incumbent.
    """
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    rho = state.rho
    u1 = _haar_unitaries(rng, _SEARCH_SAMPLES)
    u2 = _haar_unitaries(rng, _SEARCH_SAMPLES)
    best, k = _best_overlap(rho, u1, u2)
    b1, b2 = u1[k], u2[k]

    def negative(x):
        psi = (_rotate(b1, x[:3]) @ _rotate(b2, x[3:]).T).ravel() * _SQ2
        return -float(np.real(psi.conj() @ rho @ psi))

    res = minimize(negative, np.zeros(6), method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 4000})
    return max(best, -float(res.fun))
