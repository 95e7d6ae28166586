"""Independent reference implementations used to gate the package.

Everything here is deliberately built from defining series, continued
fractions, or quadrature of defining integrals — never from the code paths
under test.
"""

import warnings

import mpmath as mp
import numpy as np
from scipy import special as _sp
from scipy.integrate import IntegrationWarning, quad


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


def flip_damped_cluster_density(alpha0: complex, u: complex, c: float) -> np.ndarray:
    """Cluster-state density matrix whose branch coherences are damped by c.

    The 16 elements of the initial state |+α,+α⟩ + i|+α,-α⟩ + i|-α,+α⟩ +
    |-α,-α⟩ are evolved one by one: amplitudes α → α u, each ket/bra sign
    mismatch multiplies by c.  With c the coherence factor this is the bare
    channel; with c' it is the phase-flip-corrected one.
    """
    q = np.exp(-2.0 * abs(alpha0 * u) ** 2)
    a, b = np.sqrt(0.5 * (1.0 + q)), np.sqrt(0.5 * (1.0 - q))
    vec = {1: np.array([a, b]), -1: np.array([a, -b])}
    amps = {(1, 1): 1.0, (1, -1): 1j, (-1, 1): 1j, (-1, -1): 1.0}
    rho = np.zeros((4, 4), dtype=complex)
    for (s1, s2), ka in amps.items():
        for (r1, r2), ba in amps.items():
            damp = c ** ((s1 != r1) + (s2 != r2))
            rho += ka * np.conj(ba) * damp * np.outer(np.kron(vec[s1], vec[s2]),
                                                      np.kron(vec[r1], vec[r2]))
    return rho / (4.0 * (1.0 + np.exp(-4.0 * abs(alpha0) ** 2)))


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
        res = 1.0 / bath.imaginary_axis_denominator_derivative(spec, yp)
        poles.append((1j * yp * spec.omega_c, complex(res)))
    return poles


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


def step_history_direct(spec, omega0: float, h: float, n: int):
    """The time stepper with its O(n²) history sum: one dot product over the
    whole history per step.

    Same discrete scheme as `cohlab.propagator._step_history` (ABM4 PECE,
    Gregory end corrections, 64x refined 8-step start-up), so the two agree
    to rounding; the blocked FFT convolution there is what this checks.
    Returns (t, u) on t = 0, h, ..., n h.
    """
    from cohlab.bath import correlation

    t = np.arange(n + 1) * h
    g = correlation(spec, t)
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
        return t, u[:n + 1]

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
    return t, u


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
