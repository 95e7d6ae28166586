"""Propagator u(t) of the damped mode, by two independent routes.

u solves the memory-kernel equation of motion

    du/dt + i ω_0 u + ∫_0^t g(t-τ) u(τ) dτ = 0,   u(0) = 1,

whose solution drives all qubit dynamics (amplitude damping α → α u and
the coherence factor).  Route one is direct time stepping; route two is
Laplace inversion, splitting the Bromwich integral into pole contributions
(zeros of the denominator on the positive imaginary axis, producing a
non-decaying term at strong coupling) plus a branch-cut integral

    u(t) = Σ_p  e^{z_p t} / D'(z_p)
         + (1/π) ∫_0^∞ Im{1/B(ω)} e^{-i ω t} dω,

frequencies in units of ω_c and times in units of 1/ω_c throughout.

The stepper answers at any output times inside its uniform grid from its
finest level; the Laplace route evaluates at the output times directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bath as _bath
from ._fourier import FourierQuadratureError, build_panels, fourier_integral
from .bath import BathSpec

__all__ = ["TimeGrid", "PropagatorSolution", "NonConvergenceError", "solve_volterra", "solve_laplace",
           "check_stepper_range", "find_poles"]


class NonConvergenceError(RuntimeError):
    """The step-halving gate exhausted its refinement budget."""


_HALVING_TOL = 1e-5       # step-halving gate on the change of |u| and the interpolation gap
_MAX_REFINEMENTS = 4      # halvings of the grid step the gate may take
_Y_MAX = 50.0             # top of the pole bracket on the imaginary axis
_OMEGA_MAX = 50.0         # top of the branch-cut integral, in units of ω_c
_TAIL_TOL = 1e-8          # bound on ∫|density| over [_OMEGA_MAX, _OMEGA_MAX + 20]

# the tail's rule: 12-point Gauss-Legendre on 4 panels of half-width 2.5 over
# [_OMEGA_MAX, _OMEGA_MAX + 20], within 1.2e-15 of adaptive quadrature at the reference pairs
_TAIL_X, _TAIL_W = np.polynomial.legendre.leggauss(12)
_TAIL_X = (_OMEGA_MAX + 2.5 * np.arange(1, 8, 2)[:, None] + 2.5 * _TAIL_X).ravel()
_TAIL_W = np.tile(2.5 * _TAIL_W, 4)

# `_resonance_seeds`' read-only scan, in units of ω_c: a log and a linear grid, sorted; they
# share only their last point, which the linear one leaves out
_SEED_SCAN = np.sort(np.r_[np.geomspace(1e-8, _OMEGA_MAX, 1200), np.linspace(1e-6, _OMEGA_MAX, 1200)[:-1]])
_SEED_SCAN.flags.writeable = False


@dataclass(frozen=True)
class TimeGrid:
    """Ordered sample times starting at t = 0, in units of 1/ω_c."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        if s.ndim != 1 or len(s) < 1:
            raise ValueError("TimeGrid needs a 1-d array of times")
        if s[0] != 0.0:
            raise ValueError("first sample must be t = 0")
        if len(s) > 1 and np.any(np.diff(s) <= 0):
            raise ValueError("samples must be strictly increasing")

    @property
    def t_max(self) -> float:
        return float(self.samples[-1])

    @property
    def step(self) -> float:
        """Uniform spacing; raises for non-uniform layouts."""
        if len(self.samples) < 2:
            raise ValueError("single-point grid has no step")
        h = self.t_max / (len(self.samples) - 1)
        # tolerate linspace rounding (~ULP of t_max) but not real non-uniformity
        if np.max(np.abs(np.diff(self.samples) - h)) > 1e-9 * h:
            raise ValueError("grid is not uniform")
        return float(h)

    @classmethod
    def uniform(cls, t_max: float, n_steps: int) -> "TimeGrid":
        if t_max <= 0 or n_steps < 1:
            raise ValueError("need t_max > 0 and n_steps >= 1")
        return cls(np.linspace(0.0, t_max, n_steps + 1))

    @classmethod
    def log(cls, t_max: float, n_points: int, t_min: float = 1e-2) -> "TimeGrid":
        """t = 0 followed by n_points-1 log-spaced times from t_min to t_max; n_points ≥ 3, as
        fewer would leave t_max out."""
        if not (0 < t_min < t_max) or n_points < 3:
            raise ValueError("need 0 < t_min < t_max and n_points >= 3")
        return cls(np.concatenate(([0.0], np.geomspace(t_min, t_max, n_points - 1))))


@dataclass
class PropagatorSolution:
    """u sampled on a grid, with pole records and the solver's evidence.

    poles holds (location, residue) pairs with the location on the
    imaginary z-axis.  diagnostics holds the evidence the solution rests
    on.  Time stepping records `refinements` (halvings of the grid step),
    `h_final` (the step of the level read), `halving_delta` (the last
    max ||u_fine| - |u_coarse|| seen by the halving gate), `interp_delta`
    (that level's `_at_times` gap), `modes` (K, the exponential modes of
    the far history at h_final, fitted on its lags from 65 steps to the
    stepper's horizon) and `fit_bound` (their largest error relative to
    |g(0)|, at lags of 65 to 128 steps and at 64 log-spaced lags up to that
    horizon).  Laplace inversion records `panels` (the panel count of the
    branch-cut quadrature), `worst_tail` (the largest share half-width ×
    Chebyshev tail of the error budget taken by a panel kept at the minimum
    width, 0 when every panel met the budget) and `sum_rule_delta`
    (|u(0) - 1|, which vanishes for an exact solution).
    """

    grid: TimeGrid
    u: np.ndarray
    poles: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# direct time stepping
# ---------------------------------------------------------------------------

_NEAR_BLOCK = 64  # steps per fixed block map; a power of two above the 8 start-up steps
# the block map's fixed index tables: entry (i, j) of a lower-triangular Toeplitz matrix is entry
# i - j + nb - 1 of its first column after nb - 1 zeros; the Gregory weights of the in-block
# sum; the steps nb-1..nb-4 whose f the map carries to the next block; and the Hankel slots
# e_s[i, 2 + j] = w_{i+j}, i + j < 4, of the state's f_{r-1-j}
_LAGS = _NEAR_BLOCK - 1 + np.arange(_NEAR_BLOCK)[:, None] - np.arange(_NEAR_BLOCK)
_GREGORY = np.concatenate(([0.0, 7 / 6, 23 / 24], np.ones(_NEAR_BLOCK - 3)))
_END = np.arange(_NEAR_BLOCK - 1, _NEAR_BLOCK - 5, -1)
_END_LAGS = _LAGS[_END]
_START_WEIGHTS = np.array([0.375, 7 / 6, 23 / 24, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])  # of ũ_0..ũ_8
_HANKEL_I, _HANKEL_J = np.nonzero(np.add.outer(np.arange(4), np.arange(4)) < 4)


def _series_inverse(t: np.ndarray) -> np.ndarray:
    """1/t(z) to len(t) terms, for a power series with t_0 = 1, by Newton doubling."""
    q = np.ones(1, dtype=complex)
    while len(q) < len(t):  # q <- q (2 - t q) with t q = 1 + z^p R: append -q R
        m = min(2 * len(q), len(t))
        r = np.convolve(t[1:m], q, "valid")  # (t q)_p .. (t q)_{m-1}, p = len(q)
        q = np.concatenate((q, -np.convolve(q, r)[:len(r)]))
    return q


def _lower_toeplitz(c: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """The entries `lags`, taken from `_LAGS`, of the nb x nb lower-triangular Toeplitz matrix
    with first column c."""
    return np.concatenate((np.zeros(_NEAR_BLOCK - 1, c.dtype), c))[lags]


def _block_map(g: np.ndarray, omega0: float, h: float) -> np.ndarray:
    """The `_NEAR_BLOCK` coarse steps from a block start r as one linear map.

    Columns are the forcing d_r..d_{r+nb-1} (the history below the block,
    Σ_{j<r} g_{m-j} ũ_j with ũ the Gregory-weighted u of `_step_history`)
    and the state (u_{r-1}, u_{r-2}, f_{r-1}, ..., f_{r-4}); rows are
    u_r..u_{r+nb-1} and the state at r + nb.  With f = A u - base, base_i
    being h d_i plus the in-block Gregory sum, the PECE steps are one unit
    lower-triangular Toeplitz system in u, solved by `_series_inverse`, so
    the forcing block of rows 0..nb-1 is lower-triangular Toeplitz, with
    first column ℓ = -h (q * v).  Every Toeplitz and Hankel block is taken
    from its first column by the fixed index tables `_LAGS`, `_END_LAGS`
    and `_HANKEL_I`, `_HANKEL_J`.
    """
    nb = _NEAR_BLOCK
    a = h / 24.0
    big_a = -1j * omega0 - 0.375 * h * g[0]
    # predictor substituted: u_i = (1 + 9 a A) u_{i-1} + Σ_p w_p f_{i-p} - 9 a base_i
    w = np.array([495 * a * big_a + 19, -531 * a * big_a - 5, 333 * a * big_a + 1, -81 * a * big_a]) * a
    v = np.concatenate(([9 * a], w))  # weights of base_i..base_{i-4}
    b = h * g[:nb] * _GREGORY  # base_i = h d_i + Σ_l b_l u_{i-l}
    # the system's first column, as a series: 1 - z - A (9 a z + Σ_p w_p z^p) + v b
    t = np.convolve(v, b)[:nb]
    t[0] += 1.0
    t[1] -= 1.0 + big_a * (9 * a + w[0])
    t[2:5] -= big_a * w[1:]
    q = _series_inverse(t)
    # state columns (rows 0-5): u_{r-1}, u_{r-2} also in base_0, base_1; f_{r-k} weighs w_{i+k}
    e_s = np.zeros((6, 6), dtype=complex)
    e_s[:, 0] = -h * np.convolve(v, [g[1] / 6.0, -g[2] / 24.0])
    e_s[0, 0] += 1.0 + 9 * a * big_a
    e_s[:5, 1] = v * h * g[2] / 24.0
    e_s[_HANKEL_I, _HANKEL_J + 2] = w[_HANKEL_I + _HANKEL_J]
    out = np.empty((nb + 6, nb + 6), dtype=complex)
    rows = out[:nb]
    rows[:, :nb] = -h * _lower_toeplitz(np.convolve(q, v)[:nb], _LAGS)
    rows[:, nb:] = _lower_toeplitz(q, _LAGS[:, :6]) @ e_s
    out[nb], out[nb + 1] = rows[-1], rows[-2]
    f = out[nb + 2:]  # f_j at the block's end
    f[:] = big_a * rows[_END] - _lower_toeplitz(b, _END_LAGS) @ rows
    f[np.arange(4), _END] -= h
    return out


_DV_SCALE = 0.55  # `_ray`'s step is at most 2 × _DV_SCALE/(s+1), on the widest strip d = π/2
# the stepper's largest s: its top weight y^{s+1}, at y less than one step dv past (45 + 4s)√2 with
# (s+1) dv ≤ 2 _DV_SCALE, stays finite while (s+1) ln((45 + 4s)√2) + 2 _DV_SCALE < ln(DBL_MAX),
# that is for s < 107.81782; rounded down
_S_STEPPER_MAX = 107.81


def _ray(spec: BathSpec, tau_lo: float, tau_hi: float):
    """The ray angle θ and trapezoid step dv of `_kernel_modes` for lags in [τ_lo, τ_hi].

    On the ray x = y e^{-iθ} the integrand of g(τ) decays as e^{-y √(1+τ²) cos(α - θ)},
    α = arctan τ: it stays analytic in ln y over a strip of half-width d = π/2 - (α_hi -
    α_lo)/2 when θ = (α_lo + α_hi)/2, and the trapezoid error e^{-2πd/dv} holds at dv ∝ d
    (Weideman & Trefethen, Math. Comp. 76 (2007) 1341).
    """
    a_lo, a_hi = math.atan(tau_lo), math.atan(tau_hi)
    d = 0.5 * math.pi - 0.5 * (a_hi - a_lo)
    # the step 0.1 alone is 5e-12 off at s = 9.5 on the π/4 ray of lags [0.08, ∞)
    return 0.5 * (a_lo + a_hi), min(0.1, _DV_SCALE / (spec.s + 1.0)) * (d / (0.25 * math.pi))


def _trapezoid_nodes(s: float, dv: float) -> np.ndarray:
    """The trapezoid nodes y_k = exp(lo + k dv) of `_kernel_modes`, up to one step past (45 +
    4s)√2, lo + k dv as np.arange drifts."""
    lo = math.log(1e-17 * math.gamma(s + 2.0)) / (s + 1.0)
    return np.exp(lo + dv * np.arange(math.ceil((math.log((45.0 + 4.0 * s) * 2**0.5) - lo) / dv) + 1))


def check_stepper_range(s: float) -> None:
    """Raise ValueError, naming the limit, if s is past `_S_STEPPER_MAX`, where a weight y^{s+1}
    of `_kernel_modes` may pass the largest float; up to it the stepper's nodes, weights and
    Γ(s+2) are finite."""
    if s > _S_STEPPER_MAX:
        raise ValueError(f"power s must be at most {_S_STEPPER_MAX} for the time stepper, where its "
                         f"kernel-mode weights y^(s+1) overflow at y up to (45 + 4s)*sqrt(2), got {s}")


@functools.lru_cache(32)
def _slow_rule(s: float, k: int, dv: float):
    """Nodes and weights of the 12-point Gauss rule of Σ dv y_j^{s+1} δ(y - y_j) over the
    nodes y_j < 2^{-k} of `_trapezoid_nodes`(s, dv): Lanczos with full reorthogonalisation on
    diag(y_j), then the eigenvalues of the Jacobi matrix (Golub & Welsch, Math. Comp. 23 (1969) 221)."""
    y = _trapezoid_nodes(s, dv)
    y = y[y < 2.0**-k]
    w = dv * y ** (s + 1.0)
    q = np.zeros((12, len(y)))
    q[0] = np.sqrt(w / w.sum())
    jacobi = np.zeros((12, 12))
    for j in range(12):
        r = y * q[j]
        jacobi[j, j] = r @ q[j]
        r -= (q[:j + 1] @ r) @ q[:j + 1]
        if j < 11:
            jacobi[j, j + 1] = jacobi[j + 1, j] = np.linalg.norm(r)
            q[j + 1] = r / jacobi[j + 1, j]
    x, v = np.linalg.eigh(jacobi)
    return x, w.sum() * v[0] ** 2


def _kernel_modes(spec: BathSpec, tau_lo: float, tau_hi: float):
    """λ and c of g(τ) ≈ Σ_k c_k e^{-λ_k τ} for lags τ in [τ_lo, τ_hi]: Γ(s+1)(1 + iτ)^{-(s+1)}
    = ∫_0^∞ x^s e^{-x(1+iτ)} dx on the ray x = y e^{-iθ} of `_ray`, balanced over those lags,
    by the trapezoid rule in ln y with step dv, y from (1e-17 Γ(s+2))^{1/(s+1)} to (45 + 4s)√2,
    so λ_k = y_k e^{i(π/2-θ)} and c_k = η_s w_k e^{-y_k e^{-iθ} - iθ(s+1)}, w_k = dv y_k^{s+1}.

    The nodes below y_c = 2^{-k} ≤ 4/(1 + τ_hi), if more than 12, become the 12-point
    Gauss rule of their weights (`_slow_rule`, cached per (s, k, dv)).  There c_k e^{-λ_k τ} ∝
    w_k exp(-y_k e^{-iθ}(1 + iτ)), entire in y with an exponent of at most y_c (1 + τ_hi) ≤ 4
    for τ ≤ τ_hi: 12 nodes match the trapezoid to 2^24/24! Σw ≈ 3e-17 Σw.  The nodes with
    |c_k e^{-λ_k τ_lo}| ∝ w_k e^{-y_k(cos θ + τ_lo sin θ)} below 1e-18 Γ(s+1) are dropped.
    """
    s = spec.s
    theta, dv = _ray(spec, tau_lo, tau_hi)
    y = _trapezoid_nodes(s, dv)
    wt = dv * y ** (s + 1.0)
    k = math.ceil(math.log2((1.0 + tau_hi) / 4.0))
    fast = y >= 2.0**-k
    if np.count_nonzero(~fast) > 12:
        ys, ws = _slow_rule(s, k, dv)
        y, wt = np.r_[ys, y[fast]], np.r_[ws, wt[fast]]
    rate = math.cos(theta) + tau_lo * math.sin(theta)
    keep = wt * np.exp(-y * rate) > 1e-18 * math.gamma(s + 1.0)
    y, wt = y[keep], wt[keep]
    lam = y * np.exp(1j * (0.5 * math.pi - theta))
    return lam, spec.eta_s * wt * np.exp(1j * lam - 1j * theta * (s + 1.0))


def _whole_blocks(n: int) -> int:
    """Steps `_step_history` computes for n: the start-up's min(8, n) + 1, then whole
    blocks of `_NEAR_BLOCK` from step 9; u past n is computed, not returned."""
    nb = _NEAR_BLOCK
    return min(8, n) + 1 + nb * -(-max(n - 8, 0) // nb)


def _step_history(spec: BathSpec, omega0: float, h: float, n: int):
    """March the equation of motion to t = n h.

    Fourth-order scheme: Adams-Bashforth-Moulton PECE for the local terms
    combined with Gregory (end-corrected trapezoid, O(h^4)) quadrature of
    the memory integral; the first eight coarse steps, a second-order
    predictor-corrector on a 64x refined grid, are one power-series division.

    From step 9 on, the steps go in blocks of nb = 64, each the map of
    `_block_map`.  The history sum C_m = Σ_{j<m} g_{m-j} ũ_j, where ũ_j =
    u_j but for the Gregory weights 3/8, 7/6, 23/24 of u_0..u_2, is split
    at the block starts r.  The previous block's lags, the exact square
    g_{nb+i-k}, are folded into the map.  Older blocks live in K sums S_k =
    Σ_{j<r-nb} e^{-λ_k (r-nb-j) h} ũ_j over the modes of `_kernel_modes`,
    fitted on the lags they serve, from (nb+1) h to the horizon T =
    `_whole_blocks`(n)·h but at least (2nb+1) h, so g is evaluated at
    lags below 2 nb only.  Their forcing V S, V_ik = c_k e^{-λ_k (nb+i) h},
    is folded into the map as well, and so is the mode update S ←
    e^{-λ_k nb h} S + W u_prev, the oblivious convolution quadrature of
    Lubich & Schädle (SIAM J. Sci. Comput. 24 (2002) 161): each block is
    one product of (u_prev, state, S) with a (70 + K)² matrix.  V is
    geometric in i and the map's forcing rows are lower-triangular
    Toeplitz, so the map times V is one cumulative sum over i, O(nb K), and
    the set-up's one dense product is the map times the square, O(nb³)
    whatever K.  The start-up is the
    first block's history: at r = 9, u_prev is 55 zeros and ũ_0..ũ_8, and
    S = 0.  Cost O(n (K + nb)²/nb); the far history is K numbers.
    Returns u_0..u_n and the modes (λ, c, powers), built for every n, with
    powers the table e^{-λ_k j h}, j ≤ nb, by doubling.
    """
    nb = _NEAR_BLOCK
    size = _whole_blocks(n)
    u = np.empty(size, dtype=complex)
    n0 = min(8, n)
    # the modes serve lags from (nb+1) h to the horizon, and up to (2nb+1) h at least: the fit
    # bound of `solve_volterra` reads lags nb+1..2nb
    lam, c = _kernel_modes(spec, (nb + 1) * h, max(size, 2 * nb + 1) * h)
    powers = np.empty((nb + 1, len(c)), dtype=complex)  # e^{-λ_k j h}, j ≤ nb
    powers[0], powers[1] = 1.0, np.exp(-h * lam)
    for m in 1 << np.arange(6):  # doubling: rows m+1..2m are rows 1..m times row m
        powers[m + 1:2 * m + 1] = powers[1:m + 1] * powers[m]

    # the fine steps (Heun, trapezoid memory, H = h/64) as power series in z are
    # (1 - e - δ z) u = 1 - e/2, δ = 1 + H w + (H w)²/2 - (H² g_0)²/8 and e_l =
    # -(H²/2) ((1 + H w - H² g_0 / 2) g_{l-1} + g_l): u = (1 + q + δ z q)/2, q = 1/(1 - e - δ z)
    refine = 64
    hf = h / refine
    gf = _bath.correlation(spec, np.arange(n0 * refine + 1) * hf)
    w = -1j * omega0
    hh = 0.5 * hf * hf
    delta = 1.0 + hf * w * (1.0 + 0.5 * hf * w) - 0.5 * (hh * gf[0]) ** 2
    series = np.concatenate(([1.0], hh * ((1.0 + hf * w - hh * gf[0]) * gf[:-1] + gf[1:])))
    series[1] -= delta
    q = _series_inverse(series)
    uf = 0.5 * (q + np.r_[1.0, delta * q[:-1]])
    u[:n0 + 1] = uf[::refine]
    if n <= 8:
        return u, (lam, c, powers)
    k = refine * np.arange(n0, n0 - 4, -1)  # f_m = w u_m - trapezoid memory, m = 8, 7, 6, 5
    f = w * uf[k] - hf * np.array([gf[j::-1] @ uf[:j + 1] - 0.5 * (gf[j] + gf[0] * uf[j]) for j in k])

    # the block map and the square g_{nb+i-k} take lags below 2 nb
    g = _bath.correlation(spec, np.arange(2 * nb) * h)
    step_map = _block_map(g, omega0, h)
    rho, big_w = powers[:nb], powers[nb:0:-1]  # ρ^i and W_m = ρ^{nb-m}, ρ = e^{-λh}
    # x = (u_{r-nb}..u_{r-1}, state, S) and x ← x a: a's first nb + 6 columns are the map's rows,
    # its last K the update S ← ρ^nb S + W u_prev.  The map's forcing d is square u_prev + V S with
    # V_ik = c_k ρ_k^{nb+i}, geometric in i, so through the map's lower-triangular Toeplitz forcing
    # rows, first column ℓ, (L V)_ik = c_k ρ_k^i Σ_{m≤i} ℓ_m W_mk: O(nb K), not a product
    size_a = nb + 6 + len(c)
    a = np.zeros((size_a, size_a), dtype=complex)
    at = a.T  # at[i] is the map's row i over the inputs
    at[:nb + 6, :nb] = step_map[:, :nb] @ g[1:][_LAGS]
    at[:nb + 6, nb:nb + 6] = step_map[:, nb:]
    rc = rho * c
    at[:nb, nb + 6:] = np.cumsum(step_map[:nb, :1] * big_w, axis=0) * rc
    at[nb:nb + 6, nb + 6:] = (step_map[nb:, :nb] @ rc) * powers[nb]
    a[:nb, nb + 6:] = big_w
    a.reshape(-1)[(nb + 6) * (size_a + 1)::size_a + 1] = powers[nb]  # the diagonal of the S block
    # the first block, at r = 9: u_prev = (0 × 55, ũ_0..ũ_8) and S = 0
    x = np.zeros(size_a, dtype=complex)
    x[nb - 9:nb] = u[:9] * _START_WEIGHTS
    x[nb:nb + 6] = u[8], u[7], *f
    x_next = np.empty_like(x)
    for r in range(9, size, nb):
        np.dot(x, a, out=x_next)
        x, x_next = x_next, x
        u[r:r + nb] = x[:nb]
    return u[:n + 1], (lam, c, powers)


def _lagrange(u: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """u at the fractional node indices x, none on a node, by the m-point Lagrange rule on the
    nodes round each x's interval, shifted inside u at the ends (barycentric, first form)."""
    m = min(m, len(u))
    start = np.clip(np.floor(x).astype(int) + 1 - m // 2, 0, len(u) - m)
    d = (x - start)[:, None] - np.arange(m)
    c = [math.prod(i - k for k in range(m) if k != i) for i in range(m)]
    return np.prod(d, axis=1) * np.sum(u[start[:, None] + np.arange(m)] / (d * c), axis=1)


def _at_times(u: np.ndarray, x: np.ndarray):
    """u at the fractional node indices x, and the gap max |6-point - 4-point `_lagrange`| over
    the x off the nodes (0 if none).  An x on a node, to 1e-12 relative (linspace's rounding)
    or absolute, reads the node; any other takes the 6-point rule."""
    j = np.rint(x)
    off = np.abs(x - j) > 1e-12 * np.maximum(j, 1.0)
    out = u[j.astype(int)]
    if not off.any():
        return out, 0.0
    out[off] = _lagrange(u, x[off], 6)
    return out, float(np.max(np.abs(out[off] - _lagrange(u, x[off], 4))))


def solve_volterra(spec: BathSpec, omega0: float, grid: TimeGrid, *,
                   times: TimeGrid | None = None) -> PropagatorSolution:
    """Solve the memory-kernel equation of motion by direct time stepping.

    The uniform grid is the stepping grid.  Its step is halved, at most
    _MAX_REFINEMENTS times, until one more halving changes |u| by less
    than _HALVING_TOL everywhere and the finer level's `_at_times` gap at
    `times` (default: the grid) is below it too (the self-validation
    gate).  u is returned on `times`, with the gate's and the modes'
    evidence in its diagnostics (see `PropagatorSolution`; empty when no
    stepping was needed).  K and the
    fit bound are those of the final step's modes at its horizon.

    Raises
    ------
    ValueError
        If s is past the stepper's limit (`check_stepper_range`) or `times` past the grid.
    NonConvergenceError
        If the refinement budget is exhausted before the gate passes.
    """
    check_stepper_range(spec.s)
    times = grid if times is None else times
    if times.t_max > grid.t_max:
        raise ValueError(f"output times reach t = {times.t_max:g}, past the stepping grid's {grid.t_max:g}")
    if len(grid.samples) == 1:
        return PropagatorSolution(times, np.array([1.0 + 0.0j]))
    h0 = grid.step
    if spec.eta0 == 0.0:
        u = np.exp(-1j * omega0 * times.samples)
        u[0] = 1.0
        return PropagatorSolution(times, u)

    n0 = len(grid.samples) - 1
    u_h, _ = _step_history(spec, omega0, h0, n0)
    for r in range(1, _MAX_REFINEMENTS + 1):
        n, h, nb = n0 * 2**r, h0 / 2**r, _NEAR_BLOCK
        u_fine, (lam, c, powers) = _step_history(spec, omega0, h, n)
        delta = float(np.max(np.abs(np.abs(u_fine[::2]) - np.abs(u_h))))
        u_out, interp = _at_times(u_fine, times.samples / h)
        if delta < _HALVING_TOL and interp < _HALVING_TOL:
            # the fit at lags nb+1..2nb and at 64 log-spaced lags up to the stepper's horizon
            t_log = np.geomspace((nb + 1) * h, _whole_blocks(n) * h, 64)
            g = _bath.correlation(spec, np.r_[np.arange(2 * nb + 1) * h, t_log])
            err = np.r_[powers[1:] @ (c * powers[nb]), np.exp(-np.outer(t_log, lam)) @ c] - g[nb + 1:]
            fit = np.max(np.abs(err)) / abs(g[0])
            diagnostics = {"refinements": r, "h_final": h, "halving_delta": delta,
                           "interp_delta": interp, "modes": len(c), "fit_bound": float(fit)}
            return PropagatorSolution(times, u_out, diagnostics=diagnostics)
        u_h = u_fine
    raise NonConvergenceError(
        f"step halving did not stabilize |u| to {_HALVING_TOL} within "
        f"{_MAX_REFINEMENTS} refinements (last change {delta:.3e}, interpolation gap {interp:.3e})"
    )


# ---------------------------------------------------------------------------
# Laplace inversion
# ---------------------------------------------------------------------------

def _polish_zeros(f, lo, hi, f_lo, f_hi):
    """One zero of f in each bracket [lo, hi] with f(lo) ≤ 0 ≤ f(hi), whole-array.

    f maps an array of points to the values and slopes there.  Safeguarded
    Newton from the secant point of each bracket: every evaluation narrows
    its bracket, and a step that would leave the bracket is replaced by
    bisection, or by no step when it is within tol = 1e-15 + 8.9e-16 |x|,
    so f is never evaluated outside a bracket.  Returns the points after
    the first pass in which every step is within tol.  Where rounding in f
    turns the steps into noise above tol, each evaluation still narrows a
    bracket, down to adjacent doubles.
    """
    x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
    while True:
        val, slope = f(x)
        lo = np.where(val < 0.0, x, lo)
        hi = np.where(val > 0.0, x, hi)
        new = x - val / slope
        tol = 1e-15 + 8.9e-16 * np.abs(new)
        new = np.where((lo < new) & (new < hi), new, np.where(np.abs(new - x) <= tol, x, 0.5 * (lo + hi)))
        done = np.all(np.abs(new - x) <= tol)
        x = new
        if done:
            return x


def _edge_denominator(spec: BathSpec, omega0: float) -> float:
    """b₀ = ω₀ - η_s Γ(s), B_loc(0⁺) and Re B(0⁺) (both integrals → Γ(s)); a bound state iff b₀ < 0."""
    return omega0 - spec.eta_s * math.gamma(spec.s)


def find_poles(spec: BathSpec, omega0: float) -> list[tuple[complex, complex]]:
    """Poles of û(z) on the imaginary axis, with residues 1/D'(z_p).

    On the positive imaginary axis (z = i y, y > 0: frequencies below
    the bath band) the denominator is i B_loc(y) with B_loc real and
    strictly increasing (slope ≥ 1), so there is at most one zero, and
    one iff b₀ = B_loc(0⁺) of `_edge_denominator` is negative (at b₀ = 0,
    y = 0 for s > 1).  It is bracketed by one sign test on [1e-9, _Y_MAX],
    or on [0, _Y_MAX] with B_loc(0) = b₀ when it lies below 1e-9, and
    polished by the safeguarded Newton of `_polish_zeros`, with B_loc and
    its slope 1 + η_s ∫ x^s e^{-x}/(x+y)² dx from one `bath._stieltjes`
    call per iterate; the residue is 1/slope at the returned zero.  A
    zero beyond _Y_MAX is not searched for and yields no pole.  On the
    negative imaginary axis — the branch cut — Im B = -π η_s ω^s e^{-ω} < 0
    strictly, so no further pole can hide there for η_0 > 0.
    """
    if spec.eta0 == 0.0:
        return [(-1j * omega0, 1.0 + 0.0j)]
    b0, es = _edge_denominator(spec, omega0), spec.eta_s
    if b0 > 0.0 or b0 == 0.0 and spec.s <= 1.0:
        return []
    if b0 == 0.0:  # the threshold itself: the zero is y = 0, where the slope is 1 + η_s Γ(s-1)
        return [(0j, complex(1.0 / (1.0 + es * math.gamma(spec.s - 1.0))))]

    def b_loc(y):
        i, d = _bath._stieltjes(spec.s, y)
        return omega0 + y - es * i, 1.0 + es * d

    y = np.array([1e-9, _Y_MAX])
    b = b_loc(y)[0]
    if b[1] < 0.0:
        return []
    if b[0] > 0.0:  # the zero lies below y = 1e-9
        y[0], b[0] = 0.0, b0
    yp = _polish_zeros(b_loc, y[:1], y[1:], b[:1], b[1:])
    slope = b_loc(yp)[1][0]
    return [(1j * float(yp[0]), complex(1.0 / slope))]


def _resonance_seeds(spec: BathSpec, omega0: float) -> list[float]:
    """Forced panel breakpoints: ω_0 and the zeros of Re B (narrow resonances).

    A breakpoint on a peak keeps it from slipping between the samples of a
    wide panel; `build_panels` keeps the breakpoints inside its window and
    refines the rest.  The sign changes of Re B over ω = 0, where it is b₀
    of `_edge_denominator`, and the 2 399 points of `_SEED_SCAN` are
    polished together by `_polish_zeros`, with the slope Re B' = -1 - η_s PV'
    from PV' = (s PV - Γ(s+1))/ω - PV, so one `bath.inversion_denominator`
    call per iterate gives both.  Raises FourierQuadratureError for a
    resonance narrower than 1e-14, which no panel resolves.
    """
    es, s = spec.eta_s, spec.s
    g1 = math.gamma(s + 1.0)
    ws, re = _SEED_SCAN, np.real(_bath.inversion_denominator(spec, omega0, _SEED_SCAN))
    if b0 := _edge_denominator(spec, omega0):  # Re B(0⁺) joins the scan; if 0, ω = 0 is the zero
        ws, re = np.r_[0.0, ws], np.r_[b0, re]
    i = np.flatnonzero(np.diff(re < 0))
    sign = np.where(re[i] < 0, 1.0, -1.0)  # Re B × sign rises through each zero

    def rising(w):
        b = np.real(_bath.inversion_denominator(spec, omega0, w))
        pv = (omega0 - w - b) / es
        return sign * b, sign * (-1.0 - es * ((s * pv - g1) / w - pv))

    wstar = ws[i]
    if i.size:  # no bracket, no call: the principal value needs at least one point
        wstar = _polish_zeros(rising, ws[i], ws[i + 1], sign * re[i], sign * re[i + 1])
    slope = np.abs(re[i + 1] - re[i]) / (ws[i + 1] - ws[i])
    width = np.pi * es * _bath._power_exp(s, wstar) / np.maximum(slope, 1e-3)
    for w, dw in zip(wstar, width):
        if dw < 1e-14:
            raise FourierQuadratureError(
                f"resonance at omega = {w:.6g} omega_c has width {dw:.2g}, "
                "narrower than the 1e-14 the panels can resolve")
    return [omega0, *wstar.tolist()]


def _cut_density(spec: BathSpec, omega0: float, w) -> np.ndarray:
    """The branch-cut spectral density Im{1/B(ω)} at ω = w, 0 for w ≤ 0."""
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape)
    pos = w > 0.0
    out[pos] = np.imag(1.0 / _bath.inversion_denominator(spec, omega0, w[pos]))
    return out  # Im B ∝ -ω^s e^{-ω} vanishes at the band edge ω = 0


def _cut_tail(spec: BathSpec, omega0: float) -> float:
    """∫|Im{1/B}| over [_OMEGA_MAX, _OMEGA_MAX + 20], the part the panels leave out,
    by the fixed composite Gauss-Legendre rule (_TAIL_X, _TAIL_W)."""
    return float(_TAIL_W @ np.abs(_cut_density(spec, omega0, _TAIL_X)))


def solve_laplace(spec: BathSpec, omega0: float, grid: TimeGrid) -> PropagatorSolution:
    """Evaluate u on the grid from the pole + branch-cut decomposition.

    The branch-cut spectral density Im{1/B(ω)}/π is integrated against
    e^{-iωτ} by adaptive panel quadrature that is uniformly accurate in τ,
    so arbitrarily late times cost the same as early ones; the panels
    start from `_resonance_seeds` and meet `build_panels`' error budget.
    Every step of the set-up is whole-array: the pole and the seeds are
    polished by safeguarded Newton, up to three bisection levels of the
    panels are one density call, and the neglected tail is one fixed
    Gauss-Legendre rule (`_cut_tail`).  At η_0 = 0, u is the free
    evolution e^{-iω_0 t} under the one pole `find_poles` returns.

    Raises
    ------
    FourierQuadratureError
        If η_0 > 0 and ω_0 ≥ _OMEGA_MAX (the resonance near ω_0 would lie
        past the panels, and u would come out wrong with no other error), a
        resonance is narrower than 1e-14 ω_c, the panel construction cannot
        resolve the density, or the neglected tail beyond _OMEGA_MAX
        exceeds _TAIL_TOL.
    """
    t = grid.samples
    poles = find_poles(spec, omega0)
    if spec.eta0 == 0.0:
        u = np.exp(-1j * omega0 * t)
        u[0] = 1.0
        return PropagatorSolution(grid, u, poles)
    if omega0 >= _OMEGA_MAX:
        raise FourierQuadratureError(
            f"omega0 = {omega0:g} omega_c is past the branch-cut window [0, {_OMEGA_MAX:g}] omega_c, "
            "which would leave out the resonance near omega0")

    tail = _cut_tail(spec, omega0)
    if tail > _TAIL_TOL:
        raise FourierQuadratureError(
            f"branch-cut tail beyond omega = {_OMEGA_MAX:g} omega_c is {tail:.3e} > {_TAIL_TOL}")

    panels = build_panels(lambda w: _cut_density(spec, omega0, w), 0.0, _OMEGA_MAX,
                          seeds=_resonance_seeds(spec, omega0))
    u = fourier_integral(panels, t) / np.pi
    for z_p, res in poles:
        u = u + res * np.exp(z_p * t)
    diagnostics = {"panels": len(panels), "worst_tail": panels.worst_tail,
                   "sum_rule_delta": float(abs(u[0] - 1.0))}
    return PropagatorSolution(grid, u, poles, diagnostics=diagnostics)
