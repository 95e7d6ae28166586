"""Half-range Fourier integrals ∫ f(ω) e^{-iωt} dω of a real f for many t at once.

The integrand f is real and smooth apart from isolated sharp features
(narrow resonances at weak coupling, a fractional-power edge at ω = 0 for
sub-Ohmic baths).  The domain is split into adaptive panels on which f is
represented by a degree-12 Chebyshev interpolant.  Panel i (midpoint m_i,
half-width h_i) contributes h_i e^{-i m_i t} ∫_{-1}^{1} f e^{-iθξ} dξ with
θ = h_i t.  All panels and times are evaluated as whole P × T arrays in
real arithmetic, the real and imaginary parts apart, and each (panel,
time) pair takes one of three regimes:

- |θ| ≤ 2: the 24-point Gauss-Legendre sum Σ_k w_k f_k e^{-iθx_k}, taken
  as its Taylor series Σ_{n ≤ 24} θⁿ M_n with the moments
  M_n = Σ_k w_k f_k x_kⁿ (-i)ⁿ/n!: two Horner loops in θ², one over the
  even and one over the odd powers, and no exponentials.  The truncation
  error is at most 2²⁵/25! ≈ 2e-18 times Σ_k w_k |f_k|, below 1e-16, so
  this equals the Gauss-Legendre sum up to rounding.
- 2 < |θ| ≤ 14: the Gauss-Legendre sum itself, its nodes folded onto the
  12 with x_k > 0 (x_{-k} = -x_k, equal weights): Σ_k w_k (f_k + f_{-k})
  cos θx_k - i Σ_k w_k (f_k - f_{-k}) sin θx_k, 24 real sines and cosines
  per pair.
- |θ| > 14: a Filon-type rule with exact monomial moments of e^{-iθξ}
  against the Chebyshev interpolant, the even moments real and the odd
  ones imaginary: two real recurrences (stable for |θ| > degree).

The phase e^{-i m_i t} is applied as its cosine and sine.  The quadrature
error is uniform in t and bounded by ∫|f - p| for the piecewise
interpolant p, that is by the error budget Σ_i h_i tail_i of the panels'
Chebyshev tails; each panel keeps its own share below 1e-10.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FourierQuadratureError", "PanelSet", "build_panels", "fourier_integral"]

_DEGREE = 12
_GL_POINTS = 24
_TAYLOR_SWITCH = 2.0      # |θ| up to which the Gauss-Legendre sum is a Taylor sum
_THETA_SWITCH = 14.0      # |θ| above which the Filon rule replaces Gauss-Legendre
_BLOCK = 1 << 17          # (panel, time) pairs per array pass, bounding memory
_PANEL_TOL = 1e-10        # panel accepted once half-width × Chebyshev tail ≤ this
_LEVELS_PER_CALL = 3      # bisection levels sampled by one call of the integrand, at most
_CALL_POINTS = 2048       # points past which a call samples no deeper level
_MAX_PANELS = 6000

# Chebyshev-Gauss-Lobatto nodes on [-1, 1], descending from +1
_CGL_NODES = np.cos(np.pi * np.arange(_DEGREE + 1) / _DEGREE)


def _dct_matrix(p: int) -> np.ndarray:
    """Matrix mapping f(CGL nodes) -> Chebyshev coefficients c_0..c_p."""
    j = np.arange(p + 1)
    mat = np.cos(np.pi * np.outer(j, j) / p) * (2.0 / p)
    mat[:, 0] *= 0.5
    mat[:, -1] *= 0.5
    mat[0, :] *= 0.5
    mat[-1, :] *= 0.5
    return mat


def _cheb_to_monomial(p: int) -> np.ndarray:
    """M[j, k] = coefficient of ξ^j in T_k(ξ), for k = 0..p."""
    mat = np.zeros((p + 1, p + 1))
    mat[0, 0] = 1.0
    if p >= 1:
        mat[1, 1] = 1.0
    for k in range(1, p):
        mat[1:, k + 1] = 2.0 * mat[:-1, k]
        mat[:, k + 1] -= mat[:, k - 1]
    return mat


_COEF_MAT = _dct_matrix(_DEGREE)
_MONO_MAT = _cheb_to_monomial(_DEGREE)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_POINTS)
_GL_HALF = _GL_POINTS // 2  # _GL_X[_GL_HALF + k] = -_GL_X[_GL_HALF - 1 - k], with equal weights


def _taylor_matrices(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Maps f(GL nodes) to the Taylor moments of the Gauss-Legendre sum.

    Σ_k w_k f_k e^{-iθx_k} = C(θ²) - iθ S(θ²) with C(u) = Σ_m c_m u^m and
    S(u) = Σ_m s_m u^m; c = f @ COS and s = f @ SIN, where
    COS[k, m] = w_k (-1)^m x_k^{2m}/(2m)! and SIN[k, m] = w_k (-1)^m x_k^{2m+1}/(2m+1)!,
    for powers of θ up to n_max.  Both are real, so a real f keeps real
    arithmetic.
    """
    n = np.arange(n_max + 1)
    factorial = np.concatenate(([1.0], np.cumprod(n[1:], dtype=float)))
    terms = _GL_W[:, None] * _GL_X[:, None] ** n * np.where(n % 4 < 2, 1.0, -1.0) / factorial
    return terms[:, 0::2], terms[:, 1::2]


_COS_MAT, _SIN_MAT = _taylor_matrices(_GL_POINTS)


class FourierQuadratureError(RuntimeError):
    """Raised when the adaptive panel construction fails to converge."""


class PanelSet:
    """Adaptive panel decomposition of [a, b] with per-panel data of a real f:
    its Chebyshev coefficients, and its values at the 24 Gauss-Legendre
    nodes, which `fourier_integral` folds in mirror pairs."""

    def __init__(self, mids, halfs, coeffs, gl_vals, worst_tail):
        self.mids = mids            # (n_panels,)
        self.halfs = halfs          # (n_panels,)
        self.coeffs = coeffs        # (n_panels, degree+1) Chebyshev coefficients
        self.gl_vals = gl_vals      # (n_panels, GL points) real f at GL nodes, ascending
        self.worst_tail = worst_tail

    def __len__(self):
        return len(self.mids)


def build_panels(f, a: float, b: float, *, seeds=()) -> PanelSet:
    """Split [a, b] into panels on which f is Chebyshev-resolved.

    f must accept an ndarray of points and return an ndarray of real
    values; complex ones raise TypeError, since `fourier_integral` would
    drop their imaginary part.  A panel of half-width h is accepted once
    h × tail, its share of ∫|f - p|, is at most _PANEL_TOL (tail: the
    largest of its last three Chebyshev coefficients); the rule is
    absolute, carrying no scale from one panel to the next.  `seeds` are forced breakpoints.
    The bisection runs breadth-first, up to _LEVELS_PER_CALL levels per
    call of f: one call samples the pending panels, their halves and their
    quarters, the deeper levels only while the call stays within
    _CALL_POINTS points: there the call's fixed cost (about that of 500
    more points of the Laplace route's density) outweighs the points
    sampled in vain.  The levels are decided in turn, from the same call:
    the pending one, then the halves of the panels it splits, then the
    quarters of the halves those split; each level's coefficients are one
    matrix product.  The decisions are those of one call per level, so an
    f whose value at a point does not depend on the other points of the
    call gets the same panels, bit for bit, from fewer calls.
    Panels are not split below (b - a) 2⁻⁵⁰; the largest share h × tail
    of such a panel goes into `worst_tail` (0 when every panel met
    _PANEL_TOL).  Raises FourierQuadratureError once the kept and pending
    panels together exceed _MAX_PANELS.
    """
    def sample(x):
        vals = np.asarray(f(x))
        if np.iscomplexobj(vals):
            raise TypeError(f"f must return real values, got {vals.dtype}")
        return vals

    def decide(lo, hi, vals):
        """Keep the resolved panels of one level; returns the mask of those to split."""
        nonlocal n_kept, worst_tail
        m = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        c = vals @ _COEF_MAT.T
        tail = np.max(np.abs(c[:, -3:]), axis=1)
        share = h * tail
        floor = (hi - lo) <= min_width
        done = (share <= _PANEL_TOL) | floor
        if floor.any():
            worst_tail = max(worst_tail, float(share[floor].max()))
        kept.append((m[done], h[done], c[done]))
        n_kept += int(done.sum())
        split = ~done
        if n_kept + 2 * int(split.sum()) > _MAX_PANELS:
            k = np.flatnonzero(split)[np.argmax(share[split])]
            raise FourierQuadratureError(
                f"panel budget {_MAX_PANELS} exhausted on [{a}, {b}]; "
                f"unresolved Chebyshev tail {tail[k]:.3e} on a panel of half-width {h[k]:.3e}"
            )
        return split

    min_width = (b - a) * 2.0**-50
    pts = np.sort([a, b, *(float(x) for x in seeds if a < x < b)])
    pts = pts[np.r_[True, pts[1:] != pts[:-1]]]  # np.unique's points, without loading numpy.ma
    lo, hi = pts[:-1], pts[1:]
    kept = []
    n_kept = 0
    worst_tail = 0.0
    while lo.size:
        # the pending panels, their halves and their quarters while the call
        # stays small; each level lists its panels as the next one lists the
        # halves of the panels it splits
        levels = 1
        while levels < _LEVELS_PER_CALL and \
                (2 ** (levels + 1) - 1) * lo.size * (_DEGREE + 1) <= _CALL_POINTS:
            levels += 1
        los, his = [lo], [hi]
        for _ in range(levels - 1):
            m = 0.5 * (los[-1] + his[-1])
            los.append(np.concatenate((los[-1], m)))
            his.append(np.concatenate((m, his[-1])))
        all_lo, all_hi = np.concatenate(los), np.concatenate(his)
        mid, half = 0.5 * (all_lo + all_hi), 0.5 * (all_hi - all_lo)
        vals = sample((mid[:, None] + half[:, None] * _CGL_NODES).ravel()).reshape(-1, _DEGREE + 1)
        start, pick = 0, np.ones(lo.size, dtype=bool)
        for level_lo, level_hi in zip(los, his):
            lo, hi = level_lo[pick], level_hi[pick]
            split = decide(lo, hi, vals[start:start + level_lo.size][pick])
            start += level_lo.size
            chosen = np.zeros(level_lo.size, dtype=bool)
            chosen[pick] = split
            pick = np.tile(chosen, 2)  # their halves, on the next level
        m = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo[split], m[split])), np.concatenate((m[split], hi[split]))

    mids, halfs, coeffs = (np.concatenate(x) for x in zip(*kept))
    order = np.argsort(mids)
    mids, halfs, coeffs = mids[order], halfs[order], coeffs[order]
    # batch-evaluate f at all GL nodes for the low-|θ| path
    gl_nodes = (mids[:, None] + halfs[:, None] * _GL_X[None, :]).ravel()
    gl_vals = sample(gl_nodes).reshape(len(mids), _GL_POINTS)
    return PanelSet(mids, halfs, coeffs, gl_vals, worst_tail)


def _horner(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Σ_m coeffs[:, m] u^m over the P × T array u."""
    acc = coeffs[:, -1, None] * u
    for m in range(coeffs.shape[1] - 2, 0, -1):
        acc += coeffs[:, m, None]
        acc *= u
    acc += coeffs[:, 0, None]
    return acc


def _taylor_sum(gl_vals: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of the Gauss-Legendre sums Σ_k w_k f_ik e^{-iθ_ij x_k} from their Taylor series.

    θ is clipped to ±_TAYLOR_SWITCH, where the series is exact to rounding;
    pairs beyond it are overwritten by the caller, and the clip keeps their
    powers finite.
    """
    th = np.clip(theta, -_TAYLOR_SWITCH, _TAYLOR_SWITCH)
    u = th * th
    sine = _horner(gl_vals @ _SIN_MAT, u)
    sine *= -th
    return _horner(gl_vals @ _COS_MAT, u), sine


def _filon_sums(mono: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of Σ_j mono_pj m_j(θ_p), m_j(θ) = ∫_{-1}^{1} ξ^j e^{-iθξ} dξ, for real mono.

    m_j is r_j = ∫ ξ^j cos θξ dξ for even j and -i s_j, s_j = ∫ ξ^j sin θξ dξ,
    for odd j: two real recurrences r_j = (2 sin θ - j s_{j-1})/θ and s_j =
    (j r_{j-1} - 2 cos θ)/θ from r_0 = 2 sin θ/θ, stable for |θ| > degree.
    """
    two_sin, two_cos, inv = 2.0 * np.sin(theta), 2.0 * np.cos(theta), 1.0 / theta
    m = two_sin * inv
    re, im = mono[:, 0] * m, np.zeros_like(m)
    for j in range(1, mono.shape[1]):
        if j % 2:
            m = (j * m - two_cos) * inv
            im -= mono[:, j] * m
        else:
            m = (two_sin - j * m) * inv
            re += mono[:, j] * m
    return re, im


def fourier_integral(panels: PanelSet, times) -> np.ndarray:
    """∫_a^b f(ω) e^{-iωt} dω for each t in `times` (complex result)."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    # the nodes folded onto x_k > 0: w_k (f_k e^{-iθx_k} + f_{-k} e^{iθx_k}) is
    # w_k (f_k + f_{-k}) cos θx_k + i w_k (f_{-k} - f_k) sin θx_k
    pos, neg, w = panels.gl_vals[:, _GL_HALF:], panels.gl_vals[:, _GL_HALF - 1::-1], _GL_W[_GL_HALF:]
    fold_plus, fold_minus = w * (pos + neg), w * (neg - pos)
    mono = panels.coeffs @ _MONO_MAT.T
    out = np.empty(len(t), dtype=complex)
    step = max(1, _BLOCK // len(panels))
    for j in range(0, len(t), step):
        tb = t[j:j + step]
        theta = np.outer(panels.halfs, tb)
        re, im = _taylor_sum(panels.gl_vals, theta)
        size = np.abs(theta)
        i, k = np.nonzero((size > _TAYLOR_SWITCH) & (size <= _THETA_SWITCH))
        if len(i):
            arg = theta[i, k, None] * _GL_X[_GL_HALF:]
            re[i, k] = np.einsum("pk,pk->p", np.cos(arg), fold_plus[i])
            im[i, k] = np.einsum("pk,pk->p", np.sin(arg), fold_minus[i])
        i, k = np.nonzero(size > _THETA_SWITCH)
        if len(i):
            re[i, k], im[i, k] = _filon_sums(mono[i], theta[i, k])
        phase = np.outer(panels.mids, tb)
        cos, sin = np.cos(phase), np.sin(phase)
        # (re + i im) e^{-iφ} = (re cos φ + im sin φ) + i (im cos φ - re sin φ)
        out.real[j:j + step] = panels.halfs @ (re * cos + im * sin)
        out.imag[j:j + step] = panels.halfs @ (im * cos - re * sin)
    return out if np.ndim(times) else out[0]
