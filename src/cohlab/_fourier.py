"""Half-range Fourier integrals ∫ f(ω) e^{-iωt} dω for many t at once.

The integrand f is smooth apart from isolated sharp features (narrow
resonances at weak coupling, a fractional-power edge at ω = 0 for
sub-Ohmic baths).  The domain is split into adaptive panels on which f is
represented by a degree-12 Chebyshev interpolant; each panel is then
integrated against e^{-iωt} either by 24-point Gauss-Legendre quadrature
(non- to mildly-oscillatory regime, |t|·halfwidth ≤ 14) or by a Filon-type
rule with exact monomial moments of e^{-iθξ} (stable for |θ| > degree).
The quadrature error is governed by the Chebyshev tail of f alone and is
uniform in t.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FourierQuadratureError", "PanelSet", "build_panels", "fourier_integral"]

_DEGREE = 12
_GL_POINTS = 24
_THETA_SWITCH = 14.0
_REL_TOL = 1e-9      # panel accepted once its Chebyshev tail ≤ _REL_TOL × max |f|
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


class FourierQuadratureError(RuntimeError):
    """Raised when the adaptive panel construction fails to converge."""


class PanelSet:
    """Adaptive panel decomposition of [a, b] with per-panel data."""

    def __init__(self, mids, halfs, coeffs, gl_vals, scale, worst_tail):
        self.mids = mids            # (n_panels,)
        self.halfs = halfs          # (n_panels,)
        self.coeffs = coeffs        # (n_panels, degree+1) Chebyshev coefficients
        self.gl_vals = gl_vals      # (n_panels, GL points) f at GL nodes
        self.scale = scale          # max sampled |f|
        self.worst_tail = worst_tail

    def __len__(self):
        return len(self.mids)


def build_panels(f, a: float, b: float, *, seeds=()) -> PanelSet:
    """Split [a, b] into panels on which f is Chebyshev-resolved.

    f must accept an ndarray of points and return an ndarray of (possibly
    complex) values.  `seeds` are forced breakpoints (e.g. resonance
    positions and their width scales) so that features much narrower than
    their surroundings cannot slip between sample points of a wide panel.
    Panels are not split below (b - a) 2⁻⁵⁰; their tail goes into
    `worst_tail`.
    """
    min_width = (b - a) * 2.0**-50
    pts = [a, b]
    for x in seeds:
        if a < x < b:
            pts.append(float(x))
    pts = sorted(set(pts))

    mids, halfs, coeffs = [], [], []
    scale = 0.0
    worst_tail = 0.0
    stack = [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)][::-1]
    n_done = 0
    while stack:
        lo, hi = stack.pop()
        m = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        vals = np.asarray(f(m + h * _CGL_NODES))
        c = _COEF_MAT @ vals
        vmax = float(np.max(np.abs(vals)))
        scale = max(scale, vmax)
        tail = float(np.max(np.abs(c[-3:])))
        if tail <= _REL_TOL * max(scale, 1e-300) or (hi - lo) <= min_width:
            mids.append(m)
            halfs.append(h)
            coeffs.append(c)
            worst_tail = max(worst_tail, 0.0 if (hi - lo) > min_width else tail)
            n_done += 1
            if n_done > _MAX_PANELS:
                raise FourierQuadratureError(
                    f"panel budget {_MAX_PANELS} exhausted on [{a}, {b}]; "
                    f"worst unresolved Chebyshev tail {tail:.3e} (scale {scale:.3e})"
                )
        else:
            stack.append((m, hi))
            stack.append((lo, m))
            if len(stack) + n_done > _MAX_PANELS:
                raise FourierQuadratureError(
                    f"panel budget {_MAX_PANELS} exhausted on [{a}, {b}]; "
                    f"worst unresolved Chebyshev tail {tail:.3e} (scale {scale:.3e})"
                )

    mids = np.asarray(mids)
    halfs = np.asarray(halfs)
    order = np.argsort(mids)
    mids, halfs = mids[order], halfs[order]
    coeffs = np.asarray(coeffs)[order]
    # batch-evaluate f at all GL nodes for the low-|θ| path
    gl_nodes = (mids[:, None] + halfs[:, None] * _GL_X[None, :]).ravel()
    gl_vals = np.asarray(f(gl_nodes)).reshape(len(mids), _GL_POINTS)
    return PanelSet(mids, halfs, coeffs, gl_vals, scale, worst_tail)


def _monomial_moments(theta: np.ndarray, p: int) -> np.ndarray:
    """m_j(θ) = ∫_{-1}^{1} ξ^j e^{-iθξ} dξ for j = 0..p; stable for |θ| > p."""
    out = np.empty((p + 1, len(theta)), dtype=complex)
    eip = np.exp(1j * theta)
    eim = np.conj(eip)
    out[0] = 2.0 * np.sin(theta) / theta
    inv = 1.0 / (-1j * theta)
    for j in range(1, p + 1):
        # B_j = e^{-iθ} - (-1)^j e^{+iθ}
        bj = eim - ((-1.0) ** j) * eip
        out[j] = (bj - j * out[j - 1]) * inv
    return out


def fourier_integral(panels: PanelSet, times) -> np.ndarray:
    """∫_a^b f(ω) e^{-iωt} dω for each t in `times` (complex result)."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.zeros(len(t), dtype=complex)
    for i in range(len(panels)):
        m, h = panels.mids[i], panels.halfs[i]
        theta = h * t
        small = np.abs(theta) <= _THETA_SWITCH
        phase = np.exp(-1j * m * t)
        if np.any(small):
            ker = np.exp(-1j * np.outer(theta[small], _GL_X))
            out[small] += h * phase[small] * (ker @ (_GL_W * panels.gl_vals[i]))
        if np.any(~small):
            mono = _MONO_MAT @ panels.coeffs[i]
            mom = _monomial_moments(theta[~small], _DEGREE)
            out[~small] += h * phase[~small] * (mono @ mom)
    return out if np.ndim(times) else out[0]
