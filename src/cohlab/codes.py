"""Repetition-code layer on top of the noisy channel.

Phase-flip correction (odd n) succeeds when at most (n-1)/2 of the n modes
flip, with probability

    p_s = Σ_{k=0}^{(n-1)/2} C(n,k) (1-p_e)^{n-k} p_e^k = 1 - Σ_{j>(n-1)/2} C(n,j) p_e^j (1-p_e)^{n-j},

the binomial CDF, taken from its upper tail: at most (n+1)/2 terms, each
the last times a ratio, which fall for p_e < 1/2.  Correction acts
on the channel simply by replacing the coherence factor c with
c' = 2 p_s - 1; the amplitude reduction a, b is untouched by the code.
Bit-flip repetition encoding (any n) is modeled exactly: it multiplies the
exponent of the coherence factor by n, so the phase error grows with n and
the encoded channel is strictly worse — the contrast the metrics exhibit.
Every function here is elementwise over an array of u (or p_e), and the
channel metrics of both codes come from the one X-state kernel
`channel.x_state_metrics`.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelMetrics, x_state_metrics
from .qubit import coherence_factor, phase_error_prob

__all__ = [
    "phase_success_prob",
    "corrected_c",
    "corrected_channel_metrics",
    "bitflip_p_e",
    "bitflip_metrics",
]


def phase_success_prob(n: int, p_e):
    """Error-free transmission probability of the n-bit phase-flip code,
    elementwise over p_e ∈ [0, 1), for odd n ≤ 1029.

    p_s = 1 - T(p_e) with T the upper tail Σ_{j>k} C(n,j) p^j q^{n-j},
    k = (n-1)/2, summed from its first term C(n,k+1) p^{k+1} q^k by the
    ratio (n-j)/(j+1) · p/q, which is below 1 for p < 1/2.  For p_e > 1/2
    the symmetry p_s(p) = T(1-p) of odd n keeps the ratio below 1.  Within
    2.2e-16 of an exact sum for n ≤ 201; C(n,k+1) overflows a double past
    n = 1029.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be a positive odd integer, got {n}")
    if n > 1029:
        raise ValueError(f"n must be <= 1029, got {n}")
    p = np.asarray(p_e, dtype=float)
    bad = ~((p >= 0.0) & (p < 1.0))
    if np.any(bad):
        raise ValueError(f"p_e = {p[bad].flat[0]} outside [0, 1)")
    low = p <= 0.5
    x = np.where(low, p, 1.0 - p)
    k = (n - 1) // 2
    j = np.arange(k + 1, n)
    # one row per point, so that a point sums alike alone or in an array
    ratio = np.ravel(x / (1.0 - x))[:, None] * ((n - j) / (j + 1.0))
    tail = float(math.comb(n, k + 1)) * x ** (k + 1) * (1.0 - x) ** k \
        * (1.0 + np.sum(np.cumprod(ratio, axis=1), axis=1).reshape(x.shape))
    out = np.where(low, 1.0 - tail, tail)
    return float(out) if out.ndim == 0 else out


def corrected_c(n: int, p_e):
    """Coherence factor after correction, c' = 2 p_s - 1 ∈ (-1, 1],
    elementwise over p_e."""
    return 2.0 * phase_success_prob(n, p_e) - 1.0


def corrected_channel_metrics(alpha0: complex, u, n: int) -> ChannelMetrics:
    """Channel metrics with the phase-flip code applied: c → c'(n, p_e).

    Only the phase-error channel is corrected; a and b still come from the
    damped amplitude α_t.  A caller that already holds c' calls
    `x_state_metrics(alpha0, u, c')` directly.
    """
    return x_state_metrics(alpha0, u, corrected_c(n, phase_error_prob(alpha0, u)))


def bitflip_p_e(n: int, alpha0: complex, u):
    """Phase-error probability of the n-bit repetition encoding,
    p_e^(n) = (1 - c^n)/2, elementwise over an array u; strictly increasing
    in n whenever |u| < 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    c = coherence_factor(alpha0, u)
    return 0.5 * (1.0 - c**n)


def bitflip_metrics(n: int, alpha0: complex, u) -> ChannelMetrics:
    """Closed-form metrics of the n-bit encoded channel, elementwise over u:
    the X-state kernel with c → cⁿ and α → √n α.

    C = (8 a_n² b_n²/M_n) max{0, c^{2n} + 2c^n - 1}; f_max distinguishes
    even and odd n (even-n form carries the square root and is gated in the
    tests on the magic-basis oracle of the element-map density in
    `tests/oracles.py`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return x_state_metrics(alpha0, u, coherence_factor(alpha0, u) ** n, modes=n)
