"""Repetition-code layer on top of the noisy channel.

Phase-flip correction (odd n) succeeds when at most (n-1)/2 of the n modes
flip, with probability

    p_s = Σ_{k=0}^{(n-1)/2} C(n,k) (1-p_e)^{n-k} p_e^k = 1 - bdtrc((n-1)/2, n, p_e),

the binomial CDF, taken from its complement `scipy.special.bdtrc` (a
regularized incomplete beta function, stable for any n).  Correction acts
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

import numpy as np
from scipy.special import bdtrc

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
    elementwise over p_e: 1 - bdtrc((n-1)/2, n, p_e).

    The complement is the incomplete beta function, so n = 101 and beyond
    need no factorials, no log-space sum and no clamp: p_s ≤ 1 as computed.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be a positive odd integer, got {n}")
    p = np.asarray(p_e)
    bad = ~((p >= 0.0) & (p < 1.0))
    if np.any(bad):
        raise ValueError(f"p_e = {p[bad].flat[0]} outside [0, 1)")
    return 1.0 - bdtrc((n - 1) // 2, n, p_e)


def corrected_c(n: int, p_e):
    """Coherence factor after correction, c' = 2 p_s - 1 = 1 - 2 bdtrc((n-1)/2, n, p_e)
    ∈ (-1, 1], elementwise over p_e."""
    return 2.0 * phase_success_prob(n, p_e) - 1.0


def corrected_channel_metrics(alpha0: complex, u, n: int) -> ChannelMetrics:
    """Channel metrics with the phase-flip code applied: c → c'(n, p_e).

    Only the phase-error channel is corrected; a and b still come from the
    damped amplitude α_t.  A caller that already holds c' calls
    `x_state_metrics(alpha0, u, c')` directly.
    """
    return x_state_metrics(alpha0, u, corrected_c(n, phase_error_prob(alpha0, u)))


def bitflip_p_e(n: int, alpha0: complex, u: complex) -> float:
    """Phase-error probability of the n-bit repetition encoding,
    p_e^(n) = (1 - c^n)/2; strictly increasing in n whenever |u| < 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    c = coherence_factor(alpha0, u)
    return 0.5 * (1.0 - c**n)


def bitflip_metrics(n: int, alpha0: complex, u) -> ChannelMetrics:
    """Closed-form metrics of the n-bit encoded channel, elementwise over u:
    the X-state kernel with c → cⁿ and α → √n α.

    C = (8 a_n² b_n²/M_n) max{0, c^{2n} + 2c^n - 1}; f_max distinguishes
    even and odd n (even-n form carries the square root and is gated on
    the magic-basis oracle of `channel.element_map_density` in the tests).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return x_state_metrics(alpha0, u, coherence_factor(alpha0, u) ** n, modes=n)
