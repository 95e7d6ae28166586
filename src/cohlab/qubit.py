"""Single coherent-state qubit under the exact open-system map.

Everything follows from one prescription: an element |α⟩⟨β| evolves to

    e^{-(1-|u|²)(|α|²+|β|²-2αβ*)/2} |α u⟩⟨β u|,

with u the propagator.  For opposite-phase encodings this is equivalent to
an operator sum: damping of the amplitude plus a random phase flip with
probability p_e = (1 - e^{-2(|α_0|²-|α_t|²)})/2 < 1/2, where α_t = α_0 u.
The element map itself, the coherent-state overlap, the even/odd
coefficients and the cat-state densities that check this equivalence live
in `tests/oracles.py`; the package keeps the closed forms the channel uses.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coherence_factor",
    "phase_error_prob",
]


def coherence_factor(alpha0: complex, u):
    """c = e^{-2(|α_0|² - |α_t|²)} = 1 - 2 p_e, the off-diagonal suppression.

    Elementwise over an array u.  Clamped to ≤ 1 so that solver roundoff
    pushing |u| above 1 by ~1e-10 cannot leak an unphysical c > 1 into the
    channel formulas.
    """
    return np.minimum(1.0, np.exp(-2.0 * abs(alpha0) ** 2 * (1.0 - np.abs(u) ** 2)))


def phase_error_prob(alpha0: complex, u):
    """Phase-flip probability p_e = (1 - c)/2 ∈ [0, 1/2), elementwise over u."""
    top = np.max(np.abs(u))
    if top > 1.0 + 1e-9:
        raise ValueError(f"|u| = {top} exceeds 1")
    return 0.5 * (1.0 - coherence_factor(alpha0, u))

