"""Single coherent-state qubit under the exact open-system map.

Everything follows from one prescription: an element |α⟩⟨β| evolves to

    e^{-(1-|u|²)(|α|²+|β|²-2αβ*)/2} |α u⟩⟨β u|,

with u the propagator.  For opposite-phase encodings this is equivalent to
an operator sum: damping of the amplitude plus a random phase flip with
probability p_e = (1 - e^{-2(|α_0|²-|α_t|²)})/2 < 1/2, where α_t = α_0 u.
The element map itself and the cat-state densities that check this
equivalence live in `tests/oracles.py`; the package keeps the closed forms.
"""

from __future__ import annotations

import cmath

import numpy as np

__all__ = [
    "coherent_overlap",
    "coherence_factor",
    "phase_error_prob",
    "evenodd_coeffs",
]


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """⟨α|β⟩ = exp(-(|α|² + |β|² - 2α*β)/2).

    The single transcendental identity everything else reduces to.
    """
    a, b = complex(alpha), complex(beta)
    return cmath.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2 - 2.0 * a.conjugate() * b))


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


def evenodd_coeffs(alpha_t):
    """(a, b) with |±α_t⟩ = a|e⟩ ± b|o⟩ in the orthonormal even/odd basis.

    a = sqrt((1 + e^{-2|α_t|²})/2), b = sqrt((1 - e^{-2|α_t|²})/2),
    elementwise over an array α_t; the α_t → 0 limit (b → 0, odd state
    losing its normalization) is taken by direct evaluation with no
    special-casing.
    """
    q = np.exp(-2.0 * np.abs(alpha_t) ** 2)
    return np.sqrt(0.5 * (1.0 + q)), np.sqrt(0.5 * (1.0 - q))
