"""Single coherent-state qubit under the exact open-system map.

Everything follows from one prescription: an element |α⟩⟨β| evolves to

    e^{-(1-|u|²)(|α|²+|β|²-2αβ*)/2} |α u⟩⟨β u|,

with u the propagator.  For opposite-phase encodings this is equivalent to
an operator sum: damping of the amplitude plus a random phase flip with
probability p_e = (1 - e^{-2(|α_0|²-|α_t|²)})/2 < 1/2, where α_t = α_0 u.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoherentElement",
    "CatState",
    "coherent_overlap",
    "evolve_element",
    "coherence_factor",
    "phase_error_prob",
    "evenodd_coeffs",
    "evolve_cat",
    "cat_evenodd_density",
    "operator_sum_density",
]


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """⟨α|β⟩ = exp(-(|α|² + |β|² - 2α*β)/2).

    The single transcendental identity everything else reduces to.
    """
    a, b = complex(alpha), complex(beta)
    return cmath.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2 - 2.0 * a.conjugate() * b))


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


def evenodd_coeffs(alpha_t):
    """(a, b) with |±α_t⟩ = a|e⟩ ± b|o⟩ in the orthonormal even/odd basis.

    a = sqrt((1 + e^{-2|α_t|²})/2), b = sqrt((1 - e^{-2|α_t|²})/2),
    elementwise over an array α_t; the α_t → 0 limit (b → 0, odd state
    losing its normalization) is taken by direct evaluation with no
    special-casing.
    """
    q = np.exp(-2.0 * np.abs(alpha_t) ** 2)
    return np.sqrt(0.5 * (1.0 + q)), np.sqrt(0.5 * (1.0 - q))


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
