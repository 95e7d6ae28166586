"""Two-qubit noisy channel built from a cluster-type entangled coherent state.

Each mode is damped independently by the exact element map, and the state
is expressed in the orthonormal even/odd product basis, where it takes an
X-form.  Channel quality is tracked by the concurrence, the fully
entangled fraction f_max, and the teleportation fidelity F = (2 f_max+1)/3.
Closed forms for all three exist, as one elementwise kernel
(`x_state_metrics`) that the repetition codes share.  The density matrix
and the independent matrix-level oracles that gate this kernel (Wootters
spin-flip spectrum, magic-basis eigenvalue, direct search over maximally
entangled states) live in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubit import coherence_factor

__all__ = [
    "ChannelMetrics",
    "teleportation_fidelity",
    "metrics_closed",
    "x_state_metrics",
]


@dataclass(frozen=True)
class ChannelMetrics:
    """Concurrence, fully entangled fraction, and teleportation fidelity,
    at one instant or elementwise along a curve."""

    concurrence: float | np.ndarray
    f_max: float | np.ndarray
    fidelity: float | np.ndarray

    def __post_init__(self):
        _require_within(self.concurrence, -1e-12, 1.0 + 1e-12, "concurrence", "[0, 1]")
        _require_within(self.fidelity, 1.0 / 3.0 - 1e-12, 1.0 + 1e-12, "fidelity", "[1/3, 1]")


def _require_within(x, lo: float, hi: float, name: str, interval: str) -> None:
    """ValueError naming the first value of x outside [lo, hi] (NaN included)."""
    x = np.asarray(x)
    bad = ~((x >= lo) & (x <= hi))
    if np.any(bad):
        raise ValueError(f"{name} {x[bad].flat[0]} outside {interval}")


def teleportation_fidelity(f_max):
    """F = (2 f_max + 1)/3; the classical limit is F = 2/3 at f_max = 1/2."""
    _require_within(f_max, 0.0, 1.0, "f_max =", "[0, 1]")
    return (2.0 * f_max + 1.0) / 3.0


def x_state_metrics(alpha0: complex, u, c, modes: int = 1) -> ChannelMetrics:
    """Closed-form metrics of the X-form channel state, elementwise over u.

    Each logical qubit is |±α_t⟩^{⊗modes} = a|e⟩ ± b|o⟩ in the orthonormal
    even/odd basis, a² = (1 + q)/2 and b² = (1 - q)/2 with q =
    e^{-2 modes |α_0 u|²}, and c is the factor that damps the coherence
    between the two branches:
    the coherence factor itself for the bare channel, c' for the phase-flip
    code and cⁿ for n-bit repetition encoding.  With the normalization
    M = 4D, D = 1 + e^{-4 modes |α_0|²} for odd modes and D = 1 for even:

        C = (2a²b²/D) max{0, c² + 2c - 1}
        f_max = (c² - 2a²b²(1-c)² + 1)/(2D)                  (odd modes)
        f_max = (1 + 4a²b²c² + √((a² - b²)⁴ + 16a²b²c²))/4   (even modes)

    and F = (2 f_max + 1)/3.  Every element is range-checked: a concurrence
    outside [0, 1] or a fidelity outside [1/3, 1] (each with 1e-12 slack),
    or an f_max outside [0, 1], raises ValueError.
    """
    # a² - b² = q and a²b² = (1 - q²)/4 with q = e^{-2 modes |α_t|²}; taken
    # from q directly, a²b² cannot round above 1/4 (nor f_max above 1)
    q = np.exp(-2.0 * modes * abs(alpha0) ** 2 * np.abs(u) ** 2)
    a2b2 = 0.25 * (1.0 - q * q)
    c2 = c * c
    if modes % 2 == 1:
        denom = 1.0 + math.exp(-4.0 * modes * abs(alpha0) ** 2)  # M/4
        f = (c2 - 2.0 * a2b2 * (1.0 - c) ** 2 + 1.0) / (2.0 * denom)
    else:
        denom = 1.0
        f = 0.25 * (1.0 + 4.0 * a2b2 * c2 + np.sqrt(q**4 + 16.0 * a2b2 * c2))
    conc = (2.0 * a2b2 / denom) * np.maximum(0.0, c2 + 2.0 * c - 1.0)
    return ChannelMetrics(conc, f, teleportation_fidelity(f))


def metrics_closed(alpha0: complex, u) -> ChannelMetrics:
    """Closed-form metrics of the unencoded channel, elementwise over u.

    C = 2a²b²/(1+e^{-4|α_0|²}) · max{0, c² + 2c - 1} vanishes (entanglement
    sudden death) once c drops below √2 - 1.
    """
    return x_state_metrics(alpha0, u, coherence_factor(alpha0, u))
