"""Exact non-Markovian dynamics of optical coherent-state qubits.

A single harmonic-oscillator bath damps each mode; the propagator u(t)
solves a memory-kernel equation of motion and is computed both by direct
time stepping and by Laplace inversion (pole + branch cut).  From u the
package derives the exact two-qubit channel state, its concurrence, fully
entangled fraction and teleportation fidelity, and the effect of
phase-flip error correction versus bit-flip repetition encoding.
"""

__version__ = "0.1.0"

from .bath import BathSpec, correlation, inversion_denominator, spectral_density
from .channel import ChannelMetrics, metrics_closed, teleportation_fidelity
from .codes import (
    bitflip_metrics,
    bitflip_p_e,
    corrected_c,
    corrected_channel_metrics,
    phase_success_prob,
)
from .propagator import (
    PropagatorSolution,
    TimeGrid,
    find_poles,
    solve_laplace,
    solve_volterra,
)
from .qubit import coherence_factor, phase_error_prob

__all__ = [
    "__version__",
    "BathSpec", "spectral_density", "correlation", "inversion_denominator",
    "TimeGrid", "PropagatorSolution", "solve_volterra", "solve_laplace",
    "find_poles",
    "coherence_factor", "phase_error_prob",
    "ChannelMetrics", "teleportation_fidelity", "metrics_closed",
    "phase_success_prob", "corrected_c",
    "corrected_channel_metrics", "bitflip_p_e", "bitflip_metrics",
]
