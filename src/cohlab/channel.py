"""Two-qubit noisy channel built from a cluster-type entangled coherent state.

Each mode is damped independently by the exact element map, and the state
is expressed in the orthonormal even/odd product basis, where it takes an
X-form.  Channel quality is tracked by the concurrence, the fully
entangled fraction f_max, and the teleportation fidelity F = (2 f_max+1)/3.
Closed forms for all three exist, as one elementwise kernel
(`x_state_metrics`) that the repetition codes share.  The density matrix
itself is built in one place, `element_map_density`, which feeds the
independent matrix-level oracles (Wootters spin-flip spectrum, magic-basis
eigenvalue, direct search over maximally entangled states); they are kept
alongside and never collapsed into the closed-form route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubit import coherence_factor, evenodd_coeffs

__all__ = [
    "TwoQubitState",
    "ChannelMetrics",
    "element_map_density",
    "wootters_concurrence",
    "fef_oracle",
    "fef_direct_search",
    "teleportation_fidelity",
    "metrics_closed",
    "x_state_metrics",
]


_TRACE_TOL = 1e-10
_HERM_TOL = 1e-12
_PSD_TOL = 1e-10


@dataclass
class TwoQubitState:
    """4×4 density matrix in the basis {|ee⟩, |eo⟩, |oe⟩, |oo⟩}."""

    rho: np.ndarray

    def validate(self) -> None:
        """AssertionError unless rho is 4×4, of trace 1 (to _TRACE_TOL),
        Hermitian (to _HERM_TOL) and positive semidefinite (to -_PSD_TOL)."""
        r = self.rho
        if r.shape != (4, 4):
            raise AssertionError("density matrix must be 4x4")
        if abs(np.trace(r) - 1.0) > _TRACE_TOL:
            raise AssertionError(f"trace deviates from 1 by {abs(np.trace(r)-1.0):.3e}")
        if np.max(np.abs(r - r.conj().T)) > _HERM_TOL:
            raise AssertionError("density matrix is not Hermitian")
        ev = np.linalg.eigvalsh(0.5 * (r + r.conj().T))
        if ev.min() < -_PSD_TOL:
            raise AssertionError(f"negative eigenvalue {ev.min():.3e}")


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


def element_map_density(alpha0: complex, u: complex, n: int = 1) -> TwoQubitState:
    """Evolved density matrix of the (n-fold encoded) cluster state: all 16
    elements go through the tensor-product element map and the result is
    expressed in the even/odd basis.

    The one matrix construction of the channel state; the tests hand it to
    the matrix oracles (Wootters, magic basis, direct search) to gate the
    closed form `x_state_metrics`.  The encoded initial state carries amplitudes
    (1, -z^n, -z^n, -z^{2n}) with z = -i, each n-mode block damps by c^n
    when ket and bra signs differ, and |±α_t⟩^{⊗n} = a_n|e_n⟩ ± b_n|o_n⟩.
    Odd n gives an X-form normalized by M_n = 4(1 + e^{-4n|α_0|²}); even n
    gives a dense matrix that is trace-1 with M_n = 4.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    z = -1j
    amps = {(1, 1): 1.0 + 0j, (1, -1): -(z**n), (-1, 1): -(z**n), (-1, -1): -(z ** (2 * n))}
    a_n, b_n = evenodd_coeffs(math.sqrt(n) * alpha0 * u)
    vec = {1: np.array([a_n, b_n]), -1: np.array([a_n, -b_n])}
    c = coherence_factor(alpha0, u)
    if n % 2 == 0:
        m_n = 4.0
    else:
        m_n = 4.0 * (1.0 + math.exp(-4.0 * n * abs(alpha0) ** 2))
    rho = np.zeros((4, 4), dtype=complex)
    signs = (1, -1)
    for s1 in signs:
        for s2 in signs:
            for r1 in signs:
                for r2 in signs:
                    coeff = amps[(s1, s2)] * np.conj(amps[(r1, r2)])
                    damp = c ** (n * ((s1 != r1) + (s2 != r2)))
                    ket = np.kron(vec[s1], vec[s2])
                    bra = np.kron(vec[r1], vec[r2])
                    rho += coeff * damp * np.outer(ket, bra)
    return TwoQubitState(rho / m_n)


_YY = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=complex)  # (Y ⊗ Y) in the even/odd product basis


def wootters_concurrence(state: TwoQubitState) -> float:
    """max{0, √λ1 - √λ2 - √λ3 - √λ4} from the spin-flip spectrum.

    λ_i are the (descending) eigenvalues of ρ (Y⊗Y) ρ* (Y⊗Y).  With
    ρ = W W† the √λ_i equal the singular values of the complex symmetric
    Wᵀ (Y⊗Y) W, which an SVD delivers without the √(tiny eigenvalue)
    precision loss of the plain non-Hermitian eigensolve near pure states.
    Roundoff negatives of ρ above -1e-12 are clamped; worse is an error.
    """
    rho = 0.5 * (state.rho + state.rho.conj().T)
    lam, vec = np.linalg.eigh(rho)
    if lam.min() < -1e-12:
        raise ArithmeticError(f"density matrix has eigenvalue {lam.min():.3e} < -1e-12")
    w = vec * np.sqrt(np.clip(lam, 0.0, None))
    sigma = np.linalg.svd(w.T @ _YY @ w, compute_uv=False)
    return max(0.0, sigma[0] - sigma[1] - sigma[2] - sigma[3])


_SQ2 = 1.0 / math.sqrt(2.0)
# magic basis {Φ+, iΦ-, iΨ+, Ψ-} as columns, in the even/odd product basis
_MAGIC = np.array([
    [_SQ2, 1j * _SQ2, 0, 0],
    [0, 0, 1j * _SQ2, _SQ2],
    [0, 0, 1j * _SQ2, -_SQ2],
    [_SQ2, -1j * _SQ2, 0, 0],
], dtype=complex)


def fef_oracle(state: TwoQubitState) -> float:
    """Fully entangled fraction as the largest eigenvalue of Re(ρ) in the
    magic basis (Bell states with phases i on Φ- and Ψ+)."""
    m = _MAGIC.conj().T @ state.rho @ _MAGIC
    real = 0.5 * (m + m.conj().T).real
    return float(np.linalg.eigvalsh(real)[-1])


def _haar_unitaries(rng: np.random.Generator, size: int) -> np.ndarray:
    g = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _best_overlap(rho: np.ndarray, u1: np.ndarray, u2: np.ndarray):
    # (U1 ⊗ U2)|Φ+⟩ as the 2x2 amplitude matrix U1 U2^T / √2
    psi = np.einsum("bij,bkj->bik", u1, u2) * _SQ2
    flat = psi.reshape(len(psi), 4)
    vals = np.einsum("bi,ij,bj->b", flat.conj(), rho, flat).real
    k = int(np.argmax(vals))
    return float(vals[k]), k


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _rotate(base: np.ndarray, x: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(x))
    if theta == 0.0:
        return base
    n = x / theta
    h = n[0] * _PAULI[0] + n[1] * _PAULI[1] + n[2] * _PAULI[2]
    return base @ (np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * h)


_SEARCH_SAMPLES = 10000  # Haar draws per unitary before the local polish


def fef_direct_search(state: TwoQubitState, seed: int = 0) -> float:
    """Brute-force f_max: maximize ⟨ψ|ρ|ψ⟩ over maximally entangled states
    |ψ⟩ = (U1 ⊗ U2)|Φ+⟩ — Haar sampling followed by derivative-free local
    ascent on the (U1, U2) group chart.

    Phase-convention independent and never touches the magic basis, so it
    certifies fef_oracle rather than re-deriving it.  As a function of the
    state, the overlap has a unique local maximum over this manifold, so the
    polish converges globally from the sampled incumbent.
    """
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    rho = state.rho
    u1 = _haar_unitaries(rng, _SEARCH_SAMPLES)
    u2 = _haar_unitaries(rng, _SEARCH_SAMPLES)
    best, k = _best_overlap(rho, u1, u2)
    b1, b2 = u1[k], u2[k]

    def negative(x):
        v1 = _rotate(b1, x[:3])
        v2 = _rotate(b2, x[3:])
        psi = (v1 @ v2.T).ravel() * _SQ2
        return -float(np.real(psi.conj() @ rho @ psi))

    res = minimize(negative, np.zeros(6), method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 4000})
    return max(best, -float(res.fun))


def teleportation_fidelity(f_max):
    """F = (2 f_max + 1)/3; the classical limit is F = 2/3 at f_max = 1/2."""
    _require_within(f_max, 0.0, 1.0, "f_max =", "[0, 1]")
    return (2.0 * f_max + 1.0) / 3.0


def x_state_metrics(alpha0: complex, u, c, modes: int = 1) -> ChannelMetrics:
    """Closed-form metrics of the X-form channel state, elementwise over u.

    Each logical qubit is |±α⟩^{⊗modes}, so a, b come from √modes α_0 u
    (see `evenodd_coeffs`),
    and c is the factor that damps the coherence between the two branches:
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
