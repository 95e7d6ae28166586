"""Independent references for the benchmark's correctness checks.

Nothing here imports cohlab: the two-qubit state is rebuilt from |u| (which
is recovered from the p_e column), the concurrence comes from the Wootters
spin-flip spectrum, f_max from the magic-basis eigenvalue, the corrected
coherence factor from scipy's binomial CDF, and the pole rule and the s = 2
imaginary-axis denominator from their closed forms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


def read_csv(path: str) -> tuple[dict, dict]:
    """cohlab CSV -> (header items, column name -> float array)."""
    header, lines = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                key, sep, val = line[2:].rstrip("\n").partition(" = ")
                if sep:
                    header[key] = val
            else:
                lines.append(line.rstrip("\n"))
    names = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, {n: data[:, i] for i, n in enumerate(names)}


def abs_u_from_pe(alpha0: float, p_e: np.ndarray) -> np.ndarray:
    """Invert p_e = (1 - e^{-2|α0|²(1-|u|²)})/2 for |u|."""
    u2 = 1.0 + np.log1p(-2.0 * np.asarray(p_e)) / (2.0 * alpha0 * alpha0)
    return np.sqrt(np.clip(u2, 0.0, None))


def pe_from_abs_u(alpha0: float, abs_u: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 - np.exp(-2.0 * alpha0 * alpha0 * (1.0 - np.asarray(abs_u) ** 2)))


def corrected_c_ref(n: int, p_e: np.ndarray) -> np.ndarray:
    """c' = 2 P(at most (n-1)/2 of n flips) - 1."""
    return 2.0 * special.bdtr((n - 1) // 2, n, p_e) - 1.0


# ---------------------------------------------------------------------------
# two-qubit channel state, rebuilt from |u|
# ---------------------------------------------------------------------------

_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def channel_states(alpha0: float, abs_u: np.ndarray, n_modes: int,
                   flip_damp: np.ndarray) -> np.ndarray:
    """Batched 4x4 density matrices in the even/odd product basis.

    Each logical qubit is n_modes coherent modes |±α⟩^{⊗n}; the initial
    cluster-type state has amplitudes (1, -z^n, -z^n, -z^{2n}), z = -i, on
    the sign pairs (++, +-, -+, --).  The element map multiplies a
    coherent-basis element by `flip_damp` for each logical mode whose ket
    and bra signs differ, and |±α_t⟩^{⊗n} = a|e⟩ ± b|o⟩ with
    a, b = sqrt((1 ± e^{-2n|α_t|²})/2).  The state is normalised by the
    trace of the same construction at t = 0.
    """
    z = -1j
    amp = np.array([1.0, -(z**n_modes), -(z**n_modes), -(z ** (2 * n_modes))])
    hamming = np.array([[(s1 != r1) + (s2 != r2) for (r1, r2) in _SIGNS] for (s1, s2) in _SIGNS])

    def build(abs_u, damp):
        abs_u = np.atleast_1d(np.asarray(abs_u, dtype=float))
        damp = np.broadcast_to(np.asarray(damp, dtype=float), abs_u.shape)
        q = np.exp(-2.0 * n_modes * (alpha0 * abs_u) ** 2)
        a, b = np.sqrt(0.5 * (1.0 + q)), np.sqrt(0.5 * (1.0 - q))
        # columns: |+α_t⟩ and |-α_t⟩ in the (e, o) basis, per sample
        basis = np.stack([np.stack([a, a], -1), np.stack([b, -b], -1)], -2)
        s = np.einsum("nij,nkl->nikjl", basis, basis).reshape(-1, 4, 4)
        coh = np.outer(amp, amp.conj())[None] * damp[:, None, None] ** hamming[None]
        return s @ coh @ s.transpose(0, 2, 1)

    norm = np.trace(build(1.0, 1.0)[0]).real
    return build(abs_u, flip_damp) / norm


_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
_R2 = 1.0 / math.sqrt(2.0)
# magic basis Φ+, iΦ-, iΨ+, Ψ- as columns over |ee⟩, |eo⟩, |oe⟩, |oo⟩
_MAGIC = np.array([
    [_R2, 1j * _R2, 0, 0],
    [0, 0, 1j * _R2, _R2],
    [0, 0, 1j * _R2, -_R2],
    [_R2, -1j * _R2, 0, 0],
])


def wootters(rho: np.ndarray) -> np.ndarray:
    """max(0, λ1 - λ2 - λ3 - λ4), λ the square roots of the eigenvalues of
    ρ (σy⊗σy) ρ* (σy⊗σy), in descending order."""
    r = rho @ _YY @ rho.conj() @ _YY
    lam = np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None))
    lam = -np.sort(-lam, axis=-1)
    return np.clip(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0, None)


def fmax_magic(rho: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of Re ρ written in the magic basis."""
    m = _MAGIC.conj().T @ rho @ _MAGIC
    return np.linalg.eigvalsh(0.5 * (m + m.conj().transpose(0, 2, 1)).real)[:, -1]


# ---------------------------------------------------------------------------
# Laplace-route references
# ---------------------------------------------------------------------------

def eta_s(s: float, eta0: float) -> float:
    return eta0 * (math.e / s) ** s


def pole_expected(s: float, eta0: float, omega0: float, omega_c: float = 1.0) -> bool:
    """One pole on the imaginary axis iff ω0/ω_c < η_s Γ(s)."""
    return omega0 / omega_c < eta_s(s, eta0) * math.gamma(s)


def s2_integral(y: np.ndarray) -> np.ndarray:
    """∫_0^∞ x² e^{-x}/(x+y) dx = 1 - y + y² e^y E1(y)."""
    y = np.asarray(y, dtype=float)
    return 1.0 - y + y * y * np.exp(y) * special.exp1(y)
