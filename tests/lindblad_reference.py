"""Two independent references for the closed-form Lindblad propagator in
``nadqec.protocol``.

- A fixed-step RK4 integrator on the density matrix: it works on rho
  directly, with no vectorisation convention to get wrong, and its
  truncation error falls as the step count grows.
- The sparse Liouvillian of any (H, collapse set) on the row-major vec of
  rho, applied with scipy's ``expm_multiply`` (Al-Mohy & Higham, SIAM J.
  Sci. Comput. 33, 2011), whose error grows with t ||L||.
"""

import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from nadqec.noise import NoiseParams
from nadqec.qcore import Z, embed


def lindblad_rhs(h: np.ndarray, rho: np.ndarray,
                 collapse: Sequence[np.ndarray]) -> np.ndarray:
    out = -1j * (h @ rho - rho @ h)
    for c in collapse:
        cd = c.conj().T
        cdc = cd @ c
        out += c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)
    return out


def rk4_step(h: np.ndarray, rho: np.ndarray, dt: float,
             collapse: Sequence[np.ndarray]) -> np.ndarray:
    k1 = lindblad_rhs(h, rho, collapse)
    k2 = lindblad_rhs(h, rho + 0.5 * dt * k1, collapse)
    k3 = lindblad_rhs(h, rho + 0.5 * dt * k2, collapse)
    k4 = lindblad_rhs(h, rho + dt * k3, collapse)
    return rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def evolve_lindblad(h: np.ndarray, rho: np.ndarray, duration: float,
                    collapse: Sequence[np.ndarray], steps: int) -> np.ndarray:
    if steps < 1:
        raise ValueError("need at least one step")
    dt = duration / steps
    for _ in range(steps):
        rho = rk4_step(h, rho, dt, collapse)
    return 0.5 * (rho + rho.conj().T)


def liouvillian(h: np.ndarray, collapse: Sequence[np.ndarray]) -> sp.csr_matrix:
    """Lindblad generator acting on the row-major vec of rho.

    Built from vec(A rho B) = (A kron B^T) vec(rho). With the effective
    Hamiltonian H_eff = H - (i/2) sum_C C^dag C it reads
    -i(H_eff x I) + i(I x conj(H_eff)) + sum_C C x conj(C).
    """
    eye = sp.identity(h.shape[0], dtype=complex, format="csr")
    ops = [sp.csr_matrix(c, dtype=complex) for c in collapse]
    h_eff = sp.csr_matrix(h, dtype=complex)
    for c in ops:
        h_eff = h_eff - 0.5j * (c.conj().T @ c)
    terms = [-1j * sp.kron(h_eff, eye), 1j * sp.kron(eye, h_eff.conj())]
    terms += [sp.kron(c, c.conj()) for c in ops]
    return sp.csr_matrix(sum(terms))


def propagate(gen: sp.csr_matrix, rho: np.ndarray, duration: float) -> np.ndarray:
    """exp(duration * gen) applied to rho (Al-Mohy & Higham's expm_multiply),
    returned Hermitian."""
    out = expm_multiply(duration * gen, rho.ravel()).reshape(rho.shape)
    return 0.5 * (out + out.conj().T)


def collapse_operators(n_qubits: int, params: NoiseParams) -> list[np.ndarray]:
    """Per-qubit relaxation (sigma-) at 1/T1 and dephasing (Z) at 1/(2 Tphi).

    Per-qubit T1 or Tphi sequences must give one value per register qubit.
    """
    params.require_qubits(n_qubits)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    ops = []
    for q in range(n_qubits):
        t1 = params.t1_of(q)
        if math.isfinite(t1):
            ops.append(math.sqrt(1.0 / t1) * embed(sm, [q], n_qubits))
        tphi = params.tphi_of(q)
        if math.isfinite(tphi):
            ops.append(math.sqrt(1.0 / (2.0 * tphi)) * embed(Z, [q], n_qubits))
    return ops
