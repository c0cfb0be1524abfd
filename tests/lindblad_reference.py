"""Two independent references for the closed-form Lindblad propagator in
``nadqec.protocol``.

- A fixed-step RK4 integrator on the density matrix: it works on rho
  directly, with no vectorisation convention to get wrong, and its
  truncation error falls as the step count grows.
- The sparse Liouvillian of any (H, collapse set) on the row-major vec of
  rho, applied with scipy's ``expm_multiply`` (Al-Mohy & Higham, SIAM J.
  Sci. Comput. 33, 2011) in equal sub-steps of at most 5 us, since its
  error grows with t ||L||.

It also holds the ZZ toy model's Hamiltonian as a matrix, each pulse of a
CHaDD colouring as a permutation of the full register, and the
closed-system propagator of one CHaDD cycle, which the exactness checks
of the decoupling sequence use.
"""

import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from noise_reference import Z, embed
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from nadqec.noise import NoiseParams
from nadqec.protocol import ROBUST_PULSES


def pulse_permutations(colors: Sequence[int]) -> dict:
    """Each color's pulse as an index permutation of the full register.

    X and RX(-pi) = iX act alike under conjugation: on the qubits of mask m
    (qubit 0 the MSB) both map rho[a, b] to rho[a xor m, b xor m], so a
    pulse is ``rho[perm][:, perm]`` with perm = arange(2^n) xor m.
    """
    n = len(colors)
    index = np.arange(2**n)
    return {color: index ^ sum(1 << (n - 1 - q) for q, c in enumerate(colors)
                               if c == color)
            for color in (1, 2)}


def crosstalk_hamiltonian(g: float, omegas: Sequence[float]) -> np.ndarray:
    """H = w1/2 Z1 + w2/2 Z2 + g Z1 Z2 of the two-qubit ZZ toy model."""
    z1 = embed(Z, [0], 2)
    z2 = embed(Z, [1], 2)
    return 0.5 * omegas[0] * z1 + 0.5 * omegas[1] * z2 + g * z1 @ z2


def chadd_cycle_unitary(tau: float, h: np.ndarray,
                        colors: Sequence[int]) -> np.ndarray:
    """Closed-system propagator of one robust cycle (``ROBUST_PULSES``, an
    interval of ``tau`` before each pulse) with ideal pulses, each applied
    as its row permutation (RX(-pi) = iX counts as X, so the result holds
    up to a global phase)."""
    n = int(round(math.log2(h.shape[0])))
    if len(colors) != n:
        raise ValueError(f"{len(colors)} colors for {n} qubits")
    free = expm(-1j * h * tau)
    perms = pulse_permutations(colors)
    u = np.eye(h.shape[0], dtype=complex)
    for _, color in ROBUST_PULSES:
        u = (free @ u)[perms[color]]
    return u


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
    """exp(duration * gen) applied to rho (Al-Mohy & Higham's expm_multiply)
    in equal sub-steps of at most 5 us, returned Hermitian; rho itself at
    duration 0 or one so small that duration / 5 underflows to 0, where
    expm_multiply would divide 0 by 0."""
    steps = math.ceil(duration / 5.0)
    if steps == 0:
        return rho
    step = duration / steps * gen
    out = rho.ravel()
    for _ in range(steps):
        out = expm_multiply(step, out)
    out = out.reshape(rho.shape)
    return 0.5 * (out + out.conj().T)


def collapse_operators(n_qubits: int, params: NoiseParams) -> list[np.ndarray]:
    """Per-qubit relaxation (sigma-) at 1/T1 and dephasing (Z) at 1/(2 Tphi).

    Per-qubit T1 or Tphi sequences must give one value per register qubit.
    """
    sm = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    ops = []
    for q, (t1, tphi) in enumerate(zip(*params.lifetimes(n_qubits))):
        if math.isfinite(t1):
            ops.append(math.sqrt(1.0 / t1) * embed(sm, [q], n_qubits))
        if math.isfinite(tphi):
            ops.append(math.sqrt(1.0 / (2.0 * tphi)) * embed(Z, [q], n_qubits))
    return ops
