"""Idle noise applied qubit by qubit with explicit Kraus operators.

An independent reference for ``nadqec.code3.noise_superop``, which writes
damping then dephasing of the data in closed form as one 64x64 map: here
each qubit gets the amplitude-damping pair, then the dephasing pair, as
2x2 Kraus lists lifted onto the register by ``qcore.embed`` and applied as
register-sized matrices (``apply_kraus``). ``noise_superop_einsum`` keeps
the map's earlier construction, the tensor product of the per-qubit 4-index
maps regrouped by one ``einsum``, against which the scattered build is
pinned entry for entry. ``tensor`` and ``partial_trace`` join and split
registers for the references and the tests.
"""

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from nadqec.noise import NoiseParams, gamma_of_t, p_of_t
from nadqec.qcore import DensityMatrix, embed


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Joint state of two registers; ``a`` occupies the high-order qubits."""
    return DensityMatrix(np.kron(a.data, b.data),
                         normalized=a.normalized and b.normalized)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on ``keep`` (ascending register order)."""
    n = rho.qubit_count
    keep = sorted(set(keep))
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep set {keep} out of range for {n} qubits")
    traced = [q for q in range(n) if q not in keep]
    t = rho.data.reshape((2,) * (2 * n))
    for q in sorted(traced, reverse=True):
        # axes q (row side) and q + current-n (column side) are contracted
        cur = t.ndim // 2
        t = np.trace(t, axis1=q, axis2=q + cur)
    k = len(keep)
    return DensityMatrix(t.reshape(2**k, 2**k), normalized=rho.normalized)


def apply_kraus(rho: DensityMatrix, ops: Sequence[np.ndarray],
                targets: Sequence[int]) -> DensityMatrix:
    """sum_K E(K) rho E(K)^dag with E(K) = ``embed(K, targets, n)``; the
    result is marked sub-normalized, since the Kraus list may lose weight."""
    n = rho.qubit_count
    out = 0
    for op in ops:
        full = embed(op, list(targets), n)
        out = out + full @ rho.data @ full.conj().T
    return DensityMatrix(out, normalized=False)


def noise_superop_einsum(gammas: Sequence[float],
                         ps: Sequence[float]) -> np.ndarray:
    """The 64x64 map of ``code3.noise_superop`` for per-qubit gammas and ps."""
    per_qubit = []
    for g, p in zip(gammas, ps):
        m = np.zeros((2, 2, 2, 2))
        m[0, 0, 0, 0] = 1.0
        m[0, 0, 1, 1] = g
        m[1, 1, 1, 1] = 1.0 - g
        m[0, 1, 0, 1] = m[1, 0, 1, 0] = math.sqrt(1.0 - g) * (1.0 - 2.0 * p)
        per_qubit.append(m)
    # regroup (r0 c0 r1 c1 r2 c2) to the register's (r0 r1 r2 c0 c1 c2)
    noise = np.einsum("aAbB,cCdD,eEfF->aceACEbdfBDF", *per_qubit)
    return noise.reshape(64, 64)


def amplitude_damping(gamma: float) -> list[np.ndarray]:
    """|1><1| loses weight gamma to |0><0|."""
    return [np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex),
            np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)]


def dephasing(p: float) -> list[np.ndarray]:
    """Off-diagonals scale by (1 - 2p)."""
    return [math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * np.diag([1.0, -1.0])]


def damp_dephase(rho: DensityMatrix, qubits: Sequence[int],
                 gamma: float | Sequence[float],
                 p: float | Sequence[float]) -> DensityMatrix:
    """AD(gamma) then dephasing(p) on each listed qubit (the dephasing is
    skipped where p = 0); ``gamma`` and ``p`` are shared scalars or one
    value per listed qubit."""
    qubits = list(qubits)
    for q, g, pq in zip(qubits, np.broadcast_to(gamma, len(qubits)),
                        np.broadcast_to(p, len(qubits))):
        rho = apply_kraus(rho, amplitude_damping(float(g)), [q])
        if pq != 0:
            rho = apply_kraus(rho, dephasing(float(pq)), [q])
    return rho


def idle_noise(rho: DensityMatrix, duration: float, params: NoiseParams,
               qubits: Optional[Sequence[int]] = None) -> DensityMatrix:
    """Free-evolution noise: AD(gamma(t)) then dephasing(p(t)) per qubit."""
    qubits = range(rho.qubit_count) if qubits is None else list(qubits)
    return damp_dephase(rho, qubits,
                        [gamma_of_t(duration, params.t1_of(q)) for q in qubits],
                        [p_of_t(duration, params.tphi_of(q)) for q in qubits])
