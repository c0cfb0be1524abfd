"""Idle noise applied qubit by qubit with explicit Kraus operators, and the
register helpers the tests share.

An independent reference for ``nadqec.code3.noise_superop``, which writes
damping then dephasing of the data in closed form as one 64x64 map: here
each qubit gets the amplitude-damping pair, then the dephasing pair, as
2x2 Kraus lists lifted onto the register by ``embed`` and applied as
register-sized matrices (``apply_kraus``). ``noise_superop_einsum`` keeps
the map's earlier construction, the tensor product of the per-qubit 4-index
maps regrouped by one ``einsum``, against which the scattered build is
pinned entry for entry. States are plain arrays: ``ket`` and ``pure`` make
basis vectors and |psi><psi|, ``tensor`` and ``partial_trace`` join and
split registers, and ``fidelity`` reads <psi| rho |psi>; every density
matrix these helpers return passes ``qcore.check_density``. ``p_of_t`` is
the dephasing probability of an idle window, which only these references
form.
"""

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from nadqec.noise import NoiseParams, gamma_of_t
from nadqec.qcore import TOL_ARITH, check_density

Z = np.array([[1, 0], [0, -1]], dtype=complex)


def p_of_t(t: float, tphi: float) -> float:
    """Dephasing probability accumulated over an idle window of length t."""
    if t < 0:
        raise ValueError(f"negative time {t}")
    if tphi <= 0:
        raise ValueError(f"Tphi must be positive, got {tphi}")
    if math.isinf(tphi):
        return 0.0
    return 0.5 * (1.0 - math.exp(-t / tphi))


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return n


def embed(op: np.ndarray, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Lift a k-qubit operator onto an n-qubit register.

    ``targets[i]`` is the register qubit carrying axis ``i`` of ``op``
    (axis 0 = most significant bit of the small operator's index).
    """
    op = np.asarray(op, dtype=complex)
    k = _qubit_count(op.shape[0])
    if len(targets) != k:
        raise ValueError(f"operator acts on {k} qubits, got {len(targets)} targets")
    if len(set(targets)) != k or any(t < 0 or t >= n_qubits for t in targets):
        raise ValueError(f"invalid target set {targets} for {n_qubits} qubits")
    rest = [q for q in range(n_qubits) if q not in targets]
    full = np.kron(op, np.eye(2 ** (n_qubits - k), dtype=complex))
    # full's qubit axis i carries register qubit (targets + rest)[i]; move
    # every axis to its register position, on the row and column side alike
    axes = list(np.argsort(list(targets) + rest))
    t = full.reshape((2,) * (2 * n_qubits))
    return t.transpose(axes + [n_qubits + a for a in axes]).reshape(full.shape)


def ket(n_qubits: int, index: int) -> np.ndarray:
    """Computational basis vector |index> of an n-qubit register."""
    return np.eye(2**n_qubits, dtype=complex)[index]


def pure(psi: np.ndarray) -> np.ndarray:
    """|psi><psi|, checked as a normalized density matrix."""
    rho = np.outer(psi, np.conj(psi))
    check_density(rho)
    return rho


def fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi| rho |psi> for a normalized rho and pure target."""
    if rho.shape != (len(psi), len(psi)):
        raise ValueError(f"dimension mismatch: rho {rho.shape}, psi {len(psi)}")
    val = np.conj(psi) @ rho @ psi
    if abs(val.imag) > 100 * TOL_ARITH:
        raise ValueError(f"fidelity has imaginary residue {val.imag}")
    return float(val.real)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Joint state of two registers; ``a`` occupies the high-order qubits."""
    out = np.kron(a, b)
    check_density(out)
    return out


def partial_trace(rho: np.ndarray, keep: Iterable[int],
                  normalized: bool = True) -> np.ndarray:
    """Reduced density matrix on ``keep`` (ascending register order)."""
    n = _qubit_count(rho.shape[0])
    keep = sorted(set(keep))
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep set {keep} out of range for {n} qubits")
    traced = [q for q in range(n) if q not in keep]
    t = rho.reshape((2,) * (2 * n))
    for q in sorted(traced, reverse=True):
        # axes q (row side) and q + current-n (column side) are contracted
        cur = t.ndim // 2
        t = np.trace(t, axis1=q, axis2=q + cur)
    k = len(keep)
    out = t.reshape(2**k, 2**k)
    check_density(out, normalized)
    return out


def apply_kraus(rho: np.ndarray, ops: Sequence[np.ndarray],
                targets: Sequence[int]) -> np.ndarray:
    """sum_K E(K) rho E(K)^dag with E(K) = ``embed(K, targets, n)``; the
    result is checked as a sub-normalized matrix, since the Kraus list may
    lose weight."""
    n = _qubit_count(rho.shape[0])
    out = 0
    for op in ops:
        full = embed(op, list(targets), n)
        out = out + full @ rho @ full.conj().T
    check_density(out, normalized=False)
    return out


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


def damp_dephase(rho: np.ndarray, qubits: Sequence[int],
                 gamma: float | Sequence[float],
                 p: float | Sequence[float]) -> np.ndarray:
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


def idle_noise(rho: np.ndarray, duration: float, params: NoiseParams,
               qubits: Optional[Sequence[int]] = None) -> np.ndarray:
    """Free-evolution noise: AD(gamma(t)) then dephasing(p(t)) per qubit."""
    n = _qubit_count(rho.shape[0])
    qubits = range(n) if qubits is None else list(qubits)
    t1s, tphis = params.lifetimes(n)
    return damp_dephase(rho, qubits, [gamma_of_t(duration, t1s[q]) for q in qubits],
                        [p_of_t(duration, tphis[q]) for q in qubits])
