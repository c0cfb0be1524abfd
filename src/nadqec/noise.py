"""Quantum noise channels with time-parameterized strengths.

Damping strength follows gamma(t) = 1 - exp(-t/T1); the pure-dephasing
probability follows p(t) = (1 - exp(-t/Tphi)) / 2. The two single-qubit
channels commute exactly, so idle noise over a delay is applied as
amplitude damping followed by dephasing on each qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .qcore import (
    TOL_STRUCT,
    DensityMatrix,
    I2,
    Operator,
    X,
    Y,
    Z,
    apply_local,
)

# Default gate durations (microseconds) of the device-calibrated timing, used
# for circuit duration estimates.
DEFAULT_GATE_DURATIONS: Mapping[str, float] = {
    "RX": 0.032,
    "RY": 0.032,
    "RZ": 0.0,
    "SX": 0.032,
    "X": 0.032,
    "CZ": 0.068,
    "RZZ": 0.068,
    "ID": 0.0,
    "DELAY": 0.0,
}


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by a finite list of Kraus operators."""

    ops: tuple
    trace_property: str = "preserving"  # preserving | non-increasing

    def __post_init__(self):
        ops = tuple(Operator(np.asarray(k.data if isinstance(k, Operator) else k,
                                        dtype=complex), kind="non-unitary")
                    for k in self.ops)
        object.__setattr__(self, "ops", ops)
        if self.trace_property not in ("preserving", "non-increasing"):
            raise ValueError(f"unknown trace property {self.trace_property!r}")
        dim = ops[0].dim
        total = sum(k.data.conj().T @ k.data for k in ops)
        if self.trace_property == "preserving":
            dev = np.max(np.abs(total - np.eye(dim)))
            if dev > TOL_STRUCT:
                raise ValueError(f"channel not trace preserving: deviation {dev}")
        else:
            top = np.linalg.eigvalsh(total)[-1]
            if top > 1 + TOL_STRUCT:
                raise ValueError(f"channel increases trace: max eigenvalue {top}")

    @property
    def dim(self) -> int:
        return self.ops[0].dim

    def matrices(self) -> list[np.ndarray]:
        return [k.data for k in self.ops]


@dataclass(frozen=True)
class NoiseParams:
    """Per-qubit coherence times plus the depolarizing error of 1- and
    2-qubit gates (read by ``circuits.apply_with_noise``).

    ``t1`` and ``tphi`` may be scalars (shared by all qubits) or per-qubit
    sequences. ``tphi`` is the pure-dephasing lifetime; use
    :meth:`from_t1_t2` when the device is characterised by T2 instead
    (1/T2 = 1/(2 T1) + 1/Tphi).
    """

    t1: float | Sequence[float]
    tphi: float | Sequence[float] = math.inf
    depolarizing_1q: float = 0.0
    depolarizing_2q: float = 0.0

    def __post_init__(self):
        # +inf lifetimes mean no relaxation or no dephasing; NaN is rejected
        for name in ("t1", "tphi"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.size == 0 or not np.all(v > 0):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("depolarizing_1q", "depolarizing_2q"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} {v} outside [0, 1]")

    @classmethod
    def from_t1_t2(cls, t1: float, t2: float, **kwargs) -> "NoiseParams":
        for name, v in (("t1", t1), ("t2", t2)):
            if not (isinstance(v, (int, float)) and v > 0):
                raise ValueError(f"{name} must be a positive number, got {v!r}")
        if t2 > 2 * t1 + 1e-12:
            raise ValueError(f"T2 = {t2} exceeds the physical bound 2*T1 = {2 * t1}")
        inv_tphi = 1.0 / t2 - 1.0 / (2.0 * t1)
        tphi = math.inf if inv_tphi <= 0 else 1.0 / inv_tphi
        return cls(t1=t1, tphi=tphi, **kwargs)

    def _per_qubit(self, name: str, qubit: int) -> float:
        arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
        if arr.size > 1 and not 0 <= qubit < arr.size:
            raise ValueError(
                f"{name} has {arr.size} per-qubit values, none for qubit {qubit}")
        return float(arr[qubit] if arr.size > 1 else arr[0])

    def t1_of(self, qubit: int) -> float:
        return self._per_qubit("t1", qubit)

    def tphi_of(self, qubit: int) -> float:
        return self._per_qubit("tphi", qubit)

    def require_qubits(self, n_qubits: int) -> None:
        """Raise unless each per-qubit sequence has one value per qubit."""
        for name in ("t1", "tphi"):
            size = np.size(getattr(self, name))
            if size not in (1, n_qubits):
                raise ValueError(f"{name} has {size} per-qubit values for a "
                                 f"{n_qubits}-qubit register")


def gamma_of_t(t: float, t1: float) -> float:
    """Damping probability accumulated over an idle window of length t."""
    if t < 0:
        raise ValueError(f"negative time {t}")
    if t1 <= 0:
        raise ValueError(f"T1 must be positive, got {t1}")
    return 1.0 - math.exp(-t / t1)


def p_of_t(t: float, tphi: float) -> float:
    """Dephasing probability accumulated over an idle window of length t."""
    if t < 0:
        raise ValueError(f"negative time {t}")
    if tphi <= 0:
        raise ValueError(f"Tphi must be positive, got {tphi}")
    if math.isinf(tphi):
        return 0.0
    return 0.5 * (1.0 - math.exp(-t / tphi))


def amplitude_damping(gamma: float) -> KrausChannel:
    """Single-qubit relaxation: |1><1| loses weight gamma to |0><0|."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma {gamma} outside [0, 1]")
    a0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel((a0, a1))


def dephasing(p: float) -> KrausChannel:
    """Single-qubit pure dephasing; off-diagonals scale by (1 - 2p)."""
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"dephasing probability {p} outside [0, 0.5]")
    return KrausChannel((math.sqrt(1 - p) * I2, math.sqrt(p) * Z))


def depolarizing(p: float, arity: int = 1) -> KrausChannel:
    """Standard depolarizing channel rho -> (1-p) rho + p I/d on 1 or 2
    qubits, i.e. a uniform mixture over all Paulis at full strength."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    if arity not in (1, 2):
        raise ValueError(f"arity must be 1 or 2, got {arity}")
    paulis_1q = [I2, X, Y, Z]
    if arity == 1:
        paulis = paulis_1q
    else:
        paulis = [np.kron(a, b) for a in paulis_1q for b in paulis_1q]
    n_all = len(paulis)
    ops = [math.sqrt(1 - p * (n_all - 1) / n_all) * paulis[0]]
    ops += [math.sqrt(p / n_all) * pauli for pauli in paulis[1:]]
    return KrausChannel(tuple(ops))


def apply_channel(
    rho: DensityMatrix, channel: KrausChannel, target: int | Sequence[int]
) -> DensityMatrix:
    """Apply a channel to the listed qubit(s), identity elsewhere."""
    targets = [target] if isinstance(target, int) else list(target)
    return apply_local(
        rho, channel.matrices(), targets,
        normalized=rho.normalized and channel.trace_property == "preserving")


def damp_dephase(rho: DensityMatrix, qubits: Sequence[int],
                 gamma: float | Sequence[float],
                 p: float | Sequence[float]) -> DensityMatrix:
    """AD(gamma) then dephasing(p) on each listed qubit; the dephasing is
    skipped where p = 0, and a p outside [0, 0.5] raises. ``gamma`` and
    ``p`` are shared scalars or one value per listed qubit."""
    qubits = list(qubits)
    gammas = np.broadcast_to(gamma, len(qubits))
    ps = np.broadcast_to(p, len(qubits))
    for q, g, pq in zip(qubits, gammas, ps):
        rho = apply_channel(rho, amplitude_damping(float(g)), q)
        if pq != 0:
            rho = apply_channel(rho, dephasing(float(pq)), q)
    return rho


def idle_noise(rho: DensityMatrix, duration: float, params: NoiseParams,
               qubits: Sequence[int] | None = None) -> DensityMatrix:
    """Free-evolution noise: AD(gamma(t)) then dephasing(p(t)) per qubit."""
    qubits = range(rho.qubit_count) if qubits is None else list(qubits)
    return damp_dephase(rho, qubits,
                        [gamma_of_t(duration, params.t1_of(q)) for q in qubits],
                        [p_of_t(duration, params.tphi_of(q)) for q in qubits])


def readout_flip(distribution: np.ndarray, e_meas: float,
                 e_meas_10: float | None = None) -> np.ndarray:
    """Convolve an outcome distribution with independent per-bit flips.

    ``e_meas`` is the 0->1 misreport probability; ``e_meas_10`` the 1->0
    rate (defaults to the symmetric value).
    """
    dist = np.asarray(distribution, dtype=float)
    m = dist.shape[0].bit_length() - 1
    if 2**m != dist.shape[0]:
        raise ValueError("distribution length must be a power of two")
    e01 = e_meas
    e10 = e_meas if e_meas_10 is None else e_meas_10
    confusion = np.array([[1 - e01, e10], [e01, 1 - e10]])
    out = dist.reshape((2,) * m)
    for axis in range(m):
        out = np.tensordot(confusion, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out.reshape(-1)
