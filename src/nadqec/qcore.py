"""Dense complex linear algebra for small qubit registers.

Index convention used by every module in this package: qubit 0 is the MOST
significant bit of a computational-basis index. A 3-qubit basis state
|q0 q1 q2> has index q0*4 + q1*2 + q2, so |100> lives at index 4. Tensor
products place the left operand on the high-order qubits.

Registers here never exceed 7 qubits (dim 128), so everything is a dense
complex ndarray; no sparsity machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# Tolerance constants shared across the package. STRUCT covers structural
# checks (unitarity, positivity), ARITH covers plain arithmetic residues.
TOL_STRUCT = 1e-10
TOL_ARITH = 1e-12

ArrayLike = Union[np.ndarray, Sequence]


def _as_complex(a: ArrayLike) -> np.ndarray:
    arr = np.array(a, dtype=complex)
    arr.setflags(write=False)
    return arr


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return n


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on an n-qubit register."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _as_complex(self.amplitudes))
        _qubit_count(self.dim)
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > TOL_ARITH:
            raise ValueError(f"state not normalized: |psi| = {norm}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def qubit_count(self) -> int:
        return _qubit_count(self.dim)

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def check_density(data: np.ndarray, normalized: bool = True) -> None:
    """Raise ValueError unless ``data``, one (d, d) matrix or an (n, d, d)
    stack of them, is Hermitian within TOL_ARITH, of unit trace within
    TOL_ARITH when ``normalized``, and positive semidefinite within
    TOL_STRUCT; a stack is checked in one call and reports its worst
    matrix."""
    if data.size == 0:
        return
    herm = abs(data - data.swapaxes(-1, -2).conj()).max()
    if herm > TOL_ARITH:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm}")
    if normalized:
        traces = data.trace(0, -2, -1).real.ravel()
        off = abs(traces - 1.0)
        if off.max() > TOL_ARITH:
            raise ValueError(f"trace {traces[off.argmax()]} != 1 for "
                             f"normalized matrix")
    min_eig = min(np.linalg.eigvalsh(data)[..., 0].flat)
    if min_eig < -TOL_STRUCT:
        raise ValueError(f"not positive semidefinite: min eigenvalue {min_eig}")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite matrix on an n-qubit register.

    ``normalized=False`` marks a sub-normalized post-selection branch whose
    weight is carried in the trace.
    """

    data: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        object.__setattr__(self, "data", _as_complex(self.data))
        if self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]:
            raise ValueError("density matrix must be square")
        _qubit_count(self.dim)
        check_density(self.data, self.normalized)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def qubit_count(self) -> int:
        return _qubit_count(self.dim)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.data)))

    def normalize(self) -> "DensityMatrix":
        t = self.trace
        if t <= 0:
            raise ValueError("cannot normalize a zero-trace matrix")
        return DensityMatrix(self.data / t)


# ---------------------------------------------------------------------------
# Fixed gate matrices (raw ndarrays)
# ---------------------------------------------------------------------------

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)


def rx(theta: float) -> np.ndarray:
    """exp(-i theta X / 2)"""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """exp(-i theta Y / 2)"""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """exp(-i theta Z / 2)"""
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex
    )


def basis_state(n_qubits: int, index: int) -> PureState:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)


# ---------------------------------------------------------------------------
# Register operations
# ---------------------------------------------------------------------------


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


def fidelity(rho: DensityMatrix, psi: PureState) -> float:
    """<psi| rho |psi> for a normalized rho and pure target."""
    if rho.dim != psi.dim:
        raise ValueError(f"dimension mismatch: rho {rho.dim}, psi {psi.dim}")
    val = psi.amplitudes.conj() @ rho.data @ psi.amplitudes
    if abs(val.imag) > 100 * TOL_ARITH:
        raise ValueError(f"fidelity has imaginary residue {val.imag}")
    return float(val.real)
