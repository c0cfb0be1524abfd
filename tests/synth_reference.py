"""The synthesis cost and adjoint gradient applied one gate at a time, and
circuit compilation by full-register products.

An independent reference for ``nadqec.synth._AnsatzEvaluator``, which
builds each rotation layer of the ansatz as one matrix and reads both
optimizers' derivatives off the exact Jacobian of the masked residual: here
every RX and RZ is its own 2x2 rotation, applied to the qubit's row index
and peeled off again in an adjoint backward sweep. ``circuit_unitary`` is
the reference for ``Circuit.unitary``, which applies a CZ as a row sign and
a 1-qubit gate as one 2x2 product on a reshaped view: here every gate is
lifted to the whole register with ``noise_reference.embed`` and multiplied
in as a 2^n x 2^n matrix. ``circuit_unitary_by_axes`` is the second
reference, the ``tensordot`` contraction on each gate's own qubit axes.
"""

import math

import numpy as np
from noise_reference import embed

from nadqec.circuits import Circuit
from nadqec.synth import SynthesisProblem


def circuit_unitary(circ: Circuit) -> np.ndarray:
    """The circuit's matrix, each gate embedded in the full register
    (gates applied left to right)."""
    u = np.eye(2**circ.n_qubits, dtype=complex)
    for g in circ.gates:
        u = embed(g.matrix(), list(g.qubits), circ.n_qubits) @ u
    return u


def circuit_unitary_by_axes(circ: Circuit) -> np.ndarray:
    """The circuit's matrix, each gate contracted into its own qubits' row
    axes of the (2,)*n + (2^n,) view with ``tensordot`` (gates applied left
    to right)."""
    n, dim = circ.n_qubits, 2**circ.n_qubits
    u = np.eye(dim, dtype=complex)
    for g in circ.gates:
        k = len(g.qubits)
        m = g.matrix().reshape((2,) * (2 * k))
        t = np.tensordot(m, u.reshape((2,) * n + (dim,)),
                         axes=(list(range(k, 2 * k)), list(g.qubits)))
        u = np.moveaxis(t, list(range(k)), list(g.qubits)).reshape(dim, dim)
    return u


class AnsatzEvaluator:
    """Cost and exact gradient of one synthesis problem.

    The ansatz is a fixed sequence of Pauli rotations exp(-i theta_k G_k / 2)
    and diagonal CZ layers. The gradient is adjoint: a forward sweep builds U
    and the masked residual E = U - T, a backward sweep peels each gate off
    both, and dC/dtheta_k = Re <E_k, -i G_k U_k> where U_k, E_k are U, E
    with every gate after gate k peeled off.
    """

    def __init__(self, problem: SynthesisProblem):
        ansatz = problem.ansatz
        n = ansatz.n_qubits
        # diagonal of the CZ layer: real +-1 entries, so it is its own inverse
        self.entangler = np.ones(2**n)
        for a, b in ansatz.edges:
            self.entangler *= np.diag(embed(np.diag([1, 1, 1, -1]), [a, b], n)).real
        self.n_params = ansatz.parameter_count
        # application order: (parameter index, qubit, generator), None = CZ layer
        self.ops: list = []
        k = 0
        for layer in range(ansatz.layers + 1):
            for q in range(n):
                self.ops += [(k, q, _PAULI_X), (k + 1, q, _PAULI_Z)]
                k += 2
            if layer < ansatz.layers:
                self.ops.append(None)
        self.rows, self.cols = problem.mask_indices()
        self.target_vals = problem.target[self.rows, self.cols]

    def unitary(self, params: np.ndarray) -> np.ndarray:
        if params.shape != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} parameters, got {params.shape}")
        u = np.eye(self.entangler.size, dtype=complex)
        for op in self.ops:
            if op is None:
                u = self.entangler[:, None] * u
            else:
                k, q, gen = op
                u = _apply_1q(_rot(gen, params[k]), u, q)
        return u

    def residual(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """U and the masked U - T."""
        u = self.unitary(params)
        return u, u[self.rows, self.cols] - self.target_vals

    def gradient(self, params: np.ndarray) -> tuple[float, np.ndarray]:
        """Cost and its exact gradient from one forward and one backward
        sweep."""
        u, res = self.residual(params)
        e = np.zeros_like(u)
        np.add.at(e, (self.rows, self.cols), res)
        dim = u.shape[0]
        w = np.hstack([u, e])  # peel U and E together
        grad = np.empty(self.n_params)
        for op in reversed(self.ops):
            if op is None:
                w = self.entangler[:, None] * w
                continue
            k, q, gen = op
            # Re <E, -i G U> = Im <E, G U>
            grad[k] = np.vdot(w[:, dim:], _apply_1q(gen, w[:, :dim], q)).imag
            w = _apply_1q(_rot(gen, -params[k]), w, q)
        return float(np.sum(np.abs(res) ** 2)), grad


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Z = np.diag([1, -1]).astype(complex)


def _rot(generator: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t G / 2) for a Pauli generator G."""
    return math.cos(t / 2) * np.eye(2) - 1j * math.sin(t / 2) * generator


def _apply_1q(g: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    """g on qubit q of the row index of u (u may carry any column count)."""
    return (g @ u.reshape(2**q, 2, -1)).reshape(u.shape)
