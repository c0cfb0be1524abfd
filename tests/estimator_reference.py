"""The measured estimator circuit applied gate by gate.

An independent reference for ``nadqec.code3.measured_circuit_distribution``,
which applies the circuit in compiled form: here every gate, the noise
channel and the 5-qubit recovery unitary act on the full (q0, q1, q2, a1,
a2) density matrix in turn (``noise_reference.apply_kraus``), with parity
extracted by three CNOTs.
``combined_recovery_unitary_embed`` builds the 5-qubit recovery unitary by
lifting each branch's block encoding with ``embed``.
"""

from typing import Optional

import numpy as np
from noise_reference import apply_kraus, damp_dephase

from nadqec.code3 import (
    LogicalStateSpec,
    RecoveryMap,
    block_unitary,
    combined_recovery_unitary,
    encoder_unitary,
    prep_unitary,
)
from nadqec.qcore import (
    DensityMatrix,
    basis_state,
    embed,
    measure_computational,
)

CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
              dtype=complex)


def syndrome_extract(rho: DensityMatrix) -> DensityMatrix:
    """Parity extraction onto ancilla qubit 3 of a register whose qubits
    0..2 are the data (4 or more qubits).

    Three CNOTs (data -> ancilla) leave the ancilla in |1> on the odd-parity
    (no-damping) branch and |0> on the even-parity (single-damping) branch.
    """
    if rho.qubit_count < 4:
        raise ValueError(f"expected 3 data + 1 ancilla, got {rho.qubit_count} qubits")
    for q in range(3):
        rho = apply_kraus(rho, [CX], [q, 3])
    return rho


def combined_recovery_unitary_embed(gamma: float,
                                    rmap: Optional[RecoveryMap] = None) -> np.ndarray:
    """5-qubit unitary applying the branch recovery conditioned on a1.

    a1 = 1 selects the no-damping operator, a1 = 0 the single-damping one;
    a2 is the block-encoding ancilla whose 0 outcome flags success.
    """
    if rmap is None:
        rmap = RecoveryMap.ideal(gamma)
    r0, r1 = rmap.operators()
    w0 = block_unitary(r0)  # on (a2, data)
    w1 = block_unitary(r1)
    w0_full = embed(w0, [4, 0, 1, 2], 5)
    w1_full = embed(w1, [4, 0, 1, 2], 5)
    p1_a1 = embed(np.array([[0, 0], [0, 1]], dtype=complex), [3], 5)
    p0_a1 = embed(np.array([[1, 0], [0, 0]], dtype=complex), [3], 5)
    return p1_a1 @ w0_full + p0_a1 @ w1_full


def measured_circuit_distribution(
    spec: LogicalStateSpec,
    gamma: float,
    p: float,
    rmap: Optional[RecoveryMap] = None,
    encoder: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Outcome distribution of the full measured estimator circuit.

    Runs G, the encoder, the noise channel, syndrome extraction, the
    block-encoded recovery, then the inverted encoder and G^dag, and
    measures (q0, q1, q2, a2). The all-zero probability conditioned on
    a2 = 0 equals the post-selected state fidelity.
    """
    if rmap is None:
        rmap = RecoveryMap.ideal(gamma)
    psi0 = basis_state(5, 0).to_density_matrix()
    g = prep_unitary(spec)
    en = encoder_unitary() if encoder is None else np.asarray(encoder, complex)
    rho = apply_kraus(psi0, [g], [0])
    rho = apply_kraus(rho, [en], [0, 1, 2])
    rho = damp_dephase(rho, range(3), gamma, p)
    rho = syndrome_extract(rho)
    if rmap.variant == "synthesized":
        w5 = rmap.unitary
    else:
        w5 = combined_recovery_unitary(rmap)
    rho = apply_kraus(rho, [w5], range(5))
    rho = apply_kraus(rho, [en.conj().T], [0, 1, 2])
    rho = apply_kraus(rho, [g.conj().T], [0])
    return measure_computational(rho, [0, 1, 2, 4])
