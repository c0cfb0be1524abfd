"""The measured estimator circuit applied gate by gate.

An independent reference for ``nadqec.code3.measured_circuit_distribution``,
which applies the circuit in compiled form: here every gate, the noise
channel and the 5-qubit recovery unitary act on the full (q0, q1, q2, a1,
a2) density matrix in turn (``noise_reference.apply_kraus``), with parity
extracted by three CNOTs and the outcome read from the reduced state
(``measure_computational``).
The 5-qubit recovery unitary is built in full from the two recovery
operators (``recovery_operators``): ``block_unitary`` embeds
each branch operator by SVD, ``combined_recovery_unitary`` places the two
blocks by a1, and ``combined_recovery_unitary_embed`` builds the same
unitary by lifting each block with ``embed``. ``parity_projectors`` gives
the parity split that the recovery's Kraus operators are checked with.
"""

from typing import Optional, Sequence

import numpy as np
from noise_reference import (
    _qubit_count,
    apply_kraus,
    damp_dephase,
    embed,
    ket,
    partial_trace,
    pure,
)

from nadqec.code3 import (
    LogicalStateSpec,
    codeword,
    encoder_unitary,
    prep_unitary,
)

CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
              dtype=complex)


def recovery_operators(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The two noise-adapted recovery operators, which
    ``nadqec.code3.RecoveryMap.ideal`` block-encodes:

    R0 = (1-gamma)|0_L><0_L| + |1_L><1_L|           (no-damping branch)
    R1 = (1-gamma)|0_L><000|
         + |1_L>(<011| + <101| + <110|)/sqrt(3)     (single-damping branch)

    The last bra is |0_L> with its rows reversed.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma {gamma} outside [0, 1]")
    zero, one = codeword(0), codeword(1)
    e000 = np.zeros(8, dtype=complex)
    e000[0] = 1.0
    return ((1 - gamma) * np.outer(zero, zero.conj()) + np.outer(one, one.conj()),
            (1 - gamma) * np.outer(zero, e000.conj()) + np.outer(one, zero[::-1].conj()))


def syndrome_extract(rho: np.ndarray) -> np.ndarray:
    """Parity extraction onto ancilla qubit 3 of a register whose qubits
    0..2 are the data (4 or more qubits).

    Three CNOTs (data -> ancilla) leave the ancilla in |1> on the odd-parity
    (no-damping) branch and |0> on the even-parity (single-damping) branch.
    """
    n = _qubit_count(rho.shape[0])
    if n < 4:
        raise ValueError(f"expected 3 data + 1 ancilla, got {n} qubits")
    for q in range(3):
        rho = apply_kraus(rho, [CX], [q, 3])
    return rho


def measure_computational(rho: np.ndarray, qubits: Sequence[int],
                          normalized: bool = True) -> np.ndarray:
    """Outcome distribution over the listed qubits.

    Entry ``b`` is the probability that reading ``qubits`` (first listed =
    most significant bit of ``b``) yields the bits of ``b``. The complement
    register is traced out, and the reduced state checked as a density
    matrix, sub-normalized unless ``normalized``.
    """
    qubits = list(qubits)
    if not qubits:
        raise ValueError("empty measurement qubit set")
    n = _qubit_count(rho.shape[0])
    if len(set(qubits)) != len(qubits) or any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"invalid measurement qubits {qubits}")
    diag = np.real(np.diag(partial_trace(rho, qubits, normalized)))
    # partial_trace keeps ascending register order; permute to listed order
    asc = sorted(qubits)
    return diag.reshape((2,) * len(qubits)).transpose(
        [asc.index(q) for q in qubits]).flatten()


def parity_projectors() -> tuple[np.ndarray, np.ndarray]:
    """(P_odd, P_even) over the 3-qubit computational basis."""
    p_odd = np.diag([bin(d).count("1") % 2 for d in range(8)]).astype(complex)
    return p_odd, np.eye(8) - p_odd


def block_unitary(r: np.ndarray) -> np.ndarray:
    """Embed a trace-non-increasing operator as the ancilla-0 block of a
    unitary on (ancilla, data): W = [[R, S'], [S, -R^dag]] with
    S = sqrt(I - R^dag R) and S' = sqrt(I - R R^dag).

    Both roots come from one SVD R = U diag(s) V^dag, as V c V^dag and
    U c U^dag with c = sqrt(1 - s^2). Separate eigendecompositions would put
    the sqrt of rounding noise (about 1e-8) on directions where s = 1, where
    it need not cancel between S and S'.
    """
    r = np.asarray(r, dtype=complex)
    dim = r.shape[0]
    u, sv, vh = np.linalg.svd(r)
    c = np.sqrt(np.clip(1.0 - sv**2, 0.0, None))
    s_in = (vh.conj().T * c) @ vh
    s_out = (u * c) @ u.conj().T
    w = np.block([[r, s_out], [s_in, -r.conj().T]])
    dev = np.max(np.abs(w.conj().T @ w - np.eye(2 * dim)))
    if dev > 1e-9:
        raise ValueError(f"block completion failed to be unitary: deviation {dev}")
    return w


def combined_recovery_unitary(r0: np.ndarray, r1: np.ndarray) -> np.ndarray:
    """5-qubit unitary applying the branch recovery conditioned on a1.

    a1 = 1 selects the no-damping operator r0, a1 = 0 the single-damping
    one r1; a2 is the block-encoding ancilla whose 0 outcome flags success.
    """
    u = np.zeros((8, 2, 2, 8, 2, 2), dtype=complex)  # (d, a1, a2, d', a1', a2')
    for a1, r in ((1, r0), (0, r1)):
        w = block_unitary(r).reshape(2, 8, 2, 8)  # on (a2, data)
        u[:, a1, :, :, a1, :] = w.transpose(1, 0, 3, 2)
    return u.reshape(32, 32)


def combined_recovery_unitary_embed(r0: np.ndarray, r1: np.ndarray) -> np.ndarray:
    """:func:`combined_recovery_unitary` built by lifting each branch's
    block encoding onto the 5-qubit register with ``embed``."""
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
    w: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Outcome distribution of the full measured estimator circuit.

    Runs G, the encoder, the noise channel, syndrome extraction, the
    block-encoded recovery W (by default the gamma-adapted one,
    :func:`combined_recovery_unitary` of ``recovery_operators(gamma)``),
    then the inverted encoder and G^dag, and measures (q0, q1, q2, a2).
    The all-zero probability conditioned on a2 = 0 equals the
    post-selected state fidelity.
    """
    if w is None:
        w = combined_recovery_unitary(*recovery_operators(gamma))
    psi0 = pure(ket(5, 0))
    g = prep_unitary(spec)
    en = encoder_unitary()
    rho = apply_kraus(psi0, [g], [0])
    rho = apply_kraus(rho, [en], [0, 1, 2])
    rho = damp_dephase(rho, range(3), gamma, p)
    rho = syndrome_extract(rho)
    rho = apply_kraus(rho, [w], range(5))
    rho = apply_kraus(rho, [en.conj().T], [0, 1, 2])
    rho = apply_kraus(rho, [g.conj().T], [0])
    return measure_computational(rho, [0, 1, 2, 4], normalized=False)
