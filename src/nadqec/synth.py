"""Variational circuit synthesis over the native gate set.

Targets are matched by minimizing the masked squared Frobenius distance
C(theta) = sum_{(i,j) in mask} |O_ij - U_ij(theta)|^2 from seeded
multi-start points. Both optimizers read one derivative, the exact
Jacobian of the masked residual: the encoder runs Levenberg-Marquardt on
the stacked real and imaginary residual (``_levenberg_marquardt``); the
recovery factor runs BFGS on the gradient that the Jacobian gives
(``_bfgs``), where a start whose cost stalls above the tolerance is ended
there (``_STALL_DECREASE``), which no start that meets the tolerance ever
is. The ansatz is applied one rotation layer at a time, each layer a
single 2^n x 2^n matrix with the preceding CZ layer's +-1 diagonal folded
in, and the Jacobian's columns are masked entries of suffix x generator x
prefix products.

Also holds the shared-factor split of the non-unitary recovery and the
block encoding of its diagonal part. The recovery factorization uses a
coordinate layout that places the two nonzero singular values at the
X-paired basis positions 000 and 100; in that gauge the two branch
factorizations share U and D exactly and the damping-branch V is the
X-conjugated no-damping one. A descending-order SVD cannot satisfy those
relations (the required completion column collides with an occupied one).
``canonical_recovery_split`` builds no basis of its own: U is the encoder
``code3.encoder_unitary`` with q0 flipped on its input, and V1 is the
encoder with its rows reversed.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np
from scipy import optimize as sciopt

from . import code3
from .circuits import Circuit, Gate, remapped


class Ansatz(NamedTuple):
    """Alternating single-qubit rotation layers (RX then RZ on every qubit)
    and CZ entangling layers over a line of qubits."""

    n_qubits: int
    layers: int

    @property
    def parameter_count(self) -> int:
        return 2 * self.n_qubits * (self.layers + 1)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((q, q + 1) for q in range(self.n_qubits - 1))

    def circuit(self, params: Sequence[float]) -> Circuit:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.parameter_count,):
            raise ValueError(
                f"expected {self.parameter_count} parameters, got {params.shape}"
            )
        angles = params.tolist()  # Python floats, as a Gate keeps them
        gates: list[Gate] = []
        k = 0
        for layer in range(self.layers + 1):
            for q in range(self.n_qubits):
                gates.append(Gate("RX", (q,), angles[k]))
                gates.append(Gate("RZ", (q,), angles[k + 1]))
                k += 2
            if layer < self.layers:
                for a, b in self.edges:
                    gates.append(Gate("CZ", (a, b)))
        return Circuit(self.n_qubits, tuple(gates))


class _AnsatzEvaluator:
    """Masked residual and its exact Jacobian for one synthesis problem, a
    layer at a time.

    U = R_L D ... D R_1 D R_0: each rotation layer is one matrix
    R_l = (x)_q RZ(b_q) RX(a_q) (qubit 0 most significant) and D is the CZ
    layer's +-1 diagonal, folded into W_l = R_l D (l >= 1, W_0 = R_0). The
    forward pass keeps the prefixes U_l = W_l U_{l-1}. With the suffix
    S_l = W_L ... W_{l+1} = U U_l^dag, the derivative of U by an angle of
    layer l on qubit q is S_l (-i/2) G U_l: G = Z for the RZ angle and
    G = RZ X RZ^dag = e^{-ib Z} X for the RX angle (RZ is last on its
    qubit), so G U_l is a row sign or a row gather with a phase. Both
    optimizers read this one Jacobian: LM as its stacked real and imaginary
    parts, BFGS as the gradient 2 Re(r^H J) of C = |r|^2.
    """

    def __init__(self, problem: SynthesisProblem):
        ansatz = problem.ansatz
        n = self.n_qubits = ansatz.n_qubits
        # diagonal of the CZ layer, the product over edges (a, b) of
        # (-1)^(bit_a bit_b) (qubit 0 the MSB): real +-1 entries, so it is
        # its own inverse
        bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        self.entangler = np.ones(2**n)
        for a, b in ansatz.edges:
            self.entangler[bits[:, a] & bits[:, b] == 1] *= -1
        self.n_params = ansatz.parameter_count
        self.rows, self.cols = problem.mask_indices()
        self.target_vals = problem.target[self.rows, self.cols]
        # the mask's distinct rows, and each entry's place among them (not
        # ``np.unique``, whose first call raises the peak memory by 0.5 MB)
        self.row_set = np.array(sorted(set(self.rows.tolist())))
        self.row_of = np.searchsorted(self.row_set, self.rows)
        # Z on qubit q as +-1 per row index, and the row index with qubit q
        # flipped (X on q as a row gather), each (qubit, 2^n)
        self.z_sign = 1.0 - 2 * bits.T
        self.x_flip = np.arange(2**n) ^ (1 << np.arange(n - 1, -1, -1))[:, None]

    def _forward(self, params: np.ndarray):
        """The RZ angles and the prefixes U_l."""
        if params.shape != (self.n_params,):
            raise ValueError(
                f"expected {self.n_params} parameters, got {params.shape}")
        a, b = params.reshape(-1, self.n_qubits, 2).T  # each (qubit, layer)
        ph = np.exp(-0.5j * b)
        # RZ(b) RX(a) = [[al, be], [-be*, al*]], al = ph cos(a/2) and
        # be = -i ph sin(a/2), one (qubit, layer, 2, 2) stack
        al, be = ph * np.cos(a / 2), -1j * ph * np.sin(a / 2)
        factors = np.stack([al, be, -be.conj(), al.conj()], axis=-1)
        # each layer the Kronecker product of its qubits' factors, qubit 0
        # outermost: (A (x) B)[2i + k, 2j + l] = A[i, j] B[k, l]
        rot, *rest = factors.reshape(self.n_qubits, -1, 2, 2)
        for f in rest:
            d = 2 * rot.shape[1]
            rot = (rot[:, :, None, :, None] * f[:, None, :, None, :]).reshape(-1, d, d)
        # W_l = R_l D for l >= 1: D's entries are +-1, so every product is
        # exact and W_l @ U_{l-1} equals R_l @ (D U_{l-1}) bit for bit
        rot[1:] *= self.entangler
        pre = np.empty_like(rot)
        pre[0] = rot[0]
        for layer in range(1, len(rot)):
            np.matmul(rot[layer], pre[layer - 1], out=pre[layer])
        return b, pre

    def unitary(self, params: np.ndarray) -> np.ndarray:
        return self._forward(params)[1][-1]

    def _columns(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The complex masked residual r = U - T and its Jacobian, one
        column per angle."""
        b, pre = self._forward(params)
        res = pre[-1][self.rows, self.cols] - self.target_vals
        # S_l = U U_l^dag, as U_l is unitary: the suffix rows the mask
        # reads, for its distinct rows at once, then one per mask entry;
        # s[l, j, k] = S_l[row_k, j] and u[l, j, k] = U_l[j, col_k], so a
        # masked entry of S_l G U_l is sum_j s[l, j, k] (G U_l)[j, col_k]
        # (``take`` keeps k the contiguous axis)
        s = np.take(pre.conj() @ pre[-1][self.row_set].T, self.row_of, axis=2)
        u = np.take(pre, self.cols, axis=2)
        # d[l, q] = the RX and the RZ column of layer l, qubit q, in the
        # parameters' order, each without its -i/2
        d = np.empty((len(pre), self.n_qubits, 2, u.shape[2]), complex)
        np.matmul(self.z_sign, s * u, out=d[:, :, 1])
        flipped = np.take(u, self.x_flip, axis=1)  # (layer, qubit, j, k)
        flipped *= s[:, None]
        phase = np.exp(-1j * b.T[:, :, None] * self.z_sign)
        np.matmul(phase[:, :, None], flipped, out=d[:, :, :1])
        return res, -0.5j * d.reshape(self.n_params, -1).T

    def gradient(self, params: np.ndarray) -> tuple[float, np.ndarray]:
        """The cost C = |r|^2 and its gradient 2 Re(r^H J), for BFGS."""
        res, jac = self._columns(params)
        return float(np.vdot(res, res).real), 2 * (res.conj() @ jac).real

    def jacobian(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The stacked real and imaginary residual f, with C = f.f, and its
        Jacobian, for LM."""
        res, jac = self._columns(params)
        return (np.concatenate([res.real, res.imag]),
                np.concatenate([jac.real, jac.imag]))


class SynthesisProblem(NamedTuple):
    target: np.ndarray
    ansatz: Ansatz
    mask: Sequence[tuple[int, int]]  # the (row, column) entries compared
    tolerance: float = 1e-10

    def mask_indices(self) -> tuple[np.ndarray, np.ndarray]:
        dim = self.target.shape[0]
        pairs = np.array(self.mask, dtype=int)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("mask must list (row, column) pairs")
        if pairs.min() < 0 or pairs.max() >= dim:
            raise ValueError(f"mask exceeds the {dim}x{dim} index range")
        return pairs[:, 0], pairs[:, 1]


class SynthesisResult(NamedTuple):
    params: np.ndarray
    cost: float
    converged: bool
    restarts_used: int


# A BFGS iteration that lowers the cost by less than this fraction of itself
# has stalled: the change is a few dozen ulps of the cost, where the line
# search can no longer tell descent from rounding, and further iterations
# only wear it down until scipy reports a loss of precision, at a cost that
# agrees to about 1e-14 relative. The rule ends a start only while its cost
# is above the tolerance, so a start that has met the tolerance is never
# cut. That a converging start never stalls on its way down is measured,
# not guaranteed: every start tested that converges without the rule
# (encoder and recovery factor at 3 and 4 layers; the tests check seeds
# 0-9) runs bit for bit as before. Deeper levels (5 to 8 layers) are not
# covered. The callback takes scipy's ``intermediate_result`` and ends
# the run with ``StopIteration``, both new in scipy 1.11.
_STALL_DECREASE = 1e-14


def _stall_stop(tolerance: float):
    """BFGS callback ending a start whose cost stalls above ``tolerance``."""
    last = math.inf

    def callback(intermediate_result):
        nonlocal last
        fun = float(intermediate_result.fun)
        if fun > tolerance and last - fun < _STALL_DECREASE * fun:
            raise StopIteration
        last = fun

    return callback


def _bfgs(evaluator: _AnsatzEvaluator, x0: np.ndarray,
          tolerance: float) -> tuple[np.ndarray, float]:
    """One BFGS start on the gradient 2 Re(r^H J), ended once it stalls
    above ``tolerance``."""
    res = sciopt.minimize(evaluator.gradient, x0, jac=True, method="BFGS",
                          callback=_stall_stop(tolerance),
                          options={"gtol": 1e-12, "maxiter": 400})
    return res.x, float(res.fun)


def _levenberg_marquardt(evaluator: _AnsatzEvaluator, x: np.ndarray,
                         tolerance: float) -> tuple[np.ndarray, float]:
    """One Levenberg-Marquardt start on the stacked residual and its exact
    Jacobian, with Nielsen's damping update (IMM-REP-1999-05).

    Each iteration solves (J^T J + mu I) step = -J^T f, so more angles than
    residuals need no special case. A step is kept when it lowers the cost
    C = f.f; mu then scales by max(1/3, 1 - (2 rho - 1)^3), rho being the
    actual over the predicted decrease, else mu grows by nu and nu doubles.
    The start ends at a cost of 1e-30, at a step of 1e-15 relative to x,
    when a kept step lowers a cost still above ``tolerance`` by 1e-15
    relative or less (a stall), when mu exceeds 1e20, or after 400
    iterations.
    """
    f, jac = evaluator.jacobian(x)
    c = float(f @ f)
    a, g = jac.T @ jac, jac.T @ f
    mu, nu = 1e-3 * float(np.max(np.diag(a))), 2.0
    eye = np.eye(x.size)
    for _ in range(400):
        if c <= 1e-30 or mu > 1e20:
            break
        step = np.linalg.solve(a + mu * eye, -g)
        if np.linalg.norm(step) <= 1e-15 * np.linalg.norm(x):
            break
        x_new = x + step
        f_new, jac_new = evaluator.jacobian(x_new)
        c_new = float(f_new @ f_new)
        if c_new >= c:
            mu, nu = mu * nu, 2 * nu
            continue
        rho = (c - c_new) / float(step @ (mu * step - g))
        stalled = c_new > tolerance and c - c_new <= 1e-15 * c
        x, f, jac, c = x_new, f_new, jac_new, c_new
        if stalled:
            break
        a, g = jac.T @ jac, jac.T @ f
        mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
    return x, c


def optimize(problem: SynthesisProblem, seed: int = 0, restarts: int = 20,
             _start=_bfgs) -> SynthesisResult:
    """Multi-start minimization of the masked cost.

    Deterministic for a given (problem, seed); restarts stop early once the
    problem tolerance is met. Each start runs ``_start`` (BFGS by default;
    ``_levenberg_marquardt`` for the encoder) from its own seeded point. A
    BFGS start whose cost stalls above the tolerance (an iteration lowering
    it by less than ``_STALL_DECREASE`` of itself) is ended there instead of
    running BFGS's line search into a loss of precision; a start that meets
    the tolerance is never ended early. Non-convergence is reported, not
    raised.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    evaluator = _AnsatzEvaluator(problem)
    best_x, best_c = None, math.inf
    for r in range(restarts):
        rng = np.random.default_rng((seed << 20) + r)
        x0 = rng.uniform(-math.pi, math.pi, evaluator.n_params)
        x, c = _start(evaluator, x0, problem.tolerance)
        if c < best_c:
            best_x, best_c = x, c
        if best_c <= problem.tolerance:
            break
    return SynthesisResult(best_x, best_c, best_c <= problem.tolerance, r + 1)


def synthesize(
    target: np.ndarray,
    mask: Sequence[tuple[int, int]],
    n_qubits: int,
    seed: int = 0,
    tolerance: float = 1e-10,
    restarts: int = 20,
    first_layers: int = 3,
    _start=_bfgs,
) -> tuple[Circuit, SynthesisResult]:
    """Depth-growing synthesis on a line of qubits: start at
    ``first_layers`` CZ layers, add one on failure, up to 8. Every level
    seeds its starts alike, so starting above levels that would fail
    changes no emitted circuit. The result's ``restarts_used`` counts the
    starts of every level tried. ``_start`` is the per-start optimizer
    that ``optimize`` runs."""
    starts = 0
    for layers in range(first_layers, 9):
        ansatz = Ansatz(n_qubits, layers)
        problem = SynthesisProblem(np.asarray(target, dtype=complex), ansatz,
                                   mask=mask, tolerance=tolerance)
        result = optimize(problem, seed=seed, restarts=restarts, _start=_start)
        starts += result.restarts_used
        if result.converged:
            break
    return ansatz.circuit(result.params), result._replace(restarts_used=starts)


# ---------------------------------------------------------------------------
# Shared-factor split of the recovery
# ---------------------------------------------------------------------------


# Coordinate layout of the canonical recovery factorization: singular value
# 1 at position 000, (1-gamma) at 100, the occupied zero directions at 011
# and 111 so that a doubly-controlled rotation on qubits 1, 2 flags them on
# the block ancilla.
_POS_SV1 = 0  # |000>
_POS_SVG = 4  # |100>
_POS_DEAD = (3, 7)  # |011>, |111>


class RecoverySplit(NamedTuple):
    u: np.ndarray
    d: np.ndarray


def canonical_recovery_split(gamma: float) -> RecoverySplit:
    """Shared-factor split of the two recovery operators.

    R_no-damping agrees with U D U^dag and R_damping with U D V1^dag on
    their parity branches, with V1 = (XxXxX) U (XxIxI), which
    ``build_recovery_circuit`` applies as X conjugations of U^dag. U is
    the read-only encoder with q0 flipped on its input (columns j and
    j ^ 4 swapped), so V1 is the encoder with its rows reversed. D is
    diagonal with entries 1 at 000, (1-gamma) at 100, 0 at the occupied
    dead coordinates 011 and 111, and 1 at the unreachable positions.
    """
    en = code3.encoder_unitary()
    u = en[:, np.arange(8) ^ 4]
    u.setflags(write=False)
    d = np.eye(8, dtype=complex)
    d[_POS_SVG, _POS_SVG] = 1 - gamma
    for pos in _POS_DEAD:
        d[pos, pos] = 0.0
    return RecoverySplit(u=u, d=d)


# ---------------------------------------------------------------------------
# Block encoding of the diagonal factor
# ---------------------------------------------------------------------------


def _cx_gates(control: int, target: int) -> list[Gate]:
    """CX from the native set: RY(-pi/2) t, CZ, RY(pi/2) t. Phase exact."""
    return [
        Gate("RY", (target,), -math.pi / 2),
        Gate("CZ", (control, target)),
        Gate("RY", (target,), math.pi / 2),
    ]


def multiplexed_ry(controls: Sequence[int], target: int,
                   angles: Sequence[float]) -> list[Gate]:
    """Uniformly controlled RY: applies RY(angles[x]) to the target for
    control pattern x (controls[0] = most significant). Exact, built from
    2^k RY and 2^k CX."""
    angles = np.asarray(angles, dtype=float)
    if angles.size != 2 ** len(controls):
        raise ValueError("need one angle per control pattern")
    if len(controls) == 0:
        return [Gate("RY", (target,), float(angles[0]))]
    half = angles.size // 2
    avg = (angles[:half] + angles[half:]) / 2
    diff = (angles[:half] - angles[half:]) / 2
    gates = multiplexed_ry(controls[1:], target, avg)
    gates += _cx_gates(controls[0], target)
    gates += multiplexed_ry(controls[1:], target, diff)
    gates += _cx_gates(controls[0], target)
    return gates


# Margolus-type 5-CZ realization of the gamma = 0 diagonal block on a
# (control, control, ancilla) line with only nearest-neighbour CZs: the
# ancilla-0-input columns equal those of the doubly-controlled RY(pi)
# exactly (the textbook 3-CNOT form needs a control adjacent to the
# ancilla, which the line does not provide; 4 CZs are insufficient on this
# topology, as the synthesis landscape bottoms out well above zero).
# Angle table found by the in-package optimizer and snapped to exact
# multiples of pi/12; rows are the six rotation layers, entries are
# (RZ, RX, RZ) Euler angles per qubit in units of pi/12.
_MARGOLUS_EULER_K = (
    (0, 12, -12, -6, -6, -12, -12, 6, 5),
    (0, 0, -6, -6, 3, 0, -1, -6, 6),
    (0, -12, -6, -12, 9, -6, -12, 5, 0),
    (-12, 0, 0, 0, -6, -6, -6, 6, -6),
    (-6, -12, 6, -6, -6, -12, 0, 6, 6),
    (6, -12, 0, 6, 6, -6, 0, -9, -6),
)
_MARGOLUS_CZ_ORDER = ((1, 2), (0, 1), (1, 2), (0, 1), (1, 2))


def margolus_circuit() -> Circuit:
    """The frozen 5-CZ Margolus-type block circuit on qubits
    (control, control, block ancilla)."""
    gates: list[Gate] = []
    for layer, row in enumerate(_MARGOLUS_EULER_K):
        for q in range(3):
            a, b, c = row[3 * q: 3 * q + 3]
            for name, k in (("RZ", a), ("RX", b), ("RZ", c)):
                if k != 0:
                    gates.append(Gate(name, (q,), k * math.pi / 12))
        if layer < len(_MARGOLUS_CZ_ORDER):
            gates.append(Gate("CZ", _MARGOLUS_CZ_ORDER[layer]))
    return Circuit(3, tuple(gates))


def diagonal_block_circuit(diag: Sequence[float]) -> Circuit:
    """Exact circuit block-encoding an arbitrary diagonal with entries in
    [0, 1]: one multiplexed RY onto a fresh trailing ancilla, with angles
    2*arccos(d_i)."""
    diag = np.real_if_close(np.asarray(diag))
    if np.any((diag < -1e-12) | (diag > 1 + 1e-12)):
        raise ValueError(f"diagonal entries must lie in [0, 1], got {diag}")
    n = int(round(math.log2(diag.size)))
    if 2**n != diag.size:
        raise ValueError("diagonal length must be a power of two")
    angles = [2 * math.acos(float(np.clip(d, 0.0, 1.0))) for d in diag]
    return Circuit(n + 1, tuple(multiplexed_ry(list(range(n)), n, angles)))


def block_encode_diagonal(gamma: float) -> Circuit:
    """Circuit realization of the recovery's diagonal factor D on a
    (q0, q1, q2, block ancilla) register, its ancilla-0 block equal to
    ``canonical_recovery_split(gamma).d``.

    At gamma == 0 this is the 5-CZ Margolus-type block on (q1, q2,
    ancilla) only; otherwise one multiplexed RY carrying 2*arccos of each
    diagonal entry (14 CZ).
    """
    if gamma == 0:
        return remapped(margolus_circuit(), {0: 1, 1: 2, 2: 3}, 4)
    return diagonal_block_circuit(np.real(np.diag(canonical_recovery_split(gamma).d)))


# ---------------------------------------------------------------------------
# Recovery circuit assembly and verification
# ---------------------------------------------------------------------------


def encoder_target() -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Masked encoder synthesis target: |000> -> |0_L>, |100> -> |1_L>
    (only those two columns of ``code3.encoder_unitary`` matter, column 0's
    rows then column 4's)."""
    target = np.zeros((8, 8), complex)
    target[:, [0, 4]] = code3.encoder_unitary()[:, [0, 4]]
    return target, [(i, j) for j in (0, 4) for i in range(8)]


def recovery_u_target() -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Masked target for the shared recovery unitary U.

    Pins the two live columns (000 -> |1_L>, 100 -> |0_L>) by value and
    confines the dead columns 011 and 111 to the odd-parity subspace, which
    is exactly what the composite U D V^dag needs to reproduce the recovery
    on its branches.
    """
    split = canonical_recovery_split(0.0)
    target = np.zeros((8, 8), complex)
    target[:, _POS_SV1] = split.u[:, _POS_SV1]
    target[:, _POS_SVG] = split.u[:, _POS_SVG]
    pairs = [(i, j) for j in (_POS_SV1, _POS_SVG) for i in range(8)]
    even_rows = [0, 3, 5, 6]
    pairs += [(i, j) for j in _POS_DEAD for i in even_rows]
    return target, pairs


def synthesize_encoder(seed: int = 7, **kwargs) -> tuple[Circuit, SynthesisResult]:
    """The encoder by Levenberg-Marquardt, which converges more of its
    starts at 3 CZ layers than BFGS (README, "Synthesis notes")."""
    target, mask = encoder_target()
    return synthesize(target, mask, 3, seed=seed,
                      _start=_levenberg_marquardt, **kwargs)


def synthesize_recovery_u(seed: int = 11, **kwargs) -> tuple[Circuit, SynthesisResult]:
    """U from 4 CZ layers up: none of 1000 BFGS starts converges at 3
    (README, "Synthesis notes"), so that level would only spend starts."""
    target, mask = recovery_u_target()
    return synthesize(target, mask, 3, seed=seed, first_layers=4, **kwargs)


def build_recovery_circuit(u_circuit: Circuit, gamma: float = 0.0) -> Circuit:
    """Full syndrome-conditioned recovery adapted to ``gamma`` on
    (q0, q1, q2, a1, a2).

    Applies V^dag conditioned on the syndrome ancilla a1 (plain U^dag for
    a1 = 1, X-conjugated for a1 = 0), the diagonal block encoding of
    ``block_encode_diagonal(gamma)`` on a2, then U. Anti-controls on a1
    are X-conjugated CXs.
    """
    if u_circuit.n_qubits != 3:
        raise ValueError("recovery factor circuit must act on 3 qubits")
    u5 = remapped(u_circuit, {0: 0, 1: 1, 2: 2}, 5)
    d5 = remapped(block_encode_diagonal(gamma), {0: 0, 1: 1, 2: 2, 3: 4}, 5)
    gates: list[Gate] = [Gate("X", (3,))]
    for q in range(3):  # XXX on data when a1 = 0
        gates += _cx_gates(3, q)
    gates += list(u5.inverse().gates)
    gates += _cx_gates(3, 0)  # X on q0 when a1 = 0
    gates.append(Gate("X", (3,)))
    gates += list(d5.gates)
    gates += list(u5.gates)
    return Circuit(5, tuple(gates))


class RecoveryVerification(NamedTuple):
    max_deviation: float
    cz_count: int
    passed: bool


def verify_recovery_circuit(circ: Circuit,
                            rmap: "code3.RecoveryMap") -> RecoveryVerification:
    """Compare the circuit's post-selected action, the Kraus pair of
    ``RecoveryMap.synthesized`` on its unitary, with ``rmap``'s branch by
    branch; it passes below a 1e-6 deviation."""
    if circ.n_qubits != 5:
        raise ValueError("expected the 5-qubit combined recovery circuit")
    got = code3.RecoveryMap.synthesized(circ.unitary()).kraus()
    max_dev = max(_channel_deviation(a, b) for a, b in zip(got, rmap.kraus()))
    return RecoveryVerification(max_deviation=max_dev, cz_count=circ.count("CZ"),
                                passed=max_dev < 1e-6)


def _channel_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry distance between a and b after aligning the global phase
    (density-matrix semantics make a global phase unobservable)."""
    inner = np.vdot(a.ravel(), b.ravel())
    phase = inner / abs(inner) if abs(inner) > 1e-12 else 1.0
    return float(np.max(np.abs(a * phase - b)))
