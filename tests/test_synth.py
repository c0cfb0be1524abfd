"""Synthesis: cost function, optimizer determinism, the shared recovery
split, block encoding, and the assembled recovery circuit.

Slow full-synthesis runs live in the acceptance suite; here the optimizer
is exercised on small problems and the recovery factor circuit is
synthesized once at module scope and reused.
"""

import math

import numpy as np
import pytest
from estimator_reference import parity_projectors, recovery_operators
from hypothesis import example, given, settings
from hypothesis import strategies as st
from noise_reference import embed
from synth_reference import AnsatzEvaluator as GateByGateEvaluator

from nadqec import code3, synth
from nadqec.circuits import Circuit, Gate
from nadqec.qcore import ConfigError, ry, rz
from nadqec.synth import (
    Ansatz,
    SynthesisProblem,
    block_encode_diagonal,
    build_recovery_circuit,
    canonical_recovery_split,
    margolus_circuit,
    multiplexed_ry,
    optimize,
    synthesize_encoder,
    verify_recovery_circuit,
)

XMAT = np.array([[0, 1], [1, 0]], dtype=complex)


def full_mask(dim):
    """Every entry of a dim x dim target, row by row."""
    return [(i, j) for i in range(dim) for j in range(dim)]


def column_mask(columns, dim):
    """Every row of each listed column, column by column."""
    return [(i, j) for j in columns for i in range(dim)]


def gradient(evaluator, x):
    """The masked cost C = f.f = |U - T|^2 and its gradient 2 J^T f, from
    the package's stacked residual f and Jacobian J."""
    f, jac = evaluator.jacobian(x)
    return float(f @ f), 2 * jac.T @ f


def cost(problem, params):
    """The package's masked cost C = |U - T|^2."""
    x = np.asarray(params, dtype=float)
    return gradient(synth._AnsatzEvaluator(problem), x)[0]


def residual(evaluator, x):
    """The masked U - T, read off the evaluator's unitary."""
    return evaluator.unitary(x)[evaluator.rows, evaluator.cols] \
        - evaluator.target_vals


@pytest.fixture(scope="module")
def recovery_u():
    circ, res = synth.synthesize_recovery_u(seed=11, tolerance=1e-12)
    assert res.converged
    return circ


class TestCost:
    def test_self_consistency_zero(self):
        ansatz = Ansatz(2, 1)
        rng = np.random.default_rng(0)
        params = rng.uniform(-math.pi, math.pi, ansatz.parameter_count)
        target = ansatz.circuit(params).unitary()
        problem = SynthesisProblem(target, ansatz, full_mask(4))
        assert cost(problem, params) < 1e-20

    def test_zero_angles_leave_cz_residue(self):
        ansatz = Ansatz(2, 1)
        problem = SynthesisProblem(np.eye(4, dtype=complex), ansatz, full_mask(4))
        c = cost(problem, np.zeros(ansatz.parameter_count))
        assert c > 1.0  # the CZ layer cannot cancel at zero rotation angles

    def test_column_mask_no_larger_than_full(self):
        ansatz = Ansatz(2, 1)
        rng = np.random.default_rng(1)
        params = rng.uniform(-math.pi, math.pi, ansatz.parameter_count)
        target = np.eye(4, dtype=complex)
        full = cost(SynthesisProblem(target, ansatz, full_mask(4)), params)
        masked = cost(SynthesisProblem(target, ansatz, column_mask([0, 1], 4)),
                      params)
        assert masked <= full + 1e-15

    def test_parameter_count_checked(self):
        ansatz = Ansatz(2, 1)
        problem = SynthesisProblem(np.eye(4, dtype=complex), ansatz, full_mask(4))
        for n in (7, 9):
            with pytest.raises(ValueError, match="expected 8 parameters"):
                cost(problem, np.zeros(n))

    def test_shape_mismatch(self):
        ansatz = Ansatz(2, 1)
        with pytest.raises(ValueError, match="expected 8 parameters"):
            cost(SynthesisProblem(np.eye(4, dtype=complex), ansatz,
                                  full_mask(4)), [0.0])

    def test_default_gate_set_fits_two_qubits(self):
        ansatz = Ansatz(2, 1)
        assert ansatz.circuit(np.zeros(8)).count("CZ") == 1
        c = cost(SynthesisProblem(np.eye(4, dtype=complex), ansatz, full_mask(4)),
                 np.zeros(8))
        assert abs(c - 4.0) < 1e-12  # the CZ layer alone: |(-1) - 1|^2


class TestRecords:
    def test_fields_defaults_and_immutability(self):
        # each record's fields, in order, with their defaults; none can be
        # reassigned, and a result changes only into a new record
        assert Ansatz._fields == ("n_qubits", "layers")
        assert SynthesisProblem._fields == ("target", "ansatz", "mask",
                                            "tolerance")
        assert SynthesisProblem._field_defaults == {"tolerance": 1e-10}
        assert synth.SynthesisResult._fields == ("params", "cost",
                                                 "converged", "restarts_used")
        assert synth.RecoverySplit._fields == ("u", "d")
        assert synth.RecoveryVerification._fields == ("max_deviation",
                                                      "cz_count", "passed")
        ansatz = Ansatz(2, 1)
        problem = SynthesisProblem(np.eye(4, dtype=complex), ansatz, [(0, 0)])
        result = optimize(problem, seed=0, restarts=1)
        for record, field in ((ansatz, "layers"), (problem, "tolerance"),
                              (result, "restarts_used")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
        assert result._replace(restarts_used=5).restarts_used == 5
        assert result.restarts_used == 1


class TestOptimize:
    def test_single_qubit_euler_complete(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(a)
        q = q / np.sqrt(np.linalg.det(q) + 0j)  # special-unitary target
        ansatz = Ansatz(1, 1)
        problem = SynthesisProblem(q, ansatz, full_mask(2), tolerance=1e-10)
        res = optimize(problem, seed=3, restarts=8)
        assert res.cost < 1e-8

    def test_deterministic_given_seed(self):
        ansatz = Ansatz(1, 1)
        target = rz(0.4) @ ry(0.0) @ rz(0.0) @ np.eye(2)
        problem = SynthesisProblem(target.astype(complex), ansatz, full_mask(2),
                                   tolerance=1e-12)
        a = optimize(problem, seed=9, restarts=3)
        b = optimize(problem, seed=9, restarts=3)
        np.testing.assert_array_equal(a.params, b.params)
        assert a.cost == b.cost

    def test_restarts_must_be_positive(self):
        ansatz = Ansatz(1, 0)
        problem = SynthesisProblem(np.eye(2, dtype=complex), ansatz, full_mask(2))
        for restarts in (0, -1):
            with pytest.raises(ConfigError, match="^'restarts' must be an integer "
                                                  "from 1 to 1000, got "):
                optimize(problem, seed=0, restarts=restarts)

    def test_failure_reported_not_raised(self):
        # a target outside the ansatz's reach (wrong dimension parity trick:
        # a 2-design-free single layer cannot make a swap-like doubly
        # entangling unitary)
        swapish = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        ansatz = Ansatz(2, 0)  # no entangler at all
        problem = SynthesisProblem(swapish, ansatz, full_mask(4), tolerance=1e-10)
        res = optimize(problem, seed=0, restarts=2)
        assert not res.converged
        assert res.cost > 1e-3


def _random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(a)[0]


_PROBLEMS = pytest.mark.parametrize("make_problem", [
    lambda rng: SynthesisProblem(synth.encoder_target()[0], Ansatz(3, 3),
                                 mask=synth.encoder_target()[1]),
    lambda rng: SynthesisProblem(synth.recovery_u_target()[0], Ansatz(3, 4),
                                 mask=synth.recovery_u_target()[1]),
    lambda rng: SynthesisProblem(_random_unitary(rng, 8), Ansatz(3, 2),
                                 mask=column_mask([1, 6], 8)),
], ids=["column-mask", "pair-mask", "random-target"])


class TestGradient:
    """The cost's gradient against central differences of ``cost``."""

    @_PROBLEMS
    def test_matches_central_differences(self, make_problem):
        rng = np.random.default_rng(21)
        problem = make_problem(rng)
        x = rng.uniform(-math.pi, math.pi, problem.ansatz.parameter_count)
        evaluator = synth._AnsatzEvaluator(problem)
        c, g = gradient(evaluator, x)
        assert abs(c - np.sum(np.abs(residual(evaluator, x)) ** 2)) < 1e-12
        h = 1e-6
        fd = np.array([(cost(problem, x + h * e) - cost(problem, x - h * e))
                       / (2 * h) for e in np.eye(x.size)])
        np.testing.assert_allclose(g, fd, atol=1e-7)


class TestJacobian:
    """The stacked residual's Jacobian against central differences of the
    residual and, as 2 J^T f, against the gate-by-gate adjoint gradient."""

    @staticmethod
    def _stacked(evaluator, x):
        res = residual(evaluator, x)
        return np.concatenate([res.real, res.imag])

    @_PROBLEMS
    def test_matches_central_differences(self, make_problem):
        rng = np.random.default_rng(21)
        problem = make_problem(rng)
        evaluator = synth._AnsatzEvaluator(problem)
        x = rng.uniform(-math.pi, math.pi, problem.ansatz.parameter_count)
        f, jac = evaluator.jacobian(x)
        np.testing.assert_array_equal(f, self._stacked(evaluator, x))
        h = 1e-6
        fd = np.array([(self._stacked(evaluator, x + h * e)
                        - self._stacked(evaluator, x - h * e)) / (2 * h)
                       for e in np.eye(x.size)]).T
        np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-8)

    @_PROBLEMS
    def test_twice_jt_f_is_the_gradient(self, make_problem):
        # the gradient is 2 J^T f by construction, so the check is against the independent gate-by-gate backward sweep
        rng = np.random.default_rng(22)
        problem = make_problem(rng)
        evaluator = synth._AnsatzEvaluator(problem)
        reference = GateByGateEvaluator(problem)
        for _ in range(5):
            x = rng.uniform(-math.pi, math.pi, problem.ansatz.parameter_count)
            f, jac = evaluator.jacobian(x)
            c, g = reference.gradient(x)
            assert abs(f @ f - c) <= 1e-13
            np.testing.assert_allclose(2 * jac.T @ f, g, rtol=0, atol=1e-13)


class TestLevenbergMarquardt:
    def test_repeatable_across_allocations(self):
        # the same angles bit for bit however the arrays happen to be laid
        # out in memory between runs
        first = synthesize_encoder(seed=10, restarts=2)[1]
        for size in (1, 3, 17, 129, 4097):
            held = [np.ones(size, complex) for _ in range(size % 7 + 1)]
            again = synthesize_encoder(seed=10, restarts=2)[1]
            np.testing.assert_array_equal(again.params, first.params)
            assert again.cost == first.cost
            del held

    def test_more_angles_than_residuals(self):
        # 5 layers: 36 angles against 32 real residuals; the damped system
        # is solvable without m >= n
        target, mask = synth.encoder_target()
        problem = SynthesisProblem(target, Ansatz(3, 5), mask=mask)
        evaluator = synth._AnsatzEvaluator(problem)
        assert (evaluator.n_params, 2 * evaluator.rows.size) == (36, 32)
        res = optimize(problem, seed=10, restarts=1)
        assert res.converged and res.cost < 1e-20

    def test_failure_reported_not_raised(self):
        # no entangler: the cost bottoms out at 4, and the start ends there
        swapish = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        problem = SynthesisProblem(swapish, Ansatz(2, 0), full_mask(4),
                                   tolerance=1e-10)
        res = optimize(problem, seed=0, restarts=2)
        assert not res.converged and res.restarts_used == 2
        assert abs(res.cost - 4.0) < 1e-9

    def test_encoder_no_deeper_than_bfgs(self):
        # (CZ count, starts) the former BFGS encoder took at spec seeds
        # 0-11, restarts 2; Levenberg-Marquardt converges at 3 layers at
        # each, in one start everywhere but seed 1 (BFGS: one start there,
        # two at seeds 8-9, three at seed 10)
        bfgs = [(6, 1)] * 8 + [(6, 2), (6, 2), (8, 3), (6, 1)]
        for seed, (cz, _) in enumerate(bfgs):
            circ, res = synthesize_encoder(seed=seed, restarts=2)
            assert res.converged and circ.count("CZ") == 6 <= cz
            assert res.restarts_used == (2 if seed == 1 else 1), seed

    def test_recovery_factor_depth_table(self):
        # (CZ count, starts) of the recovery factor at seeds 0-12,
        # restarts 2: every level past 4 layers spends both failed starts
        table = {0: (8, 2), 2: (10, 3), 3: (8, 2), 4: (8, 2), 6: (8, 2),
                 7: (8, 2), 10: (10, 3)}
        for seed in range(13):
            circ, res = synth.synthesize_recovery_u(seed=seed, restarts=2)
            assert res.converged
            assert (circ.count("CZ"), res.restarts_used) == \
                table.get(seed, (8, 1)), seed


class TestLayerEvaluator:
    """The layer-at-a-time evaluator against the gate-by-gate reference."""

    @staticmethod
    def _case(n, layers, mask_kind, picks, seed):
        dim = 2**n
        mask = {"none": full_mask(dim),
                "column": column_mask(dict.fromkeys(p % dim for p in picks), dim),
                "pair": [(p % dim, (p // 16) % dim) for p in picks]}[mask_kind]
        rng = np.random.default_rng(seed)
        ansatz = Ansatz(n, layers)
        problem = SynthesisProblem(_random_unitary(rng, dim), ansatz, mask=mask)
        return problem, rng.uniform(-math.pi, math.pi, ansatz.parameter_count)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 4), layers=st.integers(0, 6),
           mask_kind=st.sampled_from(["none", "column", "pair"]),
           picks=st.lists(st.integers(0, 255), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    @example(n=3, layers=2, mask_kind="column", picks=[0, 4], seed=0)
    @example(n=2, layers=3, mask_kind="pair", picks=[1, 18, 18], seed=1)
    @example(n=4, layers=6, mask_kind="none", picks=[0], seed=2)
    def test_matches_gate_by_gate_reference(self, n, layers, mask_kind, picks,
                                            seed):
        problem, x = self._case(n, layers, mask_kind, picks, seed)
        layered = synth._AnsatzEvaluator(problem)
        reference = GateByGateEvaluator(problem)
        c, g = gradient(layered, x)
        c_ref, g_ref = reference.gradient(x)
        assert abs(c - c_ref) <= 1e-12
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(layered.unitary(x), reference.unitary(x),
                                   rtol=0, atol=1e-12)

    def test_five_qubit_recovery_problem(self):
        # the whole recovery on (q0, q1, q2, a1, a2): RecoveryMap.ideal(0)'s
        # kept columns on their 16 a2 = 0 rows, at 6 layers
        target = np.zeros((32, 32), complex)
        target[:, code3._KEPT_COLS] = code3.RecoveryMap.ideal(0.0).columns
        mask = [(i, j) for j in code3._KEPT_COLS for i in range(0, 32, 2)]
        problem = SynthesisProblem(target, Ansatz(5, 6), mask=mask)
        layered = synth._AnsatzEvaluator(problem)
        reference = GateByGateEvaluator(problem)
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.uniform(-math.pi, math.pi, problem.ansatz.parameter_count)
            c, g = gradient(layered, x)
            c_ref, g_ref = reference.gradient(x)
            assert abs(c - c_ref) <= 1e-12
            np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12)


_XXX = embed(XMAT, [0], 3) @ embed(XMAT, [1], 3) @ embed(XMAT, [2], 3)
_X1 = embed(XMAT, [0], 3)


class TestCanonicalSplit:
    def test_reproduces_branches(self):
        # both branches share U and D; the damping branch's V1 is the
        # X-conjugated U, as build_recovery_circuit applies it
        p_odd, p_even = parity_projectors()
        for g in (0.0, 0.15, 0.4):
            split = canonical_recovery_split(g)
            v1 = _XXX @ split.u @ _X1
            r0, r1 = recovery_operators(g)
            np.testing.assert_allclose(
                split.u @ split.d @ split.u.conj().T @ p_odd, r0 @ p_odd,
                atol=1e-12)
            np.testing.assert_allclose(
                split.u @ split.d @ v1.conj().T @ p_even, r1 @ p_even,
                atol=1e-12)

    def test_shared_factors_and_x_relation(self):
        # U is the encoder with q0 flipped on its input and V1 the encoder
        # with its rows reversed, exactly
        split = canonical_recovery_split(0.3)
        en = code3.encoder_unitary()
        np.testing.assert_array_equal(split.u, en @ _X1)
        np.testing.assert_array_equal(split.u, en[:, [4, 5, 6, 7, 0, 1, 2, 3]])
        np.testing.assert_array_equal(_XXX @ split.u @ _X1, _XXX @ en)
        np.testing.assert_array_equal(_XXX @ split.u @ _X1, en[::-1])

    def test_factors_unitary_and_diagonal(self):
        split = canonical_recovery_split(0.2)
        for m in (split.u, _XXX @ split.u @ _X1):
            np.testing.assert_allclose(m.conj().T @ m, np.eye(8), atol=1e-12)
        off = split.d - np.diag(np.diag(split.d))
        assert np.abs(off).max() == 0.0
        d = np.real(np.diag(split.d))
        assert abs(d[0] - 1) < 1e-15 and abs(d[4] - 0.8) < 1e-15
        assert d[3] == 0.0 and d[7] == 0.0

    def test_descending_svd_cannot_host_the_x_relation(self):
        # with singular values sorted descending the damping-branch relation
        # requires a completion column equal to an occupied one; the
        # canonical paired layout exists precisely because of this
        _, r1 = recovery_operators(0.3)
        u, _, vh = np.linalg.svd(r1)
        v_needed = embed(XMAT, [0], 3) @ embed(XMAT, [1], 3) @ embed(XMAT, [2], 3) \
            @ u[:, 4]
        overlap = abs(np.vdot(vh.conj().T[:, 0], v_needed))
        assert overlap < 0.99  # forced column does not match


class TestBlockEncoding:
    def test_multiplexed_ry_exact(self):
        rng = np.random.default_rng(13)
        angles = rng.uniform(0, math.pi, 8)
        circ = Circuit(4, tuple(multiplexed_ry([0, 1, 2], 3, angles)))
        w = circ.unitary()
        expected = np.zeros((16, 16), dtype=complex)
        for x in range(8):
            expected[2 * x: 2 * x + 2, 2 * x: 2 * x + 2] = ry(angles[x])
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_block_matches_any_gamma(self):
        # the Margolus block at gamma = 0, the multiplexed RY otherwise
        for g, cz in ((0.0, 5), (1e-300, 14), (0.2, 14), (0.6, 14), (1.0, 14)):
            circ = block_encode_diagonal(g)
            assert circ.count("CZ") == cz
            blk = circ.unitary()[0::2][:, 0::2]
            np.testing.assert_allclose(
                blk, canonical_recovery_split(g).d, atol=1e-10)


class TestMargolus:
    def test_block_equals_gamma_zero_diagonal(self):
        circ = margolus_circuit()
        blk = circ.unitary()[0::2][:, 0::2]
        np.testing.assert_allclose(blk, np.diag([1, 1, 1, 0.0]), atol=1e-10)

    def test_exactly_five_cz_on_the_line(self):
        circ = margolus_circuit()
        assert circ.count("CZ") == 5
        for g in circ.gates:
            if g.name == "CZ":
                assert g.qubits in ((0, 1), (1, 2))

    def test_approx_mode_spares_the_first_data_qubit(self):
        # the approximate (gamma = 0) recovery's block
        circ = block_encode_diagonal(0.0)
        assert all(0 not in g.qubits for g in circ.gates)
        assert circ.count("CZ") == 5


class TestRecoveryCircuit:
    def test_factor_depth_at_ac6_seed(self, recovery_u):
        assert recovery_u.count("CZ") == 8

    def test_approx_matches_analytic(self, recovery_u):
        circ = build_recovery_circuit(recovery_u)
        report = verify_recovery_circuit(circ, code3.RecoveryMap.ideal(0.0))
        assert report.passed
        assert report.max_deviation < 1e-6

    @pytest.mark.parametrize("gamma, cz", [(0.0, 25), (0.12, 34)])
    def test_gamma_selects_the_recovery(self, recovery_u, gamma, cz):
        # the factor's 8 CZ twice, 6 for the syndrome-controlled X flips,
        # then the 5-CZ Margolus block at gamma = 0 or the 14-CZ
        # multiplexed RY otherwise
        report = verify_recovery_circuit(build_recovery_circuit(recovery_u, gamma),
                                         code3.RecoveryMap.ideal(gamma))
        assert report.max_deviation < 1e-6
        assert report.cz_count == cz

    def test_corrupted_circuit_flagged(self, recovery_u):
        circ = build_recovery_circuit(recovery_u)
        gates = list(circ.gates)
        for i, g in enumerate(gates):
            if g.name == "RX":
                gates[i] = Gate("RX", g.qubits, g.param + 0.1)
                break
        report = verify_recovery_circuit(Circuit(5, tuple(gates)),
                                         code3.RecoveryMap.ideal(0.0))
        assert report.max_deviation > 1e-3
        assert not report.passed

    def test_flipped_syndrome_ancilla_flagged(self, recovery_u):
        # X on a1 after a converged circuit moves each branch's kept rows to
        # the other syndrome outcome, where the analytic branch has none
        circ = build_recovery_circuit(recovery_u)
        rmap = code3.RecoveryMap.ideal(0.0)
        assert verify_recovery_circuit(circ, rmap).passed
        flipped = Circuit(5, circ.gates + (Gate("X", (3,)),))
        report = verify_recovery_circuit(flipped, rmap)
        assert report.max_deviation > 0.5
        assert not report.passed

    def test_cycle_through_circuit_matches_analytic(self, recovery_u):
        circ = build_recovery_circuit(recovery_u)
        rmap = code3.RecoveryMap.synthesized(circ.unitary())
        spec = code3.LogicalStateSpec(1.9, 0.7)
        psi = code3.encode_ideal(spec)
        a = code3.qec_cycle(psi, 0.06, 0.01, code3.RecoveryMap.ideal(0.0))
        b = code3.qec_cycle(psi, 0.06, 0.01, rmap)
        assert abs(a.fidelity - b.fidelity) < 1e-10
        assert abs(a.success_probability - b.success_probability) < 1e-10


class TestEncoderSynthesis:
    def test_encoder_columns_reached(self):
        circ, res = synthesize_encoder(seed=7, tolerance=1e-12)
        assert res.converged and res.cost < 1e-6
        u = circ.unitary()
        np.testing.assert_allclose(u[:, 0], code3.codeword(0),
                                   atol=1e-6)
        np.testing.assert_allclose(u[:, 4], code3.codeword(1),
                                   atol=1e-6)

    def test_respects_line_connectivity(self):
        circ, _ = synthesize_encoder(seed=7, tolerance=1e-12)
        for g in circ.gates:
            if g.name == "CZ":
                assert abs(g.qubits[0] - g.qubits[1]) == 1

    def test_depth_at_ac6_seed(self):
        circ, _ = synthesize_encoder(seed=7, tolerance=1e-12)
        assert circ.count("CZ") == 6

    def test_mask_lists_column_0_then_column_4(self):
        # the residual order of the former column mask [0, 4], which the
        # pair form keeps, so that it changes no emitted angle
        target, mask = synth.encoder_target()
        rows, cols = SynthesisProblem(target, Ansatz(3, 3), mask).mask_indices()
        np.testing.assert_array_equal(rows, np.tile(np.arange(8), 2))
        np.testing.assert_array_equal(cols, np.repeat([0, 4], 8))


class TestSynthKindStructure:
    def test_benchmark_spec_depths_and_restarts(self):
        # the `synth` kind at seed 10, restarts 2 (bench/workloads.py's
        # SYNTH_SPEC) synthesizes the encoder at seed 10 and U at seed 11;
        # the encoder converges on its first 3-layer start, and U, whose
        # search starts at 4 layers, converges on the first
        enc_circ, enc = synthesize_encoder(seed=10, restarts=2)
        u_circ, u = synth.synthesize_recovery_u(seed=11, restarts=2)
        assert enc.converged and u.converged
        assert (enc_circ.count("CZ"), enc.restarts_used) == (6, 1)
        assert (u_circ.count("CZ"), u.restarts_used) == (8, 1)

    def test_default_restarts_reach_the_shallowest_circuits(self):
        # at the kind's default of 20 restarts every spec seed 0-11 gives a
        # 6-CZ encoder and an 8-CZ factor, and the recovery built on the
        # factor passes its check
        for seed in range(12):
            enc_circ, enc = synthesize_encoder(seed=seed, restarts=20)
            u_circ, u = synth.synthesize_recovery_u(seed=seed + 1, restarts=20)
            assert (enc_circ.count("CZ"), u_circ.count("CZ")) == (6, 8), seed
            report = verify_recovery_circuit(build_recovery_circuit(u_circ),
                                             code3.RecoveryMap.ideal(0.0))
            assert report.max_deviation < 1e-6, seed


class TestRecoveryFirstDepth:
    """U's search starts at 4 CZ layers: no 3-layer start converges."""

    def test_skipping_three_layers_emits_the_same_circuit(self):
        # each level seeds its starts alike, so only the failed 3-layer
        # starts go: the same angles and circuit, ``restarts`` fewer starts
        target, mask = synth.recovery_u_target()
        for seed in range(1, 13):
            circ, res = synth.synthesize_recovery_u(seed=seed, restarts=2)
            old_circ, old = synth.synthesize(target, mask, 3, seed=seed,
                                             restarts=2, first_layers=3)
            np.testing.assert_array_equal(res.params, old.params)
            assert circ.serialize() == old_circ.serialize()
            assert res.restarts_used == old.restarts_used - 2
            assert (res.cost, res.converged) == (old.cost, old.converged)

    def test_three_layer_starts_stall_far_from_zero(self):
        # neither 1000 BFGS starts nor 400 Levenberg-Marquardt starts found
        # a cost below 0.179 (README)
        target, mask = synth.recovery_u_target()
        problem = SynthesisProblem(target, Ansatz(3, 3), mask=mask)
        for seed in range(10):
            assert optimize(problem, seed=seed, restarts=1).cost >= 0.17

    def test_mask_forces_the_pauli_condition(self, recovery_u):
        # pinned columns 000 and 100 and odd-parity columns 011 and 111
        # make U map IxZxZ to -ZxZxZ, for the read-only factor and for the
        # AC6 circuit alike
        z = np.diag([1.0, -1.0])
        izz = np.kron(np.eye(2), np.kron(z, z))
        zzz = np.kron(z, np.kron(z, z))
        for u in (canonical_recovery_split(0.0).u, recovery_u.unitary()):
            assert np.max(np.abs(u @ izz @ u.conj().T + zzz)) < 1e-10


class TestDiagonalBlockCircuit:
    def test_arbitrary_diagonal(self):
        from nadqec.synth import diagonal_block_circuit

        diag = [1.0, 0.8, 0.5, 0.0]
        circ = diagonal_block_circuit(diag)
        blk = circ.unitary()[0::2][:, 0::2]
        np.testing.assert_allclose(blk, np.diag(diag), atol=1e-12)

    def test_identity_diagonal(self):
        from nadqec.synth import diagonal_block_circuit

        circ = diagonal_block_circuit(np.ones(4))
        np.testing.assert_allclose(circ.unitary(), np.eye(8), atol=1e-12)

    def test_rejects_out_of_range(self):
        from nadqec.synth import diagonal_block_circuit

        with pytest.raises(ValueError):
            diagonal_block_circuit([0.5, -0.1])


class TestPhaseAlignedCost:
    def test_mask_range_validated(self):
        ansatz = Ansatz(1, 0)
        problem = SynthesisProblem(np.eye(2, dtype=complex), ansatz, mask=[(0, 5)])
        with pytest.raises(ValueError, match="index range"):
            cost(problem, np.zeros(2))
        # a bare column list is not read as pairs
        for mask in ([0, 1], [], [(0, 1, 1)]):
            problem = SynthesisProblem(np.eye(2, dtype=complex), ansatz, mask=mask)
            with pytest.raises(ValueError, match="pairs"):
                cost(problem, np.zeros(2))
