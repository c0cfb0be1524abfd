"""Register primitives: ``qcore.check_density`` and the gate matrices, the
register helpers of ``noise_reference`` (tensor structure, ``embed``,
partial trace, fidelity), and the measurement reference of
``estimator_reference``. The index convention (qubit 0 = most significant
bit) is load-bearing for every other module, so it gets pinned here."""

import math

import numpy as np
import pytest
from estimator_reference import measure_computational
from hypothesis import given, settings
from hypothesis import strategies as st
from noise_reference import Z, embed, fidelity, ket, partial_trace, pure, tensor

from nadqec.qcore import CZ, X, check_density, rx, ry, rz

CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
              dtype=complex)


def random_density(n_qubits, seed):
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    rho = m / np.trace(m)
    check_density(rho)
    return rho


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    psi = v / np.linalg.norm(v)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    return psi


class TestTensor:
    def test_identity_case(self):
        mixed = np.eye(2) / 2
        check_density(mixed)
        out = tensor(mixed, mixed)
        np.testing.assert_allclose(out, np.eye(4) / 4, atol=1e-15)

    def test_basis_case(self):
        out = tensor(pure(ket(1, 0)), pure(ket(1, 1)))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |01> at index 1
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_zz_eigenstate(self):
        zz = np.kron(Z, Z)
        ket11 = ket(2, 3)
        np.testing.assert_allclose(zz @ ket11, ket11, atol=1e-15)

    def test_associative(self):
        a, b, c = (random_density(1, s) for s in (1, 2, 3))
        left = np.kron(np.kron(a, b), c)
        right = np.kron(a, np.kron(b, c))
        np.testing.assert_allclose(left, right, atol=1e-14)

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(7)
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                for _ in range(4)]
        a, b, c, d = mats
        np.testing.assert_allclose(
            np.kron(a, b) @ np.kron(c, d), np.kron(a @ c, b @ d), atol=1e-12)


class TestEmbed:
    def test_msb_convention(self):
        # X on qubit 0 of 2 flips the most significant bit
        full = embed(X, [0], 2)
        psi = np.zeros(4)
        psi[0] = 1.0
        np.testing.assert_allclose(full @ psi, np.eye(4)[2], atol=1e-15)

    def test_two_qubit_order(self):
        # CX with control 1, target 0 on a 2-qubit register
        full = embed(CX, [1, 0], 2)
        psi = np.zeros(4)
        psi[1] = 1.0  # |01>
        np.testing.assert_allclose(full @ psi, np.eye(4)[3], atol=1e-15)

    def test_matches_kron_for_contiguous(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(embed(g, [0, 1], 3), np.kron(g, np.eye(2)),
                                   atol=1e-14)
        np.testing.assert_allclose(embed(g, [1, 2], 3), np.kron(np.eye(2), g),
                                   atol=1e-14)

    def test_invalid_targets(self):
        with pytest.raises(ValueError):
            embed(X, [3], 2)
        with pytest.raises(ValueError):
            embed(CX, [0, 0], 2)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 7), k=st.integers(1, 3), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_index_loop_reference(self, n, k, data, seed):
        # reference: kron onto the leading qubits, then permute basis
        # indices bit by bit
        k = min(k, n)
        targets = data.draw(st.permutations(range(n)))[:k]
        rng = np.random.default_rng(seed)
        op = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        order = list(targets) + [q for q in range(n) if q not in targets]
        full = np.kron(op, np.eye(2 ** (n - k)))
        idx = [sum(((p >> (n - 1 - q)) & 1) << (n - 1 - i)
                   for i, q in enumerate(order)) for p in range(2**n)]
        assert np.array_equal(embed(op, targets, n), full[np.ix_(idx, idx)])


class TestPartialTrace:
    def test_product_state(self):
        rho = pure(ket(2, 0))
        out = partial_trace(rho, [0])
        np.testing.assert_allclose(out, [[1, 0], [0, 0]], atol=1e-15)

    def test_bell_state_maximally_mixed(self):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        for keep in ([0], [1]):
            out = partial_trace(pure(bell), keep)
            np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)

    def test_random_product_recovers_factor(self):
        for seed in range(5):
            a = random_density(2, seed)
            b = random_density(1, seed + 100)
            joint = tensor(a, b)
            np.testing.assert_allclose(
                partial_trace(joint, [0, 1]), a, atol=1e-12)
            np.testing.assert_allclose(
                partial_trace(joint, [2]), b, atol=1e-12)

    def test_trace_preserved(self):
        rho = random_density(3, 11)
        out = partial_trace(rho, [1])
        assert abs(np.trace(out).real - 1.0) < 1e-12

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            partial_trace(random_density(2, 0), [2])


class TestFidelity:
    def test_pure_state_is_one(self):
        psi = random_state(2, 3)
        assert abs(fidelity(pure(psi), psi) - 1.0) < 1e-12

    def test_maximally_mixed_is_half(self):
        rho = np.eye(2) / 2
        check_density(rho)
        psi = random_state(1, 4)
        assert abs(fidelity(rho, psi) - 0.5) < 1e-12

    def test_damped_excited_state(self):
        # 25% damping leaves <1|rho|1> = 0.75
        rho = np.diag([0.25, 0.75])
        check_density(rho)
        assert abs(fidelity(rho, ket(1, 1)) - 0.75) < 1e-12

    def test_global_phase_invariance(self):
        rho = random_density(2, 8)
        psi = random_state(2, 9)
        rotated = np.exp(1j * 1.234) * psi
        assert abs(np.linalg.norm(rotated) - 1.0) < 1e-12
        assert abs(fidelity(rho, psi) - fidelity(rho, rotated)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(random_density(2, 0), random_state(1, 0))


class TestMeasurement:
    def test_plus_state(self):
        plus = np.array([1, 1]) / math.sqrt(2)
        probs = measure_computational(pure(plus), [0])
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_basis_state_deterministic(self):
        rho = pure(ket(3, 7))
        probs = measure_computational(rho, [0, 1, 2])
        expected = np.zeros(8)
        expected[7] = 1.0
        np.testing.assert_allclose(probs, expected, atol=1e-14)

    def test_marginal_and_order(self):
        psi = random_state(3, 12)
        rho = pure(psi)
        probs = measure_computational(rho, [2, 0])
        amp = psi
        expected = np.zeros(4)
        for idx in range(8):
            b2 = (idx >> 0) & 1
            b0 = (idx >> 2) & 1
            expected[2 * b2 + b0] += abs(amp[idx]) ** 2
        np.testing.assert_allclose(probs, expected, atol=1e-12)
        assert abs(probs.sum() - 1.0) < 1e-10

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            measure_computational(random_density(1, 0), [])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**16))
    def test_matches_index_loop_reference(self, n, data, seed):
        # reference: read the ascending-order marginal entry by entry and
        # move each bit to its listed position
        qubits = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
        rho = random_density(n, seed)
        diag = np.real(np.diag(partial_trace(rho, qubits)))
        asc, m = sorted(qubits), len(qubits)
        want = np.zeros(2**m)
        for b in range(2**m):
            want[sum(((b >> (m - 1 - i)) & 1) << (m - 1 - qubits.index(q))
                     for i, q in enumerate(asc))] = diag[b]
        assert np.array_equal(measure_computational(rho, qubits), want)


class TestInvariantsAndGates:
    def test_unitary_preserves_spectrum(self):
        rho = random_density(3, 20)
        u = embed(rx(0.7), [1], 3) @ embed(CZ, [0, 2], 3)
        out = u @ rho @ u.conj().T
        check_density(out)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(out)),
            np.sort(np.linalg.eigvalsh(rho)), atol=1e-10)
        assert abs(np.trace(out).real - 1.0) < 1e-10

    def test_rotation_conventions(self):
        np.testing.assert_allclose(rx(math.pi), -1j * X, atol=1e-15)
        np.testing.assert_allclose(ry(math.pi), [[0, -1], [1, 0]], atol=1e-15)
        np.testing.assert_allclose(rz(math.pi), -1j * Z, atol=1e-15)
        np.testing.assert_allclose(rx(-math.pi), 1j * X, atol=1e-15)

    def test_subnormalized_branch_allowed(self):
        branch = np.diag([0.3, 0.2])
        check_density(branch, normalized=False)
        assert abs(np.trace(branch) - 0.5) < 1e-12


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density(np.array([[1, 1], [0, 0]]))

    def test_infinite_coherence_is_not_finite(self):
        # inf against a finite transpose entry leaves an inf residual
        with pytest.raises(ValueError, match="not finite: .* = inf"):
            check_density(np.array([[0.5, np.inf], [0.0, 0.5]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            check_density(np.diag([1.5, -0.5]))

    def test_stack_checked_in_one_call(self):
        stack = np.array([random_density(1, seed) for seed in range(5)])
        check_density(stack)
        check_density(stack[:0])  # an empty stack has nothing to reject
        branch = np.array([np.diag([0.3, 0.2]), np.diag([0.1, 0.0])])
        check_density(branch, normalized=False)
        with pytest.raises(ValueError, match="trace 0.1 != 1"):  # the worst
            check_density(branch)

    @pytest.mark.parametrize("bad,message", [
        (np.array([[1, 1], [0, 0]]), "not Hermitian"),
        (np.diag([1.5, -0.5]), "not positive semidefinite"),
        (np.diag([0.7, 0.4]), "trace 1.1 != 1"),
    ])
    def test_stack_rejects_any_bad_matrix_like_density_matrix(self, bad, message):
        # a stack fails with the message of its bad matrix checked alone,
        # whichever slot that matrix takes
        with pytest.raises(ValueError, match=message):
            check_density(bad)
        good = random_density(1, 3)
        for stack in ([bad, good, good], [good, good, bad]):
            with pytest.raises(ValueError, match=message):
                check_density(np.array(stack, dtype=complex))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 3), normalized=st.booleans(),
           flaw=st.sampled_from(["valid", "nan", "inf", "-inf", "non-hermitian",
                                 "trace", "negative-eigenvalue"]),
           seed=st.integers(0, 2**16))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    def test_matrix_and_one_matrix_stack_agree(self, n, normalized, flaw, seed):
        # one (d, d) matrix takes its own path; as a (1, d, d) stack it must
        # get the same verdict and the same message, at d = 2, 4 and 8
        rng = np.random.default_rng(seed)
        rho = random_density(n, seed)
        i, j = rng.integers(2**n, size=2)
        if flaw in ("nan", "inf", "-inf"):
            rho[i, j] = float(flaw)
        elif flaw == "non-hermitian":
            rho[0, 1] += 2e-12
        elif flaw == "trace":
            rho[i, i] += 2e-12
        elif flaw == "negative-eigenvalue":
            eigs = np.diag([-2e-10, *rng.dirichlet(np.ones(2**n - 1)) * (1 + 2e-10)])
            u = np.linalg.qr(rng.normal(size=rho.shape)
                             + 1j * rng.normal(size=rho.shape))[0]
            m = u @ eigs @ u.conj().T
            rho = (m + m.conj().T) / 2

        def verdict(data):
            try:
                check_density(data, normalized)
            except ValueError as exc:
                return str(exc)
            return None

        alone = verdict(rho)
        assert alone == verdict(rho[None])
        expected = {"nan": "not finite", "inf": "not finite", "-inf": "not finite",
                    "non-hermitian": "not Hermitian",
                    "trace": "trace" if normalized else None,
                    "negative-eigenvalue": "not positive semidefinite"}.get(flaw)
        if expected is None:
            assert alone is None
        else:
            assert alone.startswith(expected)

    @pytest.mark.parametrize("bad", [
        np.diag([np.nan, 0.0, 0.0, 0.0]),
        np.diag([np.inf, 0.0]),
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
    ], ids=["nan-diagonal", "inf-diagonal", "nan-coherence"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    def test_non_finite_rejected(self, bad):
        # every comparison fails on NaN, so a non-finite entry raises and
        # the message names the residual that is not finite
        with pytest.raises(ValueError, match=r"not finite: .* = nan"):
            check_density(bad, normalized=False)
        good = np.zeros_like(bad, dtype=complex)
        with pytest.raises(ValueError, match="not finite"):
            check_density(np.array([good, bad]), normalized=False)

    def test_stack_tolerances_match_density_matrix(self):
        # just inside each tolerance passes, just outside fails, for one
        # density matrix and for a stack alike
        inside = np.diag([1.0 + 9e-13, 0.0])
        outside = np.diag([1.0 + 2e-12, 0.0])
        psd_edge = np.diag([1.0 + 9e-11, -9e-11])
        for ok in (inside, psd_edge):
            check_density(ok)
            check_density(np.array([ok, ok]))
        with pytest.raises(ValueError):
            check_density(outside)
        with pytest.raises(ValueError):
            check_density(np.array([inside, outside]))
