"""The 3-qubit code: codewords, syndrome, recovery, closed-form oracles.

The independent oracle here is a from-scratch enumeration of all 6^3
damping-plus-dephasing Kraus patterns in plain numpy (no package calls in
the arithmetic), routed through the recovery branches by excitation
parity. Expected values quoted in the assertions were computed with it.
"""

import math
import sys
from itertools import product

import numpy as np
import pytest
from estimator_reference import (
    block_unitary,
    combined_recovery_unitary,
    combined_recovery_unitary_embed,
    parity_projectors,
    recovery_operators,
    syndrome_extract,
)
from estimator_reference import (
    measured_circuit_distribution as measured_circuit_reference,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from noise_reference import (
    apply_kraus,
    damp_dephase,
    ket,
    p_of_t,
    partial_trace,
    pure,
    tensor,
)
from oracle_reference import (
    oracle_fidelity_multiround,
    oracle_fidelity_series,
    oracle_fidelity_series_printed,
    oracle_fidelity_series_time,
    oracle_success_multiround,
)

from nadqec import cli, code3
from nadqec.cli import ExperimentSpec
from nadqec.code3 import (
    LogicalStateSpec,
    PauliRound,
    RecoveryMap,
    apply_cycle,
    codeword,
    encode_ideal,
    encoder_unitary,
    fidelity_from_distribution,
    logical_outcomes,
    logical_round,
    measured_circuit_distribution,
    noise_superop,
    oracle_fidelity_ad,
    oracle_success_probability,
    qec_cycle,
    success_form,
    success_probability_minus_form,
)
from nadqec.noise import gamma_of_t
from nadqec.qcore import ConfigError, check_density, ry, rz


def brute_force_cycle(theta, phi, gamma, p, recovery_gamma):
    """Independent oracle: enumerate Kraus patterns, apply the recovery
    operator selected by excitation parity, post-select."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    k0 = np.zeros(8, complex)
    k0[[4, 2, 1]] = 1 / math.sqrt(3)
    k1 = np.zeros(8, complex)
    k1[7] = 1
    psi = c * k0 + s * np.exp(1j * phi) * k1
    a0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], complex)
    a1 = np.array([[0, math.sqrt(gamma)], [0, 0]], complex)
    d0 = math.sqrt(1 - p) * np.eye(2)
    d1 = math.sqrt(p) * np.diag([1.0, -1.0]).astype(complex)
    e000 = np.zeros(8, complex)
    e000[0] = 1
    sym2 = np.zeros(8, complex)
    sym2[[3, 5, 6]] = 1 / math.sqrt(3)
    g = recovery_gamma
    r0 = (1 - g) * np.outer(k0, k0.conj()) + np.outer(k1, k1.conj())
    r1 = (1 - g) * np.outer(k0, e000.conj()) + np.outer(k1, sym2.conj())
    num = den = 0.0
    for damp in product([a0, a1], repeat=3):
        for deph in product([d0, d1], repeat=3):
            e = np.kron(np.kron(deph[0] @ damp[0], deph[1] @ damp[1]),
                        deph[2] @ damp[2])
            v = e @ psi
            support = np.nonzero(np.abs(v) > 1e-300)[0]
            if support.size == 0:
                continue
            parity = bin(int(support[0])).count("1") % 2
            w = (r0 if parity == 1 else r1) @ v
            den += float(np.vdot(w, w).real)
            num += float(abs(np.vdot(psi, w)) ** 2)
    return num / den, den


class TestCodewords:
    def test_one_logical_is_111(self):
        amps = codeword(1)
        assert abs(amps[7] - 1.0) < 1e-15
        assert np.abs(np.delete(amps, 7)).max() < 1e-15

    def test_zero_logical_is_w_state(self):
        amps = codeword(0)
        np.testing.assert_allclose(amps[[4, 2, 1]], [1 / math.sqrt(3)] * 3,
                                   atol=1e-15)
        assert np.abs(amps[[0, 3, 5, 6, 7]]).max() < 1e-15

    def test_orthogonality(self):
        assert abs(np.vdot(codeword(0), codeword(1))) < 1e-15

    def test_encode_poles_and_equator(self):
        np.testing.assert_allclose(encode_ideal(LogicalStateSpec(0.0)),
                                   codeword(0), atol=1e-15)
        np.testing.assert_allclose(encode_ideal(LogicalStateSpec(math.pi)),
                                   codeword(1), atol=1e-15)
        plus = encode_ideal(LogicalStateSpec(math.pi / 2))
        assert abs(np.vdot(codeword(0), plus)
                   - 1 / math.sqrt(2)) < 1e-12

    def test_encoder_unitary_columns(self):
        u = encoder_unitary()
        np.testing.assert_allclose(u[:, 0], codeword(0), atol=1e-12)
        np.testing.assert_allclose(u[:, 4], codeword(1), atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), rtol=0, atol=1e-15)
        # every column lies in one excitation-parity sector
        parity = np.array([bin(d).count("1") % 2 for d in range(8)])
        for col in u.T:
            assert len(set(parity[np.abs(col) > 0])) == 1
        # one read-only constant, not a fresh array per call
        assert encoder_unitary() is u
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 1.0

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            LogicalStateSpec(4.0)
        with pytest.raises(ValueError):
            codeword(2)

    @pytest.mark.parametrize("theta,phi,field", [
        (4.0, 0.0, "theta"), (-0.1, 0.0, "theta"), (math.nan, 0.0, "theta"),
        (1.0, 2 * math.pi, "phi"), (1.0, -0.1, "phi"), (1.0, math.nan, "phi")])
    def test_invalid_spec_is_config_error_naming_the_angle(self, theta, phi, field):
        with pytest.raises(ConfigError, match=f"^'{field}' must be in "):
            LogicalStateSpec(theta, phi)

    @pytest.mark.parametrize("make", [
        lambda: codeword(0), lambda: codeword(1),
        lambda: encode_ideal(LogicalStateSpec(1.3, 2.1))],
        ids=["codeword0", "codeword1", "encode_ideal"])
    def test_read_only_unit_vectors(self, make):
        psi = make()
        assert isinstance(psi, np.ndarray) and psi.shape == (8,)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert not psi.flags.writeable
        with pytest.raises(ValueError):
            psi[0] = 1.0


class TestSyndrome:
    def test_one_logical_flags_ancilla_one(self):
        rho = tensor(pure(codeword(1)), pure(ket(1, 0)))
        out = syndrome_extract(rho)
        # ancilla (qubit 3, LSB) must read 1 deterministically
        assert abs(sum(out[i, i].real for i in range(1, 16, 2)) - 1.0) < 1e-12

    def test_damped_branch_flags_zero(self):
        damped = ket(3, 3)  # |011>, one damping on |111>
        rho = tensor(pure(damped), pure(ket(1, 0)))
        out = syndrome_extract(rho)
        assert abs(sum(out[i, i].real for i in range(0, 16, 2)) - 1.0) < 1e-12

    def test_codeword_superposition_stabilized(self):
        psi = encode_ideal(LogicalStateSpec(1.234, 0.77))
        rho = tensor(pure(psi), pure(ket(1, 0)))
        out = syndrome_extract(rho)
        p_one = sum(out[i, i].real for i in range(1, 16, 2))
        assert abs(p_one - 1.0) < 1e-12

    def test_wrong_register_size(self):
        with pytest.raises(ValueError):
            syndrome_extract(pure(codeword(0)))


class TestRecoveryOperators:
    def test_entrywise_definition(self):
        g = 0.23
        r0, r1 = recovery_operators(g)
        k0 = codeword(0)
        k1 = codeword(1)
        np.testing.assert_allclose(
            r0, (1 - g) * np.outer(k0, k0) + np.outer(k1, k1), atol=1e-15)
        assert abs(r1[7, 3] - 1 / math.sqrt(3)) < 1e-15
        assert abs(r1[1, 0] - (1 - g) / math.sqrt(3)) < 1e-15

    def test_trace_non_increasing_for_all_gamma(self):
        for g in np.linspace(0.0, 1.0, 21):
            for r in recovery_operators(g):
                top = np.linalg.eigvalsh(r.conj().T @ r)[-1]
                assert top <= 1.0 + 1e-10

    @pytest.mark.parametrize("g", [0.0, 2.0**-52, 0.23, 1.0 / 3.0, 1.0])
    def test_bit_identical_to_outer_product_build(self, g):
        k0 = codeword(0)
        k1 = codeword(1)
        e000 = np.zeros(8, dtype=complex)
        e000[0] = 1.0
        sym2 = np.zeros(8, dtype=complex)
        sym2[[3, 5, 6]] = 1.0 / math.sqrt(3)
        r0 = (1 - g) * np.outer(k0, k0.conj()) + np.outer(k1, k1.conj())
        r1 = (1 - g) * np.outer(k0, e000.conj()) + np.outer(k1, sym2.conj())
        got = recovery_operators(g)
        assert np.array_equal(got[0], r0)
        assert np.array_equal(got[1], r1)

    def test_approximate_equals_ideal_at_zero(self):
        # the approximate recovery adapts to T1 = inf, where gamma(delay) is 0
        for delay in (0.0, 1e-300, 30.0, 1e300):
            approx = RecoveryMap.ideal(gamma_of_t(delay, math.inf)).kraus()
            ideal0 = RecoveryMap.ideal(0.0).kraus()
            for a, b in zip(approx, ideal0):
                np.testing.assert_allclose(a, b, atol=1e-15)

    @pytest.mark.parametrize("g", [0.0, 2.0**-52, 1e-300, 1e-15, 0.07, 0.23,
                                   1.0 / 3.0, 0.5, 0.9, 1 - 1e-16, 1.0])
    def test_kraus_are_operators_times_parity_projectors(self, g):
        # the kept columns' a2 = 0 rows are R0 P_odd on a1 = 1 and R1 P_even
        # on a1 = 0, bit for bit
        p_odd, p_even = parity_projectors()
        r0, r1 = recovery_operators(g)
        want = (r0 @ p_odd, r1 @ p_even)
        got = RecoveryMap.ideal(g).kraus()
        assert len(got) == 2
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_recover_branch_weights(self):
        g = 0.1
        kept = RecoveryMap.ideal(g).superop()
        rho = pure(codeword(1))
        _, weight = apply_cycle(kept, rho)
        assert abs(weight - 1.0) < 1e-12  # R0 keeps |1_L>
        w_state = pure(codeword(0))
        _, weight0 = apply_cycle(kept, w_state)
        assert abs(weight0 - (1 - g) ** 2) < 1e-12


def _haar_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_density(rng, n):
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho)
    check_density(rho)
    return rho


def _classical_spectator_blocks(rng, n):
    """A random state of 3 data qubits and n - 3 classical spectators as
    apply_cycle takes it: at n = 3 the 8x8 rho, else (8, 8, 2^(n-3))
    blocks, one density matrix per spectator string s, weighted so that
    the blocks' traces sum to 1."""
    if n == 3:
        return _random_density(rng, 3)
    weights = rng.dirichlet(np.ones(2**(n - 3)))
    return np.stack([w * _random_density(rng, 3) for w in weights], axis=-1)


def _block_diagonal(blocks):
    """The register sum_s blocks[:, :, s] kron |s><s|, spectators after the
    data; an 8x8 rho is itself."""
    blocks = blocks.reshape(8, 8, -1)
    m = blocks.shape[2]
    return np.einsum("abs,st->asbt", blocks, np.eye(m)).reshape(8 * m, 8 * m)


def _recovery_reference(rho: np.ndarray, w: np.ndarray):
    """The kept branch of a 5-qubit recovery W on (q0, q1, q2, a1, a2),
    index 4 data + 2 a1 + a2, applied to qubits 0..2 by embedded Kraus
    operators: parity extraction feeds W the inputs |d, parity(d), 0>, and
    the a1 = b outcome with a2 = 0 gives
    K_b = W[2b::4, 0::4] P_even + W[2b::4, 2::4] P_odd. Returns the
    renormalized state and its weight relative to rho's trace."""
    p_odd, p_even = parity_projectors()
    kraus = [w[2 * b::4, 0::4] @ p_even + w[2 * b::4, 2::4] @ p_odd
             for b in (0, 1)]
    kept = apply_kraus(rho, kraus, [0, 1, 2])
    weight = np.real(np.trace(kept))
    return kept / weight, weight / np.real(np.trace(rho))


_VARIANTS = st.sampled_from(["ideal", "approximate", "synthesized"])


def _random_rmap(variant, rng, gamma):
    """A recovery of the variant and the 5-qubit W it stands for: a Haar
    unitary, or for the analytic variants the block encoding of
    ``recovery_operators`` at gamma (ideal) or 0 (approximate)."""
    if variant == "synthesized":
        w = _haar_unitary(rng, 32)
        return RecoveryMap.synthesized(w), w
    g = gamma if variant == "ideal" else 0.0
    return RecoveryMap.ideal(g), combined_recovery_unitary(*recovery_operators(g))


class TestRecoveryEngine:
    @pytest.mark.parametrize("variant,gamma", [
        ("ideal", 0.0), ("ideal", 0.3), ("ideal", 1.0), ("approximate", 0.0),
        ("synthesized", 0.0)])
    def test_superop_is_kraus_kron_sum(self, variant, gamma):
        rmap, _ = _random_rmap(variant, np.random.default_rng(11), gamma)
        want = sum(np.kron(k, k.conj()) for k in rmap.kraus())
        assert np.max(np.abs(rmap.superop() - want)) <= 1e-15

    def test_synthesized_rejects_non_unitary(self):
        w = _haar_unitary(np.random.default_rng(3), 32)
        for bad in (2 * w, w + 1e-8 * np.eye(32)):
            with pytest.raises(ValueError, match="not unitary"):
                RecoveryMap.synthesized(bad)
        RecoveryMap.synthesized(w + 1e-11 * np.eye(32))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_synthesized_kraus_match_five_qubit_circuit(self, seed):
        rng = np.random.default_rng(seed)
        w = _haar_unitary(rng, 32)
        rho3 = _random_density(rng, 3)
        # reference: (q0, q1, q2, a1, a2) register, parity onto a1, W,
        # keep a2 = 0, trace out both ancillas
        full = tensor(rho3, pure(ket(2, 0)))
        full = apply_kraus(syndrome_extract(full), [w], range(5))
        proj = np.kron(np.eye(16), np.diag([1.0, 0.0]))  # a2 = 0
        kept = proj @ full @ proj
        check_density(kept, normalized=False)
        reduced = partial_trace(kept, [0, 1, 2], normalized=False)
        state, p_succ = apply_cycle(RecoveryMap.synthesized(w).superop(), rho3)
        assert abs(p_succ - np.real(np.trace(kept)) / np.real(np.trace(full))) < 1e-12
        assert np.max(np.abs(state - reduced / np.real(np.trace(reduced)))) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), variant=_VARIANTS)
    def test_cycle_superop_matches_kraus_engine(self, seed, variant):
        # per-qubit gamma and p, some p = 0, on a random mixed input
        rng = np.random.default_rng(seed)
        gammas = rng.uniform(0.0, 0.6, 3)
        ps = rng.uniform(0.0, 0.5, 3) * (rng.random(3) < 0.7)
        rmap, w = _random_rmap(variant, rng, gammas[0])
        rho = _random_density(rng, 3)
        want, p_want = _recovery_reference(
            damp_dephase(rho, range(3), gammas, ps), w)
        round_map = rmap.superop() @ noise_superop(gammas, ps)
        got, p_got = apply_cycle(round_map, rho)
        assert abs(p_got - p_want) < 1e-12
        assert np.max(np.abs(got - want)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 7), variant=_VARIANTS,
           seed=st.integers(0, 2**32 - 1))
    def test_apply_cycle_matches_embed_reference(self, n, variant, seed):
        # the kept branch on data qubits 0..2 of a 3- to 7-qubit register
        # whose spectators are classical, against the embedded Kraus
        # operators on the block-diagonal register; the reference's
        # off-diagonal spectator blocks must stay 0
        rng = np.random.default_rng(seed)
        rmap, w = _random_rmap(variant, rng, rng.uniform(0.0, 0.6))
        blocks = _classical_spectator_blocks(rng, n)
        want, p_want = _recovery_reference(_block_diagonal(blocks), w)
        got, p_got = apply_cycle(rmap.superop(), blocks)
        assert got.shape == blocks.shape
        assert abs(p_got - p_want) < 1e-12
        assert np.max(np.abs(_block_diagonal(got) - want)) < 1e-12

    def test_spectators_untouched(self):
        rng = np.random.default_rng(4)
        rho3 = _random_density(rng, 3)
        spect = np.real(np.diag(_random_density(rng, 2)))  # classical, 2 qubits
        kept = RecoveryMap.ideal(0.2).superop()
        state3, p3 = apply_cycle(kept, rho3)
        state5, p5 = apply_cycle(kept, rho3[:, :, None] * spect)
        assert abs(p3 - p5) < 1e-12
        np.testing.assert_allclose(state5, state3[:, :, None] * spect,
                                   atol=1e-14)

    def test_weight_whose_reciprocal_overflows_raises(self):
        # 1/weight overflows at or below 1/(the largest float); just above
        # it the kept state is renormalized as at any weight, and nothing
        # warns (pytest turns a warning into a failure)
        kept = RecoveryMap.ideal(0.2).superop()
        rho = pure(codeword(0))
        weight = apply_cycle(kept, rho)[1]
        tiny = 1 / sys.float_info.max
        state, p = apply_cycle(kept, rho * (1.2 * tiny / weight))
        assert np.all(np.isfinite(state)) and abs(np.trace(state) - 1) < 1e-12
        for scale in (0.99 * tiny / weight, 1e-5 * tiny / weight):
            with pytest.raises(ValueError, match=r"removed all weight \(kept weight "):
                apply_cycle(kept, rho * scale)

    def test_zero_weight_raises(self):
        # at gamma = 1 the no-damping branch removes the W state entirely
        with pytest.raises(ValueError, match="removed all weight"):
            apply_cycle(RecoveryMap.ideal(1.0).superop(), pure(codeword(0)))
        # the compiled round of qec_cycle and the batched logical round keep
        # the same check: gamma = 1 empties both branches of every encoded state
        for theta in (0.0, 1.0, math.pi):
            with pytest.raises(ValueError, match="removed all weight"):
                qec_cycle(encode_ideal(LogicalStateSpec(theta)), 1.0, 0.0,
                          RecoveryMap.ideal(1.0))
            with pytest.raises(ValueError, match="removed all weight"):
                logical_outcomes([theta], 1.0, 0.0, RecoveryMap.ideal(1.0))

    def test_register_too_small(self):
        with pytest.raises(ValueError, match="register of 2 qubits"):
            apply_cycle(RecoveryMap.ideal(0.0).superop(), pure(ket(2, 0)))


def _choi(superop):
    """sum_{b,d} |b><d| kron E(|b><d|) of a map on the row-major vec of rho,
    indexed (input, output)."""
    d = math.isqrt(superop.shape[0])
    return superop.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def _output_traced(choi):
    d = math.isqrt(choi.shape[0])
    return np.einsum("bada->bd", choi.reshape(d, d, d, d))


_PER_QUBIT_GAMMAS = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)
_PER_QUBIT_PS = st.lists(st.floats(0.0, 0.5), min_size=3, max_size=3)


class TestCompletePositivity:
    """The compiled maps are completely positive (PSD Choi matrix) over the
    whole strength range: the noise map preserves trace and a round does
    not increase it."""

    @settings(max_examples=60, deadline=None)
    @given(gammas=_PER_QUBIT_GAMMAS, ps=_PER_QUBIT_PS)
    @example(gammas=[0.0, 0.0, 0.0], ps=[0.0, 0.0, 0.0])
    @example(gammas=[1.0, 1.0, 1.0], ps=[0.5, 0.5, 0.5])
    @example(gammas=[0.0, 1.0, 0.3], ps=[0.5, 0.0, 0.2])
    def test_noise_map_is_cptp(self, gammas, ps):
        choi = _choi(noise_superop(gammas, ps))
        assert np.linalg.eigvalsh(choi).min() >= -1e-12
        assert np.max(np.abs(_output_traced(choi) - np.eye(8))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(gammas=_PER_QUBIT_GAMMAS, ps=_PER_QUBIT_PS,
           variant=_VARIANTS,
           seed=st.integers(0, 2**32 - 1))
    @example(gammas=[0.0, 0.0, 0.0], ps=[0.0, 0.0, 0.0], variant="ideal", seed=0)
    @example(gammas=[1.0, 1.0, 1.0], ps=[0.5, 0.5, 0.5], variant="ideal", seed=0)
    @example(gammas=[1.0, 0.0, 1.0], ps=[0.5, 0.5, 0.0], variant="synthesized",
             seed=1)
    def test_round_is_cp_and_trace_non_increasing(self, gammas, ps, variant,
                                                  seed):
        rmap, _ = _random_rmap(variant, np.random.default_rng(seed), gammas[0])
        choi = _choi(rmap.superop() @ noise_superop(gammas, ps))
        assert np.linalg.eigvalsh(choi).min() >= -1e-12
        assert np.linalg.eigvalsh(_output_traced(choi)).max() <= 1 + 1e-12


class TestLogicalRound:
    """The 4x4 logical round: completely positive, trace-non-increasing,
    and exactly the 64x64 round on the code space."""

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("which", ["gammas", "ps"])
    def test_per_qubit_values_need_one_or_three(self, which, count):
        # a gamma or p sequence of other than 1 or 3 entries is named with
        # its count by every builder that takes per-qubit noise; 1 and 3
        # entries are the shared value and one per data qubit
        args = {"gammas": 0.1, "ps": 0.01}
        rmap = RecoveryMap.ideal(0.1)
        for build in (noise_superop, lambda gammas, ps: logical_round(gammas, ps, rmap),
                      lambda gammas, ps: PauliRound.of_noise(gammas, ps, 0.1)):
            with pytest.raises(ValueError, match=f"^{which} has {count} per-qubit"):
                build(**{**args, which: [args[which]] * count})
            for ok in (1, 3):
                got = build(**{**args, which: [args[which]] * ok})
                assert np.array_equal(np.asarray(got), np.asarray(build(**args)))

    @settings(max_examples=60, deadline=None)
    @given(gammas=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                           min_size=3, max_size=3),
           ps=_PER_QUBIT_PS, variant=st.sampled_from(["ideal", "approximate"]),
           recovery_gamma=st.floats(0.0, 1.0, exclude_max=True))
    @example(gammas=[0.0, 0.0, 0.0], ps=[0.0, 0.0, 0.0], variant="ideal",
             recovery_gamma=0.0)
    @example(gammas=[0.9, 0.0, 0.5], ps=[0.5, 0.5, 0.0], variant="approximate",
             recovery_gamma=0.0)
    def test_cp_trace_non_increasing_and_no_leakage(self, gammas, ps, variant,
                                                    recovery_gamma):
        rmap, _ = _random_rmap(variant, None, recovery_gamma)
        round_map = logical_round(gammas, ps, rmap)
        choi = _choi(round_map)
        assert np.linalg.eigvalsh(choi).min() >= -1e-12
        assert np.linalg.eigvalsh(_output_traced(choi)).max() <= 1 + 1e-12
        # the 64x64 round sends V E V^dag to V L(E) V^dag, nothing outside
        v = np.stack([codeword(0), codeword(1)], axis=1)
        full = rmap.superop() @ noise_superop(gammas, ps)
        for e in np.eye(4):
            out = (full @ (v @ e.reshape(2, 2) @ v.conj().T).ravel()).reshape(8, 8)
            want = v @ (round_map @ e).reshape(2, 2) @ v.conj().T
            assert np.max(np.abs(out - want)) <= 1e-12

    def test_equals_qec_cycle_on_a_logical_state(self):
        spec = LogicalStateSpec(2.2, 0.7)
        psi = np.array([math.cos(1.1), math.sin(1.1) * np.exp(0.7j)])
        out = qec_cycle(encode_ideal(spec), 0.2, 0.05, RecoveryMap.ideal(0.2))
        sigma = logical_round(0.2, 0.05, RecoveryMap.ideal(0.2)) \
            @ np.outer(psi, psi.conj()).ravel()
        assert abs(np.real(sigma[0] + sigma[3]) - out.success_probability) < 1e-14
        fid = np.real(psi.conj() @ sigma.reshape(2, 2) @ psi) \
            / np.real(sigma[0] + sigma[3])
        assert abs(fid - out.fidelity) < 1e-14

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_haar_random_recovery_leaks_and_raises(self, seed):
        rmap = RecoveryMap.synthesized(_haar_unitary(np.random.default_rng(seed), 32))
        with pytest.raises(ValueError, match="leaks out of the code space"):
            logical_round(0.1, 0.05, rmap)
        with pytest.raises(ValueError, match="leaks out of the code space"):
            logical_outcomes([1.0], 0.1, 0.05, rmap)


_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.diag([1.0, -1.0]))


def _pauli_transfer(round_map):
    """R_ij = Tr(P_i L(P_j))/2 of a 4x4 map on the row-major vec."""
    outs = [(round_map @ p.ravel()).reshape(2, 2) for p in _PAULIS]
    return np.array([[np.real(np.trace(p @ out)) / 2 for out in outs]
                     for p in _PAULIS])


def _recovery_gamma(variant, gamma):
    """The gamma a recovery variant adapts to at damping gamma."""
    return gamma if variant == "ideal" else 0.0


def _analytic_rmap(variant, gamma):
    return RecoveryMap.ideal(_recovery_gamma(variant, gamma))


class TestPauliRound:
    """The closed-form round against the numeric 64x64 round it replaces
    on the runner's path, and against the p = 0 multi-round oracles."""

    @pytest.mark.parametrize("variant", ["ideal", "approximate"])
    def test_equals_logical_round_on_a_grid(self, variant):
        worst = 0.0
        for g in np.linspace(0.0, 0.95, 20):
            for p in np.linspace(0.0, 0.5, 11):
                want = _pauli_transfer(logical_round(g, p, _analytic_rmap(variant, g)))
                got = PauliRound.of_noise(g, p, _recovery_gamma(variant, g)).pauli()
                worst = max(worst, np.abs(got - want).max())
        assert worst <= 2e-15

    @settings(max_examples=60, deadline=None)
    @given(gammas=st.lists(st.floats(0.0, 0.95), min_size=3, max_size=3),
           ps=st.lists(st.floats(0.0, 0.5), min_size=3, max_size=3),
           variant=st.sampled_from(["ideal", "approximate"]))
    def test_per_qubit_noise_equals_logical_round(self, gammas, ps, variant):
        # the ideal recovery adapts to one gamma, so it takes one
        if variant == "ideal":
            gammas = [gammas[0]] * 3
        want = _pauli_transfer(logical_round(gammas, ps,
                                             _analytic_rmap(variant, gammas[0])))
        got = PauliRound.of_noise(gammas, ps, _recovery_gamma(variant, gammas[0]))
        assert np.abs(got.pauli() - want).max() <= 2e-15

    @pytest.mark.parametrize("variant", ["ideal", "approximate"])
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5])
    def test_complete_damping_equals_logical_round(self, variant, p):
        rmap = _analytic_rmap(variant, 1.0)
        got = PauliRound.of_noise(1.0, p, _recovery_gamma(variant, 1.0)).pauli()
        assert np.abs(got - _pauli_transfer(logical_round(1.0, p, rmap))).max() <= 2e-15
        # 40 us at T1 = 1 us: the round of delay / T1 = 40 against the
        # complete-damping round, whose entries it matches within about 1e-35
        t1_r = 1.0 if variant == "ideal" else math.inf
        got = PauliRound.of_delay(40.0, [1.0] * 3, [300.0] * 3, t1_r).pauli()
        want = _pauli_transfer(logical_round(1.0, p_of_t(40.0, 300.0), rmap))
        assert np.abs(got - want).max() <= 2e-15

    @pytest.mark.parametrize("theta", [0.0, 1.0, math.pi / 2, 3.14159, math.pi])
    def test_powers_equal_multiround_oracles_at_zero_dephasing(self, theta):
        for g in (0.0, 1e-9, 1e-3, 0.05):
            for k in (1, 2, 7, 40, 1000):
                start = code3.logical_state(theta)
                state, prob = PauliRound.of_noise(g, 0.0, g).advance(start, k)
                want_p = oracle_success_multiround(theta, [g] * k)
                assert abs(code3.logical_fidelity(start, state)
                           - oracle_fidelity_multiround(theta, [g] * k)) <= 1e-12
                assert abs(prob - want_p) <= 1e-12 * want_p

    def test_outcome_equals_logical_outcomes(self):
        thetas = np.linspace(0.0, math.pi, 7)
        for variant in ("ideal", "approximate"):
            for g, p in ((0.0, 0.0), (0.1, 0.03), (0.6, 0.4)):
                fids, probs = logical_outcomes(thetas, g, p, _analytic_rmap(variant, g))
                rnd = PauliRound.of_noise(g, p, _recovery_gamma(variant, g))
                for theta, f, prob in zip(thetas, fids, probs):
                    got_f, got_p = rnd.outcome(theta)
                    assert abs(got_f - f) <= 1e-14
                    assert abs(got_p - prob) <= 1e-14
                    assert abs(rnd.infidelity(theta) - (1 - f)) <= 1e-14

    @pytest.mark.parametrize("gamma,p", [(-0.1, 0.0), (1.1, 0.0), (0.1, -0.2),
                                         (0.1, 0.6), (math.nan, 0.0), (0.1, math.nan)])
    def test_noise_outside_range_raises(self, gamma, p):
        with pytest.raises(ValueError, match="outside"):
            PauliRound.of_noise(gamma, p, 0.0)

    def test_recovery_gamma_outside_range_and_negative_delay_raise(self):
        for recovery_gamma in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match="recovery gamma .* outside"):
                PauliRound.of_noise(0.1, 0.0, recovery_gamma)
        with pytest.raises(ValueError, match="negative or NaN"):
            PauliRound.of_delay(-1.0, [220.0] * 3, [300.0] * 3, 220.0)


class TestLogicalOutcomes:
    """The batched single round equals qec_cycle on each encoded state."""

    @settings(max_examples=80, deadline=None)
    @given(thetas=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=4),
           gamma=st.floats(0.0, 0.99), p=st.floats(0.0, 0.5),
           variant=st.sampled_from(["ideal", "approximate"]))
    @example(thetas=[0.0, math.pi / 2, math.pi], gamma=0.99, p=0.5,
             variant="approximate")
    @example(thetas=[0.0, math.pi], gamma=0.0, p=0.0, variant="ideal")
    def test_matches_qec_cycle(self, thetas, gamma, p, variant):
        rmap = _analytic_rmap(variant, gamma)
        fids, probs = logical_outcomes(thetas, gamma, p, rmap)
        assert fids.shape == probs.shape == (len(thetas),)
        for theta, f, prob in zip(thetas, fids, probs):
            out = qec_cycle(encode_ideal(LogicalStateSpec(theta)), gamma, p, rmap)
            assert abs(f - out.fidelity) <= 1e-14
            assert abs(prob - out.success_probability) <= 1e-14

    @pytest.mark.parametrize("theta", [-1e-9, math.pi + 1e-9, math.nan])
    def test_theta_outside_range_raises(self, theta):
        with pytest.raises(ValueError, match="outside \\[0, pi\\]"):
            logical_outcomes([1.0, theta], 0.1, 0.0, RecoveryMap.ideal(0.1))


class TestQecCycle:
    def test_worst_case_fidelity(self):
        out = qec_cycle(codeword(1), 0.2, 0.0, RecoveryMap.ideal(0.2))
        assert abs(out.fidelity - 1.0 / 1.04) < 1e-12

    def test_equator_fidelity(self):
        out = qec_cycle(encode_ideal(LogicalStateSpec(math.pi / 2)), 0.2, 0.0,
                        RecoveryMap.ideal(0.2))
        assert abs(out.fidelity - (1 + 0.04 * 0.25) / (1 + 0.04 * 0.5)) < 1e-12

    def test_zero_logical_protected_exactly(self):
        out = qec_cycle(codeword(0), 0.08, 0.05, RecoveryMap.ideal(0.08))
        assert abs(out.fidelity - 1.0) < 1e-12

    def test_success_probability_takes_the_plus_form(self):
        # theta = pi, gamma = 0.1: (0.9)^2 (1 + 0.01) = 0.8181, not the
        # minus-form 0.8019
        out = qec_cycle(codeword(1), 0.1, 0.0, RecoveryMap.ideal(0.1))
        assert abs(out.success_probability - 0.8181) < 1e-12
        assert abs(success_probability_minus_form(math.pi, 0.1) - 0.8019) < 1e-12

    def test_match_reported_form(self, tmp_path, capsys):
        # the oracle-check kind decides the form on its own grid
        spec = ExperimentSpec("oracle-check", {}, str(tmp_path / "oracle.csv"))
        assert cli.run(spec) == cli.EXIT_OK
        assert "success-probability form matched: plus" in capsys.readouterr().out
        assert success_form(1e-11, 0.5) == "plus"
        assert success_form(0.5, 1e-11) == "minus"
        assert success_form(1e-10, 1e-10) == "neither"

    def test_matches_brute_force(self):
        for theta, phi, g, p in [(0.7, 0.3, 0.15, 0.0), (2.2, 4.0, 0.08, 0.06),
                                 (math.pi / 2, 1.0, 0.25, 0.12)]:
            f_ref, p_ref = brute_force_cycle(theta, phi, g, p, g)
            out = qec_cycle(encode_ideal(LogicalStateSpec(theta, phi)), g, p,
                            RecoveryMap.ideal(g))
            assert abs(out.fidelity - f_ref) < 1e-12
            assert abs(out.success_probability - p_ref) < 1e-12

    def test_approximate_matches_brute_force(self):
        f_ref, p_ref = brute_force_cycle(1.1, 0.0, 0.12, 0.04, 0.0)
        out = qec_cycle(encode_ideal(LogicalStateSpec(1.1)), 0.12, 0.04,
                        RecoveryMap.ideal(0.0))
        assert abs(out.fidelity - f_ref) < 1e-12
        assert abs(out.success_probability - p_ref) < 1e-12

    @pytest.mark.parametrize("psi", [
        np.eye(8) / 8,  # a mixed state is not the encoded 8-vector
        ket(4, 0),
        ket(2, 0),
        ket(3, 0)[:, None],
    ], ids=["mixed", "4-qubit", "2-qubit", "column"])
    def test_rejects_wrong_shape(self, psi):
        with pytest.raises(ValueError, match="8-vector, got shape"):
            qec_cycle(psi, 0.1, 0.0, RecoveryMap.ideal(0.1))

    @pytest.mark.parametrize("scale", [1 + 1e-9, 1 - 1e-9, 0.0])
    def test_rejects_unnormalized_psi(self, scale):
        psi = encode_ideal(LogicalStateSpec(1.0))
        with pytest.raises(ValueError, match="not normalized"):
            qec_cycle(scale * psi, 0.1, 0.0, RecoveryMap.ideal(0.1))
        qec_cycle((1 + 1e-13) * psi, 0.1, 0.0, RecoveryMap.ideal(0.1))  # inside

    def test_outcome_state_normalized(self):
        out = qec_cycle(encode_ideal(LogicalStateSpec(2.0)), 0.3, 0.1,
                        RecoveryMap.ideal(0.3))
        assert isinstance(out.conditional_state, np.ndarray)
        assert out.conditional_state.shape == (8, 8)
        assert abs(np.real(np.trace(out.conditional_state)) - 1.0) < 1e-12
        check_density(out.conditional_state)

    @pytest.mark.parametrize("theta,phi,gamma,p", [
        (0.0, 0.0, 0.1, 0.0), (1.1, 0.4, 0.07, 0.02),
        (math.pi / 2, 3.0, 0.3, 0.1), (math.pi, 5.9, 0.5, 0.25)])
    def test_bench_call_form_matches_logical_outcomes(self, theta, phi, gamma, p):
        # the call the benchmark's estimator check makes; the round commutes
        # with logical Z rotations, so phi moves neither figure
        spec = LogicalStateSpec(theta, phi)
        out = qec_cycle(encode_ideal(spec), gamma, p, RecoveryMap.ideal(gamma))
        fids, probs = logical_outcomes([theta], gamma, p, RecoveryMap.ideal(gamma))
        assert abs(out.fidelity - fids[0]) <= 1e-14
        assert abs(out.success_probability - probs[0]) <= 1e-14

    @pytest.mark.parametrize("p", [-0.2, -1e-12, 0.6, math.nan])
    @pytest.mark.parametrize("run", [
        lambda p: qec_cycle(encode_ideal(LogicalStateSpec(1.0)), 0.1, p,
                            RecoveryMap.ideal(0.1)),
        lambda p: measured_circuit_distribution(LogicalStateSpec(1.0), 0.1, p),
        lambda p: noise_superop(0.1, [0.0, p, 0.0]),
    ], ids=["qec_cycle", "measured_circuit_distribution", "damp_dephase"])
    def test_dephasing_outside_range_raises(self, run, p):
        # each path reaches the range check of the damp-then-dephase map
        with pytest.raises(ValueError, match="outside \\[0, 0.5\\]"):
            run(p)


class TestOracleGrids:
    def test_fidelity_oracle_on_grid(self):
        worst = 0.0
        for theta in np.linspace(0.0, math.pi, 10):
            for g in np.linspace(0.0, 0.3, 10):
                out = qec_cycle(encode_ideal(LogicalStateSpec(theta)), g, 0.0,
                                RecoveryMap.ideal(g))
                worst = max(worst, abs(out.fidelity - oracle_fidelity_ad(theta, g)))
        assert worst < 1e-10

    def test_success_oracle_on_grid_including_dephasing(self):
        worst = 0.0
        for theta in np.linspace(0.0, math.pi, 7):
            for g in np.linspace(0.0, 0.3, 5):
                for p in (0.0, 0.05, 0.2):
                    out = qec_cycle(encode_ideal(LogicalStateSpec(theta)), g, p,
                                    RecoveryMap.ideal(g))
                    worst = max(worst, abs(out.success_probability
                                           - oracle_success_probability(theta, g, p)))
        assert worst < 1e-10

    def test_multiround_success_oracle_reduces_to_one_round(self):
        assert oracle_success_multiround(1.0, []) == 1.0
        for theta in np.linspace(0.0, math.pi, 7):
            for g in np.linspace(0.0, 1.0, 11):
                assert abs(oracle_success_multiround(theta, [g])
                           - oracle_success_probability(theta, g, 0.0)) < 1e-15

    def test_fidelity_oracle_is_one_multiround_round_bit_for_bit(self):
        # oracle-check and the bench read code3.oracle_fidelity_ad, which
        # writes the one-round formula out; it keeps the multi-round
        # oracle's digits
        for theta in [*np.linspace(0.0, math.pi, 50), math.pi / 8, 3.14159]:
            for g in [*np.linspace(0.0, 1.0, 50), 2.0**-52, 1e-300, 1 - 1e-16]:
                assert oracle_fidelity_ad(theta, g) \
                    == oracle_fidelity_multiround(theta, [g]), (theta, g)

    def test_worst_case_curve(self):
        # the minimum over logical states, at theta = pi: 1 / (1 + g^2)
        for g in np.linspace(0.0, 0.3, 10):
            out = qec_cycle(codeword(1), g, 0.0, RecoveryMap.ideal(g))
            assert abs(out.fidelity - 1.0 / (1.0 + g**2)) < 1e-10

    def test_zero_logical_lower_bound(self):
        # the lower bound over logical states, at theta = 0:
        # (1 - g)^2 (1 + (8 p / 3)(g + p - 1 - g p))
        for g, p in [(0.05, 0.02), (0.1, 0.08), (0.2, 0.15)]:
            out = qec_cycle(codeword(0), g, p, RecoveryMap.ideal(g))
            assert abs(out.success_probability - (1 - g) ** 2
                       * (1 + (8 * p / 3.0) * (g + p - 1 - g * p))) < 1e-12


class TestSeriesOracles:
    def test_noiseless_limit(self):
        for variant in ("ideal", "approximate"):
            assert oracle_fidelity_series(1.0, 0.0, 0.0, variant) == 1.0

    def test_worst_case_expansion(self):
        # theta = pi, p = 0: both variants reduce to 1 - gamma^2
        for variant in ("ideal", "approximate"):
            assert abs(oracle_fidelity_series(math.pi, 0.03, 0.0, variant)
                       - (1 - 0.03**2)) < 1e-15

    def test_plus_state_approximate(self):
        # theta = pi/2, p = 0, approximate: 1 - gamma^2 / 2
        assert abs(oracle_fidelity_series(math.pi / 2, 0.04, 0.0, "approximate")
                   - (1 - 0.04**2 / 2)) < 1e-15

    def test_plus_state_special_case_consistent(self):
        # |+_L>, |-_L> under the adapted recovery:
        # 1 - (4 + 2 g) p / 3 - 4 p^2 / 9 - g^2 / 4
        for g, p in [(0.01, 0.005), (0.02, 0.02)]:
            assert abs(1.0 - (4 + 2 * g) * p / 3.0 - 4 * p**2 / 9.0 - g**2 / 4.0
                       - oracle_fidelity_series(math.pi / 2, g, p, "ideal")) < 1e-14

    def test_time_form_matches_composed_form_linearly(self):
        # the (t, T1, T2) form agrees with the (gamma, p) form through
        # second order in t
        t1, t2 = 200.0, 150.0
        tphi = 1.0 / (1.0 / t2 - 1.0 / (2 * t1))
        for variant in ("ideal", "approximate"):
            for theta in (0.8, math.pi / 2, 2.4):
                for t in (0.25, 0.5, 1.0):
                    g = 1 - math.exp(-t / t1)
                    p = 0.5 * (1 - math.exp(-t / tphi))
                    a = oracle_fidelity_series(theta, g, p, variant)
                    b = oracle_fidelity_series_time(theta, t, t1, t2, variant)
                    assert abs(a - b) < 2.0 * (t / t1) ** 3 * t1 / 10

    def test_approximate_series_matches_simulation(self):
        # the approximate-recovery expansion holds to its stated order
        for theta in (0.0, math.pi / 2, math.pi):
            for g in (0.005, 0.01, 0.02):
                for p in (0.005, 0.01, 0.02):
                    out = qec_cycle(encode_ideal(LogicalStateSpec(theta)), g, p,
                                    RecoveryMap.ideal(0.0))
                    series = oracle_fidelity_series(theta, g, p, "approximate")
                    assert abs(out.fidelity - series) < 5 * (g + p) ** 3

    def test_ideal_series_quadratics_disagree_at_equator(self):
        # the paper's printed ideal-series gamma^2 coefficient is -5/16 at
        # theta = pi/2 while the exact closed form gives -1/4; the printed
        # expansion is only reliable at the poles
        g = 0.02
        exact = oracle_fidelity_ad(math.pi / 2, g)
        series = oracle_fidelity_series_printed(math.pi / 2, g, 0.0)
        assert abs((exact - series) - g**2 / 16) < 5e-7

    def test_ideal_series_gamma_squared_matches_closed_form(self):
        # at p = 0 the closed form expands as 1 - g^2 s^4 + O(g^4) with
        # s = sin(theta/2); the exact residual g^4 s^6 / (1 + g^2 s^2)
        # stays below g^4
        for theta in (0.3, 1.0, math.pi / 2, 2.0, 2.8, math.pi):
            for g in (0.005, 0.01, 0.02, 0.05):
                exact = oracle_fidelity_ad(theta, g)
                series = oracle_fidelity_series(theta, g, 0.0, "ideal")
                assert abs(exact - series) <= g**4

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            oracle_fidelity_series(1.0, 0.01, 0.01, "petz")


class TestFirstOrderProtection:
    def test_approximate_recovery_kills_linear_damping(self):
        gammas = np.linspace(0.01, 0.05, 11)
        fids = [qec_cycle(codeword(1), g, 0.0, RecoveryMap.ideal(0.0)).fidelity
                for g in gammas]
        # rescaled degree-5 fit: high enough that the cubic/quartic tail
        # does not alias into the linear coefficient
        scale = 0.05
        coeffs = np.polyfit(gammas / scale, fids, 5)[::-1]
        c1 = coeffs[1] / scale
        c2 = coeffs[2] / scale**2
        assert abs(c1) < 1e-6
        assert abs(c2 + 1.0) < 0.05


class TestMeasuredCircuit:
    def test_all_zero_probability_equals_fidelity(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            g = rng.uniform(0, 0.3)
            p = rng.uniform(0, 0.2)
            spec = LogicalStateSpec(theta, phi)
            probs = measured_circuit_distribution(spec, g, p)
            f_hat, p_hat = fidelity_from_distribution(probs)
            ref = qec_cycle(encode_ideal(spec), g, p, RecoveryMap.ideal(g))
            assert abs(f_hat - ref.fidelity) < 1e-10
            assert abs(p_hat - ref.success_probability) < 1e-10

    def test_distribution_normalized(self):
        probs = measured_circuit_distribution(LogicalStateSpec(1.0, 0.5), 0.1, 0.05)
        assert abs(probs.sum() - 1.0) < 1e-10

    def test_codeword_dephasing_protection(self):
        # first-order dephasing leaves both codeword fidelities untouched
        p = 0.01
        for which, g in ((0, 0.02), (1, 0.02)):
            out = qec_cycle(codeword(which), g, p, RecoveryMap.ideal(g))
            ref = qec_cycle(codeword(which), g, 0.0, RecoveryMap.ideal(g))
            assert abs(out.fidelity - ref.fidelity) < 10 * p**2


class TestCompiledEstimator:
    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi,
                                                         exclude_max=True),
           gamma=st.floats(0.0, 0.6), p=st.floats(0.0, 0.5),
           variant=_VARIANTS, seed=st.integers(0, 2**32 - 1))
    def test_matches_gate_by_gate_reference(self, theta, phi, gamma, p, variant,
                                            seed):
        rmap, w = _random_rmap(variant, np.random.default_rng(seed), gamma)
        spec = LogicalStateSpec(theta, phi)
        got = measured_circuit_distribution(spec, gamma, p, rmap)
        want = measured_circuit_reference(spec, gamma, p, w)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_estimate_equals_qec_cycle_on_benchmark_like_tuples(self):
        # AC5 on 300 tuples drawn as the estimator benchmark draws them:
        # the all-zero estimate and the success weight are qec_cycle's
        rng = np.random.default_rng(35)
        for _ in range(300):
            theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
            g, p = rng.uniform(0.001, 0.3), rng.uniform(0.001, 0.2)
            spec = LogicalStateSpec(theta, phi)
            f_hat, p_hat = fidelity_from_distribution(
                measured_circuit_distribution(spec, g, p))
            ref = qec_cycle(encode_ideal(spec), g, p, RecoveryMap.ideal(g))
            assert abs(f_hat - ref.fidelity) <= 1e-12
            assert abs(p_hat - ref.success_probability) <= 1e-12

    def test_ideal_columns_are_the_weighted_blocks(self):
        # the stacked product adds each entry to exact zeros only, so it is
        # the three-term sum (1-g) K_R + sqrt(g(2-g)) K_S + K_1 bit for bit
        k_r, k_s, k_1 = code3._K_STACK.reshape(3, 32, 8)
        for g in [0.0, 2.0**-52, 1e-300, 0.07, 0.3, 0.5, 1.0,
                  *np.random.default_rng(3).uniform(0.0, 1.0, 200)]:
            want = (1 - g) * k_r + math.sqrt(g * (2 - g)) * k_s + k_1
            got = RecoveryMap.ideal(g).columns
            assert got.tobytes() == want.tobytes()

    def test_of_delay_takes_its_weights_from_the_exponent(self):
        # exp(-x) and sqrt(-expm1(-2x)) for 1 - gamma and sqrt(gamma(2 - gamma)),
        # x = delay / T1: ideal(gamma(delay)) within a few ulp where gamma keeps
        # its digits, and the exact weights past 37 T1, where gamma rounds to 1
        k_r, k_s, k_1 = code3._K_STACK.reshape(3, 32, 8)
        for x in (1e-300, 1e-9, 0.07, 1.0, 5.0, 30.0, 40.0, 300.0, 1e4):
            got = RecoveryMap.of_delay(50.0 * x, 50.0).columns
            want = math.exp(-x) * k_r + math.sqrt(-math.expm1(-2 * x)) * k_s + k_1
            assert got.tobytes() == want.tobytes()
            if x <= 5.0:
                ideal = RecoveryMap.ideal(gamma_of_t(50.0 * x, 50.0)).columns
                assert np.abs(got - ideal).max() <= 1e-15
        assert RecoveryMap.of_delay(30.0, math.inf).columns.tobytes() \
            == RecoveryMap.ideal(0.0).columns.tobytes()
        assert gamma_of_t(40.0, 1.0) == 1.0  # so ideal(gamma) keeps nothing of K_R
        assert not np.array_equal(RecoveryMap.of_delay(40.0, 1.0).columns,
                                  RecoveryMap.ideal(1.0).columns)
        with pytest.raises(ValueError, match="negative or NaN"):
            RecoveryMap.of_delay(-1.0, 50.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.07, 0.3, 1.0])
    def test_combined_unitary_equals_embed_construction(self, gamma):
        for g in (gamma, 0.0):  # the ideal and approximate recoveries
            r0, r1 = recovery_operators(g)
            got = combined_recovery_unitary(r0, r1)
            assert np.array_equal(got, combined_recovery_unitary_embed(r0, r1))

    @pytest.mark.parametrize("gamma", [0.0, 2.0**-52, 1e-300, 1e-15, 0.3, 1.0])
    def test_block_unitary_near_unit_singular_values(self, gamma):
        # at gamma = 2**-52 the block completion once missed unitarity by
        # 1.4e-9, so the estimator raised for a valid gamma
        for r in recovery_operators(gamma):
            w = block_unitary(r)
            assert np.max(np.abs(w.conj().T @ w - np.eye(16))) < 1e-12
            assert np.array_equal(w[:8, :8], r)

    @pytest.mark.parametrize("gamma", [0.0, 2.0**-52, 1e-300, 1e-15, 0.3, 1.0])
    def test_kept_columns_match_block_unitary(self, gamma):
        # W's kept column d is [R_b; S_b] column d on a1 = b = parity(d)
        # (a2 the upper index) and zero on a1 = 1 - b. block_unitary takes
        # S_b's weight sqrt(1 - s^2) from an SVD singular value s = 1 - gamma,
        # and an ulp of error in s moves it by about 1e-16 / c with
        # c = sqrt(gamma (2 - gamma)) (7e-9 at gamma = 2**-52); where c is
        # that small but nonzero the S rows are compared through S^dag S
        parity = np.array([bin(d).count("1") % 2 for d in range(8)])
        c = math.sqrt(gamma * (2 - gamma))
        r0, r1 = recovery_operators(gamma)
        k = RecoveryMap.ideal(gamma).columns.reshape(8, 2, 2, 8)  # (d, a1, a2, d')
        for b, r in ((1, r0), (0, r1)):
            cols = parity == b
            want = block_unitary(r)[:, :8].reshape(2, 8, 8)[:, :, cols]
            got = k[:, b].transpose(1, 0, 2)[:, :, cols]  # (a2, d, d')
            assert np.max(np.abs(got[0] - want[0])) < 1e-12
            s_got, s_want = got[1], want[1]
            assert np.max(np.abs(s_got.conj().T @ s_got
                                 - s_want.conj().T @ s_want)) < 1e-12
            if c < 1e-12 or c > 1e-4:
                assert np.max(np.abs(s_got - s_want)) < 1e-12
            assert not np.any(k[:, 1 - b][:, :, cols])

    def test_kept_columns_of_synthesized_unitary(self):
        w = _haar_unitary(np.random.default_rng(5), 32)
        parity = [bin(d).count("1") % 2 for d in range(8)]
        want = w[:, [4 * d + 2 * parity[d] for d in range(8)]]
        assert np.array_equal(RecoveryMap.synthesized(w).columns, want)

    def test_rejects_non_isometric_circuit(self):
        # a recovery column scaled by 1.01 leaves the noisy state valid, so
        # only the isometry check can fire
        cols = RecoveryMap.ideal(0.1).columns.copy()
        cols[:, 3] *= 1.01
        with pytest.raises(ValueError, match="not an isometry"):
            measured_circuit_distribution(LogicalStateSpec(1.0, 0.5), 0.1, 0.05,
                                          RecoveryMap(cols))

    def test_rejects_unnormalized_distribution(self):
        # (1 + 2e-10) W passes the 1e-9 unitarity and isometry bounds, but
        # its outcome probabilities sum to 1 + 4e-10
        w = _haar_unitary(np.random.default_rng(6), 32)
        rmap = RecoveryMap.synthesized((1 + 2e-10) * w)
        with pytest.raises(ValueError, match="sum to"):
            measured_circuit_distribution(LogicalStateSpec(1.0, 0.5), 0.1, 0.05,
                                          rmap)

    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_full_damping_removes_all_weight(self, p):
        probs = measured_circuit_distribution(LogicalStateSpec(1.0, 0.5), 1.0, p)
        with pytest.raises(ValueError, match="post-selection removed all weight"):
            fidelity_from_distribution(probs)

    def test_lemma_holds_for_synthesized_recovery(self):
        # the all-zero/fidelity identity is structural: it holds for any
        # block-encoded recovery, not just the analytic one
        rmap = RecoveryMap.synthesized(
            combined_recovery_unitary(*recovery_operators(0.07)))
        spec = LogicalStateSpec(0.9, 2.5)
        probs = measured_circuit_distribution(spec, 0.07, 0.02, rmap=rmap)
        f_hat, p_hat = fidelity_from_distribution(probs)
        ref = qec_cycle(encode_ideal(spec), 0.07, 0.02, rmap)
        assert abs(f_hat - ref.fidelity) < 1e-10
        assert abs(p_hat - ref.success_probability) < 1e-10

    def test_prep_unitary_is_rz_ry(self):
        for theta in np.linspace(0.0, math.pi, 7):
            for phi in (0.0, 0.4, math.pi / 2, math.pi, 4.0, 2 * math.pi - 1e-9):
                got = code3.prep_unitary(LogicalStateSpec(theta, phi))
                assert np.max(np.abs(got - rz(phi) @ ry(theta))) <= 1e-15

    def test_noise_map_is_complex_with_real_entries(self):
        noise = noise_superop([0.1, 0.2, 0.3], [0.01, 0.0, 0.5])
        assert noise.dtype == complex and not np.any(noise.imag)


class TestNonFiniteInputsRaise:
    """Every guard is written so that NaN fails it; none lets NaN through."""

    def test_estimator_rejects_nan_recovery_column(self):
        # the recovery acts after the noise, so the noisy state is valid
        # and the isometry check sees max |V0^dag V0 - I| = nan
        cols = RecoveryMap.ideal(0.1).columns.copy()
        cols[:, 3] = np.nan
        with pytest.raises(ValueError, match="not an isometry.* = nan"):
            measured_circuit_distribution(LogicalStateSpec(1.0, 0.3), 0.1, 0.01,
                                          RecoveryMap(cols))

    def test_estimator_sum_check_rejects_nan(self, monkeypatch):
        # with the density check switched off, a NaN noise map reaches the
        # last check, which must still fire
        monkeypatch.setattr(code3, "check_density", lambda *a, **k: None)
        monkeypatch.setattr(code3, "noise_superop",
                            lambda *a: np.full((64, 64), np.nan))
        with pytest.raises(ValueError, match="sum to nan"):
            measured_circuit_distribution(LogicalStateSpec(1.0, 0.3), 0.1, 0.01)

    def test_fidelity_from_distribution_rejects_nan(self):
        with pytest.raises(ValueError, match="removed all weight.*nan"):
            fidelity_from_distribution(np.full(16, np.nan))

    def test_apply_cycle_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="removed all weight.*nan"):
            apply_cycle(np.full((64, 64), np.nan), pure(codeword(0)))

    def test_synthesized_rejects_nan_unitary(self):
        w = np.eye(32, dtype=complex)
        w[3, 3] = np.nan
        with pytest.raises(ValueError, match="not unitary.* = nan"):
            RecoveryMap.synthesized(w)

    def test_logical_round_rejects_nan_leak(self):
        cols = RecoveryMap.ideal(0.1).columns.copy()
        cols[0, 0] = np.nan
        with pytest.raises(ValueError, match="leaks out of the code space by nan"):
            logical_round(0.1, 0.01, RecoveryMap(cols))

    def test_logical_outcomes_rejects_nan_weight(self, monkeypatch):
        monkeypatch.setattr(code3, "logical_round",
                            lambda *a: np.full((4, 4), np.nan))
        with pytest.raises(ValueError, match="removed all weight.*nan"):
            logical_outcomes([0.0, 1.0], 0.1, 0.01, RecoveryMap.ideal(0.1))

    def test_qec_cycle_rejects_nan_state(self):
        psi = np.full(8, np.nan, dtype=complex)
        with pytest.raises(ValueError, match="not normalized"):
            qec_cycle(psi, 0.1, 0.01, RecoveryMap.ideal(0.1))
