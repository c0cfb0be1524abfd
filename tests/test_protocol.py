"""Scheduling, timing, multi-round QEC, CHaDD, and the Lindblad toy model."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lindblad_reference import (
    collapse_operators,
    evolve_lindblad,
    liouvillian,
    lindblad_rhs,
)
from lindblad_reference import propagate as propagate_reference
from multiqec_reference import run_multiqec as run_multiqec_reference
from multiqec_reference import schedule_rounds, total_evolution_time_exact
from scipy.stats import unitary_group

from nadqec import code3, protocol
from nadqec.noise import NoiseParams, gamma_of_t
from nadqec.protocol import (
    ChaddSequence,
    CrosstalkModel,
    ProtocolConfig,
    SpectatorLayout,
    bare_qubit_fidelity,
    chadd_cycle_unitary,
    chadd_sequence,
    fit_lifetime,
    lindbladian,
    propagate,
    run_crosstalk_toy,
    run_multiqec,
    run_multiqec_with_chadd,
    split_rounds,
    total_evolution_time,
)
from nadqec.qcore import Z, embed, fidelity


class TestScheduling:
    def test_worked_example(self):
        assert split_rounds(40, 30) == (1, 10)

    def test_boundary(self):
        assert split_rounds(30, 30) == (1, 0)

    def test_degenerate(self):
        assert split_rounds(0, 30) == (0, 0)

    def test_sum_exact_for_decimal_inputs(self):
        assert split_rounds(0.3, 0.1) == (3, 0)

    def test_delays_within_bound(self):
        for total in (7.0, 95.5, 123.25):
            full, rest = split_rounds(total, 30)
            assert 0 <= rest < 30
            assert full * 30 + rest == Fraction(str(total))

    def test_huge_round_count_is_immediate(self):
        assert split_rounds(1e9, 1e-3) == (10**12, 0)

    @settings(max_examples=100, deadline=None)
    @given(total=st.decimals(0, 100, places=3),
           step=st.decimals(Decimal("0.05"), 40, places=3))
    def test_schedules_sum_exactly(self, total, step):
        # steps below the 2.72 us reset pay a shortfall on every later round
        total_free, max_delay = float(total), float(step)
        full, rest = split_rounds(total_free, max_delay)
        assert full * Fraction(step) + rest == Fraction(total)
        assert 0 <= rest < Fraction(step)
        schedule = schedule_rounds(total_free, max_delay)
        assert len(schedule) == full + (rest > 0)
        assert total_evolution_time(total_free, max_delay) \
            == total_evolution_time_exact(schedule)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="max_delay"):
            split_rounds(30, 0)
        with pytest.raises(ValueError, match="total_free"):
            split_rounds(-1, 30)


class TestTiming:
    def test_worked_example_exact(self):
        assert total_evolution_time(40, 30) == Fraction("47.24")
        assert float(total_evolution_time(40, 30)) == 47.24

    def test_empty_schedule_is_encode_decode(self):
        assert total_evolution_time(0, 30) == Fraction("1.096")

    def test_single_round(self):
        assert total_evolution_time(30, 30) == Fraction("34.168")

    def test_reset_shortfall_added(self):
        # second delay of 1 us cannot host the 2.72 us reset
        expected = Fraction("0.548") * 2 + Fraction(31) + Fraction("3.072") * 2 \
            + (Fraction("2.72") - 1)
        assert total_evolution_time(31, 30) == expected

    def test_first_round_needs_no_reset(self):
        # a single short delay never pays the reset penalty
        assert total_evolution_time(1, 30) \
            == Fraction("0.548") * 2 + 1 + Fraction("3.072")


class TestMultiQec:
    def test_zero_noise_everything_perfect(self):
        cfg = ProtocolConfig(code3.LogicalStateSpec(1.2, 0.3), max_delay=30,
                             total_free=(30.0, 60.0, 90.0))
        pts = run_multiqec(cfg, NoiseParams(t1=1e15))
        for p in pts:
            assert abs(p.fidelity - 1.0) < 1e-9
            assert abs(p.success_probability - 1.0) < 1e-9

    def test_single_round_reproduces_oracle(self):
        cfg = ProtocolConfig(code3.LogicalStateSpec(math.pi), max_delay=30,
                             total_free=(20.0,))
        pts = run_multiqec(cfg, NoiseParams.from_t1_t2(220.0, 440.0))
        g = 1 - math.exp(-20.0 / 220.0)
        assert abs(pts[0].fidelity - code3.oracle_fidelity_ad(math.pi, g)) < 1e-10

    def test_multi_round_composes_single_round_maps(self):
        # independent reimplementation: iterate the analytic cycle by hand
        noise = NoiseParams.from_t1_t2(200.0, 300.0)
        cfg = ProtocolConfig(code3.LogicalStateSpec(2.0, 1.0), max_delay=25,
                             total_free=(70.0,))
        pts = run_multiqec(cfg, noise)
        from nadqec.noise import amplitude_damping, apply_channel, dephasing
        target = code3.encode_ideal(cfg.logical)
        rho = target.to_density_matrix()
        p_total = 1.0
        for delay in (25.0, 25.0, 20.0):
            g = 1 - math.exp(-delay / 200.0)
            p = 0.5 * (1 - math.exp(-delay / noise.tphi))
            for q in range(3):
                rho = apply_channel(rho, amplitude_damping(g), q)
                rho = apply_channel(rho, dephasing(p), q)
            out = code3.qec_cycle(rho, 0.0, 0.0, code3.RecoveryMap.ideal(g),
                                  target=target)
            rho = out.conditional_state
            p_total *= out.success_probability
        assert abs(pts[0].fidelity - fidelity(rho, target)) < 1e-12
        assert abs(pts[0].success_probability - p_total) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(["ideal", "approximate", "synthesized"]),
           theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 6.28),
           t1s=st.lists(st.floats(40.0, 500.0), min_size=3, max_size=3),
           per_qubit=st.booleans(), tphi=st.floats(30.0, 3000.0),
           max_delay=st.sampled_from([7.5, 12.0, 25.0, 30.0, 45.5]),
           total_free=st.lists(st.floats(0.0, 150.0), min_size=1, max_size=5),
           seed=st.integers(0, 2**31 - 1))
    def test_matches_per_round_reference(self, variant, theta, phi, t1s,
                                         per_qubit, tphi, max_delay,
                                         total_free, seed):
        # ideal needs one T1, the others take per-qubit T1; a finite Tphi
        # puts T2 below 2 T1; max_delay mostly leaves a remainder round
        t1 = t1s if per_qubit and variant != "ideal" else t1s[0]
        noise = NoiseParams(t1=t1, tphi=tphi)
        w = unitary_group.rvs(32, random_state=seed) \
            if variant == "synthesized" else None
        cfg = ProtocolConfig(code3.LogicalStateSpec(theta, phi), max_delay,
                             tuple(total_free), recovery_variant=variant,
                             recovery_unitary=w)
        for got, want in zip(run_multiqec(cfg, noise),
                             run_multiqec_reference(cfg, noise), strict=True):
            assert got.rounds == want.rounds
            assert got.total_evolution_us == want.total_evolution_us
            assert abs(got.fidelity - want.fidelity) <= 1e-12
            assert abs(got.success_probability - want.success_probability) \
                <= 1e-12 * want.success_probability

    def test_ideal_pinned_to_multiround_oracle(self):
        # T2 = 2 T1: pure damping, so every schedule sits on the closed form
        t1 = 220.0
        noise = NoiseParams.from_t1_t2(t1, 2 * t1)
        total_free = tuple(25.0 * k for k in range(1, 21))
        for theta in np.linspace(0.0, math.pi, 9):
            for max_delay in (30.0, 45.0, 120.0):
                cfg = ProtocolConfig(code3.LogicalStateSpec(theta), max_delay,
                                     total_free)
                for pt in run_multiqec(cfg, noise):
                    full, rest = split_rounds(pt.total_free_us, max_delay)
                    gammas = [gamma_of_t(max_delay, t1)] * full \
                        + ([gamma_of_t(float(rest), t1)] if rest else [])
                    want = code3.oracle_fidelity_multiround(theta, gammas)
                    assert abs(pt.fidelity - want) <= 1e-10
                    want_p = code3.oracle_success_multiround(theta, gammas)
                    assert abs(pt.success_probability - want_p) <= 1e-10

    def test_one_round_map_per_distinct_delay(self, monkeypatch):
        built = []
        compile_map = code3.cycle_superop
        monkeypatch.setattr(code3, "cycle_superop",
                            lambda *a: built.append(a) or compile_map(*a))
        cfg = ProtocolConfig(code3.LogicalStateSpec(1.0), max_delay=30,
                             total_free=(600.0, 30.0, 45.0, 75.0, 90.0, 20.0))
        run_multiqec(cfg, NoiseParams(t1=220.0, tphi=300.0))
        assert len(built) == 3  # 30, 15 and 20 us

    def test_ideal_rejects_unequal_t1(self):
        cfg = ProtocolConfig(code3.LogicalStateSpec(math.pi), max_delay=60,
                             total_free=(60.0,))
        with pytest.raises(ValueError, match="ideal recovery adapts to one T1"):
            run_multiqec(cfg, NoiseParams(t1=[100.0, 300.0, 300.0]))

    def test_approximate_accepts_per_qubit_t1(self):
        cfg = ProtocolConfig(code3.LogicalStateSpec(math.pi), max_delay=60,
                             total_free=(60.0,), recovery_variant="approximate")
        fids = [run_multiqec(cfg, NoiseParams(t1=t1))[0].fidelity
                for t1 in ([100.0, 300.0, 300.0], [300.0, 300.0, 100.0])]
        # the approximate recovery does not adapt, so qubit order is moot
        assert abs(fids[0] - fids[1]) < 1e-12
        assert fids[0] < run_multiqec(cfg, NoiseParams(t1=300.0))[0].fidelity

    def test_break_even_lifetime(self):
        cfg = ProtocolConfig(code3.LogicalStateSpec(math.pi), max_delay=30,
                             total_free=tuple(np.arange(30.0, 331.0, 30.0)))
        pts = run_multiqec(cfg, NoiseParams.from_t1_t2(220.0, 440.0))
        tau = fit_lifetime([p.total_evolution_us for p in pts],
                           [p.fidelity for p in pts])
        assert tau >= 2 * 220.0

    def test_bare_reference(self):
        assert abs(bare_qubit_fidelity(220.0, 220.0) - math.exp(-1)) < 1e-15
        times = np.linspace(10, 400, 20)
        tau = fit_lifetime(times, [bare_qubit_fidelity(t, 220.0) for t in times])
        assert abs(tau - 220.0) < 1e-6


class TestChaddSequence:
    def test_toggling_sums_vanish_robust_and_plain(self):
        for robust in (True, False):
            seq = chadd_sequence(2, 3.0, robust=robust)
            sums = seq.toggling_signs().sum(axis=1)
            assert tuple(sums) == (0, 0, 0)

    def test_robust_pulse_list(self):
        seq = chadd_sequence(2, 1.0)
        assert seq.pulses == (("X", 1), ("X", 2), ("XT", 1), ("XT", 2),
                              ("XT", 1), ("XT", 2), ("X", 1), ("X", 2))
        assert seq.interval_count == 8
        assert seq.cycle_time == 8.0

    def test_sign_matrix_rows_orthogonal(self):
        seq = chadd_sequence(2, 1.0)
        m = seq.sign_matrix
        r1, r2 = m[seq.row_assignment[1]], m[seq.row_assignment[2]]
        assert r1 @ r2 == 0
        assert r1.sum() == 0 and r2.sum() == 0

    def test_zero_tau_pulse_product_is_phase(self):
        seq = chadd_sequence(2, 1.0)
        u = np.eye(4, dtype=complex)
        for kind, color in seq.pulses:
            u = protocol._color_matrix((1, 2), color, kind, 2) @ u
        phase = u[0, 0] / abs(u[0, 0])
        np.testing.assert_allclose(u / phase, np.eye(4), atol=1e-12)

    def test_unsupported_chromaticity(self):
        with pytest.raises(ValueError):
            chadd_sequence(3, 1.0)

    def test_closed_system_cycle_is_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            w1, w2, g, tau = rng.uniform(0.05, 2.0, 4)
            model = CrosstalkModel(omega1=w1, omega2=w2, g=g)
            seq = chadd_sequence(2, tau)
            u = chadd_cycle_unitary(seq, model.hamiltonian(), (1, 2))
            phase = u[0, 0] / abs(u[0, 0])
            assert np.abs(u / phase - np.eye(4)).max() < 1e-8


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


_SPECTATOR_COUPLINGS = ((0, 3, 0.05), (2, 4, 0.04), (1, 5, 0.03))
_SPECTATOR_NOISE = NoiseParams.from_t1_t2(220.0, 300.0)


def _spectator_generator(n):
    """H and collapse set of an n-qubit CHaDD register with the spectator
    couplings of the benchmark (T1 = 220 us, T2 = 300 us)."""
    couplings = _SPECTATOR_COUPLINGS[:n - 3]
    h = sum(g * embed(Z, [a], n) @ embed(Z, [b], n) for a, b, g in couplings)
    return h, collapse_operators(n, _SPECTATOR_NOISE)


def _reference_propagation(n, omega, couplings, noise, rho, t):
    """The same evolution through the sparse Liouvillian and expm_multiply."""
    h = sum((0.5 * w * embed(Z, [q], n) for q, w in enumerate(omega)),
            np.zeros((2**n, 2**n), dtype=complex))
    for a, b, g in couplings:
        h = h + g * embed(Z, [a], n) @ embed(Z, [b], n)
    return propagate_reference(
        liouvillian(h, collapse_operators(n, noise)), rho, t)


class TestLindblad:
    def test_trace_preserved(self):
        model = CrosstalkModel(omega1=0.4, omega2=0.1, g=0.07, t1=80.0, tphi=120.0)
        rho = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        out = propagate(model.lindbladian().propagator(25.0), rho)
        assert abs(np.trace(out).real - 1.0) < 1e-9

    def test_richardson_convergence(self):
        model = CrosstalkModel(omega1=0.4, omega2=0.1, g=0.07, t1=80.0, tphi=120.0)
        collapse = collapse_operators(2, NoiseParams(t1=80.0, tphi=120.0))
        rho = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        coarse = evolve_lindblad(model.hamiltonian(), rho, 10.0, collapse, 400)
        fine = evolve_lindblad(model.hamiltonian(), rho, 10.0, collapse, 800)
        assert np.abs(coarse - fine).max() < 1e-8

    def test_relaxation_rate_matches_t1(self):
        rho = np.array([[0, 0], [0, 1]], dtype=complex)
        out = propagate(lindbladian(1, NoiseParams(t1=150.0)).propagator(30.0), rho)
        assert abs(out[1, 1].real - math.exp(-30.0 / 150.0)) < 1e-9

    def test_dephasing_rate_matches_tphi(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        gen = lindbladian(1, NoiseParams(t1=1e12, tphi=90.0))
        out = propagate(gen.propagator(45.0), rho)
        assert abs(out[0, 1].real - 0.5 * math.exp(-45.0 / 90.0)) < 1e-9

    def test_collapse_operators_need_a_value_per_qubit(self):
        # the generator and the reference's collapse set alike
        for build in (lindbladian, collapse_operators):
            with pytest.raises(ValueError, match="t1 has 2 per-qubit values"):
                build(4, NoiseParams(t1=[100.0, 200.0]))
        noise = NoiseParams(t1=[100.0, 200.0], tphi=[80.0, 90.0])
        assert len(collapse_operators(2, noise)) == 4
        rho = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
        out = propagate(lindbladian(2, noise).propagator(20.0), rho)
        assert abs(out[3, 3].real - math.exp(-20.0 / 100.0 - 20.0 / 200.0)) < 1e-12

    @pytest.mark.parametrize("a,b", [(0, 0), (0, -1), (4, 1)])
    def test_bad_coupling_rejected(self, a, b):
        # a -1 index would otherwise wrap silently to the last qubit
        with pytest.raises(ValueError, match="two distinct qubits"):
            lindbladian(4, NoiseParams(t1=100.0), [(0, 3, 0.05), (a, b, 0.05)])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), count=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_liouvillian_matches_rhs(self, n, count, seed):
        # pins the reference's row-major vec convention:
        # L vec(rho) = vec(rhs(rho))
        rng = np.random.default_rng(seed)
        dim = 2**n

        def gaussian():  # entries scaled so the operator norm stays O(1)
            return (rng.normal(size=(dim, dim))
                    + 1j * rng.normal(size=(dim, dim))) / math.sqrt(dim)

        a = gaussian()
        h = a + a.conj().T
        collapse = [gaussian() for _ in range(count)]
        rho = _random_density(rng, dim)
        got = (liouvillian(h, collapse) @ rho.ravel()).reshape(dim, dim)
        want = lindblad_rhs(h, rho, collapse)
        assert np.abs(got - want).max() < 1e-12

    # expm_multiply's own error grows with t ||L||: near 1e-12 at t = 200
    # with |omega| ~ 1.5, so frequencies and couplings stay at the models'
    # scale (toy omega 0.2 to 0.3, spectator g 0.03 to 0.05 rad/us)
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           t=st.floats(0.0, 200.0))
    def test_closed_form_matches_sparse_reference(self, n, seed, t):
        rng = np.random.default_rng(seed)
        lifetimes = (math.inf, 1e12, 30.0, 100.0, 220.0)
        noise = NoiseParams(t1=[lifetimes[i] for i in rng.integers(5, size=n)],
                            tphi=[lifetimes[i] for i in rng.integers(5, size=n)])
        omega = rng.uniform(-0.5, 0.5, size=n)
        couplings = []
        if n > 1:
            for _ in range(rng.integers(1, 4)):
                a, b = rng.choice(n, 2, replace=False)
                couplings.append((int(a), int(b), float(rng.uniform(-0.2, 0.2))))
            a, b, g = couplings[0]
            couplings.append((b, a, g))  # a repeated pair adds
        rho = _random_density(rng, 2**n)
        got = propagate(lindbladian(n, noise, couplings, omega).propagator(t), rho)
        want = _reference_propagation(n, omega, couplings, noise, rho, t)
        assert np.abs(got - want).max() <= 1e-12

    def test_closed_form_matches_sparse_reference_at_seven_qubits(self):
        n = 7
        rng = np.random.default_rng(7)
        noise = NoiseParams(t1=[220.0, 200.0, math.inf, 150.0, 250.0, 90.0, 1e12],
                            tphi=[300.0, math.inf, 400.0, 1e12, 100.0, 200.0, 250.0])
        omega = rng.uniform(-0.5, 0.5, size=n)
        couplings = _SPECTATOR_COUPLINGS + ((0, 6, 0.02), (3, 6, -0.01), (3, 0, 0.02))
        rho = _random_density(rng, 2**n)
        got = propagate(lindbladian(n, noise, couplings, omega).propagator(37.5), rho)
        want = _reference_propagation(n, omega, couplings, noise, rho, 37.5)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_propagate_matches_rk4_on_spectator_register(self, n):
        # one 3.75 us CHaDD interval from a non-stationary mixed state
        h, collapse = _spectator_generator(n)
        rho = _random_density(np.random.default_rng(n), 2**n)
        gen = lindbladian(n, _SPECTATOR_NOISE, _SPECTATOR_COUPLINGS[:n - 3])
        exact = propagate(gen.propagator(3.75), rho)
        reference = evolve_lindblad(h, rho, 3.75, collapse, 240)
        assert np.abs(exact - reference).max() < 1e-10


class TestCrosstalkToy:
    def test_stationary_without_coupling_or_noise(self):
        model = CrosstalkModel(omega1=0.0, omega2=0.0, g=0.0)
        series = run_crosstalk_toy(model, "1", None, 40.0)
        np.testing.assert_allclose(series.pop1, 1.0, atol=1e-10)

    def test_probe_one_improves_with_chadd(self):
        model = CrosstalkModel(omega1=0.3, omega2=0.2, g=0.05, t1=100.0)
        seq = chadd_sequence(2, 60.0 / 32)
        with_dd = run_crosstalk_toy(model, "1", seq, 60.0)
        without = run_crosstalk_toy(model, "1", None, 60.0)
        assert with_dd.fidelity[-1] > without.fidelity[-1]

    def test_probe_zero_degrades_with_chadd(self):
        model = CrosstalkModel(omega1=0.3, omega2=0.2, g=0.05, t1=100.0)
        seq = chadd_sequence(2, 60.0 / 32)
        with_dd = run_crosstalk_toy(model, "0", seq, 60.0)
        without = run_crosstalk_toy(model, "0", None, 60.0)
        assert with_dd.fidelity[-1] < without.fidelity[-1]

    def test_incommensurate_final_time_rejected(self):
        seq = chadd_sequence(2, 1.0)
        with pytest.raises(ValueError):
            run_crosstalk_toy(CrosstalkModel(), "0", seq, 12.5)

    def test_unknown_probe(self):
        with pytest.raises(ValueError):
            run_crosstalk_toy(CrosstalkModel(), "2", None, 10.0)


class TestMultiQecWithChadd:
    noise = NoiseParams.from_t1_t2(220.0, 440.0)

    def test_no_coupling_no_noise_is_perfect(self):
        cfg = ProtocolConfig(code3.LogicalStateSpec(math.pi / 2), max_delay=30,
                             total_free=(60.0,))
        layout = SpectatorLayout(spectators=1, couplings=((0, 3, 0.0),))
        pts = run_multiqec_with_chadd(cfg, NoiseParams(t1=1e12), layout, chadd=True)
        assert abs(pts[0].fidelity - 1.0) < 1e-8
        assert abs(pts[0].success_probability - 1.0) < 1e-8

    def test_matches_kraus_engine_without_chadd(self):
        cfg = ProtocolConfig(code3.LogicalStateSpec(2.1, 0.4), max_delay=30,
                             total_free=(45.0,))
        layout = SpectatorLayout(spectators=0, couplings=())
        a = run_multiqec_with_chadd(cfg, self.noise, layout, chadd=False)[0]
        b = run_multiqec(cfg, self.noise)[0]
        assert abs(a.fidelity - b.fidelity) < 1e-9
        assert abs(a.success_probability - b.success_probability) < 1e-9

    def test_synthesized_variant_uses_its_unitary(self):
        w5 = code3.combined_recovery_unitary(0.3)
        cfg = ProtocolConfig(code3.LogicalStateSpec(2.1, 0.4), max_delay=30,
                             total_free=(45.0,), recovery_variant="synthesized",
                             recovery_unitary=w5)
        layout = SpectatorLayout(spectators=0, couplings=())
        a = run_multiqec_with_chadd(cfg, self.noise, layout, chadd=False)[0]
        b = run_multiqec(cfg, self.noise)[0]
        assert abs(a.fidelity - b.fidelity) < 1e-9
        assert abs(a.success_probability - b.success_probability) < 1e-9

    def test_chadd_suppresses_spectator_crosstalk(self):
        layout = SpectatorLayout(spectators=1, couplings=((0, 3, 0.05),))
        cfg = ProtocolConfig(code3.LogicalStateSpec(math.pi / 2),
                             max_delay=30, total_free=(60.0,))
        fids = {}
        for chadd in (False, True):
            fids[chadd] = run_multiqec_with_chadd(
                cfg, self.noise, layout, chadd=chadd)[0].fidelity
        assert fids[True] >= fids[False]

    def test_chadd_hurts_zero_logical_without_crosstalk(self):
        layout = SpectatorLayout(spectators=0, couplings=())
        cfg = ProtocolConfig(code3.LogicalStateSpec(0.0), max_delay=30,
                             total_free=(60.0,))
        fids = {}
        for chadd in (False, True):
            fids[chadd] = run_multiqec_with_chadd(
                cfg, self.noise, layout, chadd=chadd)[0].fidelity
        assert fids[True] < fids[False]

    def test_register_cap(self):
        cfg = ProtocolConfig(code3.LogicalStateSpec(0.0), max_delay=30,
                             total_free=(30.0,))
        with pytest.raises(ValueError):
            run_multiqec_with_chadd(cfg, self.noise,
                                    SpectatorLayout(spectators=5), chadd=True)

    def test_seven_qubit_register_chadd_suppresses_crosstalk(self):
        layout = SpectatorLayout(spectators=4, couplings=(
            (0, 3, 0.05), (2, 4, 0.04), (1, 5, 0.03), (0, 6, 0.02)))
        cfg = ProtocolConfig(code3.LogicalStateSpec(math.pi / 2),
                             max_delay=30, total_free=(30.0,))
        fids = {}
        for chadd in (False, True):
            fids[chadd] = run_multiqec_with_chadd(
                cfg, self.noise, layout, chadd=chadd)[0].fidelity
        assert fids[True] >= fids[False]

    def test_ideal_rejects_unequal_data_t1(self):
        cfg = ProtocolConfig(code3.LogicalStateSpec(1.0), max_delay=30,
                             total_free=(30.0,))
        with pytest.raises(ValueError, match="ideal recovery adapts to one T1"):
            run_multiqec_with_chadd(cfg, NoiseParams(t1=[220.0, 100.0, 220.0, 220.0]),
                                    SpectatorLayout(spectators=1), chadd=False)

    def test_pulse_unitaries_built_once_per_run(self, monkeypatch):
        built = []
        color_matrix = protocol._color_matrix
        monkeypatch.setattr(protocol, "_color_matrix",
                            lambda *a: built.append(a) or color_matrix(*a))
        cfg = ProtocolConfig(code3.LogicalStateSpec(1.0), max_delay=30,
                             total_free=(30.0, 75.0))
        run_multiqec_with_chadd(cfg, self.noise, SpectatorLayout(
            spectators=1, couplings=((0, 3, 0.05),)), chadd=True)
        assert sorted(a[1:3] for a in built) == [
            (1, "X"), (1, "XT"), (2, "X"), (2, "XT")]

    @pytest.mark.parametrize("chadd", [False, True])
    @pytest.mark.parametrize("spectators", [0, 1, 2])
    def test_sweep_point_equals_its_lone_run(self, spectators, chadd):
        # shared prefixes change no bit: a zero point, full rounds only,
        # and remainders of 15 and 20 us, in an unsorted sweep
        layout = SpectatorLayout(spectators, tuple(
            (0, 3 + i, 0.05 - 0.01 * i) for i in range(spectators)))
        total_free = (75.0, 0.0, 60.0, 20.0, 45.0)

        def run(points):
            cfg = ProtocolConfig(code3.LogicalStateSpec(2.0, 1.1), max_delay=30,
                                 total_free=points)
            return run_multiqec_with_chadd(cfg, self.noise, layout, chadd=chadd)

        assert run(total_free) == [run((t,))[0] for t in total_free]

    def test_one_round_per_distinct_delay(self, monkeypatch):
        built = {"chadd_sequence": [], "_recovery_map": []}
        for name, calls in built.items():
            original = getattr(protocol, name)
            monkeypatch.setattr(
                protocol, name,
                lambda *a, calls=calls, original=original:
                    calls.append(a) or original(*a))
        cfg = ProtocolConfig(code3.LogicalStateSpec(1.0), max_delay=30,
                             total_free=(90.0, 30.0, 45.0, 75.0, 20.0))
        run_multiqec_with_chadd(cfg, self.noise, SpectatorLayout(
            spectators=1, couplings=((0, 3, 0.05),)), chadd=True)
        # 30, 15 and 20 us, each with one robust cycle of 8 intervals
        assert [a[1] for a in built["chadd_sequence"]] == [30 / 8, 15 / 8, 20 / 8]
        assert len(built["_recovery_map"]) == 3

    def test_default_coloring_is_proper(self):
        layout = SpectatorLayout(spectators=2,
                                 couplings=((0, 3, 0.1), (2, 4, 0.1)))
        colors = layout.resolved_colors()
        for a, b, _ in layout.couplings:
            assert colors[a] != colors[b]


class TestEdgeCases:
    def test_zero_total_free_point(self):
        cfg = ProtocolConfig(code3.LogicalStateSpec(1.0), max_delay=30,
                             total_free=(0.0,))
        pts = run_multiqec(cfg, NoiseParams(t1=100.0))
        assert pts[0].rounds == 0
        assert pts[0].fidelity == 1.0
        assert pts[0].success_probability == 1.0
        assert abs(pts[0].total_evolution_us - 1.096) < 1e-12

    def test_synthesized_variant_requires_unitary(self):
        with pytest.raises(ValueError):
            ProtocolConfig(code3.LogicalStateSpec(1.0), max_delay=30,
                           total_free=(30.0,), recovery_variant="synthesized")


class TestFiniteDurationPulses:
    def test_finite_pulses_cost_fidelity(self):
        base = CrosstalkModel(g=0.04, t1=80.0)
        slow = CrosstalkModel(g=0.04, t1=80.0, pulse_duration=0.2)
        seq = chadd_sequence(2, 1.0)
        ideal = run_crosstalk_toy(base, "1", seq, 16.0)
        finite = run_crosstalk_toy(slow, "1", seq, 16.0)
        assert finite.fidelity[-1] < ideal.fidelity[-1]

    def test_zero_duration_is_default_path(self):
        model = CrosstalkModel(g=0.04, t1=80.0)
        seq = chadd_sequence(2, 1.0)
        a = run_crosstalk_toy(model, "1", seq, 8.0)
        b = run_crosstalk_toy(CrosstalkModel(g=0.04, t1=80.0,
                                             pulse_duration=0.0),
                              "1", seq, 8.0)
        np.testing.assert_allclose(a.fidelity, b.fidelity, atol=0)


def test_row_assignment_matches_realized_signs():
    for robust in (True, False):
        seq = chadd_sequence(2, 2.0, robust=robust)
        signs = seq.toggling_signs()
        reps = len(seq.pulses) // 4
        for color in (1, 2):
            row = np.tile(seq.sign_matrix[seq.row_assignment[color]], reps)
            np.testing.assert_array_equal(signs[color - 1], row)


def test_multiqec_with_synthesized_recovery_matches_approximate():
    from nadqec.code3 import combined_recovery_unitary, RecoveryMap

    w5 = combined_recovery_unitary(0.0, RecoveryMap.approximate())
    noise = NoiseParams.from_t1_t2(220.0, 440.0)
    base = ProtocolConfig(code3.LogicalStateSpec(2.2, 0.5), max_delay=30,
                          total_free=(70.0,), recovery_variant="approximate")
    syn = ProtocolConfig(code3.LogicalStateSpec(2.2, 0.5), max_delay=30,
                         total_free=(70.0,), recovery_variant="synthesized",
                         recovery_unitary=w5)
    a = run_multiqec(base, noise)[0]
    b = run_multiqec(syn, noise)[0]
    assert abs(a.fidelity - b.fidelity) < 1e-10
    assert abs(a.success_probability - b.success_probability) < 1e-10
