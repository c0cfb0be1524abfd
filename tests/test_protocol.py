"""Scheduling, timing, multi-round QEC, CHaDD, and the Lindblad toy model."""

import functools
import itertools
import math
import re
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from lindblad_reference import (
    chadd_cycle_unitary,
    collapse_operators,
    crosstalk_hamiltonian,
    evolve_lindblad,
    liouvillian,
    lindblad_rhs,
    pulse_permutations,
)
from lindblad_reference import propagate as propagate_reference
from multiqec_reference import run_multiqec as run_multiqec_reference
from multiqec_reference import (
    run_multiqec_with_chadd as run_multiqec_with_chadd_reference,
)
from multiqec_reference import (
    chadd_colors,
    fit_lifetime,
    run_multiqec_mpmath,
    schedule_rounds,
    split_rounds,
    total_evolution_time,
    total_evolution_time_exact,
)
from noise_reference import Z, damp_dephase, embed, fidelity, pure
from oracle_reference import oracle_fidelity_multiround, oracle_success_multiround

from nadqec import code3, protocol
from nadqec.metrics import gain_surface
from nadqec.noise import LIFETIME_RULE, NoiseParams, gamma_of_t
from nadqec.protocol import (
    ROBUST_PULSES,
    lindbladian,
    propagate,
    run_crosstalk_toy,
    run_multiqec,
    run_multiqec_with_chadd,
)
from nadqec.qcore import X, ConfigError, check_density, rx


# decimals m * 10^e from 1e-4 to about 1e13, many of them below the reset
_DECIMALS = st.builds(Decimal.scaleb, st.integers(0, 9999).map(Decimal),
                      st.integers(-4, 9))


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

    @settings(max_examples=60, deadline=None)
    @given(step=_DECIMALS.filter(lambda d: d > 0),
           totals=st.lists(_DECIMALS, min_size=1, max_size=6))
    @example(step=Decimal("0.1"), totals=[Decimal("0.3"), Decimal("1e-3"), Decimal(0)])
    @example(step=Decimal("1e-3"), totals=[Decimal("0.1"), Decimal("0.2999")])
    @example(step=Decimal("1e9"), totals=[Decimal("1e9"), Decimal("2.5e9")])
    @example(step=Decimal("1"), totals=[Decimal("2.5"), Decimal("31"), Decimal("1e-3")])
    def test_sweep_schedule_matches_fraction_reference(self, step, totals):
        # at most 300 full rounds a point, so the reference can list them;
        # the sweep's points share one integer denominator
        max_delay = float(step)
        total_free = tuple(float(t % (300 * step)) for t in totals)
        pts = run_multiqec(1.0, max_delay, total_free, NoiseParams(t1=1e15), 1e15)
        for t, pt in zip(total_free, pts, strict=True):
            schedule = schedule_rounds(t, max_delay)
            assert pt.rounds == len(schedule)
            assert pt.total_evolution_us \
                == float(total_evolution_time_exact(schedule))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="max_delay"):
            split_rounds(30, 0)
        with pytest.raises(ValueError, match="total_free"):
            split_rounds(-1, 30)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_name_the_field(self, bad):
        noise = NoiseParams(t1=220.0)
        for field, call in (
                ("max_delay", lambda: run_multiqec(1.0, bad, (30.0,), noise, 220.0)),
                ("total_free",
                 lambda: run_multiqec(1.0, 30.0, (30.0, bad), noise, 220.0)),
                ("max_delay", lambda: split_rounds(30.0, bad)),
                ("total_free", lambda: split_rounds(bad, 30.0)),
                ("max_delay", lambda: total_evolution_time(30.0, bad)),
                ("total_free", lambda: total_evolution_time(bad, 30.0))):
            with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
                call()

    def test_each_runner_parses_its_sweep_once(self, monkeypatch):
        # one parse serves a runner's every point, and for the CHaDD runner
        # its round cap, its walk and both of its series
        passes = []
        schedules = protocol._schedules
        monkeypatch.setattr(protocol, "_schedules",
                            lambda *a: passes.append(a) or schedules(*a))
        noise = NoiseParams.from_t1_t2(220.0, 300.0)
        total_free = (0.0, 40.0, 95.5)
        run_multiqec(1.0, 30, total_free, noise, 220.0)
        run_multiqec_with_chadd(1.0, 30, total_free, noise, 220.0, 1, ((0, 3, 0.05),))
        assert passes == [(total_free, 30)] * 2


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
        pts = run_multiqec(1.2, 30, (30.0, 60.0, 90.0), NoiseParams(t1=1e15), 1e15)
        for p in pts:
            assert abs(p.fidelity - 1.0) < 1e-9
            assert abs(p.success_probability - 1.0) < 1e-9

    def test_single_round_reproduces_oracle(self):
        pts = run_multiqec(math.pi, 30, (20.0,), NoiseParams.from_t1_t2(220.0, 440.0),
                           220.0)
        g = 1 - math.exp(-20.0 / 220.0)
        assert abs(pts[0].fidelity - code3.oracle_fidelity_ad(math.pi, g)) < 1e-10

    def test_multi_round_composes_single_round_maps(self):
        # independent reimplementation: iterate the analytic cycle by hand,
        # on a state of phase phi = 1, which the runner leaves at 0
        noise = NoiseParams.from_t1_t2(200.0, 300.0)
        pts = run_multiqec(2.0, 25, (70.0,), noise, 200.0)
        target = code3.encode_ideal(code3.LogicalStateSpec(2.0, 1.0))
        rho = pure(target)
        p_total = 1.0
        for delay in (25.0, 25.0, 20.0):
            g = 1 - math.exp(-delay / 200.0)
            p = 0.5 * (1 - math.exp(-delay / noise.lifetimes(3)[1][0]))
            rho = damp_dephase(rho, range(3), g, p)
            rho, p_round = code3.apply_cycle(
                code3.RecoveryMap.ideal(g).superop(), rho)
            check_density(rho)
            p_total *= p_round
        assert abs(pts[0].fidelity - fidelity(rho, target)) < 1e-12
        assert abs(pts[0].success_probability - p_total) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(["ideal", "approximate"]),
           theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 6.28),
           t1s=st.lists(st.floats(40.0, 500.0), min_size=3, max_size=3),
           per_qubit=st.booleans(), tphi=st.floats(30.0, 3000.0),
           max_delay=st.sampled_from([7.5, 12.0, 25.0, 30.0, 45.5]),
           total_free=st.lists(st.floats(0.0, 150.0), min_size=1, max_size=5))
    def test_matches_per_round_reference(self, variant, theta, phi, t1s,
                                         per_qubit, tphi, max_delay,
                                         total_free):
        # ideal needs one T1, the others take per-qubit T1; a finite Tphi
        # puts T2 below 2 T1; max_delay mostly leaves a remainder round; the
        # reference encodes at phi, the runner at 0
        t1 = t1s if per_qubit and variant != "ideal" else t1s[0]
        noise = NoiseParams(t1=t1, tphi=tphi)
        t1_r = protocol.recovery_t1(variant, noise.lifetimes(3)[0])
        for got, want in zip(run_multiqec(theta, max_delay, total_free, noise, t1_r),
                             run_multiqec_reference(theta, phi, max_delay, total_free,
                                                    noise, t1_r), strict=True):
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
                for total, pt in zip(total_free, run_multiqec(theta, max_delay,
                                                              total_free, noise, t1)):
                    full, rest = split_rounds(total, max_delay)
                    gammas = [gamma_of_t(max_delay, t1)] * full \
                        + ([gamma_of_t(float(rest), t1)] if rest else [])
                    want = oracle_fidelity_multiround(theta, gammas)
                    assert abs(pt.fidelity - want) <= 1e-10
                    want_p = oracle_success_multiround(theta, gammas)
                    assert abs(pt.success_probability - want_p) <= 1e-10

    def test_one_round_map_per_distinct_delay(self, monkeypatch):
        built = []
        build = code3.PauliRound.of_delay
        monkeypatch.setattr(code3.PauliRound, "of_delay",
                            lambda *a: built.append(a[0]) or build(*a))
        run_multiqec(1.0, 30, (600.0, 30.0, 45.0, 75.0, 90.0, 20.0),
                     NoiseParams(t1=220.0, tphi=300.0), 220.0)
        assert sorted(built) == [15.0, 20.0, 30.0]

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 8, 1000, 10**6, 2**40 - 1])
    def test_point_costs_logarithmic_products(self, monkeypatch, k):
        # a point costs one closed-form power of its full round and one
        # remainder round, whatever k is: no count here grows with k, and it
        # stays within the O(log k) bound of binary powering
        advanced, built = [], []
        advance = code3.PauliRound.advance
        build = code3.PauliRound.of_delay
        monkeypatch.setattr(code3.PauliRound, "advance",
                            lambda rnd, state, n=1: advanced.append(n)
                            or advance(rnd, state, n))
        monkeypatch.setattr(code3.PauliRound, "of_delay",
                            lambda *a: built.append(a[0]) or build(*a))
        for rest in (0.0, 0.25):  # without and with a remainder round
            advanced.clear()
            built.clear()
            pts = run_multiqec(2.0, 0.5, (0.5 * k + rest,),
                               NoiseParams(t1=220.0, tphi=300.0), 220.0)
            assert pts[0].rounds == k + (rest > 0)
            assert advanced == [k] * (k > 0) + [1] * (rest > 0)
            assert len(built) == (k > 0) + (rest > 0)
            assert len(advanced) <= 2 * math.ceil(math.log2(k + 1)) + 1

    @pytest.mark.parametrize("t1,tphi", [(220.0, 300.0), ([200.0, 220.0, 250.0],
                                                          [300.0, 500.0, 400.0])])
    def test_run_builds_no_64x64_map(self, monkeypatch, t1, tphi):
        # uniform and per-qubit noise alike take the round in closed form
        def refuse(*_):
            raise AssertionError("the 64x64 maps were built")
        for name in ("logical_round", "logical_outcomes", "noise_superop"):
            monkeypatch.setattr(code3, name, refuse)
        monkeypatch.setattr(code3.RecoveryMap, "superop", refuse)
        pts = run_multiqec(2.0, 30, (0.0, 20.0, 600.0, 1e9),
                           NoiseParams(t1=t1, tphi=tphi), math.inf)
        assert [p.rounds for p in pts] == [0, 1, 20, 33333334]

    @pytest.mark.parametrize("total_free", [(30.0,), (60.0,), (75.0,), (20.0,),
                                            (0.0, 90.0)])
    def test_full_damping_removes_all_weight(self, total_free):
        # T1 = 1e-308 us: every delay here over T1 overflows to inf, gamma
        # = 1 exactly, whether a point reaches it by one round, by a power
        # or by its remainder (a finite delay / T1 keeps a defined round,
        # see test_rounds_of_many_t1_match_mpmath)
        with pytest.raises(ValueError, match="post-selection removed all weight"):
            run_multiqec(1.0, 30, total_free, NoiseParams(t1=1e-308), 1e-308)

    @pytest.mark.parametrize("variant", ["ideal", "approximate"])
    @pytest.mark.parametrize("many", [37, 40, 100, 300, 400])
    def test_rounds_of_many_t1_match_mpmath(self, many, variant):
        # gamma rounds to 1 from about 37 T1 on; unless T01 is carried as a
        # log, T01 over the larger population weight overflows past 355 T1
        # and T01 itself underflows past 372 T1; P may underflow to 0
        t1 = 50.0
        noise = NoiseParams(t1=t1)
        t1_r = protocol.recovery_t1(variant, noise.lifetimes(3)[0])
        sweep = (many * t1, (many * t1, 2.5 * many * t1, 0.5 * many * t1))
        for theta in (1.0, math.pi / 2, 3.14):
            for got, (fid, prob) in zip(run_multiqec(theta, *sweep, noise, t1_r),
                                        run_multiqec_mpmath(theta, *sweep, noise,
                                                            t1_r, 400),
                                        strict=True):
                assert abs(got.fidelity - fid) <= 1e-12
                if prob >= 1e-300:
                    assert abs(got.success_probability / prob - 1) <= 1e-12

    def test_nan_weight_raises(self):
        # the weight guard of the closed-form power is written so that NaN
        # fails it, whichever field holds the NaN and whatever k is
        nan = math.nan
        for fields in ((nan, nan, nan, nan), (0.0, nan, 0.0, 0.0),
                       (nan, 0.0, 0.0, 0.0), (-0.1, -0.1, nan, -0.1)):
            for k in (1, 10**12):
                with pytest.raises(ValueError, match="removed all weight.*nan"):
                    code3.PauliRound(*fields).advance((0.5, 0.5, 0.5), k)

    def test_sweep_point_equals_its_lone_run(self):
        # a shared round changes no bit
        total_free = (600.0, 0.0, 90.0, 20.0, 45.0, 1e5)
        noise = NoiseParams(t1=220.0, tphi=300.0)

        def run(points):
            return run_multiqec(2.0, 30, points, noise, 220.0)

        assert run(total_free) == [run((t,))[0] for t in total_free]

    def test_approximate_accepts_per_qubit_t1(self):
        def fidelity(t1):
            return run_multiqec(math.pi, 60, (60.0,), NoiseParams(t1=t1),
                                math.inf)[0].fidelity
        fids = [fidelity(t1) for t1 in ([100.0, 300.0, 300.0], [300.0, 300.0, 100.0])]
        # the approximate recovery does not adapt, so qubit order is moot
        assert abs(fids[0] - fids[1]) < 1e-12
        assert fids[0] < fidelity(300.0)

    def test_break_even_lifetime(self):
        pts = run_multiqec(math.pi, 30, tuple(np.arange(30.0, 331.0, 30.0)),
                           NoiseParams.from_t1_t2(220.0, 440.0), 220.0)
        tau = fit_lifetime([p.total_evolution_us for p in pts],
                           [p.fidelity for p in pts])
        assert tau >= 2 * 220.0

    def test_bare_reference(self):
        assert abs(math.exp(-220.0 / 220.0) - math.exp(-1)) < 1e-15
        times = np.linspace(10, 400, 20)
        tau = fit_lifetime(times, [math.exp(-t / 220.0) for t in times])
        assert abs(tau - 220.0) < 1e-6


def _assert_matches_mpmath(theta, max_delay, total_free, noise, variant,
                           digits=60):
    """Every point's F and P within 1e-12 relative of the mpmath powers."""
    sweep = (theta, max_delay, total_free, noise,
             protocol.recovery_t1(variant, noise.lifetimes(3)[0]))
    for got, (fid, prob) in zip(run_multiqec(*sweep),
                                run_multiqec_mpmath(*sweep, digits), strict=True):
        assert abs(got.fidelity / fid - 1) <= 1e-12
        assert abs(got.success_probability / prob - 1) <= 1e-12


# (max_delay, T2, total_free) at T1 = 220 us: 3e7, 3e10, 3e15, 1e13 to 3e17,
# 1e18 and 1e17 to 3e21 full rounds. The squaring the closed form replaced
# reported P off by 2.2e-9 and 1.2e-6 relative on the first two, P =
# 0.99999997 for 0.7613 on the third, exited on P > 1 on the 1e-16 and
# 1e-20 specs, and on a math range error at 1e-300.
_EXTREME_SPECS = [
    (1e-6, 440.0, (30.0,)), (1e-9, 440.0, (30.0,)), (1e-14, 300.0, (30.0,)),
    (1e-16, 300.0, (1e-3, 1.0, 30.0)), (1e-17, 300.0, (10.0,)),
    (1e-20, 300.0, (1e-3, 1.0, 30.0)),
]


class TestExtremeRoundCounts:
    """F and P at any round count against 60-digit mpmath powers of the
    exact round (``multiqec_reference.run_multiqec_mpmath``)."""

    @pytest.mark.parametrize("variant", ["ideal", "approximate"])
    @pytest.mark.parametrize("max_delay,t2,total_free", _EXTREME_SPECS)
    def test_matches_mpmath(self, max_delay, t2, total_free, variant):
        noise = NoiseParams.from_t1_t2(220.0, t2)
        for theta in (3.14159, 1.2):
            _assert_matches_mpmath(theta, max_delay, total_free, noise, variant)

    @pytest.mark.parametrize("variant,t1", [
        ("ideal", 220.0), ("approximate", [200.0, 220.0, 250.0])])
    @pytest.mark.parametrize("max_delay,total_free", [
        (7.5, (0.0, 3.2, 100.0, 1000.1)), (1e-16, (1e-3, 30.0))])
    def test_per_qubit_noise_matches_mpmath(self, variant, t1, max_delay,
                                            total_free):
        noise = NoiseParams(t1=t1, tphi=[300.0, 500.0, 400.0])
        _assert_matches_mpmath(2.0, max_delay, total_free, noise, variant)

    def test_shortest_rounds_need_more_digits(self):
        # 1e-300 us rounds: 60 digits cannot hold 1 - 1e-300, 360 can
        noise = NoiseParams.from_t1_t2(220.0, 440.0)
        _assert_matches_mpmath(3.14159, 1e-300, (30.0,), noise, "ideal", digits=360)


# The 4x4 Walsh-Hadamard sign matrix; the toggling signs of color 1 and
# color 2 trace its rows 3 and 2
_SIGN_MATRIX = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]])
_SIGN_ROWS = {1: 3, 2: 2}


def _toggling_signs(pulses):
    """Sign of (Z_color1, Z_color2, Z_color1*Z_color2) during the free
    interval before each pulse, as rows over the cycle."""
    s1 = s2 = 1
    rows = []
    for _, color in pulses:
        rows.append((s1, s2, s1 * s2))
        if color == 1:
            s1 = -s1
        else:
            s2 = -s2
    return np.array(rows).T


class TestChaddSequence:
    def test_toggling_sums_vanish_robust_and_plain(self):
        # the plain X cycle the robust one doubles, with XT pulses as X
        plain = (("X", 1), ("X", 2), ("X", 1), ("X", 2))
        for pulses in (ROBUST_PULSES, plain):
            sums = _toggling_signs(pulses).sum(axis=1)
            assert tuple(sums) == (0, 0, 0)

    def test_robust_pulse_list(self):
        assert ROBUST_PULSES == (("X", 1), ("X", 2), ("XT", 1), ("XT", 2),
                                 ("XT", 1), ("XT", 2), ("X", 1), ("X", 2))
        assert len(ROBUST_PULSES) == 8

    def test_sign_matrix_rows_orthogonal(self):
        r1, r2 = _SIGN_MATRIX[_SIGN_ROWS[1]], _SIGN_MATRIX[_SIGN_ROWS[2]]
        assert r1 @ r2 == 0
        assert r1.sum() == 0 and r2.sum() == 0

    def test_zero_tau_pulse_product_is_phase(self):
        u = chadd_cycle_unitary(0.0, np.zeros((4, 4)), (1, 2))
        phase = u[0, 0] / abs(u[0, 0])
        np.testing.assert_allclose(u / phase, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("kind", ["X", "XT"])
    def test_pulse_permutation_matches_kron_conjugation(self, kind):
        # X and RX(-pi) = iX on every qubit of a color, as a register-sized
        # matrix, conjugate rho as the color's gather of the register does
        rng = np.random.default_rng(5)
        colors = (1, 2, 1, 1, 2)
        rho = _random_density(rng, 32)
        pulse = X if kind == "X" else rx(-math.pi)
        for color, gather in protocol._pulse_gathers(colors, 1).items():
            u = functools.reduce(np.kron, [pulse if c == color else np.eye(2)
                                           for c in colors])
            np.testing.assert_allclose(rho.ravel()[gather].reshape(rho.shape),
                                       u @ rho @ u.conj().T, atol=1e-15)

    def test_pulse_gathers_match_full_register_permutation(self):
        # every colouring by 1, 2 and 3 (never pulsed) of 1 to 7 qubits and
        # every split with the last k <= n - 3 qubits classical: a gather of
        # the block view is the full register's permutation restricted to
        # equal classical bits, rho[a m + s, b m + s] -> block (a, b, s)
        for n in range(1, 8):
            register = np.arange(4**n).reshape(2**n, 2**n)  # distinct entries
            # each split's block view, as indices into the flat register
            views = {m: np.einsum("asbs->abs", register.reshape(
                2**n // m, m, 2**n // m, m)).ravel()
                for m in (2**k for k in range(max(n - 2, 1)))}
            for colors in itertools.product((1, 2, 3), repeat=n):
                perms = pulse_permutations(colors)
                pulsed = {c: register[np.ix_(p, p)].ravel() for c, p in perms.items()}
                for m, view in views.items():
                    gathers = protocol._pulse_gathers(colors, m)
                    assert sorted(gathers) == sorted(perms) == [1, 2]
                    for color in perms:
                        assert np.array_equal(view[gathers[color]],
                                              pulsed[color][view])

    def test_closed_system_cycle_is_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            w1, w2, g, tau = rng.uniform(0.05, 2.0, 4)
            u = chadd_cycle_unitary(tau, crosstalk_hamiltonian(g, (w1, w2)), (1, 2))
            phase = u[0, 0] / abs(u[0, 0])
            assert np.abs(u / phase - np.eye(4)).max() < 1e-8


def _toy(probe, t_final, cycles, g=0.05, omegas=(0.0, 0.0),
         noise=NoiseParams(t1=math.inf)):
    """One probe's (free, chadd) pair of the ZZ toy; by default a coupled,
    undetuned pair without noise."""
    return run_crosstalk_toy(noise, g, omegas, t_final, cycles, (probe,))[0]


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


def _restrict(rho, m):
    """The entries of a register rho whose last log2(m) qubits have equal
    bits in a and b, as the (d, d, m) block view rho[a, b, s]."""
    d = rho.shape[0] // m
    return np.einsum("asbs->abs", rho.reshape(d, m, d, m))


class TestLindblad:
    def test_trace_preserved(self):
        gen = lindbladian(2, NoiseParams(t1=80.0, tphi=120.0), ((0, 1, 0.07),),
                          (0.4, 0.1))
        rho = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        out = propagate(gen.propagator(25.0), rho)
        assert abs(np.trace(out).real - 1.0) < 1e-9

    def test_richardson_convergence(self):
        collapse = collapse_operators(2, NoiseParams(t1=80.0, tphi=120.0))
        rho = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        h = crosstalk_hamiltonian(0.07, (0.4, 0.1))
        coarse = evolve_lindblad(h, rho, 10.0, collapse, 400)
        fine = evolve_lindblad(h, rho, 10.0, collapse, 800)
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

    def test_overflowing_decay_rate_decays_to_zero(self):
        # 1/(2 T1) + 1/Tphi past the largest float on each qubit, and the
        # two qubits' dephasing summed past it on the |01><10| coherence:
        # every coherence is gone at any t > 0 and t = 0 is the identity
        psi = np.full(4, 0.5, dtype=complex)
        rho = np.outer(psi, psi.conj())
        for noise in (NoiseParams(t1=6e-309, tphi=6e-309),
                      NoiseParams(t1=1e300, tphi=6e-309)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gen = lindbladian(2, noise, ((0, 1, 0.05),), (0.3, 0.2))
                out = propagate(gen.propagator(np.array([0.0, 1e-300, 16.0])), rho)
            np.testing.assert_array_equal(out[0], rho)
            for later in out[1:]:
                assert np.all(later[~np.eye(4, dtype=bool)] == 0)
                assert abs(np.trace(later) - 1) < 1e-15

    @pytest.mark.parametrize("model", [(0.05, (1e308, 0.0)), (1e308, (0.0, 0.0))])
    def test_overflowing_phase_raises(self, model):
        # omega t or g t past the largest float is a phase with no value
        g, omegas = model
        gen = lindbladian(2, NoiseParams(t1=math.inf), ((0, 1, g),), omegas)
        with pytest.raises(FloatingPointError, match="invalid value"):
            gen.propagator(np.array([1.0, 16.0]))

    def test_runners_name_an_overflowing_phase(self):
        # each runner checks 4 |f| t, the largest phase the propagator
        # forms, before it builds one: just below that bound the run is
        # finite and warns nothing, above it the error names the field
        bound = sys.float_info.max / (4 * 60.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = _toy("+", 60.0, 1, g=0.99 * bound)
        assert all(np.all(np.isfinite(series.fidelity)) for series in pair)
        big = -1.01 * bound
        for field, model in (("omega1", dict(omegas=(big, 0.0))),
                             ("omega2", dict(omegas=(0.0, big))), ("g", dict(g=big))):
            # the free series' span, t_final, bounds each CHaDD interval
            for cycles in (1, 8):
                with pytest.raises(FloatingPointError, match=f"^{field} = "):
                    _toy("0", 60.0, cycles, **model)
        couplings = ((0, 3, 0.6 * bound), (1, 3, 0.6 * bound))
        with pytest.raises(FloatingPointError, match="couplings on qubit 3 = "):
            run_multiqec_with_chadd(1.0, 60.0, (10.0, 70.0), NoiseParams(t1=220.0),
                                    220.0, 1, couplings)

    def test_overflowing_decay_is_zero(self):
        # t / T1 past the largest float is a decay of exactly 0, with no
        # error and no warning
        rho = np.diag([0.0, 1.0]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prop = lindbladian(1, NoiseParams(t1=1e-300)).propagator(1e10)
        out = propagate(prop, rho)
        assert np.max(np.abs(out - np.diag([1.0, 0.0]))) < 1e-15

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
    @example(n=1, seed=3163, t=188.0)  # 1.59e-12 off with one expm_multiply
    @example(n=1, seed=0, t=5e-324)  # t / 5 underflows to 0
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

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_block_view_matches_full_register_restricted(self, n):
        # the last n - 3 qubits held classical: propagating rho[a, b, s]
        # equals propagating the full register, then keeping the entries
        # with equal bits on those qubits, whatever the others hold
        rng = np.random.default_rng(n)
        lifetimes = (math.inf, 30.0, 100.0, 220.0)
        noise = NoiseParams(t1=[lifetimes[i] for i in rng.integers(4, size=n)],
                            tphi=[lifetimes[i] for i in rng.integers(4, size=n)])
        omega = rng.uniform(-0.5, 0.5, size=n)
        # data-data, data-spectator and spectator-spectator pairs
        couplings = [(0, 2, 0.03), (1, 3, -0.05), (n - 1, 0, 0.04),
                     (3, n - 1, 0.02), (n - 1, 2, -0.01)][:5 if n > 4 else 3]
        full_gen = lindbladian(n, noise, couplings, omega)
        block_gen = lindbladian(n, noise, couplings, omega, classical=n - 3)
        rho = _random_density(rng, 2**n)
        m = 2**(n - 3)
        for t in (0.0, 3.75, 37.5):
            full = propagate(full_gen.propagator(t), rho)
            got = propagate(block_gen.propagator(t), _restrict(rho, m))
            assert got.shape == (8, 8, m)
            assert np.abs(got - _restrict(full, m)).max() <= 1e-12

    def test_classical_count_must_leave_a_quantum_qubit(self):
        for classical in (-1, 4):
            with pytest.raises(ValueError, match="classical qubits"):
                lindbladian(4, NoiseParams(t1=100.0), classical=classical)

    @pytest.mark.parametrize("classical", [0, 1, 2])
    def test_batched_durations_match_single_propagators(self, classical):
        # an array of durations gives one state per entry, on leading axes
        # of the array's shape, each the one-duration propagator's
        rng = np.random.default_rng(3 + classical)
        noise = NoiseParams(t1=[100.0, math.inf, 220.0, 50.0],
                            tphi=[80.0, 300.0, math.inf, 90.0])
        gen = lindbladian(4, noise, [(0, 1, 0.05), (1, 3, -0.04), (2, 3, 0.03)],
                          rng.uniform(-0.5, 0.5, size=4), classical=classical)
        rho = _restrict(_random_density(rng, 16), 2**classical)
        rho = rho[..., 0] if classical == 0 else rho
        durations = np.array([[0.0, 1.5, 3.75], [20.0, 60.0, 1e3]])
        batch = propagate(gen.propagator(durations), rho)
        assert batch.shape == durations.shape + rho.shape
        for i, t in np.ndenumerate(durations):
            assert np.abs(batch[i] - propagate(gen.propagator(t), rho)).max() <= 1e-12


class TestCrosstalkToy:
    def test_stationary_without_coupling_or_noise(self):
        for series in _toy("1", 40.0, 4, g=0.0):
            np.testing.assert_allclose(series.pop1, 1.0, atol=1e-10)

    def test_probe_one_improves_with_chadd(self):
        without, with_dd = _toy("1", 60.0, 4, omegas=(0.3, 0.2),
                                noise=NoiseParams(t1=100.0))
        assert with_dd.fidelity[-1] > without.fidelity[-1]

    def test_probe_zero_degrades_with_chadd(self):
        without, with_dd = _toy("0", 60.0, 4, omegas=(0.3, 0.2),
                                noise=NoiseParams(t1=100.0))
        assert with_dd.fidelity[-1] < without.fidelity[-1]

    def test_unknown_probe(self):
        with pytest.raises(ValueError):
            _toy("2", 10.0, 4)

    @pytest.mark.parametrize("cycles", [0, -2])
    def test_cycles_must_be_positive(self, cycles):
        with pytest.raises(ValueError, match="cycles"):
            _toy("0", 10.0, cycles)

    @pytest.mark.parametrize("t_final, cycles, need", [
        (0.0, 4, "positive"), (-60.0, 4, "positive")])
    def test_bad_t_final_rejected(self, t_final, cycles, need):
        with pytest.raises(ValueError, match=f"t_final must be {need}"):
            _toy("1", t_final, cycles, noise=NoiseParams(t1=50.0))

    @pytest.mark.parametrize("probe", ["0", "1", "+"])
    def test_free_series_equals_stepped_series(self, probe):
        # one propagator over the 40 sample times against 40 steps of one
        noise = NoiseParams(t1=80.0, tphi=120.0)
        series, _ = _toy(probe, 60.0, 1, omegas=(0.3, 0.2), noise=noise)
        ket = {"0": [1, 0], "1": [0, 1], "+": [1 / math.sqrt(2)] * 2}[probe]
        psi = np.kron(ket, [1, 0]).astype(complex)
        state = np.outer(psi, psi.conj())
        step = lindbladian(2, noise, ((0, 1, 0.05),), (0.3, 0.2)).propagator(60.0 / 40)
        rows = [state]
        for _ in range(40):
            state = propagate(step, state)
            rows.append(state)
        reduced = np.trace(np.reshape(rows, (-1, 2, 2, 2, 2)), axis1=2, axis2=4)
        np.testing.assert_array_equal(series.times, 1.5 * np.arange(41))
        for got, want in ((series.pop0, reduced[:, 0, 0].real),
                          (series.pop1, reduced[:, 1, 1].real),
                          (series.fidelity, np.real(np.conj(ket) @ reduced @ ket))):
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("cycles", [1, 3])
    def test_diagonal_probes_cannot_see_coupling_or_dephasing(self, cycles):
        # |0> and |1> start the probe diagonal, and the ZZ coupling, the Z
        # terms and dephasing act only on coherences, so the populations
        # and fidelity follow T1 alone, bit for bit; a "+" probe sees them
        base = dict(g=0.0, noise=NoiseParams(t1=80.0))
        others = (dict(omegas=(0.3, 0.2), g=0.05,
                       noise=NoiseParams(t1=80.0, tphi=120.0)),
                  dict(omegas=(-1.1, 0.7), g=0.2,
                       noise=NoiseParams.from_t1_t2(80.0, 100.0)))
        for probe in ("0", "1"):
            want = _toy(probe, 60.0, cycles, **base)
            for model in others:
                got = _toy(probe, 60.0, cycles, **model)
                for a, b in zip(got, want, strict=True):  # free, then chadd
                    for field in ("times", "pop0", "pop1", "fidelity"):
                        assert np.array_equal(getattr(a, field), getattr(b, field))
        for which in (0, 1):
            plus = [_toy("+", 60.0, cycles, **m)[which].fidelity
                    for m in (base,) + others]
            assert all(not np.array_equal(plus[0], f) for f in plus[1:])

    def test_one_generator_and_state_per_call(self, monkeypatch):
        # every probe of a call shares its one generator and its two
        # propagators (the 40 sample times, one CHaDD interval), and both
        # series of a probe its one initial state
        built = {"lindbladian": [], "propagator": []}
        for owner, name in ((protocol, "lindbladian"),
                            (protocol.Lindbladian, "propagator")):
            calls, original = built[name], getattr(owner, name)
            monkeypatch.setattr(
                owner, name,
                lambda *a, calls=calls, original=original, **k:
                    calls.append(a) or original(*a, **k))
        pairs = run_crosstalk_toy(NoiseParams(t1=50.0), 0.05, (0.0, 0.0), 60.0, 3,
                                  ("+", "0", "1"))
        assert (len(built["lindbladian"]), len(built["propagator"])) == (1, 2)
        assert len(pairs) == 3
        for (free, chadd), probe in zip(pairs, ("+", "0", "1")):
            assert np.array_equal(free.fidelity[:1], chadd.fidelity[:1])
            assert (len(free.times), len(chadd.times)) == (41, 4)
            lone = _toy(probe, 60.0, 3, noise=NoiseParams(t1=50.0))
            for a, b in zip((free, chadd), lone, strict=True):
                for field in ("times", "pop0", "pop1", "fidelity"):
                    assert np.array_equal(getattr(a, field), getattr(b, field))


class TestMultiQecWithChadd:
    noise = NoiseParams.from_t1_t2(220.0, 440.0)

    def test_no_coupling_no_noise_is_perfect(self):
        for pts in run_multiqec_with_chadd(math.pi / 2, 30, (60.0,),
                                           NoiseParams(t1=1e12), 1e12, 1,
                                           ((0, 3, 0.0),)):
            assert abs(pts[0].fidelity - 1.0) < 1e-8
            assert abs(pts[0].success_probability - 1.0) < 1e-8

    @pytest.mark.parametrize("chadd", [False, True])
    def test_empty_sweep_returns_no_points(self, chadd):
        assert run_multiqec_with_chadd(1.0, 30, (), self.noise, 220.0, 1,
                                       ((0, 3, 0.05),))[chadd] == []

    @settings(max_examples=60, deadline=None)
    @given(variant=st.sampled_from(["ideal", "approximate"]),
           theta=st.floats(0.0, math.pi), t1=st.floats(10.0, 500.0),
           t2_share=st.floats(0.05, 1.0), delay_t1=st.floats(1e-3, 100.0),
           spans=st.lists(st.floats(0.0, 3.5), min_size=1, max_size=3))
    @example(variant="ideal", theta=math.pi / 2, t1=50.0, t2_share=1.0,
             delay_t1=40.0, spans=[1.0, 2.5])  # gamma rounds to 1
    @example(variant="ideal", theta=2.1, t1=220.0, t2_share=1.0,
             delay_t1=30 / 220, spans=[1.5])
    def test_matches_kraus_engine_without_chadd(self, variant, theta, t1, t2_share,
                                                delay_t1, spans):
        # the plain series without spectators is the closed-form round:
        # T2 up to 2 T1, max_delay up to 100 T1, points with remainders
        noise = NoiseParams.from_t1_t2(t1, 2 * t1 * t2_share)
        max_delay = delay_t1 * t1
        sweep = (theta, max_delay, tuple(max_delay * x for x in spans), noise,
                 protocol.recovery_t1(variant, noise.lifetimes(3)[0]))
        got, _ = run_multiqec_with_chadd(*sweep, 0, ())
        for a, b in zip(got, run_multiqec(*sweep), strict=True):
            assert abs(a.fidelity - b.fidelity) <= 1e-12
            if b.success_probability >= 1e-300:
                assert abs(a.success_probability / b.success_probability - 1) <= 1e-12

    @pytest.mark.parametrize("many", [355, 360, 375, 400])
    def test_kept_weight_too_small_to_renormalize_raises(self, many):
        # a round of many T1 keeps a weight of about 6.7e-309 at 355 T1 and
        # below 1/(the largest float) from 360 T1 on, where renormalizing
        # overflows: the walk then ends on the defined error naming the
        # weight, and warns nothing (pytest turns a warning into a failure)
        t1 = 50.0
        sweep = (math.pi / 2, many * t1, (many * t1,), NoiseParams(t1=t1), t1)
        if many == 355:
            (got,), _ = run_multiqec_with_chadd(*sweep, 0, ())
            (want,) = run_multiqec(*sweep)
            assert abs(got.fidelity - want.fidelity) <= 1e-12
        else:
            with pytest.raises(ValueError, match=r"removed all weight \(kept weight "):
                run_multiqec_with_chadd(*sweep, 0, ())

    def test_chadd_suppresses_spectator_crosstalk(self):
        plain, chadd = run_multiqec_with_chadd(math.pi / 2, 30, (60.0,), self.noise,
                                               220.0, 1, ((0, 3, 0.05),))
        assert chadd[0].fidelity >= plain[0].fidelity

    def test_chadd_hurts_zero_logical_without_crosstalk(self):
        plain, chadd = run_multiqec_with_chadd(0.0, 30, (60.0,), self.noise, 220.0,
                                               0, ())
        assert chadd[0].fidelity < plain[0].fidelity

    def test_register_cap(self):
        with pytest.raises(ConfigError, match=r"^spectators must be an integer "
                                              r"in \[0, 4\], got 5$"):
            run_multiqec_with_chadd(0.0, 30, (30.0,), self.noise, 220.0, 5, ())

    def test_seven_qubit_register_chadd_suppresses_crosstalk(self):
        couplings = ((0, 3, 0.05), (2, 4, 0.04), (1, 5, 0.03), (0, 6, 0.02))
        plain, chadd = run_multiqec_with_chadd(math.pi / 2, 30, (30.0,), self.noise,
                                               220.0, 4, couplings)
        assert chadd[0].fidelity >= plain[0].fidelity

    def test_pulse_unitaries_built_once_per_run(self, monkeypatch):
        # the pulses, as gathers of the block state: one set per call, which
        # the CHaDD series reads
        built = []
        gathers = protocol._pulse_gathers
        monkeypatch.setattr(protocol, "_pulse_gathers",
                            lambda *a: built.append(a) or gathers(*a))
        run_multiqec_with_chadd(1.0, 30, (30.0, 75.0), self.noise, 220.0, 1,
                                ((0, 3, 0.05),))
        assert built == [((1, 2, 1, 2), 2)]

    @pytest.mark.parametrize("chadd", [False, True])
    @pytest.mark.parametrize("spectators", [0, 1, 2])
    def test_sweep_point_equals_its_lone_run(self, spectators, chadd):
        # shared prefixes change no bit: a zero point, full rounds only,
        # and remainders of 15 and 20 us, in an unsorted sweep
        couplings = [(0, 3 + i, 0.05 - 0.01 * i) for i in range(spectators)]
        total_free = (75.0, 0.0, 60.0, 20.0, 45.0)

        def run(points):
            return run_multiqec_with_chadd(2.0, 30, points, self.noise, 220.0,
                                           spectators, couplings)[chadd]

        assert run(total_free) == [run((t,))[0] for t in total_free]

    def test_one_round_per_distinct_delay(self, monkeypatch):
        # per call: one generator, one propagator per distinct delay of each
        # series, and one kept recovery branch per distinct delay, which
        # both series share
        built = {"lindbladian": [], "propagator": [], "of_delay": []}
        for owner, name in ((protocol, "lindbladian"),
                            (protocol.Lindbladian, "propagator"),
                            (code3.RecoveryMap, "of_delay")):
            calls, original = built[name], getattr(owner, name)
            monkeypatch.setattr(
                owner, name,
                lambda *a, calls=calls, original=original, **k:
                    calls.append(a) or original(*a, **k))
        run_multiqec_with_chadd(1.0, 30, (90.0, 30.0, 45.0, 75.0, 20.0), self.noise,
                                220.0, 1, ((0, 3, 0.05),))
        assert len(built["lindbladian"]) == 1
        # 30, 15 and 20 us plain, then each as one robust cycle of 8 intervals
        assert [a[1] for a in built["propagator"]] \
            == [30.0, 15.0, 20.0, 30 / 8, 15 / 8, 20 / 8]
        assert [a[0] for a in built["of_delay"]] == [30.0, 15.0, 20.0]

    @settings(max_examples=50, deadline=None)
    @given(spectators=st.integers(0, 4), chadd=st.booleans(),
           variant=st.sampled_from(["ideal", "approximate"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_full_register_reference(self, spectators, chadd, variant,
                                             seed):
        # the block state against the full (8 * 2^k)^2 register, walked
        # point by point: per-qubit T1 and Tphi (some infinite), couplings
        # of every kind the register has, and remainder rounds
        rng = np.random.default_rng(seed)
        n = 3 + spectators
        lifetimes = (math.inf, 1e12, 50.0, 100.0, 220.0)
        t1 = [lifetimes[i] for i in rng.integers(5, size=n)]
        if variant == "ideal":
            t1[1] = t1[2] = t1[0]  # the ideal recovery adapts to one T1
        noise = NoiseParams(t1=t1, tphi=[lifetimes[i] for i in rng.integers(5, size=n)])

        def g():
            return float(rng.uniform(-0.1, 0.1))
        couplings = [(int(rng.integers(2)), 2, g())]  # data-data
        if spectators:
            couplings.append((int(rng.integers(3)), int(rng.integers(3, n)), g()))
        if spectators > 1:
            couplings.append((3, n - 1, g()))  # spectator-spectator
        for _ in range(rng.integers(3)):
            a, b = rng.choice(n, 2, replace=False)
            couplings.append((int(a), int(b), g()))
        # the reference encodes at a random phase phi, the runner at 0
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        max_delay = float(rng.choice([7.5, 10.0, 12.5]))
        total_free = tuple(float(t) for t in rng.choice(
            [0.0, 5.0, 10.0, 17.5, 25.0, 32.5], size=3))
        t1_r = protocol.recovery_t1(variant, t1)
        got = run_multiqec_with_chadd(theta, max_delay, total_free, noise, t1_r,
                                      spectators, couplings)[chadd]
        want = run_multiqec_with_chadd_reference(theta, phi, max_delay, total_free,
                                                 noise, t1_r, spectators, couplings,
                                                 chadd=chadd)
        for a, b in zip(got, want, strict=True):
            assert (a.total_evolution_us, a.rounds) == (b.total_evolution_us, b.rounds)
            assert abs(a.fidelity - b.fidelity) <= 1e-12
            assert abs(a.success_probability - b.success_probability) \
                <= 1e-12 * b.success_probability

    @pytest.mark.parametrize("spectators", [0, 1, 4])
    def test_state_holds_one_data_block_per_spectator_string(self, monkeypatch,
                                                            spectators):
        # every state propagated or recovered has 64 * 2^k entries, the
        # register's (8 * 2^k)^2 restricted to equal spectator bits
        sizes = []
        for owner, name in ((protocol, "propagate"), (code3, "apply_cycle")):
            def wrapped(op, rho, original=getattr(owner, name)):
                out = original(op, rho)
                sizes.append((rho.size, np.size(out[0] if isinstance(out, tuple)
                                                else out)))
                return out
            monkeypatch.setattr(owner, name, wrapped)
        couplings = [(0, 3 + i, 0.05) for i in range(spectators)]
        run_multiqec_with_chadd(1.0, 30, (45.0,), self.noise, 220.0, spectators,
                                couplings)
        # two plain rounds of one interval, then two rounds of 8 intervals,
        # each with its recovery
        assert len(sizes) == 2 * (1 + 1) + 2 * (8 + 1)
        assert set(sizes) == {(64 * 2**spectators,) * 2}

    def test_default_coloring_is_proper(self):
        couplings = ((0, 3, 0.1), (2, 4, 0.1))
        colors = protocol._colors(5, couplings)
        for a, b, _ in couplings:
            assert colors[a] != colors[b]

    @settings(max_examples=200, deadline=None)
    @given(layout=st.integers(0, 4).flatmap(lambda k: st.tuples(st.just(k), st.lists(
        st.tuples(st.integers(0, 2 + k), st.integers(0, 2 + k)).filter(
            lambda ab: ab[0] != ab[1]), max_size=6))))
    @example(layout=(2, [(3, 4), (0, 3), (4, 2)]))
    def test_colors_follow_the_first_partner(self, layout):
        # each spectator opposite its first coupled partner; a partner that
        # is a later spectator counts as color 2, and no partner gives 1
        spectators, pairs = layout
        couplings = [(a, b, 0.1) for a, b in pairs]
        assert protocol._colors(3 + spectators, couplings) \
            == chadd_colors(spectators, couplings)
        # 3's first partner is 4, a later spectator: 3 takes color 1
        assert protocol._colors(5, [(3, 4, 0.1), (0, 3, 0.1), (4, 2, 0.1)]) \
            == (1, 2, 1, 1, 2)


class TestEdgeCases:
    def test_zero_total_free_point(self):
        pts = run_multiqec(1.0, 30, (0.0,), NoiseParams(t1=100.0), 100.0)
        assert pts[0].rounds == 0
        assert pts[0].fidelity == 1.0
        assert pts[0].success_probability == 1.0
        assert abs(pts[0].total_evolution_us - 1.096) < 1e-12


def test_row_assignment_matches_realized_signs():
    signs = _toggling_signs(ROBUST_PULSES)
    reps = len(ROBUST_PULSES) // 4
    for color in (1, 2):
        row = np.tile(_SIGN_MATRIX[_SIGN_ROWS[color]], reps)
        np.testing.assert_array_equal(signs[color - 1], row)


class TestRecoveryT1:
    def test_each_variant_resolves_to_a_t1(self):
        # the ideal recovery adapts to data qubit 0's T1, the approximate
        # one to T1 = inf, where gamma(delay) is exactly 0
        t1s = (220.0, 220.0, 220.0, 90.0)
        assert protocol.recovery_t1("ideal", t1s) == 220.0
        assert protocol.recovery_t1("approximate", t1s) == math.inf
        assert gamma_of_t(30.0, math.inf) == 0.0

    def test_ideal_needs_one_data_t1(self):
        t1s = (220.0, 200.0, 220.0)
        with pytest.raises(ConfigError, match="adapts to one T1"):
            protocol.recovery_t1("ideal", t1s)
        assert protocol.recovery_t1("approximate", t1s) == math.inf


_BAD_SHARED = [
    ("max_delay", True, "max_delay must be a finite number, got True"),
    ("max_delay", 0.0, "max_delay must be positive, got 0.0"),
    ("total_free", (30.0, False), "total_free must be a finite number, got False"),
    ("theta", 4.0, "'theta' must be in [0, pi], got 4.0"),
    ("theta", True, "'theta' must be in [0, pi], got True"),
    ("recovery_t1", 0.0, f"recovery_t1 must be {LIFETIME_RULE}, got 0.0"),
    ("recovery_t1", "ideal", f"recovery_t1 must be {LIFETIME_RULE}, got 'ideal'"),
    ("recovery_t1", True, f"recovery_t1 must be {LIFETIME_RULE}, got True"),
]
_BAD_CASES = [(runner, *case) for runner in ("run_multiqec", "run_multiqec_with_chadd")
              for case in _BAD_SHARED] + [
    ("run_multiqec_with_chadd", "spectators", value,
     f"spectators must be an integer in [0, 4], got {value!r}")
    for value in (1.0, True, -1, 5)]


@pytest.mark.parametrize("runner,field,value,message", _BAD_CASES,
                         ids=[f"{r}-{f}-{v!r}" for r, f, v, _ in _BAD_CASES])
def test_bad_runner_argument_is_named(runner, field, value, message):
    # a runner takes the values a spec resolves; one that breaks its rule
    # is a ConfigError naming it, raised before any round runs
    args = dict(theta=1.0, max_delay=30.0, total_free=(30.0,),
                noise=NoiseParams(t1=220.0), recovery_t1=220.0)
    if runner == "run_multiqec_with_chadd":
        args.update(spectators=1, couplings=((0, 3, 0.05),))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        getattr(protocol, runner)(**{**args, field: value})


class TestPhaseInvariance:
    """F and P of both multi-round runners do not depend on the logical
    state's phase phi, which is why no spec sets it and the runners encode
    at phi = 0: the per-round references, which take phi, give the
    runners' values at every phi. Gate noise on emitted circuits may break
    that covariance; this test would then show it."""

    @pytest.mark.parametrize("variant", ["ideal", "approximate"])
    def test_runners_ignore_phi(self, variant):
        # per-qubit lifetimes (one data T1 for the ideal recovery), data-data
        # and data-spectator couplings, remainder rounds, CHaDD off and on
        data_t1 = [220.0] * 3 if variant == "ideal" else [220.0, 150.0, 300.0]
        tphi = [300.0, 500.0, 400.0, 80.0, math.inf]
        data_noise = NoiseParams(t1=data_t1, tphi=tphi[:3])
        noise = NoiseParams(t1=data_t1 + [90.0, 400.0], tphi=tphi)
        couplings = ((0, 1, 0.03), (1, 2, -0.02), (0, 3, 0.05), (2, 4, -0.04))
        t1_r = protocol.recovery_t1(variant, data_t1)
        sweep = (12.5, (0.0, 20.0, 37.5, 60.0))

        def references(phi):
            return [run_multiqec_reference(2.0, phi, *sweep, data_noise, t1_r),
                    *(run_multiqec_with_chadd_reference(2.0, phi, *sweep, noise, t1_r,
                                                        2, couplings, chadd=chadd)
                      for chadd in (False, True))]

        want = [run_multiqec(2.0, *sweep, data_noise, t1_r),
                *run_multiqec_with_chadd(2.0, *sweep, noise, t1_r, 2, couplings)]
        for phi in (0.0, 0.9, 2.5, 4.0, 6.2):
            for got_pts, want_pts in zip(references(phi), want, strict=True):
                for a, b in zip(got_pts, want_pts, strict=True):
                    assert abs(a.fidelity - b.fidelity) <= 1e-15
                    assert abs(a.success_probability - b.success_probability) \
                        <= 2e-15 * b.success_probability


class TestScaleInvariance:
    """Scale every T1, Tphi and delay by one factor c and every coupling g
    by 1/c: F and P of both multi-round runners, and every gain-surface
    cell, stay the same. No output sets a clock that T1 could be long or
    short against; the fixed gate durations reach only
    ``total_evolution_us``, which is left out here. Once the recovery and
    reset windows carry noise of their own, their fixed durations set that
    clock, and this test should then fail."""

    @staticmethod
    def _close(a: float, b: float) -> bool:
        return a == b or abs(a - b) <= 1e-14 * abs(b)

    @settings(max_examples=20, deadline=None)
    @given(c=st.sampled_from([2.0**-10, 0.001, 0.5, 2.0, 3.0, 7.3, 8.0]),
           variant=st.sampled_from(["ideal", "approximate"]),
           theta=st.floats(0.3, 3.0))
    def test_no_output_has_a_clock(self, c, variant, theta):
        # per-qubit lifetimes (one data T1 for the ideal recovery), data-data
        # and data-spectator couplings, remainder rounds, CHaDD off and on
        data_t1 = [220.0] * 3 if variant == "ideal" else [220.0, 150.0, 300.0]
        t1 = data_t1 + [90.0, 400.0]
        tphi = [300.0, 500.0, 400.0, 80.0, math.inf]
        couplings = ((0, 1, 0.03), (1, 2, -0.02), (0, 3, 0.05), (2, 4, -0.04))

        def runs(k):
            def scale(xs):
                return [x * k for x in xs]
            sweep = (theta, 12.5 * k, scale([0.0, 20.0, 37.5, 60.0]))
            t1_r = protocol.recovery_t1(variant, scale(data_t1))
            series = [run_multiqec(*sweep, NoiseParams(t1=scale(data_t1),
                                                       tphi=scale(tphi[:3])), t1_r),
                      *run_multiqec_with_chadd(
                          *sweep, NoiseParams(t1=scale(t1), tphi=scale(tphi)), t1_r,
                          2, [(a, b, g / k) for a, b, g in couplings])]
            cells = gain_surface(scale([50.0, 220.0]), [0.0, 0.02],
                                 scale([1.0, 30.0, 200.0]), theta=theta)
            return ([[(x.fidelity, x.success_probability) for x in pts]
                     for pts in series],
                    [(x.gain, x.f_qec, x.f_bare, x.p_success) for x in cells])

        (want_series, want_cells), (got_series, got_cells) = runs(1.0), runs(c)
        for got, want in zip(got_series, want_series, strict=True):
            for a, b in zip(got, want, strict=True):
                assert all(map(self._close, a, b)), (a, b)
        for a, b in zip(got_cells, want_cells, strict=True):
            assert all(map(self._close, a, b)), (a, b)
