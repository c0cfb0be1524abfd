"""Noise: strengths from coherence times, the closed-form damping and
dephasing map of the data (``code3.noise_superop``) and its composition
laws, readout convolution."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from noise_reference import (
    amplitude_damping,
    apply_kraus,
    dephasing,
    idle_noise,
    ket,
    noise_superop_einsum,
    p_of_t,
    pure,
    tensor,
)
from shots_reference import readout_flip

from nadqec import protocol
from nadqec.code3 import noise_superop
from nadqec.noise import NoiseParams, gamma_of_t
from nadqec.qcore import FIELDS, ConfigError, check_density


def _density(data):
    """``data`` as a complex array, checked as a density matrix."""
    rho = np.asarray(data, dtype=complex)
    check_density(rho)
    return rho


def _noisy(rho, gammas, ps=0.0):
    """noise_superop applied to a 3-qubit density matrix."""
    return _density((noise_superop(gammas, ps) @ rho.ravel()).reshape(8, 8))


def _on_qubit0(rho, gamma, p=0.0):
    """The map on qubit 0 alone: the other two data qubits stay in |0>,
    which neither damping nor dephasing moves, and are read off."""
    full = tensor(rho, pure(ket(2, 0)))
    return _density(_noisy(full, [gamma, 0.0, 0.0], [p, 0.0, 0.0])[0::4, 0::4])


class TestStrengths:
    def test_gamma_endpoints(self):
        assert gamma_of_t(0.0, 100.0) == 0.0
        assert abs(gamma_of_t(1e9, 100.0) - 1.0) < 1e-12

    def test_gamma_paper_operating_point(self):
        # 30 us idle on a 200 us-T1 qubit damps by about 0.14
        assert abs(gamma_of_t(30.0, 200.0) - 0.13929202) < 1e-7

    def test_p_endpoints_and_reference(self):
        assert p_of_t(0.0, 50.0) == 0.0
        assert abs(p_of_t(1e9, 50.0) - 0.5) < 1e-12
        assert abs(p_of_t(50.0, 50.0) - 0.5 * (1 - math.exp(-1))) < 1e-14

    @pytest.mark.parametrize("t1", [1.0, 220.0])
    def test_gamma_within_ulps_of_50_digit_arithmetic(self, t1):
        # 1 - exp(-x) cancels at short delays (11 % off at x = 1e-15)
        for x in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 5.0, 20.0, 40.0):
            t = x * t1
            with mpmath.workdps(50):
                want = float(-mpmath.expm1(-mpmath.mpf(t) / mpmath.mpf(t1)))
            assert abs(gamma_of_t(t, t1) - want) <= 3 * math.ulp(want), x

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            gamma_of_t(-1.0, 100.0)
        with pytest.raises(ValueError):
            p_of_t(-1.0, 100.0)


class TestChannels:
    def test_ad_identity_and_full_decay(self):
        rho = _density(np.array([[0.3, 0.2], [0.2, 0.7]]))
        np.testing.assert_allclose(_on_qubit0(rho, 0.0), rho,
                                   atol=1e-14)
        dead = _on_qubit0(rho, 1.0)
        np.testing.assert_allclose(dead, [[1, 0], [0, 0]], atol=1e-14)

    def test_ad_quarter_decay(self):
        rho = pure(ket(1, 1))
        out = _on_qubit0(rho, 0.25)
        np.testing.assert_allclose(out, np.diag([0.25, 0.75]), atol=1e-14)

    def test_ad_composition_law(self):
        # AD(g1) then AD(g2) equals AD(g1 + g2 - g1 g2)
        rho = _density(np.array([[0.4, 0.3 - 0.1j], [0.3 + 0.1j, 0.6]]))
        for g1, g2 in [(0.1, 0.2), (0.35, 0.5), (0.0, 0.7)]:
            composed = _on_qubit0(_on_qubit0(rho, g1), g2)
            direct = _on_qubit0(rho, g1 + g2 - g1 * g2)
            np.testing.assert_allclose(composed, direct, atol=1e-12)

    def test_time_composition_grid(self):
        # gamma(t1 + t2) composition over a grid of idle windows
        t1q = 180.0
        for ta in (5.0, 20.0):
            for tb in (1.0, 13.0, 40.0):
                g_sum = gamma_of_t(ta + tb, t1q)
                ga, gb = gamma_of_t(ta, t1q), gamma_of_t(tb, t1q)
                assert abs(g_sum - (ga + gb - ga * gb)) < 1e-12

    def test_dephasing_scales_coherence(self):
        rho = _density(np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = _on_qubit0(rho, 0.0, 0.5)
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-14)
        out2 = _on_qubit0(rho, 0.0, 0.1)
        assert abs(out2[0, 1] - 0.5 * (1 - 0.2)) < 1e-14

    def test_dephasing_composition_law(self):
        rho = _density(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]))
        for p1, p2 in [(0.05, 0.1), (0.3, 0.25)]:
            composed = _on_qubit0(_on_qubit0(rho, 0.0, p1), 0.0, p2)
            direct = _on_qubit0(rho, 0.0, p1 + p2 - 2 * p1 * p2)
            np.testing.assert_allclose(composed, direct, atol=1e-13)

    def test_ad_dephasing_commute(self):
        # the map applies AD(0.2) then dephasing(0.15); the reverse order,
        # from explicit Kraus operators, gives the same state
        rho = _density(np.array([[0.3, 0.25 - 0.2j], [0.25 + 0.2j, 0.7]]))
        ab = _on_qubit0(rho, 0.2, 0.15)
        ba = apply_kraus(apply_kraus(rho, dephasing(0.15), [0]),
                         amplitude_damping(0.2), [0])
        np.testing.assert_allclose(ab, ba, atol=1e-13)

    def test_strength_validation(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match="outside"):
                noise_superop([0.1, bad, 0.1], 0.0)
        with pytest.raises(ValueError, match="outside"):
            noise_superop(0.0, 0.6)

    @settings(max_examples=60, deadline=None)
    @given(gammas=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           ps=st.lists(st.floats(0.0, 0.5), min_size=3, max_size=3))
    @example(gammas=[0.0, 0.0, 0.0], ps=[0.0, 0.0, 0.0])
    @example(gammas=[1.0, 1.0, 1.0], ps=[0.5, 0.5, 0.5])
    @example(gammas=[0.1, 2.0**-52, 0.9], ps=[0.3, 0.0, 0.5])
    def test_scattered_map_equals_einsum_construction(self, gammas, ps):
        assert np.array_equal(noise_superop(gammas, ps),
                              noise_superop_einsum(gammas, ps))

    @settings(max_examples=40, deadline=None)
    @given(gamma=st.floats(0.0, 1.0), p=st.floats(0.0, 0.5))
    @example(gamma=1.0, p=0.5)
    def test_shared_scalars_equal_per_qubit_lists(self, gamma, p):
        want = noise_superop([gamma] * 3, [p] * 3)
        assert np.array_equal(noise_superop(gamma, p), want)
        assert np.array_equal(noise_superop(gamma, [p] * 3), want)

    @pytest.mark.parametrize("gamma,p,message", [
        (1.5, 0.0, "gamma 1.5 outside \\[0, 1\\]"),
        (math.nan, 0.0, "gamma nan outside"),
        (0.1, -0.2, "dephasing probability -0.2 outside \\[0, 0.5\\]"),
    ])
    def test_scalar_and_list_forms_raise_alike(self, gamma, p, message):
        for args in ((gamma, p), ([gamma] * 3, [p] * 3)):
            with pytest.raises(ValueError, match=message):
                noise_superop(*args)


class TestApplyChannel:
    def test_three_qubit_damping(self):
        rho = _noisy(pure(ket(3, 7)), 0.1)
        assert abs(rho[7, 7].real - 0.9**3) < 1e-12

    def test_disjoint_targets_commute(self):
        # damping on qubit 0 and dephasing on qubit 2, in either order
        rng = np.random.default_rng(42)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = _density((a @ a.conj().T) / np.trace(a @ a.conj().T).real)
        damp, dephase = ([0.3, 0.0, 0.0], 0.0), (0.0, [0.0, 0.0, 0.2])
        ab = _noisy(_noisy(rho, *damp), *dephase)
        ba = _noisy(_noisy(rho, *dephase), *damp)
        np.testing.assert_allclose(ab, ba, atol=1e-12)


class TestNoiseParams:
    def test_t2_relation(self):
        p = NoiseParams.from_t1_t2(200.0, 150.0)
        assert abs(1.0 / p.lifetimes(1)[1][0] - (1.0 / 150.0 - 1.0 / 400.0)) < 1e-15

    def test_t1_limited_t2_gives_infinite_tphi(self):
        p = NoiseParams.from_t1_t2(220.0, 440.0)
        assert math.isinf(p.lifetimes(1)[1][0])

    def test_unphysical_t2_rejected(self):
        with pytest.raises(ValueError):
            NoiseParams.from_t1_t2(100.0, 220.0)

    def test_per_qubit_values(self):
        p = NoiseParams(t1=[100.0, 200.0, 300.0])
        assert p.lifetimes(3)[0][1] == 200.0

    @pytest.mark.parametrize("kwargs,field", [
        ({"t1": math.nan}, "t1"), ({"t1": -math.inf}, "t1"),
        ({"t1": [100.0, 0.0]}, "t1"), ({"t1": []}, "t1"),
        ({"t1": 100.0, "tphi": math.nan}, "tphi"),
        ({"t1": 100.0, "tphi": [80.0, -1.0]}, "tphi"),
        # booleans, which numpy would read as T = 1 us
        ({"t1": True}, "t1"), ({"t1": [100.0, True]}, "t1"),
        ({"t1": 100.0, "tphi": True}, "tphi"),
        # a nested list has no one value per qubit
        ({"t1": [[100.0, 200.0]]}, "t1"),
        # 1/T overflows below 1/max float (5.6e-309 us)
        ({"t1": 5e-324}, "t1"), ({"t1": 100.0, "tphi": [80.0, 5e-309]}, "tphi")])
    def test_invalid_values_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            NoiseParams(**kwargs)

    @pytest.mark.parametrize("t1,t2,field", [
        (True, 100.0, "t1"), (100.0, True, "t2"), (True, True, "t1")])
    def test_from_t1_t2_rejects_booleans(self, t1, t2, field):
        # a boolean is an int to isinstance: True would be T = 1 us
        with pytest.raises(ConfigError, match=f"^'{field}' must be "
                           f"{re.escape(FIELDS[field].rule)}, got True$"):
            NoiseParams.from_t1_t2(t1, t2)

    def test_infinite_lifetimes_mean_no_noise(self):
        p = NoiseParams(t1=math.inf)
        (t1,), (tphi,) = p.lifetimes(1)
        assert gamma_of_t(10.0, t1) == 0.0
        assert p_of_t(10.0, tphi) == 0.0

    @pytest.mark.parametrize("t1,t2,field", [
        (100.0, 5e-324, "t2"), (100.0, 5e-309, "t2"), (5e-324, 1e-13, "t1")])
    def test_from_t1_t2_names_an_overflowing_rate(self, t1, t2, field):
        # 1/t2 = inf once made tphi = 0.0, and the error named tphi
        with pytest.raises(ConfigError, match=f"^'{field}' must be "
                           f"{re.escape(FIELDS[field].rule)}, got "):
            NoiseParams.from_t1_t2(t1, t2)
        assert NoiseParams.from_t1_t2(100.0, 6e-309).lifetimes(1)[1][0] > 0

    def test_from_t1_t2_rejects_invalid_t1(self):
        for t1 in (-5.0, math.nan, [100.0, 0.0], []):
            with pytest.raises(ValueError, match="t1"):
                NoiseParams.from_t1_t2(t1, 100.0)

    def test_from_t1_t2_per_qubit_t1(self):
        # one T2 with T1 per qubit: Tphi_q = 1/(1/T2 - 1/(2 T1_q)), inf
        # where that rate is <= 0, and T2 bounded by 2 min T1
        p = NoiseParams.from_t1_t2([50.0, 200.0, 100.0], 100.0)
        assert p.t1 == (50.0, 200.0, 100.0)
        assert p.tphi == (math.inf, 1 / (1 / 100.0 - 1 / 400.0), 200.0)
        assert NoiseParams.from_t1_t2([220.0] * 3, 300.0).lifetimes(3) \
            == NoiseParams.from_t1_t2(220.0, 300.0).lifetimes(3)
        with pytest.raises(ValueError, match=r"^t2 = 201.0 exceeds .* 2 min T1 = 200.0"):
            NoiseParams.from_t1_t2([100.0, 200.0], 201.0)

    def test_per_qubit_lookup_does_not_wrap(self):
        p = NoiseParams(t1=[100.0, 200.0], tphi=[50.0, 60.0])
        with pytest.raises(ValueError, match="t1 has 2 per-qubit values"):
            p.lifetimes(3)
        with pytest.raises(ValueError, match="tphi has 2 per-qubit values"):
            NoiseParams(t1=100.0, tphi=[50.0, 60.0]).lifetimes(3)

    def test_idle_noise_needs_a_value_per_qubit(self):
        with pytest.raises(ValueError, match="t1"):
            protocol.run_multiqec(1.0, 30, (30.0,), NoiseParams(t1=[100.0, 200.0]),
                                  math.inf)

    @pytest.mark.parametrize("noise,message", [
        (NoiseParams(t1=[220.0] * 4), "t1 has 4 per-qubit values"),
        (NoiseParams(t1=220.0, tphi=[300.0] * 7), "tphi has 7 per-qubit values")])
    def test_run_multiqec_needs_one_value_per_data_qubit(self, noise, message):
        # a longer list is not cut to the three data qubits
        with pytest.raises(ValueError,
                           match=f"^{message} for a 3-qubit register$"):
            protocol.run_multiqec(1.0, 30, (30.0,), noise, 220.0)

    def test_lifetimes(self):
        assert NoiseParams(t1=100.0).lifetimes(5) == ((100.0,) * 5, (math.inf,) * 5)
        assert NoiseParams(t1=[1.0, 2.0, 3.0], tphi=9.0).lifetimes(3) == (
            (1.0, 2.0, 3.0), (9.0,) * 3)
        with pytest.raises(ValueError, match="t1 has 3 per-qubit values "
                                             "for a 4-qubit register"):
            NoiseParams(t1=[1.0, 2.0, 3.0]).lifetimes(4)

    def test_idle_noise_matches_manual(self):
        # a 10 us delay as the compiled map and as per-qubit Kraus operators
        params = NoiseParams.from_t1_t2(200.0, 150.0)
        rho = pure(np.array([1, 1, 0, 0, 0, 0, 1, 0]) / math.sqrt(3))
        out = _noisy(rho, gamma_of_t(10.0, 200.0),
                     p_of_t(10.0, params.lifetimes(1)[1][0]))
        manual = idle_noise(rho, 10.0, params)
        np.testing.assert_allclose(out, manual, atol=1e-14)


class TestReadout:
    def test_zero_error_unchanged(self):
        dist = np.array([0.25, 0.75])
        np.testing.assert_allclose(readout_flip(dist, 0.0), dist, atol=1e-15)

    def test_single_bit_flip(self):
        out = readout_flip(np.array([1.0, 0.0]), 0.02)
        np.testing.assert_allclose(out, [0.98, 0.02], atol=1e-15)

    def test_fidelity_proxy_transform(self):
        # a one-bit fidelity proxy moves as F(1-E) + (1-F)E
        for f in (1.0, 0.8, 0.5):
            for e in (0.0, 0.02, 0.3):
                out = readout_flip(np.array([1 - f, f]), e)
                assert abs(out[1] - (f * (1 - e) + (1 - f) * e)) < 1e-14

    def test_multibit_independent(self):
        dist = np.zeros(4)
        dist[0] = 1.0
        out = readout_flip(dist, 0.1)
        expected = np.array([0.81, 0.09, 0.09, 0.01])
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_distribution_normalized(self):
        rng = np.random.default_rng(3)
        dist = rng.random(8)
        dist /= dist.sum()
        out = readout_flip(dist, 0.07)
        assert abs(out.sum() - 1.0) < 1e-12
