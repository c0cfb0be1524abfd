"""Noise channels: strengths from coherence times, Kraus structure,
composition laws, readout convolution."""

import math

import numpy as np
import pytest

from nadqec.noise import (
    KrausChannel,
    NoiseParams,
    amplitude_damping,
    apply_channel,
    dephasing,
    depolarizing,
    gamma_of_t,
    idle_noise,
    p_of_t,
    readout_flip,
)
from nadqec.qcore import DensityMatrix, PureState, basis_state


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

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            gamma_of_t(-1.0, 100.0)
        with pytest.raises(ValueError):
            p_of_t(-1.0, 100.0)


class TestChannels:
    def test_ad_identity_and_full_decay(self):
        ident = amplitude_damping(0.0)
        rho = DensityMatrix(np.array([[0.3, 0.2], [0.2, 0.7]]))
        np.testing.assert_allclose(apply_channel(rho, ident, 0).data, rho.data,
                                   atol=1e-14)
        dead = apply_channel(rho, amplitude_damping(1.0), 0)
        np.testing.assert_allclose(dead.data, [[1, 0], [0, 0]], atol=1e-14)

    def test_ad_quarter_decay(self):
        rho = basis_state(1, 1).to_density_matrix()
        out = apply_channel(rho, amplitude_damping(0.25), 0)
        np.testing.assert_allclose(out.data, np.diag([0.25, 0.75]), atol=1e-14)

    def test_ad_composition_law(self):
        # AD(g1) then AD(g2) equals AD(g1 + g2 - g1 g2)
        rho = DensityMatrix(np.array([[0.4, 0.3 - 0.1j], [0.3 + 0.1j, 0.6]]))
        for g1, g2 in [(0.1, 0.2), (0.35, 0.5), (0.0, 0.7)]:
            composed = apply_channel(apply_channel(rho, amplitude_damping(g1), 0),
                                 amplitude_damping(g2), 0)
            direct = apply_channel(rho, amplitude_damping(g1 + g2 - g1 * g2), 0)
            np.testing.assert_allclose(composed.data, direct.data, atol=1e-12)

    def test_time_composition_grid(self):
        # gamma(t1 + t2) composition over a grid of idle windows
        t1q = 180.0
        for ta in (5.0, 20.0):
            for tb in (1.0, 13.0, 40.0):
                g_sum = gamma_of_t(ta + tb, t1q)
                ga, gb = gamma_of_t(ta, t1q), gamma_of_t(tb, t1q)
                assert abs(g_sum - (ga + gb - ga * gb)) < 1e-12

    def test_dephasing_scales_coherence(self):
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = apply_channel(rho, dephasing(0.5), 0)
        np.testing.assert_allclose(out.data, np.eye(2) / 2, atol=1e-14)
        out2 = apply_channel(rho, dephasing(0.1), 0)
        assert abs(out2.data[0, 1] - 0.5 * (1 - 0.2)) < 1e-14

    def test_dephasing_composition_law(self):
        rho = DensityMatrix(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]))
        for p1, p2 in [(0.05, 0.1), (0.3, 0.25)]:
            composed = apply_channel(apply_channel(rho, dephasing(p1), 0),
                                     dephasing(p2), 0)
            direct = apply_channel(rho, dephasing(p1 + p2 - 2 * p1 * p2), 0)
            np.testing.assert_allclose(composed.data, direct.data, atol=1e-13)

    def test_ad_dephasing_commute(self):
        rho = DensityMatrix(np.array([[0.3, 0.25 - 0.2j], [0.25 + 0.2j, 0.7]]))
        ab = apply_channel(apply_channel(rho, amplitude_damping(0.2), 0),
                           dephasing(0.15), 0)
        ba = apply_channel(apply_channel(rho, dephasing(0.15), 0),
                           amplitude_damping(0.2), 0)
        np.testing.assert_allclose(ab.data, ba.data, atol=1e-13)

    def test_depolarizing_unital_and_full(self):
        mixed = DensityMatrix(np.eye(2) / 2)
        out = apply_channel(mixed, depolarizing(0.37, 1), 0)
        np.testing.assert_allclose(out.data, np.eye(2) / 2, atol=1e-14)
        pure = basis_state(1, 0).to_density_matrix()
        out = apply_channel(pure, depolarizing(1.0, 1), 0)
        np.testing.assert_allclose(out.data, np.eye(2) / 2, atol=1e-14)

    def test_depolarizing_two_qubit(self):
        ch = depolarizing(0.2, 2)
        assert len(ch.ops) == 16
        rho = basis_state(2, 0).to_density_matrix()
        out = apply_channel(rho, ch, [0, 1])
        assert abs(out.trace - 1.0) < 1e-12

    def test_strength_validation(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                amplitude_damping(bad)
        with pytest.raises(ValueError):
            dephasing(0.6)


class TestApplyChannel:
    def test_three_qubit_damping(self):
        rho = basis_state(3, 7).to_density_matrix()
        for q in range(3):
            rho = apply_channel(rho, amplitude_damping(0.1), q)
        assert abs(rho.data[7, 7].real - 0.9**3) < 1e-12

    def test_disjoint_targets_commute(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = DensityMatrix((a @ a.conj().T) / np.trace(a @ a.conj().T).real)
        ch1, ch2 = amplitude_damping(0.3), dephasing(0.2)
        ab = apply_channel(apply_channel(rho, ch1, 0), ch2, 2)
        ba = apply_channel(apply_channel(rho, ch2, 2), ch1, 0)
        np.testing.assert_allclose(ab.data, ba.data, atol=1e-12)

    def test_trace_non_increasing_branch(self):
        half = KrausChannel((np.diag([1.0, 0.5]),), trace_property="non-increasing")
        rho = DensityMatrix(np.eye(2) / 2)
        out = apply_channel(rho, half, 0)
        assert out.trace <= 1.0 + 1e-12
        assert not out.normalized

    def test_channel_property_enforced(self):
        with pytest.raises(ValueError):
            KrausChannel((np.diag([1.0, 0.5]),), trace_property="preserving")
        with pytest.raises(ValueError):
            KrausChannel((np.diag([1.0, 1.5]),), trace_property="non-increasing")


class TestNoiseParams:
    def test_t2_relation(self):
        p = NoiseParams.from_t1_t2(200.0, 150.0)
        assert abs(1.0 / p.tphi - (1.0 / 150.0 - 1.0 / 400.0)) < 1e-15

    def test_t1_limited_t2_gives_infinite_tphi(self):
        p = NoiseParams.from_t1_t2(220.0, 440.0)
        assert math.isinf(p.tphi)

    def test_unphysical_t2_rejected(self):
        with pytest.raises(ValueError):
            NoiseParams.from_t1_t2(100.0, 220.0)

    def test_per_qubit_values(self):
        p = NoiseParams(t1=[100.0, 200.0, 300.0])
        assert p.t1_of(1) == 200.0

    def test_from_dict_roundtrip(self):
        p = NoiseParams.from_dict({"t1": 220.0, "t2": 300.0, "readout_error": 0.02})
        assert p.readout_error == 0.02
        assert p.tphi > 0

    def test_readout_bounds(self):
        with pytest.raises(ValueError):
            NoiseParams(t1=100.0, readout_error=0.7)

    @pytest.mark.parametrize("kwargs,field", [
        ({"t1": math.nan}, "t1"), ({"t1": -math.inf}, "t1"),
        ({"t1": [100.0, 0.0]}, "t1"), ({"t1": []}, "t1"),
        ({"t1": 100.0, "tphi": math.nan}, "tphi"),
        ({"t1": 100.0, "readout_error_10": 3.0}, "readout_error_10"),
        ({"t1": 100.0, "depolarizing_1q": -1.0}, "depolarizing_1q"),
        ({"t1": 100.0, "depolarizing_2q": 1.5}, "depolarizing_2q")])
    def test_invalid_values_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            NoiseParams(**kwargs)

    def test_infinite_lifetimes_mean_no_noise(self):
        p = NoiseParams(t1=math.inf)
        assert gamma_of_t(10.0, p.t1_of(0)) == 0.0
        assert p_of_t(10.0, p.tphi_of(0)) == 0.0

    def test_from_t1_t2_rejects_invalid_t1(self):
        for t1 in (-5.0, math.nan, [100.0, 200.0]):
            with pytest.raises(ValueError, match="t1"):
                NoiseParams.from_t1_t2(t1, 100.0)

    def test_per_qubit_lookup_does_not_wrap(self):
        p = NoiseParams(t1=[100.0, 200.0], tphi=[50.0, 60.0])
        with pytest.raises(ValueError, match="t1 has 2 per-qubit values"):
            p.t1_of(2)
        with pytest.raises(ValueError, match="tphi has 2 per-qubit values"):
            p.tphi_of(2)

    def test_idle_noise_needs_a_value_per_qubit(self):
        rho = PureState(np.eye(16)[15]).to_density_matrix()
        with pytest.raises(ValueError, match="t1"):
            idle_noise(rho, 10.0, NoiseParams(t1=[100.0, 200.0]))

    def test_require_qubits(self):
        NoiseParams(t1=100.0).require_qubits(5)
        NoiseParams(t1=[1.0, 2.0, 3.0]).require_qubits(3)
        with pytest.raises(ValueError, match="t1 has 3 per-qubit values "
                                             "for a 4-qubit register"):
            NoiseParams(t1=[1.0, 2.0, 3.0]).require_qubits(4)

    def test_idle_noise_matches_manual(self):
        params = NoiseParams.from_t1_t2(200.0, 150.0)
        rho = PureState(np.array([1, 1, 0, 0]) / math.sqrt(2)).to_density_matrix()
        out = idle_noise(rho, 10.0, params)
        manual = rho
        g = gamma_of_t(10.0, 200.0)
        p = p_of_t(10.0, params.tphi)
        for q in (0, 1):
            manual = apply_channel(manual, amplitude_damping(g), q)
            manual = apply_channel(manual, dephasing(p), q)
        np.testing.assert_allclose(out.data, manual.data, atol=1e-14)


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

    def test_asymmetric_rates(self):
        out = readout_flip(np.array([0.0, 1.0]), 0.02, e_meas_10=0.1)
        np.testing.assert_allclose(out, [0.1, 0.9], atol=1e-15)

    def test_distribution_normalized(self):
        rng = np.random.default_rng(3)
        dist = rng.random(8)
        dist /= dist.sum()
        out = readout_flip(dist, 0.07)
        assert abs(out.sum() - 1.0) < 1e-12
