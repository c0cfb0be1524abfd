"""Shot statistics and the gain figure of merit."""

import math

import numpy as np
import pytest

from nadqec import code3
from nadqec.metrics import (
    ShotRecord,
    f_star,
    gain_expt,
    gain_surface,
    gain_theoretical_detail,
    sample_bare_shots,
    sample_qec_shots,
    sample_shots,
)
from nadqec.noise import gamma_of_t


class TestSampleShots:
    def test_deterministic_distribution(self):
        rec = sample_shots([1.0, 0.0], 5000, e_meas=0.0, seed=0)
        assert rec.fidelity_estimate == 1.0
        assert rec.sigma == 0.0
        assert rec.successes == rec.shots_total == 5000

    def test_binomial_three_sigma(self):
        n = 52000
        rec = sample_shots([0.8, 0.2], n, seed=1)
        assert abs(rec.fidelity_estimate - 0.8) < 3 * math.sqrt(0.8 * 0.2 / n)

    def test_readout_error_biases_estimate(self):
        rec = sample_shots([1.0, 0.0], 200000, e_meas=0.02, seed=2)
        assert abs(rec.fidelity_estimate - 0.98) < 3 * math.sqrt(0.98 * 0.02 / 200000)

    def test_estimator_unbiased_over_seeds(self):
        truth = 0.73
        n = 4000
        estimates = [sample_shots([truth, 1 - truth], n, seed=s).fidelity_estimate
                     for s in range(100)]
        sigma = math.sqrt(truth * (1 - truth) / n)
        assert abs(np.mean(estimates) - truth) < 4 * sigma / 10

    def test_post_selection_bit(self):
        # 2-bit distribution, MSB is the failure flag
        dist = [0.4, 0.2, 0.4, 0.0]
        rec = sample_shots(dist, 30000, seed=3, success_bit=0)
        assert rec.successes < rec.shots_total
        expected = 0.4 / 0.6
        assert abs(rec.fidelity_estimate - expected) < 0.02

    def test_seed_reproducibility(self):
        a = sample_shots([0.6, 0.4], 1000, seed=9)
        b = sample_shots([0.6, 0.4], 1000, seed=9)
        assert a == b

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_shots([0.5, 0.6], 100)
        with pytest.raises(ValueError):
            sample_shots([1.0, 0.0], 0)


class TestFStar:
    def test_zero_error_identity(self):
        assert f_star(0.87, 0.0) == 0.87

    def test_half_is_fixed_point(self):
        for e in (0.0, 0.1, 0.4):
            assert abs(f_star(0.5, e) - 0.5) < 1e-15

    def test_perfect_fidelity_with_error(self):
        assert abs(f_star(1.0, 0.02) - 0.98) < 1e-15

    def test_affine_and_symmetric(self):
        e = 0.07
        for f in (0.2, 0.6, 0.9):
            left = f_star(0.5 - (f - 0.5), e)
            right = f_star(f, e)
            assert abs((left - 0.5) + (right - 0.5)) < 1e-12


class TestGainExpt:
    def test_identical_records_unity(self):
        rec = ShotRecord(1000, 1000, 800, 0.8, 0.0126)
        assert gain_expt(rec, rec) == pytest.approx(1.0)

    def test_direct_substitution(self):
        a = ShotRecord(1000, 1000, 900, 0.9, 0.01)
        b = ShotRecord(1000, 1000, 800, 0.8, 0.01)
        assert gain_expt(a, b) == pytest.approx(1.125)

    def test_shot_count_scaling(self):
        a = ShotRecord(1000, 1000, 900, 0.9, 0.01)
        a2 = ShotRecord(2000, 2000, 1800, 0.9, 0.01)
        b = ShotRecord(1000, 1000, 800, 0.8, 0.01)
        assert gain_expt(a2, b) == pytest.approx(gain_expt(a, b) / math.sqrt(2))

    def test_zero_sigma_undefined(self):
        a = ShotRecord(1000, 1000, 1000, 1.0, 0.0)
        b = ShotRecord(1000, 1000, 800, 0.8, 0.01)
        assert math.isnan(gain_expt(a, b))


class TestGainTheoretical:
    def test_agrees_with_sampling_three_sigma(self):
        t1, delay, e = 200.0, 30.0, 0.01
        g = gamma_of_t(delay, t1)
        det = gain_theoretical_detail(math.pi, g, 0.0, e)
        n = 10**5
        qec = sample_qec_shots(det.f_qec, det.p_success, n, e, seed=11)
        bare = sample_bare_shots(det.f_bare, n, e, seed=12)
        observed = gain_expt(qec, bare)
        fq, fb, p = det.f_qec_star, det.f_bare_star, det.p_success
        var_ln = (1 / (fq * (1 - fq) * p * n) + 1 / (fb * (1 - fb) * n)
                  + (1 - p) / (p * n)) / 4
        assert abs(observed - det.gain) < 3 * det.gain * math.sqrt(var_ln)

    def test_limit_case_flagged(self):
        det = gain_theoretical_detail(math.pi, 0.0, 0.0, 0.0)
        assert det.limit_case
        assert math.isinf(det.gain)

    def test_beats_break_even_at_low_readout_error(self):
        g = gamma_of_t(30.0, 200.0)
        assert gain_theoretical_detail(math.pi, g, 0.0, 0.0).gain > 1.0

    def test_readout_error_reduces_gain(self):
        g = gamma_of_t(30.0, 200.0)
        gains = [gain_theoretical_detail(math.pi, g, 0.0, e).gain
                 for e in (0.0, 0.005, 0.02, 0.05)]
        assert all(a > b for a, b in zip(gains, gains[1:]))


class TestGainSurface:
    def test_single_point_consistent(self):
        cells = gain_surface([200.0], [0.01], [30.0])
        assert len(cells) == 1
        g = gamma_of_t(30.0, 200.0)
        assert cells[0].gain == pytest.approx(
            gain_theoretical_detail(math.pi, g, 0.0, 0.01).gain)

    def test_zero_error_column_dominates(self):
        t1s, es, delays = [150.0, 250.0], [0.0, 0.01, 0.05], [20.0, 40.0]
        cells = gain_surface(t1s, es, delays)
        by_key = {(c.t1_us, c.e_meas, c.delay_us): c.gain for c in cells}
        for t1 in t1s:
            for d in delays:
                for e in es[1:]:
                    assert by_key[(t1, 0.0, d)] >= by_key[(t1, e, d)]

    def test_gain_monotone_in_error(self):
        cells = gain_surface([220.0], [0.0, 0.002, 0.01, 0.03, 0.05], [30.0])
        gains = [c.gain for c in cells]
        assert all(a >= b for a, b in zip(gains, gains[1:]))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            gain_surface([], [0.0], [30.0])

    def test_one_cycle_per_distinct_gamma(self, monkeypatch):
        # delay / T1 repeats across T1 rows and every E_meas reuses gamma
        t1s, es, delays = [50.0, 100.0], [0.01, 0.05], [10.0, 20.0, 40.0]
        cycles = []
        of_noise = code3.PauliRound.of_noise
        monkeypatch.setattr(code3.PauliRound, "of_noise",
                            lambda *a: cycles.append(a[0]) or of_noise(*a))
        cells = gain_surface(t1s, es, delays, theta=2.0)
        assert sorted(cycles) == sorted({gamma_of_t(d, t1)
                                         for t1 in t1s for d in delays})
        for c in cells:
            det = gain_theoretical_detail(2.0, gamma_of_t(c.delay_us, c.t1_us),
                                          0.0, c.e_meas)
            assert (c.gain, c.f_qec, c.f_bare, c.p_success) == \
                (det.gain, det.f_qec, det.f_bare, det.p_success)


class TestQecSampling:
    def test_success_rate_matches_probability(self):
        rec = sample_qec_shots(0.95, 0.7, 100000, 0.0, seed=5)
        assert abs(rec.successes / rec.shots_total - 0.7) < 0.01

    def test_estimate_tracks_f_star(self):
        rec = sample_qec_shots(0.9, 0.8, 100000, 0.02, seed=6)
        assert abs(rec.fidelity_estimate - f_star(0.9, 0.02)) < 0.01

    def test_bare_estimate_tracks_f_star(self):
        rec = sample_bare_shots(0.85, 100000, 0.02, seed=7)
        assert abs(rec.fidelity_estimate - f_star(0.85, 0.02)) < 0.01

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            ShotRecord(10, 11, 5, 0.5, 0.1)
        with pytest.raises(ValueError):
            ShotRecord(10, 10, 5, 1.5, 0.1)


def test_sample_shots_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        sample_shots([0.5, 0.3, 0.2], 100)


def test_surface_shows_break_even_boundary():
    # low readout error + short delay wins; long delay at short T1 loses,
    # so the surface crosses the break-even mark inside the grid
    cells = gain_surface([50.0, 100.0, 200.0], [0.0, 0.005, 0.05],
                         [15.0, 30.0, 60.0, 90.0])
    winners = [c for c in cells if c.e_meas <= 0.005 and c.gain > 1.0]
    losers = [c for c in cells if c.gain < 1.0]
    assert winners and losers
    assert any(c.e_meas == 0.05 for c in losers)
