"""Shot statistics and the gain figure of merit."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from multiqec_reference import run_multiqec_mpmath
from shots_reference import (
    ShotRecord,
    gain_expt,
    sample_bare_shots,
    sample_qec_shots,
    sample_shots,
)

from nadqec import code3
from nadqec.metrics import f_star, gain_surface
from nadqec.noise import NoiseParams, gamma_of_t


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
        cell, = gain_surface([t1], [e], [delay])
        n = 10**5
        qec = sample_qec_shots(cell.f_qec, cell.p_success, n, e, seed=11)
        bare = sample_bare_shots(cell.f_bare, n, e, seed=12)
        observed = gain_expt(qec, bare)
        fq, fb, p = f_star(cell.f_qec, e), f_star(cell.f_bare, e), cell.p_success
        var_ln = (1 / (fq * (1 - fq) * p * n) + 1 / (fb * (1 - fb) * n)
                  + (1 - p) / (p * n)) / 4
        assert abs(observed - cell.gain) < 3 * cell.gain * math.sqrt(var_ln)

    def test_limit_case_flagged(self):
        # no delay and no readout error: F*_QEC = 1, so sigma_QEC vanishes
        cell, = gain_surface([200.0], [0.0], [0.0])
        assert (cell.f_qec, cell.f_bare) == (1.0, 1.0)
        assert math.isinf(cell.gain)
        # at every theta: the closed-form round can round F_QEC to an ulp
        # or two below 1 (it does at theta = pi/8), leaving sigma_QEC > 0,
        # but sigma_bare vanishes, so the gain is still inf and never 0
        for theta in [*np.linspace(0.0, math.pi, 201), math.pi / 8]:
            cell, = gain_surface([200.0], [0.0], [0.0], theta=float(theta))
            assert cell.f_bare == 1.0 and cell.f_qec >= 1.0 - 2**-52, theta
            assert math.isinf(cell.gain), theta

    @pytest.mark.parametrize("theta", [0.3, math.pi / 2, math.pi])
    def test_gain_at_zero_error_matches_50_digit_arithmetic(self, theta):
        # at E = 0 and delays down to 10 ns, 1 - F_QEC falls to 1e-12, and
        # a sigma formed from 1 - F there kept about 7 digits of the gain;
        # the reference is the closed-form round at the model's float gamma
        delays = [0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 80.0]
        for t1 in (50.0, 220.0):
            cells = gain_surface([t1], [0.0], delays, theta=theta)
            for cell, delay in zip(cells, delays):
                with mpmath.workdps(50):
                    g = mpmath.mpf(gamma_of_t(delay, t1))
                    s2 = mpmath.sin(mpmath.mpf(theta) / 2) ** 2
                    f = (1 + g**2 * s2 * (1 - s2)) / (1 + g**2 * s2)
                    p = (1 - g) ** 2 * (1 + g**2 * s2)
                    want = f * mpmath.sqrt(g * (1 - g)) \
                        / ((1 - g) * mpmath.sqrt(f * (1 - f))) * mpmath.sqrt(p)
                assert cell.gain == pytest.approx(float(want), rel=1e-12), delay

    def test_gain_at_pi_matches_the_closed_form_at_short_delays(self):
        # theta = pi, E = 0: gain = sqrt((1 - gamma)(1 + gamma^2) / gamma) at
        # the delay's exact gamma; a gamma formed as 1 - exp(-t/T1) put the
        # 1e-9 us cell 2.3e-6 off
        t1 = 220.0
        delays = [1e-12, 1e-9, 1e-6, 1e-3, 0.03, 1.0, 30.0, 300.0]
        for cell, delay in zip(gain_surface([t1], [0.0], delays), delays):
            with mpmath.workdps(50):
                g = -mpmath.expm1(-mpmath.mpf(delay) / mpmath.mpf(t1))
                want = mpmath.sqrt((1 - g) * (1 + g**2) / g)
            assert cell.gain == pytest.approx(float(want), rel=1e-12), delay

    def test_beats_break_even_at_low_readout_error(self):
        assert gain_surface([200.0], [0.0], [30.0])[0].gain > 1.0

    def test_readout_error_reduces_gain(self):
        gains = [c.gain for c in gain_surface([200.0], [0.0, 0.005, 0.02, 0.05],
                                              [30.0])]
        assert all(a > b for a, b in zip(gains, gains[1:]))


class TestGainSurface:
    def test_single_point_consistent(self):
        # the per-shot model from one closed-form round, written out
        cells = gain_surface([200.0], [0.01], [30.0])
        assert len(cells) == 1
        g = gamma_of_t(30.0, 200.0)
        f, p = code3.PauliRound.of_noise(g, 0.0, g).outcome(math.pi)
        fq, fb = f_star(f, 0.01), f_star(1 - g, 0.01)
        want = fq * math.sqrt(fb * (1 - fb)) / (fb * math.sqrt(fq * (1 - fq))) \
            * math.sqrt(p)
        assert (cells[0].f_qec, cells[0].f_bare, cells[0].p_success) == (f, 1 - g, p)
        assert cells[0].gain == pytest.approx(want, rel=1e-14)

    def test_zero_error_column_dominates(self):
        t1s, es, delays = [150.0, 250.0], [0.0, 0.01, 0.05], [20.0, 40.0]
        cells = gain_surface(t1s, es, delays)
        by_key = {(c.t1_us, c.e_meas, c.delay_us): c.gain for c in cells}
        for t1 in t1s:
            for d in delays:
                for e in es[1:]:
                    assert by_key[(t1, 0.0, d)] >= by_key[(t1, e, d)]

    @settings(max_examples=100, deadline=None)
    @given(theta=st.floats(0.0, math.pi), t1=st.floats(50.0, 500.0),
           delays=st.lists(st.floats(0.0, 300.0), max_size=3),
           grid=st.lists(st.integers(0, 50), min_size=2, max_size=8))
    def test_gain_never_rises_with_error(self, theta, t1, delays, grid):
        # on a sorted E_meas grid in [0, 0.5], delay 0 included. The exact
        # gain is flat in E > 0 at delay 0 (F_QEC = F_bare = 1), so the
        # computed one may wobble there by rounding: 1e-12 relative
        es = [i / 100 for i in sorted(grid)]
        delays = [0.0, *delays]
        cells = gain_surface([t1], es, delays, theta=theta)
        for k, delay in enumerate(delays):
            column = [cells[j * len(delays) + k].gain for j in range(len(es))]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(column, column[1:])), \
                (delay, column)

    def test_gain_monotone_in_error(self):
        cells = gain_surface([220.0], [0.0, 0.002, 0.01, 0.03, 0.05], [30.0])
        gains = [c.gain for c in cells]
        assert all(a >= b for a, b in zip(gains, gains[1:]))

    def test_cells_past_37_t1_keep_their_digits(self):
        # gamma rounds to 1 from about 37 T1 on: 2000 us at T1 = 50 us
        # against 50 digits, and at 2000 T1 p_success underflows to 0
        cells = gain_surface([50.0], [0.01], [10.0, 2000.0, 1e5])
        with mpmath.workdps(50):
            (f, p), = run_multiqec_mpmath(math.pi, 2000.0, (2000.0,),
                                          NoiseParams(t1=50.0), 50.0, 50)
            f_bare, e = mpmath.exp(-40), mpmath.mpf(0.01)
            fq, fb = f * (1 - e) + (1 - f) * e, f_bare * (1 - e) + (1 - f_bare) * e
            gain = fq * mpmath.sqrt(fb * (1 - fb)) / (fb * mpmath.sqrt(fq * (1 - fq))) \
                * mpmath.sqrt(p)
            for got, want in ((cells[1].f_qec, f), (cells[1].p_success, p),
                              (cells[1].f_bare, f_bare), (cells[1].gain, gain)):
                assert abs(got / want - 1) <= 1e-10
        assert (cells[2].gain, cells[2].p_success) == (0.0, 0.0)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            gain_surface([], [0.0], [30.0])

    def test_one_cycle_per_distinct_gamma(self, monkeypatch):
        # delay / T1, which sets gamma, repeats across T1 rows and every
        # E_meas reuses it; the cache is keyed on delay / T1, since gamma
        # is 1.0 for every delay past about 37 T1
        t1s, es, delays = [50.0, 100.0], [0.01, 0.05], [10.0, 20.0, 40.0]
        cycles = []
        of_delay = code3.PauliRound.of_delay
        monkeypatch.setattr(code3.PauliRound, "of_delay",
                            lambda *a: cycles.append(a[0] / a[1][0]) or of_delay(*a))
        cells = gain_surface(t1s, es, delays, theta=2.0)
        assert sorted(cycles) == sorted({d / t1 for t1 in t1s for d in delays})
        assert len(cycles) == len({gamma_of_t(d, t1) for t1 in t1s for d in delays})
        # a cell read from the cache equals the cell of its lone grid
        for c in cells:
            lone, = gain_surface([c.t1_us], [c.e_meas], [c.delay_us], theta=2.0)
            assert c == lone


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
