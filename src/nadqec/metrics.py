"""Shot sampling, SNR, and the gain figure of merit.

Gain compares the post-selected QEC protocol against a bare |1>-prepared
qubit at matched evolution time. The per-shot theoretical model behind
``gain_surface`` discounts post-selection by sqrt(p_success) and folds the
measurement error into both fidelities through F* = F (1 - E) + (1 - F) E;
standard deviations are binomial in F*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import code3
from .noise import gamma_of_t, readout_flip

RNG_KIND = "PCG64"  # numpy default_rng; every stochastic record carries its seed


@dataclass(frozen=True)
class ShotRecord:
    shots_total: int
    successes: int
    all_zero_hits: int
    fidelity_estimate: float
    sigma: float  # binomial std of the all-zero estimator
    seed: Optional[int] = None

    def __post_init__(self):
        if self.successes > self.shots_total:
            raise ValueError("successes cannot exceed the shot total")
        if not 0.0 <= self.fidelity_estimate <= 1.0:
            raise ValueError(f"estimate {self.fidelity_estimate} outside [0, 1]")


def sample_shots(
    true_distribution: Sequence[float],
    n: int,
    e_meas: float = 0.0,
    seed: int = 0,
    success_bit: Optional[int] = None,
) -> ShotRecord:
    """Draw n outcomes from the readout-error-convolved distribution.

    ``success_bit`` marks a post-selection bit (0 = most significant of the
    measured string); outcomes with that bit set are discarded from the
    fidelity estimate. Without it every shot counts.
    """
    if n <= 0:
        raise ValueError("need a positive shot count")
    dist = np.asarray(true_distribution, dtype=float)
    m = dist.size.bit_length() - 1
    if 2**m != dist.size:
        raise ValueError("distribution length must be a power of two")
    if abs(dist.sum() - 1.0) > 1e-9 or np.any(dist < -1e-12):
        raise ValueError("true_distribution must be a probability vector")
    if e_meas > 0:
        dist = readout_flip(dist, e_meas)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, dist / dist.sum())
    if success_bit is None:
        successes = n
    else:
        if not 0 <= success_bit < m:
            raise ValueError(f"success_bit {success_bit} out of range")
        mask_bit = 1 << (m - 1 - success_bit)
        successes = int(sum(c for i, c in enumerate(counts) if not i & mask_bit))
    all_zero = int(counts[0])
    if successes == 0:
        raise ValueError("post-selection removed every shot")
    f_hat = all_zero / successes
    sigma = math.sqrt(max(f_hat * (1 - f_hat), 0.0) / successes)
    return ShotRecord(n, successes, all_zero, f_hat, sigma, seed)


def sample_qec_shots(f_qec: float, p_success: float, n: int, e_meas: float,
                     seed: int = 0) -> ShotRecord:
    """Sample the post-selected estimator from the analytic model.

    Per shot: recovery succeeds with probability p_success; a successful
    shot reads all-zero with probability F* (readout error on the data
    bits). Mirrors the theoretical model, which leaves the success flag
    itself readout-error-free.
    """
    f_star_val = f_star(f_qec, e_meas)
    # two measured bits: (failure flag, nonzero flag); success flag clear
    # means the recovery ancilla read 0
    dist = np.array([
        p_success * f_star_val,        # 00: success, all-zero
        p_success * (1 - f_star_val),  # 01: success, other outcome
        1.0 - p_success,               # 10: failure
        0.0,                           # 11: unused
    ])
    return sample_shots(dist, n, e_meas=0.0, seed=seed, success_bit=0)


def sample_bare_shots(f_bare: float, n: int, e_meas: float, seed: int = 0) -> ShotRecord:
    """Single readout bit prepared in |1>: the counted outcome is the
    surviving |1>, so the stored hit count is the number of ones."""
    dist = np.array([1.0 - f_bare, f_bare])
    rec = sample_shots(dist, n, e_meas=e_meas, seed=seed)
    # all-zero on the single bit estimates 1 - F*; reinterpret as P(1)
    f_hat = 1.0 - rec.fidelity_estimate
    return ShotRecord(rec.shots_total, rec.successes, rec.shots_total - rec.all_zero_hits,
                      f_hat, math.sqrt(max(f_hat * (1 - f_hat), 0.0) / n), seed)


def gain_expt(qec: ShotRecord, bare: ShotRecord) -> float:
    """Experimental gain: F_QEC sqrt(N_bare) sigma_bare /
    (F_bare sqrt(N_QEC) sigma_QEC). NaN when a sigma vanishes."""
    if qec.sigma <= 0 or bare.sigma <= 0:
        return math.nan
    return (qec.fidelity_estimate * math.sqrt(bare.shots_total) * bare.sigma) / (
        bare.fidelity_estimate * math.sqrt(qec.shots_total) * qec.sigma
    )


def f_star(f: float, e_meas: float) -> float:
    """Measurement-error-adjusted fidelity F(1-E) + (1-F)E."""
    if not 0.0 <= f <= 1.0 or not 0.0 <= e_meas <= 1.0:
        raise ValueError("f and e_meas must lie in [0, 1]")
    return f * (1.0 - e_meas) + (1.0 - f) * e_meas


def _gain(f_qec: float, u_qec: float, p_success: float, gamma: float,
          e_meas: float) -> float:
    """Per-shot gain (F*_QEC sigma_bare) / (F*_bare sigma_QEC) sqrt(p_success),
    the sigmas binomial in the adjusted fidelities F*, F*_bare that of
    F_bare = 1 - gamma. Each sigma^2 = F* (1 - F*) takes 1 - F* =
    (1 - F)(1 - 2E) + E from the infidelity, ``u_qec`` or gamma, never
    from 1 - F* with F* near 1, so the gain keeps its digits at short
    delays. Inf where either sigma vanishes: sigma_bare does only at
    gamma = 0 and E = 0, the noiseless limit, where sigma_QEC does too."""
    fq = f_star(f_qec, e_meas)
    fb = f_star(1.0 - gamma, e_meas)
    sq = math.sqrt(max(fq * (u_qec * (1 - 2 * e_meas) + e_meas), 0.0))
    sb = math.sqrt(fb * (gamma * (1 - 2 * e_meas) + e_meas))
    if sq == 0.0 or sb == 0.0:
        return math.inf
    return (fq * sb) / (fb * sq) * math.sqrt(p_success)


@dataclass(frozen=True)
class GainCell:
    t1_us: float
    e_meas: float
    delay_us: float
    gain: float
    f_qec: float
    f_bare: float
    p_success: float


def gain_surface(
    t1_range: Sequence[float],
    emeas_range: Sequence[float],
    delay_range: Sequence[float],
    theta: float = math.pi,
) -> list[GainCell]:
    """Gain over a (T1, E_meas, delay) grid with T2 = 2 T1 (no pure
    dephasing). Grid order: T1 outer, then E_meas, then delay.

    F_QEC and p_success are one round of the gamma-adapted code in closed
    form, ``code3.PauliRound.outcome`` (which ``oracle-check`` and the
    tests pin to the numeric 64x64 round), evaluated once per distinct
    gamma with its infidelity ``code3.PauliRound.infidelity``; F_bare =
    1 - gamma from |1> decay."""
    if not (len(t1_range) and len(emeas_range) and len(delay_range)):
        raise ValueError("all grid ranges must be non-empty")
    cycles: dict[float, tuple[float, float, float]] = {}
    cells = []
    for t1 in t1_range:
        for e in emeas_range:
            for delay in delay_range:
                g = gamma_of_t(delay, t1)
                if g not in cycles:
                    rnd = code3.PauliRound.of_noise(g, 0.0, "ideal")
                    cycles[g] = (*rnd.outcome(theta), rnd.infidelity(theta))
                f_qec, p_success, u_qec = cycles[g]
                cells.append(GainCell(t1, e, delay, _gain(f_qec, u_qec, p_success, g, e),
                                      f_qec, 1.0 - g, p_success))
    return cells
