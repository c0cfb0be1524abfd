"""A seeded shot sampler for the gain model.

The tests check ``nadqec.metrics.gain_surface``'s per-shot gain against
sampled shots: ``sample_qec_shots`` draws the post-selected estimator and
``sample_bare_shots`` the bare |1> qubit, each under readout error
(``readout_flip``, an independent flip of each measured bit), and
``gain_expt`` forms the gain from the two records. ``gain_expt`` returns
NaN where a sigma vanishes, where the model's gain is inf.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from nadqec.metrics import f_star


def readout_flip(distribution: np.ndarray, e_meas: float) -> np.ndarray:
    """Convolve an outcome distribution with independent per-bit flips,
    each bit misreported with probability ``e_meas`` either way."""
    dist = np.asarray(distribution, dtype=float)
    m = dist.shape[0].bit_length() - 1
    if 2**m != dist.shape[0]:
        raise ValueError("distribution length must be a power of two")
    confusion = np.array([[1 - e_meas, e_meas], [e_meas, 1 - e_meas]])
    out = dist.reshape((2,) * m)
    for axis in range(m):
        out = np.tensordot(confusion, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out.reshape(-1)


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
