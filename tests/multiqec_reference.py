"""Multi-round QEC by the per-round Kraus loop.

An independent reference for ``nadqec.protocol.run_multiqec``, which
applies binary powers of a 4x4 logical round, shared between points, and
schedules and times each point in closed form: here every point lists its
round delays, restarts from the encoded state, applies idle noise and the
post-selected recovery to the 8x8 density matrix round by round, and sums
the timing over that list.
"""

from fractions import Fraction
from typing import Sequence

import numpy as np
from noise_reference import apply_kraus, fidelity, idle_noise, pure

from nadqec import code3
from nadqec.noise import NoiseParams, gamma_of_t
from nadqec.protocol import (
    T_ENCODE,
    T_RECOVERY,
    T_RESET,
    MultiQecPoint,
    ProtocolConfig,
    _recovery_map,
)
from nadqec.qcore import check_density


def _frac(x: float) -> Fraction:
    return Fraction(str(x))


def schedule_rounds(total_free: float, max_delay: float) -> list[float]:
    """Greedy fill: full max_delay rounds plus one remainder round.

    Delay arithmetic runs on exact fractions so the delays sum to
    total_free exactly.
    """
    if max_delay <= 0:
        raise ValueError("max_delay must be positive")
    total = _frac(total_free)
    if total < 0:
        raise ValueError("total_free must be non-negative")
    step = _frac(max_delay)
    out: list[Fraction] = []
    while total >= step:
        out.append(step)
        total -= step
    if total > 0:
        out.append(total)
    return [float(d) for d in out]


def total_evolution_time_exact(schedule: Sequence[float]) -> Fraction:
    """Encode + per-round (delay + recovery) + mirrored decode; the reset
    before every round but the first adds its shortfall on a short delay."""
    total = 2 * T_ENCODE
    for i, delay in enumerate(_frac(d) for d in schedule):
        total += delay + T_RECOVERY
        if i > 0:
            shortfall = T_RESET - delay
            if shortfall > 0:
                total += shortfall
    return total


def run_multiqec(config: ProtocolConfig, noise: NoiseParams) -> list[MultiQecPoint]:
    target = code3.encode_ideal(config.logical)
    points = []
    for total_free in config.total_free:
        schedule = schedule_rounds(total_free, config.max_delay)
        rho = pure(target)
        p_total = 1.0
        for delay in schedule:
            rho = idle_noise(rho, delay, noise)
            rmap = _recovery_map(config, gamma_of_t(delay, noise.t1_of(0)))
            kept = apply_kraus(rho, rmap.kraus(), [0, 1, 2])
            weight = float(np.real(np.trace(kept)))
            if weight <= 0:
                raise ValueError("cannot normalize a zero-trace matrix")
            p_total *= weight / float(np.real(np.trace(rho)))
            rho = kept / weight
            check_density(rho)
        points.append(MultiQecPoint(
            total_free_us=total_free,
            total_evolution_us=float(total_evolution_time_exact(schedule)),
            rounds=len(schedule),
            fidelity=fidelity(rho, target) if schedule else 1.0,
            success_probability=p_total,
            variant=config.recovery_variant,
            chadd=False,
        ))
    return points
