"""Multi-round QEC by the per-round Kraus loop.

An independent reference for ``nadqec.protocol.run_multiqec``, which
applies compiled round maps and shares prefixes between points: here every
point restarts from the encoded state and applies idle noise and the
post-selected recovery to the density matrix round by round.
"""

from nadqec import code3
from nadqec.noise import NoiseParams, gamma_of_t, idle_noise
from nadqec.protocol import (
    MultiQecPoint,
    ProtocolConfig,
    _recovery_map,
    schedule_rounds,
    total_evolution_time,
)
from nadqec.qcore import fidelity


def run_multiqec(config: ProtocolConfig, noise: NoiseParams) -> list[MultiQecPoint]:
    target = code3.encode_ideal(config.logical)
    points = []
    for total_free in config.total_free:
        schedule = schedule_rounds(total_free, config.max_delay)
        rho = target.to_density_matrix()
        p_total = 1.0
        for delay in schedule:
            rho = idle_noise(rho, delay, noise)
            rmap = _recovery_map(config, gamma_of_t(delay, noise.t1_of(0)))
            rho, p_round = code3.apply_recovery(rho, rmap)
            p_total *= p_round
        points.append(MultiQecPoint(
            total_free_us=total_free,
            total_evolution_us=total_evolution_time(schedule, config.timing),
            rounds=len(schedule),
            fidelity=fidelity(rho, target) if schedule else 1.0,
            success_probability=p_total,
            variant=config.recovery_variant,
            chadd=False,
        ))
    return points
