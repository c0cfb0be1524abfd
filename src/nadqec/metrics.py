"""The gain figure of merit.

Gain compares the post-selected QEC protocol against a bare |1>-prepared
qubit at matched evolution time. The per-shot theoretical model behind
``gain_surface`` discounts post-selection by sqrt(p_success) and folds the
measurement error into both fidelities through F* = F (1 - E) + (1 - F) E;
standard deviations are binomial in F*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import code3
from .noise import gamma_of_t


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
                    rnd = code3.PauliRound.of_noise(g, 0.0, g)
                    cycles[g] = (*rnd.outcome(theta), rnd.infidelity(theta))
                f_qec, p_success, u_qec = cycles[g]
                cells.append(GainCell(t1, e, delay, _gain(f_qec, u_qec, p_success, g, e),
                                      f_qec, 1.0 - g, p_success))
    return cells
