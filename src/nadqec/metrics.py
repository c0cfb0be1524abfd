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


def _gain(f_qec: float, u_qec: float, p_success: float, f_bare: float,
          u_bare: float, e_meas: float) -> float:
    """Per-shot gain (F*_QEC sigma_bare) / (F*_bare sigma_QEC) sqrt(p_success),
    the sigmas binomial in the adjusted fidelities F*, F*_bare. Each
    sigma^2 = F* (1 - F*) takes 1 - F* = (1 - F)(1 - 2E) + E from the
    infidelity, ``u_qec`` or ``u_bare``, never from 1 - F* with F* near 1,
    so the gain keeps its digits at short delays. 0 where p_success
    underflows to 0 (from about 372 T1 on). Inf where either sigma
    vanishes, which takes E = 0: sigma_QEC vanishes where F_QEC is 1 (no
    delay, or theta = 0), sigma_bare only at no delay, since F_bare =
    exp(-delay/T1) reaches 0 only past 745 T1, where p_success is 0."""
    if p_success == 0.0:
        return 0.0
    fq = f_star(f_qec, e_meas)
    fb = f_star(f_bare, e_meas)
    sq = math.sqrt(max(fq * (u_qec * (1 - 2 * e_meas) + e_meas), 0.0))
    sb = math.sqrt(fb * (u_bare * (1 - 2 * e_meas) + e_meas))
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
    tests pin to the numeric 64x64 round), built from delay / T1 as
    ``run_multiqec`` builds it and evaluated once per distinct delay / T1
    with its infidelity ``code3.PauliRound.infidelity``; F_bare =
    exp(-delay/T1) from |1> decay, its infidelity gamma. Past about 37 T1,
    where gamma rounds to 1, each cell keeps its digits."""
    if not (len(t1_range) and len(emeas_range) and len(delay_range)):
        raise ValueError("all grid ranges must be non-empty")
    cycles: dict[float, tuple[float, float, float]] = {}
    cells = []
    for t1 in t1_range:
        for e in emeas_range:
            for delay in delay_range:
                g = gamma_of_t(delay, t1)  # the bare infidelity
                x = delay / t1
                if x not in cycles:
                    rnd = code3.PauliRound.of_delay(delay, (t1,) * 3,
                                                    (math.inf,) * 3, t1)
                    cycles[x] = (*rnd.outcome(theta), rnd.infidelity(theta))
                f_qec, p_success, u_qec = cycles[x]
                f_bare = math.exp(-x)
                gain = _gain(f_qec, u_qec, p_success, f_bare, g, e)
                cells.append(GainCell(t1, e, delay, gain, f_qec, f_bare, p_success))
    return cells
