"""Multi-round QEC by the per-round loop.

An independent reference for ``nadqec.protocol.run_multiqec``, which
reaches each point's k rounds by one closed-form power of the logical round
(``code3.PauliRound.advance``) and schedules and times each point in
closed form: here every point lists its
round delays, restarts from the encoded state, applies idle noise and the
post-selected recovery to the 8x8 density matrix round by round, and sums
the timing over that list.

``run_multiqec_mpmath`` is the same protocol at 60 digits: each round is
the Pauli transfer matrix of the analytic round as a sympy derivation from
the Kraus operators gives it (one polynomial per entry in the per-qubit
gamma_q, the coherence factors c_q = sqrt(1 - gamma_q)(1 - 2 p_q) and the
recovery's 1 - gamma), and k rounds are its k-th power by binary
squaring in mpmath, so a float power at any k has an exact value to be
measured against.

``run_multiqec_with_chadd`` is the same loop for
``nadqec.protocol.run_multiqec_with_chadd`` on the full data + spectator
register: the spectators join as |0...0> by ``np.kron``, each round
evolves the whole (8 * 2^k)^2 rho under the full-register generator
(``lindbladian`` with no classical qubits), applies each pulse as the row
and column permutation of ``lindblad_reference.pulse_permutations``, and
applies the kept recovery branch with the data axes of rho viewed as
(8, m, 8, m) and brought together. The package holds only the blocks with equal spectator
bits; this keeps every entry.
"""

from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
from lindblad_reference import pulse_permutations
from noise_reference import apply_kraus, fidelity, idle_noise, pure

from nadqec import code3
from nadqec.noise import NoiseParams, gamma_of_t
from nadqec.protocol import (
    ROBUST_PULSES,
    T_ENCODE,
    T_RECOVERY,
    T_RESET,
    MultiQecPoint,
    ProtocolConfig,
    SpectatorLayout,
    _recovery_map,
    _schedules,
    lindbladian,
    propagate,
    recovery_t1,
)
from nadqec.qcore import check_density


def _frac(x: float) -> Fraction:
    return Fraction(str(x))


def split_rounds(total_free: float, max_delay: float) -> tuple[int, Fraction]:
    """The package's one point schedule (``protocol._schedules``) as
    (full max_delay rounds, remainder) in exact fractions, so
    full * max_delay + remainder == total_free; a remainder of 0 means no
    remainder round."""
    den, [(full, rest, _)] = _schedules((total_free,), max_delay)
    return full, Fraction(rest, den)


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
    t1 = noise.lifetimes(3)[0][0]  # the recovery adapts to qubit 0's gamma
    points = []
    for total_free in config.total_free:
        schedule = schedule_rounds(total_free, config.max_delay)
        rho = pure(target)
        p_total = 1.0
        for delay in schedule:
            rho = idle_noise(rho, delay, noise)
            rmap = _recovery_map(config, gamma_of_t(delay, t1))
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
        ))
    return points


def _pauli_round_mp(delay, noise: NoiseParams, variant: str):
    """One round's (I, Z) block and its X and Y entry, in mpmath."""
    delay = mpmath.mpf(delay)
    t1s, tphis = noise.lifetimes(3)
    g = [-mpmath.expm1(-delay / t1s[q]) for q in range(3)]
    c = [mpmath.sqrt(1 - g[q]) * mpmath.exp(-delay / tphis[q]) for q in range(3)]
    pairs = ((0, 1), (0, 2), (1, 2))
    e1 = sum(g)
    e2 = sum(g[a] * g[b] for a, b in pairs)
    c2 = sum(c[a] * c[b] for a, b in pairs)
    r = 1 - g[0] if variant == "ideal" else mpmath.mpf(1)
    common = 2 * r**2 * c2 + 2 * e1 * r**2 + 3 * r**2
    block = mpmath.matrix([
        [common + 3 * e2 * (r**2 + 1) - 6 * e1 + 9,
         common - 3 * e2 * (r**2 + 1) + 6 * e1 - 9],
        [common + 3 * e2 * (r**2 - 1) + 6 * e1 - 9,
         common - 3 * e2 * (r**2 - 1) - 6 * e1 + 9]]) / 18
    return block, r * c2 / 3


def _power_mp(block, lam, k: int):
    """(block^k, lam^k) by binary squaring."""
    out, out_lam = mpmath.eye(2), mpmath.mpf(1)
    while k:
        if k & 1:
            out, out_lam = out * block, out_lam * lam
        block, lam = block * block, lam * lam
        k >>= 1
    return out, out_lam


def run_multiqec_mpmath(config: ProtocolConfig, noise: NoiseParams,
                        digits: int = 60) -> list[tuple]:
    """(fidelity, success probability) of each point as mpf values: k full
    rounds of float(max_delay), then the remainder round, on the Bloch
    vector (1, sin theta cos phi, sin theta sin phi, cos theta)."""
    with mpmath.workdps(digits):
        theta = mpmath.mpf(config.logical.theta)
        x0, z0 = mpmath.sin(theta), mpmath.cos(theta)
        out = []
        for total_free in config.total_free:
            full, rest = split_rounds(total_free, config.max_delay)
            iz, lam = mpmath.matrix([1, z0]), mpmath.mpf(1)
            steps = [(float(config.max_delay), full)] + [(float(rest), 1)] * (rest > 0)
            for delay, k in steps:
                block, scale = _power_mp(*_pauli_round_mp(delay, noise,
                                                          config.recovery_variant), k)
                iz, lam = block * iz, lam * scale
            weight = iz[0]
            out.append(((weight + x0 * x0 * lam + z0 * iz[1]) / (2 * weight), weight))
        return out


def apply_cycle_full(superop: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """A 64x64 map on data qubits 0..2 of a full register rho: rho viewed
    as (8, m, 8, m), the data axes brought together and multiplied, and the
    result mapped back; returns it renormalized and its weight relative to
    rho's trace."""
    m = rho.shape[0] // 8
    blocks = rho.reshape(8, m, 8, m).transpose(0, 2, 1, 3).reshape(64, m * m)
    out = (superop @ blocks).reshape(8, 8, m, m).transpose(0, 2, 1, 3) \
        .reshape(rho.shape)
    weight = float(np.real(np.trace(out)))
    if weight <= 0:
        raise ValueError("post-selection removed all weight")
    return out / weight, weight / float(np.real(np.trace(rho)))


def run_multiqec_with_chadd(config: ProtocolConfig, noise: NoiseParams,
                            layout: SpectatorLayout, *,
                            chadd: bool) -> list[MultiQecPoint]:
    """The CHaDD runner on the full register, each point walked from the
    encoded state."""
    n = layout.n_qubits
    t1 = recovery_t1(config, noise.lifetimes(n)[0])
    target = code3.encode_ideal(config.logical)
    gen = lindbladian(n, noise, layout.couplings)
    perms = pulse_permutations(layout.resolved_colors())
    m = 2**(n - 3)
    spectators = np.zeros((m, m))
    spectators[0, 0] = 1.0
    rho0 = np.kron(pure(target), spectators)

    def one_round(rho, delay):
        if chadd:
            free = gen.propagator(delay / len(ROBUST_PULSES))
            for _, color in ROBUST_PULSES:
                rho = propagate(free, rho)
                perm = perms[color]
                rho = rho[perm][:, perm]
        else:
            rho = propagate(gen.propagator(delay), rho)
        kept = _recovery_map(config, gamma_of_t(delay, t1)).superop()
        return apply_cycle_full(kept, rho)

    points = []
    for total_free in config.total_free:
        schedule = schedule_rounds(total_free, config.max_delay)
        rho, p_total = rho0, 1.0
        for delay in schedule:
            rho, p_round = one_round(rho, delay)
            p_total *= p_round
        check_density(rho, normalized=False)
        reduced = np.trace(rho.reshape(8, m, 8, m), axis1=1, axis2=3)
        points.append(MultiQecPoint(
            total_free_us=total_free,
            total_evolution_us=float(total_evolution_time_exact(schedule)),
            rounds=len(schedule),
            fidelity=fidelity(reduced / np.real(np.trace(reduced)), target),
            success_probability=p_total,
        ))
    return points
