"""Multi-round QEC scheduling, CHaDD dynamical decoupling, and the
two-qubit ZZ-crosstalk Lindblad toy model.

Both multi-round runners share one sweep loop (``_run_rounds``), and each
builds a distinct delay's round once per call; they differ only in how a
point reaches k full rounds. ``run_multiqec``'s round starts and ends in the
code space, so it runs on the logical state as ``code3.PauliRound``, the
round in closed form, and k rounds are that form's closed-form power: a
point costs a few scalar operations at any k, 1e18 rounds as many as one,
and the result is exact to a few ulp (see ``run_multiqec``).
``run_multiqec_with_chadd``'s round is Lindblad evolution of the data +
spectator register, optionally as one robust CHaDD cycle, then the kept
recovery branch (``RecoveryMap.superop``) applied by ``code3.apply_cycle``.
Its spectators stay classical, so it holds the register as one 8x8 data
block per spectator bit string, 64 * 2^k numbers for k spectators; it walks
full rounds once per call and keeps the states at the round counts that
sweep points end on. The robust cycle is the constant pulse list
``ROBUST_PULSES``, which ``_chadd_cycle`` walks for this runner and for the
ZZ toy alike.

Every Lindblad evolution here (that register and the two-qubit ZZ toy)
has a diagonal Z + ZZ Hamiltonian with per-qubit relaxation and
dephasing, for which exp(tL) is closed: a decay factor per entry of rho
times one 2x2 map per qubit on conserved coherence blocks
(``lindbladian``, ``Lindbladian.propagator``, ``propagate``). The same
generator acts on the full register or, with trailing qubits held
classical, on its block view rho[a, b, s]. Its factors are built once per
distinct duration, or for a whole array of durations at once (the toy's
free series is one such call), and its cost does not grow with t.

A sweep point's schedule is the pair (full max_delay rounds, remainder),
and its total evolution time a closed form in that pair; neither loops over
rounds. ``_schedules`` computes both for every point of a sweep in Python
integers over one common denominator (each input read as its exact decimal
text), and one int / int division rounds each reported float correctly;
``total_evolution_time`` returns the same time as an exact fraction. The
durations (microseconds) are constants: encoding 0.548, recovery 3.072,
ancilla reset 2.72. The reset overlaps the following round's delay and
only adds time when that delay is shorter than the reset itself.
Durations are exact decimal fractions, so worked examples come out exact.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import code3
from .noise import NoiseParams, gamma_of_t
from .qcore import check_density


# Durations (microseconds) of encoding (decoding mirrors it), one recovery
# and the ancilla reset between rounds.
T_ENCODE = Fraction("0.548")
T_RECOVERY = Fraction("3.072")
T_RESET = Fraction("2.72")
_T_ENDS = 2 * T_ENCODE  # encoding and the mirrored decoding
# The schedule's integer unit (1/250 us) divides every duration exactly.
_UNIT = math.lcm(*(t.denominator for t in (T_ENCODE, T_RECOVERY, T_RESET)))


@dataclass(frozen=True)
class ProtocolConfig:
    logical: code3.LogicalStateSpec
    max_delay: float
    total_free: tuple[float, ...]  # sweep points, microseconds
    recovery_variant: str = "ideal"  # ideal | approximate

    def __post_init__(self):
        object.__setattr__(self, "total_free", tuple(self.total_free))
        # the sweep, parsed once; an attribute, not a field, so == and repr ignore it
        object.__setattr__(self, "_schedule", _schedules(self.total_free, self.max_delay))
        if self.recovery_variant not in ("ideal", "approximate"):
            raise ValueError(f"unknown recovery variant {self.recovery_variant!r}")

    def walked_rounds(self) -> int:
        """The rounds a runner that walks full rounds once per call
        (``run_multiqec_with_chadd``) applies: the longest point's full
        rounds, plus one remainder round per point that has one."""
        points = self._schedule[1]
        return (max((full for full, _, _ in points), default=0)
                + sum(rest > 0 for _, rest, _ in points))


def _schedules(total_free: Sequence[float],
               max_delay: float) -> tuple[int, list[tuple[int, int, int]]]:
    """Each point's (full max_delay rounds, remainder, total evolution
    time), the last two as integers over the common denominator returned
    with them: every input is read as its exact decimal text, so the sums
    are exact and one int / int division rounds each result correctly. The
    one check of both inputs: finite, max_delay > 0, total_free entries >= 0.

    A full round's delay shorter than the reset before it adds the
    shortfall, T_RESET - max_delay, on every full round but the first, and
    a remainder round after a full one adds T_RESET - remainder likewise.
    """
    def exact(value, name: str) -> tuple[int, int]:
        if not (d := Decimal(str(value))).is_finite():
            raise ValueError(f"{name} must be finite, got {value!r}")
        return d.as_integer_ratio()
    step_num, step_den = exact(max_delay, "max_delay")
    if step_num <= 0:
        raise ValueError("max_delay must be positive")
    totals = [exact(t, "total_free") for t in total_free]
    if any(num < 0 for num, _ in totals):
        raise ValueError("total_free must be non-negative")
    den = math.lcm(_UNIT, step_den, *(d for _, d in totals))
    ends, recovery, reset = (int(t * den) for t in (_T_ENDS, T_RECOVERY, T_RESET))
    step = step_num * (den // step_den)
    gap = max(reset - step, 0)
    points = []
    for num, d in totals:
        total = num * (den // d)
        full, rest = divmod(total, step)
        evolution = total + ends + (full + (rest > 0)) * recovery
        if full > 1:
            evolution += gap * (full - 1)
        if full and 0 < rest < reset:
            evolution += reset - rest
        points.append((full, rest, evolution))
    return den, points


def total_evolution_time(total_free: float, max_delay: float) -> Fraction:
    """Encode + per-round (delay + recovery) + mirrored decode, exactly.

    The ancilla reset before every round but the first overlaps that
    round's delay; if the delay is shorter than the reset, the shortfall
    is added.
    """
    den, [(_, _, evolution)] = _schedules((total_free,), max_delay)
    return Fraction(evolution, den)


@dataclass(frozen=True)
class MultiQecPoint:
    total_free_us: float
    total_evolution_us: float
    rounds: int
    fidelity: float
    success_probability: float


def _recovery_map(config: ProtocolConfig, gamma: float) -> code3.RecoveryMap:
    if config.recovery_variant == "ideal":
        return code3.RecoveryMap.ideal(gamma)
    return code3.RecoveryMap.approximate()


def recovery_t1(config: ProtocolConfig, t1s: Sequence[float]) -> float:
    """The T1 whose gamma(delay) the recovery is built from: data qubit 0's,
    of the register's per-qubit ``t1s`` (``NoiseParams.lifetimes``).

    The ideal recovery adapts to a single gamma. With T1 differing across
    the data qubits its result would depend on qubit order, so that case
    raises ValueError; the approximate variant accepts it.
    """
    if config.recovery_variant == "ideal" and len(set(t1s[:3])) > 1:
        raise ValueError(
            f"the ideal recovery adapts to one T1, but the data qubits have "
            f"t1 = {list(t1s[:3])}; use the approximate recovery for per-qubit T1")
    return t1s[0]


def _run_rounds(config: ProtocolConfig, reach: Callable[[int], tuple],
                round_for: Callable[[float], Callable],
                score: Callable[[list], Sequence[float]]) -> list[MultiQecPoint]:
    """The sweep loop of both runners. ``reach(k)`` returns the state after
    k full max_delay rounds and its cumulative post-selection weight, for
    every point's full-round count k; ``round_for(delay)`` returns one round
    as state -> (renormalized state, p_round), for a point's remainder.
    Every point's schedule and timing come from the config's one integer
    pass over the sweep (``_schedules``), and ``score`` turns the final
    states of all points into their fidelities in one call; an empty sweep
    returns [] without calling it. A point whose total evolution time
    exceeds the largest float, or whose carried success probability exceeds
    1 + 1e-12, raises ValueError."""
    den, schedules = config._schedule
    finals, rows = [], []
    for total_free, (k, rest, evolution) in zip(config.total_free, schedules):
        try:
            evolution_us = evolution / den
        except OverflowError:
            raise ValueError(
                f"the total evolution time at total_free {total_free} with "
                f"max_delay {config.max_delay} exceeds {sys.float_info.max!r} "
                f"us, the largest float") from None
        state, p_total = reach(k)
        if rest:
            state, p_round = round_for(rest / den)(state)
            p_total *= p_round
        if p_total > 1 + 1e-12:
            raise ValueError(
                f"success probability {p_total} exceeds 1 at total_free "
                f"{total_free} with max_delay {config.max_delay}")
        finals.append(state)
        rows.append((total_free, evolution_us, k + (rest > 0), p_total))
    if not rows:  # an empty sweep: no states to score
        return []
    return [MultiQecPoint(total_free_us=t, total_evolution_us=evolution,
                          rounds=n, fidelity=f, success_probability=p)
            for (t, evolution, n, p), f in zip(rows, score(finals), strict=True)]


def run_multiqec(config: ProtocolConfig, noise: NoiseParams) -> list[MultiQecPoint]:
    """Analytic multi-round protocol: encode, n x (idle noise + QEC cycle),
    report fidelity against the ideal logical state and the cumulative
    post-selection probability.

    Idle noise is damping and dephasing over each delay; the recovery
    window itself is noiseless (gates are time-accounted but error-free),
    which keeps single-round runs exactly on the closed-form oracle.

    A round starts and ends in the code space, so it acts on the logical
    state as ``code3.PauliRound``, the round in closed form, built once per
    distinct delay from the delay itself (log(1 - gamma_q) = -delay/T1_q,
    1 - 2 p_q = exp(-delay/Tphi_q)), per-qubit lifetimes included. A point
    reaches its k full rounds by one closed-form power of that round
    (``PauliRound.advance``), then applies its remainder round once, so it
    costs a few scalar operations whatever k is and depends on no other
    point. The 64x64 maps are not built. F is psi_L^dag sigma psi_L and P
    the carried weight. Every reported sigma is validated in one batched
    ``qcore.check_density``.

    Accuracy, against 60-digit mpmath powers of the exact round
    (``tests/multiqec_reference.run_multiqec_mpmath``): F and P within
    2.6e-15 relative at 792 points, theta from 0.3 to 3.14159, uniform and
    per-qubit T1 and Tphi, both variants, max_delay from 1e-20 to 30 us
    and k up to 3e21 (the tests hold them to 1e-12). The per-round error
    is a few ulp of the round's rates, so k rounds carry a few ulp of the
    rate times the total time; nothing is amplified k-fold. P can
    underflow to 0.0 at large total times; F stays defined.
    """
    t1s, tphis = noise.lifetimes(3)
    recovery_t1(config, t1s)
    start = code3.logical_state(config.logical.theta)

    @functools.cache
    def round_for(delay: float) -> code3.PauliRound:
        return code3.PauliRound.of_delay(delay, t1s, tphis, config.recovery_variant)

    step = float(config.max_delay)

    def reach(k: int) -> tuple[tuple, float]:
        return round_for(step).advance(start, k) if k else (start, 1.0)

    def score(states: list) -> list[float]:
        check_density(np.array([[[p0, coh], [coh, p1]] for p0, p1, coh in states]))
        return [code3.logical_fidelity(start, x) for x in states]

    return _run_rounds(config, reach, lambda delay: round_for(delay).advance, score)


def fit_lifetime(times: Sequence[float], fidelities: Sequence[float]) -> float:
    """Least-squares fit of A*exp(-t/tau); returns tau (microseconds)."""
    from scipy.optimize import curve_fit

    times = np.asarray(times, dtype=float)
    fids = np.asarray(fidelities, dtype=float)
    popt, _ = curve_fit(lambda t, a, tau: a * np.exp(-t / tau), times, fids,
                        p0=(1.0, max(times.max(), 1.0)), maxfev=10000)
    return float(popt[1])


# ---------------------------------------------------------------------------
# CHaDD sequences
# ---------------------------------------------------------------------------

# The robust single-axis X-type cycle for chromaticity 2, as (pulse kind,
# color): X on color 1, X on color 2, then the RX(-pi) counterparts ("XT")
# twice, closed by plain X pulses again. One free interval of tau precedes
# each of the 8 pulses. The toggling-frame signs of (Z_color1, Z_color2)
# then trace rows 3 and 2 of the 4x4 Walsh-Hadamard sign matrix
# kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]) twice, so the sign sums over
# Z1, Z2 and Z1Z2 vanish exactly (with only the seven printed intervals
# they do not). X and RX(-pi) = iX act alike on rho.
ROBUST_PULSES = (("X", 1), ("X", 2), ("XT", 1), ("XT", 2),
                 ("XT", 1), ("XT", 2), ("X", 1), ("X", 2))


# ---------------------------------------------------------------------------
# Lindblad propagation (closed form)
# ---------------------------------------------------------------------------

# h_q = (z_q(a) - z_q(b)) / 2 = b_q - a_q on the (a_q, b_q) axes of rho
_H_STEP = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _on_axes(values: np.ndarray, axis_a: int, axis_b: int, ndim: int) -> np.ndarray:
    """A 2x2 array placed on two axes of an ``ndim``-axis broadcast shape."""
    shape = [1] * ndim
    shape[axis_a] = shape[axis_b] = 2
    return values.reshape(shape)


@dataclass(frozen=True)
class Propagator:
    """exp(t L) for one duration t, or for each of an array of them on
    leading axes: ``decay`` multiplies every entry of the (2,)*axes view of
    rho, then each ``factors`` entry (index of the bit-0 slice, of the bit-1
    slice, e0, e1, cross) maps (rho0, rho1) to (e0 rho0 + cross rho1,
    e1 rho1); ``cross`` is None when the qubit does not relax."""

    decay: np.ndarray
    factors: tuple


@dataclass(frozen=True)
class Lindbladian:
    """A generator of the one form every evolution here has, in the terms of
    its closed-form propagator (see ``lindbladian``): ``rates`` is K on the
    (2,)*axes view of rho, and ``qubits`` lists (index of the bit-0 slice,
    of the bit-1 slice, s_j, 1/T1_j) for each qubit whose slices move; s_j,
    the ZZ shift, broadcasts over a slice."""

    rates: np.ndarray
    qubits: tuple

    @np.errstate(over="ignore", invalid="raise")
    def propagator(self, t) -> Propagator:
        """exp(t L), its factors built once for the duration t, or for every
        entry of an array of durations at once (a propagator whose leading
        axes are those of t). A decay rate times t that overflows decays to
        0; a phase (a frequency or coupling times t) that overflows has no
        value and raises FloatingPointError."""
        t = np.asarray(t, dtype=float)

        def lead(x):  # t on leading axes before x's
            return t.reshape(t.shape + (1,) * np.ndim(x))
        factors = []
        for idx0, idx1, s, relax in self.qubits:
            ts = lead(s)
            e0 = np.exp(-2j * s * ts)
            cross = None
            if relax:
                # relax * t * e0 * expm1(x) / x with x = (d1 - d0) t; the
                # form below cannot overflow, since |d1 - d0| >= relax
                diff = 4j * s - relax
                cross = relax * e0 * np.expm1(diff * ts) / diff
            factors.append((idx0, idx1, e0, np.exp((2j * s - relax) * ts), cross))
        return Propagator(np.exp(self.rates * lead(self.rates)), tuple(factors))


def _require_phase(name: str, frequency: float, duration: float) -> None:
    """Raise FloatingPointError naming ``name`` unless every phase the
    propagator forms from ``frequency`` (rad/us) over ``duration`` (us) is
    a float: the largest is 4 |f| t, a coupling's in the relaxation cross
    term, and 4 |f| is formed before t is applied."""
    if not math.isfinite(4 * abs(frequency) * max(duration, 1.0)):
        raise FloatingPointError(
            f"{name} = {frequency!r} rad/us times the duration {duration!r} us "
            f"overflows: the phase has no float value")


def lindbladian(n_qubits: int, params: NoiseParams, couplings: Sequence = (),
                omega: Optional[Sequence[float]] = None,
                classical: int = 0) -> Lindbladian:
    """H = sum_q omega_q/2 Z_q + sum g Z_a Z_b over ``couplings`` (a, b, g)
    (angular frequencies, rad/us; omega defaults to 0), with relaxation
    (sigma-) at 1/T1_q and dephasing (Z) at 1/(2 Tphi_q) on each qubit.

    Index rho[a, b] by bit strings, qubit 0 the MSB, z_q = 1 - 2 bit_q. The
    coherence pattern a xor b is conserved and only qubits with a_q = b_q
    jump (rho[a + e_q, b + e_q] feeds rho[a, b] at 1/T1_q). With
    h_q = (z_q(a) - z_q(b)) / 2, each entry decays and turns at
    K = sum_q [-i omega_q h_q - |h_q| (1/(2 T1_q) + 1/Tphi_q)], and on qubit
    j's a_j = b_j slices the generator is two-level: with s_j = sum_i g_ij h_i,
    rho0 turns at d0 = -2i s_j and receives rho1 at 1/T1_j, while rho1 goes
    at d1 = 2i s_j - 1/T1_j. These commute, so exp(tL) is e^{Kt} times one
    2x2 map per qubit. Per-qubit T1 or Tphi sequences must give one value
    per register qubit; a coupling must name two distinct register qubits.

    The last ``classical`` qubits are held classical: the generator acts on
    the block view rho[a, b, s] (a and b over the other, quantum qubits, s
    the classical ones' bit string), the register's entries with a_q = b_q
    on every classical qubit, which it maps among themselves. That view is
    the (d, d, 2^classical) array whose block s is the quantum qubits'
    state with the classical ones in |s>; ``classical=0`` is the full
    register. A classical qubit's h_q is 0, so it adds nothing to K or to
    any s_j; it keeps its 2x2 map on its one axis of s, with s_j from the
    quantum qubits' coherences only.
    """
    n = n_qubits
    t1s, tphis = params.lifetimes(n)
    omega = np.zeros(n) if omega is None else np.asarray(omega, dtype=float)
    if omega.shape != (n,):
        raise ValueError(f"{omega.size} frequencies for {n} qubits")
    for a, b, g in couplings:
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"coupling {(a, b, g)} must name two distinct "
                             f"qubits of the {n}-qubit register")
    quantum = n - classical
    if not 0 < quantum <= n:
        raise ValueError(f"{classical} classical qubits in a {n}-qubit register")
    # the view's axes: the quantum qubits' a, their b, then the classical
    # qubits' s; qubit j's slices fix bit j of a and b, or bit j of s
    axes = 2 * quantum + classical
    relax = [1.0 / t for t in t1s]
    # an entry's decay rate, capped at the largest float where a qubit's
    # 1/(2 T1) + 1/Tphi or the sum over its differing qubits overflows: it
    # then decays to 0 at any t > 0, as a rate times t that overflows does
    with np.errstate(over="ignore"):
        decay = sum(_on_axes(np.abs(_H_STEP) * min(relax[q] / 2 + 1.0 / tphis[q],
                                                   sys.float_info.max),
                             q, quantum + q, axes) for q in range(quantum))
    rates = np.broadcast_to(
        sum(_on_axes(-1j * omega[q] * _H_STEP, q, quantum + q, axes)
            for q in range(quantum)) - np.minimum(decay, sys.float_info.max),
        (2,) * axes)
    qubits = []
    for j in range(n):
        fixed = (j, quantum + j) if j < quantum else (quantum + j,)
        rest = [x for x in range(axes) if x not in fixed]
        s = np.zeros((1,) * len(rest))  # over a slice's axes
        for a, b, g in couplings:
            other = b if a == j else a
            if j in (a, b) and other < quantum:  # a classical h is 0
                s = s + g * _on_axes(_H_STEP, rest.index(other),
                                     rest.index(quantum + other), len(rest))
        if relax[j] or s.any():
            # a leading Ellipsis keeps a view even when every axis is fixed,
            # and leaves room for a propagator's duration axes
            idx = [(Ellipsis,) + tuple(bit if x in fixed else slice(None)
                                       for x in range(axes)) for bit in (0, 1)]
            qubits.append((idx[0], idx[1], s, relax[j]))
    return Lindbladian(rates, tuple(qubits))


def propagate(prop: Propagator, rho: np.ndarray) -> np.ndarray:
    """exp(t L) applied to rho, returned Hermitian. rho is the (d, d)
    register or its (d, d, m) block view (see ``lindbladian``); a
    propagator over an array of durations returns one state per duration,
    on leading axes of the same shape."""
    axes = rho.size.bit_length() - 1
    out = rho.reshape((2,) * axes) * prop.decay
    for idx0, idx1, e0, e1, cross in prop.factors:
        lo, hi = out[idx0], out[idx1]  # views into out
        lo *= e0
        if cross is not None:
            lo += cross * hi
        hi *= e1
    lead = out.ndim - axes
    out = out.reshape(out.shape[:lead] + rho.shape)
    return 0.5 * (out + out.swapaxes(lead, lead + 1).conj())


@dataclass(frozen=True)
class CrosstalkModel:
    """Two-qubit ZZ toy model: H = w1/2 Z1 + w2/2 Z2 + g Z1 Z2 (angular
    frequencies, rad/us) with relaxation and dephasing from ``noise``,
    shared or per qubit (``NoiseParams.lifetimes(2)``)."""

    omega1: float = 0.0
    omega2: float = 0.0
    g: float = 0.05
    noise: NoiseParams = NoiseParams(t1=math.inf)

    def lindbladian(self) -> Lindbladian:
        """The model's generator."""
        return lindbladian(2, self.noise, ((0, 1, self.g),),
                           (self.omega1, self.omega2))


def _pulse_gathers(colors: Sequence[int], m: int) -> dict:
    """Each color's pulse as one gather of the flattened (d, d, m) block
    view (``lindbladian``) of the register ``colors`` colors qubit by qubit,
    its last log2(m) qubits held classical; m = 1 gathers the (d, d)
    register itself.

    X and RX(-pi) = iX act alike under conjugation: on the qubits of mask
    ``mask`` (qubit 0 the MSB) both map rho[i, j] to rho[i xor mask,
    j xor mask]. The register index i = a m + s is the quantum part a and
    the classical part s, so a pulse flips the rows and columns by
    a xor (mask // m) and maps block s to s xor (mask % m).
    """
    n = len(colors)
    d = 2**n // m
    gathers = {}
    for color in (1, 2):
        mask = sum(1 << (n - 1 - q) for q, c in enumerate(colors) if c == color)
        rows, blocks = np.arange(d) ^ (mask // m), np.arange(m) ^ (mask % m)
        gathers[color] = ((rows[:, None, None] * d + rows[None, :, None]) * m
                          + blocks).ravel()
    return gathers


def _chadd_cycle(free: Propagator, rho: np.ndarray, pulses: dict) -> np.ndarray:
    """One robust CHaDD cycle (``ROBUST_PULSES``): each interval propagates
    by ``free`` (one tau), then applies its instantaneous pulse, a gather
    from ``pulses`` (``_pulse_gathers``)."""
    for _, color in ROBUST_PULSES:
        rho = propagate(free, rho)
        rho = rho.ravel()[pulses[color]].reshape(rho.shape)
    return rho


@dataclass(frozen=True)
class ToySeries:
    times: np.ndarray
    pop0: np.ndarray
    pop1: np.ndarray
    fidelity: np.ndarray


def run_crosstalk_toy(model: CrosstalkModel, probe_init: str, t_final: float,
                      cycles: Optional[int] = None) -> ToySeries:
    """Evolve (probe, spectator=|0>) under the ZZ toy model, recording the
    probe populations and its fidelity to the initial probe state.

    ``cycles=None`` is free evolution, sampled 40 times at multiples of
    t_final / 40 by one propagator over all 40 durations (one closed-form
    call, no stepping); t_final = 0 keeps the initial state. Otherwise
    t_final must be positive and is chopped into ``cycles`` robust CHaDD
    cycles with instantaneous pulses between their intervals; samples are
    taken once per full cycle (the pulse product is identity up to phase
    there).
    """
    kets = {"0": np.array([1, 0], complex), "1": np.array([0, 1], complex),
            "+": np.array([1, 1], complex) / math.sqrt(2)}
    if probe_init not in kets:
        raise ValueError(f"probe_init must be one of {sorted(kets)}")
    if not (t_final >= 0 if cycles is None else t_final > 0):
        need = "non-negative" if cycles is None else "positive"
        raise ValueError(f"t_final must be {need}, got {t_final}")
    if cycles is not None and cycles < 1:
        raise ValueError(f"cycles must be at least 1, got {cycles}")
    # the free series' longest span is t_final; a CHaDD cycle's span is
    # each of its intervals, t_final / (8 cycles)
    span = t_final if cycles is None else t_final / (len(ROBUST_PULSES) * cycles)
    for name in ("omega1", "omega2", "g"):
        _require_phase(name, getattr(model, name), span)
    probe = kets[probe_init]
    psi = np.kron(probe, kets["0"])
    state = np.outer(psi, psi.conj())
    gen = model.lindbladian()

    if cycles is None:
        times = t_final / 40 * np.arange(41)
        stack = np.concatenate(
            (state[None], propagate(gen.propagator(times[1:]), state)))
    else:
        cycle = span * len(ROBUST_PULSES)  # t_final / cycles rounds differently
        free = gen.propagator(span)
        pulses = _pulse_gathers((1, 2), 1)
        times, rows = [0.0], [state]
        for i in range(cycles):
            state = _chadd_cycle(free, state, pulses)
            times.append((i + 1) * cycle)
            rows.append(state)
        stack = np.stack(rows)
    check_density(stack, normalized=False)
    reduced = np.trace(stack.reshape(-1, 2, 2, 2, 2), axis1=2, axis2=4)
    proj_probe = np.outer(probe, probe.conj())
    fid = np.trace(proj_probe @ reduced, axis1=1, axis2=2)
    return ToySeries(np.asarray(times), np.real(reduced[:, 0, 0]),
                     np.real(reduced[:, 1, 1]), np.real(fid))


# ---------------------------------------------------------------------------
# Multi-QEC with CHaDD-interleaved delays on a data + spectator register
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectatorLayout:
    """Data qubits 0..2 plus spectators, with static ZZ couplings.

    ``couplings`` are (qubit_a, qubit_b, g_rad_per_us) over the combined
    register. CHaDD colors alternate along the data chain, and each
    spectator takes the color opposite its first coupled partner.
    """

    spectators: int = 1
    couplings: tuple = ()

    @property
    def n_qubits(self) -> int:
        return 3 + self.spectators

    def resolved_colors(self) -> tuple:
        colors = {0: 1, 1: 2, 2: 1}
        for q in range(3, self.n_qubits):
            partner = next((a if b == q else b for a, b, _ in self.couplings
                            if q in (a, b)), None)
            colors[q] = 1 if partner is None else 3 - colors.get(partner, 2)
        return tuple(colors[q] for q in range(self.n_qubits))


def run_multiqec_with_chadd(config: ProtocolConfig, noise: NoiseParams,
                            layout: SpectatorLayout, *,
                            chadd: bool) -> list[MultiQecPoint]:
    """Multi-round QEC where each delay is Lindblad free evolution of the
    data + spectator register (ZZ couplings included), with ``chadd``
    chopped into one robust CHaDD cycle with instantaneous pulses.

    The spectators stay classical: they start in |0...0>, the generator is
    diagonal in Z with sigma- and Z dissipators, every pulse flips the same
    bits of a and b, and the recovery acts on the data alone, so every
    entry of rho[a, b] that the rounds reach has equal spectator bits in a
    and b. The state is held as that block view (``lindbladian`` with the
    spectators classical): rho[a, b, s], one 8x8 data block per spectator
    bit string s, 64 * 2^k entries for k spectators where the register has
    (8 * 2^k)^2, and nothing dropped. A pulse permutes the data rows and
    columns and maps block s to s xor its spectator mask
    (``_pulse_gathers``), and ``code3.apply_cycle`` applies the kept
    recovery branch to every block in one product. Full rounds are walked
    once per call, keeping only the states at the round counts that points
    end on. A point's F is psi^dag sigma psi for the data's state sigma,
    the sum of the blocks over its trace, and every reported state is
    validated block by block in one ``check_density`` call: a
    block-diagonal matrix is Hermitian and PSD exactly when its blocks are.

    The two QEC ancillas stay implicit: syndrome conditioning and recovery
    act on the data qubits through ``code3.apply_cycle``, and the ancilla
    reset is an exact replacement, so only their timing matters.
    """
    n = layout.n_qubits
    if n > 7:
        raise ValueError(f"register of {n} qubits exceeds the 7-qubit cap")
    t1 = recovery_t1(config, noise.lifetimes(n)[0])
    # the longest free evolution: max_delay if any point has a full round,
    # else the longest remainder (shorter than max_delay); with chadd, one
    # of the CHaDD cycle's eight intervals
    den, points = config._schedule
    span = max((rest / den for _, rest, _ in points), default=0.0)
    if any(full for full, _, _ in points):
        span = float(config.max_delay)
    if chadd:
        span /= len(ROBUST_PULSES)
    for q in range(n):
        _require_phase(f"the summed |g| of the couplings on qubit {q}",
                       sum(abs(g) for a, b, g in layout.couplings if q in (a, b)),
                       span)
    psi = code3.encode_ideal(config.logical)
    m = 2**layout.spectators
    gen = lindbladian(n, noise, layout.couplings, classical=layout.spectators)
    pulses = _pulse_gathers(layout.resolved_colors(), m) if chadd else None
    rho = np.zeros((8, 8, m), dtype=complex)
    rho[:, :, 0] = np.outer(psi, psi.conj())  # the spectators in |0...0>

    @functools.cache
    def round_for(delay: float):
        free = gen.propagator(delay / len(ROBUST_PULSES) if chadd else delay)
        kept = _recovery_map(config, gamma_of_t(delay, t1)).superop()

        def one_round(rho: np.ndarray):
            rho = _chadd_cycle(free, rho, pulses) if chadd else propagate(free, rho)
            return code3.apply_cycle(kept, rho)
        return one_round

    # walk the full rounds once, keeping the states that points end on
    needed = {full for full, _, _ in points}
    reached, p_total = {}, 1.0
    for k in range(max(needed, default=0) + 1):
        if k:
            rho, p_round = round_for(float(config.max_delay))(rho)
            p_total *= p_round
        if k in needed:
            reached[k] = rho, p_total

    def score(states: list) -> list[float]:
        stack = np.stack(states)  # (points, 8, 8, m)
        check_density(stack.transpose(0, 3, 1, 2).reshape(-1, 8, 8),
                      normalized=False)
        # the data's reduced state: the sum over the spectator blocks
        return [float(np.real(psi.conj() @ (r / np.real(np.trace(r))) @ psi))
                for r in stack.sum(axis=-1)]

    return _run_rounds(config, reached.__getitem__, round_for, score)
