"""Multi-round QEC scheduling, CHaDD dynamical decoupling, and the
two-qubit ZZ-crosstalk Lindblad toy model.

Both multi-round runners take the values a spec resolves, the recovery as
the T1 it adapts to (``recovery_t1``), parse their sweep once and share one
sweep loop (``_run_rounds``); each builds a distinct delay's round once per
call, and they differ only in how a point reaches k full rounds.
``run_multiqec``'s round starts and ends in the code space, so it runs on
the logical state as ``code3.PauliRound``, the round in closed form, and k
rounds are that form's closed-form power: a point costs a few scalar
operations at any k, 1e18 rounds as many as one, and the result is exact to
a few ulp (see ``run_multiqec``). ``run_multiqec_with_chadd``'s round is
Lindblad evolution of the data + spectator register, plain or as one robust
CHaDD cycle, then the kept recovery branch (``RecoveryMap.superop``)
applied by ``code3.apply_cycle``. Its spectators stay classical, so it
holds the register as one 8x8 data block per spectator bit string, 64 * 2^k
numbers for k spectators; it walks full rounds once per series, at most
``CHADD_ROUND_CAP`` of them, and keeps the states at the round counts that
sweep points end on. The robust cycle is the constant pulse list
``ROBUST_PULSES``, which ``_chadd_cycle`` walks for this runner and for the
ZZ toy alike; each returns its plain and its CHaDD series from one call.

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
text), and one int / int division rounds each reported float correctly.
The durations (microseconds) are constants: encoding 0.548, recovery 3.072,
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
from .noise import LIFETIME_RULE, NoiseParams, is_lifetime, is_real
from .qcore import ConfigError, check_density


# Durations (microseconds) of encoding (decoding mirrors it), one recovery
# and the ancilla reset between rounds.
T_ENCODE = Fraction("0.548")
T_RECOVERY = Fraction("3.072")
T_RESET = Fraction("2.72")
_T_ENDS = 2 * T_ENCODE  # encoding and the mirrored decoding
# The schedule's integer unit (1/250 us) divides every duration exactly.
_UNIT = math.lcm(*(t.denominator for t in (T_ENCODE, T_RECOVERY, T_RESET)))


def _schedules(total_free: Sequence[float],
               max_delay: float) -> tuple[int, list[tuple[int, int, int]]]:
    """Each point's (full max_delay rounds, remainder, total evolution
    time), the last two as integers over the common denominator returned
    with them: every input is read as its exact decimal text, so the sums
    are exact and one int / int division rounds each result correctly. The
    one check of both inputs: finite reals, max_delay > 0, total_free a
    sequence of values >= 0.

    A full round's delay shorter than the reset before it adds the
    shortfall, T_RESET - max_delay, on every full round but the first, and
    a remainder round after a full one adds T_RESET - remainder likewise.
    """
    def exact(value, name: str) -> tuple[int, int]:
        if not (is_real(value) and math.isfinite(value)):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        return Decimal(str(value)).as_integer_ratio()
    step_num, step_den = exact(max_delay, "max_delay")
    if step_num <= 0:
        raise ConfigError(f"max_delay must be positive, got {max_delay!r}")
    if isinstance(total_free, str) or not isinstance(total_free, (Sequence, np.ndarray)):
        raise ConfigError(f"total_free must be a sequence of numbers, got {total_free!r}")
    totals = [exact(t, "total_free") for t in total_free]
    if any(num < 0 for num, _ in totals):
        raise ConfigError("total_free must be non-negative")
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


@dataclass(frozen=True)
class MultiQecPoint:
    total_evolution_us: float
    rounds: int
    fidelity: float
    success_probability: float


def recovery_t1(recovery: str, t1s: Sequence[float]) -> float:
    """The T1 whose gamma(delay) the ``recovery`` a spec names adapts to, of
    the register's per-qubit ``t1s`` (``NoiseParams.lifetimes``): data qubit
    0's for "ideal", inf (gamma = 0 at every delay) for "approximate". The
    name is read here and nowhere below: the runners take this number.

    The ideal recovery adapts to a single gamma. With T1 differing across
    the data qubits its result would depend on qubit order, so that case
    raises ConfigError; the approximate variant accepts it.
    """
    if recovery == "approximate":
        return math.inf
    if len(set(t1s[:3])) > 1:
        raise ConfigError(
            f"the ideal recovery adapts to one T1, but the data qubits have "
            f"t1 = {list(t1s[:3])}; use the approximate recovery for per-qubit T1")
    return t1s[0]


def _sweep(theta: float, max_delay: float, total_free: Sequence[float],
           recovery_t1: float) -> tuple[int, list[tuple[int, int, int]]]:
    """Both runners' checks of the arguments they share, each a ConfigError
    naming it, then the sweep's one parse (``_schedules``)."""
    code3.LogicalStateSpec(theta)  # theta in [0, pi]
    if not is_lifetime(recovery_t1):
        raise ConfigError(f"recovery_t1 must be {LIFETIME_RULE}, got {recovery_t1!r}")
    return _schedules(total_free, max_delay)


def _run_rounds(total_free: Sequence[float], max_delay: float, sweep: tuple,
                reach: Callable[[int], tuple], round_for: Callable[[float], Callable],
                score: Callable[[list], Sequence[float]]) -> list[MultiQecPoint]:
    """The sweep loop of both runners. ``reach(k)`` returns the state after
    k full max_delay rounds and its cumulative post-selection weight, for
    every point's full-round count k; ``round_for(delay)`` returns one round
    as state -> (renormalized state, p_round), for a point's remainder.
    Every point's schedule and timing come from ``sweep``, the runner's one
    integer pass over ``total_free`` (``_sweep``), and ``score`` turns the
    final states of all points into their fidelities in one call; an empty
    sweep returns [] without calling it. A point whose total evolution time
    exceeds the largest float, or whose carried success probability exceeds
    1 + 1e-12, raises ValueError."""
    den, schedules = sweep
    finals, rows = [], []
    for total, (k, rest, evolution) in zip(total_free, schedules, strict=True):
        try:
            evolution_us = evolution / den
        except OverflowError:
            raise ValueError(
                f"the total evolution time at total_free {total} with "
                f"max_delay {max_delay} exceeds {sys.float_info.max!r} "
                f"us, the largest float") from None
        state, p_total = reach(k)
        if rest:
            state, p_round = round_for(rest / den)(state)
            p_total *= p_round
        if p_total > 1 + 1e-12:
            raise ValueError(
                f"success probability {p_total} exceeds 1 at total_free "
                f"{total} with max_delay {max_delay}")
        finals.append(state)
        rows.append((evolution_us, k + (rest > 0), p_total))
    if not rows:  # an empty sweep: no states to score
        return []
    return [MultiQecPoint(evolution, n, f, p)
            for (evolution, n, p), f in zip(rows, score(finals), strict=True)]


def run_multiqec(theta: float, max_delay: float, total_free: Sequence[float],
                 noise: NoiseParams, recovery_t1: float) -> list[MultiQecPoint]:
    """Analytic multi-round protocol: encode at angle ``theta`` (phi = 0),
    n x (idle noise + QEC cycle) per ``total_free`` in rounds of at most
    ``max_delay``, the recovery adapted to gamma(delay) at ``recovery_t1``;
    report F against the ideal logical state and the cumulative P.

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
    and k up to 3e21 (the tests hold them to 1e-12). The round is formed
    from delay / T1, not from gamma, so delays past 37 T1, where gamma
    rounds to 1, keep their digits: against 400 digits, F within 2.3e-16
    and P within 1.6e-15 relative at 504 points from 15 to 300 T1 (1 and 3
    rounds, theta 1.0 and pi/2, both variants; the tests check 37 to 300
    T1 at 1e-12). The per-round error is a few ulp of the round's
    rates, so k rounds carry a few ulp of the rate times the total time;
    nothing is amplified k-fold. P can underflow to 0.0 at large total
    times; F stays defined. Only delay / T1 = inf is full damping, where
    post-selection keeps no weight.
    """
    sweep = _sweep(theta, max_delay, total_free, recovery_t1)
    t1s, tphis = noise.lifetimes(3)
    start = code3.logical_state(theta)

    @functools.cache
    def round_for(delay: float) -> code3.PauliRound:
        return code3.PauliRound.of_delay(delay, t1s, tphis, recovery_t1)

    step = float(max_delay)

    def reach(k: int) -> tuple[tuple, float]:
        return round_for(step).advance(start, k) if k else (start, 1.0)

    def score(states: list) -> list[float]:
        check_density(np.array([[[p0, coh], [coh, p1]] for p0, p1, coh in states]))
        return [code3.logical_fidelity(start, x) for x in states]

    return _run_rounds(total_free, max_delay, sweep, reach,
                       lambda delay: round_for(delay).advance, score)


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
        raise ConfigError(f"{omega.size} frequencies for {n} qubits")
    for entry in couplings:
        if isinstance(entry, str) or not (isinstance(entry, (Sequence, np.ndarray))
                                          and len(entry) == 3):
            raise ConfigError(f"'couplings' entry {entry!r} must be an (a, b, g) triple")
        a, b, g = entry
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise ConfigError(f"'couplings' entry {[a, b, g]} must name two "
                              f"distinct qubits of the {n}-qubit register")
    quantum = n - classical
    if not 0 < quantum <= n:
        raise ConfigError(f"{classical} classical qubits in a {n}-qubit register")
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


def run_crosstalk_toy(noise: NoiseParams, g: float, omegas: Sequence[float],
                      t_final: float, cycles: int, probes: Sequence[str]
                      ) -> list[tuple[ToySeries, ToySeries]]:
    """Evolve (probe, spectator=|0>) over a positive ``t_final`` under the
    two-qubit ZZ toy model, H = w1/2 Z1 + w2/2 Z2 + g Z1 Z2 (``omegas`` =
    (w1, w2); rad/us) with relaxation and dephasing from ``noise``,
    recording the probe populations and its fidelity to the initial probe
    state, free and with CHaDD. Returns one (free, chadd) pair per entry of
    ``probes`` ("0", "1" or "+"), all from one set of checks, one generator
    and the propagators and pulses below, each built once.

    The free series is sampled 40 times at multiples of t_final / 40 by one
    propagator over all 40 durations (one closed-form call, no stepping).
    The CHaDD series chops t_final into ``cycles`` robust CHaDD cycles with
    instantaneous pulses between their intervals, sampled once per full
    cycle (the pulse product is identity up to phase there).
    """
    kets = {"0": np.array([1, 0], complex), "1": np.array([0, 1], complex),
            "+": np.array([1, 1], complex) / math.sqrt(2)}
    if any(probe not in kets for probe in probes):
        raise ConfigError(f"each probe must be one of {sorted(kets)}, "
                          f"got {list(probes)}")
    if not t_final > 0:
        raise ConfigError(f"t_final must be positive, got {t_final}")
    if cycles < 1:
        raise ConfigError(f"cycles must be at least 1, got {cycles}")
    gen = lindbladian(2, noise, ((0, 1, g),), omegas)  # config errors first
    for name, frequency in zip(("omega1", "omega2", "g"), (*omegas, g)):
        _require_phase(name, frequency, t_final)  # t_final bounds a CHaDD interval
    times = t_final / 40 * np.arange(41)
    along = gen.propagator(times[1:])
    span = t_final / (len(ROBUST_PULSES) * cycles)  # one CHaDD interval
    free, pulses = gen.propagator(span), _pulse_gathers((1, 2), 1)
    # span * 8 is the cycle: t_final / cycles rounds differently
    cycle_times = span * len(ROBUST_PULSES) * np.arange(cycles + 1)
    pairs = []
    for probe in map(kets.get, probes):
        psi = np.kron(probe, kets["0"])
        state = np.outer(psi, psi.conj())
        rows = [state, *propagate(along, state), state]
        for _ in range(cycles):
            rows.append(_chadd_cycle(free, rows[-1], pulses))
        stack = np.stack(rows)  # the free series' 41 states, then the CHaDD series'
        check_density(stack, normalized=False)
        reduced = np.trace(stack.reshape(-1, 2, 2, 2, 2), axis1=2, axis2=4)
        proj_probe = np.outer(probe, probe.conj())
        fid = np.real(np.trace(proj_probe @ reduced, axis1=1, axis2=2))
        pop0, pop1 = np.real(reduced[:, 0, 0]), np.real(reduced[:, 1, 1])
        pairs.append((ToySeries(times, pop0[:41], pop1[:41], fid[:41]),
                      ToySeries(cycle_times, pop0[41:], pop1[41:], fid[41:])))
    return pairs


# ---------------------------------------------------------------------------
# Multi-QEC with CHaDD-interleaved delays on a data + spectator register
# ---------------------------------------------------------------------------


def _colors(n: int, couplings: Sequence) -> tuple[int, ...]:
    """The CHaDD color of each of the n qubits: 1, 2, 1 along the data
    chain, then each spectator the color opposite its first coupled
    partner's, 1 if that partner is a later spectator or it has none. The
    couplings must be valid (``lindbladian`` checks them)."""
    colors = [1, 2, 1]
    for q in range(3, n):
        partner = next((a if b == q else b for a, b, _ in couplings
                        if q in (a, b)), n)
        colors.append(1 if partner >= q else 3 - colors[partner])
    return tuple(colors)


# The CHaDD runner walks the full rounds of its longest point once, plus
# one remainder round for each point that has one, at about 1.6 ms a round
# at 7 qubits (CHaDD off plus on), so that count is capped.
CHADD_ROUND_CAP = 2500


def run_multiqec_with_chadd(theta: float, max_delay: float,
                            total_free: Sequence[float], noise: NoiseParams,
                            recovery_t1: float, spectators: int, couplings: Sequence
                            ) -> tuple[list[MultiQecPoint], list[MultiQecPoint]]:
    """``run_multiqec``'s sweep, each delay Lindblad free evolution of the
    register of data qubits 0..2 and ``spectators`` (0 to 4) more, with
    static ZZ ``couplings`` (a, b, g rad/us) over it, plain and chopped into
    one robust CHaDD cycle with instantaneous pulses (colored by ``_colors``):
    returns (plain, chadd), both from one check (the phases over the plain
    delay, which bounds a CHaDD interval), one state, one generator and one
    kept recovery branch per distinct delay (``RecoveryMap.of_delay``). A
    walk over ``CHADD_ROUND_CAP`` rounds is a ConfigError before any round.

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
    once per series, keeping only the states at the round counts that points
    end on. A point's F is psi^dag sigma psi for the data's state sigma,
    the sum of the blocks over its trace, and every reported state is
    validated block by block in one ``check_density`` call: a
    block-diagonal matrix is Hermitian and PSD exactly when its blocks are.

    The two QEC ancillas stay implicit: syndrome conditioning and recovery
    act on the data qubits through ``code3.apply_cycle``, and the ancilla
    reset is an exact replacement, so only their timing matters.
    """
    if type(spectators) is not int or not 0 <= spectators <= 4:  # not a bool
        raise ConfigError(f"spectators must be an integer in [0, 4], got {spectators!r}")
    den, points = sweep = _sweep(theta, max_delay, total_free, recovery_t1)
    # the walk: the longest point's full rounds, then the remainder rounds
    needed = {full for full, _, _ in points}
    longest = max(needed, default=0)
    if (walked := longest + sum(rest > 0 for _, rest, _ in points)) > CHADD_ROUND_CAP:
        raise ConfigError(f"'total_free' over 'max_delay' {max_delay} needs "
                          f"{walked} rounds; at most {CHADD_ROUND_CAP}")
    n = 3 + spectators
    gen = lindbladian(n, noise, couplings, classical=spectators)  # config errors first
    # the longest free evolution: max_delay if any point has a full round,
    # else the longest remainder (shorter than max_delay)
    span = float(max_delay) if longest else max(
        (rest / den for _, rest, _ in points), default=0.0)
    for q in range(n):
        _require_phase(f"the summed |g| of the couplings on qubit {q}",
                       sum(abs(g) for a, b, g in couplings if q in (a, b)),
                       span)
    psi = code3.encode_ideal(code3.LogicalStateSpec(theta))
    m = 2**spectators
    pulses = _pulse_gathers(_colors(n, couplings), m)
    start = np.zeros((8, 8, m), dtype=complex)
    start[:, :, 0] = np.outer(psi, psi.conj())  # the spectators in |0...0>
    kept = functools.cache(
        lambda delay: code3.RecoveryMap.of_delay(delay, recovery_t1).superop())

    def score(states: list) -> list[float]:
        stack = np.stack(states)  # (points, 8, 8, m)
        check_density(stack.transpose(0, 3, 1, 2).reshape(-1, 8, 8),
                      normalized=False)
        # the data's reduced state: the sum over the spectator blocks
        return [float(np.real(psi.conj() @ (r / np.real(np.trace(r))) @ psi))
                for r in stack.sum(axis=-1)]

    def series(chadd: bool) -> list[MultiQecPoint]:
        @functools.cache
        def round_for(delay: float):
            free = gen.propagator(delay / len(ROBUST_PULSES) if chadd else delay)

            def one_round(rho: np.ndarray):
                rho = _chadd_cycle(free, rho, pulses) if chadd else propagate(free, rho)
                return code3.apply_cycle(kept(delay), rho)
            return one_round

        # walk the full rounds once, keeping the states that points end on
        rho, reached, p_total = start, {}, 1.0
        for k in range(longest + 1):
            if k:
                rho, p_round = round_for(float(max_delay))(rho)
                p_total *= p_round
            if k in needed:
                reached[k] = rho, p_total
        return _run_rounds(total_free, max_delay, sweep, reached.__getitem__,
                           round_for, score)

    return series(False), series(True)
