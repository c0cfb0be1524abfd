"""Multi-round QEC scheduling, CHaDD dynamical decoupling, and the
two-qubit ZZ-crosstalk Lindblad toy model.

Both multi-round runners share one sweep loop. It builds each distinct
delay's round once per call and shares the states after k full rounds
across sweep points. ``run_multiqec``'s round is a compiled 64x64 map
(``code3.cycle_superop``); ``run_multiqec_with_chadd``'s is Lindblad
evolution of the data + spectator register, optionally as one robust CHaDD
cycle, then ``code3.apply_recovery``.

Every Lindblad evolution here (that register, the two-qubit ZZ toy, finite
pulse windows) has a diagonal Z + ZZ Hamiltonian with per-qubit relaxation
and dephasing, for which exp(tL) is closed: a decay factor per entry of
rho times one 2x2 map per qubit on conserved coherence blocks
(``lindbladian``, ``Lindbladian.propagator``, ``propagate``). Its factors
are built once per distinct duration, and its cost does not grow with t.

A sweep point's schedule is the pair (full max_delay rounds, remainder)
from ``split_rounds``, and its total evolution time a closed form in that
pair (``total_evolution_time``); neither loops over rounds. The durations
(microseconds) are constants: encoding 0.548, recovery 3.072, ancilla
reset 2.72. The reset overlaps the following round's delay and only adds
time when that delay is shorter than the reset itself. Durations are exact
decimal fractions, so worked examples come out exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import code3
from .noise import NoiseParams, gamma_of_t, p_of_t
from .qcore import (
    I2,
    DensityMatrix,
    X,
    Z,
    basis_state,
    embed,
    fidelity,
    partial_trace,
    rx,
    tensor,
)


def _frac(x: float | str | Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(str(x))


# Durations (microseconds) of encoding (decoding mirrors it), one recovery
# and the ancilla reset between rounds.
T_ENCODE = Fraction("0.548")
T_RECOVERY = Fraction("3.072")
T_RESET = Fraction("2.72")


@dataclass(frozen=True)
class ProtocolConfig:
    logical: code3.LogicalStateSpec
    max_delay: float
    total_free: tuple[float, ...]  # sweep points, microseconds
    recovery_variant: str = "ideal"  # ideal | approximate | synthesized
    recovery_unitary: Optional[np.ndarray] = None  # for the synthesized variant

    def __post_init__(self):
        if self.max_delay <= 0:
            raise ValueError("max_delay must be positive")
        object.__setattr__(self, "total_free", tuple(self.total_free))
        if any(t < 0 for t in self.total_free):
            raise ValueError("total_free must be non-negative")
        if self.recovery_variant not in ("ideal", "approximate", "synthesized"):
            raise ValueError(f"unknown recovery variant {self.recovery_variant!r}")
        if self.recovery_variant == "synthesized" and self.recovery_unitary is None:
            raise ValueError("synthesized variant requires recovery_unitary")


def split_rounds(total_free: float, max_delay: float) -> tuple[int, Fraction]:
    """Greedy fill as (full max_delay rounds, remainder); a remainder of 0
    means no remainder round. Exact fractions, so
    full * max_delay + remainder == total_free."""
    if max_delay <= 0:
        raise ValueError("max_delay must be positive")
    total = _frac(total_free)
    if total < 0:
        raise ValueError("total_free must be non-negative")
    return divmod(total, _frac(max_delay))


def total_evolution_time(total_free: float, max_delay: float) -> Fraction:
    """Encode + per-round (delay + recovery) + mirrored decode, exactly.

    The ancilla reset before every round but the first overlaps that
    round's delay; if the delay is shorter than the reset, the shortfall
    is added.
    """
    full, rest = split_rounds(total_free, max_delay)
    rounds = full + (rest > 0)
    shortfall = max(T_RESET - _frac(max_delay), 0) * max(full - 1, 0)
    if full and rest:
        shortfall += max(T_RESET - rest, 0)
    return 2 * T_ENCODE + _frac(total_free) + rounds * T_RECOVERY + shortfall


@dataclass(frozen=True)
class MultiQecPoint:
    total_free_us: float
    total_evolution_us: float
    rounds: int
    fidelity: float
    success_probability: float
    variant: str
    chadd: bool


def _recovery_map(config: ProtocolConfig, gamma: float) -> code3.RecoveryMap:
    if config.recovery_variant == "ideal":
        return code3.RecoveryMap.ideal(gamma)
    if config.recovery_variant == "approximate":
        return code3.RecoveryMap.approximate()
    return code3.RecoveryMap.synthesized(config.recovery_unitary)


def recovery_t1(config: ProtocolConfig, noise: NoiseParams) -> float:
    """The T1 whose gamma(delay) the recovery is built from: data qubit 0's.

    The ideal recovery adapts to a single gamma. With T1 differing across
    the data qubits its result would depend on qubit order, so that case
    raises ValueError; the approximate and synthesized variants accept it.
    """
    t1s = [noise.t1_of(q) for q in range(3)]
    if config.recovery_variant == "ideal" and len(set(t1s)) > 1:
        raise ValueError(
            f"the ideal recovery adapts to one T1, but the data qubits have "
            f"t1 = {t1s}; use the approximate recovery for per-qubit T1")
    return t1s[0]


def _run_rounds(config: ProtocolConfig, rho0: np.ndarray,
                round_for: Callable[[float], Callable],
                fidelity_of: Callable[[np.ndarray], float],
                chadd: bool) -> list[MultiQecPoint]:
    """The sweep loop of both runners. ``round_for(delay)``, called once per
    distinct delay, returns the round as rho -> (renormalized rho, p_round).
    Post-selection only rescales, so the state after k full rounds and its
    cumulative weight are shared by every point; a point with no rounds
    keeps rho0 itself. ``fidelity_of`` scores a point's final state."""
    round_for = functools.cache(round_for)

    def advance(delay: float, rho: np.ndarray, p_total: float):
        rho, p_round = round_for(delay)(rho)
        return rho, p_total * p_round

    step = float(_frac(config.max_delay))  # a full round's delay
    prefixes = [(rho0, 1.0)]
    points = []
    for total_free in config.total_free:
        k, rest = split_rounds(total_free, config.max_delay)
        while len(prefixes) <= k:
            prefixes.append(advance(step, *prefixes[-1]))
        rho, p_total = prefixes[k]
        if rest:
            rho, p_total = advance(float(rest), rho, p_total)
        points.append(MultiQecPoint(
            total_free_us=total_free,
            total_evolution_us=float(
                total_evolution_time(total_free, config.max_delay)),
            rounds=k + (rest > 0),
            fidelity=fidelity_of(rho),
            success_probability=p_total,
            variant=config.recovery_variant,
            chadd=chadd,
        ))
    return points


def run_multiqec(config: ProtocolConfig, noise: NoiseParams) -> list[MultiQecPoint]:
    """Analytic multi-round protocol: encode, n x (idle noise + QEC cycle),
    report fidelity against the ideal logical state and the cumulative
    post-selection probability.

    Idle noise uses gamma(t) and p(t) over each delay; the recovery window
    itself is noiseless (gates are time-accounted but error-free), which
    keeps single-round runs exactly on the closed-form oracle. Each round
    is the compiled map of its delay, applied by ``code3.apply_cycle``.
    """
    t1 = recovery_t1(config, noise)
    target = code3.encode_ideal(config.logical)
    rho0 = target.to_density_matrix().data

    def round_for(delay: float):
        return functools.partial(code3.apply_cycle, code3.cycle_superop(
            [gamma_of_t(delay, noise.t1_of(q)) for q in range(3)],
            [p_of_t(delay, noise.tphi_of(q)) for q in range(3)],
            _recovery_map(config, gamma_of_t(delay, t1))))

    def fidelity_of(rho: np.ndarray) -> float:  # rho0 is the target itself
        return 1.0 if rho is rho0 else fidelity(DensityMatrix(rho), target)

    return _run_rounds(config, rho0, round_for, fidelity_of, chadd=False)


def bare_qubit_fidelity(t: float, t1: float) -> float:
    """|1>-prepared physical qubit reference: P(1) = exp(-t/T1)."""
    return math.exp(-t / t1)


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

_HADAMARD_2 = np.array([[1, 1], [1, -1]])
SIGN_MATRIX_4 = np.kron(_HADAMARD_2, _HADAMARD_2)

# Robust single-axis X-type pulse list for chromaticity 2: X on color 1,
# X on color 2, then the RX(-pi) counterparts twice, closed by plain X
# pulses again. One free interval precedes every pulse (eight equal
# intervals in total), which makes the toggling-frame sign sums over Z1,
# Z2 and Z1Z2 vanish exactly; with only the seven printed intervals they
# do not cancel.
ROBUST_PULSES = (("X", 1), ("X", 2), ("XT", 1), ("XT", 2),
                 ("XT", 1), ("XT", 2), ("X", 1), ("X", 2))
PLAIN_PULSES = (("X", 1), ("X", 2), ("X", 1), ("X", 2))


@dataclass(frozen=True)
class ChaddSequence:
    chromaticity: int
    sign_matrix: np.ndarray
    row_assignment: dict
    pulses: tuple
    tau: float

    @property
    def interval_count(self) -> int:
        return len(self.pulses)

    @property
    def cycle_time(self) -> float:
        return self.tau * self.interval_count

    def toggling_signs(self) -> np.ndarray:
        """Sign of (Z_color1, Z_color2, Z_color1*Z_color2) during each free
        interval; rows sum to zero over the cycle."""
        s1 = s2 = 1
        rows = []
        for kind, color in self.pulses:
            rows.append((s1, s2, s1 * s2))
            if color == 1:
                s1 = -s1
            else:
                s2 = -s2
        return np.array(rows).T


def chadd_sequence(chi: int, tau: float, robust: bool = True) -> ChaddSequence:
    """Single-axis X-type CHaDD for a two-colorable layout."""
    if chi != 2:
        raise ValueError(f"only chromaticity 2 is supported, got {chi}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    pulses = ROBUST_PULSES if robust else PLAIN_PULSES
    # the realized toggling signs of (Z_color1, Z_color2) trace rows 3 and 2
    # of the sign matrix (the robust cycle walks each row twice); both are
    # orthogonal to each other and to the all-ones row
    seq = ChaddSequence(
        chromaticity=2,
        sign_matrix=SIGN_MATRIX_4.copy(),
        row_assignment={1: 3, 2: 2},
        pulses=pulses,
        tau=tau,
    )
    signs = seq.toggling_signs()
    if np.any(signs.sum(axis=1) != 0):
        raise AssertionError(f"toggling-frame sums must vanish: {signs}")
    reps = len(pulses) // 4
    for color in (1, 2):
        row = np.tile(seq.sign_matrix[seq.row_assignment[color]], reps)
        if not np.array_equal(signs[color - 1], row):
            raise AssertionError(f"color {color} signs do not trace its row")
    return seq


def pulse_matrix(kind: str) -> np.ndarray:
    if kind == "X":
        return X
    if kind == "XT":  # RX(-pi) = iX, an X pulse up to phase
        return rx(-math.pi)
    raise ValueError(f"unknown pulse kind {kind!r}")


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
    """exp(t L) for one duration t: ``decay`` multiplies every entry of the
    (2,)*2n view of rho, then each ``factors`` entry (index of the
    a_j = b_j = 0 slice, of the a_j = b_j = 1 slice, e0, e1, cross) maps
    (rho0, rho1) to (e0 rho0 + cross rho1, e1 rho1); ``cross`` is None when
    qubit j does not relax."""

    decay: np.ndarray
    factors: tuple


@dataclass(frozen=True)
class Lindbladian:
    """A generator of the one form every evolution here has, in the terms of
    its closed-form propagator (see ``lindbladian``): ``rates`` is K on the
    (2,)*2n view of rho, and ``qubits`` lists (index of the a_j = b_j = 0
    slice, of the a_j = b_j = 1 slice, s_j, 1/T1_j) for each qubit whose
    slices move; s_j, the ZZ shift, broadcasts over a slice."""

    rates: np.ndarray
    qubits: tuple

    def propagator(self, t: float) -> Propagator:
        """exp(t L), its factors built once for the duration t."""
        factors = []
        for idx0, idx1, s, relax in self.qubits:
            e0 = np.exp(-2j * s * t)
            cross = None
            if relax:
                # relax * t * e0 * expm1(x) / x with x = (d1 - d0) t; the
                # form below cannot overflow, since |d1 - d0| >= relax
                diff = 4j * s - relax
                cross = relax * e0 * np.expm1(diff * t) / diff
            factors.append((idx0, idx1, e0, np.exp((2j * s - relax) * t), cross))
        return Propagator(np.exp(self.rates * t), tuple(factors))


def lindbladian(n_qubits: int, params: NoiseParams, couplings: Sequence = (),
                omega: Optional[Sequence[float]] = None) -> Lindbladian:
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
    """
    n = n_qubits
    params.require_qubits(n)
    omega = np.zeros(n) if omega is None else np.asarray(omega, dtype=float)
    if omega.shape != (n,):
        raise ValueError(f"{omega.size} frequencies for {n} qubits")
    for a, b, g in couplings:
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"coupling {(a, b, g)} must name two distinct "
                             f"qubits of the {n}-qubit register")
    relax = [1.0 / params.t1_of(q) for q in range(n)]
    dephase = [1.0 / params.tphi_of(q) for q in range(n)]
    rates = sum(_on_axes(-1j * omega[q] * _H_STEP - np.abs(_H_STEP)
                         * (relax[q] / 2 + dephase[q]), q, n + q, 2 * n)
                for q in range(n))
    qubits = []
    for j in range(n):
        s = 0.0  # over a slice's axes: the other qubits' a, then their b
        for a, b, g in couplings:
            if j in (a, b):
                other = b if a == j else a
                p = other - (other > j)
                s = s + g * _on_axes(_H_STEP, p, n - 1 + p, 2 * n - 2)
        if relax[j] or np.ndim(s):
            # the trailing Ellipsis keeps a view at n = 1
            idx = [(slice(None),) * j + (bit,) + (slice(None),) * (n - 1)
                   + (bit, Ellipsis) for bit in (0, 1)]
            qubits.append((idx[0], idx[1], s, relax[j]))
    return Lindbladian(rates, tuple(qubits))


def propagate(prop: Propagator, rho: np.ndarray) -> np.ndarray:
    """exp(t L) applied to rho, returned Hermitian."""
    out = rho.reshape(prop.decay.shape) * prop.decay
    for idx0, idx1, e0, e1, cross in prop.factors:
        lo, hi = out[idx0], out[idx1]  # views into out
        lo *= e0
        if cross is not None:
            lo += cross * hi
        hi *= e1
    out = out.reshape(rho.shape)
    return 0.5 * (out + out.conj().T)


@dataclass(frozen=True)
class CrosstalkModel:
    """Two-qubit ZZ toy model: H = w1/2 Z1 + w2/2 Z2 + g Z1 Z2 (angular
    frequencies, rad/us) with per-qubit relaxation and dephasing."""

    omega1: float = 0.0
    omega2: float = 0.0
    g: float = 0.05
    t1: float = math.inf
    tphi: float = math.inf
    pulse_duration: float = 0.0  # 0 means ideal instantaneous pulses

    def hamiltonian(self) -> np.ndarray:
        z1 = embed(Z, [0], 2)
        z2 = embed(Z, [1], 2)
        return 0.5 * self.omega1 * z1 + 0.5 * self.omega2 * z2 + self.g * z1 @ z2

    def lindbladian(self, drive: bool = True) -> Lindbladian:
        """The model's generator; without ``drive`` (a finite pulse window)
        only relaxation and dephasing act."""
        noise = NoiseParams(t1=self.t1, tphi=self.tphi)
        if not drive:
            return lindbladian(2, noise)
        return lindbladian(2, noise, ((0, 1, self.g),), (self.omega1, self.omega2))


def _color_matrix(colors: Sequence[int], color: int, kind: str,
                  n_qubits: int) -> np.ndarray:
    """The pulse ``kind`` on every qubit of ``color``, identity elsewhere."""
    if len(colors) != n_qubits:
        raise ValueError(f"{len(colors)} colors for {n_qubits} qubits")
    pulse = pulse_matrix(kind)
    return functools.reduce(np.kron, [pulse if c == color else I2 for c in colors])


def _pulse_unitaries(pulses: Sequence[tuple], colors: Sequence[int],
                     n_qubits: int) -> dict:
    """Register-sized unitary of each distinct (kind, color) pulse, built
    once for a run."""
    return {(kind, color): _color_matrix(colors, color, kind, n_qubits)
            for kind, color in set(pulses)}


def _chadd_cycle(free: Propagator, rho: np.ndarray, seq: ChaddSequence,
                 pulse_u: dict, window: Optional[Propagator] = None) -> np.ndarray:
    """One CHaDD cycle: each interval propagates by ``free`` (one tau),
    then applies its pulse; ``window`` follows each pulse when pulses take
    time."""
    for pulse in seq.pulses:
        rho = propagate(free, rho)
        u = pulse_u[pulse]
        rho = u @ rho @ u.conj().T
        if window is not None:
            rho = propagate(window, rho)
    return rho


def chadd_cycle_unitary(seq: ChaddSequence, h: np.ndarray,
                        colors: Sequence[int]) -> np.ndarray:
    """Closed-system propagator of one full cycle with ideal pulses."""
    from scipy.linalg import expm

    n = int(round(math.log2(h.shape[0])))
    free = expm(-1j * h * seq.tau)
    pulse_u = _pulse_unitaries(seq.pulses, colors, n)
    u = np.eye(h.shape[0], dtype=complex)
    for pulse in seq.pulses:
        u = pulse_u[pulse] @ (free @ u)
    return u


@dataclass(frozen=True)
class ToySeries:
    times: np.ndarray
    pop0: np.ndarray
    pop1: np.ndarray
    fidelity: np.ndarray


def run_crosstalk_toy(model: CrosstalkModel, probe_init: str,
                      chadd: Optional[ChaddSequence], t_final: float) -> ToySeries:
    """Evolve (probe, spectator=|0>) under the ZZ toy model, recording the
    probe populations and its fidelity to the initial probe state.

    With CHaDD the free evolution is chopped into the sequence's intervals
    with instantaneous pulses in between; samples are taken once per full
    cycle (the pulse product is identity up to phase there).
    """
    kets = {"0": np.array([1, 0], complex), "1": np.array([0, 1], complex),
            "+": np.array([1, 1], complex) / math.sqrt(2)}
    if probe_init not in kets:
        raise ValueError(f"probe_init must be one of {sorted(kets)}")
    probe = kets[probe_init]
    psi = np.kron(probe, kets["0"])
    state = np.outer(psi, psi.conj())
    gen = model.lindbladian()

    times = [0.0]
    rows = [state]
    if chadd is None:
        n_samples = 40
        dt_sample = t_final / n_samples
        step = gen.propagator(dt_sample)
        for i in range(n_samples):
            state = propagate(step, state)
            times.append((i + 1) * dt_sample)
            rows.append(state)
    else:
        cycle = chadd.cycle_time
        n_cycles = int(round(t_final / cycle))
        if abs(n_cycles * cycle - t_final) > 1e-9:
            raise ValueError(
                f"t_final {t_final} is not a whole number of CHaDD cycles "
                f"(cycle time {cycle})")
        # finite pulse window: dissipators act, drive ignored
        window = model.lindbladian(drive=False).propagator(model.pulse_duration) \
            if model.pulse_duration > 0 else None
        free = gen.propagator(chadd.tau)
        pulse_u = _pulse_unitaries(chadd.pulses, (1, 2), 2)
        for i in range(n_cycles):
            state = _chadd_cycle(free, state, chadd, pulse_u, window)
            times.append((i + 1) * cycle)
            rows.append(state)
    pop0, pop1, fid = [], [], []
    proj_probe = np.outer(probe, probe.conj())
    for r in rows:
        reduced = partial_trace(DensityMatrix(r, normalized=False), [0]).data
        pop0.append(float(np.real(reduced[0, 0])))
        pop1.append(float(np.real(reduced[1, 1])))
        fid.append(float(np.real(np.trace(proj_probe @ reduced))))
    return ToySeries(np.asarray(times), np.asarray(pop0), np.asarray(pop1),
                     np.asarray(fid))


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

    The two QEC ancillas stay implicit: syndrome conditioning and recovery
    act on the data qubits through ``code3.apply_recovery``, and the
    ancilla reset is an exact replacement, so only their timing matters.
    """
    n = layout.n_qubits
    if n > 7:
        raise ValueError(f"register of {n} qubits exceeds the 7-qubit cap")
    t1 = recovery_t1(config, noise)
    target3 = code3.encode_ideal(config.logical)
    gen = lindbladian(n, noise, layout.couplings)
    pulse_u = _pulse_unitaries(ROBUST_PULSES, layout.resolved_colors(), n)
    rho3 = target3.to_density_matrix()
    rho0 = tensor(rho3, basis_state(n - 3, 0).to_density_matrix()).data \
        if n > 3 else rho3.data

    def round_for(delay: float):
        seq = chadd_sequence(2, delay / len(ROBUST_PULSES)) if chadd else None
        free = gen.propagator(delay if seq is None else seq.tau)
        rmap = _recovery_map(config, gamma_of_t(delay, t1))

        def one_round(rho: np.ndarray):
            rho = _chadd_cycle(free, rho, seq, pulse_u) if seq is not None \
                else propagate(free, rho)
            state, p_round = code3.apply_recovery(
                DensityMatrix(rho, normalized=False), rmap)
            return state.data, p_round
        return one_round

    def fidelity_of(rho: np.ndarray) -> float:
        reduced = partial_trace(DensityMatrix(rho, normalized=False), [0, 1, 2])
        return fidelity(reduced.normalize(), target3)

    return _run_rounds(config, rho0, round_for, fidelity_of, chadd)
