"""The 3-qubit amplitude-damping code.

Codewords (with qubit 0 as the most significant bit):

    |0_L> = (|100> + |010> + |001>) / sqrt(3)      (the W state)
    |1_L> = |111>

Both carry odd excitation parity, so a single Z1 Z2 Z3 parity measurement
separates the no-damping branch (ancilla 1) from the single-damping branch
(ancilla 0). Recovery is a trace-non-increasing two-operator map applied by
block encoding with one extra ancilla and post-selecting on its 0 outcome,
which makes the scheme probabilistic.

``noise_superop`` compiles per-qubit damping and dephasing of the data into
a 64x64 map on the row-major vec of rho, sum_K K kron conj(K) (vec(A rho B)
= (A kron B^T) vec(rho)). ``cycle_superop`` appends the kept
recovery branch to give one round, which ``qec_cycle`` and
``protocol.run_multiqec`` apply. The measured estimator applies the same
noise map, then its post-noise circuit as one 32x8 isometry.
``apply_recovery`` serves the larger data + spectator registers of CHaDD.

The success probability comes in two closed-form variants that disagree
in one sign; see ``success_probability_minus_form`` /
``oracle_success_probability`` and ``match_success_form``. Branch-trace
simulation arbitrates (the "+" variant wins).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import noise as noise_mod
from .qcore import (
    DensityMatrix,
    Operator,
    PureState,
    apply_local,
    fidelity,
    measure_computational,
    ry,
    rz,
)


@dataclass(frozen=True)
class LogicalStateSpec:
    """Bloch angles of the protected logical state."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta {self.theta} outside [0, pi]")
        if not 0.0 <= self.phi < 2 * math.pi:
            raise ValueError(f"phi {self.phi} outside [0, 2*pi)")


def codeword(which: int) -> PureState:
    """Logical basis state: 0 -> the W state, 1 -> |111>."""
    amps = np.zeros(8, dtype=complex)
    if which == 0:
        amps[[4, 2, 1]] = 1.0 / math.sqrt(3)
    elif which == 1:
        amps[7] = 1.0
    else:
        raise ValueError(f"codeword index must be 0 or 1, got {which}")
    return PureState(amps)


def encode_ideal(spec: LogicalStateSpec) -> PureState:
    """cos(theta/2)|0_L> + e^{i phi} sin(theta/2)|1_L>."""
    c = math.cos(spec.theta / 2)
    s = math.sin(spec.theta / 2)
    amps = c * codeword(0).amplitudes + s * np.exp(1j * spec.phi) * codeword(1).amplitudes
    return PureState(amps)


def prep_unitary(spec: LogicalStateSpec) -> np.ndarray:
    """Single-qubit G with G|0> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return rz(spec.phi) @ ry(spec.theta)


@functools.cache
def encoder_unitary() -> Operator:
    """8x8 unitary mapping |000> -> |0_L> and |100> -> |1_L>.

    Only those two columns are contractually fixed; the remaining six are a
    deterministic Gram-Schmidt completion over the standard basis, built once.
    """
    cols = np.zeros((8, 8), dtype=complex)
    cols[:, 0] = codeword(0).amplitudes
    cols[:, 4] = codeword(1).amplitudes
    filled = [0, 4]
    free = [c for c in range(8) if c not in filled]
    basis_iter = iter(np.eye(8, dtype=complex).T)
    for slot in free:
        while True:
            v = next(basis_iter).copy()
            for c in filled + [s for s in free if s < slot]:
                v -= cols[:, c] * (cols[:, c].conj() @ v)
            nrm = np.linalg.norm(v)
            if nrm > 1e-8:
                cols[:, slot] = v / nrm
                break
    return Operator(cols, kind="unitary")


# ---------------------------------------------------------------------------
# Recovery map
# ---------------------------------------------------------------------------


def recovery_operators(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The two noise-adapted recovery operators.

    R0 = (1-gamma)|0_L><0_L| + |1_L><1_L|           (no-damping branch)
    R1 = (1-gamma)|0_L><000|
         + |1_L>(<011| + <101| + <110|)/sqrt(3)     (single-damping branch)
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma {gamma} outside [0, 1]")
    k0 = codeword(0).amplitudes
    k1 = codeword(1).amplitudes
    r0 = (1 - gamma) * np.outer(k0, k0.conj()) + np.outer(k1, k1.conj())
    e000 = np.zeros(8, dtype=complex)
    e000[0] = 1.0
    sym2 = np.zeros(8, dtype=complex)
    sym2[[3, 5, 6]] = 1.0 / math.sqrt(3)  # (|011> + |101> + |110>)/sqrt(3)
    r1 = (1 - gamma) * np.outer(k0, e000.conj()) + np.outer(k1, sym2.conj())
    return r0, r1


@dataclass(frozen=True)
class RecoveryMap:
    """Recovery variant: gamma-adapted analytic, gamma=0 approximate, or a
    block-encoded circuit unitary produced by the synthesis module."""

    variant: str  # ideal | approximate | synthesized
    gamma: float = 0.0
    unitary: Optional[np.ndarray] = None  # 5-qubit combined recovery (synthesized)

    @classmethod
    def ideal(cls, gamma: float) -> "RecoveryMap":
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma {gamma} outside [0, 1]")
        return cls("ideal", gamma=gamma)

    @classmethod
    def approximate(cls) -> "RecoveryMap":
        return cls("approximate")

    @classmethod
    def synthesized(cls, unitary: np.ndarray) -> "RecoveryMap":
        u = np.asarray(unitary, dtype=complex)
        if u.shape != (32, 32):
            raise ValueError("synthesized recovery must be a 5-qubit unitary")
        return cls("synthesized", unitary=u)

    def operators(self) -> tuple[np.ndarray, np.ndarray]:
        """The (no-damping, damping) branch operators; the ideal variant is
        adapted to the map's own gamma."""
        if self.variant == "ideal":
            return recovery_operators(self.gamma)
        if self.variant == "approximate":
            return recovery_operators(0.0)
        raise ValueError("synthesized maps carry a circuit unitary, not operators")

    def kraus(self) -> tuple[np.ndarray, np.ndarray]:
        """The post-selected recovery as two Kraus operators on the data.

        Parity extraction sets a1 to the excitation parity, the recovery
        acts, and post-selection keeps a2 = 0 with a1 traced out. For the
        analytic variants that is (R0 P_odd, R1 P_even). For a circuit
        unitary W on (q0, q1, q2, a1, a2), whose index is 4 * data
        + 2 * a1 + a2, the a1 = b outcome gives
        K_b = W[2b::4, 0::4] P_even + W[2b::4, 2::4] P_odd.
        """
        p_odd, p_even = parity_projectors()
        if self.variant == "synthesized":
            w = self.unitary
            return tuple(w[2 * b::4, 0::4] @ p_even + w[2 * b::4, 2::4] @ p_odd
                         for b in (0, 1))
        r0, r1 = self.operators()
        return r0 @ p_odd, r1 @ p_even


def parity_projectors() -> tuple[np.ndarray, np.ndarray]:
    """(P_odd, P_even) over the 3-qubit computational basis."""
    diag = np.array([bin(i).count("1") % 2 for i in range(8)])
    p_odd = np.diag(diag).astype(complex)
    return p_odd, np.eye(8) - p_odd


def apply_recovery(rho: DensityMatrix,
                   rmap: RecoveryMap) -> tuple[DensityMatrix, float]:
    """Post-selected recovery on data qubits 0..2 of a register of 3 or
    more qubits; the other qubits are untouched.

    Returns the renormalized success-branch state and the success
    probability, the kept weight relative to rho's trace.
    """
    if rho.qubit_count < 3:
        raise ValueError(f"recovery needs 3 data qubits, got {rho.qubit_count}")
    kept = apply_local(rho, rmap.kraus(), [0, 1, 2], normalized=False)
    weight = kept.trace
    if weight <= 0:
        raise ValueError("post-selection removed all weight")
    return DensityMatrix(kept.data / weight), weight / rho.trace


def _superop(kraus) -> np.ndarray:
    """sum_K K kron conj(K): the map rho -> sum_K K rho K^dag on the
    row-major vec of rho, since vec(A rho B) = (A kron B^T) vec(rho)."""
    k = np.asarray(kraus)
    dim = k.shape[1]
    return np.einsum("kab,kcd->acbd", k, k.conj()).reshape(dim * dim, dim * dim)


def noise_superop(gammas: float | Sequence[float],
                  ps: float | Sequence[float]) -> np.ndarray:
    """AD(gamma) then dephasing(p) on each data qubit as a 64x64 map; the
    gammas and ps are shared scalars or one value per data qubit, and a p
    outside [0, 0.5] raises."""
    per_qubit = []
    for g, p in zip(np.broadcast_to(gammas, 3), np.broadcast_to(ps, 3)):
        ops = noise_mod.amplitude_damping(float(g)).matrices()
        if p != 0:
            ops = [d @ a for d in noise_mod.dephasing(float(p)).matrices()
                   for a in ops]
        per_qubit.append(_superop(ops).reshape(2, 2, 2, 2))  # (r, c, r', c')
    # a product channel's map is the tensor product of the per-qubit maps,
    # regrouped from (r0 c0 r1 c1 r2 c2) to the register's (r0 r1 r2 c0 c1 c2)
    noise = np.einsum("aAbB,cCdD,eEfF->aceACEbdfBDF", *per_qubit)
    return noise.reshape(64, 64)


def cycle_superop(gammas: float | Sequence[float], ps: float | Sequence[float],
                  rmap: RecoveryMap) -> np.ndarray:
    """One round on the 3 data qubits as a 64x64 superoperator: the
    :func:`noise_superop` map, then the kept branch of ``rmap``. The map is
    trace-non-increasing; the trace it removes is the post-selection loss.
    """
    return _superop(rmap.kraus()) @ noise_superop(gammas, ps)


def apply_cycle(superop: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """A compiled round applied to the 8x8 matrix rho.

    Returns the kept state renormalized to unit trace and its weight
    relative to rho's trace.
    """
    out = (superop @ rho.ravel()).reshape(rho.shape)
    weight = float(np.real(np.trace(out)))
    if weight <= 0:
        raise ValueError("post-selection removed all weight")
    return out / weight, weight / float(np.real(np.trace(rho)))


@dataclass(frozen=True)
class QecOutcome:
    conditional_state: DensityMatrix
    success_probability: float
    fidelity: float


def qec_cycle(
    state: DensityMatrix | PureState,
    gamma: float,
    p: float,
    rmap: RecoveryMap,
    target: Optional[PureState] = None,
) -> QecOutcome:
    """One full cycle: noise, syndrome extraction, post-selected recovery,
    applied as the compiled map of :func:`cycle_superop`.

    Ancillas are handled exactly through :meth:`RecoveryMap.kraus`: the
    syndrome ancilla selects the branch operator and the recovery ancilla
    outcome 0 keeps its success branch. The returned success probability
    is the combined weight of both syndrome branches after post-selection.
    """
    if isinstance(state, PureState):
        if target is None:
            target = state
        rho = state.to_density_matrix()
    else:
        rho = state
    if target is None:
        raise ValueError("a fidelity target is required for mixed-state input")
    if rho.qubit_count != 3:
        raise ValueError("qec_cycle operates on the 3-qubit data register")
    kept, p_succ = apply_cycle(cycle_superop(gamma, p, rmap), rho.data)
    sigma = DensityMatrix(kept)
    return QecOutcome(sigma, p_succ, fidelity(sigma, target))


# ---------------------------------------------------------------------------
# Exact block-encoded recovery (used by the measured-circuit estimator)
# ---------------------------------------------------------------------------


def block_unitary(r: np.ndarray) -> np.ndarray:
    """Embed a trace-non-increasing operator as the ancilla-0 block of a
    unitary on (ancilla, data): W = [[R, S'], [S, -R^dag]] with
    S = sqrt(I - R^dag R) and S' = sqrt(I - R R^dag).

    Both roots come from one SVD R = U diag(s) V^dag, as V c V^dag and
    U c U^dag with c = sqrt(1 - s^2). Separate eigendecompositions would put
    the sqrt of rounding noise (about 1e-8) on directions where s = 1, where
    it need not cancel between S and S'.
    """
    r = np.asarray(r, dtype=complex)
    dim = r.shape[0]
    u, sv, vh = np.linalg.svd(r)
    c = np.sqrt(np.clip(1.0 - sv**2, 0.0, None))
    s_in = (vh.conj().T * c) @ vh
    s_out = (u * c) @ u.conj().T
    w = np.block([[r, s_out], [s_in, -r.conj().T]])
    dev = np.max(np.abs(w.conj().T @ w - np.eye(2 * dim)))
    if dev > 1e-9:
        raise ValueError(f"block completion failed to be unitary: deviation {dev}")
    return w


def combined_recovery_unitary(gamma: float,
                              rmap: Optional[RecoveryMap] = None) -> np.ndarray:
    """5-qubit unitary applying the branch recovery conditioned on a1.

    a1 = 1 selects the no-damping operator, a1 = 0 the single-damping one;
    a2 is the block-encoding ancilla whose 0 outcome flags success.
    """
    if rmap is None:
        rmap = RecoveryMap.ideal(gamma)
    r0, r1 = rmap.operators()
    u = np.zeros((8, 2, 2, 8, 2, 2), dtype=complex)  # (d, a1, a2, d', a1', a2')
    for a1, r in ((1, r0), (0, r1)):
        w = block_unitary(r).reshape(2, 8, 2, 8)  # on (a2, data)
        u[:, a1, :, :, a1, :] = w.transpose(1, 0, 3, 2)
    return u.reshape(32, 32)


def measured_circuit_distribution(
    spec: LogicalStateSpec,
    gamma: float,
    p: float,
    rmap: Optional[RecoveryMap] = None,
    encoder: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Outcome distribution of the full measured estimator circuit.

    The circuit runs G, the encoder, the noise channel, syndrome
    extraction, the block-encoded recovery W, then the inverted encoder and
    G^dag, and measures (q0, q1, q2, a2). The all-zero probability
    conditioned on a2 = 0 equals the post-selected state fidelity.

    Compiled form: :func:`noise_superop` acts on the encoded data state
    rho = En (G|0> x |00>). The ancillas are still |00> and parity
    extraction sends |d>|00> to |d, parity(d), 0>, so the rest is the
    isometry V0 = ((G^dag En^dag) x I4) W[:, 4d + 2 parity(d)] and the
    measured 5-qubit state is V0 rho V0^dag.
    """
    if rmap is None:
        rmap = RecoveryMap.ideal(gamma)
    g = np.kron(prep_unitary(spec), np.eye(4))  # G on q0 of the data
    en = encoder_unitary().data if encoder is None else np.asarray(encoder, complex)
    psi = en @ g[:, 0]
    rho = (noise_superop(gamma, p) @ np.outer(psi, psi.conj()).ravel()).reshape(8, 8)
    w5 = (rmap.unitary if rmap.variant == "synthesized"
          else combined_recovery_unitary(gamma, rmap))
    cols = [4 * d + 2 * (bin(d).count("1") % 2) for d in range(8)]  # |d, parity(d), 0>
    v0 = np.kron(g.conj().T @ en.conj().T, np.eye(4)) @ w5[:, cols]
    return measure_computational(DensityMatrix(v0 @ rho @ v0.conj().T), [0, 1, 2, 4])


def fidelity_from_distribution(probs: np.ndarray) -> tuple[float, float]:
    """(conditional all-zero probability, success probability) of the
    measured estimator; the a2 success bit is the least significant."""
    probs = np.asarray(probs, dtype=float)
    success = probs[0::2].sum()  # a2 = 0
    if success <= 0:
        raise ValueError("post-selection removed all weight")
    return float(probs[0] / success), float(success)


# ---------------------------------------------------------------------------
# Closed-form oracles
# ---------------------------------------------------------------------------


def oracle_fidelity_ad(theta: float, gamma: float) -> float:
    """Post-selected state fidelity under pure damping with the adapted
    recovery: (1 + g^2 s^2 c^2) / (1 + g^2 s^2), s = sin(theta/2)."""
    return oracle_fidelity_multiround(theta, [gamma])


def oracle_fidelity_multiround(theta: float, gammas: Sequence[float]) -> float:
    """Post-selected fidelity after rounds of pure damping gammas[i], each
    followed by the recovery adapted to that round's gamma:
    (1 + G s^2 c^2) / (1 + G s^2) with G = sum_i gammas[i]^2. No rounds
    gives 1."""
    big_g = sum(g * g for g in gammas)
    s2 = math.sin(theta / 2) ** 2
    c2 = math.cos(theta / 2) ** 2
    return (1 + big_g * s2 * c2) / (1 + big_g * s2)


def oracle_worst_case_fidelity(gamma: float) -> float:
    """Minimum over logical states, attained at theta = pi."""
    return 1.0 / (1.0 + gamma**2)


def oracle_success_probability(theta: float, gamma: float, p: float = 0.0) -> float:
    """Success probability, the "+"-sign closed form simulation confirms:
    (1-g)^2 (1 + g^2 sin^2(t/2) + (8/3) p (p-1)(1-g) cos^2(t/2))."""
    s2 = math.sin(theta / 2) ** 2
    c2 = math.cos(theta / 2) ** 2
    return (1 - gamma) ** 2 * (
        1 + gamma**2 * s2 + (8.0 / 3.0) * p * (p - 1) * (1 - gamma) * c2
    )


def oracle_success_multiround(theta: float, gammas: Sequence[float]) -> float:
    """Success probability after rounds of pure damping gammas[i], each
    with the recovery adapted to its gamma: prod_i (1 - gammas[i])^2
    (1 + G s^2), G = sum_i gammas[i]^2, s = sin(theta/2)."""
    big_g = sum(g * g for g in gammas)
    return math.prod((1 - g) ** 2 for g in gammas) \
        * (1 + big_g * math.sin(theta / 2) ** 2)


def success_probability_minus_form(theta: float, gamma: float) -> float:
    """The alternative printed form (1-g)^2 (1 - g^2 sin^2(theta/2)).

    Disagrees with the "+" form in the sign of the g^2 term; kept so
    callers can report which variant the simulation matches.
    """
    s2 = math.sin(theta / 2) ** 2
    return (1 - gamma) ** 2 * (1 - gamma**2 * s2)


def success_probability_zero_logical(gamma: float, p: float) -> float:
    """Lower bound over logical states (theta = 0)."""
    return (1 - gamma) ** 2 * (1 + (8 * p / 3.0) * (gamma + p - 1 - gamma * p))


def match_success_form() -> str:
    """Report which printed success-probability form branch-trace
    simulation reproduces within 1e-10: 'plus', 'minus', or 'neither'."""
    thetas = np.linspace(0.0, math.pi, 5)
    gammas = np.linspace(0.0, 0.3, 5)
    dev_app = dev_main = 0.0
    for theta in thetas:
        for g in gammas:
            out = qec_cycle(encode_ideal(LogicalStateSpec(theta)), g, 0.0,
                            RecoveryMap.ideal(g))
            dev_app = max(dev_app, abs(out.success_probability
                                       - oracle_success_probability(theta, g, 0.0)))
            dev_main = max(dev_main, abs(out.success_probability
                                         - success_probability_minus_form(theta, g)))
    if dev_app < 1e-10:
        return "plus"
    if dev_main < 1e-10:
        return "minus"
    return "neither"


# Both tables are the second-order Taylor coefficients, in a common scale of
# (gamma, p), of the post-selected fidelity of the cycle qec_cycle runs:
# damping gamma then dephasing p on each qubit, the parity split, the
# variant's recovery_operators, and post-selection. They were derived
# symbolically (sympy) from that cycle; neither variant has a term linear
# in gamma. The ideal gamma^2 term is also the expansion of
# oracle_fidelity_ad: with s = sin(theta/2), c = cos(theta/2),
# (1 + g^2 s^2 c^2) / (1 + g^2 s^2) = 1 - g^2 s^4 + O(g^4).
_SERIES_COEFFS = {
    # variant -> (p, p^2, p*g, g^2) coefficient functions of theta
    "ideal": (
        lambda th: -(4.0 / 3.0) * math.sin(th) ** 2,
        lambda th: -(4.0 / 9.0) * math.sin(th) ** 2 * (4 * math.cos(th) + 1),
        lambda th: -(2.0 / 3.0) * math.sin(th) ** 2,
        lambda th: -math.sin(th / 2) ** 4,
    ),
    "approximate": (
        lambda th: -(4.0 / 3.0) * math.sin(th) ** 2,
        lambda th: -(4.0 / 9.0) * math.sin(th) ** 2 * (4 * math.cos(th) + 1),
        lambda th: (4.0 / 3.0) * math.cos(th) * math.sin(th) ** 2,
        lambda th: 0.5 * (math.cos(th) - 1),
    ),
}


def _evaluate_series(coeffs, theta: float, gamma: float, p: float) -> float:
    cp, cpp, cpg, cgg = coeffs
    return 1.0 + cp(theta) * p + cpp(theta) * p**2 + cpg(theta) * p * gamma \
        + cgg(theta) * gamma**2


def oracle_fidelity_series(theta: float, gamma: float, p: float,
                           variant: str = "ideal") -> float:
    """Truncated small-(gamma, p) fidelity expansion for either recovery.

    Valid in the small-noise regime only; the caller owns regime validity.
    """
    if variant not in _SERIES_COEFFS:
        raise ValueError(f"variant must be 'ideal' or 'approximate', got {variant!r}")
    return _evaluate_series(_SERIES_COEFFS[variant], theta, gamma, p)


# The paper's printed expansion for the gamma-adapted recovery: the p and
# p^2 terms are right, the p*gamma and gamma^2 terms are misprinted.
_PRINTED_IDEAL_COEFFS = _SERIES_COEFFS["ideal"][:2] + (
    lambda th: (1.0 / 3.0) * (2 * math.cos(th) - 1) * math.sin(th) ** 2,
    lambda th: (1.0 / 8.0) * (3 * math.cos(th) - 5) * math.sin(th / 2) ** 2,
)


def oracle_fidelity_series_printed(theta: float, gamma: float, p: float) -> float:
    """The paper's printed small-(gamma, p) expansion for the adapted recovery.

    Its p*gamma coefficient (1/3)(2 cos(theta) - 1) sin^2(theta) and its
    gamma^2 coefficient (1/8)(3 cos(theta) - 5) sin^2(theta/2) are
    misprinted; the exact ones, used by oracle_fidelity_series, are
    -(2/3) sin^2(theta) and -sin^4(theta/2). The two agree only at
    theta in {0, pi}. Kept so that the misprint stays pinned by a test.
    """
    return _evaluate_series(_PRINTED_IDEAL_COEFFS, theta, gamma, p)


def oracle_fidelity_series_time(theta: float, t: float, t1: float, t2: float,
                                variant: str = "ideal") -> float:
    """The same expansions re-parameterized in (t, T1, T2).

    Substitutes gamma = 1 - exp(-t/T1) = t/T1 + O(t^2) and
    p = (1 - exp(-r t))/2 = r t/2 - r^2 t^2/4 + O(t^3), with
    r = 1/Tphi = 1/T2 - 1/(2 T1), and keeps the terms through t^2; no
    term is linear in gamma, so its t^2 part drops out.
    """
    if variant not in _SERIES_COEFFS:
        raise ValueError(f"variant must be 'ideal' or 'approximate', got {variant!r}")
    cp, cpp, cpg, cgg = (c(theta) for c in _SERIES_COEFFS[variant])
    r = 1 / t2 - 1 / (2 * t1)
    p1, p2, g1 = r / 2, -r * r / 4, 1 / t1
    quad = cp * p2 + cpp * p1**2 + cpg * p1 * g1 + cgg * g1**2
    return 1.0 + cp * p1 * t + quad * t**2


def oracle_fidelity_plus_state(gamma: float, p: float) -> float:
    """Special case |+_L>, |-_L> under the adapted recovery: the ideal
    series at theta = pi/2, 1 - (4 + 2 g) p / 3 - 4 p^2 / 9 - g^2 / 4."""
    return 1.0 - (4 + 2 * gamma) * p / 3.0 - 4 * p**2 / 9.0 - gamma**2 / 4.0
