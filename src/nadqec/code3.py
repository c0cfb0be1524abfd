"""The 3-qubit amplitude-damping code.

Codewords (with qubit 0 as the most significant bit):

    |0_L> = (|100> + |010> + |001>) / sqrt(3)      (the W state)
    |1_L> = |111>

Both carry odd excitation parity, so a single Z1 Z2 Z3 parity measurement
separates the no-damping branch (ancilla 1) from the single-damping branch
(ancilla 0). Recovery is a trace-non-increasing two-operator map applied by
block encoding with one extra ancilla and post-selecting on its 0 outcome,
which makes the scheme probabilistic.

States are plain arrays: ``codeword`` and ``encode_ideal`` return
read-only 8-vectors, and density matrices are 8x8 (or register-sized)
arrays validated by ``qcore.check_density``.

The recovery has one form, ``RecoveryMap``: the 8 columns of its 5-qubit
block encoding W on (q0, q1, q2, a1, a2) that syndrome extraction feeds,
in closed form for the analytic recoveries and sliced from the circuit
unitary for a synthesized one. Their a2 = 0 rows are the kept branch
(``RecoveryMap.kraus``), their a2 = 1 rows the failure branch.

``noise_superop`` is the package's noise model: per-qubit damping then
dephasing of the data, written in closed form as a 64x64 map on the
row-major vec of rho. ``RecoveryMap.superop`` is the kept recovery branch
in the same form, sum_K K kron conj(K) (vec(A rho B) = (A kron B^T)
vec(rho)). A round is the noise map, then that branch applied by
``apply_cycle`` to the data's 8x8 rho or to a stack of 8x8 data blocks,
one per classical-spectator bit string, as one (64, m) product, so
``qec_cycle`` (one round on an encoded 8-vector, which no CLI kind runs)
and the data + spectator registers of ``protocol.run_multiqec_with_chadd``
share it. For the analytic recoveries a round that starts in the code
space ends there, so ``logical_round`` restricts it exactly to a 4x4 map
on the 2x2 logical state, which ``logical_outcomes`` applies to a batch of
encoded states (the ``oracle-check`` kind).
``PauliRound`` is that round in closed form, per-qubit noise included, with
powers in closed form too, built from one idle delay by
``PauliRound.of_delay``: ``protocol.run_multiqec`` and the gain model run
on it and build no 64x64 map, and ``oracle-check`` and the tests pin it,
built the same way, to ``logical_round``. The measured estimator applies
the same noise map, then its post-noise circuit as one 32x8 isometry built
from the same 8 columns (``RecoveryMap.columns``).

The success probability comes in two closed-form variants that disagree
in one sign; see ``success_probability_minus_form`` /
``oracle_success_probability``. The simulated logical round arbitrates
(the "+" variant wins; ``oracle-check`` reports it through ``success_form``).
Those forms and ``oracle_fidelity_ad`` are the closed-form oracles that
``oracle-check`` reads; the multi-round and series oracles the tests
compare against are in ``tests/oracle_reference.py``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .qcore import TOL_ARITH, ConfigError, check_density, is_real, require


@dataclass(frozen=True)
class LogicalStateSpec:
    """Bloch angles of the protected logical state."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        require("theta", self.theta)
        if not (is_real(self.phi) and 0.0 <= self.phi < 2 * math.pi):
            raise ConfigError(f"'phi' must be in [0, 2 pi), got {self.phi!r}")


# The encoder En, one read-only constant: |000> -> |0_L> and |100> -> |1_L>
# (columns 0 and 4), completed by vectors of definite excitation parity:
# |000>, |011>, |101> and |110> on columns 1, 2, 5 and 6, and on columns 3
# and 7 the two single-excitation vectors orthogonal to |0_L>. Rows index
# |q0 q1 q2>, q0 most significant. synth's recovery factors are this basis
# too: U is En with q0 flipped on its input, V1 is En with its rows reversed.
_S2, _S3, _S6 = (1 / math.sqrt(k) for k in (2, 3, 6))
_ENCODER = np.array([
    # 0_L  000  011  odd        1_L  101  110  odd
    [0,    1,   0,   0,         0,   0,   0,   0],     # |000>
    [_S3,  0,   0,   -2 * _S6,  0,   0,   0,   0],     # |001>
    [_S3,  0,   0,   _S6,       0,   0,   0,   -_S2],  # |010>
    [0,    0,   1,   0,         0,   0,   0,   0],     # |011>
    [_S3,  0,   0,   _S6,       0,   0,   0,   _S2],   # |100>
    [0,    0,   0,   0,         0,   1,   0,   0],     # |101>
    [0,    0,   0,   0,         0,   0,   1,   0],     # |110>
    [0,    0,   0,   0,         1,   0,   0,   0],     # |111>
], dtype=complex)
_ENCODER.setflags(write=False)
_CODE = _ENCODER[:, [0, 4]]  # V = [|0_L> |1_L>] (8x2), the code space
_CODE.setflags(write=False)


def codeword(which: int) -> np.ndarray:
    """Logical basis state as a read-only 8-vector, encoder column
    4 * which: 0 -> the W state, 1 -> |111>."""
    if which not in (0, 1):
        raise ValueError(f"codeword index must be 0 or 1, got {which}")
    return _CODE[:, which]


def encode_ideal(spec: LogicalStateSpec) -> np.ndarray:
    """cos(theta/2)|0_L> + e^{i phi} sin(theta/2)|1_L> as a read-only
    8-vector."""
    c = math.cos(spec.theta / 2)
    s = math.sin(spec.theta / 2)
    amps = c * codeword(0) + s * np.exp(1j * spec.phi) * codeword(1)
    amps.setflags(write=False)
    return amps


def prep_unitary(spec: LogicalStateSpec) -> np.ndarray:
    """Single-qubit G = Rz(phi) Ry(theta), so G|0> = cos(theta/2)|0>
    + e^{i phi} sin(theta/2)|1> up to a global phase, in closed form:
    [[e c, -e s], [conj(e) s, conj(e) c]] with e = exp(-i phi/2),
    c = cos(theta/2), s = sin(theta/2)."""
    e = complex(math.cos(spec.phi / 2), -math.sin(spec.phi / 2))
    c, s = math.cos(spec.theta / 2), math.sin(spec.theta / 2)
    return np.array([e * c, -e * s, e.conjugate() * s,
                     e.conjugate() * c]).reshape(2, 2)


def encoder_unitary() -> np.ndarray:
    """The 8x8 encoder, |000> -> |0_L> and |100> -> |1_L>, as one read-only
    constant.

    Only those two columns are contractual; the other six complete them
    with vectors of definite excitation parity (see ``_ENCODER``).
    """
    return _ENCODER


# ---------------------------------------------------------------------------
# Recovery map
# ---------------------------------------------------------------------------


def _projector(ket: np.ndarray, bra: np.ndarray) -> np.ndarray:
    out = np.outer(ket, bra.conj())
    out.setflags(write=False)
    return out


# |000> is encoder column 1 and |sym2> = (|011> + |101> + |110>)/sqrt(3) its
# column 0 with the rows reversed. |0_L><0_L|, |1_L><1_L|, |0_L><000| and
# |1_L><sym2| are the terms of the two gamma-adapted recovery operators,
# R0 = (1-g)|0_L><0_L| + |1_L><1_L| on the no-damping branch and
# R1 = (1-g)|0_L><000| + |1_L><sym2| on the single-damping branch.
_E000 = _ENCODER[:, 1]
_SYM2 = _ENCODER[::-1, 0]
_P0L = _projector(codeword(0), codeword(0))
_P1L = _projector(codeword(1), codeword(1))
_L0_000 = _projector(codeword(0), _E000)
_L1_SYM2 = _projector(codeword(1), _SYM2)


# Columns 4d + 2 parity(d) of a 5-qubit recovery W on (q0, q1, q2, a1, a2):
# parity extraction sends |d>|00> to |d, parity(d), 0>, so W is only ever
# read on these columns.
_PARITY = np.array([bin(d).count("1") % 2 for d in range(8)])
_KEPT_COLS = 4 * np.arange(8) + 2 * _PARITY


def _kept_block(r=(0.0, 0.0), s=(0.0, 0.0)) -> np.ndarray:
    """32x8 block with rows 4d + 2 a1 + a2 holding, in column d', column d'
    of r[0] on a2 = 0 and of s[0] on a2 = 1 under a1 = 1 when parity(d') is
    odd, and of r[1] and s[1] under a1 = 0 when it is even."""
    k = np.zeros((8, 2, 2, 8), dtype=complex)
    for a2, (odd, even) in enumerate((r, s)):
        k[:, 1, a2] = odd * _PARITY
        k[:, 0, a2] = even * (1 - _PARITY)
    return k.reshape(32, 8)


# W's kept columns for the analytic recoveries are (1-g) K_R
# + sqrt(g(2-g)) K_S + K_1. Branch b's block encoding is [[R_b, .], [S_b, .]]
# on (a2, data) with S_b = sqrt(I - R_b^dag R_b), and since
# R0^dag R0 = (1-g)^2 |0_L><0_L| + |1_L><1_L| and
# R1^dag R1 = (1-g)^2 |000><000| + |sym2><sym2|, each S_b is
# sqrt(g(2-g)) times one projector plus the projector onto the rest.
# The three blocks have disjoint supports, so their weighted sum, taken as
# one product of the weights (1-g, sqrt(g(2-g)), 1) with the read-only
# (3, 256) stack of (K_R, K_S, K_1), adds each entry to exact zeros only.
_P000 = _projector(_E000, _E000)
_K_STACK = np.reshape([
    _kept_block(r=(_P0L, _L0_000)),
    _kept_block(s=(_P0L, _P000)),
    _kept_block(r=(_P1L, _L1_SYM2),
                s=(np.eye(8) - _P0L - _P1L,
                   np.eye(8) - _P000 - _projector(_SYM2, _SYM2)))], (3, 256))
_K_STACK.setflags(write=False)


@dataclass(frozen=True, eq=False)
class RecoveryMap:
    """The post-selected recovery as the 8 columns of its 5-qubit block
    encoding W on (q0, q1, q2, a1, a2) that syndrome extraction feeds:
    ``columns`` is the read-only 32x8 block W[:, 4d + 2 parity(d)], W on
    each input |d, parity(d), 0>, with rows 4d + 2 a1 + a2. The a2 = 0 rows
    are the kept branch (:meth:`kraus`), the a2 = 1 rows the failure branch.
    """

    columns: np.ndarray

    @classmethod
    def ideal(cls, gamma: float) -> "RecoveryMap":
        """The gamma-adapted recovery, whose a1 = 1 (no-damping) and a1 = 0
        (damping) branches apply R0 and R1 (written out beside ``_P0L``)
        block-encoded on a2; its columns are (1-g) K_R + sqrt(g(2-g)) K_S
        + K_1, one ``np.dot`` of those weights with the stacked blocks. At
        gamma = 0 it is the approximate recovery."""
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma {gamma} outside [0, 1]")
        return cls._weighted(1 - gamma, math.sqrt(gamma * (2 - gamma)))

    @classmethod
    def of_delay(cls, delay: float, t1: float) -> "RecoveryMap":
        """``ideal`` adapted to gamma = 1 - exp(-delay/t1), its weights
        taken from the exponent: exp(-delay/t1) for 1 - gamma and
        sqrt(-expm1(-2 delay/t1)) for sqrt(gamma(2 - gamma)), so they keep
        their digits where gamma rounds near or to 1. t1 = inf is gamma = 0."""
        x = delay / t1
        if not x >= 0:
            raise ValueError(f"delay {delay} over T1 {t1} is negative or NaN")
        return cls._weighted(math.exp(-x), math.sqrt(-math.expm1(-2 * x)))

    @classmethod
    def _weighted(cls, keep: float, swap: float) -> "RecoveryMap":
        """The columns keep K_R + swap K_S + K_1."""
        weights = np.array((keep, swap, 1.0), dtype=complex)
        cols = np.dot(weights, _K_STACK).reshape(32, 8)
        cols.setflags(write=False)
        return cls(cols)

    @classmethod
    def synthesized(cls, unitary: np.ndarray) -> "RecoveryMap":
        """The recovery a 5-qubit circuit unitary W applies; W must be
        unitary within 1e-9."""
        u = np.asarray(unitary, dtype=complex)
        if u.shape != (32, 32):
            raise ValueError("synthesized recovery must be a 5-qubit unitary")
        dev = np.max(np.abs(u.conj().T @ u - np.eye(32)))
        if not dev <= 1e-9:
            raise ValueError(f"synthesized recovery not unitary: "
                             f"max |W^dag W - I| = {dev}")
        cols = u[:, _KEPT_COLS]
        cols.setflags(write=False)
        return cls(cols)

    def kraus(self) -> tuple[np.ndarray, np.ndarray]:
        """The post-selected recovery as two Kraus operators on the data:
        the a2 = 0 rows of the kept columns on a1 = 1, then on a1 = 0.

        Parity extraction sets a1 to the excitation parity, the recovery
        acts, and post-selection keeps a2 = 0 with a1 traced out. For the
        analytic recoveries the pair is (R0 P_odd, R1 P_even).
        """
        k = self.columns.reshape(8, 2, 2, 8)  # (d, a1, a2, d')
        return k[:, 1, 0], k[:, 0, 0]

    def superop(self) -> np.ndarray:
        """The kept branch as a 64x64 map on the row-major vec of the data's
        rho: sum_K K kron conj(K), since vec(A rho B) = (A kron B^T) vec(rho).
        Formed as one product over the two Kraus operators, entry
        ((a, b), (c, d)) of k^T conj(k) on their flattened (2, 64) stack,
        with axes (a, b, c, d) then reordered to (a, c, b, d)."""
        k = np.reshape(self.kraus(), (2, 64))
        return (k.T @ k.conj()).reshape(8, 8, 8, 8).transpose(0, 2, 1, 3).reshape(64, 64)


# Flat positions in the 64x64 noise map of the 125 products of per-qubit
# nonzeros. Per qubit they sit at (r, c, r', c') = (0,0,0,0), (0,0,1,1),
# (1,1,1,1), (0,1,0,1), (1,0,1,0); the map's row index is (r0 r1 r2 c0 c1 c2)
# and its column index (r0' r1' r2' c0' c1' c2'), so qubit q's bits carry
# weight 2^(2-q) within each group of three.
_NOISE_POS = np.array([(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1), (0, 1, 0, 1),
                       (1, 0, 1, 0)]) @ np.array([64 * 8, 64, 8, 1])
_NOISE_INDEX = (4 * _NOISE_POS[:, None, None] + 2 * _NOISE_POS[None, :, None]
                + _NOISE_POS[None, None, :]).ravel()


def _checked(g: float, p: float) -> tuple[float, float]:
    """gamma in [0, 1] and p in [0, 0.5] as floats; else (NaN too) ValueError."""
    g, p = float(g), float(p)
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"gamma {g} outside [0, 1]")
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"dephasing probability {p} outside [0, 0.5]")
    return g, p


def _per_qubit(gammas: float | Sequence[float],
               ps: float | Sequence[float]) -> list[tuple[float, float]]:
    """Shared scalars or one value per data qubit, as three checked pairs;
    a sequence of other than 1 or 3 values raises ValueError naming it."""
    if np.ndim(gammas) == np.ndim(ps) == 0:
        return [_checked(gammas, ps)] * 3
    for name, values in (("gammas", gammas), ("ps", ps)):
        if np.ndim(values) and np.shape(values) not in ((1,), (3,)):
            raise ValueError(f"{name} has {np.size(values)} per-qubit values "
                             f"for the 3 data qubits")
    return [_checked(g, p) for g, p in
            zip(np.broadcast_to(gammas, 3), np.broadcast_to(ps, 3))]


def _noise_entries(g: float, p: float) -> np.ndarray:
    """A checked (gamma, p)'s nonzeros of the noise map, in ``_NOISE_POS``
    order, as complex (their products stay exact, and the scatter into the
    complex map casts nothing)."""
    coh = math.sqrt(1.0 - g) * (1.0 - 2.0 * p)
    return np.array([1.0, g, 1.0 - g, coh, coh], dtype=complex)


def noise_superop(gammas: float | Sequence[float],
                  ps: float | Sequence[float]) -> np.ndarray:
    """AD(gamma) then dephasing(p) on each data qubit as a 64x64 map; the
    gammas and ps are shared scalars or one value per data qubit. A gamma
    outside [0, 1] or a p outside [0, 0.5] raises.

    Per qubit, on the (r, c, r', c') axes: |0><0| stays, |1><1| goes to
    |0><0| with weight gamma and stays with weight 1 - gamma, and each
    coherence scales by sqrt(1 - gamma) (1 - 2p). The map's 125 nonzeros
    are the products of one such entry per qubit, formed by one
    ``np.multiply.outer`` broadcast and scattered into place. The map is
    complex (its entries are real, so the conversion is exact), so that
    products with complex states and maps cast no copy of it.
    """
    if isinstance(gammas, (int, float)) and isinstance(ps, (int, float)):
        v0 = v1 = v2 = _noise_entries(*_checked(gammas, ps))
    else:
        v0, v1, v2 = (_noise_entries(g, p) for g, p in _per_qubit(gammas, ps))
    noise = np.zeros(64 * 64, dtype=complex)
    noise[_NOISE_INDEX] = np.multiply.outer(v0[:, None] * v1, v2).ravel()
    return noise.reshape(64, 64)


# What the measured estimator reads of the package encoder En besides
# ``_CODE``, built once so that an estimator call rebuilds none of it: En^dag
# reshaped to (2, 32), whose row j holds rows 4j..4j+3 of En^dag (the rows
# that q0 = j of the inverted encoder writes), and the identity that the
# isometry check subtracts.
_ENCODER_DAG = _ENCODER.conj().T.reshape(2, 32)
_EYE8 = np.eye(8)
for _const in (_ENCODER_DAG, _EYE8):
    _const.setflags(write=False)

# The code space on the row-major vec: Lambda = V kron conj(V) with
# V = [|0_L> |1_L>] (8x2) sends vec(sigma) of a 2x2 logical state to
# vec(V sigma V^dag); its columns are orthonormal, read-only.
_LOGICAL = np.kron(_CODE, _CODE.conj())
_LOGICAL.setflags(write=False)


def logical_round(gammas: float | Sequence[float], ps: float | Sequence[float],
                  rmap: RecoveryMap) -> np.ndarray:
    """One round on the 2x2 logical state as a 4x4 map on its row-major
    vec: L = Lambda^dag M Lambda, with M = R N the round of N =
    :func:`noise_superop` then R = :meth:`RecoveryMap.superop`, and
    Lambda = V kron conj(V), V = [|0_L> |1_L>]. M Lambda is formed as
    R (N Lambda), two 64x64 by 64x4 products.

    Every analytic recovery maps into span{|0_L>, |1_L>}, so a round that
    starts in the code space ends there, M Lambda = Lambda L, and k rounds
    are L^k exactly. A round that leaks, M Lambda differing from
    Lambda L by more than 1e-12 in any entry (a generic circuit W does),
    raises ValueError. L is trace-non-increasing; the trace it removes is
    the post-selection loss.
    """
    out = rmap.superop() @ (noise_superop(gammas, ps) @ _LOGICAL)
    round_map = _LOGICAL.conj().T @ out
    leak = np.max(np.abs(out - _LOGICAL @ round_map))
    if not leak <= 1e-12:
        raise ValueError(f"the round leaks out of the code space by {leak}")
    return round_map


def logical_outcomes(thetas: Sequence[float], gamma: float, p: float,
                     rmap: RecoveryMap) -> tuple[np.ndarray, np.ndarray]:
    """One round on each encoded state cos(theta/2)|0_L> + sin(theta/2)|1_L>
    at once: (fidelities, success probabilities), one entry per theta.

    :func:`logical_round` is built once and applied to every
    vec(sigma0), sigma0 = psi psi^dag, psi = (cos theta/2, sin theta/2), in
    one product. Each kept state is renormalized by its weight, the success
    probability, and all are validated in one ``check_density``; F is
    Re sum kept * sigma0. Each theta is checked by its field's rule
    (``require``), and a weight of 0 or less raises ValueError.
    """
    for theta in thetas:
        require("theta", theta)
    thetas = np.asarray(thetas, dtype=float)
    psi = np.stack([np.cos(thetas / 2), np.sin(thetas / 2)], axis=-1)
    sigma0 = (psi[:, :, None] * psi[:, None, :]).reshape(-1, 4)
    out = sigma0 @ logical_round(gamma, p, rmap).T
    weights = np.real(out[:, 0] + out[:, 3])
    if not np.all(weights > 0):
        raise ValueError(f"post-selection removed all weight (kept weight "
                         f"{weights[~(weights > 0)][0]})")
    kept = out / weights[:, None]
    check_density(kept.reshape(-1, 2, 2))
    return np.real((kept * sigma0).sum(axis=1)), weights


# ---------------------------------------------------------------------------
# The analytic round in closed form
# ---------------------------------------------------------------------------

_PAIRS = ((0, 1), (0, 2), (1, 2))


def _log_mean_exp(zs: Sequence[float]) -> float:
    """log((1/3) sum_i exp(-z_i)) over three z_i >= 0, as -min(z) plus a
    log1p whose argument lies in [-2/3, 0]: accurate to a few ulp of the
    z_i near 0, and -inf when every z_i is."""
    low = min(zs)
    if low == math.inf:
        return -math.inf
    return -low + math.log1p(sum(math.expm1(low - z) for z in zs) / 3)


@dataclass(frozen=True)
class PauliRound:
    """One round of the noise then an analytic recovery
    (``RecoveryMap.of_delay``, adapted to a T1 of its own) on the logical
    state, in closed form, built by :meth:`of_delay` from one idle delay.
    It is what :func:`logical_round` computes numerically from the 64x64
    maps, derived symbolically (sympy) for per-qubit damping gamma_q and
    dephasing p_q.

    With g_q = gamma_q, c_q = sqrt(1 - g_q)(1 - 2p_q) (a coherence's
    factor), r = 1 - gamma of the recovery (1 at gamma = 0), e1 =
    sum_q g_q, e2 = sum_{q<s} g_q g_s and C2 = sum_{q<s} c_q c_s, the round
    keeps the populations of |0_L> and |1_L> by the upper-triangular map
    [[T00, T01], [0, T11]], T00 = r^2 (3 + 2 e1 + 2 C2)/9, T01 = r^2 e2/3,
    T11 = sum_{q<s} (1 - g_q)(1 - g_s)/3, and scales the coherence by
    lam = r C2/3. Its Pauli transfer matrix (:meth:`pauli`, Greenbaum,
    arXiv:1509.02921) is one 2x2 block on (I, Z) and lam on X and on Y.
    For uniform noise, with a = g^2/2, b = (4/3) p (1 - p)(1 - g) and
    w = (1 - g)^2, the (I, Z) block at r = 1 - g is w (I + u v^T), u = (1, 1),
    v = (a - b, -a - b).

    Powers need no products: T^k has T00^k and T11^k on its diagonal and
    T01 (T00^k - T11^k)/(T00 - T11) above it, which :meth:`advance`
    evaluates as exp, expm1 and log1p of the fields below. Each field has
    an error of a few ulp of the round's own rates, so k rounds carry an
    error of a few ulp of k times those rates, the rate times the total
    time: no rounding is amplified k-fold. For uniform noise and r = 1 - g the
    power is w^k (I + c_k u v^T), c_k = -expm1(k log1p(-2b))/(2b).
    """

    log_keep0: float  # log T00
    log_keep1: float  # log T11
    log_feed: float  # log T01
    log_coherence: float  # log lam

    @classmethod
    def of_delay(cls, delay: float, t1s: Sequence[float], tphis: Sequence[float],
                 recovery_t1: float) -> "PauliRound":
        """The round of one idle ``delay`` with per-qubit T1 and Tphi (three
        each), its weights taken from the delay itself: log(1 - gamma_q) =
        -delay/T1_q and 1 - 2 p_q = exp(-delay/Tphi_q). The recovery adapts
        to gamma(delay) at ``recovery_t1`` (inf: gamma = 0)."""
        return cls._of_exponents([delay / t for t in t1s],
                                 [delay / t for t in tphis], delay / recovery_t1)

    @classmethod
    def _of_exponents(cls, x: Sequence[float], y: Sequence[float],
                      x_r: float) -> "PauliRound":
        """From x_q = -log(1 - g_q), y_q = -log(1 - 2 p_q) and the recovery's
        x_r = -log(1 - gamma). Every field is a log formed from the
        exponents themselves, so a round of many T1, whose gammas round to
        1, keeps its digits and its weights stay defined below the smallest
        float; only x = inf is gamma = 1."""
        if not all(v >= 0 for v in (*x, *y, x_r)):
            raise ValueError(f"negative or NaN noise exponent in {[*x, *y, x_r]}")
        log_r = -x_r
        gs = [-math.expm1(-v) for v in x]
        coh = [(x[a] + x[b]) / 2 + y[a] + y[b] for a, b in _PAIRS]
        # T00 / r^2 = 1 + (2/9)(sum_q g_q - sum_{q<s} (1 - c_q c_s))
        drift = sum(gs) + sum(math.expm1(-z) for z in coh)
        feed = sum(gs[a] * gs[b] for a, b in _PAIRS) / 3  # T01 / r^2
        return cls(log_keep0=2 * log_r + math.log1p(2 * drift / 9),
                   log_keep1=_log_mean_exp([x[a] + x[b] for a, b in _PAIRS]),
                   log_feed=2 * log_r + math.log(feed) if feed else -math.inf,
                   log_coherence=log_r + _log_mean_exp(coh))

    def pauli(self) -> np.ndarray:
        """The 4x4 Pauli transfer matrix R_ij = Tr(P_i L(P_j))/2 over
        (I, X, Y, Z)."""
        t00, t11 = math.exp(self.log_keep0), math.exp(self.log_keep1)
        t01, lam = math.exp(self.log_feed), math.exp(self.log_coherence)
        return np.array([[(t00 + t01 + t11) / 2, 0, 0, (t00 - t01 - t11) / 2],
                         [0, lam, 0, 0], [0, 0, lam, 0],
                         [(t00 + t01 - t11) / 2, 0, 0, (t00 - t01 + t11) / 2]])

    def advance(self, state: tuple, k: int = 1) -> tuple[tuple, float]:
        """k >= 1 rounds applied to a logical state (p0, p1, coh): the
        populations of |0_L> and |1_L> and |<0_L|sigma|1_L>| (the round keeps
        the coherence's phase). Returns the kept state renormalized to unit
        trace and its weight, the success probability of the k rounds.

        Every term is scaled by exp(-k top), top the larger log population
        weight, so the state stays defined where the weight underflows to
        0.0. The weight guard is written so that NaN fails it: a kept trace
        of 0 or NaN raises ValueError."""
        p0, p1, coh = state
        top = max(self.log_keep0, self.log_keep1)
        if top == -math.inf:
            trace = weight = 0.0
        else:
            gap = abs(self.log_keep0 - self.log_keep1)
            # (T00^k - T11^k) / (T00 - T11) / exp((k - 1) top)
            ratio = k if gap == 0 else math.expm1(-k * gap) / math.expm1(-gap)
            p0 = math.exp(k * (self.log_keep0 - top)) * p0 \
                + math.exp(self.log_feed - top) * ratio * p1
            p1 = math.exp(k * (self.log_keep1 - top)) * p1
            coh *= math.exp(k * (self.log_coherence - top))
            trace = p0 + p1
            weight = math.exp(k * top) * trace
        if not trace > 0:
            raise ValueError(f"post-selection removed all weight (kept weight {weight})")
        return (p0 / trace, p1 / trace, coh / trace), weight

    def outcome(self, theta: float) -> tuple[float, float]:
        """(fidelity, success probability) of one round on the encoded state
        cos(theta/2)|0_L> + e^{i phi} sin(theta/2)|1_L>, for any phi."""
        start = logical_state(theta)
        state, weight = self.advance(start)
        return logical_fidelity(start, state), weight

    def infidelity(self, theta: float) -> float:
        """1 - F of :meth:`outcome`'s fidelity, formed without taking F
        from 1: with c^2, s^2 of :func:`logical_state`, 1 - F is
        s^2 [c^2 (T00 - lam + T11 - lam) + T01 s^2] / tr over the kept trace
        tr = T00 c^2 + (T01 + T11) s^2, each T scaled by 1/lam, so that
        T/lam - 1 is expm1 of a difference of log fields and never a
        difference of rounded numbers near 1."""
        c2, s2, _ = logical_state(theta)
        keep0 = self.log_keep0 - self.log_coherence
        keep1 = self.log_keep1 - self.log_coherence
        feed = math.exp(self.log_feed - self.log_coherence)
        return s2 * (c2 * (math.expm1(keep0) + math.expm1(keep1)) + feed * s2) \
            / (math.exp(keep0) * c2 + (feed + math.exp(keep1)) * s2)


def logical_state(theta: float) -> tuple[float, float, float]:
    """The encoded state at Bloch angle theta as :meth:`PauliRound.advance`
    takes it: (cos^2(theta/2), sin^2(theta/2), cos(theta/2) sin(theta/2))."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return c * c, s * s, c * s


def logical_fidelity(start: tuple, state: tuple) -> float:
    """<psi|sigma|psi> of a unit-trace ``state`` to the pure ``start``
    (both as :func:`logical_state` gives them):
    c^2 p0 + s^2 p1 + 2 c s coh, capped at 1, which rounding can pass."""
    return min(start[0] * state[0] + start[1] * state[1]
               + 2 * start[2] * state[2], 1.0)


def apply_cycle(superop: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """A 64x64 map on data qubits 0..2, such as :meth:`RecoveryMap.superop`,
    applied to the data's 8x8 rho or to a stack of 8x8 blocks rho[a, b, s]
    of shape (8, 8, m): the block view of a data + classical-spectator
    register (``protocol.lindbladian``), whose spectators it leaves
    untouched.

    The blocks' row-major vecs are the columns of one (64, m) array, so the
    map is one product. Returns the kept state renormalized to unit trace
    (the sum of its blocks' traces) and its weight relative to rho's. A
    kept weight not above 1 / (the largest float), whose reciprocal
    overflows, raises ValueError naming it.
    """
    if rho.shape[:2] != (8, 8) or rho.ndim > 3:
        raise ValueError(f"the recovery takes 8x8 blocks of the 3 data qubits, "
                         f"got a register of {rho.shape[0].bit_length() - 1} "
                         f"qubits")
    out = (superop @ rho.reshape(64, -1)).reshape(rho.shape)
    weight = float(np.real(np.trace(out).sum()))
    if not weight > 1 / sys.float_info.max:
        raise ValueError(f"post-selection removed all weight (kept weight {weight!r}, "
                         f"not above 1/{sys.float_info.max!r}, where renormalizing "
                         f"overflows)")
    return out / weight, weight / float(np.real(np.trace(rho).sum()))


@dataclass(frozen=True)
class QecOutcome:
    conditional_state: np.ndarray
    success_probability: float
    fidelity: float


def qec_cycle(psi: np.ndarray, gamma: float, p: float,
              rmap: RecoveryMap) -> QecOutcome:
    """One full cycle on the encoded 8-vector ``psi``: noise, syndrome
    extraction, post-selected recovery. :func:`noise_superop` acts on
    vec(|psi><psi|), then :func:`apply_cycle` applies the kept branch
    :meth:`RecoveryMap.superop`, in the order of :func:`logical_round` and
    the CHaDD rounds of ``protocol``.

    Ancillas are handled exactly through :meth:`RecoveryMap.kraus`: the
    syndrome ancilla selects the branch operator and the recovery ancilla
    outcome 0 keeps its success branch. Returns the kept state
    renormalized (validated by ``check_density``), the combined weight of
    both syndrome branches after post-selection, and the fidelity
    <psi| rho |psi> of the kept state to ``psi`` itself. Raises ValueError
    unless ``psi`` has shape (8,) and unit norm within TOL_ARITH.
    """
    psi = np.asarray(psi)
    if psi.shape != (8,):
        raise ValueError(f"qec_cycle takes the encoded 3-qubit 8-vector, "
                         f"got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= TOL_ARITH:
        raise ValueError(f"state not normalized: |psi| = {norm}")
    rho = np.outer(psi, psi.conj())
    noisy = (noise_superop(gamma, p) @ rho.ravel()).reshape(8, 8)
    kept, p_succ = apply_cycle(rmap.superop(), noisy)
    check_density(kept)
    return QecOutcome(kept, p_succ, float(np.real(psi.conj() @ kept @ psi)))


def measured_circuit_distribution(
    spec: LogicalStateSpec,
    gamma: float,
    p: float,
    rmap: Optional[RecoveryMap] = None,
) -> np.ndarray:
    """Outcome distribution of the full measured estimator circuit.

    The circuit runs G, the encoder, the noise channel, syndrome
    extraction, the block-encoded recovery W, then the inverted encoder and
    G^dag, and measures (q0, q1, q2, a2). The all-zero probability
    conditioned on a2 = 0 equals the post-selected state fidelity.

    Compiled form: :func:`noise_superop` acts on the encoded data state
    rho = En (G|0> x |00>). The ancillas are still |00> and parity
    extraction sends |d>|00> to |d, parity(d), 0>, so the rest is the 32x8
    isometry V0 = ((G^dag En^dag) x I4) K with K = W[:, 4d + 2 parity(d)]
    (``RecoveryMap.columns``). Entry (d, a2) of the distribution
    is sum_a1 <d, a1, a2| V0 rho V0^dag |d, a1, a2>, read off as the real
    part of (V0 rho) * conj(V0) summed over a1 and the data column index;
    V0 rho V0^dag itself is never formed, and conj(V0) is formed once for
    this read and the isometry check. G is :func:`prep_unitary`'s closed
    form. What the circuit reads of the package encoder, V = En[:, [0, 4]]
    (``_CODE``) and En^dag as (2, 32) (``_ENCODER_DAG``), and the isometry
    check's identity (``_EYE8``) are module constants built once at import.
    ``rmap`` defaults to ``RecoveryMap.ideal(gamma)``.

    Checks, each written so that NaN fails it: rho is a density matrix
    (``check_density``), V0^dag V0 = I within 1e-9, and the distribution's
    sum, the trace of V0 rho V0^dag, is 1 within TOL_ARITH. A NaN in the
    recovery raises rather than returning NaN probabilities.
    """
    if rmap is None:
        rmap = RecoveryMap.ideal(gamma)
    g = prep_unitary(spec)  # G on q0 of the data
    psi = _CODE @ g[:, 0]  # G|000> has amplitudes G[:, 0] on |000>, |100>
    rho = (noise_superop(gamma, p) @ (psi[:, None] * psi.conj()).ravel()).reshape(8, 8)
    check_density(rho)
    # (G^dag x I4) En^dag, then that x I4 times K, each on its row's leading index
    m = (g.conj().T @ _ENCODER_DAG).reshape(8, 8)
    v0 = (m @ rmap.columns.reshape(8, 32)).reshape(32, 8)
    v0_conj = v0.conj()
    dev = np.abs(v0_conj.T @ v0 - _EYE8).max()
    if not dev <= 1e-9:
        raise ValueError(f"post-noise circuit not an isometry: "
                         f"max |V0^dag V0 - I| = {dev}")
    # rows of V0 are (d, a1, a2); sum over a1 and the data column index
    probs = ((v0 @ rho) * v0_conj).real.reshape(8, 2, 2, 8).sum(axis=(1, 3)).ravel()
    total = probs.sum()
    if not abs(total - 1.0) <= TOL_ARITH:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    return probs


def fidelity_from_distribution(probs: np.ndarray) -> tuple[float, float]:
    """(conditional all-zero probability, success probability) of the
    measured estimator; the a2 success bit is the least significant."""
    probs = np.asarray(probs, dtype=float)
    success = probs[0::2].sum()  # a2 = 0
    if not success > 0:
        raise ValueError(f"post-selection removed all weight (kept weight {success})")
    return float(probs[0] / success), float(success)


# ---------------------------------------------------------------------------
# Closed-form oracles
# ---------------------------------------------------------------------------


def oracle_fidelity_ad(theta: float, gamma: float) -> float:
    """Post-selected state fidelity under pure damping with the adapted
    recovery: (1 + g^2 s^2 c^2) / (1 + g^2 s^2), s = sin(theta/2),
    c = cos(theta/2)."""
    g2 = gamma * gamma
    s2 = math.sin(theta / 2) ** 2
    c2 = math.cos(theta / 2) ** 2
    return (1 + g2 * s2 * c2) / (1 + g2 * s2)


def oracle_success_probability(theta: float, gamma: float, p: float = 0.0) -> float:
    """Success probability, the "+"-sign closed form simulation confirms:
    (1-g)^2 (1 + g^2 sin^2(t/2) + (8/3) p (p-1)(1-g) cos^2(t/2))."""
    s2 = math.sin(theta / 2) ** 2
    c2 = math.cos(theta / 2) ** 2
    return (1 - gamma) ** 2 * (
        1 + gamma**2 * s2 + (8.0 / 3.0) * p * (p - 1) * (1 - gamma) * c2
    )


def success_probability_minus_form(theta: float, gamma: float) -> float:
    """The alternative printed form (1-g)^2 (1 - g^2 sin^2(theta/2)).

    Disagrees with the "+" form in the sign of the g^2 term; kept so
    callers can report which variant the simulation matches.
    """
    s2 = math.sin(theta / 2) ** 2
    return (1 - gamma) ** 2 * (1 - gamma**2 * s2)


def success_form(dev_plus: float, dev_minus: float) -> str:
    """The printed success-probability form that a simulation deviating by
    at most ``dev_plus`` from the "+" form and ``dev_minus`` from the "-"
    form matches within 1e-10: 'plus', 'minus', or 'neither'."""
    if dev_plus < 1e-10:
        return "plus"
    if dev_minus < 1e-10:
        return "minus"
    return "neither"
