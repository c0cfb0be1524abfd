"""Noise strengths from coherence times.

Damping strength follows gamma(t) = 1 - exp(-t/T1); the pure-dephasing
probability follows p(t) = (1 - exp(-t/Tphi)) / 2, which the package never
forms: the closed-form round (``code3.PauliRound.of_delay``) takes
1 - 2p = exp(-t/Tphi) from the delay itself. Idle noise over a delay
is amplitude damping followed by dephasing on each data qubit; the two
commute exactly, and ``code3.noise_superop`` applies them as one compiled
map. Readout error E enters only the gain model (``metrics.f_star``).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import ConfigError

# One lifetime T (us): its rate 1/T must be a float; +inf is no decay
LIFETIME_RULE = f"a number > {1 / sys.float_info.max:.2g} (1/T finite; Infinity: none)"


def is_real(v) -> bool:  # not a boolean (numpy reads 0 or 1), nor an int no float holds
    return type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool) \
        and not (isinstance(v, numbers.Integral) and abs(v) > sys.float_info.max)


def is_lifetime(t) -> bool:
    return is_real(t) and t > 1 / sys.float_info.max


@dataclass(frozen=True)
class NoiseParams:
    """Per-qubit coherence times.

    ``t1`` and ``tphi`` are given as scalars (shared by all qubits) or
    per-qubit sequences and kept as float tuples, one entry when shared;
    :meth:`lifetimes` reads them for a register. ``tphi`` is the
    pure-dephasing lifetime; use :meth:`from_t1_t2` when the device is
    characterised by T2 instead (1/T2 = 1/(2 T1) + 1/Tphi).
    """

    t1: float | Sequence[float]
    tphi: float | Sequence[float] = math.inf

    def __post_init__(self):
        for name in ("t1", "tphi"):
            raw = getattr(self, name)
            per_qubit = isinstance(raw, (list, tuple, np.ndarray))
            values = tuple(raw) if per_qubit else (raw,)
            if not (values and all(map(is_lifetime, values))):
                listed = ", or a non-empty list of them" if per_qubit else ""
                raise ConfigError(f"{name} must be a positive number with a finite "
                                  f"rate 1/{name}{listed}, got {raw!r}")
            object.__setattr__(self, name, tuple(map(float, values)))

    @classmethod
    def from_t1_t2(cls, t1: float | Sequence[float], t2: float) -> "NoiseParams":
        """T1, shared or per qubit, with one T2: Tphi_q = 1/(1/T2 - 1/(2 T1_q)),
        inf where that rate is <= 0. T2 may not exceed 2 min T1."""
        t1 = cls(t1=t1).t1
        if not is_lifetime(t2):
            raise ConfigError(f"t2 must be a positive number with a finite rate "
                              f"1/t2, got {t2!r}")
        if t2 > 2 * min(t1) + 1e-12:
            raise ConfigError(f"t2 = {t2} exceeds the physical bound "
                              f"T2 <= 2 min T1 = {2 * min(t1)}")
        inv_tphi = [1.0 / t2 - 1.0 / (2.0 * t) for t in t1]
        return cls(t1=t1, tphi=[math.inf if r <= 0 else 1.0 / r for r in inv_tphi])

    def lifetimes(self, n_qubits: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(T1s, Tphis) of an ``n_qubits`` register, one value per qubit: a
        shared value repeated, else exactly ``n_qubits`` per-qubit values,
        or ConfigError."""
        out = []
        for name, values in (("t1", self.t1), ("tphi", self.tphi)):
            if len(values) not in (1, n_qubits):
                raise ConfigError(f"{name} has {len(values)} per-qubit values for a "
                                  f"{n_qubits}-qubit register")
            out.append(values * n_qubits if len(values) == 1 else values)
        return out[0], out[1]


def gamma_of_t(t: float, t1: float) -> float:
    """Damping probability accumulated over an idle window of length t."""
    if not (t >= 0 and t1 > 0):
        raise ConfigError(f"gamma_of_t needs t >= 0 and T1 > 0, got t = {t}, T1 = {t1}")
    return -math.expm1(-t / t1)  # 1 - exp(-t/T1) cancels at short delays
