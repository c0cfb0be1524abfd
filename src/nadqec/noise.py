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
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np


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
        # +inf lifetimes mean no relaxation or no dephasing. NaN, booleans
        # (numpy would read 0 and 1 us) and a rate 1/T that overflows are rejected
        for name in ("t1", "tphi"):
            raw = getattr(self, name)
            if any(isinstance(x, (bool, np.bool_))
                   for x in np.ravel(np.array(raw, dtype=object))):
                raise ValueError(f"{name} must be a number, not a boolean, got {raw!r}")
            v = np.asarray(raw, dtype=float)
            if v.ndim > 1 or v.size == 0 or not np.all(v > 1 / sys.float_info.max):
                raise ValueError(f"{name} must be a positive number or a flat list "
                                 f"of them, with a finite rate 1/{name}, got {raw!r}")
            object.__setattr__(self, name, tuple(np.atleast_1d(v).tolist()))

    @classmethod
    def from_t1_t2(cls, t1: float, t2: float) -> "NoiseParams":
        # a rate 1/t2 that overflows would reach __post_init__ as tphi = 0
        for name, v in (("t1", t1), ("t2", t2)):
            if isinstance(v, bool) or not (isinstance(v, (int, float))
                                           and v > 1 / sys.float_info.max):
                raise ValueError(f"{name} must be a positive number with a finite "
                                 f"rate 1/{name}, got {v!r}")
        if t2 > 2 * t1 + 1e-12:
            raise ValueError(f"T2 = {t2} exceeds the physical bound 2*T1 = {2 * t1}")
        inv_tphi = 1.0 / t2 - 1.0 / (2.0 * t1)
        tphi = math.inf if inv_tphi <= 0 else 1.0 / inv_tphi
        return cls(t1=t1, tphi=tphi)

    def lifetimes(self, n_qubits: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(T1s, Tphis) of an ``n_qubits`` register, one value per qubit: a
        shared value repeated, else exactly ``n_qubits`` per-qubit values,
        or ValueError."""
        out = []
        for name, values in (("t1", self.t1), ("tphi", self.tphi)):
            if len(values) not in (1, n_qubits):
                raise ValueError(f"{name} has {len(values)} per-qubit values for a "
                                 f"{n_qubits}-qubit register")
            out.append(values * n_qubits if len(values) == 1 else values)
        return out[0], out[1]


def gamma_of_t(t: float, t1: float) -> float:
    """Damping probability accumulated over an idle window of length t."""
    if t < 0:
        raise ValueError(f"negative time {t}")
    if t1 <= 0:
        raise ValueError(f"T1 must be positive, got {t1}")
    return -math.expm1(-t / t1)  # 1 - exp(-t/T1) cancels at short delays
