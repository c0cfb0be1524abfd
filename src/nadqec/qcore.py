"""Validation and gate matrices for small qubit registers.

``FIELDS`` states each spec field's rule once: ``ExperimentSpec`` checks a
spec's fields with it, and every library function that takes an argument
named after a field checks that argument with it too (``require``).

Index convention used by every module in this package: qubit 0 is the MOST
significant bit of a computational-basis index. A 3-qubit basis state
|q0 q1 q2> has index q0*4 + q1*2 + q2, so |100> lives at index 4. Tensor
products place the left operand on the high-order qubits.

Registers here never exceed 7 qubits (dim 128), so states are plain dense
complex ndarrays (an 8-vector or a d x d density matrix), with no state
class; ``check_density`` validates a density matrix or a stack of them.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import Callable, NamedTuple

import numpy as np

# Tolerance constants shared across the package. STRUCT covers structural
# checks (unitarity, positivity), ARITH covers plain arithmetic residues.
TOL_STRUCT = 1e-10
TOL_ARITH = 1e-12


class ConfigError(ValueError):
    """An input breaks a rule; the message names the field at fault."""


# One lifetime T (us): its rate 1/T must be a float; +inf is no decay
LIFETIME_RULE = f"a number > {1 / sys.float_info.max:.2g} (1/T finite; Infinity: none)"


def is_real(v) -> bool:  # not a boolean (numpy reads 0 or 1), nor an int no float holds
    return type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool) \
        and not (isinstance(v, numbers.Integral) and abs(v) > sys.float_info.max)


def is_lifetime(t) -> bool:
    return is_real(t) and t > 1 / sys.float_info.max


# The predicates below take a tuple or a numpy array where a rule says
# "list", and a numpy integer where it says "integer": no JSON value is one.
def _is_list(v) -> bool:
    return isinstance(v, (list, tuple)) or isinstance(v, np.ndarray) and v.ndim > 0


def _number(ok: Callable[[float], bool] = lambda x: True) -> Callable:
    """A check: a finite number that passes ``ok``."""
    return lambda v: is_real(v) and math.isfinite(v) and ok(v)


def _numbers(ok: Callable = lambda x: True, empty: bool = True) -> Callable:
    """A check: a list, empty only if ``empty``, of finite numbers passing ``ok``."""
    return lambda v: _is_list(v) and (empty or len(v) > 0) and all(map(_number(ok), v))


def _integer(low: float, high: float = math.inf) -> Callable:  # not a boolean
    return lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) \
        and low <= v <= high


def _lifetime(v) -> bool:
    return all(map(is_lifetime, v if _is_list(v) and len(v) else [v]))


class Field(NamedTuple):
    rule: str  # completes "'<name>' must be ..."
    ok: Callable[[object], bool]
    default: object = None  # None: the field has no default of its own


# Each spec field's rule and default, the same in every kind that takes it;
# a rule that joins fields or depends on the register raises ConfigError
# where the fields meet (a runner, or NoiseParams.lifetimes).
_LIFETIME = LIFETIME_RULE + ", or a non-empty list of them, one per qubit"
FIELDS: dict[str, Field] = {
    "seed": Field("an integer >= 0", _integer(0)),  # top-level; ExperimentSpec.seed
    "theta": Field("a number in [0, pi]",
                   _number(lambda v: 0 <= v <= math.pi), math.pi),
    "max_delay": Field("a finite number > 0", _number(lambda v: v > 0)),
    "total_free": Field("a list of finite numbers >= 0",
                        _numbers(lambda x: x >= 0)),
    "delays": Field("a list of finite numbers > 0", _numbers(lambda x: x > 0)),
    "recovery": Field("'ideal' or 'approximate'",
                      lambda v: isinstance(v, str) and v in ("ideal", "approximate"),
                      "ideal"),
    "t1": Field(_LIFETIME, _lifetime),
    "t2": Field(LIFETIME_RULE, is_lifetime),
    "tphi": Field(_LIFETIME, _lifetime, math.inf),
    "spectators": Field("an integer from 0 to 4 (7 qubits in all)",
                        _integer(0, 4), 1),
    "couplings": Field("a list of [qubit, qubit, g] triples, g a finite number",
                       lambda v: _is_list(v) and all(
                           _is_list(c) and len(c) == 3 and _number()(c[2])
                           and all(map(_integer(-math.inf), c[:2])) for c in v)),
    "omega1": Field("a finite number", _number(), 0.3),
    "omega2": Field("a finite number", _number(), 0.2),
    "g": Field("a finite number", _number(), 0.05),
    "t_final": Field("a finite number > 0", _number(lambda v: v > 0), 60.0),
    # one CSV row per cycle for each probe, so the count is capped
    "cycles": Field("an integer from 1 to 10000", _integer(1, 10**4), 4),
    "t1_range": Field("a non-empty list of finite numbers > 0",
                      _numbers(lambda x: x > 0, empty=False)),
    "emeas_range": Field("a non-empty list of numbers in [0, 0.5]",
                         _numbers(lambda x: 0 <= x <= 0.5, empty=False)),
    "delay_range": Field("a non-empty list of finite numbers >= 0",
                         _numbers(lambda x: x >= 0, empty=False)),
    # a depth level that does not converge runs every start, and a search
    # may try six levels; a failed start takes about 14 to 24 ms, up to
    # 85 ms (200 seeded starts per level on a 2-vCPU Xeon VM, Python 3.11)
    "restarts": Field("an integer from 1 to 1000", _integer(1, 1000), 20),
    # one oracle-check CSV row per (theta, gamma) pair: at most 10^4
    "theta_points": Field("an integer from 1 to 100", _integer(1, 100), 10),
    "gamma_points": Field("an integer from 1 to 100", _integer(1, 100), 10),
}


def require(name: str, value) -> None:
    """Raise ConfigError "'<name>' must be <rule>, got <value>" unless
    ``value`` keeps the rule of the spec field ``name`` (``FIELDS``)."""
    if not FIELDS[name].ok(value):
        raise ConfigError(f"'{name}' must be {FIELDS[name].rule}, got {value!r}")


def check_density(data: np.ndarray, normalized: bool = True) -> None:
    """Raise ValueError unless ``data``, one (d, d) matrix or an (n, d, d)
    stack of them, is Hermitian within TOL_ARITH, of unit trace within
    TOL_ARITH when ``normalized``, and positive semidefinite within
    TOL_STRUCT; a stack is checked in one call and reports its worst
    matrix. ``normalized=False`` admits a sub-normalized post-selection
    branch, whose weight is carried in the trace.

    Each check is written so that NaN fails it (``not x <= tol``), and any
    non-finite entry makes the Hermiticity residual non-finite (inf - inf
    and NaN - x are NaN, inf - x is inf), so a matrix holding NaN or inf
    raises "not finite" with that residual. The checks are one
    ``np.abs(...).max()`` of the residual, the trace offsets and the lowest
    eigenvalues of one ``eigvalsh`` call, which returns them ascending. A
    single (d, d) matrix takes a 2-D path with the same verdicts and
    messages and less numpy dispatch: its residual against ``data.T.conj()``,
    its trace offset as one scalar and its first eigenvalue, where a stack
    takes the minimum over its matrices' first eigenvalues."""
    if data.size == 0:
        return
    stack = data.ndim > 2
    herm = np.abs(data - (data.swapaxes(-1, -2) if stack else data.T).conj()).max()
    if not herm <= TOL_ARITH:
        kind = "not Hermitian" if math.isfinite(herm) else "not finite"
        raise ValueError(f"{kind}: max |rho - rho^dag| = {herm}")
    if normalized:
        if stack:
            traces = data.trace(0, -2, -1).real.ravel()
            offs = np.abs(traces - 1.0)
            worst = offs.argmax()  # the first NaN, if any
            trace, off = traces[worst], offs[worst]
        else:
            trace = data.trace().real
            off = abs(trace - 1.0)
        if not off <= TOL_ARITH:
            raise ValueError(f"trace {trace} != 1 for normalized matrix")
    eigs = np.linalg.eigvalsh(data)  # ascending, per matrix
    min_eig = eigs[..., 0].min() if stack else eigs[0]
    if not min_eig >= -TOL_STRUCT:
        raise ValueError(f"not positive semidefinite: min eigenvalue {min_eig}")


# ---------------------------------------------------------------------------
# Fixed gate matrices (raw ndarrays)
# ---------------------------------------------------------------------------

X = np.array([[0, 1], [1, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)


def rx(theta: float) -> np.ndarray:
    """exp(-i theta X / 2)"""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """exp(-i theta Y / 2)"""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """exp(-i theta Z / 2)"""
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex
    )
