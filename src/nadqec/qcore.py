"""Validation and gate matrices for small qubit registers.

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

import numpy as np

# Tolerance constants shared across the package. STRUCT covers structural
# checks (unitarity, positivity), ARITH covers plain arithmetic residues.
TOL_STRUCT = 1e-10
TOL_ARITH = 1e-12


class ConfigError(ValueError):
    """An input breaks a rule; the message names the field at fault."""


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
