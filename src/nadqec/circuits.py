"""Gate-list circuits over the native set {RX, RY, RZ, X, CZ}, with matrix
compilation and a line-oriented text serialization.

Serialized form, one gate per line: ``GATE q[,q2] [angle]`` where the
trailing angle, in radians, is present for rotation gates only.
Round-trips exactly (floats are written with ``repr`` precision).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .qcore import CZ, X, rx, ry, rz

# Gates understood by the compiler: rotations carry an angle, fixed gates
# carry nothing.
_ROTATIONS = {"RX": rx, "RY": ry, "RZ": rz}
_FIXED = {"X": X, "CZ": CZ}


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    param: float | None = None

    def __post_init__(self):
        # normalise to an upper-case name, a tuple of int and a float; most
        # gates arrive that way, and those skip the frozen-field rewrites
        name = self.name.upper()
        if name != self.name:
            object.__setattr__(self, "name", name)
        if type(self.qubits) is not tuple or \
                any(type(q) is not int for q in self.qubits):
            object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.param is not None and type(self.param) is not float:
            object.__setattr__(self, "param", float(self.param))
        if name not in _ROTATIONS and name not in _FIXED:
            raise ValueError(f"unknown gate {name!r}")
        arity = 2 if name == "CZ" else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{name} takes {arity} qubit(s), got {self.qubits}")
        if name in _ROTATIONS and self.param is None:
            raise ValueError(f"{name} requires a parameter")
        if name in _FIXED and self.param is not None:
            raise ValueError(f"{name} takes no parameter")

    def matrix(self) -> np.ndarray:
        if self.name in _ROTATIONS:
            return _ROTATIONS[self.name](self.param)
        return _FIXED[self.name]


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise ValueError(f"gate {g} outside register of {self.n_qubits}")

    def unitary(self) -> np.ndarray:
        """Compile to a dense matrix (gates applied left to right).

        A CZ flips the sign of the rows where both its qubits are 1, on the
        (2^a, 2, 2^(b-a-1), 2, rest) view for qubits a < b; a 1-qubit gate
        on qubit q is one 2x2 product on the (2^q, 2, rest) view of the
        matrix so far. No gate is lifted to 2^n x 2^n.
        """
        dim = 2**self.n_qubits
        u = np.eye(dim, dtype=complex)
        for g in self.gates:
            if g.name == "CZ":
                a, b = sorted(g.qubits)
                u.reshape(2**a, 2, 2**(b - a - 1), 2, -1)[:, 1, :, 1] *= -1
            else:
                u = (g.matrix() @ u.reshape(2**g.qubits[0], 2, -1)).reshape(dim, dim)
        return u

    def inverse(self) -> "Circuit":
        """Reversed circuit with negated rotations (X and CZ are
        self-inverse); exact."""
        inv = []
        for g in reversed(self.gates):
            if g.name in _ROTATIONS:
                inv.append(Gate(g.name, g.qubits, -g.param))
            else:
                inv.append(g)
        return Circuit(self.n_qubits, tuple(inv))

    def count(self, name: str) -> int:
        return sum(1 for g in self.gates if g.name == name.upper())

    def describe(self) -> str:
        """Human-oriented listing with rotation angles as multiples of pi."""
        lines = []
        for g in self.gates:
            qubits = ",".join(str(q) for q in g.qubits)
            if g.param is not None:
                lines.append(f"{g.name} {qubits} {g.param / np.pi:+.6f}pi")
            else:
                lines.append(f"{g.name} {qubits}")
        return "\n".join(lines) + ("\n" if lines else "")

    def serialize(self) -> str:
        lines = []
        for g in self.gates:
            qubits = ",".join(str(q) for q in g.qubits)
            if g.param is not None:
                lines.append(f"{g.name} {qubits} {g.param!r}")
            else:
                lines.append(f"{g.name} {qubits}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def deserialize(cls, text: str, n_qubits: int) -> "Circuit":
        gates = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"line {lineno}: malformed gate line {raw!r}")
            name = parts[0]
            qubits = tuple(int(q) for q in parts[1].split(","))
            param = float(parts[2]) if len(parts) == 3 else None
            gates.append(Gate(name, qubits, param))
        return cls(n_qubits, tuple(gates))


def remapped(circ: Circuit, mapping: Mapping[int, int], n_qubits: int) -> Circuit:
    """Re-index a circuit's qubits onto a larger register."""
    gates = tuple(
        Gate(g.name, tuple(mapping[q] for q in g.qubits), g.param) for g in circ.gates
    )
    return Circuit(n_qubits, gates)
