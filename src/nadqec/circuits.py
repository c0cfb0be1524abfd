"""Gate-list circuits over the native set, with matrix compilation,
duration estimation and a line-oriented text serialization.

Serialized form, one gate per line: ``GATE q[,q2] [value]`` where the
trailing value is an angle in radians for rotation gates and a duration in
microseconds for DELAY. Round-trips exactly (floats are written with
``repr`` precision).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .qcore import CZ, I2, SX, X, embed, rx, ry, rz, rzz

# Gates understood by the compiler. Rotation gates carry an angle; DELAY
# carries a duration instead and compiles to the identity.
ROTATION_GATES = ("RX", "RY", "RZ", "RZZ")
FIXED_GATES = ("X", "SX", "ID", "CZ")
PARAM_GATES = ROTATION_GATES + ("DELAY",)
_ROTATIONS = {"RX": rx, "RY": ry, "RZ": rz, "RZZ": rzz}


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    param: float | None = None

    def __post_init__(self):
        name = self.name.upper()
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.param is not None:
            object.__setattr__(self, "param", float(self.param))
        if name not in ROTATION_GATES + FIXED_GATES + ("DELAY",):
            raise ValueError(f"unknown gate {name!r}")
        arity = 2 if name in ("CZ", "RZZ") else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{name} takes {arity} qubit(s), got {self.qubits}")
        if name in PARAM_GATES and self.param is None:
            raise ValueError(f"{name} requires a parameter")
        if name not in PARAM_GATES and self.param is not None:
            raise ValueError(f"{name} takes no parameter")

    def matrix(self) -> np.ndarray:
        if self.name in _ROTATIONS:
            return _ROTATIONS[self.name](self.param)
        return {"X": X, "SX": SX, "CZ": CZ}.get(self.name, I2)  # ID, DELAY: I2


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise ValueError(f"gate {g} outside register of {self.n_qubits}")

    def appended(self, *gates: Gate) -> "Circuit":
        return Circuit(self.n_qubits, self.gates + tuple(gates))

    def unitary(self) -> np.ndarray:
        """Compile to a dense matrix (gates applied left to right)."""
        u = np.eye(2**self.n_qubits, dtype=complex)
        for g in self.gates:
            u = embed(g.matrix(), list(g.qubits), self.n_qubits) @ u
        return u

    def inverse(self) -> "Circuit":
        """Reversed circuit with negated rotations.

        Exact for rotation/X/CZ circuits; SX inverts to RX(-pi/2), which is
        SX^dag up to a global phase (irrelevant for density-matrix use).
        """
        inv = []
        for g in reversed(self.gates):
            if g.name in ROTATION_GATES:
                inv.append(Gate(g.name, g.qubits, -g.param))
            elif g.name == "SX":
                inv.append(Gate("RX", g.qubits, -np.pi / 2))
            else:  # X, CZ, ID, DELAY are self-inverse
                inv.append(g)
        return Circuit(self.n_qubits, tuple(inv))

    def count(self, name: str) -> int:
        return sum(1 for g in self.gates if g.name == name.upper())

    def layers(self) -> list[list[Gate]]:
        """Greedy ASAP layering by qubit availability."""
        out: list[list[Gate]] = []
        depth = [0] * self.n_qubits
        for g in self.gates:
            lvl = max(depth[q] for q in g.qubits)
            while len(out) <= lvl:
                out.append([])
            out[lvl].append(g)
            for q in g.qubits:
                depth[q] = lvl + 1
        return out

    def duration(self, gate_times: Mapping[str, float]) -> float:
        """Sum over layers of the longest gate in each layer (microseconds)."""
        total = 0.0
        for layer in self.layers():
            total += max(
                g.param if g.name == "DELAY" else gate_times.get(g.name, 0.0)
                for g in layer
            )
        return total

    def describe(self) -> str:
        """Human-oriented listing with rotation angles as multiples of pi
        (DELAY durations stay in microseconds)."""
        lines = []
        for g in self.gates:
            qubits = ",".join(str(q) for q in g.qubits)
            if g.name == "DELAY":
                lines.append(f"{g.name} {qubits} {g.param:g}us")
            elif g.param is not None:
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


def concat(n_qubits: int, *parts: Iterable[Gate] | Circuit) -> Circuit:
    gates: list[Gate] = []
    for part in parts:
        gates.extend(part.gates if isinstance(part, Circuit) else part)
    return Circuit(n_qubits, tuple(gates))
