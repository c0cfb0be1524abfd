"""Gate-list circuits: compilation, inversion, serialization."""

import math

import numpy as np
import pytest
from noise_reference import embed
from synth_reference import circuit_unitary, circuit_unitary_by_axes

from nadqec.circuits import Circuit, Gate, remapped
from nadqec.qcore import CZ, rx, rz


class TestGates:
    @pytest.mark.parametrize("name, qubits, param", [
        ("rx", (0,), 0.5),
        ("Rz", (1,), -0.25),
        ("RX", (np.int64(2),), 0.5),
        ("RY", (True,), 0.5),
        ("RZ", [0], 1.5),
        ("RX", (0,), 1),
        ("RY", (3,), np.float64(0.75)),
        ("cz", [np.int64(0), False], None),
        ("x", (np.int32(1),), None),
    ])
    def test_normalised_to_canonical_values(self, name, qubits, param):
        # an upper-case name, a tuple of int and a float (or None), whatever
        # mix of types and containers the values arrive in
        gate = Gate(name, qubits, param)
        assert gate.name == name.upper()
        assert type(gate.qubits) is tuple
        assert all(type(q) is int for q in gate.qubits)
        assert gate.qubits == tuple(int(q) for q in qubits)
        if param is None:
            assert gate.param is None
        else:
            assert type(gate.param) is float and gate.param == param
        assert hash(gate) == hash(Gate(name.upper(), gate.qubits, gate.param))

    @pytest.mark.parametrize("args, message", [
        (("CNOT", (0, 1)), "unknown gate 'CNOT'"),
        (("cnot", [np.int64(0), 1]), "unknown gate 'CNOT'"),
        (("CZ", (0,)), r"CZ takes 2 qubit\(s\), got \(0,\)"),
        (("cz", [np.int64(0)]), r"CZ takes 2 qubit\(s\), got \(0,\)"),
        (("RX", (0, 1), 0.3), r"RX takes 1 qubit\(s\), got \(0, 1\)"),
        (("rx", [True, 1], 1), r"RX takes 1 qubit\(s\), got \(1, 1\)"),
        (("RX", (0,)), "RX requires a parameter"),
        (("ry", (np.int64(0),)), "RY requires a parameter"),
        (("X", (0,), 0.5), "X takes no parameter"),
        (("x", [0], np.float64(0.5)), "X takes no parameter"),
    ])
    def test_every_check_fires_on_canonical_and_raw_values(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Gate(*args)

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (0, 1))

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            Gate("CZ", (0,))
        with pytest.raises(ValueError):
            Gate("RX", (0, 1), 0.3)

    def test_parameter_required(self):
        with pytest.raises(ValueError):
            Gate("RX", (0,))
        with pytest.raises(ValueError):
            Gate("X", (0,), 0.5)


class TestCompilation:
    def test_single_gate(self):
        circ = Circuit(2, (Gate("RX", (1,), 0.7),))
        np.testing.assert_allclose(circ.unitary(), embed(rx(0.7), [1], 2),
                                   atol=1e-14)

    def test_order_left_to_right(self):
        circ = Circuit(1, (Gate("RX", (0,), 0.5), Gate("RZ", (0,), 0.3)))
        np.testing.assert_allclose(circ.unitary(), rz(0.3) @ rx(0.5), atol=1e-14)

    def test_cz_diagonal(self):
        circ = Circuit(3, (Gate("CZ", (0, 2)),))
        np.testing.assert_allclose(circ.unitary(), embed(CZ, [0, 2], 3), atol=1e-14)

    def test_inverse_roundtrip(self):
        circ = Circuit(2, (Gate("RX", (0,), 1.1), Gate("CZ", (0, 1)),
                           Gate("RZ", (1,), -0.4), Gate("RY", (0,), 2.2)))
        ident = circ.unitary() @ circ.inverse().unitary()
        np.testing.assert_allclose(ident, np.eye(4), atol=1e-13)
        # inverse is applied after, so compose the other way around
        ident2 = Circuit(2, circ.gates + circ.inverse().gates).unitary()
        np.testing.assert_allclose(ident2, np.eye(4), atol=1e-13)

    @staticmethod
    def _random_circuit(rng, n):
        names = ["RX", "RY", "RZ", "X"] + (["CZ"] if n > 1 else [])
        gates = []
        for _ in range(int(rng.integers(0, 30))):
            name = str(rng.choice(names))
            if name == "CZ":
                gates.append(Gate(name, tuple(int(q) for q in
                                              rng.choice(n, 2, replace=False))))
            elif name == "X":
                gates.append(Gate(name, (int(rng.integers(n)),)))
            else:
                gates.append(Gate(name, (int(rng.integers(n)),),
                                  rng.uniform(-2 * math.pi, 2 * math.pi)))
        return Circuit(n, tuple(gates))

    def test_equals_full_register_products(self):
        # applying each gate on its own axes gives exactly the matrix of
        # the embed-and-multiply reference, entry for entry
        fixed = [
            Circuit(1, ()),
            Circuit(3, ()),
            Circuit(1, (Gate("RX", (0,), 0.3), Gate("X", (0,)),
                        Gate("RZ", (0,), -1.2), Gate("RY", (0,), 2.5))),
            Circuit(3, (Gate("RY", (2,), 0.9), Gate("CZ", (2, 0)),
                        Gate("RX", (0,), 0.4), Gate("CZ", (1, 0)),
                        Gate("X", (1,)), Gate("CZ", (0, 2)))),
        ]
        rng = np.random.default_rng(2024)
        randoms = [self._random_circuit(rng, n) for n in range(1, 6)
                   for _ in range(40)]
        for circ in fixed + randoms:
            assert np.array_equal(circ.unitary(), circuit_unitary(circ)), circ


    def test_equals_tensordot_form(self):
        # the row-sign CZ and the 2x2 product on a reshaped view give the
        # tensordot contraction's matrix bit for bit
        rng = np.random.default_rng(31)
        circuits = [self._random_circuit(rng, n) for n in range(2, 6)
                    for _ in range(40)]
        assert {g.name for c in circuits for g in c.gates} == \
            {"RX", "RY", "RZ", "X", "CZ"}
        for circ in circuits:
            assert np.array_equal(circ.unitary(),
                                  circuit_unitary_by_axes(circ)), circ


class TestSerialization:
    def test_roundtrip_exact(self):
        circ = Circuit(3, (
            Gate("RX", (0,), 0.1234567890123456789),
            Gate("CZ", (1, 2)),
            Gate("RY", (0,), -math.pi / 7),
            Gate("X", (2,)),
        ))
        text = circ.serialize()
        back = Circuit.deserialize(text, 3)
        assert back == circ
        np.testing.assert_allclose(back.unitary(), circ.unitary(), atol=0)

    def test_line_format(self):
        circ = Circuit(2, (Gate("CZ", (0, 1)), Gate("RX", (0,), 0.5)))
        lines = circ.serialize().splitlines()
        assert lines[0] == "CZ 0,1"
        assert lines[1].startswith("RX 0 0.5")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            Circuit.deserialize("CZ 0,1\nBOGUS\n", 2)

    def test_comments_and_blanks_skipped(self):
        circ = Circuit.deserialize("# header\n\nX 0\n", 1)
        assert len(circ.gates) == 1


class TestHelpers:
    def test_remap(self):
        circ = Circuit(2, (Gate("CZ", (0, 1)), Gate("RX", (1,), 0.2)))
        big = remapped(circ, {0: 2, 1: 4}, 5)
        assert big.gates[0].qubits == (2, 4)
        assert big.n_qubits == 5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Circuit(1, (Gate("CZ", (0, 1)),))


def test_numpy_parameters_serialize_as_plain_floats():
    circ = Circuit(1, (Gate("RX", (np.int64(0),), np.float64(1.25)),))
    text = circ.serialize()
    assert text == "RX 0 1.25\n"
    assert Circuit.deserialize(text, 1) == circ


def test_describe_reports_angles_in_pi():
    circ = Circuit(2, (Gate("RX", (0,), math.pi / 2), Gate("CZ", (0, 1))))
    text = circ.describe()
    assert "+0.500000pi" in text
    assert "CZ 0,1" in text
