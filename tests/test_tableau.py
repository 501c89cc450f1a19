"""Tests for the signed stabilizer tableau and its group solver."""

import itertools
from functools import reduce

import numpy as np
import pytest

from convqec.circuits import LayeredCircuit, build_encoding_circuit, propagate_error
from convqec.code import build_code, syndrome_of
from convqec.pauli import code_rows, pauli_from_codes, pauli_from_string
from convqec.tableau import (
    CliffordGate,
    GroupSolver,
    SignedPauli,
    StabilizerTableau,
    gate_cx,
    gate_cz,
    gate_h,
)


def test_from_bits_signs():
    t = StabilizerTableau.from_bits([0] * 7)
    assert t.dump() == ["+" + "I" * q + "Z" + "I" * (6 - q) for q in range(7)]
    t = StabilizerTableau.from_bits([0, 0, 0, 0, 0, 1, 0])
    assert t.dump()[5] == "-IIIIIZI"


def test_from_bits_length_check():
    with pytest.raises(ValueError):
        StabilizerTableau.from_bits([0, 1], n=3)


def test_gate_validation():
    with pytest.raises(ValueError):
        CliffordGate("CX", (2, 2))
    with pytest.raises(ValueError):
        CliffordGate("H", (0,))
    with pytest.raises(ValueError):
        CliffordGate("SWAP", (1, 2))
    with pytest.raises(ValueError, match=r"H takes 1 qubit\(s\), got \(1, 2\)"):
        CliffordGate("H", (1, 2))
    with pytest.raises(ValueError, match=r"CX takes 2 qubit\(s\), got \(1,\)"):
        CliffordGate("CX", (1,))


def test_hadamard_conjugation():
    t = StabilizerTableau.from_bits([0])
    t.apply_gate(gate_h(1))
    assert t.dump() == ["+X"]
    t.apply_gate(gate_h(1))
    assert t.dump() == ["+Z"]


def test_hadamard_flips_y_sign():
    t = StabilizerTableau(
        x=np.array([[1]], dtype=np.uint8),
        z=np.array([[1]], dtype=np.uint8),
        phase=np.array([1], dtype=np.int64),  # i * XZ = +Y
    )
    assert t.dump() == ["+Y"]
    t.apply_gate(gate_h(1))
    assert t.dump() == ["-Y"]


def test_cx_conjugation():
    t = StabilizerTableau.from_bits([0, 0])
    t.apply_gate(gate_h(1))  # rows now +XI, +IZ
    t.apply_gate(gate_cx(1, 2))
    assert t.dump() == ["+XX", "+ZZ"]


def test_cz_conjugation():
    t = StabilizerTableau.from_bits([0, 0])
    t.apply_gate(gate_h(1))
    t.apply_gate(gate_cz(1, 2))
    assert t.dump()[0] == "+XZ"


_I2, _P0, _P1 = np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
_X, _Z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
_DENSE_1Q = {"H": (_X + _Z) / np.sqrt(2), "X": _X, "Z": _Z}


def _dense(k, factors):
    """2^k x 2^k tensor product with qubit 1 leftmost; absent qubits get I."""
    return reduce(np.kron, [factors.get(q, _I2) for q in range(1, k + 1)])


def _dense_gate(gate, k):
    if gate.kind in ("CX", "CZ"):
        c, t = gate.qubits
        return _dense(k, {c: _P0}) + _dense(k, {c: _P1, t: _X if gate.kind == "CX" else _Z})
    return _dense(k, {gate.qubits[0]: _DENSE_1Q[gate.kind]})


def _dense_row(x, z, phase):
    """i^phase * prod_q X_q^x_q Z_q^z_q, the operator a tableau row stores."""
    factors = {q + 1: (_X if x[q] else _I2) @ (_Z if z[q] else _I2) for q in range(len(x))}
    return 1j ** int(phase) * _dense(len(x), factors)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_conjugation_rules_match_dense_matrices(k):
    """U P U^dagger for every signed Pauli on k qubits and every gate, from
    dense matrices: apply_gate must give the same row, sign included, and
    propagate_error the same Pauli up to sign."""
    codes = np.array(list(itertools.product(range(4), repeat=k)), dtype=np.uint8)
    gates = [CliffordGate(kind, (q,)) for kind in ("H", "X", "Z") for q in range(1, k + 1)]
    gates += [CliffordGate(kind, pair) for kind in ("CX", "CZ")
              for pair in itertools.permutations(range(1, k + 1), 2)]
    for gate in gates:
        u = _dense_gate(gate, k)
        t = StabilizerTableau.from_codes(np.concatenate([codes, codes]))
        t.phase[len(codes):] += 2  # the same Paulis with sign -1
        t.phase %= 4
        before = [_dense_row(*row) for row in zip(t.x, t.z, t.phase)]
        t.apply_gate(gate)
        for r, m in enumerate(before):
            assert np.allclose(u @ m @ u.conj().T, _dense_row(t.x[r], t.z[r], t.phase[r])), (gate, r)
        circuit = LayeredCircuit(k, ((gate,),))
        for m, row in zip(before, codes):
            out = code_rows([propagate_error(circuit, pauli_from_codes(row), 0)])[0]
            image = _dense_row(out >> 1, out & 1, np.sum((out >> 1) & out))
            assert any(np.allclose(u @ m @ u.conj().T, s * image) for s in (1, -1)), (gate, row)


def test_double_hadamard_is_identity_on_random_circuit_state():
    rng = np.random.default_rng(3)
    t = StabilizerTableau.from_bits(rng.integers(0, 2, 6))
    gates = [gate_h(2), gate_cx(2, 3), gate_cz(1, 4), gate_h(5), gate_cx(5, 6)]
    t.apply_gates(gates)
    before = t.dump()
    t.apply_gate(gate_h(4))
    t.apply_gate(gate_h(4))
    assert t.dump() == before


def test_rows_commute_and_full_rank_after_circuit():
    code = build_code(2)
    t = StabilizerTableau.from_bits([0] * code.n)
    t.apply_gates(build_encoding_circuit(2).gates())
    rows = t.rows()
    from convqec.pauli import symplectic_product

    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            assert symplectic_product(rows[i].pauli, rows[j].pauli) == 0
    solver = t.solver()
    assert solver.basis.rank == code.n


def test_stabilizes_own_rows_and_sign_sensitivity():
    t = StabilizerTableau.from_bits([0, 0, 0])
    for row in t.rows():
        assert t.stabilizes(row)
    z1 = pauli_from_string("ZII")
    assert t.stabilizes(SignedPauli(z1, 0))
    assert not t.stabilizes(SignedPauli(z1, 1))


def test_stabilizes_post_encoding_generator():
    code = build_code(1)
    t = StabilizerTableau.from_bits([0] * 7)
    t.apply_gates(build_encoding_circuit(1).gates())
    assert t.stabilizes(SignedPauli(code.generators[2], 0))
    assert not t.stabilizes(SignedPauli(code.generators[2], 1))


def test_measure_row_on_zero_state():
    t = StabilizerTableau.from_bits([0, 0])
    assert t.measure_row(pauli_from_string("ZI")) == 0
    assert t.measure_row(pauli_from_string("XI")) is None


def test_solver_is_reused_until_the_rows_change():
    t = StabilizerTableau.from_bits([0, 0])
    assert t.solver() is t.solver()
    assert t.measure_row(pauli_from_string("ZI")) == 0
    t.apply_pauli_error(pauli_from_string("XI"))
    assert t.measure_row(pauli_from_string("ZI")) == 1
    t.apply_gate(gate_h(1))
    assert t.measure_row(pauli_from_string("XI")) == 1
    assert t.measure_row(pauli_from_string("ZI")) is None
    assert t.copy().solver() is not t.solver()
    partial = StabilizerTableau.from_codes(np.array([[1, 0]], dtype=np.uint8))  # the one row +ZI
    assert partial.measure_row(pauli_from_string("XI")) is None
    with pytest.raises(ValueError, match="outside the group"):
        partial.measure_row(pauli_from_string("IZ"))


def test_solver_keeps_its_basis_across_pauli_errors():
    """Pauli errors flip signs only: copies of a tableau and their corrupted
    versions reuse one basis until a gate changes the rows, and answer as a
    solver built from scratch does."""
    code = build_code(3)
    base = StabilizerTableau.from_bits([0] * code.n)
    base.apply_gates(build_encoding_circuit(3).gates())
    rng = np.random.default_rng(21)
    probes = [*code.generators, *code.logical_z, *code.logical_x]
    probes += [pauli_from_codes(rng.integers(0, 4, code.n)) for _ in range(20)]
    for trial in range(30):
        t = base.copy()
        for _ in range(int(rng.integers(1, 4))):
            t.apply_pauli_error(pauli_from_codes(rng.integers(0, 4, code.n)))
            t.solver()
        if trial % 5 == 0:
            t.apply_gate(gate_h(int(rng.integers(1, code.n + 1))))
            t.apply_pauli_error(pauli_from_codes(rng.integers(0, 4, code.n)))
        kept = t.solver()
        fresh = GroupSolver(StabilizerTableau(t.x.copy(), t.z.copy(), t.phase.copy()))
        assert (kept.basis is base.solver().basis) == (trial % 5 != 0)
        assert fresh.basis is not kept.basis
        for p in probes:
            assert kept.sign_of(p) == fresh.sign_of(p)
            assert kept.measure(p) == fresh.measure(p)


def test_from_codes_validates_codes():
    for bad in (np.array([[5, 0]]), np.array([[-1, 0]]), np.array([[2.7, 0]]), np.array([1, 0])):
        with pytest.raises(ValueError, match="0..3"):
            StabilizerTableau.from_codes(bad)
    assert StabilizerTableau.from_codes(np.array([[3, 0]])).dump() == ["+YI"]


def test_measure_row_matches_symplectic_syndrome():
    code = build_code(2)
    base = StabilizerTableau.from_bits([0] * code.n)
    base.apply_gates(build_encoding_circuit(2).gates())
    rng = np.random.default_rng(9)
    for _ in range(20):
        codes = [0] * code.n
        for q in rng.choice(code.n, size=2, replace=False):
            codes[q] = int(rng.integers(1, 4))
        err = pauli_from_codes(codes)
        t = base.copy()
        t.apply_pauli_error(err)
        expected = syndrome_of(code, err).bits
        got = tuple(t.measure_row(g) for g in code.generators)
        assert got == expected


def test_measure_row_matches_syndrome_at_larger_length():
    """Weight <= 2 sample at N=8 (the exhaustive sweep at N <= 4 lives in the
    acceptance suite)."""
    code = build_code(8)
    base = StabilizerTableau.from_bits([0] * code.n)
    base.apply_gates(build_encoding_circuit(8).gates())
    rng = np.random.default_rng(14)
    for _ in range(30):
        codes = [0] * code.n
        for q in rng.choice(code.n, size=int(rng.integers(1, 3)), replace=False):
            codes[q] = int(rng.integers(1, 4))
        err = pauli_from_codes(codes)
        t = base.copy()
        t.apply_pauli_error(err)
        solver = t.solver()
        got = tuple(solver.measure(g) for g in code.generators)
        assert got == syndrome_of(code, err).bits


def test_signed_pauli_str():
    assert str(SignedPauli(pauli_from_string("XZ"), 0)) == "+XZ"
    assert str(SignedPauli(pauli_from_string("XZ"), 1)) == "-XZ"


def test_tableau_rejects_operators_on_other_qubit_counts():
    t = StabilizerTableau.from_bits([0, 0, 0])
    with pytest.raises(ValueError, match="error acts on 2 qubits, tableau has 3"):
        t.apply_pauli_error(pauli_from_string("XI"))
    with pytest.raises(ValueError, match="operator acts on 4 qubits, tableau has 3"):
        t.solver().sign_of(pauli_from_string("ZIII"))
