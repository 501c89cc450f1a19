"""Tests for the layered encoder/decoder circuits and error propagation."""

import itertools

import pytest

from convqec.circuits import (
    LayeredCircuit,
    build_decoding_circuit,
    build_encoding_circuit,
    export_circuit,
    gates_commute,
    max_error_spread,
    propagate_error,
    support_window,
    verify_layer_commutation,
)
from convqec.code import build_code
from convqec.pauli import pauli_from_codes, pauli_from_string
from convqec.tableau import CliffordGate, StabilizerTableau, gate_cx, gate_cz


def _encoded_tableau(code, pattern):
    bits = [0] * code.n
    for pos, bit in zip(code.info_positions, pattern):
        bits[pos - 1] = bit
    t = StabilizerTableau.from_bits(bits)
    t.apply_gates(build_encoding_circuit(code.blocks).gates())
    return t


@pytest.mark.parametrize("blocks", [1, 2, 3, 7])
def test_six_layers(blocks):
    assert len(build_encoding_circuit(blocks).layers) == 6
    assert len(build_decoding_circuit(blocks).layers) == 6


@pytest.mark.parametrize("blocks, match", [
    (True, "block count must be an integer, got True"),
    (2.0, "block count must be an integer, got 2.0"),
    (0, "block count must be >= 1, got 0"),
])
def test_encoding_circuit_rejects_bad_block_counts_by_name(blocks, match):
    with pytest.raises(ValueError, match=match):
        build_encoding_circuit(blocks)


def test_gate_count_is_linear_in_blocks():
    counts = [build_encoding_circuit(b).gate_count() for b in range(1, 6)]
    steps = {b - a for a, b in zip(counts, counts[1:])}
    assert len(steps) == 1  # constant gates per extra block


def test_encoder_contract_one_block():
    code = build_code(1)
    t = _encoded_tableau(code, [0])
    solver = t.solver()
    for g in code.generators:
        assert solver.sign_of(g) == 0
    assert solver.sign_of(code.logical_z[0]) == 0

    t = _encoded_tableau(code, [1])
    solver = t.solver()
    for g in code.generators:
        assert solver.sign_of(g) == 0
    assert solver.sign_of(code.logical_z[0]) == 1


def test_encoder_contract_three_blocks_mixed_pattern():
    code = build_code(3)
    solver = _encoded_tableau(code, [1, 0, 1]).solver()
    assert [solver.sign_of(lz) for lz in code.logical_z] == [1, 0, 1]
    assert all(solver.sign_of(g) == 0 for g in code.generators)


@pytest.mark.parametrize("blocks", [1, 2, 4])
def test_encoder_contract_exhaustive_small(blocks):
    code = build_code(blocks)
    for pattern in itertools.product((0, 1), repeat=blocks):
        solver = _encoded_tableau(code, list(pattern)).solver()
        assert all(solver.sign_of(g) == 0 for g in code.generators)
        assert tuple(solver.sign_of(lz) for lz in code.logical_z) == pattern


def test_decoding_restores_initial_tableau():
    code = build_code(2)
    bits = [0] * code.n
    bits[code.info_positions[0] - 1] = 1
    t = StabilizerTableau.from_bits(bits)
    reference = t.dump()
    t.apply_gates(build_encoding_circuit(2).gates())
    t.apply_gates(build_decoding_circuit(2).gates())
    assert t.dump() == reference


def test_decoding_circuit_is_reversed_encoding():
    enc = build_encoding_circuit(3)
    dec = build_decoding_circuit(3)
    assert dec.layers == tuple(reversed(enc.layers))


@pytest.mark.parametrize("blocks", [1, 2, 4, 8])
def test_layer_commutation(blocks):
    assert verify_layer_commutation(build_encoding_circuit(blocks))
    assert verify_layer_commutation(build_decoding_circuit(blocks))


def test_layer_commutation_negative_control():
    bad = LayeredCircuit(3, ((gate_cx(1, 2), gate_cx(2, 3)),))
    assert not verify_layer_commutation(bad)
    assert verify_layer_commutation(LayeredCircuit(3, ()))


def test_gates_commute_cases():
    assert gates_commute(gate_cz(1, 2), gate_cz(2, 3))          # diagonal overlap
    assert gates_commute(gate_cx(1, 2), gate_cx(1, 3))          # shared control
    assert not gates_commute(gate_cx(1, 2), gate_cx(2, 3))      # target feeds control
    assert not gates_commute(gate_cx(1, 2), gate_cz(2, 3))      # flip vs diagonal
    assert gates_commute(gate_cx(1, 2), gate_cz(3, 4))          # disjoint
    assert not gates_commute(CliffordGate("X", (1,)), gate_cz(1, 2))  # X1 picks up Z2
    assert gates_commute(CliffordGate("Z", (1,)), gate_cz(1, 2))      # both diagonal
    assert not gates_commute(CliffordGate("Z", (2,)), gate_cx(1, 2))  # sign of X1 X2
    assert gates_commute(CliffordGate("X", (2,)), gate_cx(1, 2))      # X on the target


def test_propagate_identity():
    circuit = build_decoding_circuit(2)
    e = pauli_from_codes([0] * circuit.n)
    assert propagate_error(circuit, e, 0) == e


def test_propagate_through_cz():
    circuit = LayeredCircuit(3, ((gate_cz(1, 2),),))
    out = propagate_error(circuit, pauli_from_string("XII"), 0)
    assert str(out) == "XZI"


def test_propagate_layer_index_bounds():
    circuit = build_encoding_circuit(1)
    with pytest.raises(ValueError):
        propagate_error(circuit, pauli_from_string("I" * 7), 7)
    # inserting after the final layer leaves the error untouched
    e = pauli_from_string("IIXIIII")
    assert propagate_error(circuit, e, len(circuit.layers)) == e


def test_propagate_through_pauli_gates_and_past_qubit_count():
    # a Pauli gate only flips signs, which a phase-free error does not carry
    flips = LayeredCircuit(2, ((CliffordGate("X", (1,)), CliffordGate("Z", (2,))),))
    assert str(propagate_error(flips, pauli_from_string("YX"), 0)) == "YX"
    too_wide = LayeredCircuit(2, ((gate_cx(1, 3),),))
    with pytest.raises(ValueError, match="exceeds qubit count"):
        propagate_error(too_wide, pauli_from_string("XI"), 0)


def test_max_error_spread_empty_circuit():
    assert max_error_spread(LayeredCircuit(4, ())) == 1


def test_max_error_spread_constant_over_lengths():
    spreads = {b: max_error_spread(build_decoding_circuit(b)) for b in (2, 4, 8)}
    assert len(set(spreads.values())) == 1
    # golden value, measured once: no single fault ever spreads past 7 qubits
    assert spreads[2] == 7


def test_support_window_is_two():
    for blocks in (1, 3, 9):
        assert support_window(build_encoding_circuit(blocks)) == 2
        assert support_window(build_decoding_circuit(blocks)) == 2


N1_ENCODER_EXPORT = """\
H 1
H 2
H 3
H 4
H 5
H 7

CZ 1 2
CZ 7 6

CX 5 6
CZ 5 7

CX 4 5
CZ 4 6

CX 3 4
CZ 3 5

CX 2 3
CZ 2 4
"""


def test_export_golden_and_stable():
    enc = build_encoding_circuit(1)
    text = export_circuit(enc)
    assert text == N1_ENCODER_EXPORT
    assert export_circuit(build_encoding_circuit(1)) == text
    dec_sections = export_circuit(build_decoding_circuit(1)).strip().split("\n\n")
    assert dec_sections == list(reversed(text.strip().split("\n\n")))


def test_encoded_state_sign_table_golden():
    """Row-level dump of the encoded two-block state is stable."""
    code = build_code(2)
    t = _encoded_tableau(code, [1, 0])
    dump = t.dump()
    assert dump[0] == "+XZIIIIIIIII" + "I"
    assert "-" + str(code.logical_z[0]) in dump
    assert "+" + str(code.logical_z[1]) in dump
    for g in code.generators:
        assert "+" + str(g) in dump
