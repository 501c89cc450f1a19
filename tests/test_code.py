"""Tests for the convolutional code construction and its algebraic checks."""

import numpy as np
import pytest

from convqec import code as code_module
from convqec.code import (
    ConvolutionalCode,
    Syndrome,
    build_code,
    describe,
    in_stabilizer,
    logical_action,
    min_logical_weight_probe,
    syndrome_of,
    verify_code,
)
from convqec.pauli import (
    Pauli,
    identity,
    multiply,
    pauli_from_string,
    paulis_from_table,
    shift,
    support_table,
)

N1_GENERATORS = ["XZIIIII", "ZXXZIII", "IZXXZII", "IIZXXZI", "IIIZXXZ", "IIIIIZX"]


def test_build_code_single_block_generators():
    code = build_code(1)
    assert code.n == 7
    assert [str(g) for g in code.generators] == N1_GENERATORS


def test_build_code_single_block_logicals():
    code = build_code(1)
    assert str(code.logical_x[0]) == "IZIXIZI"
    assert str(code.logical_z[0]) == "IZZZZZI"
    assert code.info_positions == (6,)


@pytest.mark.parametrize("blocks, match", [
    (True, "block count must be an integer, got True"),
    (1.0, "block count must be an integer, got 1.0"),
    ("2", "block count must be an integer, got '2'"),
    (0, "block count must be >= 1, got 0"),
])
def test_build_code_rejects_bad_block_counts_by_name(blocks, match):
    with pytest.raises(ValueError, match=match):
        build_code(blocks)


def test_build_code_accepts_numpy_integer_block_count():
    assert build_code(np.int64(2)).n == build_code(2).n == 12


def test_deprecation_warnings_fail_the_suite():
    """pyproject.toml turns DeprecationWarning into an error, so a numpy
    deprecation anywhere in the supported range fails the tests."""
    import warnings

    with pytest.raises(DeprecationWarning):
        warnings.warn("deprecated", DeprecationWarning)


def test_build_code_counts():
    code = build_code(3)
    assert (len(code.generators), code.n, len(code.logical_x)) == (14, 17, 3)
    assert code.info_positions == (6, 11, 16)


def _shifted_operators(blocks):
    """The code's operators built one by one, each pattern shifted into place:
    the reference that build_code's pattern placement must reproduce."""
    n = 5 * blocks + 2
    block = pauli_from_string("ZXXZ")
    generators = [shift(pauli_from_string("XZ"), 0, n)]
    generators += [shift(block, 5 * i + j, n) for i in range(blocks) for j in range(4)]
    generators.append(shift(pauli_from_string("ZX"), 5 * blocks, n))
    logical_x = [shift(pauli_from_string("IZIXIZ"), 5 * i, n) for i in range(blocks)]
    logical_z = [shift(pauli_from_string("IZZZZZ"), 5 * i, n) for i in range(blocks)]
    return generators, logical_x, logical_z


@pytest.mark.parametrize("blocks", [1, 2, 3, 7, 50, 300])
def test_build_code_tables_match_shifted_operators(blocks):
    generators, logical_x, logical_z = _shifted_operators(blocks)
    n = 5 * blocks + 2
    expected = (support_table(generators, n),
                support_table([op for pair in zip(logical_x, logical_z) for op in pair], n))
    code = build_code(blocks)
    for got, want in zip((code.generator_table, code.logical_table), expected):
        assert got.n == want.n == n
        for a, b in ((got.qubits, want.qubits), (got.swapped, want.swapped)):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    assert code == ConvolutionalCode(blocks, *expected)
    strings = {"generators": [str(g) for g in generators],
               "logical_x": [str(p) for p in logical_x],
               "logical_z": [str(p) for p in logical_z]}
    info = [5 * i + 1 for i in range(1, blocks + 1)]
    assert describe(code) == {"blocks": blocks, "n": n, **strings, "info_positions": info}
    assert (code.n, code.info_positions) == (n, tuple(info))
    assert code.generators == tuple(generators)
    assert (code.logical_x, code.logical_z) == (tuple(logical_x), tuple(logical_z))


def test_logicals_are_built_once(monkeypatch):
    """Reading logical_x and logical_z builds the 2N logical Paulis once."""
    calls = []

    def counting(table):
        calls.append(table)
        return paulis_from_table(table)

    monkeypatch.setattr(code_module, "paulis_from_table", counting)
    code = build_code(7)
    _, logical_x, logical_z = _shifted_operators(7)
    assert (code.logical_x, code.logical_z) == (tuple(logical_x), tuple(logical_z))
    assert code.logical_x == tuple(logical_x)
    assert len(calls) == 1 and calls[0] is code.logical_table


def test_code_equality_and_hash_compare_tables():
    assert build_code(4) == build_code(4)
    assert hash(build_code(4)) == hash(build_code(4))
    assert build_code(4) != build_code(5)
    code = build_code(2)
    generators = list(code.generators)
    g = generators[2]
    generators[2] = Pauli(g.n, g.x ^ 1, g.z)
    assert ConvolutionalCode(code.blocks, support_table(generators, code.n), code.logical_table) != code
    assert ConvolutionalCode(code.blocks, support_table(code.generators, code.n), code.logical_table) == code


def test_build_code_rejects_zero_blocks():
    with pytest.raises(ValueError):
        build_code(0)


@pytest.mark.parametrize("blocks", [1, 2, 3, 5, 8, 16, 40])
def test_verify_code_passes(blocks):
    code = build_code(blocks)
    report = verify_code(code)
    assert report.all_passed(code)
    assert report.generator_rank == 4 * blocks + 2
    assert report.encoded_dimension_exponent == blocks


def test_verify_code_detects_mutation():
    code = build_code(2)
    generators = list(code.generators)
    g = generators[2]
    generators[2] = Pauli(g.n, g.x ^ 1, g.z)  # flip one x bit of the third generator
    mutated = ConvolutionalCode(code.blocks, support_table(generators, code.n), code.logical_table)
    report = verify_code(mutated)
    assert not report.generator_commutation
    assert not report.all_passed(mutated)


def test_syndrome_identity_is_zero():
    code = build_code(2)
    assert syndrome_of(code, identity(code.n)).bits == (0,) * 10


def test_syndrome_single_x_and_y():
    code = build_code(1)
    x1 = pauli_from_string("XIIIIII")
    y1 = pauli_from_string("YIIIIII")
    assert syndrome_of(code, x1).bits == (0, 1, 0, 0, 0, 0)
    assert syndrome_of(code, y1).bits == (1, 1, 0, 0, 0, 0)


def test_syndrome_dimension_error():
    with pytest.raises(ValueError):
        syndrome_of(build_code(1), identity(8))


def test_syndrome_is_linear():
    code = build_code(3)
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = Pauli(code.n, int(rng.integers(0, 1 << code.n)), int(rng.integers(0, 1 << code.n)))
        b = Pauli(code.n, int(rng.integers(0, 1 << code.n)), int(rng.integers(0, 1 << code.n)))
        combined = syndrome_of(code, multiply(a, b)).bits
        parts = tuple(x ^ y for x, y in zip(syndrome_of(code, a).bits, syndrome_of(code, b).bits))
        assert combined == parts


def test_in_stabilizer_members_and_nonmembers():
    code = build_code(2)
    for g in code.generators:
        assert in_stabilizer(code, g)
    assert in_stabilizer(code, multiply(code.generators[1], code.generators[3]))
    assert not in_stabilizer(code, code.logical_x[0])
    assert not in_stabilizer(code, code.logical_z[1])


def test_in_stabilizer_random_products():
    code = build_code(3)
    rng = np.random.default_rng(17)
    for _ in range(30):
        acc = identity(code.n)
        for g in code.generators:
            if rng.integers(0, 2):
                acc = multiply(acc, g)
        assert in_stabilizer(code, acc)
        spoiled = multiply(acc, code.logical_x[int(rng.integers(0, code.blocks))])
        assert not in_stabilizer(code, spoiled)


def test_logical_action_examples():
    code = build_code(2)
    assert logical_action(code, code.generators[2]) == (0, 0, 0, 0)
    # bits are ordered (X1, Z1, X2, Z2): a logical Z flips the X1 bit and vice versa
    assert logical_action(code, code.logical_z[0]) == (1, 0, 0, 0)
    assert logical_action(code, code.logical_x[0]) == (0, 1, 0, 0)
    assert logical_action(code, code.logical_x[1]) == (0, 0, 0, 1)


def test_logical_action_requires_zero_syndrome():
    code = build_code(1)
    with pytest.raises(ValueError):
        logical_action(code, pauli_from_string("XIIIIII"))


def test_min_logical_weight_probe():
    assert min_logical_weight_probe(build_code(1), 1) is None
    assert min_logical_weight_probe(build_code(2), 3) == 3


def test_probe_rejects_large_weight():
    with pytest.raises(ValueError):
        min_logical_weight_probe(build_code(1), 4)


@pytest.mark.parametrize("blocks", [1, 2, 4, 6])
def test_block_generators_touch_past_only_at_boundary_pair(blocks):
    """The four generators of block i intersect qubits 1..5i+2 only at
    positions 5i+1 and 5i+2; this locality is what the decoder relies on."""
    code = build_code(blocks)
    for i in range(blocks):
        past = set(range(1, 5 * i + 3))
        boundary = {5 * i + 1, 5 * i + 2}
        for j in range(1, 5):
            g = code.generators[4 * i + j]
            assert set(g.support()) & past <= boundary


def test_describe_contents():
    code = build_code(2)
    doc = describe(code)
    assert doc["blocks"] == 2 and doc["n"] == 12
    assert doc["generators"][0] == "XZIIIIIIIIII"
    assert len(doc["generators"]) == 10
    assert doc["logical_x"][1].startswith("IIIII")
    assert doc["info_positions"] == [6, 11]


def test_syndrome_string_round_trip():
    syn = Syndrome((0, 1, 1, 0, 0, 0))
    assert Syndrome.from_string(syn.as_string()) == syn
    assert len(syn) == 6 and list(syn) == [0, 1, 1, 0, 0, 0]
    with pytest.raises(ValueError):
        Syndrome.from_string("01a")


def test_in_stabilizer_rejects_other_qubit_counts():
    with pytest.raises(ValueError, match="operator acts on 6 qubits, code has 7"):
        in_stabilizer(build_code(1), identity(6))
