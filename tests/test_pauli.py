"""Tests for the bit-packed phase-free Pauli algebra."""

import numpy as np
import pytest

from convqec.pauli import (
    CODE_CHARS,
    Pauli,
    code_rows,
    commutation_bits,
    identity,
    multiply,
    pauli_from_codes,
    pauli_from_string,
    paulis_from_table,
    shift,
    support_table,
    symplectic_product,
    weight,
)


def test_parse_xz():
    p = pauli_from_string("XZ")
    assert (p.n, p.x, p.z) == (2, 0b01, 0b10)


def test_parse_identity():
    p = pauli_from_string("II")
    assert (p.x, p.z) == (0, 0)


def test_parse_block_generator():
    p = pauli_from_string("ZXXZ")
    assert [(p.x >> q) & 1 for q in range(4)] == [0, 1, 1, 0]
    assert [(p.z >> q) & 1 for q in range(4)] == [1, 0, 0, 1]


def test_parse_rejects_bad_character():
    with pytest.raises(ValueError, match="position 3"):
        pauli_from_string("XZqZ")
    with pytest.raises(ValueError):
        pauli_from_string("")


def test_string_round_trip():
    for s in ("X", "IZIXIZ", "YYZX", "I" * 40):
        assert str(pauli_from_string(s)) == s


def test_single_qubit_code_bijection():
    # I=(0,0), X=(1,0), Z=(0,1), Y=(1,1) under code 2x+z
    expected = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
    for code, ch in enumerate(CODE_CHARS):
        p = pauli_from_codes([code])
        assert expected[ch] == (p.x, p.z)


def test_symplectic_product_basics():
    X = pauli_from_string("X")
    Z = pauli_from_string("Z")
    assert symplectic_product(X, Z) == 1
    assert symplectic_product(identity(1), X) == 0
    assert symplectic_product(identity(1), Z) == 0


def test_symplectic_product_overlapping_generators():
    # two consecutive block generators restricted to their overlap commute
    assert symplectic_product(pauli_from_string("ZXXZ"), pauli_from_string("IZXX")) == 0


def test_symplectic_product_dimension_error():
    with pytest.raises(ValueError):
        symplectic_product(pauli_from_string("X"), pauli_from_string("XX"))


def test_symplectic_product_matches_matrix_commutator():
    """All 16 single-qubit pairs against a dense 2x2 commutator oracle."""
    mats = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    for a in "IXYZ":
        for b in "IXYZ":
            commutes = np.allclose(mats[a] @ mats[b], mats[b] @ mats[a])
            got = symplectic_product(pauli_from_string(a), pauli_from_string(b))
            assert got == (0 if commutes else 1), (a, b)


def test_multiply_examples():
    assert str(multiply(pauli_from_string("Z"), pauli_from_string("X"))) == "Y"
    assert str(multiply(pauli_from_string("XZ"), pauli_from_string("YZ"))) == "ZI"
    for s in ("X", "YZXI", "ZZ"):
        p = pauli_from_string(s)
        assert multiply(p, p) == identity(p.n)


def test_multiply_operator_shortcut():
    assert pauli_from_string("XX") * pauli_from_string("XZ") == pauli_from_string("IY")


def _random_pauli(rng, n):
    return Pauli(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))


def test_symplectic_bilinearity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        a, b, c = (_random_pauli(rng, n) for _ in range(3))
        assert symplectic_product(multiply(a, b), c) == (
            symplectic_product(a, c) ^ symplectic_product(b, c)
        )
        assert symplectic_product(a, b) == symplectic_product(b, a)


def test_multiply_associative_commutative():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        a, b, c = (_random_pauli(rng, n) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, b) == multiply(b, a)


def test_weight_examples():
    assert weight(identity(9)) == 0
    assert weight(pauli_from_string("ZXXZIII")) == 4
    assert weight(pauli_from_string("IZIXIZ")) == 3


def test_shift_examples():
    block = pauli_from_string("ZXXZ")
    assert str(shift(block, 5, 12)) == "IIIIIZXXZIII"
    p = pauli_from_string("YZX")
    assert shift(p, 0, p.n) == p
    assert str(shift(pauli_from_string("X"), 6, 7)) == "IIIIIIX"


def test_shift_preserves_weight():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        p = _random_pauli(rng, n)
        k = int(rng.integers(0, 10))
        assert weight(shift(p, k, n + k + 3)) == weight(p)


def test_shift_overflow():
    with pytest.raises(ValueError):
        shift(pauli_from_string("XX"), 3, 4)
    with pytest.raises(ValueError, match="offset must be nonnegative, got -1"):
        shift(pauli_from_string("X"), -1, 3)


def test_support_and_codes():
    p = pauli_from_string("IZIXIZ")
    assert p.support() == [2, 4, 6]
    assert p.codes() == [0, 1, 0, 2, 0, 1]
    assert p.codes()[3] == 2


def test_large_round_trips_match_codes():
    codes = np.random.default_rng(5).integers(0, 4, 20000)
    p = pauli_from_codes(codes)
    assert p.codes() == codes.tolist()
    assert pauli_from_codes(p.codes()) == p
    assert pauli_from_codes(codes.astype(np.uint8)) == p
    assert pauli_from_string(str(p)) == p
    assert p.support() == (np.flatnonzero(codes) + 1).tolist()


def test_pauli_from_codes_rejects_out_of_range_codes():
    for bad in ([0, 4], [5, 0, 0], [1, -1], np.array([0, 7], dtype=np.uint8), [2.7, 0.5], [1.0, 2.0]):
        with pytest.raises(ValueError, match="0..3"):
            pauli_from_codes(bad)


def test_commutation_bits_match_symplectic_product():
    rng = np.random.default_rng(14)
    n = 37
    ops = [_random_pauli(rng, n) for _ in range(9)] + [identity(n), pauli_from_string("I" * 36 + "Y")]
    errors = [_random_pauli(rng, n) for _ in range(25)] + [identity(n)]
    bits = commutation_bits(code_rows(errors), support_table(ops, n))
    assert bits.dtype == np.uint8
    assert bits.tolist() == [[symplectic_product(e, op) for op in ops] for e in errors]
    assert commutation_bits(np.zeros((0, n), dtype=np.uint8), support_table(ops, n)).shape == (0, 11)
    # a table of identities has no support slots at all
    assert commutation_bits(code_rows(errors), support_table([identity(n)] * 3, n)).tolist() == [[0] * 3] * 26


def test_commutation_bits_validates_code_matrix():
    table = support_table([pauli_from_string("ZXXZ")], 4)
    for bad in (np.zeros((2, 5), dtype=np.uint8), np.zeros(4, dtype=np.uint8), [[0, 1, 4, 0]], [[0, -1, 0, 0]],
                np.full((1, 4), 2.7), np.zeros((2, 4))):
        with pytest.raises(ValueError):
            commutation_bits(bad, table)
    assert commutation_bits(np.zeros((0, 4)), table).shape == (0, 1)  # no rows, no values to truncate
    with pytest.raises(ValueError):
        support_table([pauli_from_string("XX")], 4)


def test_support_table_places_patterns_at_offsets():
    """Placed patterns give the table of the shifted operators, ordered by
    offset with ties in pattern order."""
    xz, y, zxxz = (pauli_from_string(s) for s in ("XZ", "Y", "ZXXZ"))
    placed = support_table([xz, y, zxxz], 9, [[0, 5], np.array([2, 8]), range(0, 6, 5)])
    shifted = [shift(xz, 0, 9), shift(zxxz, 0, 9), shift(y, 2, 9), shift(xz, 5, 9), shift(zxxz, 5, 9),
               shift(y, 8, 9)]
    assert placed == support_table(shifted, 9)
    assert paulis_from_table(placed) == tuple(shifted)
    assert support_table([xz, y], 9, [[], []]).qubits.shape[1] == 0
    for offsets in ([[-1], [0]], [[0], [9]], [[8], [0]]):
        with pytest.raises(ValueError, match="every placed operator must lie within 9 qubits"):
            support_table([xz, y], 9, offsets)
    with pytest.raises(ValueError):
        support_table([xz, y], 9, [[0]])  # one sequence of offsets per operator


def test_paulis_from_table_inverts_support_table():
    rng = np.random.default_rng(21)
    ops = tuple(_random_pauli(rng, 13) for _ in range(20)) + (identity(13), pauli_from_string("I" * 12 + "Y"))
    assert paulis_from_table(support_table(ops, 13)) == ops
    assert paulis_from_table(support_table([identity(4)] * 2, 4)) == (identity(4),) * 2


def test_pauli_rejects_bad_sizes():
    with pytest.raises(ValueError, match="qubit count must be positive, got 0"):
        Pauli(0, 0, 0)
    with pytest.raises(ValueError, match="bit vector extends past the declared qubit count"):
        Pauli(2, 4, 0)


def test_pauli_size_check_accepts_and_rejects_as_before():
    """The bit-length check accepts numpy integers and bools as it always
    did and raises the same ValueErrors for n < 1, negative and overlong vectors."""
    for n, x, z in ((1, 1, 1), (3, np.int64(7), np.uint8(5)), (np.uint8(3), 7, 0), (True, 1, 0),
                    (3, np.True_, False), (200, 1 << 199, (1 << 200) - 1), (64, np.uint64(2 ** 64 - 1), 0)):
        assert (Pauli(n, x, z).x, Pauli(n, x, z).z) == (x, z)
    for n in (0, -1, 0.5):
        with pytest.raises(ValueError, match=f"qubit count must be positive, got {n}"):
            Pauli(n, 0, 0)
    for n, x, z in ((3, 8, 0), (3, 0, 8), (3, -1, 0), (3, 0, -1), (3, np.int64(-1), 0), (np.int32(3), 3, np.int32(8)),
                    (200, 1 << 200, 0), (200, -(1 << 300), 0), (63, np.uint64(2 ** 64 - 1), 0)):
        with pytest.raises(ValueError, match="bit vector extends past the declared qubit count"):
            Pauli(n, x, z)
    for n, x, z in ((2.0, 1, 0), (2, 1.0, 0), (2, "1", 0), (2, None, 0)):
        with pytest.raises(TypeError):
            Pauli(n, x, z)
