"""Phase-free n-qubit Pauli operators over bit-packed GF(2) vectors.

A Pauli operator is stored as two integers whose bits are the x-part and
z-part of each tensor factor: qubit q (1-based) lives at bit q-1.  The
single-qubit mapping is

    I = (x=0, z=0),  X = (1, 0),  Z = (0, 1),  Y = (1, 1),

and global phases are deliberately not represented: P, -P and +/-iP are all
the same value here.  Signed Paulis exist only in :mod:`convqec.tableau`.

Storing bit vectors as Python integers gives word-level XOR/AND/popcount, so
symplectic products and multiplications on ~10^4 qubits cost O(n/64) machine
words.

The commutation rule lives here alone, batched in :func:`commutation_bits`,
which every syndrome, logical action, code check, tableau sign and the oracle
use (:func:`symplectic_product` is the bigint reference for one pair).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

# Per-qubit integer code 2*x + z.  This fixes I < Z < X < Y, the ordering used
# for trellis state indices and deterministic tie-breaking in the decoder.
CODE_CHARS = "IZXY"
_NOT_PAULI = re.compile(f"[^{CODE_CHARS}]")
_X_DIGITS = str.maketrans(CODE_CHARS, "0011")  # the x bit of each letter's code
_Z_DIGITS = str.maketrans(CODE_CHARS, "0101")  # the z bit


@dataclass(frozen=True)
class Pauli:
    """Phase-free Pauli operator on ``n`` qubits.

    ``x`` and ``z`` are bit-packed integers; bit q-1 holds qubit q.
    """

    n: int
    x: int
    z: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        # a shift, not a mask: building (1 << n) - 1 and its complement costs O(n) per operator
        if self.x < 0 or self.z < 0 or self.x >> self.n or self.z >> self.n:
            raise ValueError("bit vector extends past the declared qubit count")

    def codes(self) -> list[int]:
        """Per-qubit codes for qubits 1..n."""
        return code_rows([self])[0].tolist()

    def support(self) -> list[int]:
        """1-based positions of the non-identity tensor factors."""
        return (_sparse(self)[0] + 1).tolist()

    def __mul__(self, other: "Pauli") -> "Pauli":
        return multiply(self, other)

    def __str__(self) -> str:
        return "".join(CODE_CHARS[c] for c in self.codes())


def _pack(bits: np.ndarray) -> int:
    """Integer whose bit q is bits[q].  Converting whole byte strings keeps
    this and :func:`code_rows` linear in n; a shift per qubit is quadratic."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def code_rows(paulis) -> np.ndarray:
    """(len(paulis), n) uint8 per-qubit codes of operators on n qubits, one row each."""
    n, width = paulis[0].n, (paulis[0].n + 7) // 8
    raw = b"".join(v.to_bytes(width, "little") for p in paulis for v in (p.x, p.z))
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(len(paulis), 2, width)
    bits = np.unpackbits(bits, axis=2, count=n, bitorder="little")
    return 2 * bits[:, 0] + bits[:, 1]


def _sparse(p: Pauli) -> tuple[np.ndarray, np.ndarray]:
    """0-based support of ``p`` and its codes, from its first to last non-identity qubit."""
    v = p.x | p.z
    lo = max((v & -v).bit_length() - 1, 0)
    window = code_rows([Pauli(max(v.bit_length() - lo, 1), p.x >> lo, p.z >> lo)])[0]
    at = np.flatnonzero(window)
    return at + lo, window[at]


def identity(n: int) -> Pauli:
    """Identity operator on n qubits."""
    return Pauli(n, 0, 0)


def pauli_from_string(s: str) -> Pauli:
    """Parse an uppercase I/X/Y/Z string; leftmost character is qubit 1."""
    if not s:
        raise ValueError("empty Pauli string")
    bad = _NOT_PAULI.search(s)
    if bad:
        raise ValueError(f"invalid Pauli character {bad.group()!r} at position {bad.start() + 1}")
    digits = s[::-1]  # qubit 1 becomes the least significant binary digit
    return Pauli(len(s), int(digits.translate(_X_DIGITS), 2), int(digits.translate(_Z_DIGITS), 2))


def _are_codes(codes: np.ndarray) -> bool:
    """True iff every entry is an integer code in 0..3: a float would be truncated."""
    return codes.size == 0 or codes.dtype.kind in "biu" and codes.min() >= 0 and codes.max() <= 3


def pauli_from_codes(codes) -> Pauli:
    """Build a Pauli from a sequence of per-qubit integer codes (2*x + z)."""
    codes = np.asarray(codes)
    if not _are_codes(codes):
        raise ValueError("Pauli codes must be integers in 0..3")
    codes = codes.astype(np.uint8, copy=False)
    return Pauli(len(codes), _pack(codes >> 1), _pack(codes & 1))


def _check_same_length(a: Pauli, b: Pauli) -> None:
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} != {b.n}")


def symplectic_product(a: Pauli, b: Pauli) -> int:
    """GF(2) symplectic form: 0 if the operators commute, 1 if they anticommute."""
    _check_same_length(a, b)
    return ((a.x & b.z) ^ (a.z & b.x)).bit_count() & 1


def multiply(a: Pauli, b: Pauli) -> Pauli:
    """Operator product up to global phase: componentwise XOR of bit vectors."""
    _check_same_length(a, b)
    return Pauli(a.n, a.x ^ b.x, a.z ^ b.z)


def weight(p: Pauli) -> int:
    """Number of non-identity tensor factors."""
    return (p.x | p.z).bit_count()


def shift(p: Pauli, k: int, n_total: int) -> Pauli:
    """Embed ``p`` at offset ``k`` into an identity string of ``n_total`` qubits.

    Offset k means p's first qubit lands on qubit k+1.
    """
    if k < 0:
        raise ValueError(f"offset must be nonnegative, got {k}")
    if k + p.n > n_total:
        raise ValueError(f"shift by {k} overflows {n_total} qubits (operator has {p.n})")
    return Pauli(n_total, p.x << k, p.z << k)


@dataclass(frozen=True, eq=False)
class SupportTable:
    """Supports of m operators on n qubits, padded to the largest weight w: slot s
    of operator j is qubit ``qubits[s, j]`` (0-based) and the code of its letter
    with x and z exchanged, ``swapped[s, j, 0]``; padding holds the identity."""

    n: int
    qubits: np.ndarray   # (w, m) intp
    swapped: np.ndarray  # (w, m, 1) uint8

    # a value: equal tables hold equal arrays
    def __eq__(self, other) -> bool:
        return (isinstance(other, SupportTable) and self.n == other.n
                and np.array_equal(self.qubits, other.qubits) and np.array_equal(self.swapped, other.swapped))

    def __hash__(self) -> int:
        return hash((self.n, self.qubits.shape, self.qubits.tobytes(), self.swapped.tobytes()))


def support_table(operators, n: int, offsets=None) -> SupportTable:
    """Table of ``operators``, built from the bytes of each one: O(m * n / 8)
    time and O(m * w) memory, never a dense m x n matrix.  With ``offsets``, one
    sequence per operator, each operator is instead placed with its first qubit
    at each of its 0-based offsets, the columns ordered by offset, ties in operator order."""
    if offsets is None:
        if any(p.n != n for p in operators):
            raise ValueError(f"every operator must act on {n} qubits")
        offsets = [(0,)] * len(operators)
    elif any(np.size(o) and (np.min(o) < 0 or np.max(o) + p.n > n)
             for p, o in zip(operators, offsets, strict=True)):
        raise ValueError(f"every placed operator must lie within {n} qubits")
    sparse = [_sparse(p) for p in operators]
    at = np.concatenate([np.zeros(0, dtype=np.intp), *offsets]).astype(np.intp, copy=False)
    qubits = np.zeros((max((len(q) for q, _ in sparse), default=0), len(at)), dtype=np.intp)
    letters = np.zeros(qubits.shape + (1,), dtype=np.uint8)
    bounds = list(itertools.accumulate(map(len, offsets), initial=0))  # operator j's columns, before sorting
    for (q, c), lo, hi in zip(sparse, bounds, bounds[1:]):
        qubits[:len(q), lo:hi] = q[:, None] + at[lo:hi]
        letters[:len(c), lo:hi, 0] = c[:, None]
    order = np.argsort(at, kind="stable")
    letters = letters[:, order]
    return SupportTable(n, qubits[:, order], ((letters & 1) << 1) | (letters >> 1))


def paulis_from_table(table: SupportTable) -> tuple[Pauli, ...]:
    """The operators of ``table`` as n-qubit Paulis, the inverse of :func:`support_table`."""
    letters = table.swapped[..., 0].T  # x and z exchanged: the x bit is bit 0
    x_bits, z_bits = (letters & 1).tolist(), (letters >> 1).tolist()
    return tuple(Pauli(table.n, sum(b << q for q, b in zip(qs, xs)), sum(b << q for q, b in zip(qs, zs)))
                 for qs, xs, zs in zip(table.qubits.T.tolist(), x_bits, z_bits))


def as_code_matrix(codes, n: int | None = None) -> np.ndarray:
    """``codes`` as an array, checked to be a (rows, n) matrix of integer codes
    in 0..3; any number of columns when ``n`` is None."""
    codes = np.asarray(codes)
    if codes.ndim != 2 or n not in (None, codes.shape[1]) or not _are_codes(codes):
        raise ValueError(f"expected a (rows, {'n' if n is None else n}) matrix of integer codes in 0..3")
    return codes


def commutation_bits(codes, table: SupportTable) -> np.ndarray:
    """(B, m) uint8 commutation bits of each row of a (B, n) code matrix against
    each operator of ``table``, 1 where they anticommute.  The loop runs over
    support slots, each gathering one qubit's column for every operator."""
    codes = as_code_matrix(codes, table.n)
    columns = np.ascontiguousarray(codes.T, dtype=np.uint8)
    # a & swapped(b) holds x_a z_b and z_a x_b: letters a and b anticommute iff
    # its parity is odd, and parities add under XOR, so one parity at the end
    both = np.zeros((table.qubits.shape[1], len(codes)), dtype=np.uint8)
    for qubits, swapped in zip(table.qubits, table.swapped):
        both ^= columns[qubits] & swapped
    return ((both ^ (both >> 1)) & 1).T
