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
"""

from __future__ import annotations

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
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("bit vector extends past the declared qubit count")

    def code_at(self, q: int) -> int:
        """Integer code (2*x + z) of the tensor factor on qubit q (1-based)."""
        return 2 * ((self.x >> (q - 1)) & 1) + ((self.z >> (q - 1)) & 1)

    def codes(self) -> list[int]:
        """Per-qubit codes for qubits 1..n."""
        return (2 * _unpack(self.x, self.n) + _unpack(self.z, self.n)).tolist()

    def support(self) -> list[int]:
        """1-based positions of the non-identity tensor factors."""
        return (np.flatnonzero(_unpack(self.x | self.z, self.n)) + 1).tolist()

    def __mul__(self, other: "Pauli") -> "Pauli":
        return multiply(self, other)

    def __str__(self) -> str:
        return "".join(CODE_CHARS[c] for c in self.codes())


def _pack(bits: np.ndarray) -> int:
    """Integer whose bit q is bits[q].  Converting whole byte strings keeps
    this and :func:`_unpack` linear in n; a shift per qubit is quadratic."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _unpack(value: int, n: int) -> np.ndarray:
    """(n,) uint8 bits of ``value``, bit q at index q."""
    raw = np.frombuffer(value.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


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


def pauli_from_codes(codes) -> Pauli:
    """Build a Pauli from a sequence of per-qubit integer codes (2*x + z)."""
    codes = np.asarray(codes)
    if ((codes < 0) | (codes > 3)).any():
        raise ValueError("Pauli codes must be in 0..3")
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
