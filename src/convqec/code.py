"""Finite-length truncation of the rate-1/5 convolutional stabilizer code.

A code with N logical qubits lives on n = 5N+2 physical qubits.  Its 4N+2
stabilizer generators are, in order:

    boundary   XZ            on qubits 1..2
    block i    ZXXZ          on qubits 5i+j .. 5i+j+3   (i = 0..N-1, j = 1..4)
    boundary   ZX            on qubits 5N+1..5N+2

Logical qubit i sits at physical position 5i+1; its logical operators act on
the six-qubit window 5(i-1)+1 .. 5(i-1)+6 with patterns IZIXIZ (logical X)
and IZZZZZ (logical Z), so consecutive logical pairs are shifted by five
qubits and the logical Z covers the information position.  All interfaces
speak 1-based qubit positions.

A code is its two support tables, which :func:`build_code` fills in O(N).
What materialises n-bit operators stays desk-scale: :func:`verify_code`,
:func:`in_stabilizer`, :func:`describe` and the first read of ``generators``,
``logical_x`` or ``logical_z``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2
from .pauli import Pauli, SupportTable, code_rows, commutation_bits, paulis_from_table, pauli_from_string
from .pauli import support_table

BLOCK_GENERATOR = "ZXXZ"
START_GENERATOR = "XZ"
END_GENERATOR = "ZX"
LOGICAL_X_PATTERN = "IZIXIZ"
LOGICAL_Z_PATTERN = "IZZZZZ"


@dataclass(frozen=True)
class ConvolutionalCode:
    """Support tables of the truncated code, immutable; the operators as
    n-bit Paulis are built from them on first read."""

    blocks: int
    generator_table: SupportTable
    logical_table: SupportTable  # X1, Z1, X2, Z2, ...

    @property
    def n(self) -> int:
        return self.generator_table.n

    @property
    def info_positions(self) -> tuple[int, ...]:
        return tuple(range(6, 5 * self.blocks + 2, 5))

    @cached_property
    def generators(self) -> tuple[Pauli, ...]:
        return paulis_from_table(self.generator_table)

    @cached_property
    def logical_x(self) -> tuple[Pauli, ...]:
        return paulis_from_table(self.logical_table)[0::2]

    @cached_property
    def logical_z(self) -> tuple[Pauli, ...]:
        return paulis_from_table(self.logical_table)[1::2]


@dataclass(frozen=True)
class Syndrome:
    """Commutation bits of an error against each generator, in generator order.

    Bit 1 means the corresponding stabilizer measurement would yield -1.
    """

    bits: tuple[int, ...]

    def __iter__(self):
        return iter(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_string(cls, s: str) -> "Syndrome":
        if set(s) - {"0", "1"}:
            raise ValueError(f"syndrome string must be over 0/1, got {s!r}")
        return cls(tuple(int(c) for c in s))


def _check_count(name: str, value) -> None:
    """Reject a count that is not an integer or is below 1: ``True`` would
    run once and be reported as True, and a float would fail inside numpy."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def build_code(blocks: int) -> ConvolutionalCode:
    """Instantiate the code with ``blocks`` logical qubits (n = 5*blocks + 2)."""
    _check_count("block count", blocks)
    n, starts = 5 * blocks + 2, 5 * np.arange(blocks)
    patterns = [pauli_from_string(s) for s in (START_GENERATOR, BLOCK_GENERATOR, END_GENERATOR)]
    block_offsets = (starts[:, None] + np.arange(4)).ravel()  # ZXXZ from qubits 5i+1..5i+4
    generators = support_table(patterns, n, [[0], block_offsets, [5 * blocks]])
    logicals = [pauli_from_string(LOGICAL_X_PATTERN), pauli_from_string(LOGICAL_Z_PATTERN)]
    return ConvolutionalCode(blocks, generators, support_table(logicals, n, [starts, starts]))


def symplectic_vector(p: Pauli) -> int:
    """Bit-packed [x | z] row used for GF(2) rank and membership tests."""
    return p.x | (p.z << p.n)


def _generator_basis(code: ConvolutionalCode) -> gf2.RowBasis:
    basis = gf2.RowBasis()
    for g in code.generators:
        basis.add(symplectic_vector(g))
    return basis


@dataclass(frozen=True)
class CodeReport:
    """Outcome of the exhaustive algebraic checks on a code instance."""

    generator_commutation: bool
    generator_rank: int
    logical_conditions: dict[str, bool]
    encoded_dimension_exponent: int

    def all_passed(self, code: ConvolutionalCode) -> bool:
        return (
            self.generator_commutation
            and self.generator_rank == len(code.generators)
            and self.encoded_dimension_exponent == code.blocks
            and all(self.logical_conditions.values())
        )


def verify_code(code: ConvolutionalCode) -> CodeReport:
    """Check generator commutation/independence and every logical-pair relation."""
    commute = commutation_bits(code_rows(code.generators), code.generator_table)
    generator_commutation = not commute.any()

    basis = _generator_basis(code)
    generator_rank = basis.rank
    exponent = code.n - generator_rank

    conditions: dict[str, bool] = {}
    N = code.blocks
    logicals = code.logical_x + code.logical_z
    rows = code_rows(logicals)
    labels = [f"X{i + 1}" for i in range(N)] + [f"Z{i + 1}" for i in range(N)]
    vs_gens = commutation_bits(rows, code.generator_table)
    for lbl, row, op in zip(labels, vs_gens, logicals):
        conditions[f"{lbl} commutes with generators"] = not row.any()
        conditions[f"{lbl} outside stabilizer"] = not basis.contains(symplectic_vector(op))
    # [a, j, k]: logical a (X1..XN, Z1..ZN) against X_{j+1} (k = 0) or Z_{j+1} (k = 1)
    pairwise = commutation_bits(rows, code.logical_table).reshape(2 * N, N, 2)
    for i in range(N):
        for j in range(i + 1, N):
            conditions[f"[X{i + 1},X{j + 1}] commute"] = pairwise[i, j, 0] == 0
            conditions[f"[Z{i + 1},Z{j + 1}] commute"] = pairwise[N + i, j, 1] == 0
    for i in range(N):
        for j in range(N):
            if i == j:
                conditions[f"X{i + 1} anticommutes Z{i + 1}"] = pairwise[i, j, 1] == 1
            else:
                conditions[f"[X{i + 1},Z{j + 1}] commute"] = pairwise[i, j, 1] == 0

    return CodeReport(generator_commutation, generator_rank, conditions, exponent)


def syndrome_of(code: ConvolutionalCode, e: Pauli) -> Syndrome:
    """Syndrome of an error: one commutation bit per generator, in order."""
    if e.n != code.n:
        raise ValueError(f"error acts on {e.n} qubits, code has {code.n}")
    return Syndrome(tuple(commutation_bits(code_rows([e]), code.generator_table)[0].tolist()))


def in_stabilizer(code: ConvolutionalCode, p: Pauli) -> bool:
    """Phase-free membership of ``p`` in the stabilizer group's row space."""
    if p.n != code.n:
        raise ValueError(f"operator acts on {p.n} qubits, code has {code.n}")
    return _generator_basis(code).contains(symplectic_vector(p))


def logical_action(code: ConvolutionalCode, p: Pauli) -> tuple[int, ...]:
    """Commutation bits of a zero-syndrome operator against X1,Z1,...,XN,ZN.

    All-zero exactly when p is a stabilizer element; a set bit against a
    logical operator means p acts as the conjugate logical on that qubit.
    """
    if any(syndrome_of(code, p).bits):
        raise ValueError("logical_action requires a zero-syndrome operator")
    return tuple(commutation_bits(code_rows([p]), code.logical_table)[0].tolist())


def min_logical_weight_probe(code: ConvolutionalCode, max_weight: int) -> int | None:
    """Smallest weight <= max_weight of a zero-syndrome operator with nonzero
    logical action, by exhaustive enumeration; None if no such operator exists.

    Intended for desk-scale codes only (the candidate count grows as
    (3n)^max_weight); max_weight is capped at 3.  Candidates are checked as
    rows of one code matrix per chunk of support sets.
    """
    if max_weight > 3:
        raise ValueError("probe supports max_weight <= 3 only")
    for w in range(1, max_weight + 1):
        letters = np.array(list(itertools.product((1, 2, 3), repeat=w)), dtype=np.uint8)
        supports = itertools.combinations(range(code.n), w)
        while chunk := list(itertools.islice(supports, 1024)):
            at = np.array(chunk)[:, None]  # (supports, 1, w)
            candidates = np.zeros((len(at), len(letters), code.n), dtype=np.uint8)
            np.put_along_axis(candidates, at, letters[None], axis=2)
            candidates = candidates.reshape(-1, code.n)
            silent = ~commutation_bits(candidates, code.generator_table).any(axis=1)
            if commutation_bits(candidates[silent], code.logical_table).any():
                return w
    return None


def describe(code: ConvolutionalCode) -> dict:
    """JSON-ready description: sizes plus generator and logical strings."""
    return {
        "blocks": code.blocks,
        "n": code.n,
        "generators": [str(g) for g in code.generators],
        "logical_x": [str(p) for p in code.logical_x],
        "logical_z": [str(p) for p in code.logical_z],
        "info_positions": list(code.info_positions),
    }
