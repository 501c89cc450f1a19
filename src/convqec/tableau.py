"""Signed stabilizer tableau: the one home of the Clifford conjugation rules.

Each row is a signed Pauli operator on n qubits, stored as bit vectors
(x, z) plus a phase exponent p mod 4, encoding

    i^p  *  prod_q X_q^{x_q} Z_q^{z_q}     (per-qubit XZ order).

With the convention Y := i X Z this is exact, so all conjugation sign rules
below are derivable by reordering X and Z factors; no lookup tables of
special cases are needed.  A row is Hermitian iff p has the same parity as
the number of Y factors, so the externally visible sign is +1 or -1.  The
rows describe a stabilizer state only when they are independent and
commute; as plain rows they also carry a batch of errors through a circuit
in one pass (Aaronson-Gottesman, quant-ph/0406196), which is how
:mod:`convqec.circuits` propagates faults and checks gate commutation.

Conjugation rules (phase increments are mod 4):

    H(q):     swap x_q, z_q;                      p += 2 * x_q * z_q
    CX(c,t):  x_t ^= x_c;  z_c ^= z_t;            p += 0
    CZ(c,t):  z_t ^= x_c;  z_c ^= x_t;            p += 2 * x_c * x_t
    X(q):     p += 2 * z_q          Z(q):  p += 2 * x_q
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .pauli import Pauli, _pack, as_code_matrix, commutation_bits, support_table

GATE_ARITY = {"H": 1, "X": 1, "Z": 1, "CX": 2, "CZ": 2}


@dataclass(frozen=True)
class CliffordGate:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        arity = GATE_ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
        if any(q < 1 for q in self.qubits):
            raise ValueError(f"qubit indices are 1-based, got {self.qubits}")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError("control and target must differ")

    def __str__(self) -> str:
        return " ".join([self.kind] + [str(q) for q in self.qubits])


def gate_h(q: int) -> CliffordGate:
    return CliffordGate("H", (q,))


def gate_cx(control: int, target: int) -> CliffordGate:
    return CliffordGate("CX", (control, target))


def gate_cz(a: int, b: int) -> CliffordGate:
    return CliffordGate("CZ", (a, b))


@dataclass(frozen=True)
class SignedPauli:
    """A Pauli with an explicit +/-1 sign (0 means +1, 1 means -1)."""

    pauli: Pauli
    sign: int = 0

    def __str__(self) -> str:
        return ("-" if self.sign else "+") + str(self.pauli)


class StabilizerTableau:
    """Mutable tableau of signed Pauli rows; callers own their instance.  Change
    the rows only through the ``apply_*`` methods, which drop the cached solver.
    A Pauli error flips signs only, so the GF(2) basis of the rows survives it
    and is shared with copies until a gate changes the rows."""

    def __init__(self, x: np.ndarray, z: np.ndarray, phase: np.ndarray):
        self.x = x
        self.z = z
        self.phase = phase
        self.n = x.shape[1]
        self._solver: GroupSolver | None = None
        self._basis: list = [None]  # [(row ints, RowBasis, codes)] once a solver has built it

    @classmethod
    def from_bits(cls, bits, n: int | None = None) -> "StabilizerTableau":
        """Computational basis state |bits>: stabilizers (-1)^{bits[q]} Z_q."""
        bits = np.asarray(bits, dtype=np.uint8)
        if n is not None and bits.shape[0] != n:
            raise ValueError(f"got {bits.shape[0]} bits for {n} qubits")
        n = bits.shape[0]
        return cls(np.zeros((n, n), dtype=np.uint8), np.eye(n, dtype=np.uint8), 2 * bits.astype(np.int64) % 4)

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> "StabilizerTableau":
        """One +1-signed row per row of a (rows, n) matrix of codes 2*x + z."""
        codes = as_code_matrix(codes)
        x, z = (codes >> 1).astype(np.uint8), (codes & 1).astype(np.uint8)
        return cls(x, z, (x & z).sum(axis=1, dtype=np.int64) % 4)

    def copy(self) -> "StabilizerTableau":
        clone = StabilizerTableau(self.x.copy(), self.z.copy(), self.phase.copy())
        clone._basis = self._basis
        return clone

    def apply_gate(self, gate: CliffordGate) -> None:
        if any(q > self.n for q in gate.qubits):
            raise ValueError(f"gate {gate} exceeds qubit count {self.n}")
        self._solver, self._basis = None, [None]
        if gate.kind == "H":
            q = gate.qubits[0] - 1
            self.phase = (self.phase + 2 * (self.x[:, q] & self.z[:, q])) % 4
            self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()
        elif gate.kind == "CX":
            c, t = (q - 1 for q in gate.qubits)
            self.x[:, t] ^= self.x[:, c]
            self.z[:, c] ^= self.z[:, t]
        elif gate.kind == "CZ":
            c, t = (q - 1 for q in gate.qubits)
            self.phase = (self.phase + 2 * (self.x[:, c] & self.x[:, t])) % 4
            self.z[:, t] ^= self.x[:, c]
            self.z[:, c] ^= self.x[:, t]
        elif gate.kind == "X":
            q = gate.qubits[0] - 1
            self.phase = (self.phase + 2 * self.z[:, q]) % 4
        elif gate.kind == "Z":
            q = gate.qubits[0] - 1
            self.phase = (self.phase + 2 * self.x[:, q]) % 4

    def apply_gates(self, gates) -> None:
        for gate in gates:
            self.apply_gate(gate)

    def apply_pauli_error(self, e: Pauli) -> None:
        """Corrupt the state by a (phase-free) Pauli: flip signs of
        anticommuting rows."""
        if e.n != self.n:
            raise ValueError(f"error acts on {e.n} qubits, tableau has {self.n}")
        anti = commutation_bits(2 * self.x + self.z, support_table([e], self.n))[:, 0]
        self._solver = None  # the basis stays: only the signs change
        self.phase = (self.phase + 2 * anti) % 4

    def _row_ints(self, r: int) -> tuple[int, int]:
        return _pack(self.x[r]), _pack(self.z[r])

    def rows(self) -> list[SignedPauli]:
        y_count = (self.x & self.z).sum(axis=1, dtype=np.int64)
        signs = (self.phase - y_count) % 4 // 2
        return [SignedPauli(Pauli(self.n, *self._row_ints(r)), int(s)) for r, s in enumerate(signs)]

    def dump(self) -> list[str]:
        """Sign-prefixed Pauli strings, one per row (for golden-file tests)."""
        return [str(sp) for sp in self.rows()]

    def solver(self) -> "GroupSolver":
        """Solver over the current rows, reused until the rows next change."""
        if self._solver is None:
            self._solver = GroupSolver(self)
        return self._solver

    def stabilizes(self, sp: SignedPauli) -> bool:
        """True iff the signed operator is a product of the tableau rows."""
        return self.solver().sign_of(sp.pauli) == sp.sign

    def measure_row(self, observable: Pauli) -> int | None:
        """Deterministic measurement outcome of a Pauli observable, or None.

        Returns 0/1 when the observable commutes with every row (outcome
        +1/-1 respectively); returns None when some row anticommutes, i.e.
        the outcome would be random.
        """
        return self.solver().measure(observable)


class GroupSolver:
    """GF(2) solver over a tableau snapshot, reusable for many queries.

    The row-space reduction is done once per set of rows, whatever their
    signs; each query then costs one back-substitution plus a signed product
    of the selected rows.
    """

    def __init__(self, t: StabilizerTableau):
        self.n = t.n
        self.phases: list[int] = t.phase.tolist()
        if t._basis[0] is None:
            rows = [t._row_ints(r) for r in range(t.x.shape[0])]
            basis = gf2.RowBasis()
            for xb, zb in rows:
                basis.add(xb | (zb << self.n))
            t._basis[0] = (rows, basis, 2 * t.x + t.z)
        self.rows, self.basis, self.codes = t._basis[0]

    def sign_of(self, p: Pauli) -> int | None:
        """External sign with which p appears in the row group, else None."""
        if p.n != self.n:
            raise ValueError(f"operator acts on {p.n} qubits, tableau has {self.n}")
        mask = self.basis.combination(p.x | (p.z << self.n))
        if mask is None:
            return None
        x = z = phase = 0
        idx = 0
        while mask:
            if mask & 1:
                rx, rz = self.rows[idx]
                phase = (phase + self.phases[idx] + 2 * (z & rx).bit_count()) % 4
                x ^= rx
                z ^= rz
            mask >>= 1
            idx += 1
        y_count = (x & z).bit_count()
        return ((phase - y_count) % 4) // 2

    def measure(self, observable: Pauli) -> int | None:
        """Sign bit of a row-group member, which commutes with every row of a
        state; None if some row anticommutes."""
        sign = self.sign_of(observable)
        if sign is not None:
            return sign
        if commutation_bits(self.codes, support_table([observable], self.n)).any():
            return None
        raise ValueError("observable commutes with all rows but is outside the group")
