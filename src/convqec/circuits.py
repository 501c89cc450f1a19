"""Layered online encoding/decoding circuits and error-propagation analysis.

The encoder is organized as six layers of {H, CX, CZ} gates whose count per
five-qubit block is constant, so the layer count does not grow with the code
length and qubits can be emitted as soon as their gates have fired:

    layer 1   H on every ancilla position
    layer 2   boundary CZs: CZ(1,2), CZ(5i+2, 5i+1) for i >= 1, CZ(n, n-1)
    layer 3   CX(5i+5, 5i+6), CZ(5i+5, 5i+7)   for each block i
    layer 4   CX(5i+4, 5i+5), CZ(5i+4, 5i+6)
    layer 5   CX(5i+3, 5i+4), CZ(5i+3, 5i+5)
    layer 6   CX(5i+2, 5i+3), CZ(5i+2, 5i+4)

Within a layer every pair of gates commutes (same-control bundles, disjoint
supports, or diagonal overlaps), which is what makes the reversed circuit a
valid decoder and keeps error propagation bounded: a single-qubit fault can
only spread through the finitely many gates of the six layers that touch its
neighborhood.

Applied to a computational basis state with information bits at positions
5i+1, the circuit maps the initial Z stabilizers row-by-row onto the code's
generators and signed logical Zs; this tableau-level contract is the ground
truth the tests enforce, independent of any particular gate transcription.

This module holds no conjugation rules of its own: errors are propagated,
and gate pairs checked for commutation, as rows of a
:class:`~convqec.tableau.StabilizerTableau`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .code import _check_count
from .pauli import Pauli, code_rows
from .tableau import CliffordGate, StabilizerTableau, gate_cx, gate_cz, gate_h


@dataclass(frozen=True)
class LayeredCircuit:
    n: int
    layers: tuple[tuple[CliffordGate, ...], ...]

    def gates(self):
        for layer in self.layers:
            yield from layer

    def gate_count(self) -> int:
        return sum(len(layer) for layer in self.layers)


def build_encoding_circuit(blocks: int) -> LayeredCircuit:
    """Six-layer online encoder for a code with ``blocks`` logical qubits."""
    _check_count("block count", blocks)
    n = 5 * blocks + 2

    ancillas = [1]
    for i in range(blocks):
        ancillas.extend(range(5 * i + 2, 5 * i + 6))
    ancillas.append(n)
    layer1 = tuple(gate_h(q) for q in ancillas)

    boundary = [gate_cz(1, 2)]
    boundary += [gate_cz(5 * i + 2, 5 * i + 1) for i in range(1, blocks)]
    boundary.append(gate_cz(n, n - 1))
    layer2 = tuple(boundary)

    def bundle_layer(offset: int) -> tuple[CliffordGate, ...]:
        gates = []
        for i in range(blocks):
            p = 5 * i + offset
            gates.append(gate_cx(p, p + 1))
            gates.append(gate_cz(p, p + 2))
        return tuple(gates)

    layers = (layer1, layer2, bundle_layer(5), bundle_layer(4), bundle_layer(3), bundle_layer(2))
    return LayeredCircuit(n, layers)


def build_decoding_circuit(blocks: int) -> LayeredCircuit:
    """Decoder: the encoding layers in reverse order (every gate is an involution)."""
    enc = build_encoding_circuit(blocks)
    return LayeredCircuit(enc.n, tuple(reversed(enc.layers)))


def gates_commute(a: CliffordGate, b: CliffordGate) -> bool:
    """Exact commutation check: the X_q and Z_q of every qubit the gates touch,
    conjugated through a then b and through b then a, agree with their signs."""
    if set(a.qubits).isdisjoint(b.qubits):
        return True
    # the answer depends only on the support, so renumber it 1..k: k-column
    # rows stay in numpy's small-buffer cache instead of the heap
    local = {q: i for i, q in enumerate(sorted({*a.qubits, *b.qubits}), start=1)}
    a, b = (CliffordGate(g.kind, tuple(local[q] for q in g.qubits)) for g in (a, b))
    z_rows = np.eye(len(local), dtype=np.uint8)
    ab = StabilizerTableau.from_codes(np.concatenate([2 * z_rows, z_rows]))  # X_q rows, then Z_q rows
    ba = ab.copy()
    ab.apply_gates((a, b))
    ba.apply_gates((b, a))
    return all(np.array_equal(u, v) for u, v in ((ab.x, ba.x), (ab.z, ba.z), (ab.phase, ba.phase)))


def verify_layer_commutation(circuit: LayeredCircuit) -> bool:
    """True iff every pair of gates inside each layer commutes."""
    return all(gates_commute(a, b) for layer in circuit.layers for a, b in combinations(layer, 2))


def _propagated(circuit: LayeredCircuit, codes: np.ndarray, from_layer: int) -> StabilizerTableau:
    """Rows of ``codes`` conjugated through layers from_layer..end in one pass."""
    t = StabilizerTableau.from_codes(codes)
    t.apply_gates(gate for layer in circuit.layers[from_layer:] for gate in layer)
    return t


def propagate_error(circuit: LayeredCircuit, e: Pauli, from_layer: int) -> Pauli:
    """Conjugate a (phase-free) error through layers from_layer..end.

    Errors are inserted between layers; from_layer == len(layers) means after
    the final layer, leaving the error untouched.
    """
    if e.n != circuit.n:
        raise ValueError(f"error acts on {e.n} qubits, circuit has {circuit.n}")
    if not 0 <= from_layer <= len(circuit.layers):
        raise ValueError(f"from_layer {from_layer} out of range 0..{len(circuit.layers)}")
    return _propagated(circuit, code_rows([e]), from_layer).rows()[0].pauli


def max_error_spread(circuit: LayeredCircuit) -> int:
    """Worst-case weight of a propagated single-qubit error, over all
    positions, Pauli kinds, and insertion layers.  The 3n single-qubit errors
    are the rows of one tableau per insertion layer."""
    singles = np.kron(np.eye(circuit.n, dtype=np.uint8), np.arange(1, 4, dtype=np.uint8)[:, None])
    worst = 0
    for from_layer in range(len(circuit.layers) + 1):
        t = _propagated(circuit, singles, from_layer)
        worst = max(worst, int((t.x | t.z).sum(axis=1).max()))
    return worst


def support_window(circuit: LayeredCircuit) -> int:
    """Largest index distance between qubits touched by one gate.

    A constant window is the structural reason encoding can run online: the
    gates acting on a qubit involve only its near neighbors.
    """
    spans = [max(g.qubits) - min(g.qubits) for g in circuit.gates()]
    return max(spans, default=0)


def export_circuit(circuit: LayeredCircuit) -> str:
    """Line-oriented text: one gate per line, blank line between layers."""
    sections = ["\n".join(str(g) for g in layer) for layer in circuit.layers]
    return "\n\n".join(sections) + "\n"
