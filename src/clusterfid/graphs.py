"""Graphs, Pauli strings, cluster stabilizers, and cluster-state construction.

A cluster state on a graph G is the unique joint +1 eigenstate of the
stabilizers ``K_i = X_i (x)_{j in N(i)} Z_j``, one per vertex. It can be
prepared by the circuit ``prod_{(i,j) in E} CZ_ij |+>^n`` or, equivalently,
as the normalized projector product ``prod_i (I + K_i)/2``; both
constructors are provided so they can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import MAX_QUBITS, CapacityError, read_only

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# single-site products: (left, right) -> (phase, letter)
_PAULI_MUL = {
    ("X", "Y"): (1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("Y", "X"): (-1j, "Z"),
    ("Z", "Y"): (-1j, "X"),
    ("X", "Z"): (-1j, "Y"),
}


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: vertex count plus a deduplicated edge set."""

    num_vertices: int
    edges: frozenset = field(default_factory=frozenset)

    @staticmethod
    def from_edges(num_vertices: int, edges) -> "Graph":
        norm = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < num_vertices and 0 <= j < num_vertices):
                raise ValueError(f"edge ({i},{j}) out of range")
            norm.add((min(i, j), max(i, j)))
        return Graph(num_vertices, frozenset(norm))

    @staticmethod
    def chain(num_vertices: int) -> "Graph":
        return Graph.from_edges(num_vertices, [(i, i + 1) for i in range(num_vertices - 1)])

    def neighbors(self, i: int) -> set[int]:
        if not (0 <= i < self.num_vertices):
            raise ValueError(f"vertex {i} out of range")
        out = set()
        for a, b in self.edges:
            if a == i:
                out.add(b)
            elif b == i:
                out.add(a)
        return out


@dataclass(frozen=True)
class PauliString:
    """A phased Pauli word, e.g. ``+1 * Z0 X1 Z2`` stored as letters 'ZXZ'."""

    letters: str
    phase: complex = 1 + 0j

    def __post_init__(self):
        if any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"bad Pauli letters {self.letters!r}")
        if self.phase not in (1, -1, 1j, -1j):
            raise ValueError(f"phase must be a fourth root of unity, got {self.phase}")

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    @staticmethod
    def identity(num_qubits: int) -> "PauliString":
        return PauliString("I" * num_qubits)

    @staticmethod
    def single(num_qubits: int, qubit: int, letter: str) -> "PauliString":
        letters = ["I"] * num_qubits
        letters[qubit] = letter
        return PauliString("".join(letters))

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.num_qubits != other.num_qubits:
            raise ValueError("length mismatch in Pauli product")
        phase = self.phase * other.phase
        letters = []
        for a, b in zip(self.letters, other.letters):
            if a == "I":
                letters.append(b)
            elif b == "I" or a == b:
                letters.append("I" if a == b else a)
            else:
                ph, c = _PAULI_MUL[(a, b)]
                phase *= ph
                letters.append(c)
        return PauliString("".join(letters), phase)

    def matrix(self) -> np.ndarray:
        out = np.array([[self.phase]], dtype=complex)
        for c in self.letters:
            out = np.kron(out, _PAULI_MATS[c])
        return out

    def __str__(self):
        sign = {1: "+", -1: "-", 1j: "+i", -1j: "-i"}[self.phase]
        body = " ".join(f"{c}{i}" for i, c in enumerate(self.letters) if c != "I")
        return f"{sign}{body or 'I'}"


def stabilizer(g: Graph, i: int) -> PauliString:
    """Cluster stabilizer of vertex i: X on i, Z on every neighbor."""
    if not (0 <= i < g.num_vertices):
        raise ValueError(f"vertex {i} out of range")
    letters = ["I"] * g.num_vertices
    letters[i] = "X"
    for j in g.neighbors(i):
        letters[j] = "Z"
    return PauliString("".join(letters))


def build_cluster_state(g: Graph) -> np.ndarray:
    """Cluster state of g: |+>^n entangled by CZ on every edge (read-only)."""
    n = g.num_vertices
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the engine limit of {MAX_QUBITS}")
    dim = 2**n
    psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    idx = np.arange(dim)
    for i, j in g.edges:
        both = ((idx >> (n - 1 - i)) & 1) & ((idx >> (n - 1 - j)) & 1)
        psi[both == 1] *= -1.0
    return read_only(np.outer(psi, psi.conj()))


def cluster_state_projector_product(g: Graph) -> np.ndarray:
    """Same state built as the normalized product of (I + K_i)/2 projectors.

    Slower than the circuit constructor; used to cross-check it.
    """
    n = g.num_vertices
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the engine limit of {MAX_QUBITS}")
    dim = 2**n
    m = np.eye(dim, dtype=complex)
    for i in range(n):
        ki = stabilizer(g, i).matrix()
        m = m @ (np.eye(dim, dtype=complex) + ki) / 2.0
    tr = np.trace(m).real
    return read_only(m / tr)
