"""Graphs, Pauli strings, cluster stabilizers, and cluster-state construction.

A cluster state on a graph G is the unique joint +1 eigenstate of the
stabilizers ``K_i = X_i (x)_{j in N(i)} Z_j``, one per vertex. It can be
prepared by the circuit ``prod_{(i,j) in E} CZ_ij |+>^n`` or, equivalently,
as the normalized projector product ``prod_i (I + K_i)/2``; both
constructors are provided so they can cross-check each other.

A Pauli string is a signed permutation (Aaronson & Gottesman, PRA 70, 052328
(2004)): ``PauliString.columns`` gives it, so its matrix is one scatter and
a product with ``(1 + P)/2`` one row gather, with no Kronecker chain or GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import MAX_QUBITS, CapacityError, read_only

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

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, values)``: column c of the matrix holds ``values[c]`` at row ``rows[c]``.

        X and Y flip their qubit's bit of c; Z and Y negate the column when it is set.
        """
        cols = np.arange(2**self.num_qubits)
        rows, parity = cols.copy(), np.zeros_like(cols)
        for q, c in enumerate(reversed(self.letters)):  # qubit 0 is the top bit
            if c in "XY":
                rows ^= 1 << q
            if c in "ZY":
                parity ^= (cols >> q) & 1
        unit = self.phase * 1j ** self.letters.count("Y")
        return rows, np.where(parity, -unit, unit)

    def matrix(self) -> np.ndarray:
        rows, values = self.columns()
        out = np.zeros((len(rows), len(rows)), dtype=complex)
        out[rows, np.arange(len(rows))] = values
        return out

    def project(self, mat: np.ndarray) -> np.ndarray:
        """``(1 + P)/2 @ mat`` by a row gather, rounding each entry once as a GEMM does.

        Row i of ``P @ mat`` is row ``rows[i]`` of ``mat`` times ``values[rows[i]]``.
        """
        rows, values = self.columns()
        out = mat[rows]
        out *= values[rows, None]
        out += mat
        out /= 2.0
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
    m = np.eye(2**n, dtype=complex)
    for i in reversed(range(n)):
        m = stabilizer(g, i).project(m)
    tr = np.trace(m).real
    return read_only(m / tr)
