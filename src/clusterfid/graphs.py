"""Graphs, Pauli strings, cluster stabilizers, and cluster-state construction.

A cluster state on a graph G is the unique joint +1 eigenstate of the
stabilizers ``K_i = X_i (x)_{j in N(i)} Z_j``, one per vertex. It can be
prepared by the circuit ``prod_{(i,j) in E} CZ_ij |+>^n`` or, equivalently,
as the normalized projector product ``prod_i (I + K_i)/2``; both
constructors are provided so they can cross-check each other.

A Pauli string is an X mask, a Z mask and an exponent of i (Dehaene & De
Moor, PRA 68, 042318 (2003)); a product XORs the masks and adds 2 to the
exponent per qubit where the left Z meets the right X. As a signed permutation
(Aaronson & Gottesman, PRA 70, 052328 (2004)), its matrix is one scatter and a
product with ``(1 + P)/2`` one row gather. Letters are only parsed and printed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import MAX_QUBITS, CapacityError, read_only

#: i**k for k = 0..3: the phase in front of a word's letters, and the unit of a column.
_PHASES = (1 + 0j, 1j, -1 + 0j, 0 - 1j)
_UNITS = read_only(np.array(_PHASES))


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
        return {b if a == i else a for a, b in self.edges if i in (a, b)}


@dataclass(frozen=True)
class PauliString:
    """The Pauli word ``i**power X^x Z^z``; ``x`` and ``z`` are bit masks, qubit 0 the top bit.

    A Y is ``i X Z``, so ``phase``, the fourth root of unity in front of the
    ``letters``, is ``i**(power - #Y)``.
    """

    num_qubits: int
    x: int = 0
    z: int = 0
    power: int = 0

    def __post_init__(self):
        if not (0 <= self.x | self.z < 2**self.num_qubits and 0 <= self.power < 4):
            raise ValueError(f"bad Pauli string {self!r}")

    @staticmethod
    def from_letters(letters: str, phase: complex = 1) -> "PauliString":
        """Parse e.g. ``'ZXZ'``, qubit 0 first, behind ``phase``, one of 1, i, -1, -i."""
        if any(c not in "IXYZ" for c in letters) or phase not in _PHASES:
            raise ValueError(f"bad Pauli letters {letters!r} or phase {phase}")
        x = int("0" + letters.translate(str.maketrans("IXYZ", "0110")), 2)
        z = int("0" + letters.translate(str.maketrans("IXYZ", "0011")), 2)
        power = _PHASES.index(phase) + letters.count("Y")
        return PauliString(len(letters), x, z, power & 3)

    @staticmethod
    def single(num_qubits: int, qubit: int, letter: str) -> "PauliString":
        if not 0 <= qubit < num_qubits:
            raise ValueError(f"qubit {qubit} outside 0..{num_qubits - 1}")
        if letter not in ("I", "X", "Y", "Z"):
            raise ValueError(f"bad Pauli letter {letter!r}")
        return PauliString.from_letters("I" * qubit + letter + "I" * (num_qubits - qubit - 1))

    @property
    def letters(self) -> str:
        bits = range(self.num_qubits - 1, -1, -1)   # qubit 0 is the top bit
        return "".join("IXZY"[(self.x >> b & 1) + 2 * (self.z >> b & 1)] for b in bits)

    @property
    def phase(self) -> complex:
        return _PHASES[(self.power - (self.x & self.z).bit_count()) & 3]

    def __mul__(self, other: "PauliString") -> "PauliString":
        """``X^a Z^b X^c Z^d = (-1)^|b & c| X^(a^c) Z^(b^d)``: each Z passed over an X negates."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("length mismatch in Pauli product")
        power = self.power + other.power + 2 * (self.z & other.x).bit_count()
        return PauliString(self.num_qubits, self.x ^ other.x, self.z ^ other.z, power & 3)

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, values)``: column c holds ``values[c]`` at row ``rows[c] = c ^ x``.

        ``values[c]`` is ``i**power``, negated where ``c & z`` has odd parity, read off a
        table, so no product of complex numbers sets the sign of a zero.
        """
        cols = np.arange(2**self.num_qubits)
        parity, shift = cols & self.z, 1
        while shift < self.num_qubits:  # fold: bit 0 becomes the parity of the word
            parity ^= parity >> shift
            shift *= 2
        return cols ^ self.x, _UNITS[(self.power + 2 * (parity & 1)) & 3]

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
    n = g.num_vertices
    z = sum(1 << (n - 1 - j) for j in g.neighbors(i))   # refuses a vertex out of range
    return PauliString(n, 1 << (n - 1 - i), z)


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
    return read_only(m / np.trace(m).real)
