import numpy as np
import pytest

from clusterfid import default_registry
from clusterfid.channels import KrausChannel


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


def random_density_matrix(rng, n):
    """Random full-rank n-qubit density matrix (Ginibre construction)."""
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


def pure_density(vector):
    """|v><v| of a state vector, normalized."""
    v = np.asarray(vector, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def assert_density_matrix(mat, check_psd=False, atol=1e-10):
    """Hermitian, finite, unit trace and (if asked) positive semidefinite."""
    assert np.all(np.isfinite(mat))
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
    assert abs(np.trace(mat) - 1.0) <= 1e-11
    if check_psd:
        assert np.linalg.eigvalsh(mat)[0] >= -atol


def random_channel(entries) -> KrausChannel:
    """A CPTP map from 8k real entries: the QR of a 2k x 2 complex matrix.

    The isometry's k 2x2 blocks are the k Kraus operators.
    """
    half = len(entries) // 2
    g = np.array(entries[:half]).reshape(-1, 2) + 1j * np.array(entries[half:]).reshape(-1, 2)
    q, _ = np.linalg.qr(g)
    return KrausChannel("random", 0.0, tuple(q[i:i + 2] for i in range(0, len(q), 2)))


def random_diagonal_channel(rng, count) -> KrausChannel:
    """A random CPTP map of ``count`` diagonal Kraus operators.

    Each diagonal position's squared moduli sum to one over the operators;
    the phases are uniform.
    """
    moduli = np.sqrt(rng.dirichlet(np.ones(count), size=2))
    phases = np.exp(2j * np.pi * rng.random((2, count)))
    return KrausChannel("diagonal", 0.0, tuple(np.diag(moduli[:, k] * phases[:, k])
                                               for k in range(count)))
