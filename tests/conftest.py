import numpy as np
import pytest

from rpd import EmbeddingMatrix, NullDistribution


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_embedding(rng, n, d, prefix="w"):
    """Gaussian embedding with a deterministic synthetic vocabulary."""
    vocab = tuple(f"{prefix}{i}" for i in range(n))
    return EmbeddingMatrix(vocab, rng.standard_normal((n, d)))


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def reference_null(mu=0.953, sigma=0.001):
    """The paper's reported null (n=25097, d=300): 5000 Gaussian draws rescaled
    to mean ``mu`` (exactly) and standard deviation ``sigma``."""
    z = np.random.default_rng(0).standard_normal(5000)
    z = (z - z.mean()) / z.std(ddof=1)
    return NullDistribution(25097, 300, 300, 0, mu + sigma * z)
