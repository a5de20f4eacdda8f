import numpy as np
import pytest
from hypothesis import settings

import seqprod as sp
from seqprod import parse_algebra

# Tier-1 draws the same hypothesis examples on every run and every checkout: each test's
# examples come from a hash of the test, and no example database is read or written.
# ``pytest --hypothesis-profile explore`` draws fresh examples and keeps failures in the local
# database (.hypothesis/); the strategies and example counts are the same under both.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("deterministic")

ALGEBRA_SHORTHANDS = ["real:3", "complex:3", "quat:2", "spin:4", "sum(complex:2,real:3)"]
MATRIX_SHORTHANDS = ["real:3", "complex:3", "quat:2"]


@pytest.fixture(params=ALGEBRA_SHORTHANDS)
def algebra(request):
    return parse_algebra(request.param)


@pytest.fixture(params=MATRIX_SHORTHANDS)
def matrix_algebra(request):
    return parse_algebra(request.param)


def rng_for(*key):
    return np.random.default_rng(key)


def close_across_blocks(alg, rng):
    """An effect of sum(complex:2,real:3) whose blocks share an eigenvalue to within 4e-9."""
    shared = rng.uniform(0.1, 0.9)
    blocks = []
    for sub in alg.summands:
        n = sub.size
        w = np.append(shared + rng.uniform(-2e-9, 2e-9), rng.uniform(0.05, 0.95, n - 1))
        g = rng.standard_normal((n, n))
        if sub.is_complex_kind():
            g = g + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(g)
        blocks.append(sp.Element(sub, (u * w) @ u.conj().T))
    return sp.Element(alg, tuple(blocks))
