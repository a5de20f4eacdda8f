"""Spin factors against their Clifford embedding, and where kind checks may live."""

import inspect
import re
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import seqprod as sp
from seqprod import _backends
from seqprod.algebra import eigenvalue_range

# ---------------------------------------------------------------------------
# Clifford-embedding oracle for spin factors
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1.0, -1.0]).astype(complex)


def clifford_generators(d: int) -> list[np.ndarray]:
    """d anticommuting Hermitian involutions G_i (Jordan-Wigner on max(1, d // 2) qubits)."""
    k = max(1, d // 2)
    gens = []
    for q in range(k):
        for pauli in (_X, _Y):
            gens.append(reduce(np.kron, [_Z] * q + [pauli] + [_I2] * (k - q - 1)))
    gens.append(reduce(np.kron, [_Z] * k))
    return gens[:d]


def embed(x: sp.Element) -> np.ndarray:
    """(v, t) -> t I + sum_i v_i G_i, a Jordan homomorphism into Hermitian matrices."""
    v, t = x.data
    gens = clifford_generators(x.algebra.size)
    return t * np.eye(len(gens[0])) + sum(vi * g for vi, g in zip(v, gens))


SPIN_SIZES = [1, 2, 3, 4, 5]


@pytest.mark.parametrize("d", SPIN_SIZES)
def test_clifford_generators_anticommute(d):
    gens = clifford_generators(d)
    m = len(gens[0])
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            want = 2.0 * np.eye(m) if i == j else np.zeros((m, m))
            assert np.abs(g @ h + h @ g - want).max() == 0.0


@pytest.mark.parametrize("d", SPIN_SIZES)
def test_spin_products_match_clifford_embedding(d):
    alg = sp.spin_factor(d)
    rng = np.random.default_rng(100 + d)
    for _ in range(20):
        a, b = sp.random_effect(alg, rng), sp.random_effect(alg, rng)
        ma, mb = embed(a), embed(b)
        m = len(ma)
        assert np.abs(embed(sp.jordan_product(a, b)) - 0.5 * (ma @ mb + mb @ ma)).max() <= 1e-12
        assert np.abs(embed(sp.quadratic_rep(a, b)) - ma @ mb @ ma).max() <= 1e-12
        want = (2.0 / m) * np.trace(ma @ mb).real
        assert abs(sp.trace_inner_product(a, b) - want) <= 1e-12


@pytest.mark.parametrize("d", SPIN_SIZES)
def test_spin_spectra_match_clifford_embedding(d):
    alg = sp.spin_factor(d)
    rng = np.random.default_rng(200 + d)
    samples = [sp.random_effect(alg, rng) for _ in range(20)] + [sp.identity(alg) * 0.3]
    for a in samples:
        w, vecs = np.linalg.eigh(embed(a))
        lo, hi = eigenvalue_range(a)
        assert abs(lo - w[0]) <= 1e-12 and abs(hi - w[-1]) <= 1e-12
        dec = sp.spectral_decompose(a)
        for lam, p in dec.pairs:
            near = np.abs(w - lam) <= 1e-9
            assert near.any()
            proj = vecs[:, near] @ vecs[:, near].conj().T
            assert np.abs(embed(p) - proj).max() <= 1e-12
        assert sum(np.count_nonzero(np.abs(w - lam) <= 1e-9) for lam in dec.eigenvalues) == len(w)


# ---------------------------------------------------------------------------
# layout: one module knows the algebra kinds
# ---------------------------------------------------------------------------

KIND_CHECK = re.compile(r"MATRIX_KINDS|KIND_(REAL|COMPLEX|QUAT|SPIN|SUM)|\.kind\b")


def test_eigensolves_live_in_the_backend_module():
    package = Path(sp.__file__).parent
    callers = sorted(path.name for path in package.glob("*.py")
                     if re.search(r"linalg\.eig", path.read_text()))
    assert callers == ["_backends.py"]
    # the eigenvalue-only solver is called only by the one solver entry point
    inside = inspect.getsource(_backends._eigh).count("eigvalsh")
    assert inside >= 1
    assert sum(path.read_text().count("eigvalsh") for path in package.glob("*.py")) == inside


def test_kind_checks_live_in_the_backend_module():
    package = Path(sp.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        if path.name == "_backends.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            # algebra.py re-exports the kind names, one per import line
            reexport = path.name == "algebra.py" and re.fullmatch(r"\s*KIND_[A-Z]+,", line)
            if KIND_CHECK.search(line) and not reexport:
                outside.append(f"{path.name}:{number}: {line.strip()}")
    assert outside == []
