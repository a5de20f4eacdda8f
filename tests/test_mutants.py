"""A planted-defect kill matrix, started at the operator layer.

Each mutant patches one operator primitive of the matrix backend (real, complex and
quaternionic kinds, and the matrix summands of a direct sum; ``spin:5`` runs unpatched code).
Every law runs on the five reference algebras with the standard product, 5 trials, seed 1 and
its own tol, and the rows that do not pass are compared with the matrix below, fails and
raises recorded apart: a raise measures no residual.

A mutant that no row catches on an algebra where it is planted is recorded as equivalent
there, with the reason.
"""

import numpy as np
import pytest

import seqprod as sp
from seqprod import _backends
from seqprod.auditor import _AXIOMS, ALL_LAWS, LAWS, REFERENCE_ALGEBRAS, audit_law

MATRIX_ALGEBRAS = ("real:4", "complex:4", "quat:3", "sum(complex:2,real:3)")
COMPLEX_ALGEBRAS = ("complex:4", "quat:3", "sum(complex:2,real:3)")
_jordan = _backends._MatrixBackend.jordan_operator
_quadratic = _backends._MatrixBackend.quadratic_operator


def _scaled_jordan(self, a):
    return _jordan(self, a) * (1.0 + 1e-6)


def _jordan_of_conjugate(self, a):
    return _jordan(self, _backends._trusted(a.algebra, a.data.conj()))


def _jordan_of_conjugate_images(self, a):
    alg = a.algebra
    return _backends._operator(alg, _backends._basis_products(alg, a.data).conj())


def _skewed_quadratic(self, m):
    q = _quadratic(self, m)
    d = q.shape[-1]
    return q @ (np.eye(d) + 1e-2 * np.random.default_rng(0).standard_normal((d, d)))


def _each(algebras, law, verdict="fail"):
    return {(law, alg): verdict for alg in algebras}


#: mutant -> (primitive, patched version, the rows it does not pass: (law, algebra) -> verdict)
MUTANTS = {
    # Q_a = 2 T_a^2 - T_{a^2} is off by about 2e-6; a scaled T_a commutes as T_a does, so
    # COMMUTE_EQUIV is equivalent
    "jordan_scaled": ("jordan_operator", _scaled_jordan,
                      _each(MATRIX_ALGEBRAS, "FUNDAMENTAL_EQ")),
    # T_a of conj(a), which is a^T: transposition is a Jordan automorphism, so T_{conj(a)} is
    # T_a conjugated by an isometry of the coordinates, and Q_{conj(x)} = conj Q_x conj^-1; the
    # fundamental formula and commutation both hold for it.  Equivalent on every algebra
    "jordan_of_conjugate": ("jordan_operator", _jordan_of_conjugate, {}),
    # T_a from the conjugated images conj(E_k a): caught on the complex kinds, equivalent on
    # real:4, where nothing is conjugated
    "jordan_of_conjugate_images": ("jordan_operator", _jordan_of_conjugate_images,
                                   {**_each(COMPLEX_ALGEBRAS, "FUNDAMENTAL_EQ"),
                                    **_each(COMPLEX_ALGEBRAS, "COMMUTE_EQUIV")}),
    # x -> m x m^H followed by I + 1e-2 G, G a fixed Gaussian matrix: L_a, the homogeneity
    # isomorphism and the unitary order isomorphisms all move
    "quadratic_skewed": ("quadratic_operator", _skewed_quadratic,
                         {**_each(MATRIX_ALGEBRAS, "HOMOGENEITY"),
                          **_each(MATRIX_ALGEBRAS, "INVARIANCE"),
                          **_each(MATRIX_ALGEBRAS, "QUADRATIC_LAW")}),
}
#: the laws that reject each caught mutant: "axioms", "characterisations" or "both"
GROUPS = dict.fromkeys(("jordan_scaled", "jordan_of_conjugate_images", "quadratic_skewed"),
                       "characterisations")


def _kill_rows() -> dict:
    """(law, algebra) -> verdict of every row that does not pass."""
    rows = {}
    for law in ALL_LAWS:
        for short in REFERENCE_ALGEBRAS:
            alg = sp.parse_algebra(short)
            entry = audit_law(law, sp.SequentialProduct.standard(alg), alg, 5, 1, LAWS[law].tol)
            if entry.verdict != "pass":
                rows[law.value, short] = entry.verdict
    return rows


def _group(laws) -> str:
    axioms = {law in {a.value for a in _AXIOMS} for law in laws}
    return "both" if len(axioms) == 2 else "axioms" if True in axioms else "characterisations"


def test_correct_code_passes_every_row():
    assert _kill_rows() == {}


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutant_fails_the_rows_of_its_kill_matrix(monkeypatch, name):
    primitive, mutant, want = MUTANTS[name]
    monkeypatch.setattr(_backends._MatrixBackend, primitive, mutant)
    got = _kill_rows()
    assert got == want
    if want:
        assert _group(law for law, _ in got) == GROUPS[name]
