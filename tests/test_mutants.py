"""A planted-defect kill matrix.

Each mutant patches one function in one place: an operator primitive, the sandwich, the
commutator or the one projection builder of the matrix backend (real, complex and
quaternionic kinds, and the matrix summands of a direct sum), the quaternionic J-twin, the
spin T_a or sandwich, the root function of ``spectral``, which every root, inverse root and
phase of the kernel goes through, or ``seq_product``.  The
product is patched in both modules that bind it, ``products`` (for ``commutes``) and
``auditor`` (for the laws): no other module of the package calls it.  Every law runs on
the five reference algebras with the standard product, 5 trials, seed 1 and its own tol, and
the rows that do not pass are compared with the matrix below, fails and raises recorded
apart: a raise measures no residual.

A mutant that no row catches on an algebra where it is planted is recorded as equivalent
there, with the reason.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import seqprod as sp
from seqprod import _backends, auditor, products, spectral
from seqprod.auditor import _AXIOMS, ALL_LAWS, LAWS, REFERENCE_ALGEBRAS, audit_law

MATRIX_ALGEBRAS = ("real:4", "complex:4", "quat:3", "sum(complex:2,real:3)")
COMPLEX_ALGEBRAS = ("complex:4", "quat:3", "sum(complex:2,real:3)")
_jordan = _backends._MatrixBackend.jordan_operator
_quadratic = _backends._MatrixBackend.quadratic_operator
_spin_jordan = _backends._SpinBackend.jordan_operator
_j_twin = _backends._j_twin
_col = _backends._col
_projections = _backends._MatrixBackend._projections
_power = spectral._twisted_power
_seq_product = products.seq_product


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


def _doubled_power(t, exponent):
    return _power(t, 2.0 * exponent)


def _scaled_root(t, exponent):
    power = _power(t, exponent)
    if exponent != 0.5:
        return power
    return lambda lams: power(lams) * math.sqrt(1.0 + 1e-6)


def _quarter_root(t, exponent):
    # every product root and sqrt_pos; inverse roots and phases are left as they are
    return _power(t, 0.25 if exponent == 0.5 else exponent)


def _swapped_product(p, a, b):
    return _seq_product(p, b, a)


def _jordan_as_product(p, a, b):
    return sp.jordan_product(a, b)


def _unconjugated_sandwich(self, m, x):
    return self._element(x.algebra, m.data @ x.data @ m.data.swapaxes(-1, -2))


def _unconjugated_commutator(self, a, b):
    ab = a.data @ b.data
    return ab - ab.swapaxes(-1, -2)


def _flipped_j_twin(s, n):
    twin = _j_twin(s, n)
    twin[..., :n, n:] *= -1.0  # the sign of -B^T flipped
    return twin


def _skewed_spin_sandwich(self, m, x):
    (v, t), (w, s) = m.data, x.data
    vw, vv, tt = np.vecdot(v, w), np.vecdot(v, v), t * t
    vec = _col(2.0 * (vw + t * s)) * v + _col((tt - vv) * (1.0 + 1e-6)) * w
    return _backends._spin(x.algebra, vec, (tt + vv) * s + 2.0 * t * vw)


def _shifted_projections(self, alg, vecs, widths):
    # each cluster, subspace or sharp draw takes the columns one place right of its own, cyclically
    # within its trial
    return _projections(self, alg, np.roll(vecs, -1, axis=-1), widths)


def _shrunk_spin_jordan(self, a):
    out = _spin_jordan(self, a)
    out[..., :-1, -1] *= 0.999
    out[..., -1, :-1] *= 0.999
    return out


def _each(algebras, law, verdict="fail"):
    return {(law, alg): verdict for alg in algebras}


def _laws(algebras, laws, verdict="fail"):
    return {(law, alg): verdict for law in laws for alg in algebras}


MATRIX = _backends._MatrixBackend
#: the modules that bind ``seq_product``
PRODUCT = (products, auditor)
#: mutant -> (owner or owners, attribute, patched version, the rows it does not pass: (law,
#: algebra) -> verdict); "error" is a raise
MUTANTS = {
    # Q_a = 2 T_a^2 - T_{a^2} is off by about 2e-6; a scaled T_a commutes as T_a does, so
    # COMMUTE_EQUIV is equivalent
    "jordan_scaled": (MATRIX, "jordan_operator", _scaled_jordan,
                      _each(MATRIX_ALGEBRAS, "FUNDAMENTAL_EQ")),
    # T_a of conj(a), which is a^T: transposition is a Jordan automorphism, so the fundamental
    # formula and operator commutation both hold for T_{conj(a)}; FUNDAMENTAL_EQ's T_a b against
    # the Jordan product catches it on the complex kinds.  Equivalent on real:4, where nothing
    # is conjugated
    "jordan_of_conjugate": (MATRIX, "jordan_operator", _jordan_of_conjugate,
                            _each(COMPLEX_ALGEBRAS, "FUNDAMENTAL_EQ")),
    # T_a from the conjugated images conj(E_k a): caught on the complex kinds, equivalent on
    # real:4, where nothing is conjugated
    "jordan_of_conjugate_images": (MATRIX, "jordan_operator", _jordan_of_conjugate_images,
                                   {**_each(COMPLEX_ALGEBRAS, "FUNDAMENTAL_EQ"),
                                    **_each(COMPLEX_ALGEBRAS, "COMMUTE_EQUIV")}),
    # x -> m x m^H followed by I + 1e-2 G, G a fixed Gaussian matrix: L_a, the homogeneity
    # isomorphism and the unitary order isomorphisms all move, and L_q^-1 L_q, both sandwiches
    # skewed, is no longer the identity
    "quadratic_skewed": (MATRIX, "quadratic_operator", _skewed_quadratic,
                         _laws(MATRIX_ALGEBRAS, ("HOMOGENEITY", "INVARIANCE", "QUADRATIC_LAW",
                                                 "THETA_STRUCTURE"))),
    # every root, inverse root and phase with its exponent doubled: the product is a b a, and
    # the pseudo-inverse root q^-1; caught on every algebra
    "power_doubled": (spectral, "_twisted_power", _doubled_power,
                      _laws(REFERENCE_ALGEBRAS,
                            ("SEA4", "SEA5", "SCALAR_LINEARITY", "SHARP_PROPS", "COMMUTE_EQUIV",
                             "HOMOGENEITY", "PSEUDO_INVERSE", "QUADRATIC_LAW"))),
    # the root of exponent 1/2 (sqrt_pos and every product root) times sqrt(1 + 1e-6): the
    # product is off by 1e-6 relative; inverse roots and phases are left as they are, so
    # Theta_q = L_q^-1 L_q, L_q^-1 from the inverse root, is off by 1e-6 too
    "root_scaled": (spectral, "_twisted_power", _scaled_root,
                    _laws(REFERENCE_ALGEBRAS,
                          ("SEA2", "SHARP_PROPS", "FLOOR_LIMIT", "PSEUDO_INVERSE", "DIVIDE",
                           "HOMOGENEITY", "INVERTIBILITY_PRES", "THETA_STRUCTURE"))),
    # every product root and sqrt_pos at exponent 1/4: the product is a^{1/4} b a^{1/4}.  As
    # for the two product mutants below, DIVIDE's drawn a = q o x need not lie below q, so
    # divide refuses it
    "root_quarter": (spectral, "_twisted_power", _quarter_root, {
        **_laws(REFERENCE_ALGEBRAS, ("SEA4", "SEA5", "SCALAR_LINEARITY", "PRODUCT_LE_LEFT",
                                     "MONOTONE_RIGHT", "SHARP_PROPS", "FLOOR_LIMIT",
                                     "COMMUTE_EQUIV", "HOMOGENEITY", "PSEUDO_INVERSE",
                                     "QUADRATIC_LAW", "THETA_STRUCTURE")),
        **_each(REFERENCE_ALGEBRAS, "DIVIDE", "error")}),
    # b o a for a o b: the product no longer lies below its first factor
    "arguments_swapped": (PRODUCT, "seq_product", _swapped_product, {
        **_laws(REFERENCE_ALGEBRAS, ("SEA1", "SEA4", "PRODUCT_LE_LEFT", "MONOTONE_RIGHT",
                                     "SYMMETRY", "QUADRATIC_LAW")),
        **_each(REFERENCE_ALGEBRAS, "DIVIDE", "error")}),
    # the Jordan product a * b as the product: it need not be positive, so INVERTIBILITY_PRES,
    # which takes a pseudo-inverse of a product, raises on every algebra but real:4
    "jordan_as_product": (PRODUCT, "seq_product", _jordan_as_product, {
        **_laws(REFERENCE_ALGEBRAS, ("SEA4", "PRODUCT_LE_LEFT", "MONOTONE_RIGHT",
                                     "COMMUTE_EQUIV", "QUADRATIC_LAW")),
        ("INVERTIBILITY_PRES", "real:4"): "fail",
        **_laws(("complex:4", "quat:3", "spin:5", "sum(complex:2,real:3)"),
                ("INVERTIBILITY_PRES",), "error"),
        **_each(REFERENCE_ALGEBRAS, "DIVIDE", "error")}),
    # the matrix sandwich m x m^T: equivalent on real:4, where m^T = m^H; on the complex kinds a
    # product of effects keeps the Hermitian part of m x m^T, which need not be positive, so
    # the rows that pass a product on to a root, divide or a pseudo-inverse raise there
    "sandwich_unconjugated": (MATRIX, "quadratic", _unconjugated_sandwich, {
        **_laws(COMPLEX_ALGEBRAS, ("SEA4", "PRODUCT_LE_LEFT", "MONOTONE_RIGHT", "FUNDAMENTAL_EQ",
                                   "COMMUTE_EQUIV", "INVARIANCE", "QUADRATIC_LAW")),
        **_laws(COMPLEX_ALGEBRAS, ("SEA3", "SEA5", "SHARP_PROPS", "FLOOR_LIMIT", "DYADIC_BOUND",
                                   "DIVIDE"), "error"),
        **_laws(("complex:4", "quat:3"), ("PSEUDO_INVERSE", "INVERTIBILITY_PRES"), "error"),
        **_each(("sum(complex:2,real:3)",), "PSEUDO_INVERSE"),
        **_each(("sum(complex:2,real:3)",), "INVERTIBILITY_PRES"),
        **_each(("complex:4", "sum(complex:2,real:3)"), "THETA_STRUCTURE", "error")}),
    # the matrix commutator as ab - (ab)^T: equal to ab - ba on real:4, where (ab)^T = ba; on the
    # complex kinds a commuting pair's ab is Hermitian, not symmetric, so the ambient verdict of
    # COMMUTE_EQUIV disagrees with the product's.  The commutant reads the same primitive.  Not
    # planted on spin:5
    "commutator_unconjugated": (MATRIX, "commutator", _unconjugated_commutator,
                                _each(COMPLEX_ALGEBRAS, "COMMUTE_EQUIV")),
    # the quaternionic J-twin with the sign of its -B^T block flipped: every element built on
    # quat:3 leaves the algebra
    "quat_project_flipped": (_backends, "_j_twin", _flipped_j_twin, {
        **_laws(("quat:3",), ("SEA2", "SEA3", "SEA4", "SEA5", "PRODUCT_LE_LEFT",
                              "MONOTONE_RIGHT", "SHARP_PROPS", "FLOOR_LIMIT", "SPECTRAL_RECON",
                              "FUNDAMENTAL_EQ", "COMMUTE_EQUIV", "SELF_DUALITY", "HOMOGENEITY",
                              "PSEUDO_INVERSE", "INVARIANCE", "INVERTIBILITY_PRES",
                              "QUADRATIC_LAW", "THETA_STRUCTURE")),
        ("DIVIDE", "quat:3"): "error"}),
    # the one projection builder of the matrix kinds, each block's columns shifted by one
    # within its trial: every spectral frame, single or stacked, and every joint frame moves.
    # SPECTRAL_RECON and SELF_DUALITY pair each idempotent with its value.  On the real and
    # complex kinds the shifted frame of lines is a permutation of the frame, still a frame, so
    # the frames that SEA5 and FLOOR_LIMIT draw pass; on quat:3 a shift cuts across Kramers
    # pairs, and the drawn frame is no frame.  A sharp draw projects onto the span of all its
    # rank columns, which a shift among them leaves as it is
    "projection_columns_shifted": (MATRIX, "_projections", _shifted_projections, {
        **_laws(MATRIX_ALGEBRAS, ("SPECTRAL_RECON", "SELF_DUALITY")),
        **_laws(("quat:3",), ("SEA5", "FLOOR_LIMIT"))}),
    # the spin T_a with its off-diagonal v scaled by 0.999: the operator laws on spin:5 only
    "spin_jordan_shrunk": (_backends._SpinBackend, "jordan_operator", _shrunk_spin_jordan,
                           _laws(("spin:5",), ("FUNDAMENTAL_EQ", "HOMOGENEITY",
                                               "QUADRATIC_LAW", "THETA_STRUCTURE"))),
    # the closed-form spin sandwich with the coefficient t^2 - |v|^2 of w scaled by 1 + 1e-6:
    # every product and divide on spin:5 moves, and FUNDAMENTAL_EQ, whose Q_a keeps the Jordan
    # form 2 T_a^2 - T_{a^2}, checks the sandwich against T_a.  SEA1 and SCALAR_LINEARITY are
    # linear in the second factor, SEA3's roots have rank one (t^2 = |v|^2), and the
    # inequalities of PRODUCT_LE_LEFT and MONOTONE_RIGHT keep their slack on these trials
    "spin_sandwich_skewed": (_backends._SpinBackend, "quadratic", _skewed_spin_sandwich,
                             _laws(("spin:5",), ("SEA2", "SEA4", "SEA5", "SHARP_PROPS",
                                                 "FLOOR_LIMIT", "FUNDAMENTAL_EQ", "COMMUTE_EQUIV",
                                                 "DIVIDE", "INVERTIBILITY_PRES",
                                                 "QUADRATIC_LAW"))),
}
#: the laws that reject each caught mutant: "axioms", "characterisations" or "both"
GROUPS = {**dict.fromkeys(("jordan_scaled", "jordan_of_conjugate", "jordan_of_conjugate_images",
                           "quadratic_skewed", "commutator_unconjugated", "spin_jordan_shrunk"),
                          "characterisations"),
          **dict.fromkeys(("power_doubled", "root_scaled", "root_quarter",
                           "arguments_swapped", "jordan_as_product", "sandwich_unconjugated",
                           "quat_project_flipped", "projection_columns_shifted",
                           "spin_sandwich_skewed"), "both")}


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
    owner, attribute, mutant, want = MUTANTS[name]
    for module in owner if isinstance(owner, tuple) else (owner,):
        monkeypatch.setattr(module, attribute, mutant)
    got = _kill_rows()
    assert want and got == want
    assert _group(law for law, _ in got) == GROUPS[name]


def test_only_dyadic_bound_fails_no_mutant_by_residual():
    # a law that only raises measures no residual; DYADIC_BOUND raises on the complex kinds
    # under the conjugate-free sandwich, and fails nowhere
    failing = {law for _, _, _, rows in MUTANTS.values()
               for (law, _), verdict in rows.items() if verdict == "fail"}
    assert {law.value for law in ALL_LAWS} - failing == {"DYADIC_BOUND"}


def test_only_the_patched_modules_call_seq_product():
    package = Path(sp.__file__).parent
    callers = {path.stem for path in package.glob("*.py")
               if "seq_product(" in path.read_text().replace("def seq_product(", "")}
    assert callers == {module.__name__.rsplit(".", 1)[1] for module in PRODUCT}


def test_the_commutant_reads_the_commutator_that_commute_equiv_audits(monkeypatch):
    # under commutator_unconjugated, which COMMUTE_EQUIV catches, the commutant basis of a
    # complex element no longer commutes with it: the two read one primitive
    a = sp.random_effect(sp.complex_hermitian(3), 1)

    def worst():
        return max(np.linalg.norm(e.data @ a.data - a.data @ e.data)
                   for e in sp.commutant_basis([a]))

    assert worst() <= 1e-12
    monkeypatch.setattr(MATRIX, "commutator", _unconjugated_commutator)
    assert worst() > 0.1
