import numpy as np
import pytest

import seqprod as sp
from seqprod._backends import KIND_SPIN, _clusters, _eigh, _matrix_basis
from seqprod.algebra import from_coords, to_coords
from seqprod.spectral import DEFAULT_GAP

from test_sum_frames import _bits


def _span_projector(basis):
    rows = np.stack([to_coords(e) for e in basis])
    return rows.T @ rows  # basis rows are orthonormal


def _membership_residual(basis, x):
    proj = _span_projector(basis)
    c = to_coords(x)
    return float(np.linalg.norm(c - proj @ c))


# ---------------------------------------------------------------------------
# commutant
# ---------------------------------------------------------------------------

def test_commutant_block_dimension():
    alg = sp.complex_hermitian(3)
    a = sp.Element(alg, np.diag([0.3, 0.3, 0.7]).astype(complex))
    assert len(sp.commutant_basis([a])) == 5  # block structure 2 (+) 1


def test_commutant_of_identity_is_everything():
    alg = sp.complex_hermitian(3)
    assert len(sp.commutant_basis([sp.identity(alg)])) == 9


@pytest.mark.parametrize("short,expected", [("real:3", 3), ("complex:3", 3), ("quat:2", 2)])
def test_commutant_of_generic_element(short, expected):
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, 62)
    assert len(sp.commutant_basis([a])) == expected


def test_commutant_basis_is_orthonormal(matrix_algebra):
    basis = sp.commutant_basis([sp.random_effect(matrix_algebra, 63)])
    gram = np.array([[sp.trace_inner_product(u, v) for v in basis] for u in basis])
    assert np.abs(gram - np.eye(len(basis))).max() <= 1e-9


def test_commutant_elements_commute_with_generators(matrix_algebra):
    a = sp.random_effect(matrix_algebra, 64)
    std = sp.SequentialProduct.standard(matrix_algebra)
    for e in sp.commutant_basis([a]):
        assert np.abs(e.data @ a.data - a.data @ e.data).max() <= 1e-9


def test_commutant_closed_under_product_and_complement(matrix_algebra):
    a = sp.random_effect(matrix_algebra, 65)
    basis = sp.commutant_basis([a])
    da, db = basis[0], basis[-1]
    assert _membership_residual(basis, sp.jordan_product(da, db)) <= 1e-9
    assert _membership_residual(basis, sp.identity(matrix_algebra) - da) <= 1e-9


def test_commutant_spin_cases():
    alg = sp.spin_factor(4)
    a = sp.random_effect(alg, 66)
    assert len(sp.commutant_basis([a])) == 2
    # scalars have the whole algebra as commutant
    assert len(sp.commutant_basis([sp.identity(alg)])) == alg.real_dimension
    # two non-parallel directions leave only the scalars
    b = sp.Element(alg, (np.array([1.0, 0, 0, 0]), 0.5))
    c = sp.Element(alg, (np.array([0, 1.0, 0, 0]), 0.5))
    assert len(sp.commutant_basis([b, c])) == 1


def test_commutant_rejects_direct_sums():
    alg = sp.parse_algebra("sum(complex:2,real:2)")
    with pytest.raises(sp.CapabilityError):
        sp.commutant_basis([sp.identity(alg)])


# ---------------------------------------------------------------------------
# bicommutant
# ---------------------------------------------------------------------------

def test_bicommutant_block_example():
    alg = sp.complex_hermitian(3)
    a = sp.Element(alg, np.diag([0.3, 0.3, 0.7]).astype(complex))
    basis = sp.bicommutant_basis([a])
    assert len(basis) == 2
    expected = [sp.Element(alg, np.diag([1, 1, 0]).astype(complex)),
                sp.Element(alg, np.diag([0, 0, 1]).astype(complex))]
    for e in expected:
        assert _membership_residual(basis, e) <= 1e-9


def test_bicommutant_of_identity():
    assert len(sp.bicommutant_basis([sp.identity(sp.complex_hermitian(3))])) == 1


def test_bicommutant_contains_polynomials(matrix_algebra):
    a = sp.random_effect(matrix_algebra, 67)
    basis = sp.bicommutant_basis([a])
    assert _membership_residual(basis, sp.jordan_product(a, a)) <= 1e-9
    assert _membership_residual(basis, sp.identity(matrix_algebra) - a) <= 1e-9
    assert _membership_residual(basis, a) <= 1e-9


def test_bicommutant_inside_commutant(matrix_algebra):
    a = sp.random_effect(matrix_algebra, 68)
    outer = sp.commutant_basis([a])
    for e in sp.bicommutant_basis([a]):
        assert _membership_residual(outer, e) <= 1e-9


def test_bicommutant_is_commutative(matrix_algebra):
    basis = sp.bicommutant_basis([sp.random_effect(matrix_algebra, 69, "singular")])
    for i, u in enumerate(basis):
        for v in basis[i + 1:]:
            assert np.abs(u.data @ v.data - v.data @ u.data).max() <= 1e-9


def test_bicommutant_rejects_noncommuting():
    alg = sp.real_symmetric(2)
    p = sp.Element(alg, np.diag([1.0, 0.0]))
    h = sp.Element(alg, 0.5 * np.ones((2, 2)))
    with pytest.raises(sp.PreconditionError, match="0 and 1"):
        sp.bicommutant_basis([p, h])


# ---------------------------------------------------------------------------
# simultaneous diagonalization / function model
# ---------------------------------------------------------------------------

def test_model_diagonal_example():
    alg = sp.real_symmetric(2)
    a = sp.Element(alg, np.diag([0.5, 0.2]))
    model = sp.simultaneous_diagonalize([a])
    assert model.points == 2
    values = sorted(model.to_function(a))
    assert values == pytest.approx([0.2, 0.5])


def test_model_of_identity():
    model = sp.simultaneous_diagonalize([sp.identity(sp.complex_hermitian(3))])
    assert model.points == 1


def test_model_polynomials_add_no_splitting(matrix_algebra):
    a = sp.random_effect(matrix_algebra, 70)
    m1 = sp.simultaneous_diagonalize([a])
    m2 = sp.simultaneous_diagonalize([a, sp.jordan_product(a, a)])
    assert m1.points == m2.points


def test_model_frame_and_product_structure(algebra):
    a = sp.random_effect(algebra, 71)
    asq = sp.jordan_product(a, a)
    model = sp.simultaneous_diagonalize([a, asq, sp.identity(algebra) - a])
    # frame resolves the identity and consists of orthogonal sharp effects
    total = None
    for p in model.frame:
        assert sp.is_sharp(p, 1e-9)
        total = p if total is None else total + p
    assert sp.order_unit_norm(total - sp.identity(algebra)) <= 1e-9
    # multiplication becomes pointwise
    std = sp.SequentialProduct.standard(algebra)
    lhs = model.to_function(sp.seq_product(std, a, asq))
    assert np.abs(lhs - model.to_function(a) * model.to_function(asq)).max() <= 1e-8
    # round trip on the subalgebra
    for x in (a, asq):
        assert sp.order_unit_norm(model.from_function(model.to_function(x)) - x) <= 1e-9


def test_model_floor_ceiling_are_indicators(matrix_algebra):
    a = sp.random_effect(matrix_algebra, 72, "singular")
    model = sp.simultaneous_diagonalize([a])
    vals = model.to_function(a)
    floor_vals = model.to_function(sp.floor_effect(a))
    ceil_vals = model.to_function(sp.ceiling_effect(a))
    for v, fl, ce in zip(vals, floor_vals, ceil_vals):
        assert fl == pytest.approx(1.0 if v >= 1 - 1e-9 else 0.0, abs=1e-8)
        assert ce == pytest.approx(1.0 if v > 1e-9 else 0.0, abs=1e-8)


def test_model_rejects_noncommuting():
    alg = sp.real_symmetric(2)
    p = sp.Element(alg, np.diag([1.0, 0.0]))
    h = sp.Element(alg, 0.5 * np.ones((2, 2)))
    with pytest.raises(sp.PreconditionError):
        sp.simultaneous_diagonalize([p, h])


def test_model_spin_factor():
    alg = sp.spin_factor(5)
    a = sp.random_effect(alg, 73)
    model = sp.simultaneous_diagonalize([a])
    assert model.points == 2
    assert sp.order_unit_norm(model.from_function(model.to_function(a)) - a) <= 1e-9


def test_model_direct_sum_blockwise():
    alg = sp.parse_algebra("sum(complex:2,real:2)")
    a = sp.random_effect(alg, 74)
    model = sp.simultaneous_diagonalize([a])
    assert model.points == 4
    assert sp.order_unit_norm(model.from_function(model.to_function(a)) - a) <= 1e-9


def test_bicommutant_dim_equals_distinct_eigenvalues(matrix_algebra):
    for seed in (75, 76):
        a = sp.random_effect(matrix_algebra, seed)
        distinct = len(sp.spectral_decompose(a).pairs)
        assert len(sp.bicommutant_basis([a])) == distinct


@pytest.mark.parametrize("gap", [0.0, -1.0])
def test_diagonalize_rejects_non_positive_gap(gap):
    a = sp.random_effect(sp.complex_hermitian(3), 64)
    with pytest.raises(sp.PreconditionError, match="gap"):
        sp.simultaneous_diagonalize([a], gap=gap)


# ---------------------------------------------------------------------------
# the frame and the basis against the generator-by-generator reference
# ---------------------------------------------------------------------------
#
# ``reference_frame`` refines the identity's eigenspaces one generator at a
# time, solving every compression v^H s v, and builds each projection with the
# public constructor; ``reference_basis`` builds one element per null-space row.
# The package reads the first generator's cached solve, keeps one-dimensional
# subspaces as they are, and builds the basis as one stack; both must equal
# the reference bit for bit: data, dtype and signed zeros.  The package forms
# the commutators as B - B^H from one product B = [E_1; ...; E_d] s; on
# complex:2, complex:3 and quat:3 its rows differ from the reference's in
# the signs of some zero entries, and the bases must still be equal.

ORACLE_ALGEBRAS = ["real:4", "complex:4", "quat:3", "quat:2", "complex:2", "spin:5", "real:1",
                   "sum(complex:2,real:3)", "sum(sum(real:2,complex:2),spin:2)"]
PROFILES = ["generic", "singular", "sharp", "invertible"]


def _reference_directions(elems):
    dirs = []
    for e in elems:
        v, _ = e.data
        r = np.linalg.norm(v)
        if r > 1e-12:
            dirs.append(v / r)
    return dirs


def reference_frame(alg, elems, gap=DEFAULT_GAP):
    if alg.summands:
        frame = []
        for bi, sub in enumerate(alg.summands):
            for p in reference_frame(sub, [e.data[bi] for e in elems], gap):
                blocks = [sp.zero(s) for s in alg.summands]
                blocks[bi] = p
                frame.append(sp.Element(alg, tuple(blocks)))
        return frame
    if alg.kind == KIND_SPIN:
        dirs = _reference_directions(elems)
        if not dirs:
            return [alg._backend.scalar(alg, 1.0)]
        return [sp.Element(alg, (0.5 * dirs[0], 0.5)), sp.Element(alg, (-0.5 * dirs[0], 0.5))]
    subspaces = [np.eye(alg.matrix_order, dtype=alg._backend.dtype)]
    for s in elems:
        refined = []
        for v in subspaces:
            w, vecs = _eigh(v.conj().T @ s.data @ v)
            start = 0
            for size in _clusters(w, gap)[0]:
                refined.append(v @ vecs[:, start:start + size])
                start += size
        subspaces = refined
    return [sp.Element(alg, v @ v.conj().T) for v in subspaces]


def reference_rows(alg, elems):
    if alg.kind == KIND_SPIN:
        dirs = _reference_directions(elems)
        dim = alg.real_dimension
        if not dirs:
            return list(np.eye(dim))
        unit = to_coords(sp.identity(alg)) / np.sqrt(2.0)
        if all(abs(abs(float(d @ dirs[0])) - 1.0) <= 1e-9 for d in dirs):
            return [to_coords(sp.Element(alg, (dirs[0], 0.0))) / np.sqrt(2.0), unit]
        return [unit]
    dim, basis = alg.real_dimension, _matrix_basis(alg)
    blocks = []
    for s in elems:
        comm = (basis @ s.data - s.data @ basis).reshape(dim, -1)
        blocks.append(np.concatenate([comm.real, comm.imag], axis=1).T)
    _, svals, vh = np.linalg.svd(np.vstack(blocks), full_matrices=False)
    tol = 1e-8 * max(1.0, float(svals[0]))
    return [vh[i] for i in range(dim) if svals[i] <= tol]


def reference_basis(elems):
    alg = elems[0].algebra
    return [from_coords(alg, row) for row in reference_rows(alg, elems)]


def _families(alg, a):
    """The commuting families of the oracle cases, each by name."""
    one, sq = sp.identity(alg), sp.jordan_product(a, a)
    return {"a": [a], "a,a*a": [a, sq], "a*a,a": [sq, a], "a,a*a,1-a": [a, sq, one - a],
            "1": [one], "floor(a),a": [sp.floor_effect(a), a], "1,a": [one, a]}


def assert_same_elements(got, want, what):
    assert len(got) == len(want), what
    for p, q in zip(got, want):
        assert _bits(p) == _bits(q), what


def _fresh(x):
    """A copy of ``x`` with no cached eigen-data, as a request builds it."""
    return sp.Element(x.algebra, x.data)


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("short", ORACLE_ALGEBRAS)
def test_frames_equal_the_reference(short, profile):
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, 80, profile)
    _check_frames(alg, a)


def _check_frames(alg, a):
    for name, family in _families(alg, a).items():
        want = reference_frame(alg, [_fresh(x) for x in family])
        got = sp.simultaneous_diagonalize([_fresh(x) for x in family]).frame
        assert_same_elements(got, want, name)
        # decomposed beforehand, the generators give the same frame again
        assert_same_elements(sp.simultaneous_diagonalize(family).frame, want, name)


@pytest.mark.parametrize("seed", [1030, 1034])
def test_frames_keep_the_signs_of_zero_entries(seed):
    # a complex:2 block equal to the identity up to 4e-17 off the diagonal: its eigenvectors
    # have zero entries, and each subspace is I V_c, whose zeros may differ in sign from V_c's
    alg = sp.parse_algebra("sum(sum(real:2,complex:2),spin:2)")
    _check_frames(alg, sp.random_effect(alg, seed, "sharp"))


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("short", [s for s in ORACLE_ALGEBRAS if not s.startswith("sum")])
def test_commutant_bases_equal_the_reference(short, profile):
    alg = sp.parse_algebra(short)
    a, b = sp.random_effect(alg, 81, profile), sp.random_effect(alg, 82)
    for name, family in {**_families(alg, a), "a,b": [a, b]}.items():
        assert_same_elements(sp.commutant_basis(family), reference_basis(family), name)
        if name != "a,b":
            assert_same_elements(sp.bicommutant_basis(family),
                                 reference_basis(reference_basis(family)), name)


def test_commutant_rows_are_one_array_on_every_kind():
    for short in ("real:3", "complex:3", "quat:2", "spin:4"):
        alg = sp.parse_algebra(short)
        rows = alg._backend.commutant_rows(alg, [sp.random_effect(alg, 83)])
        assert isinstance(rows, np.ndarray) and rows.ndim == 2
        assert rows.shape[1] == alg.real_dimension


# ---------------------------------------------------------------------------
# eigensolves
# ---------------------------------------------------------------------------

@pytest.fixture
def solves(monkeypatch):
    """The number of eigh and eigvalsh calls made since the fixture was set up."""
    count = [0]

    def counted(solver):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return solver(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    return count


def test_diagonalizing_a_pair_makes_only_the_commutation_checks_solves(solves):
    alg = sp.real_symmetric(4)
    a = sp.random_effect(alg, 84)
    b = sp.jordan_product(a, a)
    start = solves[0]
    assert sp.commutes(sp.SequentialProduct.standard(alg), _fresh(a), _fresh(b))
    # sqrt(a) and sqrt(b); the difference's norm bound settles the check without a solve
    assert solves[0] - start == 2
    start = solves[0]
    assert sp.simultaneous_diagonalize([_fresh(a), _fresh(b)]).points == 4
    assert solves[0] - start == 2


def test_diagonalizing_a_decomposed_element_makes_no_solve(solves):
    a = sp.random_effect(sp.real_symmetric(4), 85)
    sp.spectral_decompose(a)
    start = solves[0]
    sp.simultaneous_diagonalize([a])
    assert solves[0] == start


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

def _non_finite(alg, bad):
    """An element of ``alg`` with one entry ``bad`` (the first block's, on a sum)."""
    if alg.summands:
        return sp.Element(alg, (_non_finite(alg.summands[0], bad),)
                          + tuple(sp.identity(s) * 0.5 for s in alg.summands[1:]))
    if alg.kind == KIND_SPIN:
        return sp.Element(alg, (np.array([bad] + [0.0] * (alg.size - 1)), 0.5))
    mat = 0.5 * np.eye(alg.matrix_order, dtype=alg._backend.dtype)
    mat[0, 0] = bad
    return sp.Element(alg, mat)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("short", ["real:4", "quat:2", "spin:3", "sum(complex:2,real:3)"])
def test_non_finite_input_fails_loudly(short, bad):
    alg = sp.parse_algebra(short)
    a, x = sp.random_effect(alg, 86), _non_finite(alg, bad)
    for family in ([x], [a, x], [x, a]):
        with pytest.raises(sp.NumericalFailureError):
            sp.simultaneous_diagonalize(family)
        with pytest.raises(sp.CapabilityError if alg.summands else sp.NumericalFailureError):
            sp.commutant_basis(family)
