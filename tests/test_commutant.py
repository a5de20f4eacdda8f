import math

import numpy as np
import pytest

import seqprod as sp
from seqprod import _backends
from seqprod._backends import KIND_QUAT, KIND_SPIN, _clusters, _matrix_basis
from seqprod.algebra import from_coords, to_coords, trace
from seqprod.products import COMMUTE_TOL
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


@pytest.mark.parametrize("short", ["sum(complex:2,real:3)", "sum(spin:3,quat:2)"])
def test_the_commutant_of_a_direct_sum_is_the_sum_of_the_blocks_commutants(short):
    alg = sp.parse_algebra(short)
    a, b = sp.random_effect(alg, 61), sp.random_effect(alg, 62, "sharp")
    for family in ([a], [a, b], [sp.identity(alg)], [a, sp.jordan_product(a, a)]):
        basis = sp.commutant_basis(family)
        blocks = [sp.commutant_basis([x.data[bi] for x in family])
                  for bi in range(len(alg.summands))]
        assert len(basis) == sum(map(len, blocks))
        for e in basis:
            for bi, sub in enumerate(alg.summands):
                for x in family:
                    assert sub._backend.commutator_norm(e.data[bi], x.data[bi]) <= 1e-9


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
# ``reference_frame`` splits the space into the column blocks V_c of the first
# generator's own solve, then refines them one generator at a time, keeping a
# subspace of dimension one (two on quaternions: one Kramers pair, a
# quaternionic line) as it is and solving every other compression v^H s v, and
# builds each projection with the public constructor; ``reference_basis``
# builds one element per null-space row.  The package reads the first
# generator's cached solve and builds the basis as one stack; both
# must equal the reference bit for bit: data, dtype and signed zeros.  With
# ``split_all`` the frame reference solves every compression, quaternionic
# lines too: a second oracle, which the quaternionic frames match to rounding.
# A spin factor's frame is the split frame of its first generator that the gap
# splits.  The rows are the null space of the maps X -> [X, s] on every kind;
# on spin factors the closed form (the family's direction, if every direction
# is collinear, and the unit) is a second oracle, compared by span.

ORACLE_ALGEBRAS = ["real:4", "complex:4", "quat:3", "quat:2", "complex:2", "spin:5", "real:1",
                   "sum(complex:2,real:3)", "sum(sum(real:2,complex:2),spin:2)"]
PROFILES = ["generic", "singular", "sharp", "invertible"]


def _reference_directions(elems, least):
    """v / |v| of each spin element whose |v| exceeds ``least``, in order."""
    dirs = []
    for e in elems:
        v, _ = e.data
        r = np.linalg.norm(v)
        if r > least:
            dirs.append(v / r)
    return dirs


def reference_frame(alg, elems, gap=DEFAULT_GAP, split_all=False):
    if alg.summands:
        frame = []
        for bi, sub in enumerate(alg.summands):
            for p in reference_frame(sub, [e.data[bi] for e in elems], gap, split_all):
                blocks = [sp.zero(s) for s in alg.summands]
                blocks[bi] = p
                frame.append(sp.Element(alg, tuple(blocks)))
        return frame
    if alg.kind == KIND_SPIN:
        dirs = _reference_directions(elems, gap / 2.0)
        if not dirs:
            return [alg._backend.scalar(alg, 1.0)]
        return [sp.Element(alg, (0.5 * dirs[0], 0.5)), sp.Element(alg, (-0.5 * dirs[0], 0.5))]
    line = 2 if alg.kind == KIND_QUAT else 1
    w, vecs = np.linalg.eigh(elems[0].data)
    subspaces, start = [], 0
    for size in _clusters(w, gap)[0]:
        subspaces.append(vecs[:, start:start + size])
        start += size
    for s in elems[1:]:
        refined = []
        for v in subspaces:
            if v.shape[1] == line and not split_all:
                refined.append(v)
                continue
            w, vecs = np.linalg.eigh(v.conj().T @ s.data @ v)
            start = 0
            for size in _clusters(w, gap)[0]:
                refined.append(v @ vecs[:, start:start + size])
                start += size
        subspaces = refined
    return [sp.Element(alg, v @ v.conj().T) for v in subspaces]


def reference_commutators(alg, s):
    """[E_k, s] flattened, a row per coordinate basis element E_k: on a spin factor E_k is
    (e_k / sqrt(2), 0), or (0, 1 / sqrt(2)), whose commutator is 0; on a direct sum each
    summand's rows fill its block, zero elsewhere."""
    if alg.summands:
        parts = [reference_commutators(sub, blk) for sub, blk in zip(alg.summands, s.data)]
        out = np.zeros((alg.real_dimension, sum(p.shape[1] for p in parts)),
                       np.result_type(*parts))
        row = col = 0
        for p in parts:
            out[row:row + p.shape[0], col:col + p.shape[1]] = p
            row, col = row + p.shape[0], col + p.shape[1]
        return out
    if alg.kind == KIND_SPIN:
        w, d = s.data[0], alg.size
        units = np.eye(d + 1)[:, :d] / np.sqrt(2.0)
        return np.stack([(np.outer(v, w) - np.outer(w, v)).ravel() for v in units])
    basis = _matrix_basis(alg)
    return (basis @ s.data - s.data @ basis).reshape(alg.real_dimension, -1)


def reference_rows(alg, elems):
    dim, blocks = alg.real_dimension, []
    for s in elems:
        comm = reference_commutators(alg, s)
        blocks.append(np.concatenate([comm.real, comm.imag], axis=1).T)
    _, svals, vh = np.linalg.svd(np.vstack(blocks), full_matrices=False)
    tol = 1e-8 * max(1.0, float(svals[0]))
    return [vh[i] for i in range(dim) if svals[i] <= tol]


def closed_form_spin_rows(alg, elems):
    """The spin commutant in closed form: everything when no element has a direction (|v| above
    1e-12), else the unit, and the first direction when every direction is collinear with it
    (|cosine| within 1e-9 of 1)."""
    dirs = _reference_directions(elems, 1e-12)
    if not dirs:
        return list(np.eye(alg.real_dimension))
    unit = to_coords(sp.identity(alg)) / np.sqrt(2.0)
    if all(abs(abs(float(d @ dirs[0])) - 1.0) <= 1e-9 for d in dirs):
        return [to_coords(sp.Element(alg, (dirs[0], 0.0))) / np.sqrt(2.0), unit]
    return [unit]


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
    """A copy of ``x``, block by block, with no cached eigen-data, as a request builds it."""
    if x.algebra.summands:
        return sp.Element(x.algebra, tuple(_fresh(blk) for blk in x.data))
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


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("short", ["quat:3", "quat:2", "sum(spin:3,quat:2)"])
def test_quaternionic_frames_match_the_reference_that_splits_every_subspace(short, profile):
    alg = sp.parse_algebra(short)
    for seed in (80, 81, 82):
        a = sp.random_effect(alg, seed, profile)
        for name, family in _families(alg, a).items():
            got = sp.simultaneous_diagonalize([_fresh(x) for x in family]).frame
            want = reference_frame(alg, [_fresh(x) for x in family], split_all=True)
            assert len(got) == len(want), name
            for p, q in zip(got, want):
                assert sp.order_unit_norm(p - q) <= 1e-14, name
                assert sp.is_sharp(p, 1e-14), name


@pytest.mark.parametrize("seed", [1030, 1034])
def test_frames_keep_the_signs_of_zero_entries(seed):
    # a complex:2 block equal to the identity up to 4e-17 off the diagonal: its eigenvectors
    # have zero entries, whose signs each frame keeps from the first generator's V_c
    alg = sp.parse_algebra("sum(sum(real:2,complex:2),spin:2)")
    _check_frames(alg, sp.random_effect(alg, seed, "sharp"))


#: (algebra, profile) of the one-generator cases; "zero signs" takes the complex:2 blocks of the
#: elements whose zero entries ``test_frames_keep_the_signs_of_zero_entries`` reads
ONE_GENERATOR_CASES = [(short, profile) for short in ("real:1", "real:4", "complex:4", "quat:3")
                       for profile in PROFILES] + [("complex:2", "zero signs")]


@pytest.mark.parametrize("short,profile", ONE_GENERATOR_CASES)
def test_a_one_generator_joint_frame_is_its_spectral_frame(short, profile):
    # both are the one projection builder on the generator's own column blocks: bit for bit,
    # signed zeros included, the joint frame in ascending order
    if profile == "zero signs":
        nested = sp.parse_algebra("sum(sum(real:2,complex:2),spin:2)")
        elems = [sp.random_effect(nested, seed, "sharp").data[0].data[1] for seed in (1030, 1034)]
    else:
        elems = [sp.random_effect(sp.parse_algebra(short), 83, profile)]
    for a in elems:
        for x, y in ((a, a), (_fresh(a), _fresh(a))):
            want = sp.spectral_decompose(x).idempotents[::-1]
            assert_same_elements(sp.simultaneous_diagonalize([y]).frame, want, short)


def test_every_matrix_frame_goes_through_the_one_projection_builder(monkeypatch):
    calls = []
    builder = _backends._MatrixBackend._projections

    def counted(self, alg, vecs, widths):
        calls.append(vecs.ndim)
        return builder(self, alg, vecs, widths)

    monkeypatch.setattr(_backends._MatrixBackend, "_projections", counted)
    alg = sp.complex_hermitian(3)
    backend, a = alg._backend, sp.random_effect(alg, 84)
    stack, a2 = backend.stack(alg, [a, a]), sp.jordan_product(a, a)
    rngs = [np.random.default_rng(seed) for seed in (1, 2, 3)]
    # one matrix of eigenvectors for a single frame or a joint frame, a stack for a stacked frame
    # and for the rank columns of a sharp draw
    for call, ndim in [(lambda: sp.spectral_decompose(_fresh(a)), 2),
                       (lambda: backend.spectral_pairs(stack, DEFAULT_GAP), 3),
                       (lambda: sp.simultaneous_diagonalize([_fresh(a), a2]), 2),
                       (lambda: backend.random_projections(alg, rngs, True), 3)]:
        calls.clear()
        call()
        assert calls and set(calls) == {ndim}, ndim


#: cases whose commutator maps differ from the reference's in the signs of zeros only
SIGNED_ZERO_ALGEBRAS = ["complex:3", "quat:3"]
COMMUTANT_CASES = ([pytest.param(short, 81, id=short) for short in ORACLE_ALGEBRAS]
                   + [pytest.param(short, 5, id=f"{short}-seed5")
                      for short in SIGNED_ZERO_ALGEBRAS])


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("short,seed", COMMUTANT_CASES)
def test_commutant_bases_equal_the_reference(short, seed, profile):
    alg = sp.parse_algebra(short)
    a, b = sp.random_effect(alg, seed, profile), sp.random_effect(alg, 82)
    for name, family in {**_families(alg, a), "a,b": [a, b]}.items():
        assert_same_elements(sp.commutant_basis(family), reference_basis(family), name)
        if name != "a,b":
            assert_same_elements(sp.bicommutant_basis(family),
                                 reference_basis(reference_basis(family)), name)


def _maps_differ_in_signed_zeros_only(family):
    alg, basis = family[0].algebra, _backends._coordinate_basis(family[0].algebra)
    got = [alg._backend.commutator(basis, s).reshape(alg.real_dimension, -1) for s in family]
    want = [reference_commutators(alg, s) for s in family]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    return any(g.tobytes() != w.tobytes() for g, w in zip(got, want))


def test_the_signed_zero_cases_reach_maps_that_differ_in_signed_zeros():
    # the null-space rows must not depend on the sign of a zero in the maps
    seen = {short: sum(_maps_differ_in_signed_zeros_only(family)
                       for profile in PROFILES
                       for family in _families(sp.parse_algebra(short), sp.random_effect(
                           sp.parse_algebra(short), 5, profile)).values())
            for short in SIGNED_ZERO_ALGEBRAS}
    assert all(seen.values()), seen


class _CountedProducts(np.ndarray):
    """Element data that records the operand shapes of every matrix product it enters."""

    shapes = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(x) if isinstance(x, _CountedProducts) else x for x in inputs]
        if ufunc is np.matmul:
            _CountedProducts.shapes.append(tuple(np.shape(x) for x in plain))
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("short", ["real:4", "complex:4", "quat:3"])
def test_the_commutant_maps_take_one_product_per_generator(short):
    # E_k s for every E_k from the basis stacked in rows, and s E_k = (E_k s)^H: one matrix
    # product per generator, not a stack of small ones per side
    alg = sp.parse_algebra(short)
    family = [sp.random_effect(alg, 61), sp.random_effect(alg, 62)]
    counted = [_backends._trusted(alg, x.data.view(_CountedProducts)) for x in family]
    _CountedProducts.shapes = []
    assert_same_elements(sp.commutant_basis(counted), sp.commutant_basis(family), short)
    dim, m = alg.real_dimension, alg.matrix_order
    assert _CountedProducts.shapes == [((dim * m, m), (m, m))] * 2


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("short", ["spin:5", "spin:2", "spin:1"])
def test_spin_commutants_span_the_closed_form(short, profile):
    alg = sp.parse_algebra(short)
    a, b = sp.random_effect(alg, 81, profile), sp.random_effect(alg, 82)
    for name, family in {**_families(alg, a), "a,b": [a, b]}.items():
        rows = np.array(closed_form_spin_rows(alg, family))
        got = _span_projector(sp.commutant_basis(family))
        assert np.abs(got - rows.T @ rows).max() <= 1e-14, name


def _frame_projector(frame):
    """The projector onto the span of an orthogonal frame, each p normalised by sqrt(tr p)."""
    return _span_projector([p * (1.0 / math.sqrt(trace(p))) for p in frame])


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("short", ORACLE_ALGEBRAS)
def test_the_bicommutant_of_a_commuting_family_is_the_span_of_its_joint_frame(short, profile):
    # the double-commutant theorem: S'' is the algebra of functions on the joint frame of S
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, 80, profile)
    for name, family in _families(alg, a).items():
        frame = sp.simultaneous_diagonalize(family).frame
        bicommutant = sp.bicommutant_basis(family)
        assert len(bicommutant) == len(frame), name
        assert np.abs(_span_projector(bicommutant) - _frame_projector(frame)).max() <= 1e-12, name


def _unsplit(short):
    """An element whose two eigenvalues lie 2e-10 apart: |v| = 1e-10 on a spin factor."""
    alg = sp.parse_algebra(short)
    if alg.kind == KIND_SPIN:
        return sp.Element(alg, (np.r_[1e-10, np.zeros(alg.size - 1)], 0.5))
    return sp.Element(alg, np.diag([0.5 + 1e-10, 0.5 - 1e-10]).astype(complex))


@pytest.mark.parametrize("short", ["spin:3", "complex:2"])
def test_an_element_the_gap_does_not_split_is_one_point_everywhere(short):
    x = _unsplit(short)
    alg = x.algebra
    for gap in (DEFAULT_GAP, 1e-3):
        assert len(sp.spectral_decompose(x, gap).pairs) == 1
        assert sp.simultaneous_diagonalize([x], gap).points == 1
    assert len(sp.commutant_basis([x])) == alg.real_dimension
    a = sp.random_effect(alg, 88)
    for gap in (DEFAULT_GAP, 1e-3, 10.0):
        # the gap applies to a split element as well
        assert (sp.simultaneous_diagonalize([a], gap).points
                == len(sp.spectral_decompose(a, gap).pairs)), gap


@pytest.mark.parametrize("gap", [DEFAULT_GAP, 1e-3])
def test_a_spin_frame_comes_from_the_first_generator_the_gap_splits(gap):
    alg = sp.spin_factor(3)
    x, a = _unsplit("spin:3"), sp.random_effect(alg, 89)
    frame = sp.simultaneous_diagonalize([x, sp.identity(alg), a, sp.jordan_product(a, a)], gap)
    assert_same_elements(frame.frame, sp.spectral_decompose(a, gap).idempotents, "x,1,a,a*a")
    assert_same_elements(frame.frame, reference_frame(alg, [x, a], gap), "x,a")


@pytest.mark.parametrize("short", ["real:3", "spin:3", "sum(complex:2,real:3)"])
def test_to_function_refuses_a_stacked_element(short):
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, 94)
    model = sp.simultaneous_diagonalize([a])
    with pytest.raises(sp.PreconditionError,
                       match="^to_function takes single elements; element 0 is a stack$"):
        model.to_function(alg._backend.stack(alg, [a, a]))
    assert model.to_function(a).shape == (model.points,)


def test_commutant_rows_are_one_array_on_every_kind():
    for short in ("real:3", "complex:3", "quat:2", "spin:4", "sum(spin:3,quat:2)"):
        alg = sp.parse_algebra(short)
        rows = alg._backend.commutant_rows(alg, [sp.random_effect(alg, 83)])
        assert isinstance(rows, np.ndarray) and rows.ndim == 2
        assert rows.shape[1] == alg.real_dimension


# ---------------------------------------------------------------------------
# eigensolves
# ---------------------------------------------------------------------------

@pytest.fixture
def solves(monkeypatch):
    """The eigh and eigvalsh calls made since the fixture was set up, by solver name."""
    count = {"eigh": 0, "eigvalsh": 0}

    def counted(name, solver):
        def wrapper(*args, **kwargs):
            count[name] += 1
            return solver(*args, **kwargs)
        return wrapper

    for name in count:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return count


def test_diagonalizing_a_pair_makes_only_the_commutation_checks_solves(solves):
    alg = sp.real_symmetric(4)
    a = sp.random_effect(alg, 84)
    b = sp.jordan_product(a, a)
    solves.update(eigh=0, eigvalsh=0)
    assert sp.commutes(sp.SequentialProduct.standard(alg), _fresh(a), _fresh(b))
    # sqrt(a) and sqrt(b); the difference's norm bound settles the check without a solve
    assert solves == {"eigh": 2, "eigvalsh": 0}
    solves.update(eigh=0, eigvalsh=0)
    assert sp.simultaneous_diagonalize([_fresh(a), _fresh(b)]).points == 4
    # a's full solve, which the frame reads; the commutator needs no solve
    assert solves == {"eigh": 1, "eigvalsh": 0}


#: (algebra, eigh calls, eigvalsh calls) of a commuting pair: one full solve of a per matrix
#: block, none on a spin factor, and no solve of b
SETTLED_SOLVES = [("real:4", 1, 0), ("complex:4", 1, 0), ("quat:3", 1, 0), ("spin:5", 0, 0),
                  ("sum(complex:2,real:3)", 2, 0), ("complex:3", 1, 0),
                  ("sum(spin:3,quat:2)", 1, 0)]


@pytest.mark.parametrize("short, eigh, eigvalsh", SETTLED_SOLVES)
def test_a_commuting_pair_solves_a_once_and_builds_no_product_root(short, eigh, eigvalsh,
                                                                   solves, monkeypatch):
    monkeypatch.setattr(_backends, "_matrix_function",
                        lambda *args: pytest.fail("_matrix_function was called"))
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, 87)
    a, b = _fresh(a), _fresh(sp.jordan_product(a, a) * 0.9 + sp.identity(alg) * 0.05)
    solves.update(eigh=0, eigvalsh=0)
    model = sp.simultaneous_diagonalize([a, b])
    assert solves == {"eigh": eigh, "eigvalsh": eigvalsh}
    assert "_roots" not in a.__dict__ and "_roots" not in b.__dict__
    for blk in list(b.data) if alg.summands else [b]:
        assert "_spectrum" not in blk.__dict__ and "_eigen" not in blk.__dict__
    assert_same_elements(model.frame, reference_frame(alg, [_fresh(a), _fresh(b)]), short)


def test_diagonalizing_a_decomposed_element_makes_no_solve(solves):
    a = sp.random_effect(sp.real_symmetric(4), 85)
    sp.spectral_decompose(a)
    start = dict(solves)
    sp.simultaneous_diagonalize([a])
    assert solves == start


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
        with pytest.raises(sp.NumericalFailureError):
            sp.commutant_basis(family)


# ---------------------------------------------------------------------------
# the precondition is the commutator
# ---------------------------------------------------------------------------
#
# A family is accepted when every pair's ``commutator_norm`` is at most
# COMMUTE_TOL, whatever the signs of the spectra.  The battery draws commuting
# pairs b = f(a), pairs near the threshold b = (1 - e) f(a) + e h, generic,
# sharp, singular and non-positive pairs, and ill-conditioned pairs whose
# perturbation couples the eigenvectors of a's two smallest eigenvalues, both
# near FLOOR (on a spin factor, of its two eigenvalues).

BOUND_ALGEBRAS = ["real:4", "complex:4", "quat:3", "spin:5", "sum(complex:2,real:3)",
                  "complex:3", "sum(spin:3,quat:2)"]
FUNCTIONS = {"square": lambda x: x * x, "affine": lambda x: 0.05 + 0.9 * x * x,
             "root": lambda x: math.sqrt(max(x, 0.0)), "complement": lambda x: 1.0 - x}
#: the smallest eigenvalues of the ill-conditioned pairs are moved to a few times this
FLOOR = 1e-6


def _peirce(p, q, x):
    """The part of x between the orthogonal idempotents p and q: p x q + q x p on matrices."""
    return sp.quadratic_rep(p + q, x) - sp.quadratic_rep(p, x) - sp.quadratic_rep(q, x)


def _ill_conditioned(a, lows):
    """a with its smallest cluster values moved to ``lows``, and its frame in ascending order."""
    values, frame = zip(*sp.spectral_decompose(a).pairs)
    moved = dict(zip(values[::-1], lows))

    def f(x):
        return next((low for v, low in moved.items() if abs(x - v) <= 1e-9), x)

    return sp.functional_calculus(a, f), frame[::-1]


def _bound_pairs(alg, seed):
    """(name, a, b) of the battery on ``alg``."""
    rng = np.random.default_rng(seed)
    one = sp.identity(alg)
    pairs = []
    for k, profile in enumerate(PROFILES):
        a = sp.random_effect(alg, seed + k, profile)
        pairs += [(f"{name}({profile})", a, sp.functional_calculus(a, f))
                  for name, f in FUNCTIONS.items()]
    for k in range(6):
        a, h = sp.random_effect(alg, seed + 10 + k), sp.random_effect(alg, seed + 20 + k)
        eps = 10.0 ** rng.uniform(-14, -5)
        fa = sp.functional_calculus(a, list(FUNCTIONS.values())[k % 2])
        pairs.append((f"near {eps:.1e}", a, fa * (1.0 - eps) + h * eps))
    a, b = sp.random_effect(alg, seed + 30), sp.random_effect(alg, seed + 31)
    narrow = [one * 0.5 + (x - one * 0.5) * 0.02 for x in (a, b)]
    pairs += [("generic", a, b), ("narrow", *narrow),
              ("sharp", sp.random_effect(alg, seed + 32, "sharp"),
               sp.random_effect(alg, seed + 33, "sharp")),
              ("singular", sp.random_effect(alg, seed + 34, "singular"), b),
              ("non-positive", a - one * 0.2, sp.functional_calculus(a, FUNCTIONS["square"])),
              ("positive, non-positive", b, a - one * 0.2)]
    # spin factors have two eigenvalues, so only the smallest moves
    lows = [1.5 * FLOOR] + ([] if alg.kind == KIND_SPIN else [4.0 * FLOOR])
    a, frame = _ill_conditioned(sp.random_effect(alg, seed + 40), lows)
    base = one * 0.5 + a * 0.5
    h = _peirce(frame[0], frame[1], sp.random_effect(alg, seed + 41))
    for eps in sorted(10.0 ** rng.uniform(-14, -1, 4)):
        pairs.append((f"ill-conditioned {eps:.1e}", a, base + h * (0.4 * eps)))
    below, _ = _ill_conditioned(sp.random_effect(alg, seed + 42), [0.9 * FLOOR])
    pairs.append(("below the floor", below, sp.functional_calculus(below, FUNCTIONS["square"])))
    return pairs


def _outcome(call):
    try:
        call()
    except sp.SeqprodError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("short", BOUND_ALGEBRAS)
def test_the_precondition_fails_exactly_when_the_commutator_exceeds_its_tol(short):
    alg = sp.parse_algebra(short)
    accepted = refused = 0
    for name, a, b in _bound_pairs(alg, 90):
        commuting = alg._backend.commutator_norm(a, b) <= COMMUTE_TOL
        expected = None if commuting else (sp.PreconditionError, "elements 0 and 1 do not commute")
        got = _outcome(lambda: sp.simultaneous_diagonalize([_fresh(a), _fresh(b)]))
        assert got == expected, name
        assert _outcome(lambda: sp.bicommutant_basis([_fresh(a), _fresh(b)])) == expected, name
        accepted += commuting
        refused += not commuting
    assert accepted >= 20 and refused >= 3  # the battery reaches both sides of the threshold


@pytest.mark.parametrize("short", BOUND_ALGEBRAS)
def test_a_pair_is_accepted_just_below_the_tol_and_refused_just_above(short):
    # [a, f(a) + t h] = t [a, h] up to rounding, so t sets the commutator norm to a multiple
    # of COMMUTE_TOL
    alg = sp.parse_algebra(short)
    a, h = sp.random_effect(alg, 94), sp.random_effect(alg, 95)
    fa = sp.functional_calculus(a, FUNCTIONS["affine"])
    unit = alg._backend.commutator_norm(a, h)
    assert unit > 1e-3
    for scale, expected in ((0.5, None), (2.0, (sp.PreconditionError,
                                                 "elements 0 and 1 do not commute"))):
        b = fa + h * (scale * COMMUTE_TOL / unit)
        assert alg._backend.commutator_norm(a, b) == pytest.approx(scale * COMMUTE_TOL, rel=1e-3)
        assert _outcome(lambda: sp.simultaneous_diagonalize([_fresh(a), _fresh(b)])) == expected
        assert _outcome(lambda: sp.bicommutant_basis([_fresh(a), _fresh(b)])) == expected


@pytest.mark.parametrize("short", ["real:4", "spin:3", "sum(complex:2,real:3)"])
def test_a_non_positive_commuting_family_is_diagonalized(short):
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, 93) - sp.identity(alg) * 0.2
    family = [a, sp.jordan_product(a, a)]
    assert sp.min_eigenvalue(a) < 0.0
    got = sp.simultaneous_diagonalize([_fresh(x) for x in family]).frame
    assert_same_elements(got, reference_frame(alg, [_fresh(x) for x in family]), short)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("short", ["real:4", "spin:3", "sum(complex:2,real:3)"])
def test_a_family_holding_a_nan_fails_loudly_in_either_order(short):
    alg = sp.parse_algebra(short)
    a, x = sp.random_effect(alg, 93) - sp.identity(alg) * 0.2, _non_finite(alg, np.nan)
    for family in ([a, x], [x, a]):
        with pytest.raises(sp.NumericalFailureError, match="not finite"):
            sp.simultaneous_diagonalize([_fresh(y) for y in family])
        with pytest.raises(sp.NumericalFailureError, match="not finite"):
            sp.bicommutant_basis([_fresh(y) for y in family])


#: the three calls that take a family, by name
FAMILY_CALLS = {"commutant_basis": sp.commutant_basis, "bicommutant_basis": sp.bicommutant_basis,
                "simultaneous_diagonalize": sp.simultaneous_diagonalize}


#: a direct sum whose second block alone is a stack, as ``Element(alg, blocks)`` accepts
SECOND_BLOCK_STACKED = "sum(real:2,spin:2), its spin block stacked"


@pytest.mark.parametrize("name", FAMILY_CALLS)
@pytest.mark.parametrize("short", ["real:3", "spin:3", "quat:2", "sum(complex:2,real:3)",
                                   "sum(spin:2,quat:2)", "sum(sum(real:2,complex:2),spin:2)",
                                   SECOND_BLOCK_STACKED])
def test_a_family_call_refuses_a_stacked_element_by_name_and_solves_nothing(short, name,
                                                                            solves):
    # the refusal comes before any solve, on every kind, whichever block holds the stack
    block_stacked = short == SECOND_BLOCK_STACKED
    alg = sp.parse_algebra("sum(real:2,spin:2)" if block_stacked else short)
    call = FAMILY_CALLS[name]
    a, other = sp.random_effect(alg, 94), sp.random_effect(sp.parse_algebra("real:2"), 94)
    if block_stacked:
        spin = alg.summands[1]
        s = sp.Element(alg, (a.data[0], spin._backend.stack(spin, [a.data[1]] * 2)))
    else:
        s = alg._backend.stack(alg, [a, a])
    solves.update(eigh=0, eigvalsh=0)
    for family, i in (([s], 0), ([a, s], 1), ([a, a * 0.5, s, a], 2)):
        with pytest.raises(sp.PreconditionError,
                           match=f"^{name} takes single elements; element {i} is a stack$"):
            call(family)
    with pytest.raises(sp.PreconditionError, match=f"^{name} needs a non-empty family"):
        call([])
    with pytest.raises(sp.DescriptorMismatchError):
        call([a, other])
    assert solves == {"eigh": 0, "eigvalsh": 0}
