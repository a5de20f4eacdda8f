import math
from functools import reduce

import numpy as np
import pytest

import seqprod as sp
from seqprod import _backends
from seqprod._backends import KIND_SPIN, _clusters, _eigh, _matrix_basis
from seqprod.algebra import from_coords, to_coords
from seqprod.commutant import _proved_commuting
from seqprod.products import COMMUTE_FLOOR, COMMUTE_ROUNDING
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
    # the spectral ends of a and b, which prove the pair commuting; the frame reads a's solve
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


# ---------------------------------------------------------------------------
# the commutation bound against commutes
# ---------------------------------------------------------------------------
#
# ``_proved_commuting`` accepts a pair from ||[a, b]|| and the spectral ends
# alone; every other pair goes to ``commutes``.  The battery draws commuting
# pairs b = f(a), pairs near the threshold b = (1 - e) f(a) + e h, generic,
# sharp, singular and non-positive pairs, and ill-conditioned pairs whose
# perturbation couples the eigenvectors of a's two smallest eigenvalues, both
# near COMMUTE_FLOOR (on a spin factor, of its two eigenvalues): on matrix
# kinds the root terms of the bound are then what bounds the product
# commutator.

BOUND_ALGEBRAS = ["real:4", "complex:4", "quat:3", "spin:5", "sum(complex:2,real:3)",
                  "complex:3", "sum(spin:3,quat:2)"]
FUNCTIONS = {"square": lambda x: x * x, "affine": lambda x: 0.05 + 0.9 * x * x,
             "root": lambda x: math.sqrt(max(x, 0.0)), "complement": lambda x: 1.0 - x}


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
    lows = [1.5 * COMMUTE_FLOOR] + ([] if alg.kind == KIND_SPIN else [4.0 * COMMUTE_FLOOR])
    a, frame = _ill_conditioned(sp.random_effect(alg, seed + 40), lows)
    base = one * 0.5 + a * 0.5
    h = _peirce(frame[0], frame[1], sp.random_effect(alg, seed + 41))
    for eps in sorted(10.0 ** rng.uniform(-14, -1, 4)):
        pairs.append((f"ill-conditioned {eps:.1e}", a, base + h * (0.4 * eps)))
    below, _ = _ill_conditioned(sp.random_effect(alg, seed + 42), [0.9 * COMMUTE_FLOOR])
    pairs.append(("below the floor", below, sp.functional_calculus(below, FUNCTIONS["square"])))
    return pairs


def _outcome(call):
    try:
        call()
    except sp.SeqprodError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("short", BOUND_ALGEBRAS)
def test_the_precondition_fails_exactly_when_commutes_does(short):
    alg = sp.parse_algebra(short)
    std = sp.SequentialProduct.standard(alg)
    proved = opened = 0
    for name, a, b in _bound_pairs(alg, 90):
        verdict = []
        expected = _outcome(lambda: verdict.append(sp.commutes(std, _fresh(a), _fresh(b))))
        if expected is None and not verdict[0]:
            expected = (sp.PreconditionError, "elements 0 and 1 do not commute")
        got = _outcome(lambda: sp.simultaneous_diagonalize([_fresh(a), _fresh(b)]))
        assert got == expected, name
        if not alg.summands:
            assert _outcome(lambda: sp.bicommutant_basis([_fresh(a), _fresh(b)])) == expected, name
        settled = _proved_commuting(_fresh(a), _fresh(b))
        assert not settled or verdict == [True], name
        proved += settled
        opened += verdict == [True] and not settled
    assert proved >= 12 and opened >= 1  # the battery reaches both sides of the bound


def _clifford(d):
    """d anticommuting Hermitian unitaries (Jordan-Wigner)."""
    pauli_x, pauli_y, pauli_z = (np.array(m, dtype=complex) for m in
                                 ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))
    qubits = (d + 1) // 2
    gens = [reduce(np.kron, [pauli_z] * j + [s] + [np.eye(2)] * (qubits - j - 1))
            for j in range(qubits) for s in (pauli_x, pauli_y)]
    return gens[:d]


def _matrix_blocks(x):
    """x as a list of Hermitian matrices, one per simple block; spin in its Clifford form."""
    if x.algebra.summands:
        return [m for blk in x.data for m in _matrix_blocks(blk)]
    if x.algebra.kind == KIND_SPIN:
        v, t = x.data
        gens = _clifford(len(v))
        return [t * np.eye(len(gens[0])) + sum(c * g for c, g in zip(v, gens))]
    return [x.data]


def _chain_middle(a, b):
    """||[a, b]|| + ||sqrt(a)|| ||[sqrt(a), b]|| + ||sqrt(b)|| ||[sqrt(b), a]||, per block."""
    def root(m):
        w, v = np.linalg.eigh(m)
        return (v * np.sqrt(w)) @ v.conj().T

    def comm_norm(x, y):
        return np.linalg.norm(x @ y - y @ x, 2)

    return max(comm_norm(x, y) + np.linalg.norm(root(x), 2) * comm_norm(root(x), y)
               + np.linalg.norm(root(y), 2) * comm_norm(root(y), x)
               for x, y in zip(_matrix_blocks(a), _matrix_blocks(b)))


@pytest.mark.parametrize("short", BOUND_ALGEBRAS)
def test_the_bound_is_at_least_each_side_of_its_chain(short):
    # the solved ||a o b - b o a|| <= the middle of the chain <= the bound, each up to the
    # rounding allowance; the middle is formed in numpy on the blocks' matrices
    alg = sp.parse_algebra(short)
    std = sp.SequentialProduct.standard(alg)
    ratios = []
    for name, a, b in _bound_pairs(alg, 91):
        (lo_a, hi_a), (lo_b, hi_b) = sp.algebra.eigenvalue_range(a), sp.algebra.eigenvalue_range(b)
        if not (lo_a > 1e-12 and lo_b > 1e-12):
            continue
        bound = alg._backend.commutation_bound(a, b)
        allowance = COMMUTE_ROUNDING * max(1.0, hi_a) * max(1.0, hi_b)
        solved = sp.order_unit_norm(sp.seq_product(std, a, b) - sp.seq_product(std, b, a))
        assert solved <= bound + allowance, name
        assert _chain_middle(a, b) <= bound + allowance, name
        if solved > 1e3 * allowance:
            ratios.append(bound / solved)
    assert ratios and min(ratios) >= 1.0


@pytest.mark.parametrize("short", BOUND_ALGEBRAS)
def test_a_proved_pair_builds_no_product_root(short, monkeypatch):
    monkeypatch.setattr(_backends, "_matrix_function",
                        lambda *args: pytest.fail("_matrix_function was called"))
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, 92)
    a, b = _fresh(a), _fresh(sp.jordan_product(a, a) * 0.9 + sp.identity(alg) * 0.05)
    assert _proved_commuting(a, b)
    model = sp.simultaneous_diagonalize([a, b])
    assert "_roots" not in a.__dict__ and "_roots" not in b.__dict__
    assert_same_elements(model.frame, reference_frame(alg, [_fresh(a), _fresh(b)]), short)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("short", ["real:4", "spin:3", "sum(complex:2,real:3)"])
def test_a_non_positive_element_fails_as_commutes_does_before_a_non_finite_one(short):
    # commutes takes sqrt of the first element before it reads the second
    alg = sp.parse_algebra(short)
    a, x = sp.random_effect(alg, 93) - sp.identity(alg) * 0.2, _non_finite(alg, np.nan)
    expected = _outcome(lambda: sp.commutes(sp.SequentialProduct.standard(alg), a, x))
    assert expected[0] is sp.PreconditionError
    assert _outcome(lambda: sp.simultaneous_diagonalize([_fresh(a), _fresh(x)])) == expected
