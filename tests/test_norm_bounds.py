"""Norms settled by bounds against the full solves.

``oracle_rel_residual`` solves all three norms of ``rel_residual`` as one
eigenvalue-only stack per matrix block, (x - y, x, y); ``oracle_at_most``
solves the norm (``order_unit_norm``, ``operator_norm``) and compares.  The
package solves ||x|| and ||y|| only where their bound leaves max(1, .) open,
and a compared norm only where its bounds leave the comparison open; both
must equal the oracles bit for bit: value, dtype, shape and type.
"""

from functools import reduce

import numpy as np
import pytest

import seqprod as sp
from seqprod._backends import BOUND_MARGIN, KIND_SPIN
from seqprod.algebra import (
    _random_effects,
    norm_at_most,
    operator_norm,
    rel_residual,
)
from seqprod.auditor import LAWS, LawId, audit_law
from seqprod.products import COMMUTE_TOL

from test_commutant import _non_finite

ALGEBRAS = ["real:4", "complex:4", "quat:3", "spin:5", "sum(complex:2,real:3)", "spin:3",
            "sum(quat:2,spin:3)"]
PROFILES = ["generic", "singular", "sharp"]
K = 12


def _radii(x, y):
    alg = x.algebra
    if alg.summands:
        per_block = [_radii(bx, by) for bx, by in zip(x.data, y.data)]
        return [reduce(np.maximum, norms) for norms in zip(*per_block)]
    if alg.kind == KIND_SPIN:
        return [sp.order_unit_norm(e) for e in (x - y, x, y)]
    mats = np.stack(np.broadcast_arrays((x - y).data, x.data, y.data))
    w = np.linalg.eigvalsh(mats)
    return list(np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1])))


def oracle_rel_residual(x, y):
    diff, nx, ny = _radii(x, y)
    return diff / np.maximum(1.0, np.maximum(nx, ny))


def oracle_at_most(x, tol, strict=False):
    norm = sp.order_unit_norm(x) if isinstance(x, sp.Element) else operator_norm(x)
    return norm < tol if strict else norm <= tol


def _bits(v):
    arr = np.asarray(v)
    return type(v), arr.dtype, arr.shape, arr.tobytes()


def _verdicts(v):
    """A check's verdicts: a single one may be a bool or a numpy bool."""
    arr = np.asarray(v)
    return arr.dtype, arr.shape, arr.tobytes()


def _rngs(seed, k=K):
    return [np.random.default_rng((seed, i)) for i in range(k)]


def _take(x, i):
    return x.algebra._backend.take(x, i)


def _rank_one(alg, seed):
    """A rank-one projection: the top idempotent of a generic effect's frame."""
    return sp.spectral_decompose(sp.random_effect(alg, seed)).idempotents[0]


# ---------------------------------------------------------------------------
# rel_residual
# ---------------------------------------------------------------------------

def _pairs(alg, profile):
    """Stacked (x, y) pairs: small norms the bound settles, larger ones it leaves open,
    and an unstacked operand broadcast against a stack."""
    x = _random_effects(alg, _rngs(1), profile)
    y = _random_effects(alg, _rngs(2), profile)
    one = sp.identity(alg)
    return {"effects": (x, y), "small": (x * 0.2, y * 0.2), "large": (x * 3.0, y * 1.5),
            "mixed": (x * 0.2, y * 3.0), "close": (x, x + y * 1e-9),
            "identity,stack": (one, x), "stack,identity": (x * 0.3, one)}


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("short", ALGEBRAS)
def test_rel_residual_equals_the_full_solve(short, profile):
    alg = sp.parse_algebra(short)
    for name, (x, y) in _pairs(alg, profile).items():
        assert _bits(rel_residual(x, y)) == _bits(oracle_rel_residual(x, y)), name
        for i in (0, K - 1):  # single elements, taken out of the stacks
            xi, yi = (e if e is sp.identity(alg) else _take(e, i) for e in (x, y))
            assert _bits(rel_residual(xi, yi)) == _bits(oracle_rel_residual(xi, yi)), name


@pytest.mark.parametrize("short", ALGEBRAS)
def test_rel_residual_at_the_edges_equals_the_full_solve(short):
    # norms of exactly 1, within 1e-7 of 1 (left open by the margin) and 1e-5 below it
    # (settled), zero and rank one
    alg = sp.parse_algebra(short)
    one, zero, p = sp.identity(alg), sp.zero(alg), _rank_one(alg, 3)
    q = sp.random_effect(alg, 4, "sharp")
    cases = [(one, one), (one, p), (p, q), (q, one - q), (zero, zero), (zero, p), (p, zero)]
    for c in (1.0 - 1e-7, 1.0 + 1e-7, 1.0 - 1e-5, 1.0 - BOUND_MARGIN, 1.0 + BOUND_MARGIN):
        cases += [(p * c, q), (q, p * c), (p * c, p * (c - 1e-3)), (one * c, zero)]
    for x, y in cases:
        assert _bits(rel_residual(x, y)) == _bits(oracle_rel_residual(x, y))
    # the cases as one stack
    stack_x = alg._backend.stack(alg, [x for x, _ in cases])
    stack_y = alg._backend.stack(alg, [y for _, y in cases])
    assert _bits(rel_residual(stack_x, stack_y)) == _bits(oracle_rel_residual(stack_x, stack_y))


@pytest.mark.parametrize("short", ALGEBRAS)
def test_norms_at_the_threshold_equal_the_full_solve(short):
    # rank-one projections, scaled to norm 1 and to COMMUTE_TOL: their bounds and their solved
    # norms differ by round-off only, so a bound settling without the margin would flip some
    alg = sp.parse_algebra(short)
    k = 200
    base = _random_effects(alg, _rngs(18, k), "generic")
    top = alg._backend.spectral_pairs(base, 1e-8)[1][0]
    assert _bits(rel_residual(top, top * 0.5)) == _bits(oracle_rel_residual(top, top * 0.5))
    assert _bits(rel_residual(top * 0.5, top)) == _bits(oracle_rel_residual(top * 0.5, top))
    for tol in (COMMUTE_TOL, 1.0):
        x = top * tol
        assert _verdicts(norm_at_most(x, tol)) == _verdicts(oracle_at_most(x, tol))
        v = np.random.default_rng(19).standard_normal((k, alg.real_dimension, 1))
        m = v * v.swapaxes(-1, -2) / (v.swapaxes(-1, -2) @ v) * tol
        assert _verdicts(norm_at_most(m, tol)) == _verdicts(oracle_at_most(m, tol))


def test_rel_residual_refuses_elements_of_different_algebras():
    with pytest.raises(sp.DescriptorMismatchError):
        rel_residual(sp.identity(sp.real_symmetric(2)), sp.identity(sp.real_symmetric(3)))


# ---------------------------------------------------------------------------
# norm_at_most
# ---------------------------------------------------------------------------

def _elements_near(alg, tol):
    """Elements whose norm is tol times factors inside, at and outside the margin."""
    p, x = _rank_one(alg, 5), _random_effects(alg, _rngs(6), "generic")
    unit = alg._backend.scale_trials(x, 1.0 / sp.order_unit_norm(x))  # norm 1 up to round-off
    out = {"zero": sp.zero(alg), "identity": sp.identity(alg) * tol}
    for c in (1.0 - 1e-7, 1.0 + 1e-7, 1.0 - 1e-5, 1.0 + 1e-5, 0.5, 2.0, 1e-8, 1e8):
        out[f"rank one x {c}"] = p * (tol * c)
        out[f"stack x {c}"] = unit * (tol * c)
    return out


@pytest.mark.parametrize("tol", [COMMUTE_TOL, 0.05, 1.0])
@pytest.mark.parametrize("short", ALGEBRAS)
def test_element_checks_equal_the_full_solve(short, tol):
    alg = sp.parse_algebra(short)
    for name, x in _elements_near(alg, tol).items():
        for strict in (False, True):
            got, want = norm_at_most(x, tol, strict), oracle_at_most(x, tol, strict)
            assert _verdicts(got) == _verdicts(want), (name, strict)


def _maps_near(alg, tol):
    d = alg.real_dimension
    a, b = (_random_effects(alg, _rngs(s), "generic") for s in (7, 8))
    q_a, q_b = sp.quadratic_operator(a), sp.quadratic_operator(b)
    t_a = sp.jordan_mult_operator(a)
    t_f = sp.jordan_mult_operator(sp.jordan_product(a, a))  # commutes with T_a
    v = np.random.default_rng(9).standard_normal(d)
    rank_one = np.outer(v, v) / (v @ v)
    column = np.zeros((d, d))
    column[:, 0] = 0.9 * tol  # each row sums to 0.9 tol, but the norm is 0.9 sqrt(d) tol
    out = {"generic": q_a.compose(q_b).matrix - q_b.compose(q_a).matrix,
           "commuting": t_a.compose(t_f).matrix - t_f.compose(t_a).matrix,
           "zero": np.zeros((d, d)), "one column": column}
    for c in (1.0 - 1e-7, 1.0 + 1e-7, 1.0 - 1e-5, 1.0 + 1e-5, 1e-8, 1e8):
        out[f"identity x {c}"] = np.eye(d) * (tol * c)
        out[f"rank one x {c}"] = rank_one * (tol * c)
    return out


@pytest.mark.parametrize("tol", [COMMUTE_TOL, 1.0])
@pytest.mark.parametrize("short", ALGEBRAS)
def test_map_checks_equal_the_full_solve(short, tol):
    alg = sp.parse_algebra(short)
    for name, m in _maps_near(alg, tol).items():
        assert _verdicts(norm_at_most(m, tol)) == _verdicts(oracle_at_most(m, tol)), name
        if m.ndim == 3:  # one map, taken out of the stack
            assert _verdicts(norm_at_most(m[0], tol)) == _verdicts(oracle_at_most(m[0], tol)), name


@pytest.mark.parametrize("short", ALGEBRAS)
def test_commutes_gives_the_single_verdict_of_each_trial(short):
    alg = sp.parse_algebra(short)
    p = sp.SequentialProduct.standard(alg)
    a = _random_effects(alg, _rngs(10), "invertible")
    b = reduce(sp.Element.__add__, [a * 0.5, sp.jordan_product(a, a) * 0.25])
    c = _random_effects(alg, _rngs(11), "generic")
    for x, y in ((a, b), (a, c), (b, c)):
        verdicts = sp.commutes(p, x, y)
        assert verdicts.shape == (K,)
        for i in range(K):
            single = sp.commutes(p, _take(x, i), _take(y, i))
            assert single is bool(verdicts[i])
            want = oracle_at_most(sp.seq_product(p, _take(x, i), _take(y, i))
                                  - sp.seq_product(p, _take(y, i), _take(x, i)), COMMUTE_TOL)
            assert single is bool(want)


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("short", ALGEBRAS)
def test_non_finite_elements_fail_loudly(short, bad):
    # an infinite entry gives an infinite lower bound, which must not settle a check
    alg = sp.parse_algebra(short)
    x, a = _non_finite(alg, bad), sp.random_effect(alg, 12)
    stacked = alg._backend.stack(alg, [a, x, a])
    for bad_x in (x, stacked):
        for call in (lambda: rel_residual(bad_x, a), lambda: rel_residual(a, bad_x),
                     lambda: norm_at_most(bad_x, COMMUTE_TOL),
                     lambda: norm_at_most(bad_x, 1e300, strict=True)):
            with pytest.raises(sp.NumericalFailureError, match="finite"):
                call()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_maps_compare_as_the_full_solve(bad):
    m = np.eye(4) * 1e-3
    m[0, 1] = bad
    stack = np.stack([np.eye(4), m, np.zeros((4, 4))])
    for x in (m, stack):
        try:
            want = ("value", _verdicts(oracle_at_most(x, COMMUTE_TOL)))
        except np.linalg.LinAlgError as exc:
            want = ("raises", str(exc))
        try:
            got = ("value", _verdicts(norm_at_most(x, COMMUTE_TOL)))
        except np.linalg.LinAlgError as exc:
            got = ("raises", str(exc))
        assert got == want


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

@pytest.fixture
def solved(monkeypatch):
    """Matrices solved by each of eigh, eigvalsh and svd since the fixture was set up."""
    count = {"eigh": 0, "eigvalsh": 0, "svd": 0}

    def counted(name, solver):
        def wrapper(a, *args, **kwargs):
            count[name] += int(np.prod(np.shape(a)[:-2]))
            return solver(a, *args, **kwargs)
        return wrapper

    for name in count:
        solver = counted(name, getattr(np.linalg, name))
        monkeypatch.setattr(np.linalg, name, solver)
        # operator_norm reaches the SVD through the implementing module
        monkeypatch.setattr(np.linalg._linalg, name, solver)
    return count


@pytest.mark.parametrize("short", ["real:4", "complex:4", "quat:3"])
def test_rel_residual_of_small_effects_solves_only_the_difference(short, solved):
    alg = sp.parse_algebra(short)
    x = _random_effects(alg, _rngs(13), "generic") * 0.2
    y = _random_effects(alg, _rngs(14), "generic") * 0.2
    start = dict(solved)
    rel_residual(x, y)
    solved = {name: n - start[name] for name, n in solved.items()}
    assert solved == {"eigh": 0, "eigvalsh": K, "svd": 0}  # the full solve makes 3 K


def test_rel_residual_solves_each_norm_the_bound_leaves_open(solved):
    alg = sp.complex_hermitian(4)
    x = _random_effects(alg, _rngs(15), "generic") * 0.2
    y = alg._backend.stack(alg, [sp.identity(alg)] * 4 + [sp.zero(alg)] * (K - 4))
    start = solved["eigvalsh"]
    rel_residual(x, y)
    assert solved["eigvalsh"] - start == K + 4  # the difference, and the 4 identities


@pytest.mark.parametrize("short", ["real:4", "complex:4", "quat:3", "spin:5",
                                   "sum(complex:2,real:3)"])
def test_commute_equiv_settles_every_check_without_a_solve(short, solved):
    # even trials draw a commuting pair, odd ones a generic pair
    alg = sp.parse_algebra(short)
    p = sp.SequentialProduct.standard(alg)
    rngs = _rngs(16, 20)
    inputs = LAWS[LawId.COMMUTE_EQUIV].generate(rngs, p, alg, range(20), {})
    start = dict(solved)
    residuals = LAWS[LawId.COMMUTE_EQUIV].evaluate(p, alg, inputs)
    assert not np.any(residuals)
    matrix_blocks = sum(s.kind != KIND_SPIN for s in alg.summands or [alg])
    # only sqrt(a) and sqrt(b), one eigh per matrix block; no norm is solved
    assert solved["eigh"] - start["eigh"] == 2 * 20 * matrix_blocks
    assert solved["eigvalsh"] == start["eigvalsh"] and solved["svd"] == start["svd"] == 0


def test_default_commute_equiv_rows_make_no_svd(solved):
    for short in ["real:4", "complex:4", "quat:3", "spin:5", "sum(complex:2,real:3)"]:
        alg = sp.parse_algebra(short)
        entry = audit_law("COMMUTE_EQUIV", sp.SequentialProduct.standard(alg), alg, 100, 42, 1e-8)
        assert entry.verdict == "pass"
    assert solved["svd"] == 0
