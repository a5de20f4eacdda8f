"""The per-call fast path: results valid by construction skip ``normalise``,
and each matrix element is solved at most once each way: eigenvalues only for its range, in
full for its frames and roots."""

from functools import reduce

import numpy as np
import pytest

import seqprod as sp
from seqprod import spectral
from seqprod._backends import _clusters, _eigen
from seqprod.algebra import (
    SUPPORT_TOL,
    Element,
    LinearMap,
    _random_effects,
    eigenvalue_range,
    frame_range,
    map_distance,
    trace,
)
from seqprod.auditor import REFERENCE_ALGEBRAS
from seqprod.spectral import DEFAULT_GAP

from conftest import ALGEBRA_SHORTHANDS

FAST_PATH_SHORTHANDS = ALGEBRA_SHORTHANDS + ["quat:3", "sum(spin:3,quat:2)"]


def _leaves(x):
    """The simple blocks of x, direct sums flattened in summand order."""
    if x.algebra.summands:
        return [leaf for blk in x.data for leaf in _leaves(blk)]
    return [x]


def _arrays(x):
    """The arrays a simple block stores: the matrix, or v of a spin pair (v, t)."""
    return [x.data[0]] if isinstance(x.data, tuple) else [x.data]


def _assert_trusted(x):
    for leaf in _leaves(x):
        assert not any(arr.flags.writeable for arr in _arrays(leaf))
        again = Element(leaf.algebra, leaf.data)
        for new, old in zip(_arrays(again), _arrays(leaf)):
            assert new.dtype == old.dtype and np.array_equal(new, old)
        if isinstance(leaf.data, tuple):
            assert again.data[1] == leaf.data[1]


@pytest.mark.parametrize("short", FAST_PATH_SHORTHANDS)
def test_arithmetic_results_are_read_only_and_already_normal(short):
    alg = sp.parse_algebra(short)
    a, b = sp.random_effect(alg, 31), sp.random_effect(alg, 32, "singular")
    results = [a + b, a - b, a * 0.3, -b, 2.5 * a, sp.identity(alg), sp.zero(alg)]
    if all(isinstance(leaf.data, tuple) for leaf in _leaves(a)):
        results.append(sp.jordan_product(a, b))  # exact only on spin factors
    for x in results:
        _assert_trusted(x)


@pytest.mark.parametrize("short", ALGEBRA_SHORTHANDS)
def test_identity_and_zero_are_built_once_per_descriptor(short):
    alg = sp.parse_algebra(short)
    one, nil = sp.identity(alg), sp.zero(alg)
    assert sp.identity(alg) is one and sp.zero(alg) is nil
    _assert_trusted(one)
    _assert_trusted(nil)
    # trace reads the kept identity and gives what a fresh one gives
    fresh = alg._backend.scalar(alg, 1.0)
    for x in (sp.random_effect(alg, 38), one, nil):
        assert trace(x) == sp.trace_inner_product(x, fresh)
    assert trace(one) == {"real:3": 3, "complex:3": 3, "quat:2": 2, "spin:4": 2,
                             "sum(complex:2,real:3)": 5}[short]
    assert trace(nil) == 0.0


def test_spin_jordan_products_are_already_normal():
    alg = sp.parse_algebra("sum(spin:3,spin:1)")
    a, b = sp.random_effect(alg, 33), sp.random_effect(alg, 34)
    _assert_trusted(sp.jordan_product(a, b))
    _assert_trusted(sp.quadratic_rep(a, b))


def _symplectic_form(n):
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]]).astype(complex)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_quat_project_by_blocks_equals_the_formula(n):
    # one pass, (S + J conj(S) J^H) / 4 for S = X + X^H, is the two-pass 0.5 (Y + J conj(Y) J^H)
    # for Y = 0.5 (X + X^H) to the bit, on a stack and on each of its matrices
    rng = np.random.default_rng(n)
    j, alg = _symplectic_form(n), sp.quaternionic_hermitian(n)
    x = rng.standard_normal((5, 2 * n, 2 * n)) + 1j * rng.standard_normal((5, 2 * n, 2 * n))
    y = 0.5 * (x + x.conj().swapaxes(-1, -2))
    want = 0.5 * (y + j @ y.conj() @ j.conj().T)
    assert np.array_equal(alg._backend._hermitian(alg, x), want)
    for one, expected in zip(x, want):
        assert np.array_equal(alg._backend._hermitian(alg, one), expected)


def test_additions_do_not_go_through_the_constructor(monkeypatch):
    alg = sp.complex_hermitian(16)
    a, b = sp.random_effect(alg, 35), sp.random_effect(alg, 36)
    built = []
    init = Element.__post_init__

    def counting(self):
        built.append(1)
        init(self)

    monkeypatch.setattr(Element, "__post_init__", counting)
    x = a
    for _ in range(1000):
        x = x + b
    assert built == []


def test_the_public_constructor_still_normalises():
    alg = sp.complex_hermitian(2)
    x = Element(alg, np.array([[1.0, 2.0 + 1j], [0.0, 3.0 + 5j]]))
    assert np.array_equal(x.data, [[1.0, 1.0 + 0.5j], [1.0 - 0.5j, 3.0]])
    assert not x.data.flags.writeable
    rng = np.random.default_rng(37)
    q = Element(sp.quaternionic_hermitian(2),
                rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))).data
    j = _symplectic_form(2)
    assert np.array_equal(q, q.conj().T)
    assert np.array_equal(j @ q.conj() @ j.conj().T, q)


# ---------------------------------------------------------------------------
# one solve of each kind per element
# ---------------------------------------------------------------------------

@pytest.fixture
def solves(monkeypatch):
    """Counts of np.linalg.eigh and np.linalg.eigvalsh calls."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


#: algebras with their number of matrix blocks, the blocks LAPACK solves
SOLVED_BLOCKS = [("real:3", 1), ("complex:3", 1), ("quat:2", 1), ("spin:4", 0),
                 ("sum(complex:2,real:3)", 2), ("sum(spin:3,quat:2)", 1)]


@pytest.mark.parametrize("short, blocks", SOLVED_BLOCKS)
def test_one_full_and_one_eigenvalue_solve_per_block(short, blocks, solves):
    alg = sp.parse_algebra(short)
    p = sp.SequentialProduct.standard(alg)
    a, b, c = (sp.random_effect(alg, seed) for seed in (41, 42, 43))
    solves.update(eigh=0, eigvalsh=0)
    sp.seq_product(p, a, b)
    assert solves == {"eigh": blocks, "eigvalsh": 0}
    # the range reads an eigenvalue-only solve of its own; the root, frames and f(a) the full one
    for _ in range(2):
        sp.is_positive(a)
        eigenvalue_range(a)
        sp.order_unit_norm(a)
        frame_range(a)
        sp.sqrt_pos(a)
        sp.spectral_decompose(a)
        sp.seq_product(p, a, c)
        assert solves == {"eigh": blocks, "eigvalsh": blocks}


@pytest.mark.parametrize("short, blocks", SOLVED_BLOCKS)
def test_a_generic_effect_stack_solves_eigenvalues_only(short, blocks, solves):
    alg = sp.parse_algebra(short)
    rngs = [np.random.default_rng((46, k)) for k in range(16)]
    solves.update(eigh=0, eigvalsh=0)
    _random_effects(alg, rngs, "generic")
    assert solves == {"eigh": 0, "eigvalsh": blocks}


def _bits(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


@pytest.mark.parametrize("short", FAST_PATH_SHORTHANDS)
def test_the_range_does_not_depend_on_what_was_solved_first(short):
    alg = sp.parse_algebra(short)
    backend, trials = alg._backend, np.arange(8)
    stack = _random_effects(alg, [np.random.default_rng((47, k)) for k in trials])
    first = eigenvalue_range(backend.take(stack, trials))  # a fresh copy, nothing solved
    rooted = backend.take(stack, trials)
    sp.sqrt_pos(rooted)
    backend.spectral_pairs(rooted, DEFAULT_GAP)
    assert _bits(*eigenvalue_range(rooted)) == _bits(*first)
    for k in trials:
        alone = backend.take(stack, k)
        if k % 2:  # root and frame the single trial first
            sp.seq_product(sp.SequentialProduct.standard(alg), alone, alone)
            sp.spectral_decompose(alone)
        assert _bits(*eigenvalue_range(alone)) == _bits(first[0][k], first[1][k])


@pytest.mark.parametrize("short", REFERENCE_ALGEBRAS)
def test_one_element_has_scalar_ends_and_a_stack_arrays(short):
    # the ranges and what reads them give one element floats, never 0-d arrays
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, 48)
    stack = _random_effects(alg, [np.random.default_rng((48, k)) for k in range(3)])
    def ends(call, x):
        got = call(x)
        return got if isinstance(got, tuple) else (got,)

    for call in (eigenvalue_range, frame_range, sp.min_eigenvalue, sp.order_unit_norm):
        for end in ends(call, a):
            assert isinstance(end, float) and not isinstance(end, np.ndarray), call.__name__
        for end in ends(call, stack):
            assert isinstance(end, np.ndarray) and end.shape == (3,), call.__name__


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
def test_a_direct_sum_keeps_the_sign_of_a_tied_zero_end_as_the_ufuncs_do(zeros):
    # one element's ends are reduced by the builtins over the blocks reversed, a stack's by
    # np.minimum and np.maximum in block order: both keep the last of tied values
    alg = sp.parse_algebra("sum(real:1,real:1)")
    blocks = [Element(s, [[z]]) for s, z in zip(alg.summands, zeros)]
    x = Element(alg, blocks)
    for call in (eigenvalue_range, frame_range):
        lo, hi = call(x)
        ends = [call(b) for b in blocks]
        los, his = zip(*ends)
        want = [reduce(np.minimum, los), reduce(np.maximum, his)]
        assert [lo, hi] == want == [0.0, 0.0]
        last_sign = bool(np.signbit(zeros[1]))
        assert np.signbit([lo, hi]).tolist() == np.signbit(want).tolist() == [last_sign] * 2
        assert isinstance(lo, float) and isinstance(hi, float)


def _next(x: float, steps: int) -> float:
    """The float ``steps`` places above (below, for a negative count) x."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.copysign(np.inf, steps))
    return float(x)


def _cluster_spectra():
    """Ascending spectra with joins: quat:3 Kramers spectra, pairs split by a float near
    1e-16, a lone -0.0, clusters of -0.0s and of three or more, and random spectra drawn from
    a few values and the floats next to them."""
    kramers = [_eigen(sp.random_effect(sp.quaternionic_hermitian(3), s))[0] for s in range(5)]
    fixed = [[0.2, _next(0.2, 1), 0.5, _next(0.5, 2), 0.9, 0.9],
             [-0.0, 0.3, 0.3, 0.7], [-0.0, -0.0, 0.5], [-0.0, -0.0, -0.0], [-0.0, 0.0, 0.5],
             [0.0, -0.0], [-0.4, -0.0, 0.0, _next(0.0, 1)],
             [0.1, 0.1, 0.1, _next(0.1, 1), 0.5, 0.5, 0.5, 0.5]]
    rng = np.random.default_rng(49)
    points = [-0.7, -0.0, 0.0, 0.25, 1.0 / 3.0]
    drawn = [np.sort([_next(points[i], j) for i, j in zip(rng.integers(0, 5, n),
                                                         rng.integers(-2, 3, n))])
             for n in rng.integers(1, 9, 2000)]
    return kramers + [np.array(w) for w in fixed] + drawn


def test_one_element_clusters_equal_the_stack_path_bit_for_bit():
    for w in _cluster_spectra():
        for gap in (DEFAULT_GAP, 0.3):
            sizes, values = _clusters(w, gap)
            stacked_sizes, stacked_values = _clusters(w[None], gap)
            assert sizes == stacked_sizes
            assert values.dtype == stacked_values.dtype and values.shape == (len(sizes),)
            assert values.tobytes() == stacked_values.tobytes(), (w, gap)


def test_a_distinct_spectrum_is_its_own_cluster_values():
    w = np.array([-0.0, 0.1, 0.5, 0.9])
    sizes, values = _clusters(w, DEFAULT_GAP)
    assert sizes == [1, 1, 1, 1] and values.base is w


def _general_power(t, exponent):
    """x^{exponent} x^{it} on the support x > SUPPORT_TOL, 1 (a phase) or 0 (a root) off it:
    one formula for every root function, as the kernel took it for each."""
    def power(lams):
        support = lams > SUPPORT_TOL
        x = np.where(support, lams, 1.0)
        m = np.sqrt(x) ** (2 * exponent)
        if t is not None:
            m = m * np.exp(1j * t * np.log(x))
        return np.where(support, m, 0.0 if exponent else 1.0)
    return power


@pytest.mark.parametrize("t, exponent", [(None, 0.5), (None, -0.5), (0.7, 0.5), (-0.7, -0.5),
                                         (0.7, 0.0)])
def test_each_root_function_equals_the_general_formula_bit_for_bit(t, exponent):
    # the kernel's roots, inverse roots and phases on the edges of the support, a value
    # below it, a subnormal and a huge value, as one element's spectrum and a stack's
    # (trials last, as _matrix_function hands them over)
    lams = np.array([0.0, -0.0, SUPPORT_TOL, _next(SUPPORT_TOL, -1), _next(SUPPORT_TOL, 1),
                     -1e-12, 1.0, 1e300, 5e-324])
    stack = np.stack([lams, lams[::-1], np.roll(lams, 3)]).T
    power, want = spectral._twisted_power(t, exponent), _general_power(t, exponent)
    for x in (lams, stack):
        got, ref = power(x), want(x)
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("short", FAST_PATH_SHORTHANDS)
def test_non_finite_element_raises_on_every_call(short):
    bad = sp.random_effect(sp.parse_algebra(short), 44) * float("nan")
    for _ in range(2):
        with pytest.raises(sp.NumericalFailureError):
            sp.sqrt_pos(bad)
        with pytest.raises(sp.NumericalFailureError):
            eigenvalue_range(bad)


@pytest.mark.parametrize("solver, call, kept", [
    ("eigvalsh", eigenvalue_range, True),
    ("eigh", frame_range, True),
    ("svd", lambda a: sp.commutant_basis([a]), False),
    ("norm", lambda a: map_distance(sp.jordan_mult_operator(a), LinearMap.identity(a.algebra)),
     False),
    ("inv", lambda a: sp.jordan_mult_operator(a).invert(), False),
])
def test_failed_solve_is_not_kept(solver, call, kept, monkeypatch):
    # a LinAlgError from any LAPACK call surfaces as NumericalFailureError; an eigensolve that
    # failed is solved again, and kept once it succeeds
    a = sp.random_effect(sp.complex_hermitian(3), 45)
    solve = getattr(np.linalg, solver)
    calls = []

    def fail_once(mat, *args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("no convergence")
        return solve(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, solver, fail_once)
    with pytest.raises(sp.NumericalFailureError, match=f"{solver} failed: no convergence"):
        call(a)
    result = call(a)
    if solver in ("eigvalsh", "eigh"):
        lo, hi = result
        assert 0.0 < lo <= hi < 1.0
    call(a)
    assert len(calls) == (2 if kept else 3)
