import bisect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqprod as sp
from seqprod import spectral
from seqprod.algebra import SUPPORT_TOL, eigenvalue_range, from_coords, to_coords

from conftest import ALGEBRA_SHORTHANDS


def _rebuild(dec):
    acc = None
    for lam, p in dec.pairs:
        term = p * lam
        acc = term if acc is None else acc + term
    return acc


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_degenerate_diagonal():
    alg = sp.real_symmetric(3)
    a = sp.Element(alg, np.diag([0.5, 0.5, 0.2]))
    dec = sp.spectral_decompose(a)
    assert dec.eigenvalues == pytest.approx((0.5, 0.2))
    assert np.allclose(dec.idempotents[0].data, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert np.allclose(dec.idempotents[1].data, np.diag([0.0, 0.0, 1.0]), atol=1e-12)


def test_decompose_identity():
    dec = sp.spectral_decompose(sp.identity(sp.complex_hermitian(3)))
    assert len(dec.pairs) == 1
    lam, p = dec.pairs[0]
    assert lam == pytest.approx(1.0)
    assert np.allclose(p.data, np.eye(3), atol=1e-12)


def test_decompose_spin_analytic():
    alg = sp.spin_factor(3)
    v = np.array([0.3, 0.0, 0.0])
    a = sp.Element(alg, (v, 0.5))
    dec = sp.spectral_decompose(a)
    assert dec.eigenvalues == pytest.approx((0.8, 0.2))
    vhat = v / np.linalg.norm(v)
    plus, minus = dec.idempotents
    assert np.allclose(plus.data[0], 0.5 * vhat) and plus.data[1] == pytest.approx(0.5)
    assert np.allclose(minus.data[0], -0.5 * vhat) and minus.data[1] == pytest.approx(0.5)


def test_decompose_merges_within_gap():
    alg = sp.real_symmetric(2)
    a = sp.Element(alg, np.diag([0.5, 0.5 + 1e-12]))
    assert len(sp.spectral_decompose(a, gap=1e-8).pairs) == 1
    assert len(sp.spectral_decompose(a, gap=1e-14).pairs) == 2


@pytest.mark.parametrize("gap", [0.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda a, gap: sp.spectral_decompose(a, gap=gap),
    lambda a, gap: sp.functional_calculus(a, lambda x: x, gap=gap),
    lambda a, gap: sp.simultaneous_diagonalize([a], gap=gap),
], ids=["spectral_decompose", "functional_calculus", "simultaneous_diagonalize"])
def test_decompose_gap_must_be_finite_and_positive(call, gap):
    # a NaN gap joins no cluster and an infinite one joins every eigenvalue
    a = sp.Element(sp.real_symmetric(3), np.diag([0.5, 0.5, 0.2]))
    with pytest.raises(sp.PreconditionError, match="gap must be finite and positive"):
        call(a, gap)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10 ** 6), st.sampled_from(ALGEBRA_SHORTHANDS),
       st.sampled_from(["generic", "singular", "sharp"]))
def test_decomposition_invariants(seed, short, profile):
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, seed, profile)
    dec = sp.spectral_decompose(a)
    assert sp.order_unit_norm(_rebuild(dec) - a) <= 1e-9
    eigs = dec.eigenvalues
    assert all(eigs[i] > eigs[i + 1] + 1e-8 for i in range(len(eigs) - 1))
    for p in dec.idempotents:
        assert sp.order_unit_norm(sp.jordan_product(p, p) - p) <= 1e-9
    for i in range(len(dec.pairs)):
        for j in range(i + 1, len(dec.pairs)):
            assert sp.order_unit_norm(
                sp.jordan_product(dec.idempotents[i], dec.idempotents[j])) <= 1e-9


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

def test_calculus_square_matches_jordan(algebra):
    a = sp.random_effect(algebra, 31)
    sq = sp.functional_calculus(a, lambda x: x * x)
    assert sp.order_unit_norm(sq - sp.jordan_product(a, a)) <= 1e-9


def test_calculus_identity_function(algebra):
    a = sp.random_effect(algebra, 32)
    assert sp.order_unit_norm(sp.functional_calculus(a, lambda x: x) - a) <= 1e-9


def test_calculus_constant_one(algebra):
    a = sp.random_effect(algebra, 33)
    one = sp.functional_calculus(a, lambda x: 1.0)
    assert sp.order_unit_norm(one - sp.identity(algebra)) <= 1e-9


def test_calculus_commutes_with_argument(algebra):
    a = sp.random_effect(algebra, 34)
    f_a = sp.functional_calculus(a, lambda x: 0.2 + 0.5 * x)
    std = sp.SequentialProduct.standard(algebra)
    assert sp.commutes(std, a, f_a, 1e-9)


def test_calculus_domain_error_names_eigenvalue():
    alg = sp.real_symmetric(2)
    a = sp.Element(alg, np.diag([0.5, 0.0]))
    with pytest.raises(sp.DomainError, match="0.0"):
        sp.functional_calculus(a, math.log)


# ---------------------------------------------------------------------------
# square root
# ---------------------------------------------------------------------------

def test_sqrt_examples():
    alg = sp.real_symmetric(2)
    assert np.allclose(sp.sqrt_pos(sp.Element(alg, np.diag([0.25, 1.0]))).data,
                       np.diag([0.5, 1.0]), atol=1e-12)
    assert np.allclose(sp.sqrt_pos(sp.Element(alg, np.diag([0.04, 0.49]))).data,
                       np.diag([0.2, 0.7]), atol=1e-12)
    assert sp.order_unit_norm(sp.sqrt_pos(sp.zero(alg))) <= 1e-12
    p = sp.Element(alg, np.diag([1.0, 0.0]))
    assert sp.order_unit_norm(sp.sqrt_pos(p) - p) <= 1e-12


def test_sqrt_squares_back(algebra):
    a = sp.random_effect(algebra, 35)
    root = sp.sqrt_pos(a)
    assert sp.is_positive(root, 1e-10)
    assert sp.order_unit_norm(sp.jordan_product(root, root) - a) <= 1e-9


def test_sqrt_rejects_non_positive():
    alg = sp.real_symmetric(2)
    with pytest.raises(sp.PreconditionError):
        sp.sqrt_pos(sp.Element(alg, np.diag([0.5, -0.1])))


def test_sqrt_on_direct_sum_keeps_close_blocks_apart():
    # the blocks' eigenvalues lie within the clustering gap; f(a) must not merge them
    alg = sp.parse_algebra("sum(real:1,real:1)")
    lo, hi = 1e-4, 1e-4 + 7e-9
    a = sp.Element(alg, (sp.Element(alg.summands[0], [[lo]]),
                         sp.Element(alg.summands[1], [[hi]])))
    root = sp.sqrt_pos(a)
    assert abs(root.data[0].data[0, 0] - math.sqrt(lo)) <= 1e-15
    assert abs(root.data[1].data[0, 0] - math.sqrt(hi)) <= 1e-15


@pytest.mark.parametrize("short", ALGEBRA_SHORTHANDS + ["complex:2"])
@pytest.mark.parametrize("fn", [sp.sqrt_pos, sp.pseudo_inverse, sp.floor_effect,
                                eigenvalue_range, sp.is_effect, sp.spectral_decompose])
def test_non_finite_input_raises(short, fn):
    alg = sp.parse_algebra(short)
    coords = to_coords(sp.identity(alg) * 0.5)
    coords[0] = np.nan
    with pytest.raises(sp.SeqprodError):
        fn(from_coords(alg, coords))


@pytest.mark.parametrize("fn", [eigenvalue_range, sp.is_effect, sp.is_positive,
                                sp.order_unit_norm, sp.spectral_decompose])
@pytest.mark.parametrize("short,diagonal", [("complex:2", [np.nan, 0.5]),
                                            ("real:3", [np.nan, 0.2, 0.5])])
def test_nan_fails_loudly_in_eigen_data(short, diagonal, fn):
    # LAPACK returns finite eigenvalues for these matrices
    a = sp.Element(sp.parse_algebra(short), np.diag(diagonal))
    with pytest.raises(sp.NumericalFailureError):
        fn(a)


def test_nan_on_the_diagonal_is_not_dropped():
    # eigvalsh returns finite values for this matrix, so only an explicit check sees the NaN
    a = sp.Element(sp.complex_hermitian(2), [[np.nan, 0.0], [0.0, 0.5]])
    with pytest.raises(sp.SeqprodError):
        sp.sqrt_pos(a)


# ---------------------------------------------------------------------------
# floor / ceiling / sharpness
# ---------------------------------------------------------------------------

def test_floor_ceiling_examples():
    alg = sp.real_symmetric(3)
    a = sp.Element(alg, np.diag([1.0, 0.5, 0.0]))
    assert np.allclose(sp.floor_effect(a).data, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    assert np.allclose(sp.ceiling_effect(a).data, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    one = sp.identity(alg)
    assert sp.order_unit_norm(sp.floor_effect(one) - one) <= 1e-12
    assert sp.order_unit_norm(sp.ceiling_effect(sp.zero(alg))) <= 1e-12


def test_floor_below_ceiling_above(algebra):
    for seed in range(5):
        a = sp.random_effect(algebra, seed, "singular")
        assert sp.leq(sp.floor_effect(a), a, 1e-9)
        assert sp.leq(a, sp.ceiling_effect(a), 1e-9)


def test_floor_matches_iterated_squaring():
    alg = sp.complex_hermitian(4)
    rng = np.random.default_rng(36)
    frame = sp.spectral_decompose(sp.random_effect(alg, rng, "invertible")).idempotents
    a = frame[0] + frame[1] * 0.5 + frame[2] * 0.3 + frame[3] * 0.7
    std = sp.SequentialProduct.standard(alg)
    power = a
    prev = a
    for _ in range(6):
        power = sp.seq_product(std, power, power)
        # the sequence a^(2^k) decreases in the positive order
        assert sp.min_eigenvalue(prev - power) >= -1e-10
        prev = power
    assert sp.order_unit_norm(power - sp.floor_effect(a)) <= 1e-9


def test_floor_is_largest_sharp_below(matrix_algebra):
    # sharp r <= a exactly when r only involves eigenvalue-1 eigenspaces,
    # in which case r <= floor(a); adding any sub-1 eigenprojection breaks both
    rng = np.random.default_rng(77)
    frame = sp.spectral_decompose(sp.random_effect(matrix_algebra, rng, "invertible")).idempotents
    assert len(frame) >= 2
    a = frame[0] + frame[1] * 0.5
    for p in frame[2:]:
        a = a + p * 0.25
    fl = sp.floor_effect(a)
    r_good = frame[0]
    assert sp.leq(r_good, a, 1e-9) and sp.leq(r_good, fl, 1e-9)
    r_bad = frame[0] + frame[1]
    assert not sp.leq(r_bad, a, 1e-6) and not sp.leq(r_bad, fl, 1e-6)


def test_ceiling_annihilation():
    # if b o a = 0 on crafted orthogonal supports then b o ceiling(a) = 0
    for short in ("real:4", "complex:3", "spin:4"):
        alg = sp.parse_algebra(short)
        rng = np.random.default_rng(37)
        from seqprod.algebra import random_projection
        p = random_projection(alg, rng, proper=True)
        a = sp.quadratic_rep(p, sp.random_effect(alg, rng, "invertible"))
        b = sp.quadratic_rep(sp.identity(alg) - p, sp.random_effect(alg, rng, "invertible"))
        std = sp.SequentialProduct.standard(alg)
        assert sp.order_unit_norm(sp.seq_product(std, b, a)) <= 1e-10
        assert sp.order_unit_norm(sp.seq_product(std, b, sp.ceiling_effect(a))) <= 1e-8


def test_is_sharp_examples():
    alg = sp.real_symmetric(2)
    p = sp.Element(alg, np.diag([1.0, 0.0]))
    assert sp.is_sharp(p, 1e-9)
    assert sp.is_sharp(sp.identity(alg), 1e-9)
    assert not sp.is_sharp(p * 0.5, 1e-9)


# ---------------------------------------------------------------------------
# pseudo-inverse
# ---------------------------------------------------------------------------

def test_pseudo_inverse_formula():
    alg = sp.real_symmetric(3)
    b = sp.Element(alg, np.diag([0.5, 0.25, 0.0]))
    assert np.allclose(sp.pseudo_inverse(b).data, np.diag([2.0, 4.0, 0.0]), atol=1e-12)


def test_pseudo_inverse_fixes_projections(algebra):
    p = sp.random_effect(algebra, 38, "sharp")
    assert sp.order_unit_norm(sp.pseudo_inverse(p) - p) <= 1e-10


def test_pseudo_inverse_of_zero(algebra):
    assert sp.order_unit_norm(sp.pseudo_inverse(sp.zero(algebra))) == 0.0


def test_pseudo_inverse_contract(algebra):
    std = sp.SequentialProduct.standard(algebra)
    for seed in range(5):
        b = sp.random_effect(algebra, seed, "singular")
        b_inv = sp.pseudo_inverse(b)
        ceil = sp.ceiling_effect(b)
        assert sp.is_positive(b_inv, 1e-10)
        assert sp.order_unit_norm(sp.seq_product(std, b, b_inv) - ceil) <= 1e-8
        assert sp.order_unit_norm(sp.ceiling_effect(b_inv) - ceil) <= 1e-9


# ---------------------------------------------------------------------------
# dyadic approximation
# ---------------------------------------------------------------------------

def test_dyadic_hand_example():
    alg = sp.real_symmetric(1)
    a = sp.Element(alg, [[0.3]])
    q2, q4 = sp.dyadic_approximation(a, 2)
    assert q4.data[0, 0] == pytest.approx(0.25)
    assert abs(0.3 - q4.data[0, 0]) <= 0.5


def test_dyadic_on_projection(algebra):
    p = sp.random_effect(algebra, 39, "sharp")
    for m, q in enumerate(sp.dyadic_approximation(p, 4), start=1):
        assert sp.order_unit_norm(q - p * (1.0 - 2.0 ** -m)) <= 1e-10
        assert sp.order_unit_norm(p - q) <= 2.0 ** -m + 1e-12


def test_dyadic_of_zero(algebra):
    for q in sp.dyadic_approximation(sp.zero(algebra), 3):
        assert sp.order_unit_norm(q) == 0.0


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10 ** 6), st.sampled_from(ALGEBRA_SHORTHANDS))
def test_dyadic_chain_and_bound(seed, short):
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, seed)
    approx = sp.dyadic_approximation(a, 6)
    prev = None
    for m, q in enumerate(approx, start=1):
        assert sp.order_unit_norm(a - q) <= 2.0 ** (1 - m) + 1e-12
        assert sp.min_eigenvalue(a - q) >= -1e-10
        if prev is not None:
            assert sp.min_eigenvalue(q - prev) >= -1e-10
        prev = q


def test_dyadic_rejects_non_effect():
    alg = sp.real_symmetric(2)
    with pytest.raises(sp.PreconditionError):
        sp.dyadic_approximation(sp.Element(alg, np.diag([1.5, 0.0])), 2)
    with pytest.raises(sp.PreconditionError):
        sp.dyadic_approximation(sp.identity(alg), 0)


@pytest.mark.parametrize("n_max", [2.5, True, "3", 0, None, 40, 1024])
def test_dyadic_refuses_a_malformed_n_max_before_the_solve(n_max):
    alg = sp.real_symmetric(2)
    not_finite = sp.Element(alg, np.diag([np.nan, 0.5]))  # its solve raises NumericalFailureError
    with pytest.raises(sp.PreconditionError, match="n_max must be an integer >= 1"):
        sp.dyadic_approximation(not_finite, n_max)
    assert len(sp.dyadic_approximation(sp.identity(alg), np.int64(2))) == 2


@pytest.mark.parametrize("m", range(1, 40))
def test_the_dyadic_count_is_the_grid_comparison_at_every_edge(m):
    # the oracle counts the k in 1..n with x > k/n + DYADIC_GUARD by that comparison: on the
    # whole grid up to 2^16 (sorted, so searchsorted counts the grid points below x), and by
    # bisection over k beyond, at the ends and the middle of the grid
    n, guard = 2 ** m, spectral.DYADIC_GUARD
    k = np.arange(n + 1) if m <= 16 else np.array([0, 1, 2, n // 2 - 1, n // 2, n - 1, n])
    above = k / n + guard
    x = np.concatenate([k / n, k / n - guard, above, np.nextafter(above, -1),
                        np.nextafter(above, 2), [0.0, -0.0, 1.0, 1.0 + SUPPORT_TOL]])
    if m <= 16:
        want = np.searchsorted(np.arange(1, n + 1) / n + guard, x)
    else:
        want = [bisect.bisect_left(range(1, n + 1), v, key=lambda j: j / n + guard)
                for v in x.tolist()]
    assert np.array_equal(spectral._dyadic_count(x, n) * n, want)


def test_the_last_dyadic_approximant_is_cheap_and_keeps_the_stated_bound():
    a = sp.random_effect(sp.real_symmetric(4), 5)
    tracemalloc.start()
    try:
        sp.dyadic_approximation(a, 39)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # an eigenvalue just inside the guard band of 1/2 keeps ||a - q_{2^m}|| <= 2^(1-m) to m = 39
    alg = sp.real_symmetric(2)
    a = sp.Element(alg, np.diag([0.5 + spectral.DYADIC_GUARD, 0.25]))
    approx = sp.dyadic_approximation(a, 39)
    for m, q in enumerate(approx, start=1):
        assert sp.order_unit_norm(a - q) <= 2.0 ** (1 - m)
    assert np.array_equal(approx[-1].data, np.diag([0.5 - 2.0 ** -39, 0.25 - 2.0 ** -39]))
