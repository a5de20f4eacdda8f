"""Closed-form operator matrices against the column-by-column reference.

``assemble_map`` builds a map's coordinate matrix the slow, obvious way: one
basis element at a time, through the element-level action.  The package
builds T_a, Q_a, L_a, Ad(q^{it}) and the order isomorphisms in closed form;
each must agree with this reference.
"""

import numpy as np
import pytest

import seqprod as sp
from seqprod._backends import _random_structured_unitary
from seqprod.algebra import KIND_SPIN, KIND_SUM, Element, from_coords, to_coords

from conftest import ALGEBRA_SHORTHANDS

OPERATOR_SHORTHANDS = ALGEBRA_SHORTHANDS + [
    "real:1", "spin:1", "quat:1", "sum(spin:3,quat:2)",
    "sum(sum(real:2,complex:2),spin:2)", "complex:16", "sum(complex:2,complex:3)",
]
COMPLEX_SHORTHANDS = ["complex:3", "complex:16", "sum(complex:2,complex:3)"]
TOL = 1e-13


def assemble_map(alg, fn):
    """Coordinate matrix of the linear action ``fn``, one basis element per column."""
    dim = alg.real_dimension
    cols = np.empty((dim, dim))
    for k in range(dim):
        unit = np.zeros(dim)
        unit[k] = 1.0
        cols[:, k] = to_coords(fn(from_coords(alg, unit)))
    return cols


def iso_action(alg, kind, rng):
    """Element action of ``make_order_iso(alg, kind, rng)``, drawn in the same order."""
    if alg.kind == KIND_SUM:
        actions = [iso_action(s, kind, rng) for s in alg.summands]
        return lambda x: Element(alg, tuple(g(b) for g, b in zip(actions, x.data)))
    if kind == "transpose":
        return lambda x: Element(alg, x.data.T)
    if alg.kind == KIND_SPIN:
        rot = _random_structured_unitary(sp.real_symmetric(alg.size), rng)
        return lambda x: Element(alg, (rot @ x.data[0], x.data[1]))
    u = _random_structured_unitary(alg, rng)
    return lambda x: Element(alg, u @ x.data @ u.conj().T)


def imaginary_power_action(q, t):
    """b -> q^{it} b q^{-it}, from an eigensolve of each block of an invertible q."""
    alg = q.algebra
    if alg.kind == KIND_SUM:
        actions = [imaginary_power_action(blk, t) for blk in q.data]
        return lambda x: Element(alg, tuple(g(b) for g, b in zip(actions, x.data)))
    w, v = np.linalg.eigh(q.data)
    u = (v * np.exp(1j * t * np.log(w))) @ v.conj().T
    return lambda x: Element(alg, u @ x.data @ u.conj().T)


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOL


@pytest.fixture(params=OPERATOR_SHORTHANDS)
def any_algebra(request):
    return sp.parse_algebra(request.param)


def test_jordan_and_quadratic_operators_match_reference(any_algebra):
    a = sp.random_effect(any_algebra, 71)
    assert_close(sp.jordan_mult_operator(a).matrix,
                 assemble_map(any_algebra, lambda b: sp.jordan_product(a, b)))
    assert_close(sp.quadratic_operator(a).matrix,
                 assemble_map(any_algebra, lambda b: sp.quadratic_rep(a, b)))


def test_multiplication_operator_matches_reference(any_algebra):
    products = [sp.SequentialProduct.standard(any_algebra)]
    if any_algebra.is_complex_kind():
        products.append(sp.SequentialProduct.twisted(any_algebra, 0.7))
    for profile in ("generic", "singular"):
        a = sp.random_effect(any_algebra, 72, profile)
        for p in products:
            assert_close(sp.multiplication_operator(p, a).matrix,
                         assemble_map(any_algebra, lambda b: sp.seq_product(p, a, b)))


@pytest.mark.parametrize("short", COMPLEX_SHORTHANDS)
def test_imaginary_power_conjugation_matches_reference(short):
    alg = sp.parse_algebra(short)
    q = sp.random_effect(alg, 73, "invertible")
    assert_close(sp.imaginary_power_conjugation(q, 0.7).matrix,
                 assemble_map(alg, imaginary_power_action(q, 0.7)))


def test_order_isomorphisms_match_reference(any_algebra):
    kinds = any_algebra._backend.order_isos(any_algebra)
    for kind in kinds:
        phi = sp.make_order_iso(any_algebra, kind, seed=74)
        want = assemble_map(any_algebra, iso_action(any_algebra, kind,
                                                    np.random.default_rng(74)))
        assert_close(phi.matrix, want)


def test_operators_build_no_element_per_column(monkeypatch):
    alg = sp.complex_hermitian(16)  # real dimension 256
    a = sp.random_effect(alg, 75)
    built = []
    init = Element.__post_init__

    def counting(self):
        built.append(1)
        init(self)

    monkeypatch.setattr(Element, "__post_init__", counting)
    sp.jordan_mult_operator(a)
    sp.multiplication_operator(sp.SequentialProduct.standard(alg), a)
    assert len(built) < 8


def test_multiplication_operator_rejects_other_algebra():
    p = sp.SequentialProduct.standard(sp.real_symmetric(3))
    with pytest.raises(sp.DescriptorMismatchError):
        sp.multiplication_operator(p, sp.random_effect(sp.complex_hermitian(3), 76))
