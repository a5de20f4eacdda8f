import numpy as np
import pytest

import seqprod as sp
from seqprod.algebra import to_coords


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
