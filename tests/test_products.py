import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import seqprod as sp
from seqprod import products, spectral
from seqprod.algebra import (KIND_SPIN, map_distance, operator_norm, random_projection,
                             rel_residual)

from test_commutant import _fresh


def _std(alg):
    return sp.SequentialProduct.standard(alg)


# ---------------------------------------------------------------------------
# product descriptors
# ---------------------------------------------------------------------------

def test_twisted_requires_complex_kind():
    with pytest.raises(sp.CapabilityError):
        sp.SequentialProduct.twisted(sp.real_symmetric(3), 1.0)
    with pytest.raises(sp.CapabilityError):
        sp.SequentialProduct.twisted(sp.parse_algebra("sum(complex:2,real:2)"), 1.0)
    # pure complex sums are fine
    sp.SequentialProduct.twisted(sp.parse_algebra("sum(complex:2,complex:3)"), 1.0)


def test_product_descriptor_roundtrip():
    alg = sp.complex_hermitian(2)
    assert sp.parse_product("standard", alg).descriptor() == "standard"
    assert sp.parse_product("twisted:0.5", alg).descriptor() == "twisted:0.5"
    with pytest.raises(sp.ConfigError):
        sp.parse_product("twisted:x", alg)
    with pytest.raises(sp.ConfigError):
        sp.parse_product("other", alg)


@pytest.mark.parametrize("text", ["twisted:nan", "twisted:inf", "twisted:-inf"])
def test_non_finite_twist_is_rejected(text):
    with pytest.raises(sp.ConfigError):
        sp.parse_product(text, sp.complex_hermitian(2))


def test_twisted_zero_acts_like_standard():
    alg = sp.complex_hermitian(3)
    std, tw0 = _std(alg), sp.SequentialProduct.twisted(alg, 0.0)
    rng = np.random.default_rng(40)
    for _ in range(100):
        a, b = sp.random_effect(alg, rng), sp.random_effect(alg, rng)
        assert sp.order_unit_norm(sp.seq_product(tw0, a, b)
                                  - sp.seq_product(std, a, b)) <= 1e-10


# ---------------------------------------------------------------------------
# the product itself
# ---------------------------------------------------------------------------

def test_seq_unit_and_zero(algebra):
    p = _std(algebra)
    a = sp.random_effect(algebra, 41)
    one, nil = sp.identity(algebra), sp.zero(algebra)
    assert sp.order_unit_norm(sp.seq_product(p, one, a) - a) <= 1e-12
    assert sp.order_unit_norm(sp.seq_product(p, a, one) - a) <= 1e-10
    assert sp.order_unit_norm(sp.seq_product(p, a, nil)) <= 1e-12
    assert sp.order_unit_norm(sp.seq_product(p, nil, a)) <= 1e-12


def test_seq_matrix_oracle():
    alg = sp.real_symmetric(2)
    a = sp.Element(alg, np.diag([0.5, 0.0]))
    b = sp.Element(alg, 0.5 * np.ones((2, 2)))
    out = sp.seq_product(_std(alg), a, b)
    assert np.allclose(out.data, np.array([[0.25, 0.0], [0.0, 0.0]]), atol=1e-12)


def test_seq_commuting_diagonals_all_products():
    real = sp.real_symmetric(2)
    a = sp.Element(real, np.diag([0.5, 0.25]))
    b = sp.Element(real, np.diag([0.4, 0.8]))
    assert np.allclose(sp.seq_product(_std(real), a, b).data, np.diag([0.2, 0.2]), atol=1e-12)
    cplx = sp.complex_hermitian(2)
    ac = sp.Element(cplx, np.diag([0.5, 0.25]).astype(complex))
    bc = sp.Element(cplx, np.diag([0.4, 0.8]).astype(complex))
    for t in (0.0, 0.5, 1.0, 2.0):
        tw = sp.SequentialProduct.twisted(cplx, t)
        assert np.allclose(sp.seq_product(tw, ac, bc).data, np.diag([0.2, 0.2]), atol=1e-12)


def test_seq_result_is_effect_below_left(algebra):
    p = _std(algebra)
    rng = np.random.default_rng(42)
    for _ in range(20):
        a, b = sp.random_effect(algebra, rng), sp.random_effect(algebra, rng)
        out = sp.seq_product(p, a, b)
        assert sp.is_effect(out, 1e-9)
        assert sp.leq(out, a, 1e-9)


def test_seq_descriptor_mismatch():
    alg, other = sp.real_symmetric(2), sp.real_symmetric(3)
    a, b = sp.random_effect(alg, 0), sp.random_effect(alg, 1)
    with pytest.raises(sp.DescriptorMismatchError):
        sp.seq_product(_std(alg), a, sp.random_effect(other, 0))
    # a product on another algebra, however its own operands agree
    for call in (lambda: sp.seq_product(_std(other), a, b),
                 lambda: sp.multiplication_operator(_std(other), a),
                 lambda: sp.divide(_std(other), a, sp.seq_product(_std(alg), a, b)),
                 lambda: sp.theta_between(_std(other), _std(other), a),
                 lambda: sp.theta_between(_std(alg), _std(other), a)):
        with pytest.raises(sp.DescriptorMismatchError):
            call()
    # a map applied to, or composed with, another algebra's element or map
    l_a, l_other = (sp.multiplication_operator(_std(x.algebra), x)
                    for x in (a, sp.random_effect(other, 0)))
    for call in (lambda: l_a.apply(sp.random_effect(other, 0)), lambda: l_a.compose(l_other),
                 lambda: l_other.compose(l_a)):
        with pytest.raises(sp.DescriptorMismatchError):
            call()


# ---------------------------------------------------------------------------
# multiplication operator
# ---------------------------------------------------------------------------

def test_multiplication_operator_contract(algebra):
    p = _std(algebra)
    one = sp.identity(algebra)
    assert map_distance(sp.multiplication_operator(p, one),
                        sp.LinearMap.identity(algebra)) <= 1e-10
    rng = np.random.default_rng(43)
    a = sp.random_effect(algebra, rng)
    l_a = sp.multiplication_operator(p, a)
    assert sp.order_unit_norm(l_a.apply(one) - a) <= 1e-10
    for _ in range(20):
        b = sp.random_effect(algebra, rng)
        assert sp.order_unit_norm(l_a.apply(b) - sp.seq_product(p, a, b)) <= 1e-11


def test_multiplication_operator_twisted():
    alg = sp.complex_hermitian(3)
    tw = sp.SequentialProduct.twisted(alg, 0.7)
    rng = np.random.default_rng(44)
    a = sp.random_effect(alg, rng)
    l_a = sp.multiplication_operator(tw, a)
    for _ in range(10):
        b = sp.random_effect(alg, rng)
        assert sp.order_unit_norm(l_a.apply(b) - sp.seq_product(tw, a, b)) <= 1e-11


@pytest.mark.parametrize("short, solves", [("complex:3", 1), ("sum(complex:2,complex:2)", 2)])
def test_twisted_operators_solve_once_per_block(short, solves, monkeypatch):
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, 45)
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: calls.append(1) or eigh(mat))
    sp.multiplication_operator(sp.SequentialProduct.twisted(alg, 0.7), a)
    assert len(calls) == solves
    sp.imaginary_power_conjugation(a, 0.7)
    assert len(calls) == solves  # the eigen-data of a is reused


# ---------------------------------------------------------------------------
# commutation
# ---------------------------------------------------------------------------

def test_commutes_examples():
    alg = sp.real_symmetric(2)
    p = _std(alg)
    a = sp.Element(alg, np.diag([0.5, 0.25]))
    b = sp.Element(alg, np.diag([0.4, 0.8]))
    assert sp.commutes(p, a, b, 1e-8)
    proj = sp.Element(alg, np.diag([1.0, 0.0]))
    hadamard = sp.Element(alg, 0.5 * np.ones((2, 2)))
    assert not sp.commutes(p, proj, hadamard, 1e-8)


def test_commutes_with_own_square(algebra):
    p = _std(algebra)
    a = sp.random_effect(algebra, 45)
    assert sp.commutes(p, a, sp.jordan_product(a, a), 1e-8)


def test_commutation_equivalences(matrix_algebra):
    # product commutation <=> [Q,Q] = 0 <=> [T,T] = 0 <=> matrix commutator = 0
    p = _std(matrix_algebra)
    rng = np.random.default_rng(46)
    a = sp.random_effect(matrix_algebra, rng, "invertible")
    b_comm = sp.functional_calculus(a, lambda x: min(0.9, 0.3 + x * x))
    b_gen = sp.random_effect(matrix_algebra, rng)

    def verdicts(x, y):
        qx, qy = sp.quadratic_operator(x), sp.quadratic_operator(y)
        tx, ty = sp.jordan_mult_operator(x), sp.jordan_mult_operator(y)
        return (
            sp.order_unit_norm(sp.seq_product(p, x, y) - sp.seq_product(p, y, x)) <= 1e-8,
            map_distance(qx.compose(qy), qy.compose(qx)) <= 1e-8,
            map_distance(tx.compose(ty), ty.compose(tx)) <= 1e-8,
            np.abs(x.data @ y.data - y.data @ x.data).max() <= 1e-8,
        )

    assert verdicts(a, b_comm) == (True, True, True, True)
    assert verdicts(a, b_gen) == (False, False, False, False)


# ---------------------------------------------------------------------------
# divide
# ---------------------------------------------------------------------------

def test_divide_hand_example():
    alg = sp.real_symmetric(2)
    q = sp.Element(alg, np.diag([0.5, 0.5]))
    a = sp.Element(alg, np.diag([0.25, 0.1]))
    c = sp.divide(_std(alg), q, a)
    assert np.allclose(c.data, np.diag([0.5, 0.2]), atol=1e-12)


def test_divide_self_and_unit(algebra):
    p = _std(algebra)
    q = sp.random_effect(algebra, 47, "singular")
    assert sp.order_unit_norm(sp.divide(p, q, q) - sp.ceiling_effect(q)) <= 1e-8
    a = sp.random_effect(algebra, 48)
    assert sp.order_unit_norm(sp.divide(p, sp.identity(algebra), a) - a) <= 1e-10


def test_divide_contract(algebra):
    p = _std(algebra)
    rng = np.random.default_rng(49)
    for profile in ("generic", "singular"):
        q = sp.random_effect(algebra, rng, profile)
        a = sp.seq_product(p, q, sp.random_effect(algebra, rng))
        c = sp.divide(p, q, a)
        assert sp.order_unit_norm(sp.seq_product(p, q, c) - a) <= 1e-8
        assert sp.leq(c, sp.ceiling_effect(q), 1e-8)


def test_divide_precondition_names_eigenvalue():
    alg = sp.real_symmetric(2)
    q = sp.Element(alg, np.diag([0.5, 0.5]))
    a = sp.Element(alg, np.diag([0.8, 0.1]))
    with pytest.raises(sp.PreconditionError, match="-3"):
        sp.divide(_std(alg), q, a)


def _not_positive(alg):
    """An element of alg whose smallest eigenvalue is -0.5, the others in (0, 1)."""
    if alg.summands:
        return sp.Element(alg, tuple(_not_positive(s) if k == 0 else sp.random_effect(s, 60)
                                     for k, s in enumerate(alg.summands)))
    return sp.Element(alg, np.diag([-0.5, 0.3, 0.6][:alg.size]).astype(complex))


@pytest.mark.parametrize("short", ["complex:3", "sum(complex:2,complex:3)"])
@pytest.mark.parametrize("twist", [None, 1.0])
def test_roots_and_powers_need_a_positive_element(short, twist):
    alg = sp.parse_algebra(short)
    p = sp.SequentialProduct(alg, twist)
    q, b = _not_positive(alg), sp.random_effect(alg, 61)
    # a stack's first offending trial (-0.25) is not its worst (-0.5)
    stack = alg._backend.stack(alg, [b, q * 0.5, q])
    for x in (q, stack):
        calls = [lambda: sp.seq_product(p, x, b), lambda: sp.multiplication_operator(p, x),
                 lambda: sp.divide(p, x, x - sp.identity(alg) * 0.1),
                 lambda: sp.imaginary_power_conjugation(x, 1.0 if twist is None else twist),
                 lambda: sp.pseudo_inverse(x), lambda: sp.sqrt_pos(x)]
        for call in calls:
            with pytest.raises(sp.PreconditionError, match="positive element; min eigenvalue -5.0"):
                call()
    with pytest.raises(sp.PreconditionError, match=f"the {p.descriptor()} product needs"):
        sp.seq_product(p, q, b)


@pytest.mark.parametrize("twist", [None, 1.0])
def test_spectrum_within_the_support_threshold_counts_as_positive(twist):
    alg = sp.complex_hermitian(3)
    p = sp.SequentialProduct(alg, twist)
    q = sp.Element(alg, np.diag([-1e-12, 0.3, 0.6]))
    sp.seq_product(p, q, sp.random_effect(alg, 61))
    sp.multiplication_operator(p, q)
    sp.divide(p, q, q * 0.5)
    sp.imaginary_power_conjugation(q, 1.0)
    sp.pseudo_inverse(q)


@pytest.mark.parametrize("short, blocks", [("complex:3", 1), ("sum(complex:2,complex:3)", 2)])
def test_divide_checks_positivity_on_the_solve_its_root_reads(short, blocks, monkeypatch):
    alg = sp.parse_algebra(short)
    q = sp.random_effect(alg, 62)
    a = sp.seq_product(sp.SequentialProduct.standard(alg), q, sp.random_effect(alg, 63))
    q = q + sp.zero(alg)  # the same data, with no eigen-data kept
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda mat, _n=name, _s=solver: calls.append(_n) or _s(mat))
    sp.divide(sp.SequentialProduct.twisted(alg, 1.0), q, a)
    assert sorted(calls) == ["eigh"] * blocks + ["eigvalsh"] * blocks


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

def test_homogeneity_iso_maps_a_to_b(algebra):
    rng = np.random.default_rng(50)
    a = sp.random_effect(algebra, rng, "invertible")
    b = sp.random_effect(algebra, rng, "invertible")
    phi = sp.homogeneity_iso(a, b)
    assert sp.order_unit_norm(phi.apply(a) - b) <= 1e-8
    for _ in range(20):
        x = sp.random_effect(algebra, rng)
        assert sp.min_eigenvalue(phi.apply(x)) >= -1e-9
        assert sp.min_eigenvalue(phi.invert().apply(x)) >= -1e-9


def test_homogeneity_identity_cases(algebra):
    b = sp.random_effect(algebra, 51, "invertible")
    phi = sp.homogeneity_iso(b, b)
    x = sp.random_effect(algebra, 52)
    assert sp.order_unit_norm(phi.apply(x) - x) <= 1e-9
    phi_from_one = sp.homogeneity_iso(sp.identity(algebra), b)
    l_b = sp.multiplication_operator(sp.SequentialProduct.standard(algebra), b)
    assert map_distance(phi_from_one, l_b) <= 1e-9


def test_homogeneity_rejects_singular(algebra):
    with pytest.raises(sp.PreconditionError):
        sp.homogeneity_iso(sp.random_effect(algebra, 53, "singular"),
                           sp.random_effect(algebra, 53, "invertible"))


# ---------------------------------------------------------------------------
# theta maps
# ---------------------------------------------------------------------------

def test_theta_same_product_is_identity(algebra):
    p = _std(algebra)
    q = sp.random_effect(algebra, 54, "invertible")
    assert map_distance(sp.theta_between(p, p, q), sp.LinearMap.identity(algebra)) <= 1e-9


def test_theta_matches_imaginary_power_conjugation():
    alg = sp.complex_hermitian(2)
    std = _std(alg)
    tw = sp.SequentialProduct.twisted(alg, 1.0)
    q = sp.Element(alg, np.diag([0.2, 0.7]).astype(complex))
    theta = sp.theta_between(std, tw, q)
    ad = sp.imaginary_power_conjugation(q, 1.0)
    assert map_distance(theta, ad) <= 1e-8
    one = sp.identity(alg)
    assert sp.order_unit_norm(theta.apply(one) - one) <= 1e-9


def test_theta_rejects_singular():
    alg = sp.complex_hermitian(2)
    q = sp.Element(alg, np.diag([0.5, 0.0]).astype(complex))
    with pytest.raises(sp.PreconditionError):
        sp.theta_between(_std(alg), sp.SequentialProduct.twisted(alg, 1.0), q)


def test_theta_group_structure():
    alg = sp.complex_hermitian(3)
    std = _std(alg)
    tw = sp.SequentialProduct.twisted(alg, 0.8)
    rng = np.random.default_rng(55)
    a = sp.random_effect(alg, rng, "invertible")
    b = sp.functional_calculus(a, lambda x: min(0.9, max(0.1, 0.2 + 0.9 * x)))
    th_a = sp.theta_between(std, tw, a)
    th_b = sp.theta_between(std, tw, b)
    th_ab = sp.theta_between(std, tw, sp.seq_product(std, a, b))
    assert map_distance(th_ab, th_a.compose(th_b)) <= 1e-7
    assert map_distance(th_a.compose(th_b), th_b.compose(th_a)) <= 1e-7
    assert map_distance(sp.theta_between(std, tw, sp.pseudo_inverse(a)),
                        th_a.invert()) <= 1e-7
    # the theta in the other direction, which THETA_STRUCTURE takes as the inverse
    back = sp.theta_between(tw, std, a)
    assert map_distance(th_a.compose(back), sp.LinearMap.identity(alg)) <= 1e-12
    assert map_distance(back, th_a.invert()) <= 1e-12


@pytest.mark.parametrize("short", ["real:4", "complex:4", "quat:3", "spin:5",
                                   "sum(complex:2,real:3)"])
def test_theta_and_homogeneity_take_l_inverse_from_the_same_inverse_root(short):
    # both are pinned bit for bit against one expression for L_{a^-1}: the sandwich by the
    # standard product's root at a^-1
    alg = sp.parse_algebra(short)
    std = _std(alg)
    a, b = (sp.random_effect(alg, seed, "invertible") for seed in (56, 57))
    l_ainv = alg._backend.quadratic_operator(products._inverse_root(std, a, "a test"))
    l_a, l_b = (sp.multiplication_operator(std, x).matrix for x in (a, b))
    assert np.array_equal(sp.theta_between(std, std, a).matrix, l_ainv @ l_a)
    assert np.array_equal(sp.homogeneity_iso(a, b).matrix, l_b @ l_ainv)
    assert map_distance(sp.theta_between(std, std, a), sp.LinearMap.identity(alg)) <= 1e-12


def test_no_package_path_inverts_an_operator_matrix():
    # L^-1 is always the sandwich by an inverse root; LinearMap.invert stays as public API
    calls = []
    for path in Path(sp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == "invert" or (name == "_lapack" and node.args
                                        and getattr(node.args[0], "value", None) == "inv"):
                    calls.append((path.name, node.lineno))
    assert calls == [("algebra.py", _invert_line())]


def _invert_line():
    lines, start = inspect.getsourcelines(sp.LinearMap.invert)
    return start + next(i for i, line in enumerate(lines) if '_lapack("inv"' in line)


# ---------------------------------------------------------------------------
# law spot checks at module level (the auditor runs the full ensembles)
# ---------------------------------------------------------------------------

def test_scalar_law(algebra):
    p = _std(algebra)
    rng = np.random.default_rng(56)
    a, b = sp.random_effect(algebra, rng), sp.random_effect(algebra, rng)
    ab = sp.seq_product(p, a, b)
    for lam in (0.0, 0.25, 0.5, 1.0):
        assert sp.order_unit_norm(sp.seq_product(p, a * lam, b) - ab * lam) <= 1e-10
        assert sp.order_unit_norm(sp.seq_product(p, a, b * lam) - ab * lam) <= 1e-10


def test_sharp_effect_laws(algebra):
    p = _std(algebra)
    rng = np.random.default_rng(57)
    proj = random_projection(algebra, rng, proper=True)
    comp = sp.identity(algebra) - proj
    above = proj + sp.quadratic_rep(comp, sp.random_effect(algebra, rng))
    below = sp.quadratic_rep(proj, sp.random_effect(algebra, rng))
    assert sp.order_unit_norm(sp.seq_product(p, proj, above) - proj) <= 1e-8
    assert sp.order_unit_norm(sp.seq_product(p, above, proj) - proj) <= 1e-8
    assert sp.order_unit_norm(sp.seq_product(p, proj, below) - below) <= 1e-8
    assert sp.order_unit_norm(sp.seq_product(p, below, proj) - below) <= 1e-8


def test_monotone_in_right_argument(algebra):
    p = _std(algebra)
    rng = np.random.default_rng(58)
    b = sp.random_effect(algebra, rng)
    a = sp.seq_product(p, b, sp.random_effect(algebra, rng))
    c = sp.random_effect(algebra, rng)
    assert sp.min_eigenvalue(sp.seq_product(p, c, b) - sp.seq_product(p, c, a)) >= -1e-10


def test_quadratic_law(algebra):
    p = _std(algebra)
    rng = np.random.default_rng(59)
    a, b = sp.random_effect(algebra, rng), sp.random_effect(algebra, rng)
    ab = sp.seq_product(p, a, b)
    lhs = sp.multiplication_operator(p, sp.jordan_product(ab, ab))
    l_a = sp.multiplication_operator(p, a)
    rhs = l_a.compose(sp.multiplication_operator(p, sp.jordan_product(b, b))).compose(l_a)
    assert map_distance(lhs, rhs) <= 1e-8


def test_invertibility_preservation_standard(algebra):
    p = _std(algebra)
    rng = np.random.default_rng(60)
    a = sp.random_effect(algebra, rng, "invertible")
    b = sp.random_effect(algebra, rng, "invertible")
    lhs = sp.pseudo_inverse(sp.seq_product(p, a, b))
    rhs = sp.seq_product(p, sp.pseudo_inverse(a), sp.pseudo_inverse(b))
    assert sp.order_unit_norm(lhs - rhs) <= 1e-7


def test_inverse_antitone(algebra):
    p = _std(algebra)
    rng = np.random.default_rng(61)
    b = sp.random_effect(algebra, rng, "invertible")
    a = sp.seq_product(p, b, sp.random_effect(algebra, rng, "invertible"))
    # a <= b with both invertible, hence b^-1 <= a^-1 ...
    assert sp.leq(a, b, 1e-10)
    x, y = sp.pseudo_inverse(a), sp.pseudo_inverse(b)
    assert sp.leq(y, x, 1e-7)
    # ... and applying the same antitone map to the inverse pair returns a <= b
    assert sp.leq(sp.pseudo_inverse(x), sp.pseudo_inverse(y), 1e-7)


# ---------------------------------------------------------------------------
# the product root, kept on the first argument
# ---------------------------------------------------------------------------

ROOT_CASES = [("real:4", None), ("quat:3", None), ("spin:5", None),
              ("sum(complex:2,real:3)", None), ("complex:3", None), ("complex:3", 0.7),
              ("sum(complex:2,complex:3)", -0.4)]


def _product(alg, twist):
    return _std(alg) if twist is None else sp.SequentialProduct.twisted(alg, twist)


def _data_bits(x):
    """The bytes of every stored array of an element: signed zeros show."""
    if isinstance(x.data, tuple) and isinstance(x.data[0], sp.Element):
        return [b for blk in x.data for b in _data_bits(blk)]
    return [np.asarray(part).tobytes() for part in (x.data if isinstance(x.data, tuple)
                                                    else (x.data,))]


@pytest.mark.parametrize("short,twist", ROOT_CASES)
def test_a_second_product_with_the_same_first_argument_reuses_its_root(monkeypatch, short,
                                                                       twist):
    from seqprod import _backends
    alg = sp.parse_algebra(short)
    p = _product(alg, twist)
    a, b, c = (sp.random_effect(alg, seed) for seed in (45, 46, 47))
    first = sp.seq_product(p, a, b)
    calls = []
    solve = _backends._matrix_function
    monkeypatch.setattr(_backends, "_matrix_function",
                        lambda *args: calls.append(args) or solve(*args))
    again, other = sp.seq_product(p, a, b), sp.seq_product(p, a, c)
    l_a = sp.multiplication_operator(p, a)
    assert not calls
    assert _data_bits(again) == _data_bits(first)
    fresh = sp.Element(alg, a.data)  # no cached root
    assert _data_bits(other) == _data_bits(sp.seq_product(p, fresh, c))
    assert l_a.matrix.tobytes() == sp.multiplication_operator(p, fresh).matrix.tobytes()


def test_each_twist_keeps_its_own_root():
    alg = sp.complex_hermitian(3)
    a, b = sp.random_effect(alg, 48), sp.random_effect(alg, 49)
    for text in ("standard", "twisted:0.0", "twisted:0.5", "standard", "twisted:0.0"):
        p = sp.parse_product(text, alg)
        want = sp.seq_product(p, sp.Element(alg, a.data), b)
        assert _data_bits(sp.seq_product(p, a, b)) == _data_bits(want), text


def test_a_root_that_fails_is_not_kept():
    alg = sp.real_symmetric(3)
    a = sp.Element(alg, np.diag([0.5, -0.2, 0.3]))
    b = sp.random_effect(alg, 50)
    for _ in range(2):
        with pytest.raises(sp.PreconditionError):
            sp.seq_product(_std(alg), a, b)
        with pytest.raises(sp.PreconditionError):
            sp.multiplication_operator(_std(alg), a)
        assert "_roots" not in a.__dict__


# ---------------------------------------------------------------------------
# divide and homogeneity from one solve of q
# ---------------------------------------------------------------------------
#
# ``divide`` takes the root at the pseudo-inverse q^+ from q's own solve; the composite
# seq_product(p, pseudo_inverse(q), a), which solves q^+ again, stays here as the oracle.

#: (algebra, twist, matrix blocks): one eigh of q and one eigvalsh of q - a per block
DIVIDE_CASES = [("real:4", None, 1), ("complex:4", None, 1), ("quat:3", None, 1),
                ("spin:5", None, 0), ("sum(complex:2,real:3)", None, 2),
                ("complex:3", 0.5, 1), ("complex:3", 1.0, 1),
                ("sum(complex:2,complex:3)", None, 2), ("sum(complex:2,complex:3)", 0.7, 2)]


def _blocks(x):
    """The simple blocks of x, direct sums flattened in summand order."""
    if x.algebra.summands:
        return [b for blk in x.data for b in _blocks(blk)]
    return [x]


def _quotient_pair(alg, p, seed, profile):
    """(q, a) with a = q o x <= q, both fresh."""
    q = sp.random_effect(alg, seed, profile)
    return _fresh(q), _fresh(sp.seq_product(p, q, sp.random_effect(alg, seed + 1)))


@pytest.mark.parametrize("short,twist,blocks", DIVIDE_CASES)
def test_divide_solves_q_once_and_q_minus_a_for_its_ends(short, twist, blocks, monkeypatch):
    from seqprod import _backends
    alg = sp.parse_algebra(short)
    p = _product(alg, twist)
    q, a = _quotient_pair(alg, p, 56, "singular")
    solved = {"eigh": [], "eigvalsh": []}
    for name, calls in solved.items():
        monkeypatch.setattr(np.linalg, name,
                            lambda mat, solver=getattr(np.linalg, name), calls=calls:
                            calls.append(mat) or solver(mat))
    functions = []
    function = _backends._matrix_function
    monkeypatch.setattr(_backends, "_matrix_function",
                        lambda x, *args: functions.append(x) or function(x, *args))
    sp.divide(p, q, a)
    diff = q - a
    matrices = [blk for blk in _blocks(q) if blk.algebra.kind != KIND_SPIN]
    assert len(matrices) == blocks
    assert [m.tobytes() for m in solved["eigh"]] == [blk.data.tobytes() for blk in matrices]
    assert [m.tobytes() for m in solved["eigvalsh"]] == [
        blk.data.tobytes() for blk in _blocks(diff) if blk.algebra.kind != KIND_SPIN]
    # one function of each block of q, and of nothing else: no pseudo-inverse is built
    assert len(functions) == blocks and all(any(f is blk for blk in matrices) for f in functions)


@pytest.mark.parametrize("short,twist", [(short, twist) for short, twist, _ in DIVIDE_CASES])
def test_divide_equals_the_product_at_the_pseudo_inverse(short, twist):
    alg = sp.parse_algebra(short)
    p = _product(alg, twist)
    for seed, profile in ((57, "generic"), (58, "singular"), (59, "invertible"), (60, "sharp")):
        q, a = _quotient_pair(alg, p, seed, profile)
        want = sp.seq_product(p, sp.pseudo_inverse(q), a)
        assert rel_residual(sp.divide(p, q, a), want) <= 1e-12, profile


@pytest.mark.parametrize("short", ["real:4", "complex:4", "quat:3", "spin:5",
                                   "sum(complex:2,real:3)"])
def test_homogeneity_iso_equals_the_composite_with_the_pseudo_inverse(short):
    alg = sp.parse_algebra(short)
    std = _std(alg)
    a, b = (sp.random_effect(alg, seed, "invertible") for seed in (61, 62))
    want = sp.multiplication_operator(std, b).compose(
        sp.multiplication_operator(std, sp.pseudo_inverse(a)))
    got = sp.homogeneity_iso(_fresh(a), _fresh(b))
    assert map_distance(got, want) <= 1e-12 * max(1.0, operator_norm(want))


# ---------------------------------------------------------------------------
# one root function for both products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("short", ["real:4", "complex:4", "quat:3", "spin:5",
                                   "sum(complex:2,real:3)"])
@pytest.mark.parametrize("profile", ["invertible", "singular"])
def test_one_patched_root_function_reaches_every_consumer(short, profile, monkeypatch):
    # the aba mutant: the root's exponent doubled, so a o x = a x a, q^+ o a = q^+ a q^+ and
    # the square root of a is a
    power = spectral._twisted_power
    monkeypatch.setattr(spectral, "_twisted_power", lambda t, exponent: power(t, 2 * exponent))
    alg = sp.parse_algebra(short)
    p = _std(alg)
    a, x = sp.random_effect(alg, 63, profile), sp.random_effect(alg, 64)
    want = sp.quadratic_rep(a, x)
    assert rel_residual(sp.seq_product(p, _fresh(a), x), want) <= 1e-12
    assert rel_residual(sp.multiplication_operator(p, _fresh(a)).apply(x), want) <= 1e-12
    q_plus = sp.pseudo_inverse(a)
    assert rel_residual(sp.divide(p, _fresh(a), want), sp.quadratic_rep(q_plus, want)) <= 1e-12
    assert rel_residual(sp.sqrt_pos(_fresh(a)), a) <= 1e-12
