import json
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqprod as sp
from seqprod import serialize
from seqprod.algebra import (
    _require_spectrum,
    eigenvalue_range,
    from_coords,
    map_distance,
    norm_at_most,
    to_coords,
    trace,
)
from seqprod.auditor import REFERENCE_ALGEBRAS

from conftest import ALGEBRA_SHORTHANDS


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("short,dim", [
    ("real:3", 6), ("complex:3", 9), ("quat:2", 6), ("quat:3", 15),
    ("spin:4", 5), ("sum(complex:2,real:3)", 10),
])
def test_real_dimension(short, dim):
    assert sp.parse_algebra(short).real_dimension == dim


@pytest.mark.parametrize("short", ALGEBRA_SHORTHANDS + ["sum(spin:2,sum(real:2,complex:2))"])
def test_shorthand_roundtrip(short):
    assert sp.parse_algebra(short).shorthand() == short


@pytest.mark.parametrize("bad", ["foo:3", "real", "real:x", "sum()", "complex:0"])
def test_bad_shorthand(bad):
    with pytest.raises(sp.ConfigError):
        sp.parse_algebra(bad)


# ---------------------------------------------------------------------------
# jordan product
# ---------------------------------------------------------------------------

def test_jordan_diagonal_pointwise():
    alg = sp.real_symmetric(2)
    a = sp.Element(alg, np.diag([0.5, 0.25]))
    b = sp.Element(alg, np.diag([0.4, 0.8]))
    prod = sp.jordan_product(a, b)
    assert np.allclose(prod.data, np.diag([0.2, 0.2]))


def test_jordan_hand_example():
    alg = sp.real_symmetric(2)
    a = sp.Element(alg, np.diag([1.0, 0.0]))
    b = sp.Element(alg, np.array([[0.0, 1.0], [1.0, 0.0]]))
    prod = sp.jordan_product(a, b)
    assert np.allclose(prod.data, np.array([[0.0, 0.5], [0.5, 0.0]]))


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10 ** 6), st.sampled_from(ALGEBRA_SHORTHANDS))
def test_unit_law(seed, short):
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, seed)
    one = sp.identity(alg)
    assert sp.order_unit_norm(sp.jordan_product(one, a) - a) <= 1e-12


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10 ** 6), st.sampled_from(ALGEBRA_SHORTHANDS))
def test_jordan_identity(seed, short):
    alg = sp.parse_algebra(short)
    rng = np.random.default_rng(seed)
    a = sp.random_effect(alg, rng)
    b = sp.random_effect(alg, rng)
    asq = sp.jordan_product(a, a)
    lhs = sp.jordan_product(asq, sp.jordan_product(b, a))
    rhs = sp.jordan_product(sp.jordan_product(asq, b), a)
    assert sp.order_unit_norm(lhs - rhs) <= 1e-10


def test_mismatched_algebras():
    a = sp.random_effect(sp.real_symmetric(2), 0)
    b = sp.random_effect(sp.real_symmetric(3), 0)
    with pytest.raises(sp.DescriptorMismatchError):
        sp.jordan_product(a, b)


# ---------------------------------------------------------------------------
# T_a and Q_a
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("data", [
    [1.0, 2.0, 3.0], ([1.0, 2.0],), 5.0, ([1.0, 2.0], [3.0]), (["x", 2.0], 1.0), ([1.0], 1.0),
])
def test_spin_data_of_the_wrong_form(data):
    with pytest.raises(sp.ConfigError):
        sp.Element(sp.spin_factor(2), data)


def test_matrix_data_of_the_wrong_shape():
    with pytest.raises(sp.ConfigError):
        sp.Element(sp.real_symmetric(2), [1.0, 2.0])


_RAGGED, _TEXT = [[1.0, 2.0], [3.0]], [["x", 0.0], [0.0, 1.0]]
_SPIN_DATA = ([0.5, 0.25], 0.5)
#: per kind, real-valued element data, and element data that the constructor refuses
_ELEMENT_DATA = {
    "real:2": ([[1.0, 0.5], [0.5, 0.0]], [[[1.0, 1j], [-1j, 1.0]], _RAGGED, _TEXT]),
    "complex:2": ([[1.0, 0.5], [0.5, 0.0]], [_RAGGED, _TEXT, [[1.0, None], [None, 1.0]]]),
    "quat:1": ([[1.0, 0.0], [0.0, 1.0]], [_RAGGED, _TEXT]),
    "spin:2": (_SPIN_DATA, [([0.5, 1j], 0.5), ([0.5, 0.25], 0.5 + 1j), ([0.5, [0.25]], 0.5),
                            (["x", 0.25], 0.5)]),
    "sum(real:1,spin:2)": (None, [([[0.5]], sp.Element(sp.spin_factor(2), _SPIN_DATA)),
                                  5, None, 2.5]),
}


@pytest.mark.parametrize("short", list(_ELEMENT_DATA))
def test_malformed_or_complex_data_is_refused(short):
    # ragged, non-numeric or non-iterable data, an imaginary part that real storage would drop,
    # and function values of the wrong length raise ConfigError; an imaginary part of exactly 0
    # is dropped, the real bits kept
    alg = sp.parse_algebra(short)
    good, bad = _ELEMENT_DATA[short]
    for data in bad:
        with pytest.raises(sp.ConfigError):
            sp.Element(alg, data)
    d = alg.real_dimension
    coords, mat = np.linspace(0.1, 1.0, d), np.arange(d * d, dtype=float).reshape(d, d)
    for data in (coords + 1j, coords.tolist() + [[1.0]], ["x"] * d):
        with pytest.raises(sp.ConfigError):
            from_coords(alg, data)
    for data in (mat + 1j * np.eye(d), _RAGGED, [["x"] * d] * d):
        with pytest.raises(sp.ConfigError):
            sp.LinearMap(alg, data)
    model = sp.simultaneous_diagonalize([sp.random_effect(alg, 75)])
    n = model.points
    for data in (np.ones(n) + 1j, [1 + 1j] * n, ["x"] * n, ["1"] * n, np.ones(n + 1)):
        with pytest.raises(sp.ConfigError):
            model.from_function(data)
    assert np.array_equal(to_coords(from_coords(alg, coords + 0j)),
                          to_coords(from_coords(alg, coords)))
    assert sp.LinearMap(alg, mat + 0j).matrix.tobytes() == mat.tobytes()
    if good is not None:
        v, t = good if isinstance(good, tuple) else (good, None)
        zero_imag = np.asarray(v) + 0j if t is None else (np.asarray(v) + 0j, t + 0j)
        assert np.array_equal(to_coords(sp.Element(alg, zero_imag)),
                              to_coords(sp.Element(alg, good)))


def _boolean_payloads(alg, payload):
    """Copies of an element payload, each with the numbers of one part (a matrix payload,
    its re or im, a spin v or t, or one block's part) replaced by booleans."""
    if alg.summands:
        return [payload[:i] + [part] + payload[i + 1:]
                for i, (sub, block) in enumerate(zip(alg.summands, payload))
                for part in _boolean_payloads(sub, block)]
    if isinstance(payload, dict):
        return [{**payload, key: (np.asarray(value) > 0.5).tolist()}
                for key, value in payload.items()]
    return [(np.asarray(payload) > 0.5).tolist()]


@pytest.mark.parametrize("short", ["real:2", "complex:2", "quat:1", "spin:2",
                                   "sum(complex:2,spin:2)"])
def test_boolean_entries_are_refused(short):
    # numpy counts True and False as numbers; as element data, an element payload,
    # coordinates, a map's matrix or function values they raise ConfigError, not 1.0 and 0.0
    alg = sp.parse_algebra(short)
    a = sp.random_effect(alg, 76)
    payload = serialize.element_to_json(a)
    for data in _boolean_payloads(alg, payload["data"]):
        with pytest.raises(sp.ConfigError):
            serialize.element_from_json({**payload, "data": data})
    if alg.kind == "spin_factor":
        bad = [(np.ones(alg.size, bool), 0.5), (np.ones(alg.size), True)]
    else:
        bad = [] if alg.summands else [np.eye(alg.matrix_order, dtype=bool)]
    for data in bad:
        with pytest.raises(sp.ConfigError):
            sp.Element(alg, data)
    d, n = alg.real_dimension, sp.simultaneous_diagonalize([a]).points
    for call, data in [(partial(from_coords, alg), np.ones(d, bool)),
                       (partial(sp.LinearMap, alg), np.eye(d, dtype=bool)),
                       (sp.simultaneous_diagonalize([a]).from_function, np.ones(n, bool))]:
        with pytest.raises(sp.ConfigError):
            call(data)
        call(data.astype(float))  # the same numbers as floats are taken


def test_a_boolean_among_numbers_is_refused():
    # numpy converts [[True, 0.5], [0.5, False]] to floats before any dtype check, so list
    # data is refused by its entries' types; the element JSON true is a Python True
    real = sp.real_symmetric(2)
    for data in ([[True, 0.5], [0.5, False]], [[1.0, np.True_], [1.0, 0.5]], [[True, 2], [2, 1]]):
        with pytest.raises(sp.ConfigError, match="got a boolean"):
            sp.Element(real, data)
    text = '{"algebra": {"kind": "real_symmetric", "n": 2}, "data": [[true, 0.5], [0.5, 1.0]]}'
    with pytest.raises(sp.ConfigError, match="got a boolean"):
        serialize.element_from_json(json.loads(text))
    cplx, spin = sp.complex_hermitian(2), sp.spin_factor(3)
    with pytest.raises(sp.ConfigError, match="the im part .* got a boolean"):
        serialize.element_from_json({"algebra": {"kind": "complex_hermitian", "n": 2}, "data": {
            "re": [[1.0, 0.5], [0.5, 1.0]], "im": [[0.0, False], [0.0, 0.0]]}})
    with pytest.raises(sp.ConfigError, match="got a boolean"):
        sp.Element(spin, ([0.5, True, 0.0], 1.0))
    # the same numbers as floats, and an ndarray, whose dtype settles it, are taken
    want = sp.Element(real, np.array([[1.0, 0.5], [0.5, 0.0]]))
    assert np.array_equal(sp.Element(real, [[1.0, 0.5], [0.5, 0.0]]).data, want.data)
    assert np.array_equal(sp.Element(cplx, [[1, 0.5j], [-0.5j, 0]]).data[0, 1], 0.5j)
    assert sp.Element(spin, ([0.5, 1.0, 0.0], 1.0)).data[1] == 1.0


def test_spin_element_keeps_its_own_copy_of_the_vector():
    v = np.zeros(3)
    x = sp.Element(sp.spin_factor(3), (v, 1.0))
    v[0] = 1.0  # the caller's vector stays writable
    assert x.data[0].tolist() == [0.0, 0.0, 0.0]
    assert not x.data[0].flags.writeable


def test_linear_map_keeps_its_own_copy_of_the_matrix():
    alg = sp.real_symmetric(2)
    m = np.eye(3)
    f = sp.LinearMap(alg, m)
    m[0, 0] = 2.0  # the caller's matrix stays writable
    assert f.matrix[0, 0] == 1.0
    assert not f.matrix.flags.writeable
    strided = np.eye(6)[::2, ::2]
    assert sp.LinearMap(alg, strided).matrix.flags.c_contiguous


def test_scaling_by_one_returns_the_element_itself(algebra):
    # 1.0 x is x bit for bit, so x keeps its cached eigen-data and product roots
    a = sp.random_effect(algebra, 44)
    assert a * 1.0 is a and 1.0 * a is a and a * 1 is a
    assert a * 0.5 is not a and a * -1.0 is not a


def test_mult_operator_of_unit_is_identity(algebra):
    t_one = sp.jordan_mult_operator(sp.identity(algebra))
    assert map_distance(t_one, sp.LinearMap.identity(algebra)) <= 1e-12


def test_mult_operator_consistency(algebra):
    rng = np.random.default_rng(3)
    a = sp.random_effect(algebra, rng)
    t_a = sp.jordan_mult_operator(a)
    for _ in range(20):
        b = sp.random_effect(algebra, rng)
        assert sp.order_unit_norm(t_a.apply(b) - sp.jordan_product(a, b)) <= 1e-12


def test_mult_operator_symmetric(algebra):
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b, c = (sp.random_effect(algebra, rng) for _ in range(3))
        t_a = sp.jordan_mult_operator(a)
        lhs = sp.trace_inner_product(t_a.apply(b), c)
        rhs = sp.trace_inner_product(b, t_a.apply(c))
        assert abs(lhs - rhs) <= 1e-10


def test_quadratic_rep_examples():
    alg = sp.real_symmetric(2)
    p = sp.Element(alg, np.diag([1.0, 0.0]))
    b = sp.Element(alg, np.array([[1.0, 2.0], [2.0, 3.0]]))
    assert np.allclose(sp.quadratic_rep(p, b).data, np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_quadratic_rep_unit(algebra):
    rng = np.random.default_rng(5)
    a = sp.random_effect(algebra, rng)
    b = sp.random_effect(algebra, rng)
    one = sp.identity(algebra)
    assert sp.order_unit_norm(sp.quadratic_rep(one, b) - b) <= 1e-12
    assert sp.order_unit_norm(sp.quadratic_rep(a, one) - sp.jordan_product(a, a)) <= 1e-12


def test_quadratic_rep_matrix_oracle(matrix_algebra):
    rng = np.random.default_rng(6)
    a = sp.random_effect(matrix_algebra, rng)
    b = sp.random_effect(matrix_algebra, rng)
    oracle = a.data @ b.data @ a.data
    assert np.abs(sp.quadratic_rep(a, b).data - oracle).max() <= 1e-10


def test_quadratic_operator_properties(algebra):
    rng = np.random.default_rng(7)
    a = sp.random_effect(algebra, rng)
    q_a = sp.quadratic_operator(a)
    # Q_0 = 0
    assert np.abs(sp.quadratic_operator(sp.zero(algebra)).matrix).max() <= 1e-14
    # Q_a = 2 T_a^2 - T_{a^2}
    t_a = sp.jordan_mult_operator(a).matrix
    t_sq = sp.jordan_mult_operator(sp.jordan_product(a, a)).matrix
    assert np.abs(q_a.matrix - (2 * t_a @ t_a - t_sq)).max() <= 1e-10
    # Q_a^2 = Q_{a^2}
    assert map_distance(q_a.compose(q_a),
                        sp.quadratic_operator(sp.jordan_product(a, a))) <= 1e-9


def test_fundamental_equality(algebra):
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = sp.random_effect(algebra, rng)
        b = sp.random_effect(algebra, rng)
        lhs = sp.quadratic_operator(sp.quadratic_rep(a, b))
        q_a, q_b = sp.quadratic_operator(a), sp.quadratic_operator(b)
        assert map_distance(lhs, q_a.compose(q_b).compose(q_a)) <= 1e-9


# ---------------------------------------------------------------------------
# trace inner product and norm
# ---------------------------------------------------------------------------

def test_trace_of_identity():
    alg = sp.complex_hermitian(3)
    one = sp.identity(alg)
    assert sp.trace_inner_product(one, one) == pytest.approx(3.0)


def test_trace_associativity(algebra):
    rng = np.random.default_rng(9)
    for _ in range(10):
        a, b, c = (sp.random_effect(algebra, rng) for _ in range(3))
        lhs = sp.trace_inner_product(sp.jordan_product(a, b), c)
        rhs = sp.trace_inner_product(b, sp.jordan_product(a, c))
        assert abs(lhs - rhs) <= 1e-10


def test_trace_orthogonal_projections():
    alg = sp.real_symmetric(2)
    p = sp.Element(alg, np.diag([1.0, 0.0]))
    q = sp.Element(alg, np.diag([0.0, 1.0]))
    assert sp.trace_inner_product(p, q) == pytest.approx(0.0)


def test_trace_positive_on_positive_pairs(algebra):
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = sp.random_effect(algebra, rng)
        b = sp.random_effect(algebra, rng)
        assert sp.trace_inner_product(a, b) >= -1e-10


def test_order_unit_norm_examples():
    alg = sp.real_symmetric(2)
    a = sp.Element(alg, np.diag([0.5, 0.25]))
    assert sp.order_unit_norm(a) == pytest.approx(0.5)
    assert sp.order_unit_norm(sp.identity(alg)) == pytest.approx(1.0)
    assert sp.order_unit_norm(-a) == pytest.approx(sp.order_unit_norm(a))


def test_norm_triangle_sampled(algebra):
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = sp.random_effect(algebra, rng)
        b = sp.random_effect(algebra, rng)
        assert sp.order_unit_norm(a + b) <= sp.order_unit_norm(a) + sp.order_unit_norm(b) + 1e-12


# ---------------------------------------------------------------------------
# positivity and effects
# ---------------------------------------------------------------------------

def test_squares_are_positive(algebra):
    rng = np.random.default_rng(12)
    from seqprod.algebra import random_element
    b = random_element(algebra, rng)
    assert sp.is_positive(sp.jordan_product(b, b), 1e-10)


def test_is_positive_is_effect_examples():
    alg = sp.real_symmetric(2)
    assert not sp.is_positive(sp.Element(alg, np.diag([0.5, -0.1])), 1e-9)
    assert sp.is_effect(sp.Element(alg, np.diag([0.3, 1.0])), 1e-9)
    assert not sp.is_effect(sp.Element(alg, np.diag([0.3, 1.1])), 1e-9)


def test_predicates_return_python_bools(algebra):
    a, b = sp.random_effect(algebra, 21), sp.random_effect(algebra, 22)
    p = sp.SequentialProduct.standard(algebra)
    for value in (sp.is_positive(a), sp.is_effect(a), sp.leq(a, b), sp.is_sharp(a),
                  sp.commutes(p, a, b)):
        assert type(value) is bool


@pytest.mark.parametrize("short", REFERENCE_ALGEBRAS)
def test_predicates_answer_one_bool_per_trial_on_a_stack(short):
    # the trials are chosen so that every predicate reads True on some and False on others
    alg = sp.parse_algebra(short)
    e, f, proj = (sp.random_effect(alg, 23), sp.random_effect(alg, 24),
                  sp.random_effect(alg, 25, "sharp"))
    xs, ys = [e, proj, e - sp.identity(alg) * 0.6], [e, f, e * 2.0]
    effects, others = [e, proj, e * 0.5], [e, f, e]
    p = sp.SequentialProduct.standard(alg)
    calls = [(sp.is_positive, [xs]), (sp.is_effect, [ys]), (sp.leq, [xs, ys]),
             (sp.is_sharp, [effects]), (partial(sp.commutes, p), [effects, others]),
             (lambda x: norm_at_most(x, 0.6), [xs])]
    for pred, args in calls:
        singles = [pred(*trial) for trial in zip(*args)]
        assert [type(v) for v in singles] == [bool] * 3 and set(singles) == {True, False}
        got = pred(*(alg._backend.stack(alg, items) for items in args))
        assert (type(got), got.dtype, got.tolist()) == (np.ndarray, bool, singles)


def test_the_spectrum_check_fails_a_nan_end_and_names_the_worst_eigenvalue():
    _require_spectrum((0.0, 1.0), 0.0, 1.0, "{:.3e}")  # the bounds themselves pass
    _require_spectrum((np.array([0.1, 0.2]), np.array([0.5, 0.9])), 0.0, 1.0, "{:.3e}")
    cases = [((np.nan, 0.5), "nan"), ((0.2, np.nan), "nan"), ((-0.1, 1.3), "1.300e+00"),
             ((np.array(-0.2), np.array(1.1)), "-2.000e-01"),
             ((np.array([0.1, -0.2, -0.3]), np.array([1.1, 0.5, 1.25])), "-3.000e-01"),
             ((np.array([-0.5, 0.2]), np.array([0.5, np.nan])), "nan")]
    for ends, worst in cases:
        with pytest.raises(sp.PreconditionError, match=f"^b has {re.escape(worst)}$"):
            _require_spectrum(ends, 0.0, 1.0, "{} has {:.3e}", "b")
    with pytest.raises(sp.PreconditionError, match=r"^-1\.000e\+00$"):
        _require_spectrum((-1.0, 2.0), 0.0, math.inf, "{:.3e}")  # an infinite bound: one side


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("name", ["norm_at_most", "commutes", "is_sharp", "is_positive",
                                  "is_effect", "leq"])
def test_predicates_refuse_a_nan_infinite_or_negative_tol(name, tol):
    # on a non-commuting, non-sharp pair with a - 1 not positive, an infinite tol would read
    # True and a NaN tol False
    alg = sp.real_symmetric(3)
    a, b = sp.random_effect(alg, 1), sp.random_effect(alg, 2)
    call = {"norm_at_most": lambda t: norm_at_most(a, t),
            "commutes": lambda t: sp.commutes(sp.SequentialProduct.standard(alg), a, b, t),
            "is_sharp": lambda t: sp.is_sharp(a, t),
            "is_positive": lambda t: sp.is_positive(a - sp.identity(alg), t),
            "is_effect": lambda t: sp.is_effect(a * 2.0, t),
            "leq": lambda t: sp.leq(sp.identity(alg), a, t)}[name]
    assert not call(0.0)  # a tol of 0 stays allowed
    with pytest.raises(sp.PreconditionError, match="tolerance must be finite and non-negative"):
        call(tol)


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("profile", ["generic", "invertible", "singular", "sharp"])
def test_random_effect_deterministic(algebra, profile):
    a = sp.random_effect(algebra, 123, profile)
    b = sp.random_effect(algebra, 123, profile)
    assert sp.order_unit_norm(a - b) == 0.0
    assert sp.is_effect(a, 1e-9)


def test_random_effect_invertible_margin(algebra):
    for seed in range(10):
        a = sp.random_effect(algebra, seed, "invertible")
        lo, hi = eigenvalue_range(a)
        assert lo >= 0.05 - 1e-9
        assert hi <= 0.95 + 1e-9


def test_random_effect_singular_has_proper_ceiling(algebra):
    from seqprod.spectral import ceiling_effect, is_sharp
    for seed in range(5):
        a = sp.random_effect(algebra, seed, "singular")
        ceil = ceiling_effect(a)
        assert is_sharp(ceil, 1e-9)
        rank = trace(ceil)
        assert 0.5 < rank < trace(sp.identity(algebra)) - 0.5


def test_random_effect_sharp(algebra):
    for seed in range(5):
        assert sp.is_sharp(sp.random_effect(algebra, seed, "sharp"), 1e-9)


# ---------------------------------------------------------------------------
# quaternionic structure
# ---------------------------------------------------------------------------

def _symplectic_form(n):
    """J = [[0, I], [-I, 0]] of the quaternionic embedding, as a complex matrix."""
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]]).astype(complex)


def test_quaternionic_symmetry_preserved():
    alg = sp.quaternionic_hermitian(3)
    j = _symplectic_form(3)
    rng = np.random.default_rng(13)

    def structure_residual(x):
        return np.abs(j @ x.data.conj() @ j.conj().T - x.data).max()

    a = sp.random_effect(alg, rng)
    b = sp.random_effect(alg, rng)
    assert structure_residual(a) <= 1e-12
    assert structure_residual(sp.jordan_product(a, b)) <= 1e-10
    assert structure_residual(sp.quadratic_rep(a, b)) <= 1e-10


def test_quaternionic_kramers_degeneracy():
    alg = sp.quaternionic_hermitian(3)
    a = sp.random_effect(alg, 14)
    w = np.linalg.eigvalsh(a.data)
    assert np.abs(w[0::2] - w[1::2]).max() <= 1e-12


# ---------------------------------------------------------------------------
# order isomorphisms
# ---------------------------------------------------------------------------

ISO_CASES = [
    ("real:3", "unitary_conjugation"),
    ("complex:3", "unitary_conjugation"),
    ("complex:3", "transpose"),
    ("quat:2", "unitary_conjugation"),
    ("spin:4", "spin_rotation"),
    ("sum(complex:2,real:3)", "unitary_conjugation"),
    ("sum(complex:2,complex:3)", "transpose"),
]


@pytest.mark.parametrize("short,kind", ISO_CASES)
def test_order_iso_contract(short, kind):
    alg = sp.parse_algebra(short)
    phi = sp.make_order_iso(alg, kind, seed=21)
    one = sp.identity(alg)
    assert sp.order_unit_norm(phi.apply(one) - one) <= 1e-12
    inv = phi.invert()
    rng = np.random.default_rng(22)
    for _ in range(50):
        x = sp.random_effect(alg, rng)
        assert sp.min_eigenvalue(phi.apply(x)) >= -1e-9
        assert sp.min_eigenvalue(inv.apply(x)) >= -1e-9


def test_transpose_fixes_real_diagonals():
    alg = sp.complex_hermitian(3)
    phi = sp.make_order_iso(alg, "transpose")
    d = sp.Element(alg, np.diag([0.1, 0.5, 0.9]).astype(complex))
    assert sp.order_unit_norm(phi.apply(d) - d) <= 1e-12


def test_unitary_conjugation_preserves_trace_ip(matrix_algebra):
    phi = sp.make_order_iso(matrix_algebra, "unitary_conjugation", seed=23)
    rng = np.random.default_rng(24)
    for _ in range(10):
        a = sp.random_effect(matrix_algebra, rng)
        b = sp.random_effect(matrix_algebra, rng)
        lhs = sp.trace_inner_product(phi.apply(a), phi.apply(b))
        assert abs(lhs - sp.trace_inner_product(a, b)) <= 1e-10


@pytest.mark.parametrize("short,kind", [
    ("real:3", "transpose"),
    ("quat:2", "transpose"),
    ("complex:3", "spin_rotation"),
    ("spin:4", "unitary_conjugation"),
    ("sum(complex:2,spin:3)", "unitary_conjugation"),
])
def test_order_iso_capability_errors(short, kind):
    with pytest.raises(sp.CapabilityError):
        sp.make_order_iso(sp.parse_algebra(short), kind, seed=0)


# ---------------------------------------------------------------------------
# coordinates and linear maps
# ---------------------------------------------------------------------------

def test_coordinates_are_orthonormal(algebra):
    dim = algebra.real_dimension
    units = [from_coords(algebra, row) for row in np.eye(dim)]
    gram = np.array([[sp.trace_inner_product(u, v) for v in units] for u in units])
    assert np.abs(gram - np.eye(dim)).max() <= 1e-12


def test_coordinate_roundtrip(algebra):
    a = sp.random_effect(algebra, 25)
    assert sp.order_unit_norm(from_coords(algebra, to_coords(a)) - a) <= 1e-12


def test_identity_map_acts_trivially(algebra):
    ident = sp.LinearMap.identity(algebra)
    a = sp.random_effect(algebra, 26)
    assert sp.order_unit_norm(ident.apply(a) - a) <= 1e-12


def test_assemble_compose_convention(algebra):
    rng = np.random.default_rng(27)
    a = sp.random_effect(algebra, rng)
    b = sp.random_effect(algebra, rng)
    f = sp.jordan_mult_operator(a)
    g = sp.jordan_mult_operator(b)
    x = sp.random_effect(algebra, rng)
    assert sp.order_unit_norm(f.compose(g).apply(x) - f.apply(g.apply(x))) <= 1e-12
