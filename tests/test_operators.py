"""Closed-form operator matrices against the column-by-column reference.

``assemble_map`` builds a map's coordinate matrix the slow, obvious way: one
basis element at a time, through the element-level action.  The package
builds T_a, Q_a, L_a, Ad(q^{it}) and the order isomorphisms in closed form;
each must agree with this reference.

The package forms every image from one product per trial (E_k a for all k as
one (dim m, m) stack; m [E_1 | ... | E_d], then m^H).  The per-basis formulas
it replaced, one product per basis element, and the trial-by-trial polar
factor are kept here as references that the package must equal bit for bit.
"""

import numpy as np
import pytest

import seqprod as sp
from seqprod import auditor
from seqprod._backends import (
    POLAR_DEGENERACY,
    _block_diag,
    _dual_basis,
    _matrix_basis,
    _operator,
    _random_structured_unitaries,
    _trusted,
)
from seqprod.algebra import (
    KIND_QUAT,
    KIND_SPIN,
    KIND_SUM,
    Element,
    _random_effects,
    from_coords,
    to_coords,
)
from seqprod.errors import NumericalFailureError
from seqprod.spectral import DEFAULT_GAP, _twisted_power

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


def reference_unitary(alg, rng):
    """The unitary polar factor U W^H of one Gaussian draw g = U S W^H, drawn again while
    degenerate, trial by trial: the polar path that the stacked one replaced."""
    backend = alg._backend
    for _ in range(8):
        g = backend.gaussian(rng.standard_normal((backend.field_dim, alg.size, alg.size)))
        left, s, right = np.linalg.svd(g)
        if s[-1] ** 2 <= POLAR_DEGENERACY * max(1.0, s[0] ** 2):
            continue
        return left @ right
    raise NumericalFailureError("degenerate")


def iso_action(alg, kind, rng):
    """Element action of ``make_order_iso(alg, kind, rng)``, drawn in the same order."""
    if alg.kind == KIND_SUM:
        actions = [iso_action(s, kind, rng) for s in alg.summands]
        return lambda x: Element(alg, tuple(g(b) for g, b in zip(actions, x.data)))
    if kind == "transpose":
        return lambda x: Element(alg, x.data.T)
    if alg.kind == KIND_SPIN:
        rot = reference_unitary(sp.real_symmetric(alg.size), rng)
        return lambda x: Element(alg, (rot @ x.data[0], x.data[1]))
    u = reference_unitary(alg, rng)
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


# ---------------------------------------------------------------------------
# bit for bit against the per-basis formulas
# ---------------------------------------------------------------------------

BIT_SHORTHANDS = ["real:4", "complex:4", "quat:3", "spin:5", "sum(complex:2,real:3)",
                  "complex:3", "sum(spin:3,quat:2)", "complex:16", "real:32",
                  "sum(complex:2,complex:3)"]


def _bits(arr):
    """dtype, shape and bytes: signed zeros show in the bytes."""
    return arr.dtype, arr.shape, np.ascontiguousarray(arr).tobytes()


def reference_jordan_operator(a):
    """T_a from E_k a, one product per basis element: E_k a has the coordinates of
    (a E_k + E_k a) / 2, as Re tr(E_i (E_k a)^H) = Re tr(E_i E_k a) for Hermitian E_i."""
    alg = a.algebra
    if alg.kind == KIND_SUM:
        return _block_diag([reference_jordan_operator(blk) for blk in a.data])
    if alg.kind == KIND_SPIN:
        return alg._backend.jordan_operator(a)
    return _operator(alg, _matrix_basis(alg) @ a.data[..., None, :, :])


def reference_quadratic_operator(m):
    """x -> m x m^H from (m E_k) m^H, two products per basis element, on matrix blocks; the
    Jordan form on spin blocks."""
    alg = m.algebra
    if alg.kind == KIND_SUM:
        return _block_diag([reference_quadratic_operator(blk) for blk in m.data])
    if alg.kind == KIND_SPIN:
        return alg._backend.quadratic_operator(m)
    mat = m.data[..., None, :, :]
    return _operator(alg, mat @ _matrix_basis(alg) @ mat.conj().swapaxes(-1, -2))


def reference_sandwich(m, x):
    """m x m^H hermitised, one matrix per block of a complex algebra."""
    if m.algebra.kind == KIND_SUM:
        return [mat for mb, xb in zip(m.data, x.data) for mat in reference_sandwich(mb, xb)]
    mat = m.data @ x.data @ m.data.conj().swapaxes(-1, -2)
    return [0.5 * (mat + mat.conj().swapaxes(-1, -2))]


def _effects(alg, stacked, seed):
    if stacked:
        return _random_effects(alg, [np.random.default_rng(seed + k) for k in range(3)])
    return sp.random_effect(alg, seed)


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("short", BIT_SHORTHANDS)
def test_operators_equal_the_per_basis_formulas_bit_for_bit(short, stacked):
    alg = sp.parse_algebra(short)
    backend = alg._backend
    a = _effects(alg, stacked, 90)
    pairs = [(backend.jordan_operator(a), reference_jordan_operator(a)),
             (backend.quadratic_operator(a), reference_quadratic_operator(a)),
             (sp.multiplication_operator(sp.SequentialProduct.standard(alg), a).matrix,
              reference_quadratic_operator(sp.sqrt_pos(a)))]
    if alg.is_complex_kind():  # twisted L_a and Ad(q^{it}): x -> m x m^H for complex m
        x = _effects(alg, stacked, 91)
        for t, exponent in ((0.7, 0.5), (-0.3, 0.0)):
            m = backend.functional(a, _twisted_power(t, exponent), DEFAULT_GAP)
            want = reference_quadratic_operator(m)
            pairs.append((backend.quadratic_operator(m), want))
            got = backend.quadratic(m, x)
            blocks = got.data if alg.kind == KIND_SUM else (got,)
            pairs += zip((blk.data for blk in blocks), reference_sandwich(m, x))
        pairs.append((sp.imaginary_power_conjugation(a, -0.3).matrix, want))
    for got, want in pairs:
        assert _bits(got) == _bits(want)


#: how far T_a and ``_operator`` may round from the forms they replaced: 4 ulps of the
#: largest entry (2 were seen)
ULPS = 4


def assert_within_ulps(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= ULPS * np.spacing(np.abs(want).max())


def old_jordan_operator(a):
    """T_a from 0.5 (a E_k + E_k a), two products per basis element, projected by the complex
    product with the dual basis."""
    alg = a.algebra
    if alg.kind == KIND_SUM:
        return _block_diag([old_jordan_operator(blk) for blk in a.data])
    if alg.kind == KIND_SPIN:
        return alg._backend.jordan_operator(a)
    basis, mat = _matrix_basis(alg), a.data[..., None, :, :]
    return complex_projection(alg, 0.5 * (mat @ basis + basis @ mat))


def complex_projection(alg, images):
    return np.real(_dual_basis(alg) @ images.reshape(images.shape[:-2] + (-1,)).swapaxes(-1, -2))


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("short", BIT_SHORTHANDS)
def test_jordan_operator_equals_the_two_product_form_within_ulps(short, stacked):
    a = _effects(sp.parse_algebra(short), stacked, 92)
    assert_within_ulps(a.algebra._backend.jordan_operator(a), old_jordan_operator(a))


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("short", ["complex:3", "complex:4", "quat:3", "complex:16"])
def test_one_real_product_gives_the_coordinates_of_the_complex_one(short, stacked):
    # Hermitian images: T_a's and Q_a's
    alg = sp.parse_algebra(short)
    a = _effects(alg, stacked, 93)
    basis, mat = _matrix_basis(alg), a.data[..., None, :, :]
    for images in (0.5 * (mat @ basis + basis @ mat), mat @ basis @ mat):
        got = _operator(alg, images)
        assert_within_ulps(got, complex_projection(alg, images))
        assert_within_ulps(got, to_coords(_trusted(alg, images)).swapaxes(-1, -2))


@pytest.mark.parametrize("short", ["real:4", "complex:4", "quat:3", "complex:16"])
def test_unitary_isomorphism_equals_the_per_basis_formula(short):
    alg = sp.parse_algebra(short)
    phi = sp.make_order_iso(alg, "unitary_conjugation", seed=91)
    want = reference_quadratic_operator(
        _trusted(alg, reference_unitary(alg, np.random.default_rng(91))))
    assert _bits(phi.matrix) == _bits(want)


# ---------------------------------------------------------------------------
# polar factors and INVARIANCE's isomorphisms as stacks
# ---------------------------------------------------------------------------

class Planted:
    """A Generator whose first normal draws are overwritten by ``first``, in order; each draw
    is still made, so the stream goes on as it would."""

    def __init__(self, seed, first=()):
        self.rng, self.first = np.random.Generator(np.random.PCG64(seed)), list(first)

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        drawn = self.rng.standard_normal(size, dtype, out)
        if self.first:
            drawn[...] = self.first.pop(0)
        return drawn

    def __getattr__(self, name):  # every other draw as the Generator makes it
        return getattr(self.rng, name)


def _planted_draws(alg):
    """Normals of a rank-deficient sample (its last rows zero), of a diagonal one (its polar
    factor is the identity) and of an ill-conditioned one (singular values 1 down to 1.5e-5)."""
    backend = alg._backend
    n = alg.size
    shape = (backend.field_dim, n, n)
    rank_deficient = np.random.default_rng(92).standard_normal(shape)
    rank_deficient[:, -1, :] = 0.0
    diagonal, ill = np.zeros((2,) + shape)
    diagonal[0] = np.diag(np.geomspace(1.0, 1e-4, n))
    q, r = (np.linalg.qr(np.random.default_rng(s).standard_normal((n, n)))[0] for s in (92, 93))
    ill[0] = q @ np.diag(np.geomspace(1.0, 1.5e-5, n)) @ r
    return rank_deficient, diagonal, ill


@pytest.mark.parametrize("short", ["real:4", "complex:4", "quat:3", "real:1", "complex:16"])
def test_stacked_polar_factors_equal_the_trial_by_trial_ones(short):
    alg = sp.parse_algebra(short)
    bad, diagonal, ill = _planted_draws(alg)
    plants = [[], [bad], [diagonal], [bad, bad], [bad, ill], [], [ill], [bad, diagonal]]
    got = _random_structured_unitaries(alg, [Planted(93 + k, p) for k, p in enumerate(plants)])
    for k, p in enumerate(plants):
        want = reference_unitary(alg, Planted(93 + k, p))
        assert _bits(got[k]) == _bits(want)
    one = _random_structured_unitaries(alg, [Planted(94, [bad])])
    assert _bits(one[0]) == _bits(reference_unitary(alg, Planted(94, [bad])))


@pytest.mark.parametrize("short", ["real:4", "complex:4", "quat:3", "real:1", "complex:16"])
def test_the_isomorphism_unitary_is_the_polar_factor_of_its_draw(short):
    # the planted ill-conditioned draw and 64 plain ones, each planted so that g is known
    alg = sp.parse_algebra(short)
    backend = alg._backend
    ill = _planted_draws(alg)[2]
    draws = [ill] + [np.random.default_rng(300 + k).standard_normal(ill.shape) for k in range(64)]
    got = _random_structured_unitaries(alg, [Planted(98 + k, [d]) for k, d in enumerate(draws)])
    m = got.shape[-1]
    for u, g in zip(got, backend.gaussian(np.array(draws))):
        assert np.abs(u.conj().T @ u - np.eye(m)).max() <= 1e-14
        h = u.conj().T @ g
        assert np.abs(h - h.conj().T).max() <= 1e-13 * np.abs(g).max()
        assert np.linalg.eigvalsh(0.5 * (h + h.conj().T))[0] > 0
        if alg.kind == KIND_QUAT:
            n = alg.size
            j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
            assert np.abs(j @ u.conj() @ j.T - u).max() <= 1e-14


def test_a_sample_degenerate_eight_times_raises():
    alg = sp.real_symmetric(3)
    bad = _planted_draws(alg)[0]
    with pytest.raises(NumericalFailureError):
        _random_structured_unitaries(alg, [Planted(95), Planted(96, [bad] * 8)])


INVARIANCE_CASES = [("complex:3", None), ("complex:3", "transpose"), ("spin:5", None),
                    ("quat:3", None), ("sum(complex:2,complex:3)", None),
                    ("sum(complex:2,complex:3)", "transpose"), ("sum(complex:2,real:3)", None),
                    ("sum(spin:2,real:2)", "unitary_conjugation")]


def _invariance_maps(alg, iso, trials):
    """INVARIANCE's stacked maps, and each trial's ``make_order_iso`` from the same seed."""
    p = sp.SequentialProduct.standard(alg)
    params = {} if iso is None else {"iso": iso}
    rngs, again = ([np.random.Generator(np.random.PCG64(97 + i)) for i in trials]
                   for _ in range(2))
    phi = auditor._invariance(rngs, p, alg, trials, params)["phi"]
    kinds = alg._backend.order_isos(alg)
    want = [sp.make_order_iso(alg, iso or kinds[i % len(kinds)], seed=int(rng.integers(2 ** 31)))
            for rng, i in zip(again, trials)]
    return phi, want


@pytest.mark.parametrize("short,iso", INVARIANCE_CASES)
def test_invariance_isomorphisms_equal_make_order_iso(short, iso):
    alg = sp.parse_algebra(short)
    if iso is not None and iso not in alg._backend.order_isos(alg):
        with pytest.raises(sp.CapabilityError):
            _invariance_maps(alg, iso, range(3))
        return
    phi, want = _invariance_maps(alg, iso, range(3, 10))
    assert phi.label == tuple(m.label for m in want)
    assert _bits(phi.matrix) == _bits(np.stack([m.matrix for m in want]))


@pytest.mark.parametrize("short", ["quat:3", "spin:5", "sum(complex:2,real:3)"])
def test_invariance_redraws_a_degenerate_first_draw_as_make_order_iso_does(monkeypatch, short):
    alg = sp.parse_algebra(short)
    block = (alg.summands or (alg,))[0]
    # every isomorphism's Generator seeded with an odd number draws a rank-deficient first
    # sample (in its first block)
    first = _planted_draws(block if block.kind != KIND_SPIN else sp.real_symmetric(block.size))[0]
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: Planted(seed, [first] if seed % 2 else []))
    phi, want = _invariance_maps(alg, None, range(6))
    assert _bits(phi.matrix) == _bits(np.stack([m.matrix for m in want]))
