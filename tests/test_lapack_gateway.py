"""The LAPACK gateway ``_backends._lapack``: numpy's own eigh, eigvalsh and svd run as the gufunc
they wrap, to the bit, and a solver installed on ``np.linalg`` still sees every call."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.linalg import _linalg

import seqprod as sp
from seqprod import _backends
from seqprod._backends import _eigen, _lapack, _random_structured_unitaries, _spectrum
from seqprod.algebra import _random_effects
from seqprod.errors import NumericalFailureError

K = 5
MATRIX_KINDS = ["real:4", "complex:4", "quat:3"]
SOLVERS = ["eigh", "eigvalsh", "svd"]


def _rngs(seed, k=K):
    return [np.random.default_rng((seed, i)) for i in range(k)]


def _fresh(alg, seed):
    """One effect of ``alg`` with nothing solved on it."""
    return sp.Element(alg, sp.random_effect(alg, seed).data)


def _kernel_solves(alg, a, b, seed):
    """Every kind of solve the gateway's callers make on ``alg``: a's full and b's
    eigenvalue-only solve, a stack of K polar unitaries and the commutant of a and b."""
    _eigen(a)
    _spectrum(b)
    _random_structured_unitaries(alg, _rngs(seed))
    alg._backend.commutant_rows(alg, [a, b])


def _spy_inside_numpy(monkeypatch) -> list:
    """Arrays that np.linalg's own eigh, eigvalsh, svd or inv take from now on, recorded inside
    numpy's Python wrapper (its ``_makearray``) and passed through, ``np.linalg`` left as it is."""
    calls, makearray = [], _linalg._makearray

    def spy(a):
        calls.append(a)
        return makearray(a)

    monkeypatch.setattr(_linalg, "_makearray", spy)
    return calls


@pytest.mark.parametrize("short", MATRIX_KINDS)
def test_unpatched_solves_skip_numpys_python_wrapper(short, monkeypatch):
    # baseline: np.linalg holds numpy's own solvers; then the spy sees each of them called
    assert all(getattr(np.linalg, name) is getattr(_linalg, name) for name in SOLVERS)
    alg = sp.parse_algebra(short)
    a, b = _fresh(alg, 5), _fresh(alg, 6)
    calls = _spy_inside_numpy(monkeypatch)
    for name in SOLVERS:
        getattr(np.linalg, name)(a.data)
    assert len(calls) == len(SOLVERS)
    calls.clear()
    _kernel_solves(alg, a, b, 5)
    assert calls == []


def _commutant_maps(alg, seed):
    """The non-square real map whose SVD ``commutant_rows`` takes, as it passes it."""
    maps = []

    def svd(mat, *args, **kwargs):
        maps.append(mat)
        return _linalg.svd(mat, *args, **kwargs)

    a, b = _fresh(alg, seed), _fresh(alg, seed + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", svd)
        alg._backend.commutant_rows(alg, [a, b])
    return maps


def _square_inputs(short):
    """A single and a stacked matrix of ``short``: float64, complex128, or the complex 6 x 6
    embedding of ``quat:3``."""
    alg = sp.parse_algebra(short)
    return [_fresh(alg, 11).data, _random_effects(alg, _rngs(12)).data]


def _arrays(result) -> list:
    """The arrays of a solver's result: eigvalsh gives one, eigh and svd a tuple."""
    return [result] if isinstance(result, np.ndarray) else list(result)


def _assert_same_bits(got, want):
    got, want = _arrays(got), _arrays(want)
    assert [(type(x), x.dtype, x.shape) for x in got] == [(np.ndarray, x.dtype, x.shape)
                                                          for x in want]
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("short", MATRIX_KINDS)
@pytest.mark.parametrize("name, kwargs", [("eigh", {}), ("eigvalsh", {}), ("svd", {}),
                                          ("svd", {"full_matrices": False})])
def test_the_gateway_gives_np_linalgs_bits(name, kwargs, short, which):
    mat, state = _square_inputs(short)[which], np.geterr()
    if name == "svd":  # a general square matrix, as a polar draw's stack holds
        mat = mat + np.triu(mat, 1)
    _assert_same_bits(_lapack(name, mat, **kwargs), getattr(np.linalg, name)(mat, **kwargs))
    assert np.geterr() == state  # the solve's floating-point state ends with it


@pytest.mark.parametrize("short", MATRIX_KINDS)
@pytest.mark.parametrize("full_matrices", [True, False])
def test_the_gateway_gives_np_linalgs_bits_on_non_square_maps(short, full_matrices):
    (maps,) = _commutant_maps(sp.parse_algebra(short), 21)
    assert maps.shape[0] != maps.shape[1] and not maps.flags.c_contiguous
    stack = maps + 1j * np.random.default_rng(22).standard_normal((3,) + maps.shape)
    for mat in (maps, stack):
        _assert_same_bits(_lapack("svd", mat, full_matrices=full_matrices),
                          np.linalg.svd(mat, full_matrices=full_matrices))


@pytest.mark.parametrize("dtype", [float, complex])
def test_signed_zeros_keep_their_bits(dtype):
    mat = np.diag([-0.0, 0.0, 1.0]).astype(dtype)
    for name in SOLVERS:
        _assert_same_bits(_lapack(name, mat), getattr(np.linalg, name)(mat))


def _non_converging(gufunc):
    """``gufunc`` as a LAPACK non-convergence leaves it: the invalid flag raised, NaN results."""
    def solve(mat, signature):
        out = _arrays(gufunc(mat, signature=signature))
        np.sqrt(np.array([-1.0]))
        return tuple(x * np.nan for x in out) if len(out) > 1 else out[0] * np.nan
    return solve


def _fail_solves(monkeypatch, key):
    gufunc, signatures, fail = _backends._GUFUNCS[key]
    monkeypatch.setitem(_backends._GUFUNCS, key, (_non_converging(gufunc), signatures, fail))


@pytest.mark.parametrize("short", MATRIX_KINDS)
def test_a_non_convergence_raises_and_keeps_nothing(short, monkeypatch):
    _fail_solves(monkeypatch, (np.linalg.eigh,))
    a, state = _fresh(sp.parse_algebra(short), 31), np.geterr()
    with pytest.raises(NumericalFailureError, match="^eigh failed: Eigenvalues did not converge$"):
        _eigen(a)
    assert "_eigen" not in a.__dict__
    assert np.geterr() == state


@pytest.mark.parametrize("name, kwargs, message", [
    ("eigvalsh", {}, "Eigenvalues did not converge"),
    ("svd", {}, "SVD did not converge"),
    ("svd", {"full_matrices": False}, "SVD did not converge"),
])
def test_each_solver_names_itself_when_it_fails(name, kwargs, message, monkeypatch):
    _fail_solves(monkeypatch, (getattr(np.linalg, name), *kwargs.items()))
    with pytest.raises(NumericalFailureError, match=f"^{name} failed: {message}$"):
        _lapack(name, np.eye(3), **kwargs)


@pytest.mark.parametrize("short", MATRIX_KINDS)
def test_a_solver_installed_on_np_linalg_sees_every_call(short, monkeypatch):
    calls = []

    def recorded(name):
        solver = getattr(np.linalg, name)

        def substitute(mat, *args, **kwargs):
            calls.append((name, mat, args, kwargs))
            return solver(mat, *args, **kwargs)
        return substitute

    alg = sp.parse_algebra(short)
    a, b = _fresh(alg, 41), _fresh(alg, 42)
    for name in SOLVERS:
        monkeypatch.setattr(np.linalg, name, recorded(name))
    _kernel_solves(alg, a, b, 41)
    assert [(name, args, kwargs) for name, _, args, kwargs in calls] == [
        ("eigh", (), {}), ("eigvalsh", (), {}), ("svd", (), {}),
        ("svd", (), {"full_matrices": False})]
    assert calls[0][1] is a.data and calls[1][1] is b.data
    assert calls[2][1].shape[0] == K and calls[3][1].ndim == 2


def test_racing_threads_solve_as_one():
    # each call enters its own floating-point state, so threads may share the gateway
    mats = [m for short in MATRIX_KINDS for m in _square_inputs(short)]

    def solve(_):
        return [[x.tobytes() for x in _lapack("eigh", m)] for m in mats for _ in range(10)]

    with ThreadPoolExecutor(4) as pool:
        runs = list(pool.map(solve, range(8)))
    assert runs == [solve(None)] * 8
