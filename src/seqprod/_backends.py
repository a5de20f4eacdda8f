"""Kind-specific code: one backend per kind of Euclidean Jordan algebra.

Every Euclidean Jordan algebra is a direct sum of simple factors: real,
complex or quaternionic Hermitian matrices, or spin factors.  A descriptor
resolves its backend here once, at construction, and the rest of the
package reaches element storage only through the backend primitives:

* ``_MatrixBackend`` (real, complex and quaternionic) stores a Hermitian
  matrix; the quaternionic n x n case is its complex 2n x 2n embedding X
  with J conj(X) J^-1 = X, J = [[0, I], [-I, 0]];
* ``_SpinBackend`` stores a pair (v, t) with v in R^d and t in R;
* ``_SumBackend`` stores a tuple of summand elements.  Most of its
  primitives are one line, ``_lifted(primitive, operands, join)``: summand
  k's primitive on block k of each operand (:func:`_blockwise`), the results
  joined in block order as the element of the blocks, the block diagonal,
  the sum, the span (min lo, max hi) or the element-wise largest.

Solves and caches.  Every LAPACK call goes through :func:`_lapack`, so a NaN or infinite
entry and a solver failure raise NumericalFailureError one way.  It calls numpy's LAPACK gufunc
for eigh, eigvalsh and svd directly, as np.linalg would, without numpy's Python wrapper, unless
a substitute is installed on ``np.linalg`` (a tracer or a test's counter).  A matrix element
keeps its eigenvalue-only solve (:func:`_spectrum`, read by ``eigen_range``) and its full solve
(:func:`_eigen`, read by everything else) on the instance, its only solves; a spin element
keeps |v| (:func:`_spin_radius`), and ``products`` a product root per twist.  A norm compared
with a threshold (1 in a residual's max(1, .)) is solved where :func:`_norm_bounds` leave it
open.  f(a) is one product per matrix block on the cached eigen-data, a closed form on spins.

Results that meet the representation invariants by construction (real
linear combinations of elements, scalars, spin arithmetic, direct sums
assembled from summand results) are wrapped by :func:`_trusted` without
``normalise``; products of matrices are not exactly Hermitian in floating
point and are symmetrised as the public constructor does (``_element``).

The operator primitives (``jordan_operator``, ``quadratic_operator`` and ``iso_operator``)
return the coordinate matrix of a linear map in one shot, one per trial for a stack: spin
factors write the matrix down, direct sums put the summand matrices on the diagonal, and
matrix kinds project the images of the basis with one real product against the cached
conjugated basis (:func:`_operator`).  A basis element E_k has at most one nonzero entry per
row and column, so a product with it is exact, and one product per trial gives every E_k at
once: [E_1; ...; E_d] a for T_a, and m [E_1 | ... | E_d] for Q_m.  For Hermitian E_i,
Re tr(E_i P^H) = Re tr(E_i P), so E_k a alone has the coordinates of (E_k a + a E_k) / 2,
column k of T_a.  Q_m is the one sandwich: on matrix kinds ``quadratic`` and
``quadratic_operator`` take x -> m x m^H, which is Q_m for Hermitian m and serves as well an
m that is not self-adjoint: a product root or phase from ``functional``, or ``iso_operator``'s
unitary.  Spin factors take Q_m(x) in closed form and keep the Jordan form 2 T_m^2 - T_{m^2} for
the operator; direct sums lift both.

A *stacked* element, built only by ``stack``, ``random_elements`` (F samples per
Generator, the only Gaussian draw: one ``standard_normal`` call per Generator, which the
ziggurat sampler, keeping no state between calls, fills with the numbers of F successive
calls), ``random_projections`` (one projection per Generator, the only sharp draw) and
``scale`` by one scalar per trial, holds k trials on a leading axis: (k, m, m) matrices,
spin pairs (v (k, d), t (k,)), or a tuple of stacked summands.  The primitives the
stacked laws reach take it, unstacked operands broadcasting, and give per-trial results
(operators as (k, d, d) stacks of coordinate matrices).  ``stack`` concatenates stacks
along the trial axis, a single element counting as a stack of one, and ``take`` pulls a
trial out, or gathers trials by an index array: a generator places its trials with one
of each.  The frame primitive ``spectral_pairs`` gives (values, idempotents, counts):
each trial's cluster values in decreasing order, its idempotents (an Element per place,
a zero idempotent where the trial's frame is shorter), and its frame's length.  On matrix
kinds ``_MatrixBackend._projections`` forms every V_c V_c^H, of one element's frame, a stack's,
a joint frame or a sharp draw: the rows that audit stacked frames audit what single calls run.

Primitives whose result is an element return an Element.  Element and the
generic operations are read from the ``algebra`` module at call time,
because that module imports this one.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache, reduce
from itertools import accumulate, chain
from operator import add, itemgetter

import numpy as np
from numpy.linalg import _linalg, _umath_linalg

from . import algebra as _alg
from .errors import (
    CapabilityError,
    ConfigError,
    DescriptorMismatchError,
    NumericalFailureError,
)

KIND_REAL = "real_symmetric"
KIND_COMPLEX = "complex_hermitian"
KIND_QUAT = "quaternionic_hermitian"
KIND_SPIN = "spin_factor"
KIND_SUM = "direct_sum"

#: order isomorphism kind -> (LinearMap label, message when unavailable)
_ORDER_ISOS = {
    "unitary_conjugation": ("Ad_u", "unitary_conjugation is not available on {}"),
    "transpose": ("transpose", "transpose is only available on complex algebras, not {}"),
    "spin_rotation": ("spin_rotation", "spin_rotation is only available on spin factors, not {}"),
}


def _config_int(value) -> int:
    """An integer, or a float with no fractional part, as int (ValueError for anything else).

    Booleans and strings are refused, although ``int`` would take them.
    """
    integral = isinstance(value, float) and value.is_integer()
    if not integral and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _numbers(data, dtype, shape: tuple, what: str, *args) -> np.ndarray:
    """``data`` as an array of ``dtype`` (float or complex) and ``shape``.  ConfigError, naming
    ``what.format(*args)`` (formatted only on failure), for ragged data, entries that are not
    numbers (booleans, objects, None or strings among them), a nonzero imaginary part where
    ``dtype`` is float, or another shape.  numpy reads a boolean among numbers as a number, so
    the entries of nested lists are looked at one by one; an ndarray's dtype settles it."""
    try:
        arr = np.asarray(data)
    except ValueError as exc:  # ragged
        raise ConfigError(f"{what.format(*args)} needs numeric data: {exc}") from None
    kind = arr.dtype.kind
    if kind not in "iufc" or kind == "c" and dtype is float and arr.imag.any():
        raise ConfigError(f"{what.format(*args)} needs {dtype.__name__} data, got {arr.dtype}")
    if arr.ndim and not isinstance(data, np.ndarray):
        entries = data
        for _ in range(arr.ndim - 1):
            entries = chain.from_iterable(entries)
        if not {bool, np.bool_}.isdisjoint(map(type, entries)):
            raise ConfigError(f"{what.format(*args)} needs {dtype.__name__} data, got a boolean")
    if arr.shape != shape:
        raise ConfigError(f"{what.format(*args)} needs shape {shape}, got {arr.shape}")
    return np.asarray(arr.real if kind == "c" and dtype is float else arr, dtype=dtype)


def _blockwise(primitive, operands, *args):
    """Backend ``primitive`` on each summand block of direct-sum ``operands``.

    Block k of every operand, followed by ``args``, goes to the primitive of
    summand k; the results come back as a tuple in summand order.
    """
    parts = []  # a loop: a generator and its join cost a lifted call about 1 us
    for blocks in zip(*[x.data for x in operands]):
        parts.append(getattr(blocks[0].algebra._backend, primitive)(*blocks, *args))
    return tuple(parts)


def _lifted(primitive, operands, join=None):
    """The direct-sum method of ``primitive`` whose first ``operands`` arguments are elements:
    :func:`_blockwise` on them and the other arguments, the results joined by ``join``, or
    without one held as the element of the blocks, trusted as they are."""
    def method(self, *args):
        parts = _blockwise(primitive, args[:operands], *args[operands:])
        return _trusted(args[0].algebra, parts) if join is None else join(parts)
    return method


def _span(ranges):
    """(min lo, max hi) of the blocks' (lo, hi), each reduced in block order; for one element
    (float ends) by the builtins over the blocks reversed, which keep the last of tied values
    as the ufuncs do, and so the sign of a zero end."""
    los, his = zip(*ranges)
    if isinstance(los[0], float):  # every block of one element gives floats
        return min(reversed(los)), max(reversed(his))
    return reduce(np.minimum, los), reduce(np.maximum, his)


def _largest(parts):
    """The element-wise largest of the blocks' results, reduced in block order; of each side
    for pairs."""
    if isinstance(parts[0], tuple):
        return tuple(map(_largest, zip(*parts)))
    return reduce(np.maximum, parts)


def _block_diag(mats) -> np.ndarray:
    """The block-diagonal matrix with the square ``mats`` (or stacks of k) on its diagonal."""
    n = sum(m.shape[-1] for m in mats)
    out = np.zeros(mats[0].shape[:-2] + (n, n))
    k = 0
    for m in mats:
        out[..., k:k + m.shape[-1], k:k + m.shape[-1]] = m
        k += m.shape[-1]
    return out


def _rows(mats: np.ndarray) -> np.ndarray:
    """Each matrix of ``mats`` (..., m, m) flattened to a row."""
    return mats.reshape(mats.shape[:-2] + (-1,))


def _frobenius(mats: np.ndarray):
    """The Frobenius norm of each matrix of ``mats`` (..., m, m), its real and imaginary parts
    summed apart as ``np.linalg.norm`` sums one matrix."""
    flat = _rows(mats)
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _trusted(alg, data):
    """Element of ``alg`` holding ``data`` as it is, without ``normalise``.

    Only for data that already meets the representation invariants and is
    read-only: the public ``Element(alg, data)`` normalises every input.  The m of a sandwich
    x -> m x m^H may hold any matrix: only ``quadratic`` and ``quadratic_operator`` read it.
    """
    x = _alg.Element.__new__(_alg.Element)
    x.__dict__.update(algebra=alg, data=data)
    return x


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


#: a norm bound settles a comparison of the norm with a threshold t, unsolved, only when it
#: clears t by this relative margin; the errors of the eigensolver and the SVD are about 1e-14
BOUND_MARGIN = 1e-6
#: a polar sample whose smallest squared singular value is at most this, relative to its largest
#: (and to 1), is degenerate
POLAR_DEGENERACY = 1e-10
#: singular values of the stacked commutator maps at most this, relative to the largest (and to
#: 1), span the commutant
COMMUTANT_TOL = 1e-8

#: numpy's own eigh, eigvalsh and svd, captured at import, keyed by each call form of
#: :func:`_lapack` (solver, *args, *kwargs.items()) that runs one LAPACK gufunc: the gufunc
#: np.linalg calls, its float64 and complex128 signatures, and np.linalg's errstate callback,
#: which raises LinAlgError with numpy's message on a non-convergence
_GUFUNCS = {
    (np.linalg.eigh,): (_umath_linalg.eigh_lo, ("d->dd", "D->dD"),
                        _linalg._raise_linalgerror_eigenvalues_nonconvergence),
    (np.linalg.eigvalsh,): (_umath_linalg.eigvalsh_lo, ("d->d", "D->d"),
                            _linalg._raise_linalgerror_eigenvalues_nonconvergence),
    (np.linalg.svd,): (_umath_linalg.svd_f, ("d->ddd", "D->DdD"),
                       _linalg._raise_linalgerror_svd_nonconvergence),
    (np.linalg.svd, ("full_matrices", False)): (_umath_linalg.svd_s, ("d->ddd", "D->DdD"),
                                                _linalg._raise_linalgerror_svd_nonconvergence),
}


def _lapack(name: str, mat: np.ndarray, *args, **kwargs):
    """``np.linalg``'s ``name`` on ``mat``, stacked (k, m, m) or not: the one way to LAPACK.

    A NaN or infinite entry raises NumericalFailureError before the solver runs: LAPACK can
    return finite eigenvalues for such a matrix, or a NaN norm or inverse.  While ``np.linalg``
    holds numpy's own eigh, eigvalsh or svd, the call skips that function's Python wrapper and
    runs the LAPACK gufunc it would run (:data:`_GUFUNCS`), on the same float64 or complex128
    data, under the same floating-point state: the same bits, and a LAPACK non-convergence,
    raised as an invalid flag, calls numpy's callback.  The ``np.errstate`` is fresh per call:
    numpy refuses to enter one instance twice, and threads may race here.  ``inv``, the 2-norm
    and any other solver installed on ``np.linalg`` are called as they are, looked up at call
    time: that is how a tracer records its spans and a test counts or fails solves.  A
    LinAlgError becomes NumericalFailureError.
    """
    if not np.isfinite(mat).all():
        raise NumericalFailureError(f"{name} needs a matrix with finite entries")
    solver = getattr(np.linalg, name)
    call = _GUFUNCS.get((solver, *args, *kwargs.items()))
    try:
        if call is None:
            return solver(mat, *args, **kwargs)
        gufunc, signatures, fail = call
        with np.errstate(call=fail, invalid="call", over="ignore", divide="ignore",
                         under="ignore"):
            return gufunc(mat, signature=signatures[mat.dtype.kind == "c"])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"{name} failed: {exc}") from exc


def _norm_bounds(mats: np.ndarray, hermitian: bool = True):
    """(lower, upper) bounds on the 2-norm of each matrix of ``mats`` (..., m, m).

    With F the Frobenius norm, F / sqrt(m) <= ||A||_2 <= F; the 2-norm of a Hermitian A is its
    spectral radius, which is also at most its largest absolute row sum.  A NaN or infinite
    entry gives a NaN or infinite bound, which settles nothing: its solve raises
    NumericalFailureError.  The squares are summed unscaled, so F holds as an
    upper bound for entries above about 1e-154, whose squares do not underflow; the thresholds
    compared with it (1, COMMUTE_TOL, 0.05 and a caller's tol) are far above that.
    """
    mag = np.abs(mats)
    flat = _rows(mag)
    frob = np.sqrt(np.vecdot(flat, flat))
    upper = np.minimum(frob, mag.sum(-1).max(-1)) if hermitian else frob
    return frob / math.sqrt(mats.shape[-1]), upper


def _eigen(a) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) of the matrix element ``a``, solved once and kept on the instance: the data is
    immutable, so the entry never goes stale, two threads racing on a fresh element write the
    same result, and a failed solve keeps nothing."""
    eig = a.__dict__.get("_eigen")
    if eig is None:
        w, vecs = _lapack("eigh", a.data)
        eig = a.__dict__["_eigen"] = (_read_only(w), _read_only(vecs))
    return eig


def _spectrum(a) -> np.ndarray:
    """The ascending eigenvalues of the matrix element ``a`` from an eigenvalue-only solve, kept
    on the instance as :func:`_eigen` keeps its solve.  Neither reads the other, so each gives
    the same bits whatever was solved first; the two may differ in the last bits."""
    w = a.__dict__.get("_spectrum")
    if w is None:
        w = a.__dict__["_spectrum"] = _read_only(_lapack("eigvalsh", a.data))
    return w


def _clusters(w: np.ndarray, gap: float):
    """(sizes, values) of the clusters of ascending eigenvalues in each row of ``w``.

    A cluster chains neighbours at most ``gap`` apart; the clusters of all
    rows come in order, their sizes as a list.  A cluster's value is its
    only eigenvalue, or its mean, summed in order as ``np.mean`` sums fewer
    than 8 values.  One element (1-D ``w``) takes the same differences and
    sums in Python floats, at half the cost of a stack's array operations.
    """
    if w.ndim == 1:
        lams = w.tolist()
        sizes, sums = [1], lams[:1]
        for prev, x in zip(lams, lams[1:]):
            if x - prev <= gap:  # summed from 0.0, as bincount sums; a lone -0.0 is kept
                sums[-1] = (sums[-1] if sizes[-1] > 1 else 0.0 + sums[-1]) + x
                sizes[-1] += 1
            else:
                sizes.append(1)
                sums.append(x)
        if len(sizes) == len(lams):  # every eigenvalue is a cluster of its own
            return sizes, w.ravel()
        return sizes, np.array([x / n for n, x in zip(sizes, sums)])
    flat = w.ravel()
    joined = w[..., 1:] - w[..., :-1] <= gap
    if not np.count_nonzero(joined):
        return [1] * flat.size, flat
    new = np.ones(w.shape, dtype=bool)
    new[..., 1:] = ~joined
    new = new.ravel()
    labels = new.cumsum() - 1
    sizes = np.bincount(labels)
    values = np.bincount(labels, weights=flat) / sizes
    np.copyto(values, flat[new], where=sizes == 1)  # keeps a lone -0.0
    return sizes.tolist(), values


def _ends(w: np.ndarray):
    """The first and last of ascending eigenvalues ``w``: floats for one element."""
    if w.ndim == 1:
        return w.item(0), w.item(-1)
    return w[..., 0], w[..., -1]


def _matrix_function(a, f, gap: float) -> np.ndarray:
    """V f(w) V^H for the matrix element a = V diag(w) V^H, stacked or not, read-only.

    f maps an array of points to an array of real or complex values of its
    shape.  It is called once, on the array of w's shape transposed: each
    eigenvalue is replaced by the value of its cluster (eigenvalues chained
    by gaps <= ``gap``), and the trials of a stack come last, as on spin
    factors, so per-trial coefficients of f broadcast against them.  Real values
    give exactly Hermitian (J-symmetric) element data; complex ones are kept as computed.
    """
    w, vecs = _eigen(a)
    sizes, values = _clusters(w, gap)
    if len(sizes) < w.size:
        values = np.repeat(values, sizes)
    coef = f(values) if w.ndim == 1 else f(values.reshape(w.shape).T).T[..., None, :]
    mat = (vecs * coef) @ vecs.conj().swapaxes(-1, -2)
    if coef.dtype.kind == "c":
        return _read_only(mat)
    return a.algebra._backend._hermitian(a.algebra, mat)


def _standard_normals(rngs, *shape: int) -> np.ndarray:
    """(k, *shape) standard normals, slot i drawn by Generator i with one call."""
    out = np.empty((len(rngs),) + shape)
    for rng, row in zip(rngs, out):
        rng.standard_normal(out=row)
    return out


def _random_structured_unitaries(alg, rngs) -> np.ndarray:
    """One orthogonal, unitary or symplectic matrix of a matrix-kind algebra per Generator: the
    polar factor U W^H of a Gaussian sample g = U S W^H it draws, drawn again while degenerate
    (8 draws at most), from one SVD of the stack.  This factor is backward stable however
    ill-conditioned g is, and keeps g's real or symplectic structure, so it needs no polishing."""
    backend = alg._backend
    out = np.empty((len(rngs),) + (backend.matrix_order(alg),) * 2, backend.dtype)
    todo, shape = np.arange(len(rngs)), (backend.field_dim, alg.size, alg.size)
    for _ in range(8):  # resample the rare near-singular draw
        g = backend.gaussian(_standard_normals([rngs[j] for j in todo], *shape))
        left, s, right = _lapack("svd", g)
        ok = ~(s[:, -1] ** 2 <= POLAR_DEGENERACY * np.maximum(1.0, s[:, 0] ** 2))
        out[todo[ok]] = left[ok] @ right[ok]
        todo = todo[~ok]
        if not len(todo):
            return out
    raise NumericalFailureError(f"could not orthonormalize a random sample on {alg}")


@lru_cache(maxsize=None)
def _coordinate_basis(alg):
    """The orthonormal coordinate basis of ``alg`` as one stack of elements, a trial per element."""
    return alg._backend.from_coords(alg, np.eye(alg.real_dimension))


class _Backend:
    """Defaults shared by the backends; the simple kinds take a size and no summands."""

    name = ""

    def validate(self, alg):
        if alg.size < 1:
            raise ConfigError(f"{alg.kind} needs size >= 1, got {alg.size}")
        if alg.summands:
            raise ConfigError(f"{alg.kind} takes no summands")

    def shorthand(self, alg) -> str:
        return f"{self.name}:{alg.size}"

    def matrix_order(self, alg) -> int:
        raise CapabilityError(f"{alg.kind} has no matrix representation")

    def is_complex(self, alg) -> bool:
        return False

    def to_json(self, alg) -> dict:
        return {"kind": alg.kind, self.json_key: alg.size}

    def from_json(self, obj: dict, decode):
        return _alg.AlgebraDescriptor(self.kind, _config_int(obj[self.json_key]))

    def quadratic_operator(self, a) -> np.ndarray:
        """Q_a = 2 T_a^2 - T_{a^2} on coordinates."""
        t_a = self.jordan_operator(a)
        return 2.0 * (t_a @ t_a) - self.jordan_operator(self.jordan(a, a))

    def residual_terms(self, x, y):
        """(||x - y||, max(1, ||x||, ||y||)) in the order-unit norm, per trial for a stack; ||x||
        and ||y|| taken, as in ``norm_at_most``, where ``norm_bounds`` exceed 1 - BOUND_MARGIN:
        the bound itself where it is exact (lower == upper: a spin factor's is its norm), else
        solved."""
        diff = _alg.order_unit_norm(x - y)
        scale = np.ones(np.shape(diff))
        for e in (x, y):
            lower, upper = self.norm_bounds(e)
            if np.ndim(upper):
                opened = ~(upper <= 1.0 - BOUND_MARGIN)
                exact = opened & (lower == upper)
                scale[exact] = np.maximum(scale[exact], upper[exact])
                sel = np.flatnonzero(opened & ~exact)
                if len(sel):
                    scale[sel] = np.maximum(scale[sel], _alg.order_unit_norm(self.take(e, sel)))
            elif not upper <= 1.0 - BOUND_MARGIN:
                scale = np.maximum(scale, upper if lower == upper else _alg.order_unit_norm(e))
        return diff, scale

    def norm_bounds(self, x):
        """(lower, upper) bounds on the order-unit norm, per trial: here the norm itself."""
        norm = _alg.order_unit_norm(x)
        return norm, norm

    def random_elements(self, alg, rngs, fields: int = 1):
        """``fields`` F Gaussian samples per Generator of ``rngs`` as one stack of F k, field by
        field (sample f of Generator i at f k + i): each Generator fills its F ``draw_size``
        normals with one call, the numbers of F successive calls, and ``from_normals`` makes
        the samples of the rows (sample by sample, field-major) as one stack."""
        k, size = len(rngs), self.draw_size(alg)
        normals = _standard_normals(rngs, fields, size)
        return self.from_normals(alg, normals.swapaxes(0, 1).reshape(fields * k, size))

    def is_stack(self, x) -> bool:
        """Whether ``x`` holds trials on a leading axis: its first row, or its v, is a matrix."""
        return x.data[0].ndim > 1

    def commutator_norm(self, a, b):
        """The Frobenius norm of ``commutator(a, b)``, per trial for a stack."""
        return _frobenius(self.commutator(a, b))

    def commutant_rows(self, alg, elems) -> np.ndarray:
        """Null space of the stacked maps X -> [X, s], one coordinate row each: the commutators
        [E_k, s] of the coordinate basis, one stack per s, the real then the imaginary parts of
        each flattened per E_k into column k of one real matrix, whose SVD goes through
        :func:`_lapack`."""
        dim, basis = self.real_dimension(alg), _coordinate_basis(alg)
        comm = [self.commutator(basis, s).reshape(dim, -1) for s in elems]
        maps = np.concatenate([part for c in comm for part in (c.real, c.imag)], -1)
        _, svals, vh = _lapack("svd", maps.T, full_matrices=False)
        # the singular values descend, so the rows of those at most the tolerance come last
        return vh[np.count_nonzero(svals > COMMUTANT_TOL * max(1.0, float(svals[0]))):]

    def order_iso(self, alg, kind: str, rngs):
        """(coordinate matrices (k, d, d), label) of unital order isomorphisms of the requested
        kind, one per Generator of ``rngs``."""
        if kind not in _ORDER_ISOS:
            raise CapabilityError(f"unknown order isomorphism kind {kind!r}")
        label, unavailable = _ORDER_ISOS[kind]
        if kind not in self.order_isos(alg):
            raise CapabilityError(unavailable.format(alg))
        return self.iso_operator(alg, kind, rngs), label


# ---------------------------------------------------------------------------
# Real, complex and quaternionic Hermitian matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _j_places(n: int):
    """(n..2n-1 as -n..-1 then 0..n-1, the off-diagonal blocks) of :func:`_j_twin` at order 2n."""
    index = _read_only(np.arange(-n, n))
    return index, _read_only((index < 0) != (index[:, None] < 0))


def _j_twin(s: np.ndarray, n: int) -> np.ndarray:
    """J conj(S) J^H = [[D^T, -B^T], [-C^T, A^T]] of the exactly Hermitian S = [[A, B], [C, D]]
    (stacked or not), as conj(S) = S^T: entry (i, j) is S[index[j], index[i]], negated off the
    diagonal blocks."""
    index, off = _j_places(n)
    twin = s[..., index, index[:, None]]
    return np.negative(twin, out=twin, where=off)


def _quat_embed(a_part: np.ndarray, b_part: np.ndarray) -> np.ndarray:
    """Embed the quaternion matrix A + Bj as [[A, B], [-conj(B), conj(A)]], stacked or not."""
    top = np.concatenate([a_part, b_part], axis=-1)
    bot = np.concatenate([-b_part.conj(), a_part.conj()], axis=-1)
    return np.concatenate([top, bot], axis=-2)


@lru_cache(maxsize=None)
def _matrix_basis(alg) -> np.ndarray:
    """Stacked orthonormal basis (dim, m, m) for a matrix-kind algebra.

    The diagonal units, then for each i < j one element per unit alpha + beta j
    of the field among 1, i, j, k; quaternionic elements are stored embedded.
    """
    backend, n = alg._backend, alg.size
    units = [(1, 0), (1j, 0), (0, 1), (0, 1j)][:backend.field_dim]  # 1, i, j, k
    places = [(i, i, units[:1]) for i in range(n)]
    places += [(i, j, units) for i in range(n) for j in range(i + 1, n)]
    mats = []
    for i, j, field_units in places:
        for alpha, beta in field_units:
            a_part, b_part = np.zeros((2, n, n), backend.dtype)
            a_part[i, j], a_part[j, i] = alpha, np.conj(alpha)
            b_part[i, j], b_part[j, i] = beta, -beta  # quaternion conjugate transposes to -beta
            e = _quat_embed(a_part, b_part) if backend.unit == 2 else a_part
            mats.append(e if i == j else e / np.sqrt(2.0))
    basis = np.stack(mats)
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=None)
def _dual_basis(alg) -> np.ndarray:
    """(dim, m^2) matrix D with coordinates Re(D vec(x)) for a matrix-kind algebra.

    Row k is basis element k conjugated and flattened, halved on quaternions,
    whose trace inner product is half the embedded one.
    """
    basis = _matrix_basis(alg)
    weight = 0.5 if alg.kind == KIND_QUAT else 1.0
    dual = weight * basis.reshape(len(basis), -1).conj()
    dual.setflags(write=False)
    return dual


@lru_cache(maxsize=None)
def _basis_columns(alg) -> np.ndarray:
    """The basis side by side, [E_1 | ... | E_d], as one (m, dim m) matrix."""
    basis = _matrix_basis(alg)
    cols = np.ascontiguousarray(basis.transpose(1, 0, 2).reshape(basis.shape[1], -1))
    cols.setflags(write=False)
    return cols


@lru_cache(maxsize=None)
def _real_dual_basis(alg) -> np.ndarray:
    """(dim, 2 m^2) real matrix R, ``_dual_basis`` D as [Re D, -Im D] interleaved entry by
    entry, so that R times x viewed as (real, imaginary) pairs is Re(D vec(x))."""
    dual = _dual_basis(alg)
    real = np.stack([dual.real, -dual.imag], axis=-1).reshape(len(dual), -1)
    real.setflags(write=False)
    return real


def _operator(alg, images: np.ndarray) -> np.ndarray:
    """Coordinate matrix whose column k holds the coordinates of ``images[..., k, :, :]``, the
    map's values on the basis: (dim, m, m), or (k, dim, m, m) for k trials' maps.

    One real product per trial: complex images are read as (real, imaginary) pairs against
    :func:`_real_dual_basis`, so no complex result is formed to drop its imaginary half; the
    view needs them contiguous, so ``iso_operator``'s transposed basis is copied first.  Real
    images meet the real dual basis as they are."""
    dual = _dual_basis(alg)
    if np.iscomplexobj(images):
        dual, images = _real_dual_basis(alg), np.ascontiguousarray(images).view(float)
    return dual @ _rows(images).swapaxes(-1, -2)


def _basis_products(alg, mat: np.ndarray) -> np.ndarray:
    """E_k mat for every basis element E_k, (..., dim, m, m), from one product per trial."""
    basis = _matrix_basis(alg)
    dim, m = basis.shape[:2]
    return (basis.reshape(dim * m, m) @ mat).reshape(mat.shape[:-2] + basis.shape)


class _MatrixBackend(_Backend):
    """n x n Hermitian matrices over R, C or H (of real dimension ``field_dim`` 1, 2, 4).

    ``unit`` is the order of the stored block per matrix entry: 2 for the
    quaternionic embedding, whose eigenvalues come in Kramers pairs, else 1.
    """

    json_key = "n"

    def __init__(self, kind, name, dtype, field_dim, unit):
        self.kind, self.name, self.dtype = kind, name, dtype
        self.field_dim, self.unit = field_dim, unit

    def real_dimension(self, alg) -> int:
        n = alg.size
        return n + self.field_dim * (n * (n - 1) // 2)

    def matrix_order(self, alg) -> int:
        return self.unit * alg.size

    def is_complex(self, alg) -> bool:
        return self.kind == KIND_COMPLEX

    def normalise(self, alg, data):
        m = self.matrix_order(alg)
        return self._hermitian(alg, _numbers(data, self.dtype, (m, m), "an element of {}", alg))

    def _hermitian(self, alg, mat: np.ndarray) -> np.ndarray:
        """``mat`` (stacked or not) symmetrised, J-projected on quaternions, read-only: S / 2, or
        (S + J conj(S) J^H) / 4, for the exactly Hermitian S = X + X^H; the latter is
        0.5 (Y + J conj(Y) J^H) for Y = S / 2 to the bit.  S is summed and scaled in place."""
        s = mat + mat.conj().swapaxes(-1, -2)
        if self.kind == KIND_QUAT:
            s += _j_twin(s, alg.size)
        s *= 0.25 if self.kind == KIND_QUAT else 0.5
        return _read_only(s)

    def _element(self, alg, mat: np.ndarray):
        """Element of a matrix product, which is Hermitian only up to round-off."""
        return _trusted(alg, self._hermitian(alg, mat))

    def stack(self, alg, elems):
        m = self.matrix_order(alg)
        return _trusted(alg, _read_only(np.concatenate([x.data.reshape(-1, m, m) for x in elems])))

    def take(self, x, i):
        return _trusted(x.algebra, _read_only(x.data[i]))  # an index array gathers a copy

    # a sum, difference or real multiple of exactly Hermitian (and J-symmetric) data is exactly
    # so again
    def combine(self, a, b, op):
        return _trusted(a.algebra, _read_only(op(a.data, b.data)))

    def scale(self, a, s):
        return _trusted(a.algebra, _read_only(np.asarray(s)[..., None, None] * a.data))

    def scalar(self, alg, c: float):
        return _trusted(alg, _read_only(c * np.eye(self.matrix_order(alg), dtype=self.dtype)))

    def jordan(self, a, b):
        return self._element(a.algebra, 0.5 * (a.data @ b.data + b.data @ a.data))

    def quadratic(self, m, x):
        # the sandwich m x m^H: Q_m for Hermitian m (equal to the Jordan formula exactly), a
        # product's map for its root m
        return self._element(x.algebra, m.data @ x.data @ m.data.conj().swapaxes(-1, -2))

    def inner(self, a, b) -> float:
        # vecdot conjugates its first argument; tr(ab) = Re <a, b>_HS for Hermitian a, b
        val = np.vecdot(_rows(a.data), _rows(b.data)).real
        return 0.5 * val if self.kind == KIND_QUAT else val

    def eigen_range(self, a):
        return _ends(_spectrum(a))

    def frame_range(self, a):
        return _ends(_eigen(a)[0])

    def norm_bounds(self, x):
        return _norm_bounds(x.data)

    def _projections(self, alg, vecs: np.ndarray, widths: list) -> np.ndarray:
        """The projections V_c V_c^H onto the consecutive column blocks V_c of ``widths`` of one
        matrix ``vecs`` (m, c), or of a stack (k, m, c) whose blocks run on from trial to trial,
        as one read-only stack: one product per width, the blocks a reshape of ``vecs`` when the
        widths are equal and one gather per width otherwise, never a product over padded columns
        (a zero column changes its rounding), one ``_hermitian``."""
        m, c = vecs.shape[-2:]
        if len(set(widths)) == 1:
            n = widths[0]
            cols = vecs.reshape(vecs.shape[:-1] + (-1, n)).swapaxes(-3, -2).reshape(-1, m, n)
            mats = cols @ cols.conj().swapaxes(-1, -2)
        else:
            widths = np.array(widths)
            starts, mats = np.cumsum(widths) - widths, np.empty((len(widths), m, m), vecs.dtype)
            rows = (starts // c * m)[:, None, None] + np.arange(m)[:, None]  # of its trial
            for n in set(widths.tolist()):
                sel = np.flatnonzero(widths == n)
                cols = vecs.reshape(-1, c)[rows[sel], starts[sel, None, None] % c + np.arange(n)]
                mats[sel] = cols @ cols.conj().swapaxes(-1, -2)
        return self._hermitian(alg, mats)

    def spectral_pairs(self, a, gap: float):
        alg = a.algebra
        w, vecs = _eigen(a)
        sizes, values = _clusters(w, gap)
        mats = self._projections(alg, vecs, sizes)
        if w.ndim == 1:  # one element: as a stack of one taken apart, 2.5-3.5x the time
            return values[::-1], [_trusted(alg, p) for p in mats[::-1]], np.asarray(len(mats))
        k, m = w.shape
        trial = (np.cumsum(sizes) - sizes) // m
        counts = np.bincount(trial, minlength=k)
        slot = (np.cumsum(counts) - 1)[trial] - np.arange(len(sizes))  # decreasing order
        out = np.zeros((k, counts.max()))
        out[trial, slot] = values
        frame = np.zeros((counts.max(), k, m, m), vecs.dtype)  # zero past a trial's frame
        frame[slot, trial] = mats
        return out, [_trusted(alg, p) for p in _read_only(frame)], counts

    def functional(self, a, f, gap: float):
        return _trusted(a.algebra, _matrix_function(a, f, gap))

    def jordan_operator(self, a) -> np.ndarray:
        return _operator(a.algebra, _basis_products(a.algebra, a.data))

    def quadratic_operator(self, m) -> np.ndarray:
        """Coordinate matrix of x -> m x m^H, as in ``quadratic``, one per trial for a stack.

        m E_k comes from one product per trial, and (m E_k) m^H is taken block by block, in
        place: as one tall (dim m, m) product it rounds differently on some real orders (32-34).
        """
        alg, m = m.algebra, m.data
        dim, order = _matrix_basis(alg).shape[:2]
        left = (m @ _basis_columns(alg)).reshape(m.shape[:-2] + (order, dim, order))
        images = left.swapaxes(-3, -2) @ m.conj().swapaxes(-1, -2)[..., None, :, :]
        del left  # freed before the projection allocates
        return _operator(alg, images)

    def draw_size(self, alg) -> int:
        return self.field_dim * alg.size ** 2

    def gaussian(self, normals: np.ndarray) -> np.ndarray:
        """Gaussian matrices of the algebra's structure (not yet Hermitian) from ``normals``
        (..., field_dim, n, n): real parts, then imaginary ones, A before B of A + Bj."""
        if self.kind == KIND_REAL:
            return normals[..., 0, :, :]
        parts = normals[..., 0::2, :, :] + 1j * normals[..., 1::2, :, :]
        if self.kind == KIND_COMPLEX:
            return parts[..., 0, :, :]
        return _quat_embed(parts[..., 0, :, :], parts[..., 1, :, :])

    def from_normals(self, alg, normals: np.ndarray):
        n = alg.size
        return self._element(alg, self.gaussian(normals.reshape(-1, self.field_dim, n, n)))

    def random_projections(self, alg, rngs, proper: bool):
        # one product per rank: a product over zero-padded columns rounds differently
        x, n, u = self.random_elements(alg, rngs), alg.size, self.unit
        if n == 1 and proper:  # the identity, drawing no rank
            return self.scale(self.scalar(alg, 1.0), np.ones(len(rngs)))
        out = np.zeros(x.data.shape, self.dtype)
        _, vecs = _eigen(x)
        lo, hi = (1, n - 1) if proper else (0, n)
        ranks = np.array([rng.integers(lo, hi + 1) for rng in rngs])
        perms = np.array([rng.permutation(n) for rng in rngs])  # each after its trial's rank
        for r in set(ranks.tolist()) - {0}:
            sel = np.flatnonzero(ranks == r)
            cols = vecs[sel[:, None, None], np.arange(u * n)[:, None],
                        (u * perms[sel, :r, None] + np.arange(u)).reshape(len(sel), 1, -1)]
            out[sel] = self._projections(alg, cols, [u * r] * len(sel))
        return _trusted(alg, _read_only(out))

    def to_coords(self, x) -> np.ndarray:
        # one matrix-vector product per trial: a single product with the stack
        # as its columns rounds differently on quaternions
        cols = x.data.reshape(x.data.shape[:-2] + (-1, 1))
        return np.real(_dual_basis(x.algebra) @ cols)[..., 0]

    def from_coords(self, alg, coords: np.ndarray):
        basis = _matrix_basis(alg)
        mats = (coords @ _rows(basis)).reshape(coords.shape[:-1] + basis.shape[1:])
        return self._element(alg, mats)

    def to_payload(self, x):
        if self.kind == KIND_REAL:
            return np.asarray(x.data).tolist()
        return {"re": x.data.real.tolist(), "im": x.data.imag.tolist()}

    def from_payload(self, alg, payload, decode):
        if self.kind == KIND_REAL:
            return _alg.Element(alg, payload)
        # each part checked, as re + i im would take booleans as numbers, and then symmetrised
        re, im = (_numbers(payload[part], float, (self.matrix_order(alg),) * 2,
                           "the {} part of an element of {}", part, alg) for part in ("re", "im"))
        return self._element(alg, re + 1j * im)

    def commutator(self, a, b) -> np.ndarray:
        """[a, b] = ab - ba, per trial for a stack.  A stack a against one element b (the
        commutant's maps on the coordinate basis) takes one product: ab with a's matrices
        stacked in rows, and ba = (ab)^H, a and b being Hermitian."""
        x, y = a.data, b.data
        if x.ndim == 2 or y.ndim > 2:
            return x @ y - y @ x
        ab = (x.reshape(-1, y.shape[-1]) @ y).reshape(x.shape)
        return ab - ab.conj().swapaxes(-1, -2)

    def order_isos(self, alg) -> tuple[str, ...]:
        if self.kind == KIND_COMPLEX:
            return ("unitary_conjugation", "transpose")
        return ("unitary_conjugation",)

    def iso_operator(self, alg, kind: str, rngs) -> np.ndarray:
        if kind == "transpose":
            transpose = _operator(alg, _matrix_basis(alg).swapaxes(1, 2))
            return np.broadcast_to(transpose, (len(rngs),) + transpose.shape)
        return self.quadratic_operator(_trusted(alg, _random_structured_unitaries(alg, rngs)))

    def joint_frame(self, alg, elems, gap: float) -> list:
        """The first generator's eigenspaces, column blocks of its cached solve, refined by each
        other generator in turn.  A subspace of dimension ``unit`` is kept as it is: a line, or on
        quaternions one Kramers pair, a quaternionic line, on which every commuting generator
        acts as a real scalar, so a solve of v^H s v could only split rounding noise.  Any other
        subspace v is split by solving v^H s v.  Where none is, the blocks are the columns of the
        first generator's solve, which go to the projections as they are."""
        def blocks(w, vecs):
            sizes = _clusters(w, gap)[0]
            return [vecs[:, e - n:e] for n, e in zip(sizes, accumulate(sizes))]

        w, vecs = _eigen(elems[0])
        subspaces, solved = blocks(w, vecs), False
        for s in elems[1:]:
            refined = []
            for v in subspaces:
                if v.shape[1] == self.unit:
                    refined.append(v)
                    continue
                refined += [v @ c for c in blocks(*_lapack("eigh", v.conj().T @ s.data @ v))]
                solved = True
            subspaces = refined
        mats = self._projections(alg, np.hstack(subspaces) if solved else vecs,
                                 [v.shape[1] for v in subspaces])
        return [_trusted(alg, p) for p in mats]


# ---------------------------------------------------------------------------
# Spin factors
# ---------------------------------------------------------------------------

def _spin_radius(a):
    """(v, t, |v|) of a spin element, stacked or not, with |v| kept on the instance; its
    eigenvalues are t +- |v|.  A NaN or infinite entry raises NumericalFailureError."""
    v, t = a.data
    r = a.__dict__.get("_radius")
    if r is None:
        r = np.sqrt(np.vecdot(v, v))
        if np.count_nonzero(r * 0.0 + t * 0.0):  # 0 x is NaN for x NaN or infinite
            raise NumericalFailureError("eigen-data needs an element with finite entries")
        a.__dict__["_radius"] = r
    return v, t, r


def _spin(alg, v, t):
    """The spin element (v, t) of ``alg``, trusted: v read-only, and t as well where it holds a
    stack's trials; a single element's t is kept as it is, a scalar."""
    return _trusted(alg, (_read_only(v), _read_only(t) if isinstance(t, np.ndarray) else t))


def _col(s) -> np.ndarray:
    """Per-trial scalars ``s`` as a column that scales the rows of a stack of vectors."""
    return np.asarray(s)[..., None]


class _SpinBackend(_Backend):
    """Spin factor R^d (+) R: (v,t)*(w,s) = (sv + tw, <v,w> + ts), tr = 2(<v,w> + ts)."""

    kind = KIND_SPIN
    name = "spin"
    json_key = "d"

    def real_dimension(self, alg) -> int:
        return alg.size + 1

    def normalise(self, alg, data):
        try:
            v, t = data
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"expected a (vector, scalar) pair for {alg}: {exc}") from None
        what = "a (vector, scalar) pair for {}"
        v, t = _numbers(v, float, (alg.size,), what, alg), _numbers(t, float, (), what, alg)
        return (_read_only(v.copy()), float(t))

    def combine(self, a, b, op):
        (v, t), (w, s) = a.data, b.data
        return _spin(a.algebra, op(v, w), op(t, s))

    def scale(self, a, s):
        v, t = a.data
        return _spin(a.algebra, _col(s) * v, s * t)

    def scalar(self, alg, c: float):
        return _spin(alg, np.zeros(alg.size), c)

    def stack(self, alg, elems):
        d = alg.size
        return _spin(alg, np.concatenate([x.data[0].reshape(-1, d) for x in elems]),
                     np.concatenate([np.ravel(x.data[1]) for x in elems]))

    def take(self, x, i):
        v, t = x.data
        t = t[i]
        return _spin(x.algebra, v[i], t if t.ndim else float(t))

    def jordan(self, a, b):
        (v, t), (w, s) = a.data, b.data
        vec = _col(s) * v + _col(t) * w
        return _spin(a.algebra, vec, np.vecdot(v, w) + t * s)

    def quadratic(self, m, x):
        """Q_(v,t)(w,s) = (2(<v,w> + ts) v + (t^2 - |v|^2) w, (t^2 + |v|^2) s + 2t <v,w>): the
        Jordan formula 2m*(m*x) - m^2*x in closed form."""
        (v, t), (w, s) = m.data, x.data
        vw, vv, tt = np.vecdot(v, w), np.vecdot(v, v), t * t
        vec = _col(2.0 * (vw + t * s)) * v + _col(tt - vv) * w
        return _spin(x.algebra, vec, (tt + vv) * s + 2.0 * t * vw)

    def inner(self, a, b) -> float:
        (v, t), (w, s) = a.data, b.data
        return 2.0 * (np.vecdot(v, w) + t * s)

    def jordan_operator(self, a) -> np.ndarray:
        """T_(v,t) = [[t I, v], [v^T, t]]; coordinates are a uniform multiple of (w, s)."""
        v, t = a.data
        out = np.asarray(t)[..., None, None] * np.eye(v.shape[-1] + 1)
        out[..., :-1, -1] = out[..., -1, :-1] = v
        return out

    def eigen_range(self, a):
        _, t, r = _spin_radius(a)
        return t - r, t + r

    frame_range = eigen_range  # closed form: one solve serves both

    def spectral_pairs(self, a, gap: float):
        """t +- r on the idempotents (+-v/2r, 1/2), or t on the identity where 2r <= gap."""
        v, t, r = _spin_radius(a)
        if v.ndim == 1 and 2.0 * r > gap:  # one element, split: 5.5x as a stack of one
            half = 0.5 * (v / r)
            frame = [_spin(a.algebra, vec, 0.5) for vec in (half, -half)]
            return np.array([t + r, t - r]), frame, np.asarray(2)
        split = 2.0 * r > gap
        half = 0.5 * (v / _col(np.where(split, r, 1.0)))
        cut = _col(split)
        plus = (np.where(cut, half, 0.0), np.where(split, 0.5, 1.0))
        minus = (np.where(cut, -half, 0.0), np.where(split, 0.5, 0.0))
        values = np.stack([np.where(split, t + r, t), np.where(split, t - r, 0.0)], -1)
        n = 2 if np.any(split) else 1
        frame = [_spin(a.algebra, vec, s if s.ndim else float(s)) for vec, s in (plus, minus)[:n]]
        return values[..., :n], frame, split + 1

    def functional(self, a, f, gap: float):
        """f(t + r) and f(t - r) on the two idempotents (+-v/2r, 1/2), r = |v|.

        Where 2r <= gap the element is t times the identity and f(t) is taken.
        """
        v, t, r = _spin_radius(a)
        if v.ndim == 1:  # one element: the same arithmetic in floats, 1.4x as fast as below
            r = float(r)
            split = 2.0 * r > gap
            dist = r if split else 0.0
            hi, lo = f(np.array([t + dist, t - dist])).tolist()
            vec = 0.5 * (hi - lo) * (v / r) if split else np.zeros(len(v))
            return _spin(a.algebra, vec, 0.5 * (hi + lo))
        split = 2.0 * r > gap
        dist = r * split
        vals = f(np.array([t + dist, t - dist]))
        hi, lo = vals[0], vals[1]
        # v.T puts the trials of a stack last, where the per-trial scalars broadcast
        vec = np.where(split, 0.5 * (hi - lo) * (v.T / (dist + ~split)), 0.0).T
        return _spin(a.algebra, np.ascontiguousarray(vec), 0.5 * (hi + lo))

    def draw_size(self, alg) -> int:
        return alg.size + 1

    def from_normals(self, alg, normals: np.ndarray):
        # v, then t, of each row
        return _spin(alg, np.ascontiguousarray(normals[:, :-1]), normals[:, -1].copy())

    def random_projections(self, alg, rngs, proper: bool):
        v = _standard_normals(rngs, alg.size)
        units = v / _col(np.sqrt(np.vecdot(v, v)))  # np.linalg.norm(v) of each row, bit for bit
        halves = _col([-0.5 if rng.integers(0, 2) else 0.5 for rng in rngs])  # each after its v
        return _spin(alg, halves * units, np.full(len(rngs), 0.5))

    def to_coords(self, x) -> np.ndarray:
        v, t = x.data
        return np.sqrt(2.0) * np.concatenate([v, np.asarray(t)[..., None]], axis=-1)

    def from_coords(self, alg, coords: np.ndarray):
        scaled = coords / np.sqrt(2.0)
        v, t = np.ascontiguousarray(scaled[..., :-1]), scaled[..., -1]
        return _spin(alg, v, float(t) if t.ndim == 0 else t)

    def to_payload(self, x):
        v, t = x.data
        return {"v": v.tolist(), "t": t}

    def from_payload(self, alg, payload, decode):
        return _alg.Element(alg, (payload["v"], payload["t"]))

    def commutator(self, a, b) -> np.ndarray:
        """v w^T - w v^T for the vector parts v and w, per trial for a stack; its Frobenius norm
        is sqrt(2) |v ^ w|."""
        v, w = a.data[0][..., :, None], b.data[0][..., :, None]
        outer = v * w.swapaxes(-1, -2)  # v w^T, per trial for a stack
        return outer - outer.swapaxes(-1, -2)

    def order_isos(self, alg) -> tuple[str, ...]:
        return ("spin_rotation",)

    def iso_operator(self, alg, kind: str, rngs) -> np.ndarray:
        return _block_diag([_random_structured_unitaries(real_symmetric(alg.size), rngs),
                            np.eye(1)])

    def joint_frame(self, alg, elems, gap: float) -> list:
        """The ``spectral_pairs`` frame of the first generator that ``gap`` splits, which the
        commuting generators share, or the identity: the last generator's unsplit frame."""
        for s in elems:
            frame = self.spectral_pairs(s, gap)[1]
            if len(frame) > 1:
                break
        return frame


# ---------------------------------------------------------------------------
# Direct sums
# ---------------------------------------------------------------------------

class _SumBackend(_Backend):
    """Finite direct sums; elements are tuples of summand elements."""

    kind = KIND_SUM

    def validate(self, alg):
        if not alg.summands:
            raise ConfigError("direct_sum needs at least one summand")
        object.__setattr__(alg, "summands", tuple(alg.summands))

    def real_dimension(self, alg) -> int:
        return sum(s.real_dimension for s in alg.summands)

    def is_complex(self, alg) -> bool:
        return all(s.is_complex_kind() for s in alg.summands)

    def shorthand(self, alg) -> str:
        return "sum(" + ",".join(s.shorthand() for s in alg.summands) + ")"

    def to_json(self, alg) -> dict:
        return {"kind": alg.kind, "summands": [s._backend.to_json(s) for s in alg.summands]}

    def from_json(self, obj: dict, decode):
        return direct_sum(*(decode(s) for s in obj["summands"]))

    def normalise(self, alg, data):
        try:
            blocks = tuple(data)
        except TypeError:
            raise ConfigError(f"direct_sum element needs blocks, got {data!r}") from None
        if len(blocks) != len(alg.summands):
            raise ConfigError("direct_sum element needs one block per summand")
        for blk, sub in zip(blocks, alg.summands):
            if not isinstance(blk, _alg.Element):
                raise ConfigError(f"direct_sum block must be an Element of {sub}")
            if blk.algebra != sub:
                raise DescriptorMismatchError(
                    f"block algebra {blk.algebra} does not match summand {sub}")
        return blocks

    # the blockwise primitives; an element assembled from summand results needs no check
    combine = _lifted("combine", 2)
    scale = _lifted("scale", 1)
    take = _lifted("take", 1)
    jordan = _lifted("jordan", 2)
    quadratic = _lifted("quadratic", 2)  # m x m^H on matrix blocks, the closed form on spin ones
    functional = _lifted("functional", 1)
    jordan_operator = _lifted("jordan_operator", 1, _block_diag)
    quadratic_operator = _lifted("quadratic_operator", 1, _block_diag)
    inner = _lifted("inner", 2, sum)
    eigen_range = _lifted("eigen_range", 1, _span)
    frame_range = _lifted("frame_range", 1, _span)
    residual_terms = _lifted("residual_terms", 2, _largest)
    norm_bounds = _lifted("norm_bounds", 1, _largest)
    to_coords = _lifted("to_coords", 1, lambda parts: np.concatenate(parts, axis=-1))
    to_payload = _lifted("to_payload", 1, list)
    commutator_norm = _lifted("commutator_norm", 2, _largest)  # the largest block's
    is_stack = _lifted("is_stack", 1, any)

    def commutator(self, a, b) -> np.ndarray:
        """The blocks' commutators, each flattened per trial (a nested sum's already is), joined
        in block order."""
        parts = _blockwise("commutator", (a, b))
        return np.concatenate([p if s.summands else _rows(p)
                               for s, p in zip(a.algebra.summands, parts)], -1)

    def scalar(self, alg, c: float):
        return _trusted(alg, tuple(s._backend.scalar(s, c) for s in alg.summands))

    def stack(self, alg, elems):
        return _trusted(alg, tuple(s._backend.stack(s, [x.data[k] for x in elems])
                                   for k, s in enumerate(alg.summands)))

    def spectral_pairs(self, a, gap: float):
        """Blockwise frames merged across blocks: every block's values in one ascending order
        (a tie in block order) are clustered, a cluster takes the trace-weighted mean of its
        values, and in each block its idempotents added to zero in that order.

        A stack merges with whole-stack operations: one stable sort of the values, padded with
        +inf; the sums accumulated from 0.0 in ascending order; each block's idempotents
        gathered by slot, one gather per idempotent a cluster takes from the block.
        """
        alg = a.algebra
        frames = _blockwise("spectral_pairs", (a,), gap)
        if not np.ndim(frames[0][2]):  # one element: 5.5x as a stack of one taken apart
            entries, zeros, combines = [], [_alg.zero(s) for s in alg.summands], []
            for bi, (sub, (values, frame, _)) in enumerate(zip(alg.summands, frames)):
                backend, one = sub._backend, _alg.identity(sub)
                combines.append(backend.combine)
                entries += [(lam, bi, p, backend.inner(p, one))
                            for lam, p in zip(values.tolist(), frame)]
            entries.sort(key=itemgetter(0))
            values, frame, start = [], [], 0
            for size in _clusters(np.array([e[0] for e in entries]), gap)[0]:
                blocks, num, den = zeros.copy(), 0, 0
                for lam, bi, p, tr in entries[start:start + size]:
                    blocks[bi] = combines[bi](blocks[bi], p, add)
                    num, den = num + lam * tr, den + tr
                start += size
                values.append(float(num / den))
                frame.append(_trusted(alg, tuple(blocks)))
            return np.array(values[::-1]), frame[::-1], np.asarray(len(frame))
        k = len(frames[0][2])
        lam = np.concatenate([np.where(np.arange(v.shape[-1]) < c[:, None], v, np.inf)
                              for v, _, c in frames], -1)
        tr = np.stack([_alg.trace(p) for _, frame, _ in frames for p in frame], -1)
        order = np.argsort(lam, -1, kind="stable")
        lam, tr = np.take_along_axis(lam, order, -1), np.take_along_axis(tr, order, -1)
        live = np.arange(lam.shape[-1]) < sum(c for _, _, c in frames)[:, None]
        step = np.subtract(lam[:, 1:], lam[:, :-1], where=live[:, 1:],
                           out=np.full((k, lam.shape[-1] - 1), np.inf))
        new = np.insert(step > gap, 0, True, -1)
        counts = np.count_nonzero(new & live, -1)
        slot = np.where(live, counts[:, None] - np.cumsum(new, -1), -1)  # decreasing order
        at = (np.nonzero(live)[0], slot[live])  # the live entries, in ascending order
        num, den = np.zeros((2, k, counts.max()))
        np.add.at(num, at, lam[live] * tr[live])
        np.add.at(den, at, tr[live])
        np.put_along_axis(slot, order, slot.copy(), -1)  # back in block order
        places = np.split(slot, np.cumsum([len(frame) for _, frame, _ in frames])[:-1], -1)
        blocks = []
        for (_, frame, _), sub, place in zip(frames, alg.summands, places):
            backend, total = sub._backend, _alg.zero(sub)
            # trial i of place p at p k + i, place len(frame) a stack of zeros
            pool = backend.stack(sub, frame + [backend.scale(total, np.zeros(k))])
            # a slot takes a run of the block's places; ascending order takes the last first
            taken = np.count_nonzero(place[..., None] == np.arange(counts.max()), 1)
            last = np.cumsum(taken, -1) - 1
            for r in range(taken.max()):  # place len(frame), the zero, where a slot has no r-th
                src = np.where(r < taken, last - r, len(frame))
                total = total + backend.take(pool, src.T * k + np.arange(k))
            blocks.append(total)
        merged = _trusted(alg, tuple(blocks))
        return (np.divide(num, den, out=np.zeros_like(num), where=den > 0),
                [self.take(merged, j) for j in range(counts.max())], counts)

    def draw_size(self, alg) -> int:
        return sum(s._backend.draw_size(s) for s in alg.summands)

    def from_normals(self, alg, normals: np.ndarray):
        # each row's normals split in summand order, as each Generator draws its blocks
        cuts = np.cumsum([s._backend.draw_size(s) for s in alg.summands])[:-1]
        return _trusted(alg, tuple(s._backend.from_normals(s, part) for s, part
                                   in zip(alg.summands, np.split(normals, cuts, axis=1))))

    def random_projections(self, alg, rngs, proper: bool):
        # block 0 of a trial drawn all 1 becomes 0, and of one drawn all 0 a proper draw:
        # gathered, as multiplying by a 0/1 mask leaves signed zeros
        subs, first, k = alg.summands, alg.summands[0]._backend, len(rngs)
        blocks = [s._backend.random_projections(s, rngs, False) for s in subs]
        if proper:
            ranks = np.rint([_alg.trace(b) for b in blocks])
            full = np.rint([_alg.trace(_alg.identity(s)) for s in subs])[:, None]
            redo = np.flatnonzero(ranks.sum(0) == 0)
            parts, index = [blocks[0], _alg.zero(subs[0])], np.arange(k)
            index[(ranks == full).all(0)] = k
            if len(redo):
                parts.append(first.random_projections(subs[0], [rngs[i] for i in redo], True))
                index[redo] = k + 1 + np.arange(len(redo))
            blocks[0] = first.take(first.stack(subs[0], parts), index)
        return _trusted(alg, tuple(blocks))

    def from_coords(self, alg, coords: np.ndarray):
        parts = np.split(coords, np.cumsum([s.real_dimension for s in alg.summands])[:-1], -1)
        return _trusted(alg, tuple(s._backend.from_coords(s, c)
                                   for s, c in zip(alg.summands, parts)))

    def from_payload(self, alg, payload, decode):
        return _alg.Element(alg, tuple(decode(s, p) for s, p in zip(alg.summands, payload)))

    def order_isos(self, alg) -> tuple[str, ...]:
        return tuple(k for k in ("unitary_conjugation", "transpose")
                     if all(k in s._backend.order_isos(s) for s in alg.summands))

    def iso_operator(self, alg, kind: str, rngs) -> np.ndarray:
        # summand order fixes the order of each Generator's draws
        return _block_diag([s._backend.iso_operator(s, kind, rngs) for s in alg.summands])

    def joint_frame(self, alg, elems, gap: float) -> list:
        """Every summand's frame in summand order, each projection's other blocks zero."""
        zeros = tuple(_alg.zero(s) for s in alg.summands)
        return [_trusted(alg, zeros[:bi] + (p,) + zeros[bi + 1:])
                for bi, sub in enumerate(alg.summands)
                for p in sub._backend.joint_frame(sub, [e.data[bi] for e in elems], gap)]


_BACKENDS = {
    KIND_REAL: _MatrixBackend(KIND_REAL, "real", float, field_dim=1, unit=1),
    KIND_COMPLEX: _MatrixBackend(KIND_COMPLEX, "complex", complex, field_dim=2, unit=1),
    KIND_QUAT: _MatrixBackend(KIND_QUAT, "quat", complex, field_dim=4, unit=2),
    KIND_SPIN: _SpinBackend(),
    KIND_SUM: _SumBackend(),
}

#: shorthand name -> kind of the simple algebras
_SHORTHAND_KINDS = {b.name: kind for kind, b in _BACKENDS.items() if b.name}


def _resolve(alg):
    """The validated backend of a descriptor; ConfigError for an unknown kind."""
    backend = _BACKENDS.get(alg.kind)
    if backend is None:
        raise ConfigError(f"unknown algebra kind {alg.kind!r}")
    backend.validate(alg)
    return backend


def real_symmetric(n: int):
    return _alg.AlgebraDescriptor(KIND_REAL, n)


def complex_hermitian(n: int):
    return _alg.AlgebraDescriptor(KIND_COMPLEX, n)


def quaternionic_hermitian(n: int):
    return _alg.AlgebraDescriptor(KIND_QUAT, n)


def spin_factor(d: int):
    return _alg.AlgebraDescriptor(KIND_SPIN, d)


def direct_sum(*parts):
    return _alg.AlgebraDescriptor(KIND_SUM, 0, tuple(parts))
