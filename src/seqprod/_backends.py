"""Kind-specific code: one backend per kind of Euclidean Jordan algebra.

Every Euclidean Jordan algebra is a direct sum of simple factors: real,
complex or quaternionic Hermitian matrices, or spin factors.  A descriptor
resolves its backend here once, at construction, and the rest of the
package reaches element storage only through the backend primitives:

* ``_MatrixBackend`` (real, complex and quaternionic) stores a Hermitian
  matrix; the quaternionic n x n case is its complex 2n x 2n embedding X
  with J conj(X) J^-1 = X, J = [[0, I], [-I, 0]];
* ``_SpinBackend`` stores a pair (v, t) with v in R^d and t in R;
* ``_SumBackend`` stores a tuple of summand elements and does its per-block
  work through :func:`_blockwise`.

Every eigensolve of the package runs here, through :func:`_eigh`, which
rejects an element with a NaN or infinite entry.  A matrix element is
solved at most once: :func:`_eigen` keeps its (w, V) on the instance, and
its eigenvalue range, spectral pairs and every f(a) read that one solve,
as does a joint frame that it generates first.
f(a) is the ``functional`` primitive: one product per matrix block on the
cached eigen-data, a closed form on spin factors.  A norm that is only
compared with a threshold is solved only where :func:`_norm_bounds` (the
Frobenius norm and the largest absolute row sum) leave the comparison open
by more than ``BOUND_MARGIN``: ``residual_terms`` and ``norm_bounds`` give
the bounds per kind, exact on spin factors.

Results that meet the representation invariants by construction (real
linear combinations of elements, scalars, spin arithmetic, direct sums
assembled from summand results) are wrapped by :func:`_trusted` without
``normalise``; products of matrices are not exactly Hermitian in floating
point and are symmetrised as the public constructor does (``_element``).

The operator primitives (``jordan_operator``, ``quadratic_operator``,
``conjugation_operator`` and ``iso_operator``) return the coordinate matrix
of a linear map in one shot, one per trial for a stack: spin factors write
the matrix down, direct sums put the summand matrices on the diagonal, and
matrix kinds project the images of the basis with one product against the
cached conjugated basis.  A basis element E_k has at most one nonzero entry
per row and column, so a product with it is exact, and one product per
trial gives every E_k at once: T_a takes (E_k a + (E_k a)^H) / 2 from
[E_1; ...; E_d] a, as ``commutant_rows`` takes E_k s - (E_k s)^H, and
x -> m x m^H takes m E_k from m [E_1 | ... | E_d].  ``conjugator`` gives the
m = f(a) that the conjugation primitives take, so a caller can keep it.

A *stacked* element, built only by ``stack``, ``random_elements`` (one sample per
Generator, the only Gaussian draw), ``random_projections`` (one projection per
Generator, the only sharp draw) and ``scale_trials``, holds k trials on a leading
axis: (k, m, m) matrices, spin pairs (v (k, d), t (k,)), or a tuple of stacked
summands.  The primitives the stacked laws reach take it, unstacked operands
broadcasting, and give per-trial results (operators as (k, d, d) stacks of
coordinate matrices); ``take`` pulls a trial out, or gathers trials by index
arrays.  The frame primitive ``spectral_pairs`` gives (values, idempotents,
counts): each trial's cluster values in decreasing order, its idempotents (an
Element per place, a zero idempotent where the trial's frame is shorter), and
its frame's length.

Primitives whose result is an element return an Element.  Element and the
generic operations are read from the ``algebra`` module at call time,
because that module imports this one.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache, reduce
from itertools import accumulate

import numpy as np

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


def _blockwise(primitive, operands, *args):
    """Backend ``primitive`` on each summand block of direct-sum ``operands``.

    Block k of every operand, followed by ``args``, goes to the primitive of
    summand k; the results come back as a tuple in summand order.
    """
    return tuple(getattr(blocks[0].algebra._backend, primitive)(*blocks, *args)
                 for blocks in zip(*(x.data for x in operands)))


def _block_diag(mats) -> np.ndarray:
    """The block-diagonal matrix with the square ``mats`` (or stacks of k) on its diagonal."""
    n = sum(m.shape[-1] for m in mats)
    out = np.zeros(mats[0].shape[:-2] + (n, n))
    k = 0
    for m in mats:
        out[..., k:k + m.shape[-1], k:k + m.shape[-1]] = m
        k += m.shape[-1]
    return out


def _per_trial(f, ndim: int, *arrs):
    """float(f(*arrs)) on operands of ``ndim`` axes, else f on each trial of their broadcast
    stack: each trial then sums as a single call does, which a reduction over a stack need not."""
    if all(x.ndim == ndim for x in arrs):
        return float(f(*arrs))
    return np.array([f(*xs) for xs in zip(*np.broadcast_arrays(*arrs))])


def _trusted(alg, data):
    """Element of ``alg`` holding ``data`` as it is, without ``normalise``.

    Only for data that already meets the representation invariants and is
    read-only: the public ``Element(alg, data)`` normalises every input.
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
#: a polar start whose Gram matrix has an eigenvalue below this, relative to its largest, is
#: degenerate
POLAR_DEGENERACY = 1e-10
#: Newton-Schulz polishing stops once u^H u is the identity to this, entry by entry
POLAR_STOP = 1e-15
#: singular values of the stacked commutator maps at most this, relative to the largest (and to
#: 1), span the commutant
COMMUTANT_TOL = 1e-8
#: a spin element whose vector part is no longer than this has no direction
SPIN_DIRECTION_MIN = 1e-12
#: spin directions whose |cosine| is within this of 1 are collinear
SPIN_COLLINEAR_TOL = 1e-9

_NON_FINITE = "eigen-data needs an element with finite entries"


def _eigh(mat: np.ndarray, vectors: bool = True):
    """eigh, or eigvalsh without ``vectors``; a LinAlgError becomes NumericalFailureError.

    ``mat`` may be a stack (k, m, m), solved in one call.  A NaN or infinite
    entry raises NumericalFailureError before the solver runs: LAPACK can
    return finite eigenvalues for such a matrix.  The solver is looked up on
    ``np.linalg`` at call time, so a wrapper installed there sees every
    eigensolve.
    """
    if not np.isfinite(mat).all():
        raise NumericalFailureError(_NON_FINITE)
    try:
        return np.linalg.eigh(mat) if vectors else np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc


def _norm_bounds(mats: np.ndarray, hermitian: bool = True):
    """(lower, upper) bounds on the 2-norm of each matrix of ``mats`` (..., m, m).

    With F the Frobenius norm, F / sqrt(m) <= ||A||_2 <= F; the 2-norm of a Hermitian A is its
    spectral radius, which is also at most its largest absolute row sum.  A NaN or infinite
    entry gives a NaN or infinite bound.  The squares are summed unscaled, so F holds as an
    upper bound for entries above about 1e-154, whose squares do not underflow; the thresholds
    compared with it (1, COMMUTE_TOL, 0.05 and a caller's tol) are far above that.
    """
    mag = np.abs(mats)
    flat = mag.reshape(mag.shape[:-2] + (-1,))
    frob = np.sqrt(np.vecdot(flat, flat))
    upper = np.minimum(frob, mag.sum(-1).max(-1)) if hermitian else frob
    return frob / math.sqrt(mats.shape[-1]), upper


def _commutation_bound(comm, a, b):
    """comm (1 + sqrt(hi_a / lo_a) / 2 + sqrt(hi_b / lo_b) / 2) for a bound ``comm`` on
    ||[a, b]|| and the spectral ends [lo, hi] of a and b: a bound on ||a o b - b o a|| for the
    standard product, proved in ``commutant._proved_commuting``.

    It is NaN or infinite where an end is not positive.
    """
    (lo_a, hi_a), (lo_b, hi_b) = (x.algebra._backend.eigen_range(x) for x in (a, b))
    return comm * (1.0 + 0.5 * (np.sqrt(hi_a / lo_a) + np.sqrt(hi_b / lo_b)))


def _eigen(a) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) of the matrix element ``a``, solved once and kept on the instance.

    The data is immutable, so the entry never goes stale; two threads racing
    on a fresh element both write the same result.  A failed solve keeps
    nothing and raises again on the next call.
    """
    eig = a.__dict__.get("_eigen")
    if eig is None:
        w, vecs = _eigh(a.data)
        eig = a.__dict__["_eigen"] = (_read_only(w), _read_only(vecs))
    return eig


def _clusters(w: np.ndarray, gap: float):
    """(sizes, values) of the clusters of ascending eigenvalues in each row of ``w``.

    A cluster chains neighbours at most ``gap`` apart; the clusters of all
    rows come in order, their sizes as a list.  A cluster's value is its
    only eigenvalue, or its mean, summed in order as ``np.mean`` sums fewer
    than 8 values.
    """
    flat = w.ravel()
    joined = w[..., 1:] - w[..., :-1] <= gap
    if not np.count_nonzero(joined):  # every eigenvalue is a cluster of its own
        return [1] * flat.size, flat
    new = np.ones(w.shape, dtype=bool)
    new[..., 1:] = ~joined
    new = new.ravel()
    labels = new.cumsum() - 1
    sizes = np.bincount(labels)
    values = np.bincount(labels, weights=flat) / sizes
    np.copyto(values, flat[new], where=sizes == 1)  # keeps a lone -0.0
    return sizes.tolist(), values


def _matrix_function(a, f, gap: float) -> np.ndarray:
    """V f(w) V^H for the matrix element a = V diag(w) V^H, stacked or not.

    f maps an array of points to an array of real or complex values of its
    shape.  It is called once, on the array of w's shape transposed: each
    eigenvalue is replaced by the value of its cluster (eigenvalues chained
    by gaps <= ``gap``), and the trials of a stack come last, as on spin
    factors, so per-trial coefficients of f broadcast against them.
    """
    w, vecs = _eigen(a)
    sizes, values = _clusters(w, gap)
    if len(sizes) < w.size:
        values = np.repeat(values, sizes)
    coef = f(values.reshape(w.shape).T).T
    return (vecs * coef[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _random_structured_unitaries(alg, rngs) -> np.ndarray:
    """One orthogonal, unitary or symplectic matrix of a matrix-kind algebra per Generator: the
    polar factor of a Gaussian sample it draws, drawn again while degenerate (8 draws at most).

    The stack is solved as one.  The eigh-based start loses accuracy on an ill-conditioned
    sample (g^H g squares the condition number), so each factor is polished with Newton-Schulz
    steps, which keep the real or symplectic structure and stop trial by trial.
    """
    backend = alg._backend
    eye = np.eye(backend.matrix_order(alg))
    out = np.empty((len(rngs),) + eye.shape, backend.dtype)
    todo = np.arange(len(rngs))
    for _ in range(8):  # resample the rare near-singular draw
        g = backend.gaussian(backend.normals(alg, [rngs[j] for j in todo]))
        w, v = _eigh(g.conj().swapaxes(-1, -2) @ g)
        ok = ~(w[:, 0] <= POLAR_DEGENERACY * np.maximum(1.0, w[:, -1]))
        g, w, v = g[ok], w[ok], v[ok]
        u = g @ (v * (w ** -0.5)[:, None, :]) @ v.conj().swapaxes(-1, -2)
        live = np.arange(len(u))
        for _ in range(4):
            err = u[live].conj().swapaxes(-1, -2) @ u[live] - eye
            polish = ~(np.abs(err).max((-2, -1)) <= POLAR_STOP)
            live, err = live[polish], err[polish]
            if not len(live):
                break
            u[live] = u[live] @ (eye - 0.5 * err)
        out[todo[ok]] = u
        todo = todo[~ok]
        if not len(todo):
            return out
    raise NumericalFailureError(f"could not orthonormalize a random sample on {alg}")


class _Backend:
    """Defaults shared by the backends; the simple kinds take a size and no summands."""

    name = ""
    #: commutant_rows is available
    has_commutant = True

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

    def quadratic(self, a, b):
        """Q_a(b) = 2a*(a*b) - a^2*b."""
        jordan = _alg.jordan_product
        asq = jordan(a, a)
        return jordan(a, jordan(a, b)) * 2.0 - jordan(asq, b)

    def quadratic_operator(self, a) -> np.ndarray:
        """Q_a = 2 T_a^2 - T_{a^2} on coordinates."""
        t_a = self.jordan_operator(a)
        return 2.0 * (t_a @ t_a) - self.jordan_operator(self.jordan(a, a))

    def residual_terms(self, x, y):
        """(||x - y||, max(1, ||x||, ||y||)) in the order-unit norm, per trial for a stack."""
        diff, nx, ny = (_alg.order_unit_norm(e) for e in (x - y, x, y))
        return diff, np.maximum(1.0, np.maximum(nx, ny))

    def norm_bounds(self, x):
        """(lower, upper) bounds on the order-unit norm, per trial: here the norm itself."""
        norm = _alg.order_unit_norm(x)
        return norm, norm

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

def _quat_project(mat: np.ndarray, n: int) -> np.ndarray:
    """Project onto the subspace satisfying J conj(X) J^-1 = X.

    For X = [[A, B], [C, D]], J conj(X) J^H = [[conj D, -conj C], [-conj B, conj A]].
    """
    c = mat.conj()
    twin = np.empty_like(mat)
    twin[..., :n, :n] = c[..., n:, n:]
    twin[..., :n, n:] = -c[..., n:, :n]
    twin[..., n:, :n] = -c[..., :n, n:]
    twin[..., n:, n:] = c[..., :n, :n]
    return 0.5 * (mat + twin)


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


def _operator(alg, images: np.ndarray) -> np.ndarray:
    """Coordinate matrix whose column k holds the coordinates of ``images[..., k, :, :]``, the
    map's values on the basis: (dim, m, m), or (k, dim, m, m) for k trials' maps."""
    flat = images.reshape(images.shape[:-2] + (-1,))
    return np.real(_dual_basis(alg) @ flat.swapaxes(-1, -2))


def _basis_products(alg, mat: np.ndarray) -> np.ndarray:
    """E_k mat for every basis element E_k, (..., dim, m, m), from one product per trial.

    Each entry is one exact product, so for a Hermitian mat, mat E_k is the conjugate
    transpose of E_k mat bit for bit."""
    basis = _matrix_basis(alg)
    dim, m = basis.shape[:2]
    return (basis.reshape(dim * m, m) @ mat).reshape(mat.shape[:-2] + basis.shape)


def _hermitian_sum(prods: np.ndarray, sign: float) -> np.ndarray:
    """P + sign P^H per (m, m) block of ``prods``, in one new buffer that first takes P^H.

    The transpose is copied, not read by a ufunc, which would stage it in a buffer.
    """
    out = np.ascontiguousarray(prods.swapaxes(-1, -2))
    if np.iscomplexobj(out):
        np.conjugate(out, out=out)
    return (np.add if sign > 0 else np.subtract)(prods, out, out=out)


def _conjugation_operator(alg, m: np.ndarray) -> np.ndarray:
    """Coordinate matrix of x -> m x m^H, one per trial for a stack of m.

    m E_k comes from one product per trial, and (m E_k) m^H is taken block by block, in place:
    as one tall (dim m, m) product it rounds differently on some real orders (32-34).
    """
    dim, order = _matrix_basis(alg).shape[:2]
    left = (m @ _basis_columns(alg)).reshape(m.shape[:-2] + (order, dim, order))
    images = left.swapaxes(-3, -2) @ m.conj().swapaxes(-1, -2)[..., None, :, :]
    del left  # freed before the projection allocates
    return _operator(alg, images)


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
        mat = np.asarray(data, dtype=self.dtype)
        m = self.unit * alg.size
        if mat.shape != (m, m):
            raise ConfigError(f"expected {m}x{m} matrix for {alg}, got {mat.shape}")
        return self._hermitian(alg, mat)

    def _hermitian(self, alg, mat: np.ndarray) -> np.ndarray:
        """``mat`` (stacked or not) symmetrised, J-projected on quaternions, read-only."""
        mat = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
        if self.kind == KIND_QUAT:
            mat = _quat_project(mat, alg.size)
        return _read_only(mat)

    def _element(self, alg, mat: np.ndarray):
        """Element of a matrix product, which is Hermitian only up to round-off."""
        return _trusted(alg, self._hermitian(alg, mat))

    def stack(self, alg, elems):
        return _trusted(alg, _read_only(np.stack([x.data for x in elems])))

    def take(self, x, i):
        return _trusted(x.algebra, x.data[i])

    # a real linear combination of exactly Hermitian (and J-symmetric) data
    # is exactly so again
    def combine(self, a, b, sa, sb):
        return _trusted(a.algebra, _read_only(sa * a.data + sb * b.data))

    def scale(self, a, s):
        return _trusted(a.algebra, _read_only(s * a.data))

    def scale_trials(self, a, s):
        return _trusted(a.algebra, _read_only(np.asarray(s)[..., None, None] * a.data))

    def scalar(self, alg, c: float):
        return _trusted(alg, _read_only(c * np.eye(self.matrix_order(alg), dtype=self.dtype)))

    def jordan(self, a, b):
        return self._element(a.algebra, 0.5 * (a.data @ b.data + b.data @ a.data))

    def quadratic(self, a, b):
        # associative shortcut; equals the Jordan formula exactly
        return self._element(a.algebra, a.data @ b.data @ a.data)

    def inner(self, a, b) -> float:
        # vdot conjugates its first argument; tr(ab) = Re <a, b>_HS for Hermitian a, b
        val = _per_trial(lambda x, y: np.vdot(x, y).real, 2, a.data, b.data)
        return 0.5 * val if self.kind == KIND_QUAT else val

    def eigen_range(self, a):
        w, _ = _eigen(a)
        return w[..., 0], w[..., -1]

    def residual_terms(self, x, y):
        # ||x - y|| always; ||x|| and ||y|| only on the trials whose bound exceeds 1 - margin,
        # in the same eigenvalue-only call (a skipped norm would be solved below 1 as well)
        diff = x.data - y.data
        m = diff.shape[-1]
        ends = [np.broadcast_to(e.data, diff.shape) for e in (x, y)]
        solve = [~(_norm_bounds(e)[1] <= 1.0 - BOUND_MARGIN) for e in ends]
        w = _eigh(np.concatenate([diff.reshape(-1, m, m)] + [e[s] for e, s in zip(ends, solve)]),
                  vectors=False)
        radii = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
        start = diff.size // (m * m)
        diff_norm, scale = radii[:start].reshape(diff.shape[:-2]), np.ones(diff.shape[:-2])
        for s in solve:
            solved = radii[start:start + np.count_nonzero(s)]
            scale[s] = np.maximum(scale[s], solved)
            start += len(solved)
        return diff_norm, scale

    def norm_bounds(self, x):
        return _norm_bounds(x.data)

    def spectral_pairs(self, a, gap: float):
        # one product V_c V_c^H per (trial, cluster); a stack makes one per cluster size,
        # since a zero column padded into V_c would change the product's rounding
        alg = a.algebra
        w, vecs = _eigen(a)
        sizes, values = _clusters(w, gap)
        if w.ndim == 1:  # one element: as a stack of one, it costs 15-55% more
            frame = [self._element(alg, cols @ cols.conj().T)
                     for cols in (vecs[:, e - n:e] for n, e in zip(sizes, accumulate(sizes)))]
            return values[::-1], frame[::-1], np.asarray(len(frame))
        k, m = w.shape
        sizes = np.array(sizes)
        starts = np.cumsum(sizes) - sizes
        trial = starts // m
        counts = np.bincount(trial, minlength=k)
        slot = (np.cumsum(counts) - 1)[trial] - np.arange(len(sizes))  # decreasing order
        out = np.zeros((k, counts.max()))
        out[trial, slot] = values
        mats = np.zeros((counts.max(), k, m, m), vecs.dtype)
        for size in set(sizes.tolist()):
            sel = np.flatnonzero(sizes == size)
            cols = vecs[trial[sel, None, None], np.arange(m)[:, None],
                        starts[sel, None, None] % m + np.arange(size)]
            mats[slot[sel], trial[sel]] = cols @ cols.conj().swapaxes(-1, -2)
        return out, [_trusted(alg, p) for p in self._hermitian(alg, mats)], counts

    def functional(self, a, f, gap: float):
        return self._element(a.algebra, _matrix_function(a, f, gap))

    def jordan_operator(self, a) -> np.ndarray:
        # (a E_k + E_k a) / 2, with a E_k the conjugate transpose of E_k a
        images = _hermitian_sum(_basis_products(a.algebra, a.data), 1.0)
        return _operator(a.algebra, np.multiply(0.5, images, out=images))

    def quadratic_operator(self, a) -> np.ndarray:
        # associative shortcut x -> a x a, as in ``quadratic``
        return _conjugation_operator(a.algebra, a.data)

    def conjugator(self, a, f, gap: float):
        """m = f(a) as ``conjugate`` and ``conjugation_operator`` take it; f may be complex
        valued."""
        return _read_only(_matrix_function(a, f, gap))

    def conjugate(self, m, x):
        """m x m^H for the conjugator m."""
        return self._element(x.algebra, m @ x.data @ m.conj().swapaxes(-1, -2))

    def conjugation_operator(self, alg, m) -> np.ndarray:
        """Coordinate matrix of x -> m x m^H for the conjugator m."""
        return _conjugation_operator(alg, m)

    def normals(self, alg, rngs) -> np.ndarray:
        """The standard normals (k, field_dim, n, n) of one Gaussian matrix per Generator, in
        draw order, each drawn into its slot of one buffer."""
        out = np.empty((len(rngs), self.field_dim, alg.size, alg.size))
        for rng, slot in zip(rngs, out):
            rng.standard_normal(out=slot)
        return out

    def gaussian(self, normals: np.ndarray) -> np.ndarray:
        """Gaussian matrices of the algebra's structure (not yet Hermitian) from ``normals``
        (..., field_dim, n, n): real parts, then imaginary ones, A before B of A + Bj."""
        if self.kind == KIND_REAL:
            return normals[..., 0, :, :]
        parts = normals[..., 0::2, :, :] + 1j * normals[..., 1::2, :, :]
        if self.kind == KIND_COMPLEX:
            return parts[..., 0, :, :]
        return _quat_embed(parts[..., 0, :, :], parts[..., 1, :, :])

    def random_elements(self, alg, rngs):
        return self._element(alg, self.gaussian(self.normals(alg, rngs)))

    def random_projections(self, alg, rngs, proper: bool):
        # one product per rank: a product over zero-padded columns rounds differently
        x, n, u = self.random_elements(alg, rngs), alg.size, self.unit
        if n == 1:  # the identity, drawing no rank
            return self.stack(alg, [self.scalar(alg, 1.0)] * len(rngs))
        out = np.zeros(x.data.shape, self.dtype)
        _, vecs = _eigh(x.data)
        lo, hi = (1, n - 1) if proper else (0, n)
        ranks = np.array([rng.integers(lo, hi + 1) for rng in rngs])
        perms = np.array([rng.permutation(n) for rng in rngs])  # each after its trial's rank
        for r in set(ranks.tolist()) - {0}:
            sel = np.flatnonzero(ranks == r)
            cols = vecs[sel[:, None, None], np.arange(u * n)[:, None],
                        (u * perms[sel, :r, None] + np.arange(u)).reshape(len(sel), 1, -1)]
            out[sel] = self._hermitian(alg, cols @ cols.conj().swapaxes(-1, -2))
        return _trusted(alg, _read_only(out))

    def to_coords(self, x) -> np.ndarray:
        # one matrix-vector product per trial: a single product with the stack
        # as its columns rounds differently on quaternions
        cols = x.data.reshape(x.data.shape[:-2] + (-1, 1))
        return np.real(_dual_basis(x.algebra) @ cols)[..., 0]

    def from_coords(self, alg, coords: np.ndarray):
        return self._element(alg, np.tensordot(coords, _matrix_basis(alg), 1))

    def to_payload(self, x):
        if self.kind == KIND_REAL:
            return np.asarray(x.data).tolist()
        return {"re": x.data.real.tolist(), "im": x.data.imag.tolist()}

    def from_payload(self, alg, payload, decode):
        if self.kind == KIND_REAL:
            return _alg.Element(alg, np.array(payload, dtype=float))
        mat = np.array(payload["re"], dtype=float) + 1j * np.array(payload["im"], dtype=float)
        return _alg.Element(alg, mat)

    def commutator_norm(self, a, b) -> float:
        return _per_trial(np.linalg.norm, 2, a.data @ b.data - b.data @ a.data)

    def commutation_bound(self, a, b):
        # ||[a, b]|| is at most its Frobenius norm
        return _commutation_bound(self.commutator_norm(a, b), a, b)

    def order_isos(self, alg) -> tuple[str, ...]:
        if self.kind == KIND_COMPLEX:
            return ("unitary_conjugation", "transpose")
        return ("unitary_conjugation",)

    def iso_operator(self, alg, kind: str, rngs) -> np.ndarray:
        if kind == "transpose":
            transpose = _operator(alg, _matrix_basis(alg).swapaxes(1, 2))
            return np.broadcast_to(transpose, (len(rngs),) + transpose.shape)
        return _conjugation_operator(alg, _random_structured_unitaries(alg, rngs))

    def commutant_rows(self, alg, elems) -> np.ndarray:
        """Null space of the stacked commutator maps X -> Xs - sX, one coordinate row each.

        A NaN or infinite entry raises NumericalFailureError, as in ``_eigh``.
        """
        dim = self.real_dimension(alg)
        blocks = []
        for s in elems:
            # E_k s - s E_k, with s E_k the conjugate transpose of E_k s
            comm = _hermitian_sum(_basis_products(alg, s.data), -1.0).reshape(dim, -1)
            # (2 m^2, dim): one column per coordinate
            blocks.append(np.concatenate([comm.real, comm.imag], axis=1).T)
        stacked = np.vstack(blocks)
        if not np.isfinite(stacked).all():
            raise NumericalFailureError("the commutant needs elements with finite entries")
        _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
        return vh[svals <= COMMUTANT_TOL * max(1.0, float(svals[0]))]

    def joint_frame(self, alg, elems, gap: float) -> list:
        """Refine the whole space I by each generator in turn.

        I is split by the generator's cached solve, as I^H s I is s; a
        one-dimensional subspace is an eigenspace of every commuting generator
        and is kept as it is; any other subspace v is split by solving v^H s v.
        """
        eye = np.eye(self.matrix_order(alg), dtype=self.dtype)
        subspaces = [eye]
        for s in elems:
            refined = []
            for v in subspaces:
                if v.shape[1] == 1:
                    refined.append(v)
                    continue
                w, vecs = _eigen(s) if v is eye else _eigh(v.conj().T @ s.data @ v)
                sizes = _clusters(w, gap)[0]
                refined += [v @ vecs[:, e - n:e] for n, e in zip(sizes, accumulate(sizes))]
            subspaces = refined
        return [self._element(alg, v @ v.conj().T) for v in subspaces]


# ---------------------------------------------------------------------------
# Spin factors
# ---------------------------------------------------------------------------

def _spin_radius(a):
    """(v, t, |v|) of a spin element, stacked or not; its eigenvalues are t +- |v|.

    |v| is kept on the instance, as ``_eigen`` keeps (w, V).  A NaN or
    infinite entry raises NumericalFailureError, as in ``_eigh``.
    """
    v, t = a.data
    r = a.__dict__.get("_radius")
    if r is None:
        r = np.sqrt(np.vecdot(v, v))
        if np.count_nonzero(r * 0.0 + t * 0.0):  # 0 x is NaN for x NaN or infinite
            raise NumericalFailureError(_NON_FINITE)
        a.__dict__["_radius"] = r
    return v, t, r


def _col(s) -> np.ndarray:
    """Per-trial scalars ``s`` as a column that scales the rows of a stack of vectors."""
    return np.asarray(s)[..., None]


def _spin_directions(elems) -> list[np.ndarray]:
    """The unit vectors v/|v| of the elements whose |v| exceeds SPIN_DIRECTION_MIN, in order."""
    return [v / r for v, _, r in map(_spin_radius, elems) if r > SPIN_DIRECTION_MIN]


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
            v, t = np.array(v, dtype=float), float(t)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"expected a (vector, scalar) pair for {alg}: {exc}") from None
        if v.shape != (alg.size,):
            raise ConfigError(f"expected length-{alg.size} vector for {alg}")
        return (_read_only(v), t)

    def combine(self, a, b, sa, sb):
        (v, t), (w, s) = a.data, b.data
        return _trusted(a.algebra, (_read_only(sa * v + sb * w), sa * t + sb * s))

    def scale(self, a, s):
        v, t = a.data
        return _trusted(a.algebra, (_read_only(s * v), s * t))

    def scale_trials(self, a, s):
        v, t = a.data
        return _trusted(a.algebra, (_read_only(_col(s) * v), s * t))

    def scalar(self, alg, c: float):
        return _trusted(alg, (_read_only(np.zeros(alg.size)), c))

    def stack(self, alg, elems):
        return _trusted(alg, (_read_only(np.stack([x.data[0] for x in elems])),
                              _read_only(np.array([x.data[1] for x in elems]))))

    def take(self, x, i):
        v, t = x.data
        t = t[i]
        return _trusted(x.algebra, (v[i], t if t.ndim else float(t)))

    def jordan(self, a, b):
        (v, t), (w, s) = a.data, b.data
        vec = _col(s) * v + _col(t) * w
        return _trusted(a.algebra, (_read_only(vec), np.vecdot(v, w) + t * s))

    def inner(self, a, b) -> float:
        (v, t), (w, s) = a.data, b.data
        return 2.0 * (_per_trial(np.matmul, 1, v, w) + t * s)

    def jordan_operator(self, a) -> np.ndarray:
        """T_(v,t) = [[t I, v], [v^T, t]]; coordinates are a uniform multiple of (w, s)."""
        v, t = a.data
        out = np.asarray(t)[..., None, None] * np.eye(v.shape[-1] + 1)
        out[..., :-1, -1] = out[..., -1, :-1] = v
        return out

    def eigen_range(self, a):
        _, t, r = _spin_radius(a)
        return t - r, t + r

    def spectral_pairs(self, a, gap: float):
        """t +- r on the idempotents (+-v/2r, 1/2), or t on the identity where 2r <= gap."""
        v, t, r = _spin_radius(a)
        if v.ndim == 1 and 2.0 * r > gap:  # one element, split: as a stack of one, it costs 3x
            half = 0.5 * (v / r)
            frame = [_trusted(a.algebra, (_read_only(vec), 0.5)) for vec in (half, -half)]
            return np.array([t + r, t - r]), frame, np.asarray(2)
        split = 2.0 * r > gap
        half = 0.5 * (v / _col(np.where(split, r, 1.0)))
        cut = _col(split)
        plus = (np.where(cut, half, 0.0), np.where(split, 0.5, 1.0))
        minus = (np.where(cut, -half, 0.0), np.where(split, 0.5, 0.0))
        values = np.stack([np.where(split, t + r, t), np.where(split, t - r, 0.0)], -1)
        n = 2 if np.any(split) else 1
        frame = [_trusted(a.algebra, (_read_only(vec), s if s.ndim else float(s)))
                 for vec, s in (plus, minus)[:n]]
        return values[..., :n], frame, split + 1

    def functional(self, a, f, gap: float):
        """f(t + r) and f(t - r) on the two idempotents (+-v/2r, 1/2), r = |v|.

        Where 2r <= gap the element is t times the identity and f(t) is taken.
        """
        v, t, r = _spin_radius(a)
        split = 2.0 * r > gap
        dist = r * split
        vals = f(np.array([t + dist, t - dist]))
        hi, lo = vals[0], vals[1]
        # v.T puts the trials of a stack last, where the per-trial scalars broadcast
        vec = np.where(split, 0.5 * (hi - lo) * (v.T / (dist + ~split)), 0.0).T
        return _trusted(a.algebra, (_read_only(np.ascontiguousarray(vec)), 0.5 * (hi + lo)))

    def random_elements(self, alg, rngs):
        vs, ts = zip(*[(rng.standard_normal(alg.size), rng.standard_normal()) for rng in rngs])
        return _trusted(alg, (_read_only(np.array(vs)), _read_only(np.array(ts))))

    def random_projections(self, alg, rngs, proper: bool):
        units = [v / np.linalg.norm(v) for v in (rng.standard_normal(alg.size) for rng in rngs)]
        halves = _col([-0.5 if rng.integers(0, 2) else 0.5 for rng in rngs])  # each after its v
        return _trusted(alg, (_read_only(halves * units), _read_only(np.full(len(rngs), 0.5))))

    def to_coords(self, x) -> np.ndarray:
        v, t = x.data
        return np.sqrt(2.0) * np.concatenate([v, np.asarray(t)[..., None]], axis=-1)

    def from_coords(self, alg, coords: np.ndarray):
        scaled = coords / np.sqrt(2.0)
        v, t = np.ascontiguousarray(scaled[..., :-1]), scaled[..., -1]
        return _trusted(alg, (_read_only(v), float(t) if t.ndim == 0 else t))

    def to_payload(self, x):
        v, t = x.data
        return {"v": v.tolist(), "t": t}

    def from_payload(self, alg, payload, decode):
        return _alg.Element(alg, (np.array(payload["v"], dtype=float), float(payload["t"])))

    def commutator_norm(self, a, b) -> float:
        v, w = a.data[0][..., :, None], b.data[0][..., :, None]
        outer = v * w.swapaxes(-1, -2)  # v w^T, per trial for a stack
        return _per_trial(np.linalg.norm, 2, outer - outer.swapaxes(-1, -2))

    def commutation_bound(self, a, b):
        # in the Clifford representation t + sum v_i s_i, ||[a, b]|| = 2 |v ^ w|, which is
        # sqrt(2) times the Frobenius norm of v w^T - w v^T
        return _commutation_bound(math.sqrt(2.0) * self.commutator_norm(a, b), a, b)

    def order_isos(self, alg) -> tuple[str, ...]:
        return ("spin_rotation",)

    def iso_operator(self, alg, kind: str, rngs) -> np.ndarray:
        return _block_diag([_random_structured_unitaries(real_symmetric(alg.size), rngs),
                            np.eye(1)])

    def commutant_rows(self, alg, elems) -> np.ndarray:
        dirs = _spin_directions(elems)
        if not dirs:
            return np.eye(self.real_dimension(alg))
        ref = dirs[0]
        unit = self.to_coords(self.scalar(alg, 1.0)) / np.sqrt(2.0)
        if all(abs(abs(float(d @ ref)) - 1.0) <= SPIN_COLLINEAR_TOL for d in dirs):
            return np.stack([self.to_coords(_alg.Element(alg, (ref, 0.0))) / np.sqrt(2.0), unit])
        return unit[None, :]

    def joint_frame(self, alg, elems, gap: float) -> list:
        dirs = _spin_directions(elems)
        if not dirs:
            return [self.scalar(alg, 1.0)]
        ref = dirs[0]
        return [_alg.Element(alg, (0.5 * ref, 0.5)), _alg.Element(alg, (-0.5 * ref, 0.5))]


# ---------------------------------------------------------------------------
# Direct sums
# ---------------------------------------------------------------------------

class _SumBackend(_Backend):
    """Finite direct sums; elements are tuples of summand elements."""

    kind = KIND_SUM
    has_commutant = False

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
        blocks = tuple(data)
        if len(blocks) != len(alg.summands):
            raise ConfigError("direct_sum element needs one block per summand")
        for blk, sub in zip(blocks, alg.summands):
            if blk.algebra != sub:
                raise DescriptorMismatchError(
                    f"block algebra {blk.algebra} does not match summand {sub}")
        return blocks

    # results assembled from summand results need no check of their blocks
    def combine(self, a, b, sa, sb):
        return _trusted(a.algebra, _blockwise("combine", (a, b), sa, sb))

    def scale(self, a, s):
        return _trusted(a.algebra, _blockwise("scale", (a,), s))

    def scale_trials(self, a, s):
        return _trusted(a.algebra, _blockwise("scale_trials", (a,), s))

    def scalar(self, alg, c: float):
        return _trusted(alg, tuple(s._backend.scalar(s, c) for s in alg.summands))

    def stack(self, alg, elems):
        return _trusted(alg, tuple(s._backend.stack(s, [x.data[k] for x in elems])
                                   for k, s in enumerate(alg.summands)))

    def take(self, x, i):
        return _trusted(x.algebra, _blockwise("take", (x,), i))

    def jordan(self, a, b):
        return _trusted(a.algebra, _blockwise("jordan", (a, b)))

    def quadratic(self, a, b):
        # a b a on matrix blocks, the Jordan formula on spin blocks
        return _trusted(a.algebra, _blockwise("quadratic", (a, b)))

    def jordan_operator(self, a) -> np.ndarray:
        return _block_diag(_blockwise("jordan_operator", (a,)))

    def quadratic_operator(self, a) -> np.ndarray:
        return _block_diag(_blockwise("quadratic_operator", (a,)))

    def inner(self, a, b) -> float:
        return sum(_blockwise("inner", (a, b)))

    def eigen_range(self, a):
        los, his = zip(*_blockwise("eigen_range", (a,)))
        return reduce(np.minimum, los), reduce(np.maximum, his)

    def residual_terms(self, x, y):
        diffs, scales = zip(*_blockwise("residual_terms", (x, y)))
        return reduce(np.maximum, diffs), reduce(np.maximum, scales)

    def norm_bounds(self, x):
        lows, highs = zip(*_blockwise("norm_bounds", (x,)))
        return reduce(np.maximum, lows), reduce(np.maximum, highs)

    def functional(self, a, f, gap: float):
        return _trusted(a.algebra, _blockwise("functional", (a,), f, gap))

    def conjugator(self, a, f, gap: float):
        """The summands' conjugators, in summand order."""
        return _blockwise("conjugator", (a,), f, gap)

    def conjugate(self, m, x):
        return _trusted(x.algebra, tuple(blk.algebra._backend.conjugate(mb, blk)
                                         for mb, blk in zip(m, x.data)))

    def conjugation_operator(self, alg, m) -> np.ndarray:
        return _block_diag([s._backend.conjugation_operator(s, mb)
                            for s, mb in zip(alg.summands, m)])

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
        if not np.ndim(frames[0][2]):  # one element: as a stack of one, it costs 4x
            entries = sorted(((lam, bi, p, _alg.trace(p)) for bi, (values, frame, _)
                              in enumerate(frames) for lam, p in zip(values.tolist(), frame)),
                             key=lambda e: e[0])
            pairs, start = [], 0
            for size in _clusters(np.array([e[0] for e in entries]), gap)[0]:
                chosen = entries[start:start + size]
                start += size
                blocks = [_alg.zero(s) for s in alg.summands]
                for _, bi, p, _ in chosen:
                    blocks[bi] = blocks[bi] + p
                lam = sum(e[0] * e[3] for e in chosen) / sum(e[3] for e in chosen)
                pairs.append((float(lam), _trusted(alg, tuple(blocks))))
            values, frame = zip(*pairs[::-1])
            return np.array(values), list(frame), np.asarray(len(frame))
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
            pool = backend.stack(sub, frame + [backend.scale_trials(total, np.zeros(k))])
            # a slot takes a run of the block's places; ascending order takes the last first
            taken = np.count_nonzero(place[..., None] == np.arange(counts.max()), 1)
            last = np.cumsum(taken, -1) - 1
            for r in range(taken.max()):  # place len(frame), the zero, where a slot has no r-th
                src = np.where(r < taken, last - r, len(frame))
                total = total + backend.take(pool, (src.T, np.arange(k)))
            blocks.append(total)
        merged = _trusted(alg, tuple(blocks))
        return (np.divide(num, den, out=np.zeros_like(num), where=den > 0),
                [self.take(merged, j) for j in range(counts.max())], counts)

    def random_elements(self, alg, rngs):
        # summand by summand: each Generator draws its blocks in summand order
        return _trusted(alg, tuple(s._backend.random_elements(s, rngs) for s in alg.summands))

    def random_projections(self, alg, rngs, proper: bool):
        # block 0 is taken and restacked, as multiplying by a 0/1 mask leaves signed zeros
        subs, first = alg.summands, alg.summands[0]._backend
        blocks = [s._backend.random_projections(s, rngs, False) for s in subs]
        if proper:
            ranks = np.rint([_alg.trace(b) for b in blocks])
            full = np.rint([_alg.trace(_alg.identity(s)) for s in subs])[:, None]
            fixed = dict.fromkeys(np.flatnonzero((ranks == full).all(0)).tolist(),
                                  _alg.zero(subs[0]))
            redo = np.flatnonzero(ranks.sum(0) == 0).tolist()
            if redo:
                redrawn = first.random_projections(subs[0], [rngs[i] for i in redo], True)
                fixed.update((i, first.take(redrawn, j)) for j, i in enumerate(redo))
            blocks[0] = first.stack(subs[0], [fixed[i] if i in fixed else first.take(blocks[0], i)
                                              for i in range(len(rngs))])
        return _trusted(alg, tuple(blocks))

    def to_coords(self, x) -> np.ndarray:
        return np.concatenate(_blockwise("to_coords", (x,)), axis=-1)

    def from_coords(self, alg, coords: np.ndarray):
        parts = np.split(coords, np.cumsum([s.real_dimension for s in alg.summands])[:-1], -1)
        return _trusted(alg, tuple(s._backend.from_coords(s, c)
                                   for s, c in zip(alg.summands, parts)))

    def to_payload(self, x):
        return list(_blockwise("to_payload", (x,)))

    def from_payload(self, alg, payload, decode):
        return _alg.Element(alg, tuple(decode(s, p) for s, p in zip(alg.summands, payload)))

    def commutator_norm(self, a, b) -> float:
        return reduce(np.maximum, _blockwise("commutator_norm", (a, b)))

    def commutation_bound(self, a, b):
        return reduce(np.maximum, _blockwise("commutation_bound", (a, b)))

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
