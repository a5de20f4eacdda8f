"""Euclidean Jordan algebra kernel: descriptors, elements and linear maps.

Supported algebras: ``real_symmetric``, ``complex_hermitian`` and
``quaternionic_hermitian`` n x n matrices, ``spin_factor`` R^d (+) R, and
``direct_sum`` of these.  How each kind stores its elements, and everything
else that depends on the kind, lives in ``_backends``; the operations here
are written once on top of the backend primitives.

The Jordan product is a*b = (ab + ba)/2 on matrices and
(v,t)*(w,s) = (sv + tw, <v,w> + ts) on spin factors.  The trace inner
product is tr(ab) (half the embedded trace for quaternionic matrices,
2(<v,w> + ts) for spin factors) and the order-unit norm is the spectral
radius.  All values are immutable and every operation is a pure function,
so elements and maps can be shared freely between threads.  An element's
eigen-data is computed on first use and kept on the instance; it is
written once and derived only from the immutable data (a race between
threads computes the same value twice), so the operations stay pure.  A
descriptor keeps its identity and zero the same way.  Elements *stacked* by
the backends hold k trials on a leading axis; arithmetic, ``seq_product``,
the eigenvalue range, ``trace_inner_product``, ``rel_residual`` and
``norm_at_most`` return one value per trial, and ``_random_effects`` draws a
stack of random effects, one per Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import getitem

import numpy as np

from ._backends import (  # kind names and descriptor constructors are re-exported
    KIND_COMPLEX,
    KIND_QUAT,
    KIND_REAL,
    KIND_SPIN,
    KIND_SUM,
    _SHORTHAND_KINDS,
    BOUND_MARGIN,
    _Backend,
    _norm_bounds,
    _resolve,
    complex_hermitian,
    direct_sum,
    quaternionic_hermitian,
    real_symmetric,
    spin_factor,
)
from .errors import (
    ConfigError,
    DescriptorMismatchError,
    NumericalFailureError,
)

#: spectrum below this is treated as kernel (support threshold)
SUPPORT_TOL = 1e-9
#: a Gaussian sample whose spectrum is narrower than this becomes the effect 1/2
FLAT_WIDTH = 1e-12


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraDescriptor:
    """Which algebra an element lives in.

    ``size`` is the matrix order n for matrix kinds and the rank d of the
    underlying real vector space for spin factors; direct sums carry their
    summand descriptors in order.
    """

    kind: str
    size: int = 0
    summands: tuple["AlgebraDescriptor", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_backend", _resolve(self))

    @property
    def real_dimension(self) -> int:
        return self._backend.real_dimension(self)

    @property
    def matrix_order(self) -> int:
        """Order of the stored (embedded) matrix for matrix kinds."""
        return self._backend.matrix_order(self)

    def is_complex_kind(self) -> bool:
        """True for complex Hermitian algebras and their direct sums."""
        return self._backend.is_complex(self)

    def shorthand(self) -> str:
        return self._backend.shorthand(self)

    def __str__(self) -> str:
        return self.shorthand()


def parse_algebra(text: str) -> AlgebraDescriptor:
    """Parse shorthand: real:n | complex:n | quat:n | spin:d | sum(a,b,...)."""
    t = text.strip()
    if t.startswith("sum(") and t.endswith(")"):
        inner = t[4:-1]
        parts, depth, start = [], 0, 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(inner[start:i])
                start = i + 1
        parts.append(inner[start:])
        if any(not p.strip() for p in parts):
            raise ConfigError(f"bad algebra shorthand {text!r}")
        return direct_sum(*(parse_algebra(p) for p in parts))
    name, sep, num = t.partition(":")
    if not sep or name not in _SHORTHAND_KINDS:
        raise ConfigError(f"bad algebra shorthand {text!r}")
    try:
        k = int(num)
    except ValueError:
        raise ConfigError(f"bad algebra shorthand {text!r}") from None
    return AlgebraDescriptor(_SHORTHAND_KINDS[name], k)


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Element:
    """A self-adjoint element, stored in kind-specific coordinates.

    Construction symmetrizes matrix data (and projects quaternionic data
    onto the J-symmetric subspace), so stored values always satisfy the
    representation invariants.  An *effect* is an Element whose spectrum
    lies in [0, 1]; see :func:`is_effect`.
    """

    algebra: AlgebraDescriptor
    data: object

    def __post_init__(self):
        alg = self.algebra
        object.__setattr__(self, "data", alg._backend.normalise(alg, self.data))

    # -- vector-space arithmetic -------------------------------------------
    def _combine(self, other: "Element", sa: float, sb: float) -> "Element":
        return check_same_algebra(self, other)._backend.combine(self, other, sa, sb)

    def __add__(self, other: "Element") -> "Element":
        return self._combine(other, 1.0, 1.0)

    def __sub__(self, other: "Element") -> "Element":
        return self._combine(other, 1.0, -1.0)

    def __mul__(self, scalar: float) -> "Element":
        return self.algebra._backend.scale(self, float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Element":
        return self * -1.0

    def __repr__(self) -> str:
        return f"Element({self.algebra}, {self.data!r})"


def check_same_algebra(*items) -> AlgebraDescriptor:
    alg = items[0].algebra
    for it in items[1:]:
        if it.algebra is not alg and it.algebra != alg:
            raise DescriptorMismatchError(f"algebras differ: {alg} vs {it.algebra}")
    return alg


def _scalar(alg: AlgebraDescriptor, name: str, c: float) -> Element:
    """The read-only scalar ``c`` of ``alg``, built once and kept on the descriptor."""
    x = alg.__dict__.get(name)
    if x is None:
        x = alg.__dict__[name] = alg._backend.scalar(alg, c)
    return x


def identity(alg: AlgebraDescriptor) -> Element:
    return _scalar(alg, "_identity", 1.0)


def zero(alg: AlgebraDescriptor) -> Element:
    return _scalar(alg, "_zero", 0.0)


# ---------------------------------------------------------------------------
# Jordan structure
# ---------------------------------------------------------------------------

def jordan_product(a: Element, b: Element) -> Element:
    """Jordan product a*b; (ab + ba)/2 on matrices."""
    return check_same_algebra(a, b)._backend.jordan(a, b)


def quadratic_rep(a: Element, b: Element) -> Element:
    """Quadratic representation Q_a(b) = 2a*(a*b) - a^2*b (= aba on matrices)."""
    return check_same_algebra(a, b)._backend.quadratic(a, b)


def trace_inner_product(a: Element, b: Element) -> float:
    """tr(ab); half-trace of the embedding for quaternionic matrices; per trial for a stack."""
    return check_same_algebra(a, b)._backend.inner(a, b)


def trace(a: Element) -> float:
    return trace_inner_product(a, identity(a.algebra))


def eigenvalue_range(a: Element) -> tuple[float, float]:
    """(smallest, largest) eigenvalue; per trial for a stacked element."""
    return a.algebra._backend.eigen_range(a)


def min_eigenvalue(a: Element) -> float:
    return eigenvalue_range(a)[0]


def order_unit_norm(a: Element) -> float:
    """Spectral radius: max |eigenvalue|."""
    lo, hi = eigenvalue_range(a)
    return np.maximum(abs(lo), abs(hi))


def rel_residual(x: Element, y: Element) -> float:
    """||x - y|| divided by max(1, ||x||, ||y||).

    On a matrix block ||x - y|| is always solved, eigenvalues only, and ||x|| and ||y|| only
    on the trials whose norm bound exceeds 1 - BOUND_MARGIN; the eigen-data of x and y is
    neither read nor kept.
    """
    diff, scale = check_same_algebra(x, y)._backend.residual_terms(x, y)
    return diff / scale


def is_positive(a: Element, tol: float = SUPPORT_TOL) -> bool:
    return bool(min_eigenvalue(a) >= -tol)


def is_effect(a: Element, tol: float = SUPPORT_TOL) -> bool:
    lo, hi = eigenvalue_range(a)
    return bool(lo >= -tol and hi <= 1.0 + tol)


def leq(a: Element, b: Element, tol: float = SUPPORT_TOL) -> bool:
    """a <= b in the positive order (ties at the tolerance count as <=)."""
    return bool(min_eigenvalue(b - a) >= -tol)


# ---------------------------------------------------------------------------
# Coordinates (orthonormal basis under the trace inner product)
# ---------------------------------------------------------------------------

def to_coords(x: Element) -> np.ndarray:
    """Coordinates of x in the cached orthonormal basis."""
    return x.algebra._backend.to_coords(x)


def from_coords(alg: AlgebraDescriptor, coords: np.ndarray) -> Element:
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (alg.real_dimension,):
        raise ConfigError(f"expected {alg.real_dimension} coordinates for {alg}")
    return alg._backend.from_coords(alg, coords)


# ---------------------------------------------------------------------------
# Linear maps on element coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinearMap:
    """Real-linear operator on the algebra, as a matrix on coordinates.

    ``a.compose(b)`` applies b first: a.compose(b).apply(x) == a.apply(b.apply(x)).
    A map built by the package (:func:`_linear_map`) may hold k trials' matrices (k, d, d);
    its operations then act per trial, an unstacked operand broadcasting.
    """

    algebra: AlgebraDescriptor
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        d = self.algebra.real_dimension
        # an own C-ordered copy: a caller's array stays writable, and a map
        # read back from JSON multiplies exactly as the original does
        mat = np.array(self.matrix, dtype=float, order="C")
        if mat.shape != (d, d):
            raise ConfigError(f"expected {d}x{d} map matrix for {self.algebra}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(cls, alg: AlgebraDescriptor, label: str = "id") -> "LinearMap":
        return cls(alg, np.eye(alg.real_dimension), label)

    def apply(self, x: Element) -> Element:
        if x.algebra != self.algebra:
            raise DescriptorMismatchError(f"map on {self.algebra} applied to {x.algebra}")
        coords = (self.matrix @ to_coords(x)[..., None])[..., 0]  # a matrix-vector product each
        return self.algebra._backend.from_coords(self.algebra, coords)

    def compose(self, other: "LinearMap") -> "LinearMap":
        if other.algebra != self.algebra:
            raise DescriptorMismatchError("cannot compose maps on different algebras")
        return _linear_map(self.algebra, self.matrix @ other.matrix,
                           f"{self.label}.{other.label}")

    def invert(self) -> "LinearMap":
        try:
            inv = np.linalg.inv(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"map {self.label!r} is singular") from exc
        return _linear_map(self.algebra, inv, f"{self.label}^-1")


def _linear_map(alg: AlgebraDescriptor, matrix: np.ndarray, label) -> LinearMap:
    """The map of a (d, d) or (k, d, d) matrix built here; a stack may carry a label per trial."""
    m = LinearMap.__new__(LinearMap)
    mat = np.ascontiguousarray(matrix, dtype=float)
    mat.setflags(write=False)
    m.__dict__.update(algebra=alg, matrix=mat, label=label)
    return m


def operator_norm(m: LinearMap | np.ndarray) -> float:
    """The spectral norm; one per trial for a stack."""
    mat = m.matrix if isinstance(m, LinearMap) else m
    norm = np.linalg.norm(mat, 2, axis=(-2, -1))
    return float(norm) if norm.ndim == 0 else norm


def map_distance(f: LinearMap, g: LinearMap) -> float:
    return operator_norm(f.matrix - g.matrix)


def norm_at_most(x: Element | np.ndarray, tol: float, strict: bool = False):
    """||x|| <= tol (< tol if ``strict``), per trial for a stack: the order-unit norm of an
    Element, the spectral norm of a map's (..., d, d) matrix.

    The norm is solved, as ``order_unit_norm`` or ``operator_norm`` solves it, only on the
    trials that its bounds (``norm_bounds``; F / sqrt(d) and F for a d x d map of Frobenius
    norm F) leave open: an upper bound at most tol (1 - BOUND_MARGIN) settles True, a finite
    lower bound at least tol (1 + BOUND_MARGIN) settles False.  A trial with a NaN or infinite
    entry is always solved, and raises or compares as the solved norm does.
    """
    if isinstance(x, Element):
        lower, upper = x.algebra._backend.norm_bounds(x)
        norm, take = order_unit_norm, x.algebra._backend.take
    else:
        lower, upper = _norm_bounds(x, hermitian=False)
        norm, take = operator_norm, getitem
    compare = np.less if strict else np.less_equal
    below, above = tol * (1.0 - BOUND_MARGIN), tol * (1.0 + BOUND_MARGIN)
    if not np.ndim(upper):  # one element or map: scalar comparisons, no 0-d ufunc calls
        if upper <= below or (lower >= above and math.isfinite(lower)):
            return upper <= below
        return compare(norm(x), tol)
    settled = upper <= below
    sel = np.flatnonzero(~settled & ~(np.isfinite(lower) & (lower >= above)))
    if len(sel):
        settled[sel] = compare(norm(take(x, sel)), tol)
    return settled


def jordan_mult_operator(a: Element) -> LinearMap:
    """T_a: b -> a*b, in closed form (see the backends' ``jordan_operator``)."""
    return _linear_map(a.algebra, a.algebra._backend.jordan_operator(a), "T_a")


def quadratic_operator(a: Element) -> LinearMap:
    """Q_a as a linear map, in the Jordan form of ``_Backend.quadratic_operator``.

    The Jordan form is kept on every kind (not the matrix shortcut x -> axa
    that L_a uses), so the fundamental equality checks T_a and not only
    associativity.
    """
    return _linear_map(a.algebra, _Backend.quadratic_operator(a.algebra._backend, a), "Q_a")


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

def random_element(alg: AlgebraDescriptor, rng) -> Element:
    """Gaussian self-adjoint sample (GOE/GUE-style, unnormalized): a stack of one, taken."""
    return alg._backend.take(alg._backend.random_elements(alg, [np.random.default_rng(rng)]), 0)


def random_projection(alg: AlgebraDescriptor, rng, proper: bool = True) -> Element:
    """Random sharp effect, neither 0 nor 1 if ``proper`` (and rank >= 2): a stack of one, taken."""
    backend = alg._backend
    return backend.take(backend.random_projections(alg, [np.random.default_rng(rng)], proper), 0)


def random_effect(alg: AlgebraDescriptor, seed, profile: str = "generic") -> Element:
    """Deterministic random effect: a stack of one, taken.

    Profiles: ``generic`` and ``invertible`` rescale a Gaussian sample
    affinely so the spectrum lies in [0.05, 0.95] (a sample with a single
    eigenvalue gives 1/2); ``singular`` compresses such a sample by a random
    proper projection; ``sharp`` returns a random projection.
    """
    return alg._backend.take(_random_effects(alg, [np.random.default_rng(seed)], profile), 0)


def _random_effects(alg: AlgebraDescriptor, rngs, profile: str = "generic") -> Element:
    """``random_effect`` of each Generator of ``rngs`` (the same draws, in order), stacked."""
    backend = alg._backend
    if profile in ("generic", "invertible"):
        g, one = backend.random_elements(alg, rngs), identity(alg)
        lo, hi = eigenvalue_range(g)
        width = hi - lo
        flat = width < FLAT_WIDTH  # every sample of a rank-one matrix algebra
        shifted = g - backend.scale_trials(one, lo)
        eff = backend.scale_trials(shifted, 0.9 / np.maximum(width, FLAT_WIDTH)) + one * 0.05
        if not np.count_nonzero(flat):
            return eff
        return backend.stack(alg, [one * 0.5 if f else backend.take(eff, k)
                                   for k, f in enumerate(flat.tolist())])
    if profile == "sharp":
        return backend.random_projections(alg, rngs, True)
    if profile == "singular":  # the projection is drawn first
        return quadratic_rep(_random_effects(alg, rngs, "sharp"),
                             _random_effects(alg, rngs, "invertible"))
    raise ConfigError(f"unknown effect profile {profile!r}")


# ---------------------------------------------------------------------------
# Unital order isomorphisms
# ---------------------------------------------------------------------------

def make_order_iso(alg: AlgebraDescriptor, kind: str, seed=0) -> LinearMap:
    """Unital order isomorphism of the requested kind.

    ``unitary_conjugation`` works on matrix kinds (orthogonal, unitary or
    symplectic conjugation drawn from a Gaussian sample) and on direct sums
    of them, blockwise.  ``transpose`` needs complex Hermitian algebras (or
    sums of them); ``spin_rotation`` needs a spin factor.
    """
    matrix, label = alg._backend.order_iso(alg, kind, np.random.default_rng(seed))
    return LinearMap(alg, matrix, label)
