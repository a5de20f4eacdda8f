"""Sequential products on effect intervals.

The standard product is a o b = Q_sqrt(a)(b), i.e. sqrt(a) b sqrt(a) on
matrices.  On complex Hermitian algebras (and their direct sums) there is
in addition a one-parameter family of twisted products

    a o_t b = sqrt(a) a^{it} b a^{-it} sqrt(a)

with a^{it} taken on the support of a and the identity on its kernel.
Twisted products satisfy the same finite-measurement axioms as the
standard one but differ from it for t != 0; the auditor uses them as the
non-standard foil for the uniqueness demonstrations.  The operators here give
one map per trial for stacked elements, and their preconditions name the worst trial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    SUPPORT_TOL,
    AlgebraDescriptor,
    Element,
    LinearMap,
    _linear_map,
    check_same_algebra,
    min_eigenvalue,
    norm_at_most,
    quadratic_rep,
)
from .errors import (
    CapabilityError,
    ConfigError,
    DescriptorMismatchError,
    PreconditionError,
)
from .spectral import DEFAULT_GAP, pseudo_inverse, sqrt_pos

#: effects with min eigenvalue below this are rejected where an inverse is needed
INVERTIBILITY_TOL = 1e-6
#: the one commutation threshold: ``commutes``, the commutant preconditions, the auditor
COMMUTE_TOL = 1e-8
#: a commutation bound (``commutant._proved_commuting``) is taken only where both smallest
#: eigenvalues are at least this; it keeps the bound's root terms at most sqrt(||a|| / 4e-6)
COMMUTE_FLOOR = 1e-6
#: the rounding allowance a commutation bound must clear COMMUTE_TOL by, per unit of
#: max(1, ||a||) max(1, ||b||); 1% of COMMUTE_TOL on effects
COMMUTE_ROUNDING = 1e-10


@dataclass(frozen=True)
class SequentialProduct:
    """Product descriptor: standard, or twisted with parameter t."""

    algebra: AlgebraDescriptor
    twist: float | None = None  # None = standard

    def __post_init__(self):
        if self.twist is not None and not self.algebra.is_complex_kind():
            raise CapabilityError(
                f"twisted products need a complex Hermitian algebra, not {self.algebra}")

    @classmethod
    def standard(cls, alg: AlgebraDescriptor) -> "SequentialProduct":
        return cls(alg, None)

    @classmethod
    def twisted(cls, alg: AlgebraDescriptor, t: float) -> "SequentialProduct":
        return cls(alg, float(t))

    @property
    def is_standard(self) -> bool:
        return self.twist is None

    def descriptor(self) -> str:
        return "standard" if self.twist is None else f"twisted:{self.twist}"


def parse_product(text: str, alg: AlgebraDescriptor) -> SequentialProduct:
    """Parse "standard" or "twisted:<t>"."""
    t = text.strip()
    if t == "standard":
        return SequentialProduct.standard(alg)
    if t.startswith("twisted:"):
        try:
            val = float(t.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad product descriptor {text!r}") from None
        if not math.isfinite(val):
            raise ConfigError(f"twist must be finite in {text!r}")
        return SequentialProduct.twisted(alg, val)
    raise ConfigError(f"bad product descriptor {text!r}")


def _twisted_power(t: float, root: bool):
    """The function of m in x -> m x m^H: m = sqrt(a) a^{it} if ``root`` else a^{it}.

    It maps an array of eigenvalues, of any shape, to complex values of that
    shape, each computed with ``math`` and ``cmath`` (numpy's log and exp can
    differ in the last bit).
    The phase is taken on the support of a.  Off it m is 0 with ``root``, so
    the square root annihilates the kernel (spectrum <= support threshold)
    as in sqrt_pos, and 1 without it.
    """
    def power(lam: float) -> complex:
        if lam <= SUPPORT_TOL:
            return 0.0 if root else 1.0
        phase = cmath.exp(1j * t * math.log(lam))
        return math.sqrt(lam) * phase if root else phase

    return lambda lams: np.array([power(lam) for lam in lams.ravel().tolist()],
                                 dtype=complex).reshape(lams.shape)


def _check_product_algebra(p: SequentialProduct, a: Element):
    if a.algebra != p.algebra:
        raise DescriptorMismatchError(
            f"product on {p.algebra} applied to elements of {a.algebra}")


def _product_root(p: SequentialProduct, a: Element):
    """The root of ``p`` at a: sqrt(a) (an Element, a o b = Q_sqrt(a)(b)) for the standard
    product, the conjugator m = sqrt(a) a^{it} (a o b = m b m^H) for twisted:t.

    It is built once per twist (None for the standard product) and kept on a, as ``_eigen``
    keeps (w, V): the data is immutable, so the entry never goes stale.  A failed build keeps
    nothing.
    """
    roots = a.__dict__.get("_roots")
    root = None if roots is None else roots.get(p.twist)
    if root is None:
        if p.is_standard:
            root = sqrt_pos(a)
        else:
            root = a.algebra._backend.conjugator(a, _twisted_power(p.twist, root=True),
                                                 DEFAULT_GAP)
        a.__dict__.setdefault("_roots", {})[p.twist] = root
    return root


def seq_product(p: SequentialProduct, a: Element, b: Element) -> Element:
    """a o b.  The first argument must be positive; b may be any element."""
    check_same_algebra(a, b)
    _check_product_algebra(p, a)
    root = _product_root(p, a)
    if p.is_standard:
        return quadratic_rep(root, b)
    return a.algebra._backend.conjugate(root, b)


def multiplication_operator(p: SequentialProduct, a: Element) -> LinearMap:
    """L_a: b -> a o b as a linear map, in closed form from the product root at a."""
    _check_product_algebra(p, a)
    backend, root = p.algebra._backend, _product_root(p, a)
    if p.is_standard:
        matrix = backend.quadratic_operator(root)
    else:
        matrix = backend.conjugation_operator(p.algebra, root)
    return _linear_map(p.algebra, matrix, "L_a")


def commutes(p: SequentialProduct, a: Element, b: Element, tol: float = COMMUTE_TOL) -> bool:
    """True iff ||a o b - b o a|| <= tol; one verdict per trial for stacked elements.

    The norm is solved only where its bounds leave the verdict open (``norm_at_most``).
    """
    verdict = norm_at_most(seq_product(p, a, b) - seq_product(p, b, a), tol)
    return bool(verdict) if np.ndim(verdict) == 0 else verdict


def divide(p: SequentialProduct, q: Element, a: Element) -> Element:
    """The unique c below ceiling(q) with q o c = a, for a <= q.

    Uses the pseudo-inverse: c = q^{-1} o a, which is exact on the support
    of q and annihilates its kernel.
    """
    check_same_algebra(q, a)
    gap = min_eigenvalue(q - a)
    if np.count_nonzero(~(gap >= -SUPPORT_TOL)):
        raise PreconditionError(
            f"divide needs a <= q; offending eigenvalue of q - a is {np.min(gap):.3e}")
    return seq_product(p, pseudo_inverse(q), a)


def homogeneity_iso(a: Element, b: Element) -> LinearMap:
    """Order isomorphism Phi = L_b L_{a^-1} mapping a to b (standard product).

    Both arguments must be invertible; the explicit inverse is
    L_a L_{b^-1}.
    """
    check_same_algebra(a, b)
    for name, x in (("a", a), ("b", b)):
        lo = min_eigenvalue(x)
        if np.count_nonzero(lo < INVERTIBILITY_TOL):
            raise PreconditionError(
                f"homogeneity_iso needs invertible inputs; {name} has min eigenvalue "
                f"{np.min(lo):.3e}")
    std = SequentialProduct.standard(a.algebra)
    l_b = multiplication_operator(std, b)
    l_ainv = multiplication_operator(std, pseudo_inverse(a))
    return _linear_map(a.algebra, l_b.compose(l_ainv).matrix, "Phi")


def imaginary_power_conjugation(q: Element, t: float) -> LinearMap:
    """The conjugation b -> q^{it} b q^{-it} on a complex algebra."""
    alg = q.algebra
    if not alg.is_complex_kind():
        raise CapabilityError(f"imaginary powers need a complex algebra, not {alg}")
    backend = alg._backend
    matrix = backend.conjugation_operator(
        alg, backend.conjugator(q, _twisted_power(t, root=False), DEFAULT_GAP))
    return _linear_map(alg, matrix, f"Ad(q^{{i{t}}})")


def theta_between(p: SequentialProduct, p2: SequentialProduct, q: Element) -> LinearMap:
    """Theta_q = (L_q)^-1 L'_q relating two products at an invertible q.

    For p standard and p2 twisted(t) on a complex algebra this is the
    conjugation b -> q^{it} b q^{-it}.
    """
    if p.algebra != p2.algebra or q.algebra != p.algebra:
        raise PreconditionError("theta_between needs both products and q on one algebra")
    lo = min_eigenvalue(q)
    if np.count_nonzero(lo <= SUPPORT_TOL):
        raise PreconditionError(
            f"theta_between needs an invertible q; min eigenvalue {np.min(lo):.3e}")
    l_q = multiplication_operator(p, q)
    l2_q = multiplication_operator(p2, q)
    return _linear_map(q.algebra, l_q.invert().compose(l2_q).matrix, "Theta_q")
