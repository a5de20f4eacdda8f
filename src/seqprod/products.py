"""Sequential products on effect intervals.

The standard product is a o b = Q_sqrt(a)(b), i.e. sqrt(a) b sqrt(a) on
matrices.  On complex Hermitian algebras (and their direct sums) there is
in addition a one-parameter family of twisted products

    a o_t b = sqrt(a) a^{it} b a^{-it} sqrt(a)

with a^{it} taken on the support of a and the identity on its kernel.
Twisted products satisfy the same finite-measurement axioms as the
standard one but differ from it for t != 0; the auditor uses them as the
non-standard foil for the uniqueness demonstrations.

Every root and phase here is one ``spectral._root`` call, where the root path is
described.  So a product, ``divide``, ``homogeneity_iso`` and
``imaginary_power_conjugation`` raise where an eigenvalue is below -SUPPORT_TOL.  The
operators give one map per trial for stacked elements, and their preconditions name the
worst trial.  A product applied to another algebra's elements raises
DescriptorMismatchError (``check_same_algebra``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import (
    SUPPORT_TOL,
    AlgebraDescriptor,
    Element,
    LinearMap,
    _linear_map,
    _require_spectrum,
    check_same_algebra,
    eigenvalue_range,
    frame_range,
    norm_at_most,
)
from .errors import CapabilityError, ConfigError
from .spectral import _root

#: effects with min eigenvalue below this are rejected where an inverse is needed
INVERTIBILITY_TOL = 1e-6
#: the one commutation threshold: ``commutes``, the commutant preconditions, the auditor
COMMUTE_TOL = 1e-8


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


def _product_root(p: SequentialProduct, a: Element):
    """The root of ``p`` at a (``spectral._root``), kept on a per twist."""
    roots = a.__dict__.get("_roots")
    root = None if roots is None else roots.get(p.twist)
    if root is None:
        root = _root(a, p.twist, 0.5, f"the {p.descriptor()} product")
        a.__dict__.setdefault("_roots", {})[p.twist] = root
    return root


def _inverse_root(p: SequentialProduct, q: Element, what: str):
    """The root of ``p`` at the pseudo-inverse q^+, from q's own solve (``spectral._root``).

    sqrt(pseudo_inverse(q)) gives the same map from a second solve, of q^+.  f is taken at the
    mean of each cluster of q's eigenvalues; for q <= 1 these are the clusters of that route,
    since a gap d between two eigenvalues of q becomes a gap of at least d between their
    inverses, and the kernel's 0 stays apart from the inverses, which are at least 1.
    """
    return _root(q, None if p.twist is None else -p.twist, -0.5, what)


def seq_product(p: SequentialProduct, a: Element, b: Element) -> Element:
    """a o b.  The first argument must be positive; b may be any element."""
    check_same_algebra(p, a, b)
    return p.algebra._backend.quadratic(_product_root(p, a), b)


def multiplication_operator(p: SequentialProduct, a: Element) -> LinearMap:
    """L_a: b -> a o b as a linear map, in closed form from the product root at a."""
    check_same_algebra(p, a)
    matrix = p.algebra._backend.quadratic_operator(_product_root(p, a))
    return _linear_map(p.algebra, matrix, "L_a")


def commutes(p: SequentialProduct, a: Element, b: Element, tol: float = COMMUTE_TOL) -> bool:
    """||a o b - b o a|| <= tol, answered by ``norm_at_most``, which solves the norm only where
    its bounds leave the verdict open."""
    return norm_at_most(seq_product(p, a, b) - seq_product(p, b, a), tol)


def divide(p: SequentialProduct, q: Element, a: Element) -> Element:
    """The unique c below ceiling(q) with q o c = a, for a <= q.

    c = q^+ o a, the product at the pseudo-inverse: m a m^H for the root m at q^+
    (``_inverse_root``), which is exact on the support of q and annihilates its kernel.  One
    eigenvalue-only solve of q - a checks a <= q, and one solve of q gives m.
    """
    check_same_algebra(p, q, a)
    _require_spectrum(eigenvalue_range(q - a), -SUPPORT_TOL, math.inf,
                      "divide needs a <= q; offending eigenvalue of q - a is {:.3e}")
    return p.algebra._backend.quadratic(_inverse_root(p, q, "divide"), a)


def homogeneity_iso(a: Element, b: Element) -> LinearMap:
    """Order isomorphism Phi = L_b L_{a^-1} mapping a to b (standard product).

    Both arguments must be invertible; the explicit inverse is
    L_a L_{b^-1}.  L_{a^-1} = Q_{a^{-1/2}}, with a^{-1/2} from a's own solve
    (``_inverse_root``).
    """
    check_same_algebra(a, b)
    for name, x in (("a", a), ("b", b)):  # L_b and a^{-1/2} read the same solves
        _require_spectrum(frame_range(x), INVERTIBILITY_TOL, math.inf, "homogeneity_iso needs "
                          "invertible inputs; {} has min eigenvalue {:.3e}", name)
    std = SequentialProduct.standard(a.algebra)
    l_b = multiplication_operator(std, b)
    l_ainv = a.algebra._backend.quadratic_operator(_inverse_root(std, a, "homogeneity_iso"))
    return _linear_map(a.algebra, l_b.matrix @ l_ainv, "Phi")


def imaginary_power_conjugation(q: Element, t: float) -> LinearMap:
    """The conjugation b -> q^{it} b q^{-it} on a complex algebra."""
    alg = q.algebra
    if not alg.is_complex_kind():
        raise CapabilityError(f"imaginary powers need a complex algebra, not {alg}")
    matrix = alg._backend.quadratic_operator(_root(q, t, 0.0, "imaginary_power_conjugation"))
    return _linear_map(alg, matrix, f"Ad(q^{{i{t}}})")


def theta_between(p: SequentialProduct, p2: SequentialProduct, q: Element) -> LinearMap:
    """Theta_q = (L_q)^-1 L'_q relating two products at an invertible q, (L_q)^-1 the sandwich
    by p's root at q^-1 (``_inverse_root``), as ``homogeneity_iso`` forms L_{a^-1}.

    For p standard and p2 twisted(t) on a complex algebra this is b -> q^{it} b q^{-it}.
    """
    check_same_algebra(p, p2, q)
    # above SUPPORT_TOL, which the roots take as kernel; both roots read the same solve
    _require_spectrum(frame_range(q), math.nextafter(SUPPORT_TOL, math.inf), math.inf,
                      "theta_between needs an invertible q; min eigenvalue {:.3e}")
    l_qinv = q.algebra._backend.quadratic_operator(_inverse_root(p, q, "theta_between"))
    return _linear_map(q.algebra, l_qinv @ multiplication_operator(p2, q).matrix, "Theta_q")
