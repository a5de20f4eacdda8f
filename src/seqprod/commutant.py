"""Commutants, bicommutants and the finite commutative function model.

For matrix kinds, product commutation of effects coincides with matrix
commutation, and quantitatively: for positive a and b,

    ||a o b - b o a|| <= ||[a, b]|| (1 + sqrt(hi_a / lo_a) / 2 + sqrt(hi_b / lo_b) / 2)

with [lo, hi] the spectral ends (``_proved_commuting``).  So the commutant of
a set S is the null space of the stacked commutator maps X -> Xs - sX over
element coordinates.  A mutually
commuting family is simultaneously diagonalized into a frame of joint
eigenprojections; on that frame the sequential product becomes pointwise
multiplication of the joint eigenvalue vectors, i.e. the algebra generated
by S looks like functions on a finite discrete set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._backends import BOUND_MARGIN
from .algebra import (
    AlgebraDescriptor,
    Element,
    check_same_algebra,
    eigenvalue_range,
    from_coords,
    to_coords,
    trace,
    trace_inner_product,
)
from .errors import CapabilityError, PreconditionError
from .products import (
    COMMUTE_FLOOR,
    COMMUTE_ROUNDING,
    COMMUTE_TOL,
    SequentialProduct,
    commutes,
)
from .spectral import DEFAULT_GAP


@dataclass(frozen=True)
class FunctionModel:
    """Joint eigenprojection frame realizing a commutative family as functions.

    ``frame`` is a list of orthogonal sharp effects summing to the
    identity; ``to_function`` maps an element of the generated commutative
    algebra to its vector of joint eigenvalues and ``from_function``
    rebuilds the element.
    """

    algebra: AlgebraDescriptor
    frame: tuple[Element, ...]

    @property
    def points(self) -> int:
        return len(self.frame)

    def to_function(self, a: Element) -> np.ndarray:
        return np.array([trace_inner_product(a, p) / trace(p) for p in self.frame])

    def from_function(self, values) -> Element:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.points,):
            raise PreconditionError(f"expected {self.points} values")
        return from_coords(self.algebra, self.embedding_matrix @ values)

    @property
    def embedding_matrix(self) -> np.ndarray:
        """Coordinates of the frame projections, one column per point."""
        return np.column_stack([to_coords(p) for p in self.frame])


def _require_commutant(alg: AlgebraDescriptor, what: str):
    if not alg._backend.has_commutant:
        raise CapabilityError(f"{what} supports matrix kinds and spin factors, not {alg}")


def commutant_basis(elems: list[Element]) -> list[Element]:
    """Orthonormal basis of the self-adjoint elements commuting with all of S."""
    if not elems:
        raise PreconditionError("commutant of an empty set is the whole algebra; pass [identity]")
    alg = check_same_algebra(*elems)
    _require_commutant(alg, "commutant_basis")
    backend = alg._backend
    rows = backend.commutant_rows(alg, elems)
    basis = backend.from_coords(alg, rows)  # one stack, a trial per row
    return [backend.take(basis, i) for i in range(len(rows))]


def _proved_commuting(a: Element, b: Element) -> bool:
    """True when a bound proves that ``commutes`` holds for a and b under the standard product,
    without building either product; False leaves the pair open.

    With a o b = sqrt(a) b sqrt(a), sqrt(a) b sqrt(a) = ab - sqrt(a) [sqrt(a), b], so

        a o b - b o a = [a, b] - sqrt(a) [sqrt(a), b] + sqrt(b) [sqrt(b), a],
        ||a o b - b o a|| <= ||[a, b]|| + ||sqrt(a)|| ||[sqrt(a), b]||
                             + ||sqrt(b)|| ||[sqrt(b), a]||.

    In a's eigenbasis [sqrt(a), b]_ij = [a, b]_ij / (sqrt(l_i) + sqrt(l_j)): the Schur product
    of [a, b] with the kernel 1 / (sqrt(l_i) + sqrt(l_j)), the integral over s > 0 of
    exp(-s sqrt(l_i)) exp(-s sqrt(l_j)), which is positive semidefinite.  A positive
    semidefinite Schur multiplier has norm at most its largest diagonal entry,
    1 / (2 sqrt(lo_a)), and ||sqrt(a)|| = sqrt(hi_a), so

        ||a o b - b o a|| <= ||[a, b]|| (1 + sqrt(hi_a / lo_a) / 2 + sqrt(hi_b / lo_b) / 2).

    The backends bound ||[a, b]|| by its Frobenius norm on a matrix block, by 2 |v ^ w| (exact,
    in the Clifford representation) on a spin factor, and take a direct sum's largest block
    bound (``commutation_bound``).  The pair is settled when the bound plus the allowance
    COMMUTE_ROUNDING max(1, ||a||) max(1, ||b||) is at most COMMUTE_TOL (1 - BOUND_MARGIN).
    The allowance must dominate three errors.  The first is the rounding of the computed
    commutator, times the bracket, which COMMUTE_FLOOR keeps at most
    1 + sqrt(||a|| / 4e-6) + sqrt(||b|| / 4e-6) (1001 on effects).  The second is the
    eigensolver's error in the spectral ends, which moves the bracket by a relative
    m eps ||a|| / lo on order m: under 1e-8 at the floor on order 32, so under 1e-16 on a
    bound near COMMUTE_TOL.  The third is the rounding of the roots and sandwiches that
    ``commutes`` would compute, by which its solved norm may exceed the exact one.  Each
    scales with ||a|| ||b||.  On effects of orders 16 to 32 with an eigenvalue at the floor,
    the first measured at most 3e-14 and the third 2e-15.  The floor is above SUPPORT_TOL, so
    the root that ``commutes`` takes is sqrt(a) on the whole spectrum.

    The ends are read (and solved, once per element) in the order ``commutes`` would solve
    them, and an a below the floor goes to ``commutes`` before b is read, so every error is the
    one ``commutes`` raises.
    """
    lo_a, hi_a = eigenvalue_range(a)
    if not lo_a >= COMMUTE_FLOOR:
        return False
    lo_b, hi_b = eigenvalue_range(b)
    if not lo_b >= COMMUTE_FLOOR:
        return False
    allowance = COMMUTE_ROUNDING * max(1.0, hi_a) * max(1.0, hi_b)
    bound = a.algebra._backend.commutation_bound(a, b)
    return bool(bound + allowance <= COMMUTE_TOL * (1.0 - BOUND_MARGIN))


def _require_mutually_commuting(elems, alg):
    """Every pair commutes: proved by ``_proved_commuting``, else decided by ``commutes``."""
    std = SequentialProduct.standard(alg)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            a, b = elems[i], elems[j]
            if not (_proved_commuting(a, b) or commutes(std, a, b)):
                raise PreconditionError(f"elements {i} and {j} do not commute")


def bicommutant_basis(elems: list[Element]) -> list[Element]:
    """Basis of (S')', for a mutually commuting S."""
    if not elems:
        raise PreconditionError("bicommutant of an empty set is trivial; pass [identity]")
    alg = check_same_algebra(*elems)
    _require_commutant(alg, "bicommutant_basis")
    _require_mutually_commuting(elems, alg)
    return commutant_basis(commutant_basis(elems))


def simultaneous_diagonalize(elems: list[Element], gap: float = DEFAULT_GAP) -> FunctionModel:
    """Joint eigenprojection frame of a mutually commuting family."""
    if not elems:
        raise PreconditionError("cannot diagonalize an empty family; pass [identity]")
    if gap <= 0:
        raise PreconditionError("clustering gap must be positive")
    alg = check_same_algebra(*elems)
    _require_mutually_commuting(elems, alg)
    return FunctionModel(alg, tuple(alg._backend.joint_frame(alg, elems, gap)))
