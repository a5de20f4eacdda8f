"""Commutants, bicommutants and the finite commutative function model.

For matrix kinds, product commutation of effects coincides with matrix
commutation, so the commutant of a set S is the null space of the stacked
commutator maps X -> Xs - sX over element coordinates.  A mutually
commuting family is simultaneously diagonalized into a frame of joint
eigenprojections; on that frame the sequential product becomes pointwise
multiplication of the joint eigenvalue vectors, i.e. the algebra generated
by S looks like functions on a finite discrete set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    check_same_algebra,
    from_coords,
    to_coords,
    trace,
    trace_inner_product,
)
from .errors import CapabilityError, PreconditionError
from .products import SequentialProduct, commutes
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


def _require_mutually_commuting(elems, alg):
    std = SequentialProduct.standard(alg)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if not commutes(std, elems[i], elems[j]):
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
