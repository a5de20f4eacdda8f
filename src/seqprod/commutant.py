"""Commutants, bicommutants and the finite commutative function model.

Two elements commute when their ambient commutator [a, b] vanishes; for effects under the
standard product that is product commutation, a o b = b o a, and the auditor checks that the
two verdicts agree.  So the commutant of a set S is the null space of the stacked commutator
maps X -> Xs - sX over element coordinates.  A mutually commuting family is simultaneously
diagonalized into a frame of joint eigenprojections; on that frame the sequential product
becomes pointwise multiplication of the joint eigenvalue vectors, i.e. the algebra generated
by S looks like functions on a finite discrete set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._backends import _numbers
from .algebra import (
    AlgebraDescriptor,
    Element,
    check_same_algebra,
    from_coords,
    to_coords,
    trace,
    trace_inner_product,
)
from .errors import NumericalFailureError, PreconditionError
from .products import COMMUTE_TOL
from .spectral import DEFAULT_GAP, _require_gap


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
        _family([a], "to_function")
        return np.array([trace_inner_product(a, p) / trace(p) for p in self.frame])

    def from_function(self, values) -> Element:
        values = _numbers(values, float, (self.points,), "function values on {}", self.algebra)
        return from_coords(self.algebra, self.embedding_matrix @ values)

    @property
    def embedding_matrix(self) -> np.ndarray:
        """Coordinates of the frame projections, one column per point."""
        return np.column_stack([to_coords(p) for p in self.frame])


def _family(elems: list[Element], what: str) -> AlgebraDescriptor:
    """The algebra of a family (``check_same_algebra``): not empty, no stacked element."""
    if not elems:
        raise PreconditionError(f"{what} needs a non-empty family; pass [identity]")
    alg = check_same_algebra(*elems)
    for i, x in enumerate(elems):
        if alg._backend.is_stack(x):
            raise PreconditionError(f"{what} takes single elements; element {i} is a stack")
    return alg


def commutant_basis(elems: list[Element]) -> list[Element]:
    """Orthonormal basis of the self-adjoint elements commuting with all of S."""
    alg = _family(elems, "commutant_basis")
    backend = alg._backend
    rows = backend.commutant_rows(alg, elems)
    basis = backend.from_coords(alg, rows)  # one stack, a trial per row
    return [backend.take(basis, i) for i in range(len(rows))]


def _require_mutually_commuting(elems, alg):
    """Every pair commutes: its commutator norm (``commutator_norm``) is at most COMMUTE_TOL,
    the auditor's ambient test.  A norm that is not finite raises NumericalFailureError."""
    norm = alg._backend.commutator_norm
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            c = norm(elems[i], elems[j])
            if not math.isfinite(c):
                raise NumericalFailureError(
                    f"the commutator of elements {i} and {j} is not finite")
            if c > COMMUTE_TOL:
                raise PreconditionError(f"elements {i} and {j} do not commute")


def bicommutant_basis(elems: list[Element]) -> list[Element]:
    """Basis of (S')', for a mutually commuting S."""
    alg = _family(elems, "bicommutant_basis")
    _require_mutually_commuting(elems, alg)
    return commutant_basis(commutant_basis(elems))


def simultaneous_diagonalize(elems: list[Element], gap: float = DEFAULT_GAP) -> FunctionModel:
    """Joint eigenprojection frame of a mutually commuting family."""
    alg = _family(elems, "simultaneous_diagonalize")
    _require_gap(gap)
    _require_mutually_commuting(elems, alg)
    return FunctionModel(alg, tuple(alg._backend.joint_frame(alg, elems, gap)))
