"""Spectral decomposition, functional calculus, floor/ceiling, pseudo-inverses.

Every self-adjoint element a decomposes as a = sum_i lambda_i p_i with the
lambda_i strictly decreasing and the p_i an orthogonal frame of sharp
effects summing to the identity (the kernel projection is kept, so the
functional calculus can evaluate f(0)).  Eigenvalues closer than the
clustering gap are merged into one idempotent, which keeps the projections
numerically exact when a degenerate eigenvalue is split by solver noise.

The square root, floor, ceiling, pseudo-inverse and dyadic approximants
each apply a threshold function on arrays, so they also take stacked
elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    SUPPORT_TOL,
    AlgebraDescriptor,
    Element,
    eigenvalue_range,
    jordan_product,
    min_eigenvalue,
    norm_at_most,
)
from .errors import DomainError, PreconditionError

#: default eigenvalue clustering gap
DEFAULT_GAP = 1e-8
#: eigenvalues within this of 1 belong to the floor projection
FLOOR_TOL = 1e-9
#: a dyadic approximant's projection keeps the eigenvalues above k/n by more than this guard band
DYADIC_GUARD = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues paired with their orthogonal sharp idempotents."""

    algebra: AlgebraDescriptor
    pairs: tuple[tuple[float, Element], ...]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(lam for lam, _ in self.pairs)

    @property
    def idempotents(self) -> tuple[Element, ...]:
        return tuple(p for _, p in self.pairs)


def spectral_decompose(a: Element, gap: float = DEFAULT_GAP) -> SpectralDecomposition:
    """Full spectral frame of a, eigenvalues in strictly decreasing order."""
    if gap <= 0:
        raise PreconditionError("clustering gap must be positive")
    alg = a.algebra
    values, frame, _ = alg._backend.spectral_pairs(a, gap)
    return SpectralDecomposition(alg, tuple(zip(values.tolist(), frame)))


def functional_calculus(a: Element, f, gap: float = DEFAULT_GAP) -> Element:
    """f(a) = sum f(lambda_i) p_i for a scalar function f on the spectrum.

    Eigenvalues of one block within ``gap`` of each other share the value of
    f at their mean.  Raises DomainError where f is undefined or not finite.
    """
    if gap <= 0:
        raise PreconditionError("clustering gap must be positive")

    def checked(lam: float) -> float:
        try:
            val = float(f(lam))
        except Exception as exc:
            raise DomainError(f"function undefined at eigenvalue {lam!r}: {exc}") from exc
        if not math.isfinite(val):
            raise DomainError(f"function not finite at eigenvalue {lam!r}")
        return val

    def on_points(lams: np.ndarray) -> np.ndarray:
        return np.array([checked(lam) for lam in lams.ravel().tolist()]).reshape(lams.shape)

    return a.algebra._backend.functional(a, on_points, gap)


def _threshold(a: Element, f) -> Element:
    """f(a) at the default gap for an array function f that is finite on finite input."""
    return a.algebra._backend.functional(a, f, DEFAULT_GAP)


def sqrt_pos(a: Element) -> Element:
    """Square root of a positive element.

    Spectrum at or below the support threshold is treated as kernel and
    mapped to 0 (sqrt would amplify kernel noise eps to sqrt(eps));
    negative round-off is clamped.  The root therefore lives exactly on
    the support projection, and ||sqrt(a)*sqrt(a) - a|| <= 1e-9.
    """
    lo = min_eigenvalue(a)
    if np.count_nonzero(~(lo >= -SUPPORT_TOL)):
        raise PreconditionError(
            f"square root needs a positive element; min eigenvalue {np.min(lo):.3e}")
    return _threshold(a, lambda x: np.sqrt(np.where(x > SUPPORT_TOL, x, 0.0)))


def floor_effect(a: Element) -> Element:
    """Largest sharp effect below a: the eigenvalue-1 spectral projection."""
    return _threshold(a, lambda x: (x >= 1.0 - FLOOR_TOL).astype(float))


def ceiling_effect(a: Element) -> Element:
    """Smallest sharp effect above a: the support projection."""
    return _threshold(a, lambda x: (x > SUPPORT_TOL).astype(float))


def is_sharp(a: Element, tol: float = SUPPORT_TOL) -> bool:
    """True iff a*a = a within tol (order-unit norm)."""
    return bool(norm_at_most(jordan_product(a, a) - a, tol))


def pseudo_inverse(b: Element) -> Element:
    """Positive c with b o c = c o b = ceiling(b); inverts the support spectrum."""
    # True / x is 1.0 / x, False / 1.0 is 0.0
    return _threshold(b, lambda x: (x > SUPPORT_TOL) / np.where(x > SUPPORT_TOL, x, 1.0))


def dyadic_approximation(a: Element, n_max: int) -> list[Element]:
    """Increasing simple approximants q_{2^1}, ..., q_{2^n_max} below a.

    q_n = sum_{k=1}^{n} (1/n) p_n^k where p_n^k is the spectral projection
    onto eigenvalues strictly above k/n (with the DYADIC_GUARD band), so
    ||a - q_{2^m}|| <= 2^(1-m).
    """
    lo, hi = eigenvalue_range(a)
    if np.count_nonzero(~((lo >= -SUPPORT_TOL) & (hi <= 1.0 + SUPPORT_TOL))):
        worst = np.ravel(np.where(-lo >= hi - 1.0, lo, hi))[np.argmax(np.maximum(-lo, hi - 1.0))]
        raise PreconditionError(
            f"dyadic approximation expects an effect; eigenvalue {worst:.3e} is outside [0, 1]")
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    return [_threshold(a, lambda x, n=2 ** m: np.count_nonzero(
                x[..., None] > np.arange(1, n + 1) / n + DYADIC_GUARD, -1) / n)
            for m in range(1, n_max + 1)]
