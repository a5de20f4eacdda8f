"""Spectral decomposition, functional calculus, floor/ceiling, pseudo-inverses.

Every self-adjoint element a decomposes as a = sum_i lambda_i p_i with the
lambda_i strictly decreasing and the p_i an orthogonal frame of sharp
effects summing to the identity (the kernel projection is kept, so the
functional calculus can evaluate f(0)).  Eigenvalues closer than the
clustering gap are merged into one idempotent, which keeps the projections
numerically exact when a degenerate eigenvalue is split by solver noise.

Every root, inverse root and phase of the kernel (the square root here, the
products' roots and phases in ``products``) is one call of ``_root``: the
positivity check on the solve the root reads, then the one root function
``_twisted_power`` of the eigenvalues.  The floor, ceiling, pseudo-inverse
and dyadic approximants each apply a threshold function.  All of these act
on arrays of eigenvalues, so they also take stacked elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    SUPPORT_TOL,
    AlgebraDescriptor,
    Element,
    _require_spectrum,
    frame_range,
    jordan_product,
    norm_at_most,
)
from .errors import DomainError, PreconditionError

#: default eigenvalue clustering gap
DEFAULT_GAP = 1e-8
#: eigenvalues within this of 1 belong to the floor projection
FLOOR_TOL = 1e-9
#: a dyadic approximant's projection keeps the eigenvalues above k/n by more than this guard band
DYADIC_GUARD = 1e-12
#: the message of a root's or pseudo-inverse's positivity check
_POSITIVE = "{} needs a positive element; min eigenvalue {:.3e}"


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


def _require_gap(gap: float) -> None:
    """PreconditionError unless the clustering gap is finite and positive."""
    if not 0.0 < gap < math.inf:
        raise PreconditionError(f"clustering gap must be finite and positive, got {gap!r}")


def spectral_decompose(a: Element, gap: float = DEFAULT_GAP) -> SpectralDecomposition:
    """Full spectral frame of a, eigenvalues in strictly decreasing order."""
    _require_gap(gap)
    alg = a.algebra
    values, frame, _ = alg._backend.spectral_pairs(a, gap)
    return SpectralDecomposition(alg, tuple(zip(values.tolist(), frame)))


def functional_calculus(a: Element, f, gap: float = DEFAULT_GAP) -> Element:
    """f(a) = sum f(lambda_i) p_i for a scalar function f on the spectrum.

    Eigenvalues of one block within ``gap`` of each other share the value of
    f at their mean.  Raises DomainError where f is undefined or not finite.
    """
    _require_gap(gap)

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


def _twisted_power(t: float | None, exponent: float):
    """The root function of the kernel, m in x -> m x m^H: m = a^{exponent} a^{it}, for an
    exponent of 1/2 (the square root and the product root), 0 (the phase a^{it}) or -1/2 (the
    product root at the pseudo-inverse, with the twist -t); t None (the standard product)
    takes no phase.

    It maps an array of eigenvalues, of any shape, to values of that shape, complex where a
    phase is taken.  The phase is taken on the support of a.  Off it m is 1 for the phase and 0
    for a root, so the root annihilates the kernel (spectrum <= support threshold) as
    pseudo_inverse does.
    """
    def power(lams: np.ndarray) -> np.ndarray:
        support = lams > SUPPORT_TOL
        x = np.where(support, lams, 1.0)
        m = np.sqrt(x) ** (2 * exponent)
        if t is not None:
            m = m * np.exp(1j * t * np.log(x))
        return np.where(support, m, 0.0 if exponent else 1.0)

    return power


def _root(a: Element, t: float | None, exponent: float, what: str) -> Element:
    """a^{exponent} a^{it} (``_twisted_power``) from a's own solve, once ``what``'s positivity
    check has read that solve: every root, inverse root and phase of the kernel."""
    _require_spectrum(frame_range(a), -SUPPORT_TOL, math.inf, _POSITIVE, what)
    return a.algebra._backend.functional(a, _twisted_power(t, exponent), DEFAULT_GAP)


def sqrt_pos(a: Element) -> Element:
    """Square root of a positive element: the standard product's root at a (``_root``).

    Spectrum at or below the support threshold is treated as kernel and
    mapped to 0 (sqrt would amplify kernel noise eps to sqrt(eps));
    negative round-off is clamped.  The root therefore lives exactly on
    the support projection, and ||sqrt(a)*sqrt(a) - a|| <= 1e-9.
    """
    return _root(a, None, 0.5, "square root")


def floor_effect(a: Element) -> Element:
    """Largest sharp effect below a: the eigenvalue-1 spectral projection."""
    return _threshold(a, lambda x: (x >= 1.0 - FLOOR_TOL).astype(float))


def ceiling_effect(a: Element) -> Element:
    """Smallest sharp effect above a: the support projection."""
    return _threshold(a, lambda x: (x > SUPPORT_TOL).astype(float))


def is_sharp(a: Element, tol: float = SUPPORT_TOL) -> bool:
    """True iff a*a = a within tol (order-unit norm); one verdict per trial for a stack."""
    return norm_at_most(jordan_product(a, a) - a, tol)


def pseudo_inverse(b: Element) -> Element:
    """Positive c with b o c = c o b = ceiling(b) for a positive b; inverts the support spectrum.

    Like a root, it refuses an eigenvalue below -SUPPORT_TOL.  ``floor_effect`` and
    ``ceiling_effect`` take any element: an eigenvalue below the threshold is simply outside
    the projection (the ceiling of diag(-0.5, 0.3) is diag(0, 1)).
    """
    _require_spectrum(frame_range(b), -SUPPORT_TOL, math.inf, _POSITIVE, "pseudo_inverse")
    # True / x is 1.0 / x, False / 1.0 is 0.0
    return _threshold(b, lambda x: (x > SUPPORT_TOL) / np.where(x > SUPPORT_TOL, x, 1.0))


def dyadic_approximation(a: Element, n_max: int) -> list[Element]:
    """Increasing simple approximants q_{2^1}, ..., q_{2^n_max} below a.

    q_n = sum_{k=1}^{n} (1/n) p_n^k where p_n^k is the spectral projection
    onto eigenvalues strictly above k/n (with the DYADIC_GUARD band), so
    ||a - q_{2^m}|| <= 2^(1-m).  ``n_max`` must be an int of at least 1 (not a bool).
    """
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)) or n_max < 1:
        raise PreconditionError(f"n_max must be an integer >= 1, got {n_max!r}")
    _require_spectrum(frame_range(a), -SUPPORT_TOL, 1.0 + SUPPORT_TOL,  # the approximants' solve
                      "dyadic approximation expects an effect; eigenvalue {:.3e} is outside [0, 1]")
    return [_threshold(a, lambda x, n=2 ** m: np.count_nonzero(
                x[..., None] > np.arange(1, n + 1) / n + DYADIC_GUARD, -1) / n)
            for m in range(1, n_max + 1)]
