"""Spectral decomposition, functional calculus, floor/ceiling, pseudo-inverses.

Every self-adjoint element a decomposes as a = sum_i lambda_i p_i with the
lambda_i strictly decreasing and the p_i an orthogonal frame of sharp
effects summing to the identity (the kernel projection is kept, so the
functional calculus can evaluate f(0)).  Eigenvalues closer than the
clustering gap are merged into one idempotent, which keeps the projections
numerically exact when a degenerate eigenvalue is split by solver noise.

Every root, inverse root and phase of the kernel is one ``_root`` call; the floor,
ceiling, pseudo-inverse and dyadic approximants each apply a threshold function.  All of
these act on arrays of eigenvalues, so they also take stacked elements.
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
    """The one root function: eigenvalues (any shape) x -> x^{exponent} x^{it} on the support
    x > SUPPORT_TOL, complex with a phase (t None takes none); off it 1 for the phase (exponent
    0) and 0 for a root, which so annihilates the kernel as pseudo_inverse does.  The untwisted
    root and inverse root are sqrt(x) and 1 / sqrt(x), with no power: numpy's ``**`` with
    exponent 1.0 and -1.0 returns y and 1 / y, so their bits are the general form's."""
    if t is None and exponent == 0.5:
        return lambda lams: np.sqrt(np.where(lams > SUPPORT_TOL, lams, 0.0))
    if t is None and exponent == -0.5:
        def inverse_root(lams: np.ndarray) -> np.ndarray:
            support = lams > SUPPORT_TOL
            return np.where(support, 1.0 / np.sqrt(np.where(support, lams, 1.0)), 0.0)
        return inverse_root

    def power(lams: np.ndarray) -> np.ndarray:
        support = lams > SUPPORT_TOL
        x = np.where(support, lams, 1.0)
        m = np.sqrt(x) ** (2 * exponent)
        if t is not None:
            m = m * np.exp(1j * t * np.log(x))
        return np.where(support, m, 0.0 if exponent else 1.0)

    return power


def _root(a: Element, t: float | None, exponent: float, what: str) -> Element:
    """The one root path: m = a^{exponent} a^{it} (``_twisted_power``) from a's own solve, once
    ``what``'s positivity check has read that solve.  Exponent 1/2 gives ``sqrt_pos`` and the
    product root m, a o b = m b m^H (the backends' ``quadratic``); -1/2 with the twist -t gives
    it at the pseudo-inverse, and 0 the phase a^{it}."""
    _require_spectrum(frame_range(a), -SUPPORT_TOL, math.inf, _POSITIVE, what)
    return a.algebra._backend.functional(a, _twisted_power(t, exponent), DEFAULT_GAP)


def sqrt_pos(a: Element) -> Element:
    """Square root of a positive element (``_root``): 0 on the kernel, so it lives exactly on
    the support projection, and ||sqrt(a)*sqrt(a) - a|| <= 1e-9 (sqrt would amplify kernel
    noise eps to sqrt(eps))."""
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
    return _threshold(b, lambda x: (support := x > SUPPORT_TOL) / np.where(support, x, 1.0))


def _dyadic_count(x: np.ndarray, n: int) -> np.ndarray:
    """(The number of k in 1..n with x > k/n + DYADIC_GUARD) / n, for n = 2^m <= 1/DYADIC_GUARD.

    With j = floor(x n) clipped to 1..n, every k < j counts, as k/n + DYADIC_GUARD rounds below
    j/n <= x (the band is far narrower than a step), and no k > j does, as (j + 1)/n > x; one
    comparison settles k = j.  x n and j/n are exact.
    """
    j = np.clip(np.floor(x * n), 1, n)
    return (j - 1 + (x > j / n + DYADIC_GUARD)) / n


def dyadic_approximation(a: Element, n_max: int) -> list[Element]:
    """Increasing simple approximants q_{2^1}, ..., q_{2^n_max} below a.

    q_n = sum_{k=1}^{n} (1/n) p_n^k, p_n^k the spectral projection onto eigenvalues above
    k/n + DYADIC_GUARD (``_dyadic_count``), so ||a - q_{2^m}|| <= 2^-m + DYADIC_GUARD <= 2^(1-m)
    while 2^-m >= DYADIC_GUARD: ``n_max`` must be an int from 1 to 39 (not a bool).
    """
    top = int(-math.log2(DYADIC_GUARD))  # the last m with 2^-m >= DYADIC_GUARD
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)) or not 0 < n_max <= top:
        raise PreconditionError(f"n_max must be an integer >= 1 and <= {top}, got {n_max!r}")
    _require_spectrum(frame_range(a), -SUPPORT_TOL, 1.0 + SUPPORT_TOL,  # the approximants' solve
                      "dyadic approximation expects an effect; eigenvalue {:.3e} is outside [0, 1]")
    return [_threshold(a, lambda x, n=2 ** m: _dyadic_count(x, n)) for m in range(1, n_max + 1)]
