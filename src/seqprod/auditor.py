"""Seeded property-based auditing of the kernel's structural laws.

Each law is one row of ``LAWS``: a generator, an evaluator, and the default
trials and tolerance.  ``generate`` manufactures inputs satisfying the law's
hypotheses from per-trial RNGs, ``evaluate`` computes a residual from the
inputs alone.  A trial fails when its residual exceeds the row tolerance; the
first failing trial's inputs are serialized as a witness, so any reported
violation can be replayed standalone through the module operations.

Every law runs in chunks of up to 256 trials (a default row is one chunk), drawn
field by field, each trial from its own Generator: ``default_rng((seed, ordinal,
i))`` bit for bit, seeded from ``trial_seed_words`` derived as each chunk starts
and reused when it is redone trial by trial.  Each trial makes exactly the draws
it makes alone; the linear algebra and one evaluator call then run on elements,
linear maps and spectral frames with a leading trial axis (a shorter frame
padded with zero idempotents).  The first trial of a chunk over the tolerance
gives the verdict, so verdicts, maximal residuals and witnesses are those of
trial-by-trial runs, bit for bit.  A chunk that raises is redone as chunks of
one, so an error surfaces at its own trial; a witness is its trial taken out of
the stack, and replay evaluates its plain inputs with the same evaluator.

Expected-fail rows turn the suite into a two-sided oracle: the twisted
products are expected to break invariance under the transpose
isomorphism, symmetry of the trace inner product, and invertibility
preservation, and a demo that silently starts passing fails the run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import partial, reduce
from itertools import combinations, count
from typing import Callable

import numpy as np

from . import serialize
from ._backends import _config_int
from .algebra import (
    SUPPORT_TOL,
    AlgebraDescriptor,
    Element,
    LinearMap,
    _linear_map,
    eigenvalue_range,
    identity,
    jordan_mult_operator,
    jordan_product,
    make_order_iso,
    map_distance,
    min_eigenvalue,
    norm_at_most,
    order_unit_norm,
    parse_algebra,
    quadratic_operator,
    quadratic_rep,
    _random_effects,
    rel_residual,
    trace_inner_product,
)
from .errors import CapabilityError, ConfigError, DomainError
from .products import (
    COMMUTE_TOL,
    SequentialProduct,
    commutes,
    divide,
    homogeneity_iso,
    imaginary_power_conjugation,
    multiplication_operator,
    parse_product,
    seq_product,
    theta_between,
)
from .spectral import (
    DEFAULT_GAP,
    ceiling_effect,
    dyadic_approximation,
    floor_effect,
    pseudo_inverse,
)


class LawId(str, Enum):
    SEA1 = "SEA1"
    SEA2 = "SEA2"
    SEA3 = "SEA3"
    SEA4 = "SEA4"
    SEA5 = "SEA5"
    SCALAR_LINEARITY = "SCALAR_LINEARITY"
    PRODUCT_LE_LEFT = "PRODUCT_LE_LEFT"
    MONOTONE_RIGHT = "MONOTONE_RIGHT"
    SHARP_PROPS = "SHARP_PROPS"
    FLOOR_LIMIT = "FLOOR_LIMIT"
    DYADIC_BOUND = "DYADIC_BOUND"
    SPECTRAL_RECON = "SPECTRAL_RECON"
    FUNDAMENTAL_EQ = "FUNDAMENTAL_EQ"
    COMMUTE_EQUIV = "COMMUTE_EQUIV"
    SELF_DUALITY = "SELF_DUALITY"
    HOMOGENEITY = "HOMOGENEITY"
    PSEUDO_INVERSE = "PSEUDO_INVERSE"
    DIVIDE = "DIVIDE"
    INVARIANCE = "INVARIANCE"
    SYMMETRY = "SYMMETRY"
    INVERTIBILITY_PRES = "INVERTIBILITY_PRES"
    QUADRATIC_LAW = "QUADRATIC_LAW"
    THETA_STRUCTURE = "THETA_STRUCTURE"


ALL_LAWS = list(LawId)

#: the SEA axioms and scalar linearity, which the twisted products are audited on too
_AXIOMS = (LawId.SEA1, LawId.SEA2, LawId.SEA3, LawId.SEA4, LawId.SEA5, LawId.SCALAR_LINEARITY)
#: the laws the twisted products break, and the trials and tol of their expected-fail rows
FALSIFIED = (LawId.INVARIANCE, LawId.SYMMETRY, LawId.INVERTIBILITY_PRES)
FALSIFY_TRIALS, FALSIFY_TOL = 10, 1e-3
#: trials per stack: every default row (200 trials at most) runs as one
_CHUNK = 256
#: COMMUTE_EQUIV redraws a generic pair until its ambient commutator norm is at least this
NONCOMMUTING_MIN = 1e-3
#: SELF_DUALITY's witness of a negative eigenvalue must have tr(a p) below minus this
SELF_DUALITY_WITNESS_TOL = 1e-10

#: reference algebras covered by the default suite
REFERENCE_ALGEBRAS = ("real:4", "complex:4", "quat:3", "spin:5", "sum(complex:2,real:3)")


# ---------------------------------------------------------------------------
# Input manufacturing
# ---------------------------------------------------------------------------

def _poly_effect(rngs, a: Element) -> Element:
    """Clipped quadratic of each trial of a, its coefficients drawn by the trial's Generator.

    It commutes with a, has spectrum in [0.05, 0.95], and raises DomainError if not finite.
    """
    c0, c1, c2 = np.array([rng.uniform(-1.0, 1.0, 3) for rng in rngs]).T

    def clipped(x: np.ndarray) -> np.ndarray:
        val = np.minimum(0.95, np.maximum(0.05, c0 + c1 * x + c2 * x * x))
        if not np.isfinite(val).all():
            raise DomainError("clipped quadratic not finite on the spectrum")
        return val

    return a.algebra._backend.functional(a, clipped, DEFAULT_GAP)


def _trial(x, k: int):
    """Trial k of one stacked input: an Element, a map stacked by ``_stack`` or a list."""
    if isinstance(x, Element):
        return x.algebra._backend.take(x, k)
    if isinstance(x, LinearMap):
        return LinearMap(x.algebra, x.matrix[k], x.label[k])
    return x[k]


def _take(inputs: dict, k: int) -> dict:
    """Trial k of stacked inputs."""
    return {key: _trial(x, k) for key, x in inputs.items()}


def _stack(alg: AlgebraDescriptor, values: list):
    """One stacked input of the trials' ``values``; maps keep one label per trial."""
    if isinstance(values[0], Element):
        return alg._backend.stack(alg, values)
    if isinstance(values[0], LinearMap):
        return _linear_map(alg, np.stack([m.matrix for m in values]),
                           tuple(m.label for m in values))
    return list(values)


def _sum_triple(rngs, p, alg, trials, params):
    return {"a": _random_effects(alg, rngs),
            "b": _random_effects(alg, rngs) * 0.5,
            "c": _random_effects(alg, rngs) * 0.5}


def _fields(**profiles):
    """The generator that draws one stack of effects per field, of its profile, in field order."""
    def generate(rngs, p, alg, trials, params):
        return {key: _random_effects(alg, rngs, profile) for key, profile in profiles.items()}
    return generate


def _orthogonal_supports(rngs, p, alg, trials, params):
    proj = _random_effects(alg, rngs, "sharp")
    x = _random_effects(alg, rngs, "invertible")
    y = _random_effects(alg, rngs, "invertible")
    return {"a": quadratic_rep(proj, x),
            "b": quadratic_rep(identity(alg) - proj, y)}


def _commuting_triple(rngs, p, alg, trials, params):
    a = _random_effects(alg, rngs, "invertible")
    return {"a": a, "b": _poly_effect(rngs, a), "c": _random_effects(alg, rngs)}


def _weighted(frame, weights: np.ndarray) -> Element:
    """sum_j w_j p_j per trial, with weights (..., len(frame))."""
    scale = frame[0].algebra._backend.scale_trials
    return reduce(Element.__add__, (scale(p, weights[..., j]) for j, p in enumerate(frame)))


def _drawn_frame(alg: AlgebraDescriptor, rngs, draw) -> tuple:
    """Each trial's spectral frame of an invertible base, and weights ``draw(rng, n)`` that the
    trial's Generator draws for its frame of length n, padded with 0.0."""
    base = _random_effects(alg, rngs, "invertible")
    _, frame, counts = alg._backend.spectral_pairs(base, DEFAULT_GAP)
    weights = np.zeros((len(rngs), counts.max()))
    for row, rng, n in zip(weights, rngs, counts.tolist()):
        row[:n] = draw(rng, n)
    return frame, weights


def _pinched(rngs, p, alg, trials, params):
    """c from the spectral frame of an invertible base, a and b pinched by that frame."""
    frame, alphas = _drawn_frame(alg, rngs, lambda rng, n: rng.uniform(0.05, 0.95, n))
    x, y = (_random_effects(alg, rngs, "invertible") for _ in range(2))
    return {"c": _weighted(frame, alphas),
            "a": reduce(Element.__add__, (quadratic_rep(q, x) for q in frame)) * 0.5,
            "b": reduce(Element.__add__, (quadratic_rep(q, y) for q in frame)) * 0.5}


def _monotone(rngs, p, alg, trials, params):
    b = _random_effects(alg, rngs)
    x = _random_effects(alg, rngs)
    return {"a": seq_product(p, b, x), "b": b, "c": _random_effects(alg, rngs)}


def _sharp(rngs, p, alg, trials, params):
    proj = _random_effects(alg, rngs, "sharp")
    comp = identity(alg) - proj
    x = _random_effects(alg, rngs, "invertible")
    y = _random_effects(alg, rngs, "invertible")
    return {"p": proj,
            "a_up": proj + quadratic_rep(comp, x),
            "a_dn": quadratic_rep(proj, y),
            "a_neg": proj * 0.9 + quadratic_rep(comp, x)}


def _floor(rngs, p, alg, trials, params):
    """Each trial's base frame weighted by eigenvalues its Generator draws, one per idempotent."""
    frame, lams = _drawn_frame(alg, rngs, lambda rng, n: [
        1.0 if rng.uniform() < 0.4 else float(rng.uniform(0.05, 0.7)) for _ in range(n)])
    return {"a": _weighted(frame, lams)}


def _by_turn(alg, rngs, trials, profiles) -> Element:
    """Trial i's effect of profile ``profiles[i % len(profiles)]``, each profile drawn as one
    stack of its trials and the stacks interleaved."""
    backend = alg._backend
    turns = [i % len(profiles) for i in trials]
    stacks = [_random_effects(alg, [rng for rng, t in zip(rngs, turns) if t == turn], profile)
              if turn in turns else None for turn, profile in enumerate(profiles)]
    ranks = [count() for _ in profiles]  # a trial's place among the trials of its turn
    return backend.stack(alg, [backend.take(stacks[t], next(ranks[t])) for t in turns])


def _quotient(rngs, p, alg, trials, params):
    """q generic on even trials and singular on odd ones."""
    q = _by_turn(alg, rngs, trials, ("generic", "singular"))
    return {"q": q, "a": seq_product(p, q, _random_effects(alg, rngs))}


def _profiled(rngs, p, alg, trials, params):
    """a generic, singular or sharp by turns, so that frames of every shape occur."""
    return {"a": _by_turn(alg, rngs, trials, ("generic", "singular", "sharp"))}


def _commute_pairs(rngs, p, alg, trials, params):
    """A commuting pair on even trials; on odd ones a generic pair, redrawn (the open trials
    in one round) until its commutator norm reaches NONCOMMUTING_MIN."""
    backend, pairs = alg._backend, {}
    even = [k for k, i in enumerate(trials) if i % 2 == 0]
    if even:
        a = _random_effects(alg, [rngs[k] for k in even], "invertible")
        b = _poly_effect([rngs[k] for k in even], a)
        pairs.update((k, (backend.take(a, j), backend.take(b, j))) for j, k in enumerate(even))
    for _ in range(50):
        todo = [k for k in range(len(rngs)) if k not in pairs]
        if not todo:
            break
        a = _random_effects(alg, [rngs[k] for k in todo])
        b = _random_effects(alg, [rngs[k] for k in todo])
        norms = backend.commutator_norm(a, b)  # one norm per trial
        pairs.update((k, (backend.take(a, j), backend.take(b, j)))
                     for j, k in enumerate(todo) if norms[j] >= NONCOMMUTING_MIN)
    if len(pairs) < len(rngs):
        raise CapabilityError(f"could not draw a non-commuting pair on {alg}")
    a, b = zip(*(pairs[k] for k in range(len(rngs))))
    return {"a": _stack(alg, a), "b": _stack(alg, b),
            "expected": ["generic" if i % 2 else "commuting" for i in trials]}


def _scaled_squares(alg: AlgebraDescriptor, rngs) -> Element:
    """The Jordan square of a random element per trial, scaled down to order-unit norm at most 1."""
    e = alg._backend.random_elements(alg, rngs)
    sq = jordan_product(e, e)
    return alg._backend.scale_trials(sq, 1.0 / np.maximum(1.0, order_unit_norm(sq)))


def _homogeneity(rngs, p, alg, trials, params):
    inputs = _fields(a="invertible", b="invertible")(rngs, p, alg, trials, params)
    for k in range(3):
        inputs[f"s{k}"] = _scaled_squares(alg, rngs)
    inputs["s3"] = _random_effects(alg, rngs)
    inputs["s4"] = _stack(alg, [identity(alg)] * len(rngs))
    return inputs


def _invariance(rngs, p, alg, trials, params):
    """Each trial's order isomorphism, of the requested kind or else of its turn among the
    available ones, from a seed its Generator draws first; then a and b."""
    kinds = list(alg._backend.order_isos(alg))
    if not kinds:
        raise CapabilityError(f"no order isomorphism family is available on {alg}")
    requested = params.get("iso")
    if requested is not None and requested not in kinds:
        raise CapabilityError(f"isomorphism kind {requested!r} is not available on {alg}")
    phis = [make_order_iso(alg, kinds[i % len(kinds)] if requested is None else requested,
                           seed=int(rng.integers(2 ** 31))) for rng, i in zip(rngs, trials)]
    return {"a": _random_effects(alg, rngs), "b": _random_effects(alg, rngs),
            "phi": _stack(alg, phis)}


def _theta(rngs, p, alg, trials, params):
    a = _random_effects(alg, rngs, "invertible")
    return {"q": _random_effects(alg, rngs, "invertible"), "a": a, "b": _poly_effect(rngs, a)}


def _self_duality(rngs, p, alg, trials, params):
    """Two Jordan squares x and y, and a = g - (min eig g + 0.2) for g of norm at most 1, so a
    has a negative eigenvalue."""
    backend = alg._backend
    g = backend.random_elements(alg, rngs)
    g = backend.scale_trials(g, 1.0 / np.maximum(1.0, order_unit_norm(g)))
    a = g - backend.scale_trials(identity(alg), min_eigenvalue(g) + 0.2)
    return {"x": _scaled_squares(alg, rngs), "y": _scaled_squares(alg, rngs), "a": a}


# ---------------------------------------------------------------------------
# Law evaluations (residual from inputs alone)
# ---------------------------------------------------------------------------

def _worst(*residuals):
    """The largest residual, per trial; NaN if any is (the builtin max drops a later NaN)."""
    return reduce(np.maximum, residuals)


def _ev_sea1(p, alg, inp):
    a, b, c = inp["a"], inp["b"], inp["c"]
    return rel_residual(seq_product(p, a, b + c), seq_product(p, a, b) + seq_product(p, a, c))


def _ev_sea2(p, alg, inp):
    return rel_residual(seq_product(p, identity(alg), inp["a"]), inp["a"])


def _ev_sea3(p, alg, inp):
    a, b = inp["a"], inp["b"]
    return _worst(order_unit_norm(seq_product(p, a, b)), order_unit_norm(seq_product(p, b, a)))


def _ev_sea4(p, alg, inp):
    a, b, c = inp["a"], inp["b"], inp["c"]
    b_perp = identity(alg) - b
    ab = seq_product(p, a, b)
    return _worst(
        rel_residual(ab, seq_product(p, b, a)),
        rel_residual(seq_product(p, a, b_perp), seq_product(p, b_perp, a)),
        rel_residual(seq_product(p, a, seq_product(p, b, c)), seq_product(p, ab, c)))


def _ev_sea5(p, alg, inp):
    c, a, b = inp["c"], inp["a"], inp["b"]
    ab = seq_product(p, a, b)
    return _worst(
        rel_residual(seq_product(p, c, a), seq_product(p, a, c)),
        rel_residual(seq_product(p, c, b), seq_product(p, b, c)),
        rel_residual(seq_product(p, c, ab), seq_product(p, ab, c)),
        rel_residual(seq_product(p, c, a + b), seq_product(p, a + b, c)))


def _ev_scalar(p, alg, inp):
    a, b = inp["a"], inp["b"]
    ab = seq_product(p, a, b)
    worst = 0.0
    for lam in (0.0, 0.25, 0.5, 1.0):
        ab_lam = ab * lam
        worst = _worst(worst,
                       rel_residual(seq_product(p, a * lam, b), ab_lam),
                       rel_residual(seq_product(p, a, b * lam), ab_lam))
    return worst


def _ev_product_le(p, alg, inp):
    a, b = inp["a"], inp["b"]
    return _worst(0.0, -min_eigenvalue(a - seq_product(p, a, b)))


def _ev_monotone(p, alg, inp):
    a, b, c = inp["a"], inp["b"], inp["c"]
    hyp = _worst(0.0, -min_eigenvalue(b - a))
    return _worst(hyp, -min_eigenvalue(seq_product(p, c, b) - seq_product(p, c, a)), 0.0)


def _ev_sharp(p, alg, inp):
    proj, a_up, a_dn, a_neg = inp["p"], inp["a_up"], inp["a_dn"], inp["a_neg"]
    res = _worst(
        rel_residual(seq_product(p, proj, a_up), proj),
        rel_residual(seq_product(p, a_up, proj), proj),
        rel_residual(seq_product(p, proj, a_dn), a_dn),
        rel_residual(seq_product(p, a_dn, proj), a_dn),
        _worst(0.0, -min_eigenvalue(a_up - proj)),
        _worst(0.0, -min_eigenvalue(proj - a_dn)))
    # two-sided: p <= a_neg fails, so p o a_neg must stay away from p
    near = norm_at_most(seq_product(p, proj, a_neg) - proj, 0.05, strict=True)
    return np.where(near, _worst(res, 1.0), res)


def _ev_floor(p, alg, inp):
    a = inp["a"]
    fl = floor_effect(a)
    power = a
    monotone = 0.0
    for _ in range(6):
        nxt = seq_product(p, power, power)
        monotone = _worst(monotone, -min_eigenvalue(power - nxt), 0.0)
        power = nxt
    sharpness = order_unit_norm(jordan_product(fl, fl) - fl)
    return _worst(rel_residual(power, fl), monotone, sharpness)


def _ev_dyadic(p, alg, inp):
    a = inp["a"]
    approx = dyadic_approximation(a, 8)
    worst = 0.0
    prev = None
    for m, q in enumerate(approx, start=1):
        lo, hi = eigenvalue_range(a - q)  # one solve gives the norm and the min eigenvalue
        worst = _worst(worst, np.maximum(abs(lo), abs(hi)) - 2.0 ** (1 - m))
        worst = _worst(worst, -lo)
        if prev is not None:
            worst = _worst(worst, -min_eigenvalue(q - prev))
        prev = q
        # eigenvalues sit on the grid l/2^m (a frame's padding 0.0 sits on it too)
        n = 2 ** m
        values = alg._backend.spectral_pairs(q, DEFAULT_GAP)[0] * n
        worst = _worst(worst, np.max(abs(values - np.round(values)), -1) / n)
    return _worst(worst, 0.0)


def _ev_spectral_recon(p, alg, inp):
    # a zero idempotent padding a shorter frame passes every check exactly
    a = inp["a"]
    values, idem, counts = alg._backend.spectral_pairs(a, DEFAULT_GAP)
    worst = _worst(rel_residual(_weighted(idem, values), a),
                   order_unit_norm(reduce(Element.__add__, idem) - identity(alg)),
                   *(order_unit_norm(jordan_product(q, q) - q) for q in idem),
                   *(order_unit_norm(jordan_product(q, r)) for q, r in combinations(idem, 2)))
    # each trial's own values strictly decrease
    unordered = ((values[..., 1:] >= values[..., :-1])
                 & (np.arange(1, len(idem)) < counts[..., None]))
    return np.where(np.any(unordered, -1), _worst(worst, 1.0), worst)


def _ev_fundamental(p, alg, inp):
    a, b = inp["a"], inp["b"]
    q_a = quadratic_operator(a)
    q_b = quadratic_operator(b)
    lhs = quadratic_operator(quadratic_rep(a, b))
    rhs = q_a.compose(q_b).compose(q_a)
    square_law = map_distance(q_a.compose(q_a),
                              quadratic_operator(jordan_product(a, a)))
    return _worst(map_distance(lhs, rhs), square_law)


def _ev_commute_equiv(p, alg, inp):
    a, b = inp["a"], inp["b"]
    want = np.equal(inp["expected"], "commuting")  # per trial for a stack
    verdicts = [commutes(p, a, b)]
    for f, g in ((quadratic_operator(a), quadratic_operator(b)),
                 (jordan_mult_operator(a), jordan_mult_operator(b))):
        verdicts.append(norm_at_most(f.compose(g).matrix - g.compose(f).matrix, COMMUTE_TOL))
    verdicts.append(alg._backend.commutator_norm(a, b) <= COMMUTE_TOL)
    return np.where(reduce(np.logical_and, [v == want for v in verdicts]), 0.0, 1.0)


def _ev_self_duality(p, alg, inp):
    x, y, a = inp["x"], inp["y"], inp["a"]
    worst = _worst(0.0, -trace_inner_product(x, y))
    values, frame, counts = alg._backend.spectral_pairs(a, DEFAULT_GAP)
    # each trial's smallest eigenvalue, last in its own frame, and tr(a p) of its idempotent
    traces = np.stack([trace_inner_product(a, proj) for proj in frame], -1)
    lam, tr = np.take_along_axis(np.stack([values, traces]), (counts - 1)[None, ..., None],
                                 -1)[..., 0]
    fails = (lam >= -SUPPORT_TOL) | (tr >= -SELF_DUALITY_WITNESS_TOL)
    return np.where(fails, _worst(worst, 1.0), worst)


def _ev_homogeneity(p, alg, inp):
    a, b = inp["a"], inp["b"]
    phi, phi_inv = homogeneity_iso(a, b), homogeneity_iso(b, a)
    worst = _worst(rel_residual(phi.apply(a), b),
                   map_distance(phi.compose(phi_inv), LinearMap.identity(alg)))
    for key in ("s0", "s1", "s2", "s3", "s4"):
        sample = inp[key]
        worst = _worst(worst,
                       -min_eigenvalue(phi.apply(sample)),
                       -min_eigenvalue(phi_inv.apply(sample)), 0.0)
    return worst


def _ev_pseudo_inverse(p, alg, inp):
    b = inp["b"]
    b_inv = pseudo_inverse(b)
    ceil = ceiling_effect(b)
    return _worst(rel_residual(seq_product(p, b, b_inv), ceil),
                  rel_residual(ceiling_effect(b_inv), ceil),
                  _worst(0.0, -min_eigenvalue(b_inv)))


def _ev_divide(p, alg, inp):
    q, a = inp["q"], inp["a"]
    c = divide(p, q, a)
    return _worst(rel_residual(seq_product(p, q, c), a),
                  _worst(0.0, -min_eigenvalue(ceiling_effect(q) - c)))


def _ev_invariance(p, alg, inp):
    a, b, phi = inp["a"], inp["b"], inp["phi"]
    return order_unit_norm(phi.apply(seq_product(p, a, b))
                           - seq_product(p, phi.apply(a), phi.apply(b)))


def _ev_symmetry(p, alg, inp):
    a, b, c = inp["a"], inp["b"], inp["c"]
    lhs = trace_inner_product(seq_product(p, a, b), c)
    rhs = trace_inner_product(b, seq_product(p, a, c))
    return abs(lhs - rhs)


def _ev_invertibility(p, alg, inp):
    a, b = inp["a"], inp["b"]
    lhs = pseudo_inverse(seq_product(p, a, b))
    rhs = seq_product(p, pseudo_inverse(a), pseudo_inverse(b))
    return order_unit_norm(lhs - rhs)


def _ev_quadratic(p, alg, inp):
    a, b = inp["a"], inp["b"]
    ab = seq_product(p, a, b)
    lhs = multiplication_operator(p, jordan_product(ab, ab))
    l_a = multiplication_operator(p, a)
    rhs = l_a.compose(multiplication_operator(p, jordan_product(b, b))).compose(l_a)
    return map_distance(lhs, rhs)


def _ev_theta(p, alg, inp):
    q, a, b = inp["q"], inp["a"], inp["b"]
    std = SequentialProduct.standard(alg)
    th_q = theta_between(std, p, q)
    worst = rel_residual(th_q.apply(identity(alg)), identity(alg))
    if not p.is_standard:
        worst = _worst(worst, map_distance(th_q, imaginary_power_conjugation(q, p.twist)))
    th_a = theta_between(std, p, a)
    th_b = theta_between(std, p, b)
    th_ab = theta_between(std, p, seq_product(std, a, b))
    worst = _worst(worst,
                   map_distance(th_ab, th_a.compose(th_b)),
                   map_distance(th_a.compose(th_b), th_b.compose(th_a)),
                   map_distance(theta_between(std, p, pseudo_inverse(a)), th_a.invert()))
    return worst


@dataclass(frozen=True)
class Law:
    """One law: how its inputs are drawn, how its residual is evaluated, and its defaults.

    The generator takes the Generators and indices of a chunk of trials and returns their
    inputs stacked; the evaluator returns one residual per trial of stacked inputs, and the
    residual of plain ones.
    """
    generate: Callable
    evaluate: Callable
    trials: int
    tol: float


#: every law's row, in LawId order
LAWS: dict[LawId, Law] = {
    LawId.SEA1: Law(_sum_triple, _ev_sea1, 200, 1e-8),
    LawId.SEA2: Law(_fields(a="generic"), _ev_sea2, 200, 1e-8),
    LawId.SEA3: Law(_orthogonal_supports, _ev_sea3, 200, 1e-8),
    LawId.SEA4: Law(_commuting_triple, _ev_sea4, 200, 1e-8),
    LawId.SEA5: Law(_pinched, _ev_sea5, 200, 1e-8),
    LawId.SCALAR_LINEARITY: Law(_fields(a="generic", b="generic"), _ev_scalar, 200, 1e-8),
    LawId.PRODUCT_LE_LEFT: Law(_fields(a="generic", b="generic"), _ev_product_le, 100, 1e-9),
    LawId.MONOTONE_RIGHT: Law(_monotone, _ev_monotone, 100, 1e-9),
    LawId.SHARP_PROPS: Law(_sharp, _ev_sharp, 50, 1e-8),
    LawId.FLOOR_LIMIT: Law(_floor, _ev_floor, 50, 1e-9),
    LawId.DYADIC_BOUND: Law(_profiled, _ev_dyadic, 50, 1e-9),
    LawId.SPECTRAL_RECON: Law(_profiled, _ev_spectral_recon, 100, 1e-9),
    LawId.FUNDAMENTAL_EQ: Law(_fields(a="generic", b="generic"), _ev_fundamental, 100, 1e-9),
    LawId.COMMUTE_EQUIV: Law(_commute_pairs, _ev_commute_equiv, 100, 1e-8),
    LawId.SELF_DUALITY: Law(_self_duality, _ev_self_duality, 50, 1e-10),
    LawId.HOMOGENEITY: Law(_homogeneity, _ev_homogeneity, 50, 1e-8),
    LawId.PSEUDO_INVERSE: Law(_fields(b="singular"), _ev_pseudo_inverse, 50, 1e-8),
    LawId.DIVIDE: Law(_quotient, _ev_divide, 50, 1e-8),
    LawId.INVARIANCE: Law(_invariance, _ev_invariance, 50, 1e-8),
    LawId.SYMMETRY: Law(_fields(a="generic", b="generic", c="generic"), _ev_symmetry, 100, 1e-8),
    LawId.INVERTIBILITY_PRES: Law(_fields(a="invertible", b="invertible"), _ev_invertibility,
                                  50, 1e-7),
    LawId.QUADRATIC_LAW: Law(_fields(a="generic", b="generic"), _ev_quadratic, 50, 1e-8),
    LawId.THETA_STRUCTURE: Law(_theta, _ev_theta, 25, 1e-7),
}


# ---------------------------------------------------------------------------
# Rows, configs, reports
# ---------------------------------------------------------------------------

@dataclass
class SuiteRow:
    law: str
    product: str = "standard"
    algebra: str = "complex:3"
    trials: int | None = None
    tol: float | None = None
    expect: str = "pass"
    seed: int | None = None
    params: dict = field(default_factory=dict)


@dataclass
class SuiteConfig:
    rows: list[SuiteRow]
    seed: int = 42

    @classmethod
    def from_json(cls, obj: dict) -> "SuiteConfig":
        if not isinstance(obj, dict) or not isinstance(obj.get("rows"), list):
            raise ConfigError("suite config must be an object with a 'rows' array")
        if obj.get("schema", 1) != 1:
            raise ConfigError(f"unsupported suite config schema {obj['schema']!r}; expected 1")
        try:
            seed = _config_int(obj.get("seed", 42))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"suite config seed must be an integer ({exc})") from exc
        rows = []
        for i, raw in enumerate(obj["rows"]):
            try:
                row = SuiteRow(
                    law=str(raw["law"]),
                    product=str(raw.get("product", "standard")),
                    algebra=str(raw.get("algebra", "complex:3")),
                    trials=None if raw.get("trials") is None else _config_int(raw["trials"]),
                    tol=None if raw.get("tol") is None else float(raw["tol"]),
                    expect=str(raw.get("expect", "pass")),
                    seed=None if raw.get("seed") is None else _config_int(raw["seed"]),
                    params=dict(raw.get("params", {})),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"row {i}: malformed ({exc})") from exc
            if row.law not in LawId._value2member_map_:
                raise ConfigError(f"row {i}: unknown law {row.law!r}")
            if row.expect not in ("pass", "fail", "error"):
                raise ConfigError(f"row {i}: expect must be pass, fail or error")
            if row.seed is not None and row.seed < 0:
                raise ConfigError(f"row {i}: seed must be non-negative, got {row.seed}")
            rows.append(row)
        return cls(rows=rows, seed=seed)


@dataclass
class AuditEntry:
    law: str
    product: str
    algebra: str
    trials: int
    seed: int
    verdict: str          # pass | fail | error
    expected: str
    max_residual: float
    elapsed_ms: float = 0.0
    witness: dict | None = None
    error: str | None = None

    @property
    def as_expected(self) -> bool:
        return self.verdict == self.expected

    def to_json(self) -> dict:
        """The fields in declaration order, leaving out a witness or error that is None."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: value for name, value in values if value is not None}

    @classmethod
    def from_json(cls, obj: dict) -> "AuditEntry":
        """The entry of ``to_json``'s object; keys that are not fields are ignored."""
        return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})


@dataclass
class AuditReport:
    entries: list[AuditEntry]
    seed: int
    schema: int = 1

    @property
    def status(self) -> str:
        return "pass" if all(e.as_expected for e in self.entries) else "fail"

    def to_json(self) -> dict:
        return {"schema": self.schema, "seed": self.seed, "status": self.status,
                "entries": [e.to_json() for e in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "AuditReport":
        return cls(entries=[AuditEntry.from_json(e) for e in obj["entries"]],
                   seed=obj["seed"], schema=obj.get("schema", 1))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _trial_residuals(trials: int, size: int, derive, run):
    """(trial, residual, the trial's inputs on demand) in order, from ``run(chunk, words)`` on
    chunks of ``size``, each with the seed words ``derive(chunk)`` derived as the chunk starts.

    A chunk that raises is redone as chunks of one on its words: the error surfaces at its
    own trial.
    """
    for first in range(0, trials, size):
        chunk = range(first, min(first + size, trials))
        words = derive(chunk)
        try:
            results = run(chunk, words)
        except Exception:  # whatever it is, the redo below raises it again in order
            if len(chunk) == 1:
                raise
            results = (result for k, i in enumerate(chunk)
                       for result in run(range(i, i + 1), words[k:k + 1]))
        yield from results


def trial_seed_words(seed: int, ordinal: int, trials: range) -> np.ndarray:
    """``SeedSequence((seed, ordinal, i)).generate_state(4, np.uint64)`` of each trial i of
    ``trials`` (seed >= 0, i < 2**32), in one vectorised pass: SeedSequence hashes the 32-bit
    words of its entropy with constants that do not depend on them, and only i varies."""
    def hashed(values, consts):  # hash call k, with consts k and k + 1, on row k of values
        out = (values ^ consts[:-1]) * consts[1:]  # (or every call on its one row)
        return out ^ out >> 16

    def mix(x, y):
        out = x * 0xCA01F9DD - y * 0x4973F715
        return out ^ out >> 16

    prefix = [n >> s & 0xFFFFFFFF for n in (seed, ordinal)
              for s in range(0, max(int(n).bit_length(), 1), 32)]
    entropy = np.zeros((max(len(prefix) + 1, 4), len(trials)), np.uint32)  # zeros fill the pool
    entropy[:len(prefix)] = np.array(prefix, np.uint32)[:, None]
    entropy[len(prefix)] = np.arange(trials.start, trials.stop)
    pool_consts, out_consts = (  # the hash constant before each call: init, times mult per call
        np.cumprod(np.array([init] + [mult] * calls, np.uint32), dtype=np.uint32)[:, None]
        for init, mult, calls in [(0x43B0D7E5, 0x931E8875, 4 * len(entropy)),
                                  (0x8B51F9DD, 0x58F38DED, 8)])
    pool = hashed(entropy[:4], pool_consts[:5])
    for src in range(4):  # pool[src] stays fixed while it is mixed into each other word in turn
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashed(pool[src], pool_consts[4 + 3 * src:8 + 3 * src]))
    for j, word in enumerate(entropy[4:]):
        pool = mix(pool, hashed(word, pool_consts[16 + 4 * j:21 + 4 * j]))
    state = hashed(pool[[0, 1, 2, 3] * 2], out_consts)
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


@dataclass(eq=False)
class _TrialSeed(np.random.bit_generator.ISeedSequence):
    """The seed of one trial's PCG64: hands it the trial's ``trial_seed_words`` row."""
    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def audit_law(law: LawId | str, product: SequentialProduct, alg: AlgebraDescriptor,
              trials: int, seed: int, tol: float, params: dict | None = None,
              expected: str = "pass") -> AuditEntry:
    """Run one law for ``trials`` seeded trials; stop at the first violation.

    A residual that is not at most ``tol``, NaN included, is a violation.
    ``trials`` outside 1..2**32, a negative ``seed`` or a ``tol`` that is not
    finite and positive raise ConfigError, so no row can pass vacuously.  The
    entry reports the trials that ran: up to and including a violation.
    """
    law = LawId(law)
    if not 1 <= trials <= 2 ** 32:
        raise ConfigError(f"{law.value} on {alg}: trials must be from 1 to 2**32, got {trials}")
    if seed < 0:
        raise ConfigError(f"{law.value} on {alg}: seed must be non-negative, got {seed}")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"{law.value} on {alg}: tol must be finite and positive, got {tol}")
    row = LAWS[law]
    start = time.perf_counter()

    def run(chunk: range, words: np.ndarray) -> list:
        rngs = [np.random.Generator(np.random.PCG64(_TrialSeed(w))) for w in words]
        inputs = row.generate(rngs, product, alg, chunk, params or {})
        residuals = np.broadcast_to(row.evaluate(product, alg, inputs), len(chunk)).tolist()
        return [(i, residual, partial(_take, inputs, k))
                for k, (i, residual) in enumerate(zip(chunk, residuals))]

    max_residual = 0.0
    witness = None
    verdict = "pass"
    derive = partial(trial_seed_words, seed, ALL_LAWS.index(law))
    for i, residual, inputs in _trial_residuals(trials, _CHUNK, derive, run):
        max_residual = max(max_residual, residual)
        if not residual <= tol:  # a NaN residual fails too
            witness = {"trial": i, "residual": residual,
                       "inputs": serialize.inputs_to_json(inputs())}
            verdict = "fail"
            max_residual = residual
            trials = i + 1
            break
    elapsed = (time.perf_counter() - start) * 1000.0
    return AuditEntry(law=law.value, product=product.descriptor(),
                      algebra=alg.shorthand(), trials=trials, seed=seed,
                      verdict=verdict, expected=expected,
                      max_residual=max_residual, witness=witness,
                      elapsed_ms=round(elapsed, 3))


def replay_witness(law: LawId | str, product_desc: str, algebra_desc: str,
                   witness: dict) -> float:
    """Recompute a witness residual standalone from its serialized inputs."""
    law = LawId(law)
    alg = parse_algebra(algebra_desc)
    product = parse_product(product_desc, alg)
    inputs = serialize.inputs_from_json(witness["inputs"])
    return float(LAWS[law].evaluate(product, alg, inputs))


def _row_seed(config_seed: int, index: int, row: SuiteRow) -> int:
    if row.seed is not None:
        return row.seed
    return (config_seed * 1_000_003 + index) % (2 ** 31)


def run_full_suite(config: SuiteConfig) -> AuditReport:
    """Run every config row; capability errors become entries, not crashes."""
    entries = []
    for i, row in enumerate(config.rows):
        if row.law not in LawId._value2member_map_:
            raise ConfigError(f"row {i}: unknown law {row.law!r}")
        law = LawId(row.law)
        trials = row.trials if row.trials is not None else LAWS[law].trials
        tol = row.tol if row.tol is not None else LAWS[law].tol
        seed = _row_seed(config.seed, i, row)
        try:
            alg = parse_algebra(row.algebra)
            product = parse_product(row.product, alg)
            entry = audit_law(law, product, alg, trials, seed, tol,
                              params=row.params, expected=row.expect)
        except CapabilityError as exc:
            entry = AuditEntry(law=row.law, product=row.product, algebra=row.algebra,
                               trials=0, seed=seed, verdict="error",
                               expected=row.expect, max_residual=0.0,
                               error=str(exc))
        entries.append(entry)
    return AuditReport(entries=entries, seed=config.seed)


def characterization_rows(trials: int = FALSIFY_TRIALS,
                          tol: float = FALSIFY_TOL) -> list[SuiteRow]:
    """The three falsification demos on the twisted product."""
    return [SuiteRow(law.value, "twisted:1.0", "complex:3", trials, tol, expect="fail",
                     params={"iso": "transpose"} if law is LawId.INVARIANCE else {})
            for law in FALSIFIED]


def default_config(seed: int = 42) -> SuiteConfig:
    """Every law x standard product x the five reference algebras, the
    twisted products' axiom rows, and the three falsification demos."""
    rows = [SuiteRow(law.value, "standard", alg)
            for law in ALL_LAWS for alg in REFERENCE_ALGEBRAS]
    for t in ("0.5", "1.0"):
        rows.extend(SuiteRow(law.value, f"twisted:{t}", "complex:3") for law in _AXIOMS)
    rows.append(SuiteRow(LawId.THETA_STRUCTURE.value, "twisted:1.0", "complex:3"))
    rows.extend(characterization_rows())
    return SuiteConfig(rows=rows, seed=seed)


def demo_characterizations(seed: int = 42) -> AuditReport:
    """Standard-product controls at 1e-7 plus the three twisted falsifications."""
    control = [SuiteRow(r.law, "standard", "complex:3", 25, 1e-7, expect="pass",
                        params=r.params)
               for r in characterization_rows()]
    return run_full_suite(SuiteConfig(rows=control + characterization_rows(), seed=seed))
