"""Seeded property-based auditing of the kernel's structural laws.

Each law is one row of ``LAWS``, keyed by its name: a generator, an evaluator,
and the default trials and tolerance; ``LawId`` is built from those keys.
``generate`` manufactures inputs satisfying the law's hypotheses from per-trial
RNGs, ``evaluate`` computes a residual from the inputs alone.  A trial fails
when its residual exceeds the row tolerance; the first failing trial's inputs
are serialized as a witness, so any reported violation can be replayed
standalone through the module operations.

Every law runs in chunks of up to 256 trials (a default row is one chunk), drawn
field by field, each trial from its own Generator: ``default_rng((seed, ordinal,
i))`` bit for bit, seeded from ``trial_seed_words`` derived as each chunk starts
and reused when it is redone trial by trial.  Each trial makes exactly the draws
it makes alone.  A run of consecutive Gaussian fields is one draw, one
``standard_normal`` call per Generator (``_effects``, ``_scaled_squares``): the
ziggurat sampler keeps no state between calls, so one call gives the numbers of
one call per field.  The linear algebra and one evaluator call then run on elements,
linear maps and spectral frames with a leading trial axis (a shorter frame
padded with zero idempotents).  The first trial of a chunk over the tolerance
gives the verdict, so verdicts, maximal residuals and witnesses are those of
trial-by-trial runs, bit for bit.  A chunk that raises is redone as chunks of
one, so an error surfaces at its own trial; a witness is its trial taken out of
the stack, and replay evaluates its plain inputs with the same evaluator.  A
trial that raises ends its row with verdict ``error``, and the suite goes on,
whatever the exception; only ``ConfigError`` and ``CapabilityError``, which
describe the row rather than its trial, propagate; a trial that raises once its
inputs are drawn leaves them as a witness with no residual, and replay raises.

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
from itertools import combinations, groupby
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, get_type_hints

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
    zero,
)
from .errors import CapabilityError, ConfigError
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

    It commutes with a and has spectrum in [0.05, 0.95].
    """
    c0, c1, c2 = np.array([rng.uniform(-1.0, 1.0, 3) for rng in rngs]).T

    def clipped(x: np.ndarray) -> np.ndarray:
        return np.minimum(0.95, np.maximum(0.05, c0 + c1 * x + c2 * x * x))

    return a.algebra._backend.functional(a, clipped, DEFAULT_GAP)


def _trial(x, k: int):
    """Trial k of one stacked input: an Element, a map with one label per trial, or a list."""
    if isinstance(x, Element):
        return x.algebra._backend.take(x, k)
    if isinstance(x, LinearMap):
        return LinearMap(x.algebra, x.matrix[k], x.label[k])
    return x[k]


def _take(inputs: dict, k: int) -> dict:
    """Trial k of stacked inputs."""
    return {key: _trial(x, k) for key, x in inputs.items()}


def _split(stack: Element, fields: int, k: int) -> list[Element]:
    """The ``fields`` stacks of k trials that one stack of ``fields`` k holds, field by field."""
    take = stack.algebra._backend.take
    return [take(stack, slice(f * k, f * k + k)) for f in range(fields)]


def _effects(alg: AlgebraDescriptor, rngs, profile: str, fields: int) -> list[Element]:
    """``fields`` successive stacks of ``profile`` effects, drawn as one (``_random_effects``)."""
    return _split(_random_effects(alg, rngs, profile, fields), fields, len(rngs))


def _sum_triple(rngs, p, alg, trials, params):
    a, b, c = _effects(alg, rngs, "generic", 3)
    return {"a": a, "b": b * 0.5, "c": c * 0.5}


def _fields(**profiles):
    """The generator that draws one stack of effects per field, of its profile, in field order:
    each run of fields of one profile as one draw (``_effects``; every run of more than one
    field in ``LAWS`` is of a Gaussian profile)."""
    runs = [(profile, [key for key, _ in run])
            for profile, run in groupby(profiles.items(), itemgetter(1))]

    def generate(rngs, p, alg, trials, params):
        return {key: x for profile, keys in runs
                for key, x in zip(keys, _effects(alg, rngs, profile, len(keys)))}
    return generate


def _orthogonal_supports(rngs, p, alg, trials, params):
    proj = _random_effects(alg, rngs, "sharp")
    x, y = _effects(alg, rngs, "invertible", 2)
    return {"a": quadratic_rep(proj, x),
            "b": quadratic_rep(identity(alg) - proj, y)}


def _commuting_triple(rngs, p, alg, trials, params):
    a = _random_effects(alg, rngs, "invertible")
    return {"a": a, "b": _poly_effect(rngs, a), "c": _random_effects(alg, rngs)}


def _weighted(frame, weights: np.ndarray) -> Element:
    """sum_j w_j p_j per trial, with weights (..., len(frame))."""
    scale = frame[0].algebra._backend.scale
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
    x, y = _effects(alg, rngs, "invertible", 2)
    return {"c": _weighted(frame, alphas),
            "a": reduce(Element.__add__, (quadratic_rep(q, x) for q in frame)) * 0.5,
            "b": reduce(Element.__add__, (quadratic_rep(q, y) for q in frame)) * 0.5}


def _monotone(rngs, p, alg, trials, params):
    b, x, c = _effects(alg, rngs, "generic", 3)
    return {"a": seq_product(p, b, x), "b": b, "c": c}


def _sharp(rngs, p, alg, trials, params):
    proj = _random_effects(alg, rngs, "sharp")
    comp = identity(alg) - proj
    x, y = _effects(alg, rngs, "invertible", 2)
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
    stack of its trials and the stacks, in turn order, gathered back into trial order."""
    backend = alg._backend
    turns = np.asarray(trials) % len(profiles)
    stacks = [_random_effects(alg, [rngs[k] for k in np.flatnonzero(turns == turn)], profile)
              for turn, profile in enumerate(profiles) if turn in turns]
    order = np.argsort(turns, kind="stable")  # the trial at each place of the stacks
    return backend.take(backend.stack(alg, stacks), np.argsort(order))


def _quotient(rngs, p, alg, trials, params):
    """q generic on even trials and singular on odd ones."""
    q = _by_turn(alg, rngs, trials, ("generic", "singular"))
    return {"q": q, "a": seq_product(p, q, _random_effects(alg, rngs))}


def _profiled(rngs, p, alg, trials, params):
    """a generic, singular or sharp by turns, so that frames of every shape occur."""
    return {"a": _by_turn(alg, rngs, trials, ("generic", "singular", "sharp"))}


def _commute_pairs(rngs, p, alg, trials, params):
    """A commuting pair on even trials; on odd ones a generic pair, redrawn (the open trials
    in one round) until its commutator norm reaches NONCOMMUTING_MIN.  The rounds' stacks
    are kept, and each trial's accepted pair gathered from them at the end."""
    backend, odd = alg._backend, np.asarray(trials) % 2 == 1
    rounds, place, size = [], np.empty(len(rngs), int), 0  # each trial's place in the rounds
    even = np.flatnonzero(~odd)
    if len(even):
        a = _random_effects(alg, [rngs[k] for k in even], "invertible")
        rounds.append((a, _poly_effect([rngs[k] for k in even], a)))
        place[even], size = np.arange(len(even)), len(even)
    todo = np.flatnonzero(odd)
    for _ in range(50):
        if not len(todo):
            break
        a, b = _effects(alg, [rngs[k] for k in todo], "generic", 2)
        ok = backend.commutator_norm(a, b) >= NONCOMMUTING_MIN  # one norm per trial
        rounds.append((a, b))
        place[todo[ok]] = size + np.flatnonzero(ok)
        size, todo = size + len(todo), todo[~ok]
    if len(todo):
        raise CapabilityError(f"could not draw a non-commuting pair on {alg}")
    a, b = (backend.take(backend.stack(alg, stacks), place) for stacks in zip(*rounds))
    return {"a": a, "b": b, "expected": ["generic" if i % 2 else "commuting" for i in trials]}


def _scaled_squares(alg: AlgebraDescriptor, rngs, fields: int) -> list[Element]:
    """``fields`` stacks of the Jordan square of a random element per trial, scaled down to
    order-unit norm at most 1, drawn and scaled as one stack."""
    e = alg._backend.random_elements(alg, rngs, fields)
    sq = jordan_product(e, e)
    return _split(alg._backend.scale(sq, 1.0 / np.maximum(1.0, order_unit_norm(sq))), fields,
                  len(rngs))


def _homogeneity(rngs, p, alg, trials, params):
    inputs = _fields(a="invertible", b="invertible")(rngs, p, alg, trials, params)
    inputs.update(zip(("s0", "s1", "s2"), _scaled_squares(alg, rngs, 3)))
    inputs["s3"] = _random_effects(alg, rngs)
    inputs["s4"] = alg._backend.scale(identity(alg), np.ones(len(rngs)))
    return inputs


def _invariance(rngs, p, alg, trials, params):
    """Each trial's order isomorphism, of the requested kind or else of its turn among the
    available ones, from a seed its Generator draws first; then a and b.

    Each map is ``make_order_iso(alg, kind, seed)`` bit for bit, built with the other trials of
    its kind as one stack, each from its own Generator ``default_rng(seed)``.
    """
    kinds = list(alg._backend.order_isos(alg))
    if not kinds:
        raise CapabilityError(f"no order isomorphism family is available on {alg}")
    requested = params.get("iso")  # ``order_iso`` refuses an unknown or unavailable kind
    iso_rngs = [np.random.default_rng(int(rng.integers(2 ** 31))) for rng in rngs]
    chosen = [kinds[i % len(kinds)] if requested is None else str(requested) for i in trials]
    d = alg.real_dimension
    matrices, labels = np.empty((len(rngs), d, d)), {}
    for kind in dict.fromkeys(chosen):  # one stack per kind
        sel = [k for k, c in enumerate(chosen) if c == kind]
        matrices[sel], labels[kind] = alg._backend.order_iso(alg, kind,
                                                             [iso_rngs[k] for k in sel])
    a, b = _effects(alg, rngs, "generic", 2)
    return {"a": a, "b": b, "phi": _linear_map(alg, matrices, tuple(labels[c] for c in chosen))}


def _theta(rngs, p, alg, trials, params):
    a, q = _effects(alg, rngs, "invertible", 2)
    return {"q": q, "a": a, "b": _poly_effect(rngs, a)}


def _self_duality(rngs, p, alg, trials, params):
    """Two Jordan squares x and y, and a = g - (min eig g + 0.2) for g of norm at most 1, so a
    has a negative eigenvalue."""
    backend = alg._backend
    g = backend.random_elements(alg, rngs)
    g = backend.scale(g, 1.0 / np.maximum(1.0, order_unit_norm(g)))
    a = g - backend.scale(identity(alg), min_eigenvalue(g) + 0.2)
    x, y = _scaled_squares(alg, rngs, 2)
    return {"x": x, "y": y, "a": a}


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
        # (0 a) o b is 0 o b, and zero(alg)'s root is solved once per descriptor
        worst = _worst(worst,
                       rel_residual(seq_product(p, a * lam if lam else zero(alg), b), ab_lam),
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
    near = norm_at_most(seq_product(p, proj, a_neg) - proj, 0.05)
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
    worst, prev = 0.0, None
    for m, q in enumerate(dyadic_approximation(a, 8), start=1):
        lo, hi = eigenvalue_range(a - q)  # one solve gives the norm and the min eigenvalue
        worst = _worst(worst, np.maximum(abs(lo), abs(hi)) - 2.0 ** (1 - m), -lo)
        if prev is not None:
            worst = _worst(worst, -min_eigenvalue(q - prev))
        prev = q
        # eigenvalues sit on the grid l/2^m: their distance to it, read from q's own solve
        n = 2 ** m
        off_grid = alg._backend.functional(q, lambda x: x * n - np.round(x * n), DEFAULT_GAP)
        worst = _worst(worst, order_unit_norm(off_grid) / n)
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
    # T_a b against a * b: a Jordan automorphism keeps both operator identities, not this
    jordan_law = rel_residual(jordan_mult_operator(a).apply(b), jordan_product(a, b))
    return _worst(map_distance(lhs, rhs), square_law, jordan_law)


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
    th_ab = th_a.compose(th_b)
    return _worst(worst, map_distance(theta_between(std, p, seq_product(std, a, b)), th_ab),
                  map_distance(th_ab, th_b.compose(th_a)),
                  map_distance(theta_between(std, p, pseudo_inverse(a)), theta_between(p, std, a)))


@dataclass(frozen=True)
class Law:
    """One law: how its inputs are drawn, how its residual is evaluated, and its defaults.

    The generator takes the Generators and indices of a chunk of trials and returns their
    inputs stacked; the evaluator returns one residual per trial of stacked inputs, and the
    residual of plain ones.  ``params`` names the keys of a row's params the generator reads.
    """
    generate: Callable
    evaluate: Callable
    trials: int
    tol: float
    params: tuple[str, ...] = ()


#: every law's row; its key is the law's name, and its place the law's Generator ordinal
LAWS = {
    "SEA1": Law(_sum_triple, _ev_sea1, 200, 1e-8),
    "SEA2": Law(_fields(a="generic"), _ev_sea2, 200, 1e-8),
    "SEA3": Law(_orthogonal_supports, _ev_sea3, 200, 1e-8),
    "SEA4": Law(_commuting_triple, _ev_sea4, 200, 1e-8),
    "SEA5": Law(_pinched, _ev_sea5, 200, 1e-8),
    "SCALAR_LINEARITY": Law(_fields(a="generic", b="generic"), _ev_scalar, 200, 1e-8),
    "PRODUCT_LE_LEFT": Law(_fields(a="generic", b="generic"), _ev_product_le, 100, 1e-9),
    "MONOTONE_RIGHT": Law(_monotone, _ev_monotone, 100, 1e-9),
    "SHARP_PROPS": Law(_sharp, _ev_sharp, 50, 1e-8),
    "FLOOR_LIMIT": Law(_floor, _ev_floor, 50, 1e-9),
    "DYADIC_BOUND": Law(_profiled, _ev_dyadic, 50, 1e-9),
    "SPECTRAL_RECON": Law(_profiled, _ev_spectral_recon, 100, 1e-9),
    "FUNDAMENTAL_EQ": Law(_fields(a="generic", b="generic"), _ev_fundamental, 100, 1e-9),
    "COMMUTE_EQUIV": Law(_commute_pairs, _ev_commute_equiv, 100, 1e-8),
    "SELF_DUALITY": Law(_self_duality, _ev_self_duality, 50, 1e-10),
    "HOMOGENEITY": Law(_homogeneity, _ev_homogeneity, 50, 1e-8),
    "PSEUDO_INVERSE": Law(_fields(b="singular"), _ev_pseudo_inverse, 50, 1e-8),
    "DIVIDE": Law(_quotient, _ev_divide, 50, 1e-8),
    "INVARIANCE": Law(_invariance, _ev_invariance, 50, 1e-8, params=("iso",)),
    "SYMMETRY": Law(_fields(a="generic", b="generic", c="generic"), _ev_symmetry, 100, 1e-8),
    "INVERTIBILITY_PRES": Law(_fields(a="invertible", b="invertible"), _ev_invertibility, 50, 1e-7),
    "QUADRATIC_LAW": Law(_fields(a="generic", b="generic"), _ev_quadratic, 50, 1e-8),
    "THETA_STRUCTURE": Law(_theta, _ev_theta, 25, 1e-7),
}
#: the laws, named and ordered by the keys of LAWS
LawId = Enum("LawId", [(name, name) for name in LAWS], type=str, module=__name__)
LAWS: dict[LawId, Law] = {LawId(name): row for name, row in LAWS.items()}
ALL_LAWS = list(LawId)

#: the SEA axioms and scalar linearity, which the twisted products are audited on too
_AXIOMS = (LawId.SEA1, LawId.SEA2, LawId.SEA3, LawId.SEA4, LawId.SEA5, LawId.SCALAR_LINEARITY)
#: the laws the twisted products break, and the trials and tol of their expected-fail rows
FALSIFIED = (LawId.INVARIANCE, LawId.SYMMETRY, LawId.INVERTIBILITY_PRES)
FALSIFY_TRIALS, FALSIFY_TOL = 10, 1e-3


# ---------------------------------------------------------------------------
# Rows, configs, reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteRow:
    """One suite row; ConfigError for an unknown law, a param the law does not read, an
    ``expect`` other than pass, fail or error, or a negative seed.  ``params`` is kept as a
    read-only copy."""
    law: str
    product: str = "standard"
    algebra: str = "complex:3"
    trials: int | None = None
    tol: float | None = None
    expect: str = "pass"
    seed: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if self.law not in LAWS:
            raise ConfigError(f"unknown law {self.law!r}")
        unread = [key for key in self.params if key not in LAWS[self.law].params]
        if unread:
            raise ConfigError(f"{self.law} reads no param {unread[0]!r}")
        if self.expect not in ("pass", "fail", "error"):
            raise ConfigError(f"expect must be pass, fail or error, got {self.expect!r}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def __reduce__(self):
        # a mappingproxy neither pickles nor deep-copies: params, the last field, goes as a dict
        return type(self), (*(getattr(self, f.name) for f in fields(self)[:-1]), dict(self.params))


def _config_field(kind):
    """The reader of a config row field of JSON type ``kind`` (``_is_json``), TypeError for any
    other value; a float field also takes a numeric string such as "NaN", which
    ``run_full_suite`` then refuses."""
    def read(value):
        if not (_is_json(value, kind) or kind is float and isinstance(value, str)):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return float(value) if kind is float else value
    return read


#: how a config row's fields are read; an absent or null field keeps SuiteRow's default
_ROW_FIELDS = {"law": _config_field(str), "product": _config_field(str),
               "algebra": _config_field(str), "trials": _config_int, "tol": _config_field(float),
               "expect": _config_field(str), "seed": _config_int, "params": _config_field(dict)}


@dataclass(frozen=True)
class SuiteConfig:
    """The rows of a suite, kept as a tuple, and its seed; ConfigError for a suite without
    rows."""
    rows: tuple[SuiteRow, ...]
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ConfigError("a suite needs at least one row")

    @classmethod
    def from_json(cls, obj: dict) -> "SuiteConfig":
        if not isinstance(obj, dict) or not isinstance(obj.get("rows"), list):
            raise ConfigError("suite config must be an object with a 'rows' array")
        unknown = [key for key in obj if key not in ("schema", "seed", "rows")]
        if unknown:
            raise ConfigError(f"suite config has an unknown key {unknown[0]!r}")
        schema = obj.get("schema", 1)
        if not (_is_json(schema, int) and schema == 1):
            raise ConfigError(f"unsupported suite config schema {schema!r}; expected 1")
        try:
            seed = _config_int(obj.get("seed", 42))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"suite config seed must be an integer ({exc})") from exc
        rows = []
        for i, raw in enumerate(obj["rows"]):
            try:
                unknown = [key for key in raw.keys() if key not in _ROW_FIELDS]
                if unknown:
                    raise ConfigError(f"unknown key {unknown[0]!r}")
                rows.append(SuiteRow(**{name: read(raw[name]) for name, read in _ROW_FIELDS.items()
                                        if raw.get(name) is not None}))
            except (AttributeError, TypeError, ValueError) as exc:
                raise ConfigError(f"row {i}: malformed ({exc})") from exc
            except ConfigError as exc:
                raise ConfigError(f"row {i}: {exc}") from exc
        return cls(rows=rows, seed=seed)


def _is_json(value, kind) -> bool:
    """Whether a JSON value is of type ``kind``: an int counts as a float, a bool as neither."""
    return isinstance(value, int | float if kind is float else kind) and not isinstance(value, bool)


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
        """The entry of ``to_json``'s object; keys that are not fields are ignored.

        ConfigError unless every field holds a value of its annotated type (``_is_json``) and a
        witness its int ``trial``; only the fields that ``to_json`` leaves out when None, the
        witness and the error, may be missing.
        """
        if not isinstance(obj, dict):
            raise ConfigError("not an object")
        for f in fields(cls):
            present = f.name in obj or f.default is None
            if not (present and _is_json(obj.get(f.name), _ENTRY_TYPES[f.name])):
                raise ConfigError(f"{f.name} is missing or of the wrong type")
        if obj.get("witness") is not None and not _is_json(obj["witness"].get("trial"), int):
            raise ConfigError("witness has no integer trial")
        return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})


#: each AuditEntry field's annotated type, which ``AuditEntry.from_json`` checks
_ENTRY_TYPES = get_type_hints(AuditEntry)


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
        """The report of ``to_json``'s object, its status recomputed; ConfigError unless it is a
        schema-1 report with an integer seed whose entries ``AuditEntry.from_json`` reads."""
        if not (isinstance(obj, dict) and _is_json(obj.get("schema"), int) and obj["schema"] == 1
                and isinstance(obj.get("entries"), list) and _is_json(obj.get("seed"), int)):
            raise ConfigError("not a schema-1 audit report")
        entries = []
        for i, entry in enumerate(obj["entries"]):
            try:
                entries.append(AuditEntry.from_json(entry))
            except ConfigError as exc:
                raise ConfigError(f"entry {i}: {exc}") from None
        return cls(entries=entries, seed=obj["seed"])


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _trial_residuals(trials: int, size: int, derive, run):
    """(chunk, inputs, residuals) in order, from ``run(chunk, words)`` on chunks of ``size``,
    each with the seed words ``derive(chunk)`` derived as the chunk starts.

    A chunk that raises is redone as chunks of one on its words, each run as it is asked for:
    the error surfaces at its own trial, after the failures of the trials before it.
    """
    for first in range(0, trials, size):
        chunk = range(first, min(first + size, trials))
        words = derive(chunk)
        try:
            results = [(chunk, *run(chunk, words))]
        except Exception:  # whatever it is, the redo below raises it again in order
            if len(chunk) == 1:
                raise
            results = ((range(i, i + 1), *run(range(i, i + 1), words[k:k + 1]))
                       for k, i in enumerate(chunk))
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

    A residual that is not at most ``tol``, NaN included, is a violation.  ``trials`` or
    ``seed`` that a config would refuse (``_config_int``), ``trials`` outside 1..2**32, a
    negative ``seed`` or a ``tol`` that is not a finite positive number raise ConfigError, so
    no row can pass vacuously.  A trial that raises any exception but ConfigError or
    CapabilityError gives verdict ``error``, with ``trial i: <type>: <message>`` in ``error``
    (and a witness with no residual, once its inputs are drawn).  The entry reports the trials
    that ran: up to and including a violation or an error.
    """
    law = LawId(law)
    try:
        trials, seed = _config_int(trials), _config_int(seed)
    except ValueError as exc:
        raise ConfigError(f"{law.value} on {alg}: trials and seed must be integers, {exc}") from exc
    if not 1 <= trials <= 2 ** 32:
        raise ConfigError(f"{law.value} on {alg}: trials must be from 1 to 2**32, got {trials}")
    if seed < 0:
        raise ConfigError(f"{law.value} on {alg}: seed must be non-negative, got {seed}")
    if not (_is_json(tol, float) and math.isfinite(tol) and tol > 0):
        raise ConfigError(f"{law.value} on {alg}: tol must be finite and positive, got {tol!r}")
    row = LAWS[law]
    start = time.perf_counter()
    drawn = None  # the inputs of the last run, once its generator has returned them

    def run(chunk: range, words: np.ndarray) -> tuple:
        nonlocal drawn
        drawn = None
        rngs = [np.random.Generator(np.random.PCG64(_TrialSeed(w))) for w in words]
        drawn = row.generate(rngs, product, alg, chunk, params or {})
        return drawn, np.broadcast_to(row.evaluate(product, alg, drawn), len(chunk))

    max_residual = 0.0
    witness = error = None
    verdict = "pass"
    derive = partial(trial_seed_words, seed, ALL_LAWS.index(law))
    ran = 0  # chunks come in order, so a trial that raises is trial ``ran``
    try:
        for chunk, inputs, residuals in _trial_residuals(trials, _CHUNK, derive, run):
            over = np.flatnonzero(~(residuals <= tol))  # a NaN residual fails too
            if over.size:
                k = int(over[0])
                max_residual, trials = float(residuals[k]), chunk[k] + 1
                witness = {"trial": chunk[k], "residual": max_residual,
                           "inputs": serialize.inputs_to_json(_take(inputs, k))}
                verdict = "fail"
                break
            max_residual = max(max_residual, float(residuals.max()))
            ran = chunk.stop
    except (ConfigError, CapabilityError):
        raise
    except Exception as exc:
        verdict, trials = "error", ran + 1
        error = f"trial {ran}: {type(exc).__name__}: {exc}"
        if drawn is not None:  # the inputs drawn last are those of a chunk starting at ``ran``
            witness = {"trial": ran, "inputs": serialize.inputs_to_json(_take(drawn, 0))}
    elapsed = (time.perf_counter() - start) * 1000.0
    return AuditEntry(law=law.value, product=product.descriptor(),
                      algebra=alg.shorthand(), trials=trials, seed=seed,
                      verdict=verdict, expected=expected,
                      max_residual=max_residual, witness=witness, error=error,
                      elapsed_ms=round(elapsed, 3))


def replay_witness(law: LawId | str, product_desc: str, algebra_desc: str,
                   witness: dict) -> float:
    """Recompute a witness residual standalone from its serialized inputs; an error row's
    witness raises as its trial did."""
    law = LawId(law)
    alg = parse_algebra(algebra_desc)
    product = parse_product(product_desc, alg)
    if not isinstance(witness, dict):
        raise ConfigError(f"a witness must be an object, not {type(witness).__name__}")
    inputs = serialize.inputs_from_json(witness.get("inputs"))
    return float(LAWS[law].evaluate(product, alg, inputs))


def _row_seed(config_seed: int, index: int, row: SuiteRow) -> int:
    if row.seed is not None:
        return row.seed
    return (config_seed * 1_000_003 + index) % (2 ** 31)


def run_full_suite(config: SuiteConfig) -> AuditReport:
    """Run every config row; capability errors and the errors of a trial become entries, not
    crashes."""
    entries = []
    for i, row in enumerate(config.rows):
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


def falsification_row(law: LawId, product: str = "twisted:1.0",
                      algebra: str = "complex:3") -> SuiteRow:
    """The expected-fail row of a law in FALSIFIED on a twisted product: INVARIANCE under the
    transpose, which no twisted product preserves."""
    return SuiteRow(law.value, product, algebra, FALSIFY_TRIALS, FALSIFY_TOL, expect="fail",
                    params={"iso": "transpose"} if law is LawId.INVARIANCE else {})


def characterization_rows() -> list[SuiteRow]:
    """The three falsification demos on the twisted product."""
    return [falsification_row(law) for law in FALSIFIED]


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
