"""Trial-stacked generation and evaluation of the 23 laws, and stacked linear maps.

A chunk of trials must give exactly the inputs, residuals, verdicts, maximal
residuals, witnesses and errors of drawing and evaluating the trials one by
one.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

import seqprod as sp
from seqprod import auditor
from seqprod._backends import _clusters
from seqprod.algebra import (
    KIND_QUAT,
    KIND_SPIN,
    KIND_SUM,
    Element,
    LinearMap,
    _linear_map,
    _random_effects,
    eigenvalue_range,
    jordan_mult_operator,
    map_distance,
    operator_norm,
    quadratic_operator,
    random_element,
    random_projection,
    rel_residual,
    to_coords,
    trace,
)
from seqprod.auditor import REFERENCE_ALGEBRAS, LawId, audit_law, replay_witness
from seqprod.spectral import DEFAULT_GAP

from conftest import ALGEBRA_SHORTHANDS, close_across_blocks

STACKED_LAWS = [LawId.SEA1, LawId.SEA2, LawId.SEA3, LawId.SEA4, LawId.SEA5,
                LawId.SCALAR_LINEARITY, LawId.PRODUCT_LE_LEFT, LawId.MONOTONE_RIGHT,
                LawId.SHARP_PROPS, LawId.FLOOR_LIMIT, LawId.DYADIC_BOUND, LawId.SPECTRAL_RECON,
                LawId.FUNDAMENTAL_EQ, LawId.COMMUTE_EQUIV, LawId.SELF_DUALITY, LawId.HOMOGENEITY,
                LawId.PSEUDO_INVERSE, LawId.DIVIDE, LawId.INVARIANCE, LawId.SYMMETRY,
                LawId.INVERTIBILITY_PRES, LawId.QUADRATIC_LAW, LawId.THETA_STRUCTURE]
#: laws whose residual is exactly 0 on effects drawn for them, so no positive tolerance breaks them
EXACT_LAWS = [LawId.SEA2, LawId.PRODUCT_LE_LEFT, LawId.MONOTONE_RIGHT, LawId.COMMUTE_EQUIV,
              LawId.SELF_DUALITY]
ROWS = ([("standard", short) for short in REFERENCE_ALGEBRAS]
        + [("twisted:0.5", "complex:3"), ("twisted:1.0", "complex:3")])


def _row(desc, short):
    alg = sp.parse_algebra(short)
    return sp.parse_product(desc, alg), alg


def _rngs(law, seed, trials):
    return [np.random.default_rng((seed, auditor.ALL_LAWS.index(law), i)) for i in trials]


def _inputs(law, product, alg, trials, seed):
    """The inputs of trials 0 .. trials - 1 of a row with ``seed``, each drawn as a chunk of one."""
    generate = auditor.LAWS[law].generate
    return [auditor._take(generate(_rngs(law, seed, [i]), product, alg, [i], {}), 0)
            for i in range(trials)]


def _stacked_residuals(law, product, alg, inputs, k):
    """The residual of each of the k trials of the stacked ``inputs``."""
    return np.broadcast_to(auditor.LAWS[law].evaluate(product, alg, inputs), k).tolist()


def _stack(alg, values: list):
    """One stacked input of the trials' ``values``; maps keep one label per trial."""
    if isinstance(values[0], Element):
        return alg._backend.stack(alg, values)
    if isinstance(values[0], LinearMap):
        return _linear_map(alg, np.stack([m.matrix for m in values]),
                           tuple(m.label for m in values))
    return list(values)


def _residuals(law, product, alg, inputs):
    """The residual of each listed trial, evaluated as one stack."""
    stacked = {key: _stack(alg, [inp[key] for inp in inputs]) for key in inputs[0]}
    return _stacked_residuals(law, product, alg, stacked, len(inputs))


def _with(monkeypatch, law, **fields):
    """Replace fields of ``law``'s row for the test."""
    monkeypatch.setitem(auditor.LAWS, law, dataclasses.replace(auditor.LAWS[law], **fields))


def _entry(law, product, alg, trials, seed, tol):
    """The audit entry without its time.  COMMUTE_EQUIV finds no non-commuting pair on a
    rank-one algebra, and INVARIANCE no order isomorphism on a sum of a matrix and a spin
    block; their error is returned as its message, which must not depend on the chunk
    size either."""
    try:
        entry = audit_law(law, product, alg, trials, seed, tol).to_json()
    except sp.CapabilityError as exc:
        if law not in (LawId.COMMUTE_EQUIV, LawId.INVARIANCE):
            raise
        return {"error": str(exc)}
    entry.pop("elapsed_ms")
    return entry


def _arrays(x):
    """Every array an element stores, direct sums flattened in summand order."""
    if x.algebra.summands:
        return [arr for blk in x.data for arr in _arrays(blk)]
    if isinstance(x.data, tuple):
        v, t = x.data
        return [v, np.asarray(t, dtype=float)]
    return [x.data]


def _trial_bits(x, k):
    return [arr[k].tobytes() for arr in _arrays(x)]


def _single_bits(x):
    return [arr.tobytes() for arr in _arrays(x)]


# ---------------------------------------------------------------------------
# residuals and audit entries
# ---------------------------------------------------------------------------

def test_every_stacked_law_is_checked_here():
    assert STACKED_LAWS == auditor.ALL_LAWS


@pytest.mark.parametrize("law", STACKED_LAWS)
@pytest.mark.parametrize("desc, short", ROWS)
def test_a_stack_of_64_trials_gives_the_per_trial_residuals(law, desc, short):
    product, alg = _row(desc, short)
    inputs = _inputs(law, product, alg, 64, seed=5)
    evaluate = auditor.LAWS[law].evaluate
    stacked = _residuals(law, product, alg, inputs)
    # each trial alone, as replay_witness evaluates it
    assert stacked == [float(evaluate(product, alg, inp)) for inp in inputs]
    # the same 64 trials drawn as one chunk
    chunk = auditor.LAWS[law].generate(_rngs(law, 5, range(64)), product, alg, range(64), {})
    assert _stacked_residuals(law, product, alg, chunk, 64) == stacked
    # a stack of one
    assert stacked[::9] == [_residuals(law, product, alg, [inp])[0]
                            for inp in inputs[::9]]


# rank-one algebras: on the matrix kinds every sample has one eigenvalue, and becomes 1/2
@pytest.mark.parametrize("law", STACKED_LAWS)
@pytest.mark.parametrize("desc, short", ROWS + [("standard", short) for short in (
    "real:1", "complex:1", "quat:1", "spin:1", "sum(real:1,spin:1)")])
def test_audit_entries_do_not_depend_on_the_chunk_size(law, desc, short, monkeypatch):
    product, alg = _row(desc, short)
    chunked = _entry(law, product, alg, 66, 3, 1e-8)
    monkeypatch.setattr(auditor, "_CHUNK", 1)
    assert _entry(law, product, alg, 66, 3, 1e-8) == chunked


def test_a_default_row_runs_as_one_chunk(monkeypatch):
    product, alg = _row("standard", "sum(complex:2,real:3)")
    generate, drawn = auditor.LAWS[LawId.SEA5].generate, []

    def counted(rngs, p, alg, trials, params):
        drawn.append(trials)
        return generate(rngs, p, alg, trials, params)

    _with(monkeypatch, LawId.SEA5, generate=counted)
    assert audit_law(LawId.SEA5, product, alg, 200, 42, 1e-8).verdict == "pass"
    assert drawn == [range(200)]


# the direct-sum frames merged across blocks, on one stack, on stacks of 64 and one by one
@pytest.mark.parametrize("law", [LawId.SEA5, LawId.DYADIC_BOUND, LawId.SPECTRAL_RECON,
                                 LawId.SELF_DUALITY])
def test_direct_sum_frame_rows_do_not_depend_on_the_chunk_size(law, monkeypatch):
    product, alg = _row("standard", "sum(complex:2,real:3)")
    entries = []
    for chunk in (256, 64, 1):
        monkeypatch.setattr(auditor, "_CHUNK", chunk)
        entries.append(_entry(law, product, alg, 200, 42, auditor.LAWS[law].tol))
    assert entries[0]["verdict"] == "pass"
    assert entries[0] == entries[1] == entries[2]


@pytest.mark.parametrize("law", [law for law in STACKED_LAWS if law not in EXACT_LAWS])
@pytest.mark.parametrize("short", ["real:4", "sum(complex:2,real:3)"])
def test_a_tolerance_first_broken_mid_chunk_gives_the_per_trial_verdict(law, short,
                                                                          monkeypatch):
    product, alg = _row("standard", short)
    residuals = _residuals(law, product, alg, _inputs(law, product, alg, 64, seed=8))
    # the worst of trials 1..62, as noise-level residuals may peak at either end of the chunk;
    # where trial 0 is worse still, every tolerance below it breaks the row at trial 0
    worst = 1 + int(np.argmax(residuals[1:63]))
    if residuals[worst] <= residuals[0]:
        worst = 0
    tol = max(residuals[:worst]) if worst else 0.5 * residuals[0]  # every earlier trial passes
    assert residuals[worst] > tol
    chunked = _entry(law, product, alg, 100, 8, tol)
    assert chunked["verdict"] == "fail"
    assert chunked["witness"]["trial"] == worst
    assert chunked["max_residual"] == chunked["witness"]["residual"] == residuals[worst]
    monkeypatch.setattr(auditor, "_CHUNK", 1)
    assert _entry(law, product, alg, 100, 8, tol) == chunked


def _failing_generator(law, bad_trial, drawn):
    generate = auditor.LAWS[law].generate

    def draw(rngs, p, alg, trials, params):
        drawn.append(list(trials))
        if bad_trial in trials:
            raise sp.NumericalFailureError(f"no sample at trial {bad_trial}")
        return generate(rngs, p, alg, trials, params)

    return draw


@pytest.mark.parametrize("chunk", [64, 1])
def test_an_error_inside_a_chunk_surfaces_at_its_own_trial(chunk, monkeypatch):
    product, alg = _row("standard", "complex:3")
    drawn = []
    _with(monkeypatch, LawId.SEA4, generate=_failing_generator(LawId.SEA4, 70, drawn))
    monkeypatch.setattr(auditor, "_CHUNK", chunk)
    entry = audit_law(LawId.SEA4, product, alg, 100, 1, 1e-8)
    assert (entry.verdict, entry.trials) == ("error", 71)
    assert entry.error == "trial 70: NumericalFailureError: no sample at trial 70"
    # the failed chunk is redone trial by trial up to the error, and no further
    chunks = [list(range(first, min(first + chunk, 100))) for first in range(0, 71, chunk)]
    redone = [[i] for i in range(64, 71)] if chunk > 1 else []
    assert drawn == chunks + redone


def test_a_failing_trial_before_the_error_wins(monkeypatch):
    product, alg = _row("standard", "real:4")
    law = LawId.SCALAR_LINEARITY
    residuals = _residuals(law, product, alg, _inputs(law, product, alg, 75, seed=3))
    worst = int(np.argmax(residuals))
    assert 64 <= worst < 75  # in the second chunk, before the error
    tol = max(residuals[:worst])
    _with(monkeypatch, law, generate=_failing_generator(law, 75, []))
    entries = []
    for chunk in (64, 1):
        monkeypatch.setattr(auditor, "_CHUNK", chunk)
        entries.append(_entry(law, product, alg, 100, 3, tol))
    assert entries[0] == entries[1]
    assert entries[0]["witness"]["trial"] == worst


def test_a_chunk_that_raises_only_when_stacked_is_redone_trial_by_trial(monkeypatch):
    product, alg = _row("standard", "quat:3")
    evaluate = auditor.LAWS[LawId.SEA2].evaluate

    def fragile(p, alg, inp):
        if inp["a"].data.ndim == 3 and len(inp["a"].data) > 1:
            raise RuntimeError("stacks of more than one trial are not supported")
        return evaluate(p, alg, inp)

    expected = _entry(LawId.SEA2, product, alg, 70, 4, 1e-8)
    _with(monkeypatch, LawId.SEA2, evaluate=fragile)
    assert _entry(LawId.SEA2, product, alg, 70, 4, 1e-8) == expected


def test_a_witness_replays_as_a_stack_of_one():
    product, alg = _row("twisted:1.0", "complex:3")
    law = LawId.SEA4
    residuals = _residuals(law, product, alg, _inputs(law, product, alg, 64, seed=6))
    worst = int(np.argmax(residuals))
    assert worst > 0
    entry = audit_law(law, product, alg, 64, 6, max(residuals[:worst]))
    assert entry.witness["trial"] == worst
    assert replay_witness("SEA4", entry.product, entry.algebra, entry.witness) \
        == entry.witness["residual"]


def test_sea5_frames_of_unequal_length_in_one_chunk(monkeypatch):
    alg = sp.parse_algebra("sum(real:2,real:1)")
    product = sp.SequentialProduct.standard(alg)
    real2, real1 = alg.summands
    turn = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])

    def base(third):  # spectrum {0.3, 0.7} + {third}; 0.3 merges across the blocks
        return sp.Element(alg, (sp.Element(real2, turn @ np.diag([0.3, 0.7]) @ turn.T),
                                sp.Element(real1, [[third]])))

    bases = [base(0.3), base(0.5)]  # frames of 2 and of 3 idempotents
    draw, calls = auditor._random_effects, []

    def planted(alg, rngs, profile="generic", fields=1):
        effects = draw(alg, rngs, profile, fields)
        calls.append(profile)
        if len(calls) % 2 != 1:  # SEA5 draws the base, then x and y as one, which stay random
            return effects
        return alg._backend.stack(alg, [bases[int(rng.integers(2))] for rng in rngs])

    monkeypatch.setattr(auditor, "_random_effects", planted)
    generate = auditor.LAWS[LawId.SEA5].generate
    rngs = _rngs(LawId.SEA5, 9, range(8))
    chunk = generate(rngs, product, alg, range(8), {})
    frames = [len(sp.spectral_decompose(auditor._take(chunk, k)["c"]).pairs) for k in range(8)]
    assert set(frames) == {2, 3}
    residuals = _stacked_residuals(LawId.SEA5, product, alg, chunk, 8)
    for k, rng in enumerate(rngs):
        alone = _rngs(LawId.SEA5, 9, [k])
        one = generate(alone, product, alg, [k], {})
        assert rng.bit_generator.state == alone[0].bit_generator.state
        assert _stacked_residuals(LawId.SEA5, product, alg, one, 1) == [residuals[k]]
        for key in chunk:
            assert _trial_bits(chunk[key], k) == _trial_bits(one[key], 0)


def test_sharp_props_flags_only_the_trial_whose_a_neg_is_p(monkeypatch):
    product, alg = _row("standard", "complex:3")
    law = LawId.SHARP_PROPS
    generate = auditor.LAWS[law].generate

    def planted(rngs, p, alg, trials, params):
        inputs, backend = generate(rngs, p, alg, trials, params), alg._backend
        a_neg = [backend.take(inputs["p" if i == 1 else "a_neg"], k) for k, i in enumerate(trials)]
        return {**inputs, "a_neg": backend.stack(alg, a_neg)}

    chunk = planted(_rngs(law, 2, range(3)), product, alg, range(3), {})
    residuals = _stacked_residuals(law, product, alg, chunk, 3)
    assert residuals[1] >= 1.0
    assert residuals[0] <= 1e-8 and residuals[2] <= 1e-8
    _with(monkeypatch, law, generate=planted)
    entry = audit_law(law, product, alg, 3, 2, 1e-8)
    assert entry.verdict == "fail" and entry.trials == 2
    assert entry.witness["trial"] == 1
    assert entry.max_residual == entry.witness["residual"] == residuals[1]
    assert replay_witness(law, entry.product, entry.algebra, entry.witness) == residuals[1]


def test_self_duality_flags_only_the_trial_whose_a_has_no_negative_eigenvalue(monkeypatch):
    product, alg = _row("standard", "sum(complex:2,real:3)")
    law = LawId.SELF_DUALITY
    generate = auditor.LAWS[law].generate

    def planted(rngs, p, alg, trials, params):  # trial 1's a is x, a Jordan square
        inputs, backend = generate(rngs, p, alg, trials, params), alg._backend
        a = [backend.take(inputs["x" if i == 1 else "a"], k) for k, i in enumerate(trials)]
        return {**inputs, "a": backend.stack(alg, a)}

    chunk = planted(_rngs(law, 2, range(3)), product, alg, range(3), {})
    assert _stacked_residuals(law, product, alg, chunk, 3) == [0.0, 1.0, 0.0]
    _with(monkeypatch, law, generate=planted)
    entry = audit_law(law, product, alg, 3, 2, auditor.LAWS[law].tol)
    assert entry.verdict == "fail" and entry.witness["trial"] == 1
    assert replay_witness(law, entry.product, entry.algebra, entry.witness) == 1.0


def test_divide_draws_each_trials_profile_in_a_chunk_that_starts_at_an_odd_trial():
    product, alg = _row("twisted:0.5", "complex:3")
    generate = auditor.LAWS[LawId.DIVIDE].generate
    trials = range(5, 12)
    chunk = generate(_rngs(LawId.DIVIDE, 4, trials), product, alg, trials, {})
    for k, i in enumerate(trials):
        one = generate(_rngs(LawId.DIVIDE, 4, [i]), product, alg, [i], {})
        for key in chunk:
            assert _trial_bits(chunk[key], k) == _trial_bits(one[key], 0)
        # q is generic on even trials and singular on odd ones
        assert (eigenvalue_range(auditor._take(chunk, k)["q"])[0] < 1e-9) == (i % 2 == 1)


# ---------------------------------------------------------------------------
# primitives on stacks
# ---------------------------------------------------------------------------

def test_worst_keeps_a_nan_wherever_it_comes():
    worst = auditor._worst
    assert math.isnan(worst(0.0, float("nan")))
    assert math.isnan(worst(float("nan"), 0.0))
    assert max(0.0, float("nan")) == 0.0  # the builtin would hide it
    assert worst(0.1, 0.3, 0.2) == 0.3
    per_trial = worst(np.array([0.0, 2.0, 1.0]), np.array([1.0, np.nan, 0.5]))
    assert per_trial[0] == 1.0 and math.isnan(per_trial[1]) and per_trial[2] == 1.0


def test_the_public_constructor_rejects_stacked_data():
    with pytest.raises(sp.ConfigError):
        sp.Element(sp.real_symmetric(2), np.zeros((3, 2, 2)))
    with pytest.raises(sp.ConfigError):
        sp.Element(sp.spin_factor(3), (np.zeros((4, 3)), np.zeros(4)))


@pytest.mark.parametrize("short", ALGEBRA_SHORTHANDS + ["quat:3", "sum(spin:3,quat:2)"])
def test_stacked_operations_equal_the_single_ones_bit_for_bit(short):
    alg = sp.parse_algebra(short)
    profiles = ("generic", "singular", "sharp")
    elems = [sp.random_effect(alg, 60 + k, profiles[k % 3]) for k in range(9)]
    others = [sp.random_effect(alg, 80 + k) for k in range(9)]
    a, b = (alg._backend.stack(alg, xs) for xs in (elems, others))
    p = sp.SequentialProduct.standard(alg)
    square = sp.functional_calculus(a, lambda x: x * x - 0.5 * x)
    cases = [(sp.sqrt_pos(a), sp.sqrt_pos), (square, lambda x: sp.functional_calculus(
        x, lambda y: y * y - 0.5 * y)), (sp.pseudo_inverse(a), sp.pseudo_inverse),
        (sp.floor_effect(a), sp.floor_effect), (sp.ceiling_effect(a), sp.ceiling_effect)]
    for stacked, single in cases:
        for k, x in enumerate(elems):
            assert _trial_bits(stacked, k) == _single_bits(single(x))
    ab = sp.seq_product(p, a, b)
    res = rel_residual(sp.seq_product(p, b, a), ab)
    lo, hi = eigenvalue_range(a)
    quotient = sp.divide(p, a, ab)  # ab = a o b lies below a
    values, frame, counts = alg._backend.spectral_pairs(a, DEFAULT_GAP)
    for k, (x, y) in enumerate(zip(elems, others)):
        assert _trial_bits(ab, k) == _single_bits(sp.seq_product(p, x, y))
        assert res[k] == rel_residual(sp.seq_product(p, y, x), sp.seq_product(p, x, y))
        assert (lo[k], hi[k]) == eigenvalue_range(x)
        assert _trial_bits(quotient, k) == _single_bits(sp.divide(p, x, sp.seq_product(p, x, y)))
        dec, n = sp.spectral_decompose(x), counts[k]
        assert values[k, :n].tobytes() == np.array(dec.eigenvalues).tobytes()
        assert [_trial_bits(e, k) for e in frame[:n]] == list(map(_single_bits, dec.idempotents))
    # an unstacked operand broadcasts against the stack
    one = sp.identity(alg)
    for k, y in enumerate(others):
        assert _trial_bits(sp.seq_product(p, one, b), k) == _single_bits(sp.seq_product(p, one, y))
        assert _trial_bits(one - b, k) == _single_bits(one - y)


def _numpy_inner(x, y):
    """tr(x y) of single elements from numpy's single calls: ``np.vdot(x, y).real`` per matrix
    block, halved on quaternions, and 2 (np.vdot(v, w) + t s) per spin block, summed over the
    blocks."""
    if x.algebra.kind == KIND_SUM:
        return sum(_numpy_inner(bx, by) for bx, by in zip(x.data, y.data))
    if x.algebra.kind == KIND_SPIN:
        (v, t), (w, s) = x.data, y.data
        return 2.0 * (np.vdot(v, w) + t * s)
    val = np.vdot(x.data, y.data).real
    return 0.5 * val if x.algebra.kind == KIND_QUAT else val


def _numpy_commutator_norm(x, y):
    """The Frobenius norm of each block's commutator (of v w^T - w v^T on a spin block) from one
    ``np.linalg.norm`` call, the largest over the blocks."""
    if x.algebra.kind == KIND_SUM:
        return max(_numpy_commutator_norm(bx, by) for bx, by in zip(x.data, y.data))
    if x.algebra.kind == KIND_SPIN:
        outer = np.outer(x.data[0], y.data[0])
        return np.linalg.norm(outer - outer.T)
    return np.linalg.norm(x.data @ y.data - y.data @ x.data)


# a row reduction over the stack sums each trial as numpy's single call does: a numpy or BLAS
# build on which it stops doing so fails here, rather than moving witnesses
@pytest.mark.parametrize("short", list(REFERENCE_ALGEBRAS) + ["quat:1", "spin:1",
                                                             "sum(real:1,spin:1)"])
def test_stacked_trace_inner_products_equal_the_single_ones_bit_for_bit(short):
    alg = sp.parse_algebra(short)
    elems = [sp.random_effect(alg, 120 + k) for k in range(7)]
    others = [random_element(alg, 140 + k) for k in range(7)]
    a, b = (alg._backend.stack(alg, xs) for xs in (elems, others))
    singles = [sp.trace_inner_product(x, y) for x, y in zip(elems, others)]
    assert sp.trace_inner_product(a, b).tolist() == singles
    assert singles == [_numpy_inner(x, y) for x, y in zip(elems, others)]
    # an unstacked operand broadcasts against the stack
    assert trace(b).tolist() == [trace(y) for y in others]
    for one in (sp.identity(alg), others[0]):
        assert sp.trace_inner_product(one, a).tolist() == [_numpy_inner(one, x) for x in elems]


def test_divide_on_a_stack_fails_loudly_and_names_the_worst_eigenvalue():
    alg = sp.parse_algebra("complex:3")
    p = sp.SequentialProduct.standard(alg)
    qs = [sp.random_effect(alg, 160 + k) for k in range(3)]
    below = [sp.seq_product(p, q, sp.random_effect(alg, 170 + k)) for k, q in enumerate(qs)]
    q = alg._backend.stack(alg, qs)
    c = sp.divide(p, q, alg._backend.stack(alg, below))
    for k, (x, y) in enumerate(zip(qs, below)):
        assert _trial_bits(c, k) == _single_bits(sp.divide(p, x, y))
    one = sp.identity(alg)
    above = [below[0], qs[1] + one * 0.25, below[2]]  # a <= q fails on trial 1 alone
    with pytest.raises(sp.PreconditionError, match=r"q - a is -2\.500e-01"):
        sp.divide(p, q, alg._backend.stack(alg, above))
    above[0] = qs[0] + one * 0.125  # the first offending trial is not the worst
    with pytest.raises(sp.PreconditionError, match=r"q - a is -2\.500e-01"):
        sp.divide(p, q, alg._backend.stack(alg, above))


def test_stacked_twisted_products_equal_the_single_ones_bit_for_bit():
    alg = sp.parse_algebra("sum(complex:2,complex:3)")
    p = sp.parse_product("twisted:0.7", alg)
    elems = [sp.random_effect(alg, 90 + k, ("generic", "singular")[k % 2]) for k in range(6)]
    others = [sp.random_effect(alg, 100 + k) for k in range(6)]
    ab = sp.seq_product(p, *(alg._backend.stack(alg, xs) for xs in (elems, others)))
    for k, (x, y) in enumerate(zip(elems, others)):
        assert _trial_bits(ab, k) == _single_bits(sp.seq_product(p, x, y))


# Kramers pairs on quaternions, the kernels of singular effects, the 0 and 1 of sharp ones
@pytest.mark.parametrize("short", ["quat:3", "complex:3", "real:4", "sum(spin:3,quat:2)"])
@pytest.mark.parametrize("profile", ["generic", "singular", "sharp"])
def test_per_trial_coefficients_on_clustered_stacks_equal_each_trials_own_result(short,
                                                                                  profile):
    alg = sp.parse_algebra(short)
    elems = [sp.random_effect(alg, 180 + k, profile) for k in range(6)]
    coefs = np.random.default_rng(5).uniform(-1.0, 1.0, (3, len(elems)))

    def clipped(c0, c1, c2):
        return lambda x: np.minimum(0.95, np.maximum(0.05, c0 + c1 * x + c2 * x * x))

    stack = alg._backend.stack(alg, elems)
    out = alg._backend.functional(stack, clipped(*coefs), DEFAULT_GAP)
    for k, x in enumerate(elems):
        own = alg._backend.functional(x, clipped(*coefs[:, k]), DEFAULT_GAP)
        assert _trial_bits(out, k) == _single_bits(own)
    if not alg.summands and (short == "quat:3" or profile != "generic"):
        sizes, _ = _clusters(np.linalg.eigvalsh(stack.data), DEFAULT_GAP)
        assert max(sizes) > 1  # the stack has a cluster to spread over its eigenvalues


# generic, singular and sharp effects: Kramers pairs, kernels and the 0 and 1 of projections
# give degenerate clusters, and the frames of one stack have different lengths.  A product
# V_c V_c^H padded with a zero column rounds differently on complex:3 and complex:6.
@pytest.mark.parametrize("short", list(REFERENCE_ALGEBRAS) + [
    "complex:3", "complex:6", "quat:1", "spin:1", "sum(spin:3,quat:2)", "close spectra"])
def test_stacked_frames_equal_the_single_ones_bit_for_bit(short):
    if short == "close spectra":  # blocks that share an eigenvalue, merged across them
        alg, rng = sp.parse_algebra("sum(complex:2,real:3)"), np.random.default_rng(6)
        elems = [close_across_blocks(alg, rng) for _ in range(8)]
    else:
        alg = sp.parse_algebra(short)
        profiles = ("generic", "singular", "sharp")
        elems = [sp.random_effect(alg, 300 + k, profiles[k % 3]) for k in range(12)]
    values, frame, counts = alg._backend.spectral_pairs(alg._backend.stack(alg, elems),
                                                        DEFAULT_GAP)
    assert values.shape == (len(elems), len(frame)) and len(frame) == max(counts)
    for k, x in enumerate(elems):
        single = sp.spectral_decompose(x)
        n = len(single.pairs)
        assert counts[k] == n
        assert values[k].tolist() == list(single.eigenvalues) + [0.0] * (len(frame) - n)
        padding = [sp.zero(alg)] * (len(frame) - n)
        for p, q in zip(frame, list(single.idempotents) + padding):
            assert _trial_bits(p, k) == _single_bits(q)
    if short in ("real:4", "quat:3", "sum(spin:3,quat:2)"):
        assert len(set(counts.tolist())) > 1  # a chunk with frames of different lengths


def test_dyadic_approximants_of_a_stack_are_the_single_ones_and_the_per_eigenvalue_count():
    alg = sp.parse_algebra("complex:3")
    profiles = ("generic", "singular", "sharp")
    elems = [sp.random_effect(alg, 320 + k, profiles[k % 3]) for k in range(6)]
    stacked = sp.dyadic_approximation(alg._backend.stack(alg, elems), 5)
    for k, x in enumerate(elems):
        for m, (q, single) in enumerate(zip(stacked, sp.dyadic_approximation(x, 5)), start=1):
            n = 2 ** m
            rule = sp.functional_calculus(  # the count of k/n below each eigenvalue, one by one
                x, lambda lam: sum(1 for j in range(1, n + 1) if lam > j / n + 1e-12) / n)
            assert _trial_bits(q, k) == _single_bits(single) == _single_bits(rule)


def test_dyadic_approximation_of_a_stack_fails_loudly_and_names_the_worst_eigenvalue():
    alg = sp.parse_algebra("real:2")

    def diag(*w):
        return sp.Element(alg, np.diag(w))

    stack = alg._backend.stack(alg, [diag(0.2, 0.7), diag(1.25, 0.5), diag(-0.5, 0.3)])
    with pytest.raises(sp.PreconditionError, match=r"eigenvalue -5\.000e-01 is outside"):
        sp.dyadic_approximation(stack, 2)
    with pytest.raises(sp.PreconditionError, match=r"eigenvalue 1\.250e\+00 is outside"):
        sp.dyadic_approximation(diag(1.25, 0.5), 2)


def test_cluster_values_are_lone_eigenvalues_or_their_numpy_mean():
    rng = np.random.default_rng(11)
    rows, expected_sizes, expected_values = [], [], []
    for _ in range(2):  # two rows of 12 eigenvalues, clusters of 1 to 7
        sizes = [1, 2, 3, 6] if not rows else [7, 1, 1, 2, 1]
        centres = np.cumsum(rng.uniform(0.01, 1.0, len(sizes)))
        parts = [c + np.sort(rng.uniform(0.0, 3e-9, n)) for c, n in zip(centres, sizes)]
        rows.append(np.concatenate(parts))
        expected_sizes += sizes
        expected_values += [part[0] if len(part) == 1 else float(np.mean(part)) for part in parts]
    sizes, values = _clusters(np.stack(rows), 1e-8)
    assert sizes == expected_sizes
    assert values.tolist() == expected_values
    sizes, values = _clusters(rows[0], 1e-8)
    assert values.tolist() == expected_values[:4]
    # a lone -0.0 keeps its sign; a Kramers pair averages as np.mean does
    pair = np.array([-0.0, 0.3, 0.3 + 2e-16])
    sizes, values = _clusters(pair, 1e-8)
    assert sizes == [1, 2]
    assert math.copysign(1.0, values[0]) == -1.0
    assert values[1] == np.mean(pair[1:])


# ---------------------------------------------------------------------------
# one solve per block per chunk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("short, blocks", [("real:4", 1), ("sum(complex:2,real:3)", 2)])
def test_sea1_evaluation_solves_each_block_twice_per_chunk(short, blocks, monkeypatch):
    product, alg = _row("standard", short)
    calls, counting = [], [False]
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _solver=getattr(np.linalg, name), **kwargs):
            if counting[0]:
                calls.append(1)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    evaluate = auditor.LAWS[LawId.SEA1].evaluate

    def counted_evaluate(*args):
        counting[0] = True
        try:
            return evaluate(*args)
        finally:
            counting[0] = False

    _with(monkeypatch, LawId.SEA1, evaluate=counted_evaluate)
    assert audit_law(LawId.SEA1, product, alg, 200, 42, 1e-8).verdict == "pass"
    assert 0 < len(calls) <= 2 * blocks  # 200 trials are one chunk


# ---------------------------------------------------------------------------
# stacked random projections
# ---------------------------------------------------------------------------

PROJECTION_ALGEBRAS = list(REFERENCE_ALGEBRAS) + [
    "complex:3", "complex:6", "quat:1", "spin:1", "sum(real:1,real:1)", "sum(spin:3,quat:2)",
    "sum(sum(real:2,spin:2),complex:2)"]


def _projection_alone(alg, rng, proper):
    """A random projection drawn trial by trial: one eigensolve of the trial's Gaussian sample,
    then its rank and its permutation, the chosen eigenvector column groups joined by
    ``np.hstack`` in permutation order and multiplied once.  A direct sum draws its blocks in
    summand order; with ``proper`` it redraws block 0 where every block came out 0 and sets it
    to 0 where every block came out 1."""
    if alg.summands:
        subs = alg.summands
        blocks = [_projection_alone(s, rng, False) for s in subs]
        ranks = [round(trace(b)) for b in blocks]
        if proper and sum(ranks) == 0:
            blocks[0] = _projection_alone(subs[0], rng, True)
        elif proper and ranks == [round(trace(sp.identity(s))) for s in subs]:
            blocks[0] = sp.zero(subs[0])
        return sp.Element(alg, tuple(blocks))
    if alg.kind == KIND_SPIN:
        v = rng.standard_normal(alg.size)
        v = v / np.linalg.norm(v)
        if rng.integers(0, 2):
            v = -v
        return sp.Element(alg, (0.5 * v, 0.5))
    n = alg.size
    unit = alg.matrix_order // n
    _, vecs = np.linalg.eigh(random_element(alg, rng).data)
    if n == 1 and proper:
        return sp.identity(alg)
    lo, hi = (1, n - 1) if proper else (0, n)
    r = int(rng.integers(lo, hi + 1))
    chosen = rng.permutation(n)[:r]
    if r == 0:
        return sp.zero(alg)
    cols = np.hstack([vecs[:, unit * k:unit * k + unit] for k in chosen])
    return sp.Element(alg, cols @ cols.conj().T)


def _projection_rngs(trials=64):
    return [np.random.default_rng((13, k)) for k in range(trials)]


@pytest.mark.parametrize("proper", [True, False])
@pytest.mark.parametrize("short", PROJECTION_ALGEBRAS)
def test_stacked_projections_equal_the_trial_by_trial_draws_bit_for_bit(short, proper):
    alg = sp.parse_algebra(short)
    backend = alg._backend
    rngs, ones, alone = _projection_rngs(), _projection_rngs(), _projection_rngs()
    stack = backend.random_projections(alg, rngs, proper)
    for k in range(len(rngs)):
        one = backend.random_projections(alg, [ones[k]], proper)
        assert _trial_bits(stack, k) == _trial_bits(one, 0) \
            == _single_bits(_projection_alone(alg, alone[k], proper))
        # each Generator made the same draws, and no other
        assert rngs[k].bit_generator.state == ones[k].bit_generator.state \
            == alone[k].bit_generator.state
    if proper:
        assert _single_bits(random_projection(alg, _projection_rngs(1)[0])) \
            == _trial_bits(stack, 0)


@pytest.mark.parametrize("short", ["sum(real:1,real:1)", "sum(complex:2,real:3)"])
def test_the_checked_direct_sum_draws_include_both_proper_fixes(short):
    """Both fixes of a proper projection on a direct sum occur in the trials the bit-for-bit test
    above draws: block 0 set to 0 where every block came out 1, redrawn where all came out 0."""
    alg = sp.parse_algebra(short)
    drawn = alg._backend.random_projections(alg, _projection_rngs(), False)
    ranks = np.rint([trace(block) for block in drawn.data])
    full = np.rint([trace(sp.identity(s)) for s in alg.summands])[:, None]
    assert np.any((ranks == full).all(0))
    assert np.any(ranks.sum(0) == 0)
    fixed = alg._backend.random_projections(alg, _projection_rngs(), True)
    fixed_ranks = np.rint([trace(block) for block in fixed.data])
    assert np.all((fixed_ranks.sum(0) > 0) & ~(fixed_ranks == full).all(0))


@pytest.mark.parametrize("short, solves", [
    ("real:4", (1, 1)), ("quat:3", (1, 1)), ("spin:5", (0, 0)),
    # one per matrix block, and one more if some trial redraws its block 0
    ("sum(complex:2,real:3)", (2, 3)), ("sum(spin:3,quat:2)", (1, 1))])
def test_a_sharp_stack_solves_each_matrix_block_once(short, solves, monkeypatch):
    alg = sp.parse_algebra(short)
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _solver=getattr(np.linalg, name), **kwargs):
            calls.append(1)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    _random_effects(alg, _projection_rngs(), "sharp")
    assert solves[0] <= len(calls) <= solves[1]


# ---------------------------------------------------------------------------
# stacked linear maps
# ---------------------------------------------------------------------------

def _matrix_bits(m, k=None):
    return (m.matrix if k is None else m.matrix[k]).tobytes()


# the column form of to_coords is what keeps apply bit for bit on quaternions
@pytest.mark.parametrize("short", list(REFERENCE_ALGEBRAS) + ["quat:1", "spin:1",
                                                             "sum(spin:3,quat:2)"])
def test_stacked_maps_equal_the_single_ones_bit_for_bit(short):
    alg = sp.parse_algebra(short)
    elems = [sp.random_effect(alg, 200 + k, "invertible") for k in range(6)]
    others = [sp.random_effect(alg, 220 + k) for k in range(6)]
    a, b = (alg._backend.stack(alg, xs) for xs in (elems, others))
    std = sp.SequentialProduct.standard(alg)
    operators = [jordan_mult_operator, quadratic_operator, partial(sp.multiplication_operator, std)]
    if alg.is_complex_kind():
        operators += [partial(sp.multiplication_operator, sp.SequentialProduct.twisted(alg, 1.0)),
                      partial(sp.imaginary_power_conjugation, t=1.0)]
    for op in operators:
        stacked = op(a)
        assert stacked.matrix.shape == (6,) + (alg.real_dimension,) * 2
        for k, x in enumerate(elems):
            assert _matrix_bits(stacked, k) == _matrix_bits(op(x))
    f, g = sp.multiplication_operator(std, a), quadratic_operator(b)
    fg, f_inv, dist = f.compose(g), f.invert(), map_distance(f, g)
    coords, image, unit = alg._backend.to_coords(b), f.apply(b), f.apply(sp.identity(alg))
    commutators = alg._backend.commutator_norm(a, b)
    for k, (x, y) in enumerate(zip(elems, others)):
        f_k, g_k = sp.multiplication_operator(std, x), quadratic_operator(y)
        assert _matrix_bits(fg, k) == _matrix_bits(f_k.compose(g_k))
        assert _matrix_bits(f_inv, k) == _matrix_bits(f_k.invert())
        assert dist[k] == map_distance(f_k, g_k) == operator_norm(f_k.matrix - g_k.matrix)
        assert coords[k].tobytes() == to_coords(y).tobytes()
        assert _trial_bits(image, k) == _single_bits(f_k.apply(y))
        assert _trial_bits(unit, k) == _single_bits(f_k.apply(sp.identity(alg)))
        assert commutators[k] == alg._backend.commutator_norm(x, y) == _numpy_commutator_norm(x, y)
    # an unstacked operand broadcasts against the stack
    assert (alg._backend.commutator_norm(elems[0], b).tolist()
            == [_numpy_commutator_norm(elems[0], y) for y in others])


def test_a_stacked_map_is_built_only_inside_the_package():
    alg = sp.parse_algebra("real:2")
    with pytest.raises(sp.ConfigError):
        sp.LinearMap(alg, np.zeros((3, 3, 3)))
    stacked = jordan_mult_operator(alg._backend.stack(alg, [sp.identity(alg)] * 3))
    assert stacked.matrix.shape == (3, 3, 3) and not stacked.matrix.flags.writeable


def test_stacked_operator_preconditions_fail_loudly_and_name_the_worst_eigenvalue():
    alg = sp.parse_algebra("complex:3")
    std, tw = sp.SequentialProduct.standard(alg), sp.SequentialProduct.twisted(alg, 1.0)
    good = [sp.random_effect(alg, 240 + k, "invertible") for k in range(3)]
    others = [sp.random_effect(alg, 250 + k, "invertible") for k in range(3)]
    a, b = (alg._backend.stack(alg, xs) for xs in (good, others))
    phi, theta = sp.homogeneity_iso(a, b), sp.theta_between(std, tw, a)
    norms = operator_norm(phi)
    assert norms.shape == (3,)
    for k, (x, y) in enumerate(zip(good, others)):
        assert _matrix_bits(phi, k) == _matrix_bits(sp.homogeneity_iso(x, y))
        assert _matrix_bits(theta, k) == _matrix_bits(sp.theta_between(std, tw, x))
        assert norms[k] == operator_norm(sp.homogeneity_iso(x, y))

    def diag(*w):
        return sp.Element(alg, np.diag(w).astype(complex))

    # trial 1 alone is not invertible; then the first offending trial is not the worst
    near = alg._backend.stack(alg, [good[0], diag(0.5, 0.25, 2.5e-7), good[2]])
    with pytest.raises(sp.PreconditionError, match=r"a has min eigenvalue 2\.500e-07"):
        sp.homogeneity_iso(near, b)
    near = alg._backend.stack(alg, [diag(0.5, 0.25, 5e-7), diag(0.5, 0.25, 2.5e-7), good[2]])
    with pytest.raises(sp.PreconditionError, match=r"b has min eigenvalue 2\.500e-07"):
        sp.homogeneity_iso(a, near)
    kernel = alg._backend.stack(alg, [good[0], diag(0.5, 0.25, 2.5e-10), diag(0.5, 0.25, 0.0)])
    with pytest.raises(sp.PreconditionError, match=r"invertible q; min eigenvalue 0\.000e\+00"):
        sp.theta_between(std, tw, kernel)
    # the roots take an eigenvalue at the support threshold 1e-9 as kernel: it is refused too
    with pytest.raises(sp.PreconditionError, match=r"invertible q; min eigenvalue 1\.000e-09"):
        sp.theta_between(std, tw, diag(0.5, 0.25, 1e-9))
    sp.theta_between(std, tw, diag(0.5, 0.25, 2e-9))


# ---------------------------------------------------------------------------
# witnesses of maps and labels
# ---------------------------------------------------------------------------

def test_an_invariance_witness_is_its_trials_own_isomorphism():
    product, alg = _row("standard", "complex:4")
    law = LawId.INVARIANCE
    chunk = auditor.LAWS[law].generate(_rngs(law, 2, range(4)), product, alg, range(4), {})
    residuals = _stacked_residuals(law, product, alg, chunk, 4)
    for k in range(4):  # the kinds take turns by trial
        one = auditor.LAWS[law].generate(_rngs(law, 2, [k]), product, alg, [k], {})
        trial, alone = auditor._take(chunk, k), auditor._take(one, 0)
        assert trial["phi"].label == alone["phi"].label == ("Ad_u", "transpose")[k % 2]
        assert _matrix_bits(trial["phi"]) == _matrix_bits(alone["phi"])
    assert residuals[1] > residuals[0]
    # trial 0 passes at its own residual, so trial 1, a transpose, is the witness
    entry = audit_law(law, product, alg, 4, 2, residuals[0])
    assert entry.witness["trial"] == 1
    assert entry.witness["inputs"]["phi"]["label"] == "transpose"
    assert replay_witness(law, entry.product, entry.algebra, entry.witness) \
        == entry.witness["residual"] == residuals[1]


def test_a_commute_equiv_witness_carries_its_trials_expectation(monkeypatch):
    product, alg = _row("standard", "quat:3")
    law = LawId.COMMUTE_EQUIV
    generate = auditor.LAWS[law].generate

    def planted(rngs, p, alg, trials, params):  # trial 3's pair does not commute
        inputs = generate(rngs, p, alg, trials, params)
        return {**inputs, "expected": ["commuting" if i == 3 else e
                                       for i, e in zip(trials, inputs["expected"])]}

    chunk = generate(_rngs(law, 2, range(5)), product, alg, range(5), {})
    assert [auditor._take(chunk, k)["expected"] for k in range(5)] == \
        ["commuting", "generic"] * 2 + ["commuting"]
    _with(monkeypatch, law, generate=planted)
    entry = audit_law(law, product, alg, 5, 2, 1e-8)
    assert entry.verdict == "fail" and entry.witness["trial"] == 3
    assert entry.witness["inputs"]["expected"] == "commuting"
    assert replay_witness(law, entry.product, entry.algebra, entry.witness) == 1.0


# ---------------------------------------------------------------------------
# the stack and take primitives
# ---------------------------------------------------------------------------

def _leaves(x) -> list:
    """The arrays of an element's data in block order: a matrix, a spin pair's v and t."""
    if x.algebra.kind == KIND_SUM:
        return [leaf for blk in x.data for leaf in _leaves(blk)]
    return [np.asarray(part) for part in (x.data if x.algebra.kind == KIND_SPIN else [x.data])]


def _leaf_bits(leaves) -> list:
    return [(leaf.dtype, leaf.shape, leaf.tobytes()) for leaf in leaves]


CONTRACT_ALGEBRAS = list(REFERENCE_ALGEBRAS) + ["sum(real:1,spin:1)"]


@pytest.mark.parametrize("short", CONTRACT_ALGEBRAS)
def test_a_stack_of_single_elements_is_np_stack_of_their_data(short):
    alg = sp.parse_algebra(short)
    elems = [random_element(alg, seed) for seed in range(4)]
    columns = zip(*(_leaves(x) for x in elems))
    assert _leaf_bits(_leaves(alg._backend.stack(alg, elems))) == \
        _leaf_bits(np.stack(column) for column in columns)


@pytest.mark.parametrize("short", CONTRACT_ALGEBRAS)
def test_a_stack_of_stacks_and_single_elements_concatenates_their_trials(short):
    alg = sp.parse_algebra(short)
    backend = alg._backend
    rngs = [np.random.default_rng(seed) for seed in range(6)]
    parts = [_random_effects(alg, rngs[:3]), random_element(alg, 7),
             backend.random_elements(alg, rngs[3:]), sp.identity(alg)]
    trials = [backend.take(parts[0], k) for k in range(3)] + [parts[1]] \
        + [backend.take(parts[2], k) for k in range(3)] + [parts[3]]
    assert _leaf_bits(_leaves(backend.stack(alg, parts))) == \
        _leaf_bits(_leaves(backend.stack(alg, trials)))


@pytest.mark.parametrize("short", CONTRACT_ALGEBRAS)
def test_take_by_an_index_array_gathers_the_trials_one_by_one(short):
    alg = sp.parse_algebra(short)
    backend = alg._backend
    x = _random_effects(alg, [np.random.default_rng(seed) for seed in range(5)])
    index = np.array([4, 0, 0, 2, 3, 1])
    gathered = backend.take(x, index)
    assert _leaf_bits(_leaves(gathered)) == \
        _leaf_bits(_leaves(backend.stack(alg, [backend.take(x, int(k)) for k in index])))
    assert _leaf_bits(_leaves(backend.take(x, 2))) == _leaf_bits(_leaves(backend.take(gathered, 3)))
    assert not any(leaf.flags.writeable for leaf in _leaves(gathered))


@pytest.mark.parametrize("short", ["real:4", "complex:4", "quat:3", "spin:5", "sum(real:1,spin:2)"])
def test_every_array_of_a_stacked_result_is_read_only(short):
    # a writable array could be changed under the solves and roots cached on its element
    alg = sp.parse_algebra(short)
    backend = alg._backend
    rngs = [np.random.default_rng(seed) for seed in range(4)]
    a, b = _random_effects(alg, rngs), backend.random_elements(alg, rngs)
    results = [a, b, a + b, a - b, a * 0.5, backend.scale(a, np.arange(4.0)),
               sp.jordan_product(a, b), sp.sqrt_pos(a), sp.functional_calculus(a, np.exp),
               backend.from_coords(alg, backend.to_coords(a)), backend.take(a, np.array([2, 0])),
               backend.stack(alg, [a, b]), backend.random_projections(alg, rngs, False),
               *backend.spectral_pairs(a, DEFAULT_GAP)[1]]
    for x in results:
        assert not any(leaf.flags.writeable for leaf in _leaves(x))
