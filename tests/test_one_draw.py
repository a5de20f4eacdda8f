"""One Gaussian draw per trial, and the seeds the public draws take.

``random_elements(alg, rngs, F)`` fills each Generator's F samples with one ``standard_normal``
call.  NumPy's ziggurat sampler keeps no state between calls, so the F samples are those of F
successive one-field draws, bit for bit, and each Generator ends in the same state.
"""

import numpy as np
import pytest

import seqprod as sp
from seqprod import auditor
from seqprod.algebra import _random_effects, random_element, random_projection
from seqprod.auditor import REFERENCE_ALGEBRAS, LawId

DRAW_ALGEBRAS = ["real:1", "real:4", "complex:4", "quat:3", "spin:5", "sum(complex:2,real:3)",
                 "sum(real:1,spin:2)"]


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


def _rngs(seed, k=5):
    return [np.random.default_rng((seed, i)) for i in range(k)]


def _states(rngs):
    return [rng.bit_generator.state for rng in rngs]


@pytest.mark.parametrize("fields", [1, 2, 3])
@pytest.mark.parametrize("short", DRAW_ALGEBRAS)
def test_one_draw_gives_the_samples_of_successive_draws_bit_for_bit(short, fields):
    alg = sp.parse_algebra(short)
    backend = alg._backend
    rngs, alone = _rngs(61), _rngs(61)
    stack, k = backend.random_elements(alg, rngs, fields), len(rngs)
    for f in range(fields):
        one = backend.random_elements(alg, alone)
        for i in range(k):
            assert _trial_bits(stack, f * k + i) == _trial_bits(one, i)
    assert _states(rngs) == _states(alone)


@pytest.mark.parametrize("profile", ["generic", "invertible"])
@pytest.mark.parametrize("short", DRAW_ALGEBRAS)
def test_fields_of_effects_are_those_of_successive_calls_bit_for_bit(short, profile):
    alg = sp.parse_algebra(short)
    rngs, alone = _rngs(62), _rngs(62)
    stack, k = _random_effects(alg, rngs, profile, 3), len(rngs)
    for f in range(3):
        one = _random_effects(alg, alone, profile)
        for i in range(k):
            assert _trial_bits(stack, f * k + i) == _trial_bits(one, i)
    assert _states(rngs) == _states(alone)


class Counting:
    """A Generator that counts its ``standard_normal`` calls and forwards every call."""

    def __init__(self, rng):
        self.rng, self.normal_calls = rng, 0

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("law", [LawId.SEA1, LawId.SCALAR_LINEARITY, LawId.SYMMETRY])
@pytest.mark.parametrize("short", REFERENCE_ALGEBRAS)
def test_a_trial_of_a_gaussian_row_makes_one_normal_call(law, short):
    alg = sp.parse_algebra(short)
    product = sp.SequentialProduct.standard(alg)
    rngs = [Counting(rng) for rng in _rngs(63, 4)]
    auditor.LAWS[law].generate(rngs, product, alg, range(4), {})
    assert [rng.normal_calls for rng in rngs] == [1] * 4


def _public_draws(alg):
    return [lambda seed: sp.random_effect(alg, seed),
            lambda seed: random_element(alg, seed),
            lambda seed: random_projection(alg, seed),
            lambda seed: sp.make_order_iso(alg, "unitary_conjugation", seed)]


@pytest.mark.parametrize("seed", [-1, 1.5, "a", [3, -4], None, True, False, np.True_])
def test_a_seed_that_default_rng_refuses_raises_config_error(seed):
    for draw in _public_draws(sp.parse_algebra("complex:3")):
        with pytest.raises(sp.ConfigError, match="seed"):
            draw(seed)


def test_seeds_that_default_rng_takes_keep_working():
    alg = sp.parse_algebra("complex:3")
    for seed in (0, 7, 2 ** 70, (3, 4), [5, 6, 7]):
        for draw in _public_draws(alg):
            got, want = draw(seed), draw(np.random.default_rng(seed))
            if isinstance(got, sp.LinearMap):
                assert got.matrix.tobytes() == want.matrix.tobytes()
            else:
                assert got.data.tobytes() == want.data.tobytes()
