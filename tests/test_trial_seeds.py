"""The per-trial Generators of an audit row: seeded from words derived for each chunk in one
pass as the chunk starts, and equal bit for bit to ``np.random.default_rng((seed, ordinal, i))``."""

import dataclasses

import numpy as np
import pytest

import seqprod as sp
from seqprod import auditor
from seqprod.auditor import LawId, _TrialSeed, audit_law, trial_seed_words

#: seeds of one, one, one, two and three 32-bit words
SEEDS = [0, 42, 2 ** 31 - 1, 2 ** 32 + 5, 2 ** 64 + 3]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ordinal", [0, 22])
@pytest.mark.parametrize("trials", [200, 1])
def test_the_row_words_seed_the_generators_of_default_rng(seed, ordinal, trials):
    words = trial_seed_words(seed, ordinal, range(trials))
    assert words.shape == (trials, 4) and words.dtype == np.uint64
    for i in range(trials):
        want = np.random.SeedSequence((seed, ordinal, i)).generate_state(4, np.uint64)
        assert (words[i] == want).all()
        rng = np.random.Generator(np.random.PCG64(_TrialSeed(words[i])))
        ref = np.random.default_rng((seed, ordinal, i))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.standard_normal(4).tolist() == ref.standard_normal(4).tolist()
        assert rng.uniform(0.05, 0.95) == ref.uniform(0.05, 0.95)
        assert rng.integers(2 ** 31) == ref.integers(2 ** 31)


def _counted(monkeypatch):
    """Record each ``default_rng`` call and each derivation of seed words."""
    made, derived = [], []
    default_rng, derive = np.random.default_rng, auditor.trial_seed_words

    def counted_rng(*args, **kwargs):
        made.append(args)
        return default_rng(*args, **kwargs)

    def counted_derive(seed, ordinal, trials):
        derived.append(trials)
        return derive(seed, ordinal, trials)

    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    monkeypatch.setattr(auditor, "trial_seed_words", counted_derive)
    return made, derived


def test_a_row_derives_its_words_once_and_makes_no_default_rng(monkeypatch):
    alg = sp.parse_algebra("real:4")
    product = sp.SequentialProduct.standard(alg)
    made, derived = _counted(monkeypatch)
    entry = audit_law(LawId.SEA1, product, alg, 200, 42, 1e-8)
    assert (entry.verdict, entry.trials) == ("pass", 200)
    assert made == []
    assert derived == [range(200)]  # once for the row, which runs as one chunk


def test_each_chunk_derives_its_words_as_it_starts(monkeypatch):
    alg = sp.parse_algebra("real:4")
    product = sp.SequentialProduct.standard(alg)
    made, derived = _counted(monkeypatch)
    assert audit_law(LawId.SEA1, product, alg, 600, 42, 1e-8).verdict == "pass"
    assert derived == [range(0, 256), range(256, 512), range(512, 600)]
    derived.clear()
    entry = audit_law(LawId.SEA1, product, alg, 600, 42, 1e-300)  # fails at trial 0
    assert (entry.verdict, entry.trials) == ("fail", 1)
    assert derived == [range(0, 256)]
    assert made == []


def test_chunks_redone_as_chunks_of_one_reuse_the_row_words(monkeypatch):
    alg = sp.parse_algebra("real:4")
    product = sp.SequentialProduct.standard(alg)
    expected = dataclasses.replace(audit_law(LawId.SEA1, product, alg, 70, 5, 1e-8),
                                   elapsed_ms=0.0)
    evaluate = auditor.LAWS[LawId.SEA1].evaluate

    def fragile(p, alg, inp):
        if len(inp["a"].data) > 1:
            raise RuntimeError("stacks of more than one trial are not supported")
        return evaluate(p, alg, inp)

    monkeypatch.setitem(auditor.LAWS, LawId.SEA1,
                        dataclasses.replace(auditor.LAWS[LawId.SEA1], evaluate=fragile))
    made, derived = _counted(monkeypatch)
    entry = audit_law(LawId.SEA1, product, alg, 70, 5, 1e-8)
    assert dataclasses.replace(entry, elapsed_ms=0.0) == expected
    assert made == []
    assert derived == [range(70)]
