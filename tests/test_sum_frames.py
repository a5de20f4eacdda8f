"""Direct-sum spectral frames against the trial-by-trial merge.

``merged_frames`` merges the blocks' frames the slow, obvious way: for each
trial, take its block values and idempotents, sort them, cluster them, and
build each cluster's idempotent as an Element sum.  The package merges a
stack with whole-stack operations and one element entry by entry; both must
equal this reference bit for bit: values, counts, and every idempotent's
data, dtype and signed zeros.
"""

import numpy as np
import pytest

import seqprod as sp
from seqprod._backends import _blockwise, _clusters, _trusted
from seqprod.algebra import _random_effects, trace, zero
from seqprod.spectral import DEFAULT_GAP

from conftest import close_across_blocks

SUMS = ["sum(complex:2,real:3)", "sum(spin:3,quat:2)", "sum(sum(real:2,complex:2),spin:2)",
        "sum(real:1,real:1)"]


def merged_frames(a, gap):
    """(values, idempotents, counts) of a direct-sum element, stacked or not, trial by trial."""
    alg = a.algebra
    frames = _blockwise("spectral_pairs", (a,), gap)
    shape = np.shape(frames[0][2])
    merged = []  # per trial: (eigenvalue, idempotent) in decreasing order
    for i in range(np.size(frames[0][2])):
        entries = []  # (eigenvalue, block, idempotent, trace weight), ascending
        for bi, (values, frame, counts) in enumerate(frames):
            lams = np.atleast_2d(values)[i, :counts.flat[i]].tolist()
            if shape:  # trial i of the block's frame
                frame = [alg.summands[bi]._backend.take(p, i) for p in frame[:len(lams)]]
            entries += [(lam, bi, p, trace(p)) for lam, p in zip(lams, frame)]
        entries.sort(key=lambda e: e[0])
        pairs, start = [], 0
        for size in _clusters(np.array([e[0] for e in entries]), gap)[0]:
            chosen = entries[start:start + size]
            start += size
            blocks = [zero(s) for s in alg.summands]
            for _, bi, p, _ in chosen:
                blocks[bi] = blocks[bi] + p
            lam = sum(e[0] * e[3] for e in chosen) / sum(e[3] for e in chosen)
            pairs.append((float(lam), _trusted(alg, tuple(blocks))))
        merged.append(pairs[::-1])
    if not shape:
        values, frame = zip(*merged[0])
        return np.array(values), list(frame), np.asarray(len(frame))
    counts = np.array([len(pairs) for pairs in merged])
    pad = [(0.0, zero(alg))] * counts.max()
    values, frames = zip(*(zip(*(pairs + pad[len(pairs):])) for pairs in merged))
    return (np.array(values), [alg._backend.stack(alg, slot) for slot in zip(*frames)],
            counts)


def _leaves(x):
    """Every array or scalar an element stores, direct sums flattened in summand order."""
    if x.algebra.summands:
        return [leaf for blk in x.data for leaf in _leaves(blk)]
    return list(x.data) if isinstance(x.data, tuple) else [x.data]


def _bits(x):
    """(type, dtype, shape, bytes) of each stored value: signed zeros show in the bytes."""
    return [(type(v), np.asarray(v).dtype, np.shape(v), np.asarray(v).tobytes())
            for v in _leaves(x)]


def assert_same_frames(got, want):
    (values, frame, counts), (ref_values, ref_frame, ref_counts) = got, want
    assert values.dtype == ref_values.dtype and values.tobytes() == ref_values.tobytes()
    assert values.shape == ref_values.shape
    assert counts.shape == ref_counts.shape and counts.tolist() == ref_counts.tolist()
    assert len(frame) == len(ref_frame)
    for p, q in zip(frame, ref_frame):
        assert _bits(p) == _bits(q)


def _check(alg, stack):
    """The stacked merge and each trial's single merge against the reference."""
    backend, want = alg._backend, merged_frames(stack, DEFAULT_GAP)
    assert_same_frames(backend.spectral_pairs(stack, DEFAULT_GAP), want)
    for k in range(len(want[2])):
        x = backend.take(stack, k)
        assert_same_frames(backend.spectral_pairs(x, DEFAULT_GAP), merged_frames(x, DEFAULT_GAP))


@pytest.mark.parametrize("short", SUMS)
@pytest.mark.parametrize("profile", ["generic", "singular", "sharp"])
def test_random_effects_merge_as_the_reference_does(short, profile):
    alg = sp.parse_algebra(short)
    rngs = [np.random.default_rng((17, k)) for k in range(24)]
    _check(alg, _random_effects(alg, rngs, profile))


@pytest.mark.parametrize("short", SUMS)
def test_a_stack_of_frames_of_different_lengths(short):
    alg = sp.parse_algebra(short)
    profiles = ("generic", "singular", "sharp")
    elems = [sp.random_effect(alg, 500 + k, profiles[k % 3]) for k in range(12)]
    stack = alg._backend.stack(alg, elems + [sp.identity(alg)])  # the identity is one pair
    counts = alg._backend.spectral_pairs(stack, DEFAULT_GAP)[2]
    assert len(set(counts.tolist())) > 1
    _check(alg, stack)


def test_clusters_that_span_blocks():
    alg, rng = sp.parse_algebra("sum(complex:2,real:3)"), np.random.default_rng(6)
    stack = alg._backend.stack(alg, [close_across_blocks(alg, rng) for _ in range(10)])
    values, frame, counts = alg._backend.spectral_pairs(stack, DEFAULT_GAP)
    assert (counts == 4).all()  # five eigenvalues, two of them in one cluster across blocks
    _check(alg, stack)


def test_a_cluster_that_takes_two_idempotents_of_one_block():
    # block 0 has two clusters 1.5e-8 apart, chained into one by block 1's eigenvalue between
    alg = sp.parse_algebra("sum(real:2,real:1)")
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    elems = []
    for shift in (0.0, 0.25, 0.5):
        low = 0.2 + shift
        w = np.array([low, low + 1.5e-8])
        blocks = (sp.Element(alg.summands[0], (rot * w) @ rot.T),
                  sp.Element(alg.summands[1], [[low + 0.75e-8]]))
        elems.append(sp.Element(alg, blocks))
    elems.append(sp.random_effect(alg, 9))
    stack = alg._backend.stack(alg, elems)
    counts = alg._backend.spectral_pairs(stack, DEFAULT_GAP)[2]
    assert counts.tolist()[:3] == [1, 1, 1]
    _check(alg, stack)


@pytest.mark.parametrize("short", SUMS)
def test_the_identity_joins_every_block_in_one_pair(short):
    alg = sp.parse_algebra(short)
    stack = alg._backend.stack(alg, [sp.identity(alg)] * 5)
    values, frame, counts = alg._backend.spectral_pairs(stack, DEFAULT_GAP)
    assert counts.tolist() == [1] * 5 and values.tolist() == [[1.0]] * 5
    _check(alg, stack)


def test_one_element_with_values_apart_pads_each_block_idempotent():
    # every sorted value more than the gap from its neighbours: each block idempotent is a
    # cluster of one, padded with zero blocks.  The spin block's idempotent (-v/2r, 1/2) holds
    # a -0.0, which zero + p turns to 0.0, and the real block's value 0.95 has a trace of
    # 1 - 1.1e-15, so the cluster's (0.95 tr) / tr is not 0.95
    alg = sp.parse_algebra("sum(spin:3,real:3)")
    a = sp.Element(alg, (sp.Element(alg.summands[0], ([0.3, 0.0, 0.1], 0.5)),
                         sp.random_effect(alg.summands[1], 1067)))
    frames = [x.algebra._backend.spectral_pairs(x, DEFAULT_GAP) for x in a.data]
    values = np.sort(np.concatenate([values for values, _, _ in frames]))
    assert np.diff(values).min() > DEFAULT_GAP
    assert np.signbit(frames[0][1][1].data[0][1])
    lam, p = frames[1][0][0], frames[1][1][0]
    assert lam * trace(p) / trace(p) != lam
    got = alg._backend.spectral_pairs(a, DEFAULT_GAP)
    assert got[2] == len(values) == 5
    assert_same_frames(got, merged_frames(a, DEFAULT_GAP))


def test_one_element_whose_blocks_share_a_value_takes_the_merge():
    alg = sp.parse_algebra("sum(complex:2,real:3)")
    a = close_across_blocks(alg, np.random.default_rng(8))
    got = alg._backend.spectral_pairs(a, DEFAULT_GAP)
    assert got[2] == 4  # five eigenvalues, two of them in one cluster across the blocks
    assert_same_frames(got, merged_frames(a, DEFAULT_GAP))


# ---------------------------------------------------------------------------
# one-element merges against the stacked merge taken apart
# ---------------------------------------------------------------------------

def _stacked_apart(x, other):
    """The frame of x from the stacked merge of x and ``other``, taken apart at x's trial."""
    alg = x.algebra
    backend = alg._backend
    values, frame, counts = backend.spectral_pairs(backend.stack(alg, [x, other]), DEFAULT_GAP)
    n = int(counts[0])
    return values[0, :n], [backend.take(p, 0) for p in frame[:n]], counts[0]


def _check_one(x, other):
    got = x.algebra._backend.spectral_pairs(x, DEFAULT_GAP)
    assert_same_frames(got, merged_frames(x, DEFAULT_GAP))
    assert_same_frames(got, _stacked_apart(x, other))
    return got


def _tied(alg, value, seed):
    """An element of ``alg`` whose every block has ``value`` as an eigenvalue: block by block,
    the element is value times a random sharp effect plus a random effect supported on its
    complement (spin blocks: (value / 2) (1 + u) + (w / 2) (1 - u) for a unit u)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for sub in alg.summands:
        if sub.summands:
            blocks.append(_tied(sub, value, seed + 1))
        elif sub.kind == "spin_factor":
            u = rng.standard_normal(sub.size)
            u /= np.linalg.norm(u)
            w = rng.uniform(0.05, 0.95)
            blocks.append(sp.Element(sub, (0.5 * (value - w) * u, 0.5 * (value + w))))
        else:
            p = sp.random_effect(sub, int(rng.integers(1 << 30)), "sharp")
            rest = sp.quadratic_rep(sp.identity(sub) - p, sp.random_effect(sub, seed))
            blocks.append(p * value + rest)
    return sp.Element(alg, tuple(blocks))


@pytest.mark.parametrize("short", SUMS + ["sum(real:1,complex:2)", "sum(real:1,spin:2,real:1)"])
def test_one_element_merges_equal_the_stacked_merge_taken_apart(short):
    alg = sp.parse_algebra(short)
    other = sp.random_effect(alg, 71)
    for seed, profile in enumerate(("generic", "singular", "sharp", "invertible")):
        _check_one(sp.random_effect(alg, 70 + seed, profile), other)
    _check_one(sp.identity(alg), other)
    _check_one(sp.zero(alg), other)


@pytest.mark.parametrize("short", SUMS + ["sum(real:1,complex:2)"])
def test_one_element_merges_of_values_tied_across_blocks(short):
    # a value shared exactly by every block, and one within the gap of it in one block
    alg = sp.parse_algebra(short)
    other = sp.random_effect(alg, 72)
    tied = _tied(alg, 0.5, 73)
    values, frame, _ = _check_one(tied, other)
    assert np.abs(values - 0.5).min() <= 1e-12  # the blocks' 0.5, in one idempotent
    assert len(frame) < sum(len(sp.spectral_decompose(b).pairs) for b in tied.data)
    near = sp.Element(alg, (tied.data[0] + sp.identity(alg.summands[0]) * 0.5e-8,)
                      + tied.data[1:])
    _check_one(near, other)


def test_one_element_merges_of_real_one_blocks():
    # every block a number: the frame's values are the distinct numbers, ties within the gap
    # joined, each idempotent a 0/1 vector of blocks
    alg = sp.parse_algebra("sum(real:1,real:1,real:1,real:1)")
    other = sp.random_effect(alg, 74)
    for numbers in ([0.3, 0.3, 0.7, 0.3], [0.2, 0.2 + 5e-9, 0.2 + 1e-8, 0.9], [0.0, -0.0, 1.0, 0.5]):
        x = sp.Element(alg, tuple(sp.Element(s, [[v]]) for s, v in zip(alg.summands, numbers)))
        _check_one(x, other)


def test_a_zero_trace_idempotent_in_a_cluster_of_one_element_adds_nothing(monkeypatch):
    # a real block's frame given one more idempotent, zero, with a value within the gap of its
    # top value: the cluster's trace-weighted value and its idempotent are the reference's
    backend = sp.real_symmetric(3)._backend
    frame_of = type(backend).spectral_pairs

    def with_zero(self, a, gap):
        values, frame, count = frame_of(self, a, gap)
        if a.algebra != sp.real_symmetric(3):
            return values, frame, count
        zero = self.scale(sp.identity(a.algebra), 0.0)
        return np.append(values, values[0] + 0.5e-8), frame + [zero], count + 1

    monkeypatch.setattr(type(backend), "spectral_pairs", with_zero)
    alg = sp.parse_algebra("sum(complex:2,real:3)")
    x = sp.random_effect(alg, 75)
    values, frame, count = alg._backend.spectral_pairs(x, DEFAULT_GAP)
    assert_same_frames((values, frame, count), merged_frames(x, DEFAULT_GAP))
    assert count == 5
    top = frame_of(backend, x.data[1], DEFAULT_GAP)
    assert top[0][0] in values.tolist()
