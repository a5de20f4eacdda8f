"""The ``kernel-api`` workload: direct library calls checked by a raw-numpy oracle.

One closed-loop client sends a seeded stream of requests; the next request
is sent only after the previous one returns.  Inputs are drawn in chunks
from ``(seed, chunk index)`` with plain numpy and wrapped into fresh
Elements before the chunk is timed, so every Element serves exactly one
request and no two requests share an input.  The clock is paused while a
chunk is generated and while the previous chunk's results are checked.

Every element has a *matrix form*: the matrix itself for the matrix kinds
(the complex 2n x 2n embedding for quaternions), the block diagonal of the
blocks for direct sums, and ``t I + sum_i v_i G_i`` for a spin factor
(v, t), with ``G_i`` anticommuting Hermitian generators of a Clifford
algebra.  All three are Jordan homomorphisms into Hermitian matrices, so
``a o b = sqrt(a) b sqrt(a)`` and every spectral quantity can be checked
with ``numpy.linalg.eigh`` and matmul alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from statistics import median
from time import perf_counter, process_time

import numpy as np

import seqprod
import seqprod.serialize
from seqprod.algebra import KIND_COMPLEX, KIND_QUAT, KIND_REAL, KIND_SPIN, KIND_SUM

import speed

#: support threshold of the kernel: spectrum at or below it is kernel
SUPPORT_TOL = 1e-9
#: relative (Frobenius) tolerance of every oracle comparison
ORACLE_TOL = 1e-8
#: twist of the twisted product requests
TWIST = 1.0
#: requests generated, run and checked together
CHUNK = 64

REFERENCE = {"real4": "real:4", "complex4": "complex:4", "quat3": "quat:3",
             "spin5": "spin:5", "sum-c2r3": "sum(complex:2,real:3)"}
SCALE = {"complex16": "complex:16", "quat8": "quat:8", "real32": "real:32"}
#: metric alias -> (algebra shorthand, product descriptor)
ALIASES = {**{k: (v, "standard") for k, v in REFERENCE.items()},
           "complex3-tw": ("complex:3", f"twisted:{TWIST}"),
           **{k: (v, "standard") for k, v in SCALE.items()},
           "complex16-tw": ("complex:16", f"twisted:{TWIST}")}

OPS = ("seq_product", "divide", "sqrt_pos", "pseudo_inverse", "spectral_decompose",
       "commutant_basis", "simultaneous_diagonalize", "json_roundtrip")
#: (op, alias) request kinds, drawn uniformly
KINDS = ([("seq_product", a) for a in [*REFERENCE, "complex3-tw"]]
         + [(op, a) for op in OPS[1:] for a in REFERENCE
            if not (op == "commutant_basis" and a == "sum-c2r3")])


@lru_cache(maxsize=None)
def algebra(shorthand: str):
    return seqprod.parse_algebra(shorthand)


@lru_cache(maxsize=None)
def product(alias: str):
    alg, prod = ALIASES[alias]
    return seqprod.parse_product(prod, algebra(alg))


# ---------------------------------------------------------------------------
# Native data (what Element accepts) and matrix forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def clifford(d: int) -> tuple[np.ndarray, ...]:
    """d anticommuting Hermitian unitaries (Jordan-Wigner on ceil(d/2) qubits)."""
    x = np.array([[0, 1], [1, 0]], complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0 + 0j, -1.0])
    n = (d + 1) // 2
    gens = []
    for k in range(n):
        for p in (x, y):
            factors = [z] * k + [p] + [np.eye(2)] * (n - k - 1)
            g = factors[0]
            for f in factors[1:]:
                g = np.kron(g, f)
            gens.append(g)
    return tuple(gens[:d])


def matrix_form(alg, native) -> np.ndarray:
    if alg.kind == KIND_SPIN:
        v, t = native
        gens = clifford(alg.size)
        return t * np.eye(len(gens[0])) + sum(vi * g for vi, g in zip(v, gens))
    if alg.kind == KIND_SUM:
        blocks = [matrix_form(s, x) for s, x in zip(alg.summands, native)]
        size = sum(len(b) for b in blocks)
        out = np.zeros((size, size), complex)
        at = 0
        for b in blocks:
            out[at:at + len(b), at:at + len(b)] = b
            at += len(b)
        return out
    return np.asarray(native)


def native_from_matrix(alg, mat: np.ndarray):
    """Inverse of matrix_form on its image."""
    if alg.kind == KIND_SPIN:
        gens = clifford(alg.size)
        m = len(gens[0])
        v = np.array([np.trace(g @ mat).real / m for g in gens])
        return v, float(np.trace(mat).real / m)
    if alg.kind == KIND_SUM:
        out, at = [], 0
        for s in alg.summands:
            size = len(matrix_form(s, zero_native(s)))
            out.append(native_from_matrix(s, mat[at:at + size, at:at + size]))
            at += size
        return tuple(out)
    return mat.real.copy() if alg.kind == KIND_REAL else mat.copy()


def zero_native(alg):
    if alg.kind == KIND_SPIN:
        return np.zeros(alg.size), 0.0
    if alg.kind == KIND_SUM:
        return tuple(zero_native(s) for s in alg.summands)
    m = 2 * alg.size if alg.kind == KIND_QUAT else alg.size
    return np.zeros((m, m), float if alg.kind == KIND_REAL else complex)


def native_of(element):
    if element.algebra.kind == KIND_SUM:
        return tuple(native_of(b) for b in element.data)
    return element.data


def make_element(alg, native):
    if alg.kind == KIND_SUM:
        return seqprod.Element(alg, tuple(make_element(s, x)
                                          for s, x in zip(alg.summands, native)))
    return seqprod.Element(alg, native)


def random_effect_native(alg, rng):
    """Effect with spectrum spread over [lo, hi], 0.05 <= lo < hi <= 0.95."""
    lo, hi = rng.uniform(0.05, 0.3), rng.uniform(0.7, 0.95)
    if alg.kind == KIND_SPIN:
        v = rng.standard_normal(alg.size)
        return v * (0.5 * (hi - lo) / np.linalg.norm(v)), 0.5 * (hi + lo)
    if alg.kind == KIND_SUM:
        return tuple(random_effect_native(s, rng) for s in alg.summands)
    n = alg.size
    if alg.kind == KIND_REAL:
        g = rng.standard_normal((n, n))
    elif alg.kind == KIND_COMPLEX:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(2))
        g = np.block([[a, b], [-b.conj(), a.conj()]])
    w, vecs = np.linalg.eigh(0.5 * (g + g.conj().T))
    w = lo + (hi - lo) * (w - w[0]) / (w[-1] - w[0])
    return (vecs * w) @ vecs.conj().T


def apply_fn(mat: np.ndarray, f) -> np.ndarray:
    w, vecs = np.linalg.eigh(mat)
    return (vecs * f(w)) @ vecs.conj().T


def root_factor(mat: np.ndarray, twist: float | None) -> np.ndarray:
    """sqrt(a) (times a^{it} when twisted), zero on the kernel."""
    w, vecs = np.linalg.eigh(mat)
    support = w > SUPPORT_TOL
    coef = np.where(support, np.sqrt(np.where(support, w, 1.0)), 0.0)
    if twist is not None:
        coef = coef * np.exp(1j * twist * np.log(np.where(support, w, 1.0)))
    return (vecs * coef) @ vecs.conj().T


def floor_product(mat_a: np.ndarray, mat_b: np.ndarray, twist: float | None) -> np.ndarray:
    r = root_factor(mat_a, twist)
    return r @ mat_b @ r.conj().T


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

@dataclass
class Request:
    op: str
    alias: str
    inputs: tuple          # fresh Elements passed to the library


def _make_request(op, alias, rng) -> Request:
    alg = algebra(ALIASES[alias][0])
    a = random_effect_native(alg, rng)
    if op == "seq_product":
        natives = (a, random_effect_native(alg, rng))
    elif op == "divide":
        x = matrix_form(alg, random_effect_native(alg, rng))
        natives = (a, native_from_matrix(alg, floor_product(matrix_form(alg, a), x, None)))
    elif op == "simultaneous_diagonalize":
        b = apply_fn(matrix_form(alg, a), lambda w: 0.05 + 0.9 * w * w)
        natives = (a, native_from_matrix(alg, b))
    else:
        natives = (a,)
    return Request(op, alias, tuple(make_element(alg, x) for x in natives))


def make_chunk(seed: int, index: int, size: int = CHUNK) -> list[Request]:
    rng = np.random.default_rng((seed, 0, index))
    picks = rng.integers(0, len(KINDS), size)
    return [_make_request(*KINDS[k], rng) for k in picks]


def call(req: Request):
    """One library request; attribute lookups happen at call time."""
    op, args = req.op, req.inputs
    if op == "seq_product":
        return seqprod.seq_product(product(req.alias), *args)
    if op == "divide":
        return seqprod.divide(product(req.alias), *args)
    if op == "sqrt_pos":
        return seqprod.sqrt_pos(*args)
    if op == "pseudo_inverse":
        return seqprod.pseudo_inverse(*args)
    if op == "spectral_decompose":
        return seqprod.spectral_decompose(*args)
    if op == "commutant_basis":
        return seqprod.commutant_basis(list(args))
    if op == "simultaneous_diagonalize":
        return seqprod.simultaneous_diagonalize(list(args))
    ser = seqprod.serialize
    return ser.element_from_json(json.loads(json.dumps(ser.element_to_json(args[0]))))


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return bool(np.linalg.norm(got - want) <= ORACLE_TOL * max(1.0, np.linalg.norm(want)))


def _same_native(x, y) -> bool:
    if isinstance(x, tuple):
        return len(x) == len(y) and all(_same_native(p, q) for p, q in zip(x, y))
    return bool(np.array_equal(np.asarray(x), np.asarray(y)))


def _trace_weight(alg, size: int) -> float:
    """Factor turning tr(XY) of matrix forms into the algebra's trace inner product."""
    if alg.kind == KIND_QUAT:
        return 0.5
    if alg.kind == KIND_SPIN:
        return 2.0 / size
    return 1.0


def _frame_ok(frame, alg, mats) -> bool:
    projs = [matrix_form(alg, native_of(p)) for p in frame]
    eye = np.eye(len(mats[0]))
    if not projs or not _close(sum(projs), eye):
        return False
    if not all(_close(p @ p, p) for p in projs):
        return False
    for m in mats:
        rebuilt = sum((np.trace(p @ m) / np.trace(p)).real * p for p in projs)
        if not _close(rebuilt, m):
            return False
    return True


def check(req: Request, result) -> bool:
    """Does the library's result agree with the raw-numpy oracle?"""
    alg = algebra(ALIASES[req.alias][0])
    mats = [matrix_form(alg, native_of(x)) for x in req.inputs]
    a = mats[0]
    eye = np.eye(len(a))
    op = req.op
    if op == "json_roundtrip":
        return result.algebra == alg and _same_native(native_of(result),
                                                      native_of(req.inputs[0]))
    if op == "spectral_decompose":
        lams = result.eigenvalues
        projs = [matrix_form(alg, native_of(p)) for p in result.idempotents]
        eigs = np.linalg.eigvalsh(a)
        return (all(x > y for x, y in zip(lams, lams[1:]))
                and all(np.min(np.abs(eigs - lam)) <= ORACLE_TOL for lam in lams)
                and _close(sum(projs), eye)
                and _close(sum(lam * p for lam, p in zip(lams, projs)), a))
    if op == "commutant_basis":
        basis = [matrix_form(alg, native_of(x)) for x in result]
        expected = 2 if alg.kind == KIND_SPIN else alg.size
        weight = _trace_weight(alg, len(a))
        gram = np.array([[weight * np.trace(x @ y).real for y in basis] for x in basis])
        return (len(basis) == expected
                and all(_close(x @ a - a @ x, np.zeros_like(a)) for x in basis)
                and _close(gram, np.eye(expected)))
    if op == "simultaneous_diagonalize":
        return _frame_ok(result.frame, alg, mats)
    got = matrix_form(alg, native_of(result))
    if op == "seq_product":
        twist = product(req.alias).twist
        return _close(got, floor_product(a, mats[1], twist))
    if op == "divide":
        # q o c = a, with c below ceiling(q) = 1
        return (_close(floor_product(a, got, None), mats[1])
                and np.linalg.eigvalsh(eye - got)[0] >= -ORACLE_TOL)
    if op == "sqrt_pos":
        return _close(got, root_factor(a, None)) and _close(got @ got, a)
    if op == "pseudo_inverse":
        return _close(got, np.linalg.inv(a)) and _close(a @ got, eye)
    raise ValueError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

@dataclass
class LoopResult:
    latencies_s: list[float]  # per request, at the reference speed
    busy_s: float             # clock-running seconds, at the reference speed
    raw_busy_s: float
    cpu_s: float              # process CPU seconds with the clock running
    failed: int
    ops: list[str]            # the operation of each request, in order
    factor: float             # calibration factor over the whole loop

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)


def _check_safely(req, result) -> bool:
    try:
        return check(req, result)
    except Exception:  # a malformed result counts as a failed request
        return False


def run_loop(seed: int, seconds: float | None = None, requests: int | None = None,
             first_chunk: list[Request] | None = None, tracer=None) -> LoopResult:
    """Send requests until ``seconds`` of running time or ``requests`` requests.

    Between chunks the clock stops: results are checked, a calibration
    slice is timed and the next chunk is generated.  Each chunk's times are
    scaled by the calibration slices around it.
    """
    chunk_times, failed, ops = [], 0, []
    cpu = finished_s = 0.0
    finished = 0
    index, chunk = 0, first_chunk if first_chunk is not None else make_chunk(seed, 0)
    slices = [speed.slice_s()]
    done = False
    while not done:
        results, times = [], []
        if tracer is not None:
            tracer.active = True
        c0, t0 = process_time(), perf_counter()
        for req in chunk:
            r0 = perf_counter()
            try:
                out = call(req)
            except Exception:  # a raising request counts as failed
                out = None
            times.append(perf_counter() - r0)
            results.append(out)
            if requests is not None and finished + len(times) >= requests:
                done = True
                break
            if seconds is not None and finished_s + perf_counter() - t0 >= seconds:
                done = True
                break
        chunk_times.append(times)
        finished += len(times)
        finished_s += sum(times)
        cpu += process_time() - c0
        if tracer is not None:
            tracer.active = False
        slices.append(speed.slice_s())
        for req, out in zip(chunk, results):
            ops.append(req.op)
            if out is None or not _check_safely(req, out):
                failed += 1
        index += 1
        if not done:
            chunk = make_chunk(seed, index)
    factors = speed.unit_factors(slices, len(chunk_times))
    lat = [x * f for times, f in zip(chunk_times, factors) for x in times]
    return LoopResult(lat, sum(lat), finished_s, cpu, failed, ops, speed.scale(slices))


def warm_up(seed: int):
    """One request of every kind, on inputs outside the measured stream."""
    rng = np.random.default_rng((seed, 1))
    for op, alias in KINDS:
        call(_make_request(op, alias, rng))


# ---------------------------------------------------------------------------
# LAPACK floor rows
# ---------------------------------------------------------------------------

def _time_pair(f, g, budget_s: float = 0.3, min_calls: int = 15, max_calls: int = 300):
    """Median seconds per call of f and of g, timed alternately.

    Alternating puts both under the same machine load, so their ratio holds
    even when the host's speed drifts during the measurement.
    """
    times_f, times_g = [], []
    stop = perf_counter() + budget_s
    while len(times_f) < max_calls and (len(times_f) < min_calls or perf_counter() < stop):
        for fn, times in ((f, times_f), (g, times_g)):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
    return median(times_f), median(times_g)


def floor_rows(seed: int) -> tuple[dict[str, tuple[float, float]], int]:
    """alias -> (raw eigh + aba microseconds, seq_product microseconds), same inputs.

    The floor works on each block of a direct sum and on the Clifford
    matrix form of a spin factor.  Times are at the reference speed.  Also
    returns how many aliases' seq_product disagreed with the floor.
    """
    rng = np.random.default_rng((seed, 2))
    rows, wrong = {}, 0
    for alias, (shorthand, _) in ALIASES.items():
        alg = algebra(shorthand)
        p = product(alias)
        a, b = random_effect_native(alg, rng), random_effect_native(alg, rng)
        ea, eb = make_element(alg, a), make_element(alg, b)
        if alg.kind == KIND_SUM:
            pairs = [(matrix_form(s, x), matrix_form(s, y))
                     for s, x, y in zip(alg.summands, a, b)]
        else:
            pairs = [(matrix_form(alg, a), matrix_form(alg, b))]
        want = [floor_product(x, y, p.twist) for x, y in pairs]
        want = matrix_form(alg, tuple(want)) if alg.kind == KIND_SUM else want[0]
        wrong += not _close(matrix_form(alg, native_of(seqprod.seq_product(p, ea, eb))), want)
        before = speed.slice_s()
        floor_s, prod_s = _time_pair(
            lambda: [floor_product(x, y, p.twist) for x, y in pairs],
            lambda: seqprod.seq_product(p, ea, eb))
        factor = speed.scale([before, speed.slice_s()])
        rows[alias] = (floor_s * factor * 1e6, prod_s * factor * 1e6)
    return rows, wrong


class KernelWorkload:
    def __init__(self, seed: int):
        self.seed = seed
        self._first = None

    def setup(self):
        self._first = make_chunk(self.seed, 0)
        warm_up(self.seed)

    def run(self, seconds=None, requests=None, tracer=None) -> LoopResult:
        first, self._first = self._first, None
        return run_loop(self.seed, seconds, requests, first, tracer)
