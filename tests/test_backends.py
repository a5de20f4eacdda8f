"""Spin factors against their Clifford embedding, pinned matrix bases, and where kind checks live."""

import ast
import hashlib
import inspect
import re
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import seqprod as sp
from seqprod import _backends, algebra, spectral
from seqprod.algebra import _random_effects, eigenvalue_range, to_coords

# ---------------------------------------------------------------------------
# Clifford-embedding oracle for spin factors
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1.0, -1.0]).astype(complex)


def clifford_generators(d: int) -> list[np.ndarray]:
    """d anticommuting Hermitian involutions G_i (Jordan-Wigner on max(1, d // 2) qubits)."""
    k = max(1, d // 2)
    gens = []
    for q in range(k):
        for pauli in (_X, _Y):
            gens.append(reduce(np.kron, [_Z] * q + [pauli] + [_I2] * (k - q - 1)))
    gens.append(reduce(np.kron, [_Z] * k))
    return gens[:d]


def embed(x: sp.Element) -> np.ndarray:
    """(v, t) -> t I + sum_i v_i G_i, a Jordan homomorphism into Hermitian matrices."""
    v, t = x.data
    gens = clifford_generators(x.algebra.size)
    return t * np.eye(len(gens[0])) + sum(vi * g for vi, g in zip(v, gens))


SPIN_SIZES = [1, 2, 3, 4, 5]


@pytest.mark.parametrize("d", SPIN_SIZES)
def test_clifford_generators_anticommute(d):
    gens = clifford_generators(d)
    m = len(gens[0])
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            want = 2.0 * np.eye(m) if i == j else np.zeros((m, m))
            assert np.abs(g @ h + h @ g - want).max() == 0.0


@pytest.mark.parametrize("d", SPIN_SIZES)
def test_spin_products_match_clifford_embedding(d):
    alg = sp.spin_factor(d)
    rng = np.random.default_rng(100 + d)
    for _ in range(20):
        a, b = sp.random_effect(alg, rng), sp.random_effect(alg, rng)
        ma, mb = embed(a), embed(b)
        m = len(ma)
        assert np.abs(embed(sp.jordan_product(a, b)) - 0.5 * (ma @ mb + mb @ ma)).max() <= 1e-12
        assert np.abs(embed(sp.quadratic_rep(a, b)) - ma @ mb @ ma).max() <= 1e-12
        want = (2.0 / m) * np.trace(ma @ mb).real
        assert abs(sp.trace_inner_product(a, b) - want) <= 1e-12


def _jordan_sandwich(a, b):
    """Q_a(b) by the Jordan formula 2a*(a*b) - a^2*b, the reference for the closed-form spin
    sandwich."""
    jordan = sp.jordan_product
    return jordan(a, jordan(a, b)) * 2.0 - jordan(jordan(a, a), b)


@pytest.mark.parametrize("short", ["spin:1", "spin:5", "sum(spin:3,quat:2)",
                                   "sum(real:2,spin:4)"])
def test_the_spin_sandwich_equals_the_jordan_formula(short):
    # single and stacked operands, and a single root with a stacked operand and the converse
    alg = sp.parse_algebra(short)
    single = [sp.random_effect(alg, seed) for seed in (61, 62)]
    stacked = [_random_effects(alg, [np.random.default_rng((seed, k)) for k in range(4)])
               for seed in (63, 64)]
    for m, x in (single, stacked, (single[0], stacked[1]), (stacked[0], single[1])):
        got, want = to_coords(sp.quadratic_rep(m, x)), to_coords(_jordan_sandwich(m, x))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("d", SPIN_SIZES)
def test_spin_spectra_match_clifford_embedding(d):
    alg = sp.spin_factor(d)
    rng = np.random.default_rng(200 + d)
    samples = [sp.random_effect(alg, rng) for _ in range(20)] + [sp.identity(alg) * 0.3]
    for a in samples:
        w, vecs = np.linalg.eigh(embed(a))
        lo, hi = eigenvalue_range(a)
        assert abs(lo - w[0]) <= 1e-12 and abs(hi - w[-1]) <= 1e-12
        dec = sp.spectral_decompose(a)
        for lam, p in dec.pairs:
            near = np.abs(w - lam) <= 1e-9
            assert near.any()
            proj = vecs[:, near] @ vecs[:, near].conj().T
            assert np.abs(embed(p) - proj).max() <= 1e-12
        assert sum(np.count_nonzero(np.abs(w - lam) <= 1e-9) for lam in dec.eigenvalues) == len(w)


# ---------------------------------------------------------------------------
# layout: one module knows the algebra kinds
# ---------------------------------------------------------------------------

KIND_CHECK = re.compile(r"MATRIX_KINDS|KIND_(REAL|COMPLEX|QUAT|SPIN|SUM)|\.kind\b")


def _scoped_nodes(path: Path, match) -> list[tuple[str, ast.AST]]:
    """(enclosing function, node) of each node of the module at ``path`` that ``match`` takes."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if match(node):
            found.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def _linalg_lines(path: Path) -> set[tuple[str, str]]:
    """(enclosing function, stripped source line) of each reference to a ``linalg`` module in the
    module at ``path``: an attribute or name with ``linalg`` in it (``np.linalg``, ``_linalg``,
    ``_umath_linalg``), or an import from such a module.  At module level the line is the first
    of the enclosing statement."""
    text = path.read_text()
    tree, lines = ast.parse(text), text.splitlines()

    def match(node):
        imported = ([a.name for a in node.names] + [getattr(node, "module", None) or ""]
                    if isinstance(node, (ast.Import, ast.ImportFrom)) else [])
        return (isinstance(node, ast.Attribute) and "linalg" in node.attr
                or isinstance(node, ast.Name) and "linalg" in node.id
                or any("linalg" in name for name in imported))

    def line(scope, node):
        if not scope:
            node = next(s for s in tree.body if s.lineno <= node.lineno <= s.end_lineno)
        return lines[node.lineno - 1].strip()

    return {(scope, line(scope, node)) for scope, node in _scoped_nodes(path, match)}


def test_eigensolves_live_in_the_backend_module():
    # every eigh, eigvalsh, svd, inv and matrix 2-norm goes through the one gateway, which alone
    # reaches np.linalg; numpy's LAPACK gufuncs and their errstate callbacks are read once, at
    # import, into the table only the gateway reads
    package = Path(sp.__file__).parent
    uses = sorted((path.name, *use) for path in package.glob("*.py")
                  for use in _linalg_lines(path))
    assert uses == [
        ("_backends.py", "", "_GUFUNCS = {"),
        ("_backends.py", "", "from numpy.linalg import _linalg, _umath_linalg"),
        ("_backends.py", "_lapack", "except np.linalg.LinAlgError as exc:"),
        ("_backends.py", "_lapack", "solver = getattr(np.linalg, name)"),
    ]
    readers = _scoped_nodes(package / "_backends.py", lambda node: isinstance(node, ast.Name)
                            and node.id == "_GUFUNCS" and isinstance(node.ctx, ast.Load))
    assert [scope for scope, _ in readers] == ["_lapack"]


def test_an_element_is_solved_only_by_its_cached_solves():
    # every eigvalsh is an element's ``_spectrum`` and every eigh of an element's data its
    # ``_eigen``; the one other eigh is the joint frame's split of v^H s v
    def match(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lapack"
                and getattr(node.args[0], "value", None) in ("eigh", "eigvalsh"))

    calls = sorted((path.name, scope, node.args[0].value, ast.unparse(node.args[1]))
                   for path in Path(sp.__file__).parent.glob("*.py")
                   for scope, node in _scoped_nodes(path, match))
    assert calls == [
        ("_backends.py", "_MatrixBackend.joint_frame", "eigh", "v.conj().T @ s.data @ v"),
        ("_backends.py", "_eigen", "eigh", "a.data"),
        ("_backends.py", "_spectrum", "eigvalsh", "a.data"),
    ]


def test_only_the_cli_and_the_package_getattr_import_the_auditor():
    # ``import seqprod`` loads the kernel only: the package imports the auditor inside its
    # module ``__getattr__``, on first use of an auditor name, and the CLI at load
    def match(node):
        return (isinstance(node, ast.ImportFrom) and node.module == "auditor"
                or isinstance(node, ast.ImportFrom) and node.module is None
                and any(alias.name == "auditor" for alias in node.names)
                or isinstance(node, ast.Import)
                and any(alias.name.endswith("auditor") for alias in node.names))

    imports = sorted((path.name, scope) for path in Path(sp.__file__).parent.glob("*.py")
                     for scope, _ in _scoped_nodes(path, match))
    assert imports == [("__init__.py", "__getattr__"), ("cli.py", "")]


def test_kind_checks_live_in_the_backend_module():
    package = Path(sp.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        if path.name == "_backends.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            # algebra.py re-exports the kind names, one per import line
            reexport = path.name == "algebra.py" and re.fullmatch(r"\s*KIND_[A-Z]+,", line)
            if KIND_CHECK.search(line) and not reexport:
                outside.append(f"{path.name}:{number}: {line.strip()}")
    assert outside == []


def test_the_products_have_one_sandwich():
    # a product root m is an element, and x -> m x m^H is Q_m: no backend keeps a second
    # conjugation, and the products reach the backends only through Q_m and its operator;
    # every root, inverse root and phase comes from the one root function, through the one
    # checked call spectral._root
    backends = {type(b) for b in _backends._BACKENDS.values()} | {_backends._Backend}
    assert [f"{cls.__name__}.{name}" for cls in backends for name in vars(cls)
            if name.startswith("conjugat")] == []
    package = Path(sp.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert set(re.findall(r"_backend\.(\w+)", sources["products.py"])) == {
        "quadratic", "quadratic_operator"}
    calls = {name: len(re.findall(r"(?<!def )\b_twisted_power\(", text))
             for name, text in sources.items()}
    assert {name: n for name, n in calls.items() if n} == {"spectral.py": 1}
    assert re.findall(r"\b_twisted_power\(", inspect.getsource(spectral._root)) == [
        "_twisted_power("]
    assert [name for name, text in sources.items()
            if re.search(r"def (_conjugator|_check_product_algebra)\b", text)] == []


def test_every_eigenvalue_precondition_is_the_one_spectrum_check():
    # no module builds a PreconditionError about an eigenvalue but through the message that
    # algebra._require_spectrum formats; the roots' own positivity helper is gone, and
    # norm_at_most compares one way only
    package = Path(sp.__file__).parent
    for path in sorted(package.glob("*.py")):
        calls = re.findall(r"PreconditionError\(((?:[^()]|\([^()]*\))*)\)", path.read_text())
        assert [c for c in calls if "eigenvalue" in c] == [], path.name
    assert not hasattr(spectral, "_require_positive")
    assert list(inspect.signature(algebra.norm_at_most).parameters) == ["x", "tol"]


#: the matrix primitives that direct sums do without: no matrix of their own, no Gaussian draw
#: of their own
SUM_DOES_WITHOUT = {"matrix_order", "gaussian"}


def test_direct_sums_define_every_matrix_primitive():
    # a primitive missing from the direct sum would fall back to ``_Backend``'s generic one:
    # Q_a in Jordan form changes bits, and the residual would solve every block of a trial
    # that one block's norm bound leaves open
    matrix = {name for name, value in vars(_backends._MatrixBackend).items()
              if callable(value) and not name.startswith("_")}
    assert SUM_DOES_WITHOUT <= matrix
    assert matrix - SUM_DOES_WITHOUT - set(vars(_backends._SumBackend)) == set()


def test_each_kind_has_one_commutator_and_the_commutant_is_written_once():
    # every kind defines ``commutator``; the norm and the commutant rows are read from it by
    # the base class alone (the direct sum keeps its largest-block norm), so no kind carries a
    # copy of its own
    classes = [_backends._Backend, *{type(b) for b in _backends._BACKENDS.values()}]

    def owners(name):
        return {cls.__name__ for cls in classes if name in vars(cls)}

    assert owners("commutator") == {"_MatrixBackend", "_SpinBackend", "_SumBackend"}
    assert owners("commutant_rows") == {"_Backend"}
    assert owners("commutator_norm") == {"_Backend", "_SumBackend"}
    # one residual: the bounded one of the base class, lifted block by block on direct sums
    assert owners("residual_terms") == {"_Backend", "_SumBackend"}
    package = Path(sp.__file__).parent
    defined = {path.stem: re.findall(r"def (commutator\w*|commutant_rows)\(", path.read_text())
               for path in package.glob("*.py")}
    assert {name: sorted(d) for name, d in defined.items() if d} == {
        "_backends": ["commutant_rows", "commutator", "commutator", "commutator",
                      "commutator_norm"]}


# ---------------------------------------------------------------------------
# Matrix bases
# ---------------------------------------------------------------------------

#: SHA-256 of dtype, shape and bytes of each basis, with -0.0 folded into +0.0
BASIS_DIGESTS = {
    "real:1": "232e32dc4b7270b9fd4df620a0caf4bf466734befb5a4458539b9b390e889d2c",
    "real:2": "3ab7640be67353b71c29460d53e19b2e8d995ea8151ab3b2d2562a64a771be4c",
    "real:3": "a98431ef24bb7a4eb727c82cf17a3f4b1ce9b551f7a3eedb9df0a2484035d6c2",
    "real:4": "91acc452431a383e4c3453ac416f1b2d99a7a38930b309d8106c145251103923",
    "complex:1": "c72cb398008cbd6e5f1657b17bf7d82a5c94e935b97a28e06d2ad09963fba757",
    "complex:2": "e8a2bc566a72ec29c365b01545cf52c9fbf7ede8dce16a7f6ef9eef356a7dc28",
    "complex:3": "01706e21248d4e347f56fcb1579f8263c3b8531296ea2ccae1abaa6ae57c4bfd",
    "complex:4": "81cda7306b9e0fe31dd5946f3354b55a529381b35bfa94b66a01538b79dd2426",
    "quat:1": "ce62d3e99c88d02aa257f7b5f26dd9a532b9bcf2dae3809d6334f24fa85bfd45",
    "quat:2": "39e280a1148ad29389988056021e507b8af397e99b56ff6e347c93115fcb27e1",
    "quat:3": "5a2e0dba68f8441e1036b3ea7441d4ab52c2165bb982e2f00d468d2740a132a4",
}


@pytest.mark.parametrize("short", ["real:1", "real:4", "complex:1", "complex:4", "quat:1",
                                   "quat:3"])
def test_from_coords_is_the_tensordot_of_the_basis_bit_for_bit(short):
    # one product against the flattened basis gives the bits of np.tensordot, signed zeros
    # included (the coordinates of the identity)
    alg = sp.parse_algebra(short)
    backend, dim = alg._backend, alg.real_dimension
    rng = np.random.default_rng(40)
    for coords in (rng.standard_normal(dim), rng.standard_normal((7, dim)), np.eye(dim),
                   -np.eye(dim), np.zeros(dim), -np.zeros((2, dim))):
        want = backend._hermitian(alg, np.tensordot(coords, _backends._matrix_basis(alg), 1))
        got = backend.from_coords(alg, coords).data
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("short", list(BASIS_DIGESTS))
def test_matrix_basis_is_pinned(short):
    basis = _backends._matrix_basis(sp.parse_algebra(short))
    digest = hashlib.sha256()
    for part in (str(basis.dtype).encode(), str(basis.shape).encode(), (basis + 0.0).tobytes()):
        digest.update(part)
    assert digest.hexdigest() == BASIS_DIGESTS[short]
