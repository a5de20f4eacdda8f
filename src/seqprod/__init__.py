"""Sequential products on Euclidean Jordan algebra effect intervals.

The kernel implements the Jordan-algebraic machinery (products, quadratic
representations, spectral decompositions, floors/ceilings, pseudo-inverses,
commutants) for real/complex/quaternionic Hermitian matrices, spin factors
and their direct sums, together with the standard sequential product
a o b = Q_sqrt(a)(b), its twisted complex variants, and a seeded auditor
that checks the structural laws and demonstrates which extra conditions
single out the standard product.

``import seqprod`` loads the kernel only: each lookup of an auditor name
here reads ``seqprod.auditor``, importing it on first use.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraDescriptor,
    Element,
    LinearMap,
    complex_hermitian,
    direct_sum,
    identity,
    is_effect,
    is_positive,
    jordan_mult_operator,
    jordan_product,
    leq,
    make_order_iso,
    min_eigenvalue,
    order_unit_norm,
    parse_algebra,
    quadratic_operator,
    quadratic_rep,
    quaternionic_hermitian,
    random_effect,
    real_symmetric,
    spin_factor,
    trace_inner_product,
    zero,
)
from .commutant import (
    FunctionModel,
    bicommutant_basis,
    commutant_basis,
    simultaneous_diagonalize,
)
from .errors import (
    CapabilityError,
    ConfigError,
    DescriptorMismatchError,
    DomainError,
    NumericalFailureError,
    PreconditionError,
    SeqprodError,
)
from .products import (
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
    SpectralDecomposition,
    ceiling_effect,
    dyadic_approximation,
    floor_effect,
    functional_calculus,
    is_sharp,
    pseudo_inverse,
    spectral_decompose,
    sqrt_pos,
)

#: the auditor's public names, which ``__getattr__`` loads on first use (PEP 562)
_AUDITOR_NAMES = frozenset((
    "AuditEntry", "AuditReport", "LawId", "SuiteConfig", "SuiteRow", "audit_law",
    "default_config", "demo_characterizations", "replay_witness", "run_full_suite"))


def __getattr__(name):
    if name in _AUDITOR_NAMES:
        from . import auditor
        return getattr(auditor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _AUDITOR_NAMES)
