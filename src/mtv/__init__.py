"""mtv: exact trace identities for eta-quotient and Eisenstein products.

The engine works with q-expansions over Q and newforms over number fields,
all arithmetic exact, factorization over Q included (a mod-p sieve and
Zassenhaus's method).  Numeric values appear in two places: oracle
comparisons against lattice sums, and period recovery for elliptic
specializations.  Each is an integer ball (BigComplex) with an error bound,
and no subcommand loads mpmath.  The lattice-sum error (truncation tail plus
rounding) and the rounding of q-series evaluation are proven; the tail of a
q-series evaluation past its truncation is proven for the Eisenstein rows
and for E4, E6 and Delta on the curve path, and a fitted majorant only for
the arbitrary series that specialize scales and the eta-quotient Fricke
gate.
"""

from .errors import (
    InputError,
    MtvError,
    PrecisionError,
    ReconstructionError,
    ResourceLimitError,
    TruncationError,
    UnsupportedScopeError,
    VerificationError,
)
from .qexp import (
    EtaQuotientSpec,
    QSeries,
    eisenstein_level1,
    eisenstein_oracle,
    eisenstein_prime_level,
    eta_quotient,
    fricke_eisenstein,
    hecke_T,
    op_U,
)
from .spaces import (
    GaloisOrbitSet,
    Newform,
    conductor_of_space,
    delta_series,
    dim_cusp_level1,
    dim_modular_level1,
    hecke_matrix_level1,
    level1_coordinates,
    miller_basis,
    newform_basis_level1,
)
from .trace import (
    TheoremResult,
    expand_in_newforms,
    main_constant,
    trace_to_level1,
    transformation_polynomial,
    verify_theorem,
)
from .elliptic import (
    CorollaryResult,
    CurveQ,
    CurvePair,
    condition_a,
    j_invariant_numeric,
    reconstruct_real,
    specialize_level1_exact,
    specialize_phi,
    tau_from_curve,
    verify_corollary,
)
from .numerics import BigComplex, eval_qseries, lattice_sum_eisenstein

__version__ = "0.1.0"

__all__ = [
    "BigComplex",
    "CorollaryResult",
    "CurvePair",
    "CurveQ",
    "EtaQuotientSpec",
    "GaloisOrbitSet",
    "InputError",
    "MtvError",
    "Newform",
    "PrecisionError",
    "QSeries",
    "ReconstructionError",
    "ResourceLimitError",
    "TheoremResult",
    "TruncationError",
    "UnsupportedScopeError",
    "VerificationError",
    "condition_a",
    "conductor_of_space",
    "delta_series",
    "dim_cusp_level1",
    "dim_modular_level1",
    "eisenstein_level1",
    "eisenstein_oracle",
    "eisenstein_prime_level",
    "eta_quotient",
    "eval_qseries",
    "expand_in_newforms",
    "fricke_eisenstein",
    "hecke_T",
    "hecke_matrix_level1",
    "j_invariant_numeric",
    "lattice_sum_eisenstein",
    "level1_coordinates",
    "main_constant",
    "miller_basis",
    "newform_basis_level1",
    "op_U",
    "reconstruct_real",
    "specialize_level1_exact",
    "specialize_phi",
    "tau_from_curve",
    "trace_to_level1",
    "transformation_polynomial",
    "verify_corollary",
    "verify_theorem",
]
