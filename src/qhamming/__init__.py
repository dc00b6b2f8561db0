"""Exact linear-programming bounds for quantum error-correcting codes.

Everything is computed in exact integer/rational arithmetic: Krawtchouk
polynomial values over the m^2-ary Hamming scheme, product
linearizations, MacWilliams transforms of weight distributions,
sign-condition checks for witness polynomials, and the length
thresholds beyond which every ((n, K, d))_m code satisfies the quantum
Hamming bound.
"""
from .enumerators import (
    PurityReport,
    WeightDistribution,
    check_purity_window,
    distribution_from_dict,
    distribution_to_dict,
    make_distribution,
    mw_forward,
    mw_inverse,
)
from .exceptions import ConditionError, DomainError, HorizonError, SchemaError
from .hamming_witness import (
    CoverageEntry,
    CoverageReport,
    NVerdict,
    ThresholdReport,
    WitnessSpec,
    check_n,
    default_horizon,
    find_threshold,
    hamming_rhs,
    singleton_rhs,
    verify_small_n_coverage,
    witness_coeffs,
    witness_value,
)
from .krawtchouk import (
    ExactScalar,
    KrawParams,
    binomial,
    kraw_eval,
    kraw_partial_sum,
    kraw_recurrence,
    kraw_row,
    kraw_table,
)
from .linearization import (
    LinearizationRow,
    kbasis_extract,
    linearization_terms,
    linearize_product,
)
from .lp_bound import (
    BoundReport,
    ConditionReport,
    KBasisPoly,
    check_conditions,
    dimension_bound,
    poly_eval,
    witness_from_dict,
    witness_to_dict,
)
from .rational import approx_decimal, format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConditionError",
    "ConditionReport",
    "CoverageEntry",
    "CoverageReport",
    "DomainError",
    "ExactScalar",
    "HorizonError",
    "KBasisPoly",
    "KrawParams",
    "LinearizationRow",
    "NVerdict",
    "PurityReport",
    "SchemaError",
    "ThresholdReport",
    "WeightDistribution",
    "WitnessSpec",
    "approx_decimal",
    "binomial",
    "check_conditions",
    "check_n",
    "check_purity_window",
    "default_horizon",
    "dimension_bound",
    "distribution_from_dict",
    "distribution_to_dict",
    "find_threshold",
    "format_rational",
    "hamming_rhs",
    "kbasis_extract",
    "kraw_eval",
    "kraw_partial_sum",
    "kraw_recurrence",
    "kraw_row",
    "kraw_table",
    "linearization_terms",
    "linearize_product",
    "make_distribution",
    "mw_forward",
    "mw_inverse",
    "parse_rational",
    "poly_eval",
    "singleton_rhs",
    "verify_small_n_coverage",
    "witness_coeffs",
    "witness_from_dict",
    "witness_to_dict",
    "witness_value",
    "__version__",
]
