"""Exact linear-programming bounds for quantum error-correcting codes.

Everything is computed in exact integer/rational arithmetic: Krawtchouk
polynomial values over the m^2-ary Hamming scheme, MacWilliams
transforms of weight distributions, sign-condition checks and dimension
bounds for witness polynomials, and the length thresholds beyond which
every ((n, K, d))_m code satisfies the quantum Hamming bound.  The
routes that only cross-check these (defining sums, closed forms,
product linearization, orthogonality extraction) live in the test
suite's ``tests/oracles.py``, not in the package.
"""
import importlib

# Each exported name, under the submodule that defines it: the one list of public
# names, behind ``__all__`` and ``__dir__``.  A submodule is imported the first
# time one of its names is read, so a command loads only the engine it runs.
_SUBMODULE = {
    name: module
    for module, names in {
        "enumerators": "WeightDistribution distribution_from_dict distribution_to_dict "
                       "mw_forward mw_inverse",
        "exceptions": "ConditionError DomainError HorizonError SchemaError",
        "hamming_witness": "NVerdict ThresholdReport check_n find_threshold hamming_rhs "
                           "singleton_rhs verify_small_n_coverage witness_coeffs",
        "krawtchouk": "ExactScalar KrawParams kraw_eval kraw_recurrence kraw_table",
        "lp_bound": "BoundReport KBasisPoly check_conditions dimension_bound "
                    "witness_from_dict",
        "rational": "approx_decimal parse_rational",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    """Resolve an exported name from its submodule on first access (PEP 562)."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """Every module attribute and every exported name, resolved or not."""
    return sorted(globals().keys() | _SUBMODULE.keys())


__version__ = "0.1.0"

__all__ = [*sorted(_SUBMODULE), "__version__"]
