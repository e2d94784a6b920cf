"""Differential algebra for permutable entire functions.

The package turns an existence statement into running code: every entire
function built from the usual closed forms satisfies an algebraic
differential equation, and permutability of two functions under
composition lets that equation travel between them.  Exact arithmetic
(Gaussian rationals, polynomials in z, their fraction field) backs the
symbolic half; sampled complex evaluation backs the growth half.

``import adekit`` loads no layer.  Each public name is read from its
module, which is imported the first time one of its names is read
(PEP 562), so a program pays only for the layers it uses.
"""

__version__ = "0.1.0"

# module -> the public names it defines
_MODULES = {
    "scalars": (
        "Frac",
        "GaussianRational",
        "Poly",
        "ScalarError",
        "frac_str",
        "frac_value",
        "gauss_str",
        "poly_str",
    ),
    "series": ("PowerSeries", "SeriesError"),
    "expr": (
        "DefinitionEnvironment",
        "EMPTY_ENV",
        "ExprError",
        "ParseError",
        "differentiate",
        "eval_numeric",
        "expand_series",
        "expression_of_frac",
        "frac_of_expression",
        "inline",
        "nth_derivative",
        "parse",
        "scalar_of",
        "to_text",
    ),
    "diffpoly": (
        "DiffPoly",
        "DiffPolyError",
        "Jet",
        "ade_text",
        "holds_on",
        "mono_rank",
        "mono_weight",
        "normalize",
        "parse_ade",
        "residual_series",
    ),
    "chain_rewrite": (
        "derivative_transfer",
        "max_support_weight",
        "support_monomials",
        "transfer_support",
        "verify_transfer",
    ),
    "discovery": (
        "BoundExhausted",
        "DiscoveryError",
        "RelationResult",
        "SearchOutcome",
        "VerificationError",
        "candidate_monomials",
        "exact_nullspace",
        "find_ade",
        "numeric_nullspace",
        "relation_search",
    ),
    "pipeline": (
        "PermutabilityReport",
        "TransferReport",
        "check_permutable",
        "compose_ade",
        "iterate_ade",
        "transfer_ade",
    ),
    "growth": (
        "BakerReport",
        "GrowthError",
        "baker_scan",
        "characteristic",
        "characteristic_sandwich",
        "compose_iterate",
        "growth_suite",
        "is_transcendental",
        "log_convexity",
        "max_modulus",
    ),
}

_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # the call that "from .module import name" makes, so the import shows
    # in python -X importtime; the value is kept as a module global, and
    # later reads do not come back here
    value = globals()[name] = getattr(__import__(module, globals(), None, (name,), 1), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
