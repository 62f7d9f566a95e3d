"""Lattice calculus for orthogonally additive kernel operators on R^n.

The package models operators T(x)_i = sum_j t_ij(x_j) built from scalar
kernels vanishing at zero, and computes their lattice structure pointwise:
Riesz-Kantorovich joins/meets, disjointness witnesses, and band projections
(onto increasing sets, principal bands, rank-one bands, and functionals),
by fragment enumeration with deterministic tie-breaks.  An increasing set
is any sequence of operators, decided positive and upward directed at the
call's tol.  The projection programs split by output row, so each decides
feasibility per (fragment, row) over the empty mask and the singleton masks
only; all five (band, complement, principal, rank-one, functional) are
instances of one engine over per-fragment tables that each call builds
once.  Every fragment program has each kernel evaluated at x_j and at 0
once per operator and probe, and sums a row of T(y) or T(x - y) from those
addends by one fsum per fragment, or integer subset sums, each rounded
once: the float an application gives.  Reports are emitted as byte-stable
JSON in one walk.
"""

import importlib

# the home module of each public name; the package root imports a module on
# the first use of one of its names (PEP 562), so `import uryson` loads none
_HOMES = {
    "calculus": (
        "DisjointnessWitness", "RKResult", "check_disjoint_iff", "check_modulus_bound",
        "disjoint_witness", "rk_eval", "rk_eval_separable", "witness_products",
    ),
    "dsl": ("Model", "Settings", "build_operator", "parse_model", "render"),
    "errors": (
        "BadCommand", "C0Violation", "DimensionMismatch", "KernelEvalError",
        "ModelSemanticError", "ModelSyntaxError", "NegativeU", "NoStabilization",
        "NotConverged", "NotDisjoint", "NotIncreasing", "NotPositive",
        "NotPositiveUnit", "NumericError", "SupportTooLarge", "UrysonError",
    ),
    "kernels": ("BuiltinKernel", "FuncKernel", "PwlKernel", "ZERO_KERNEL"),
    "lattice": (
        "EpsSchedule", "IndexedFamily", "Mask", "Vector", "fragments",
        "order_limit_witness", "principal_projection_sup_form", "vec",
    ),
    "operators": (
        "IntegralKernelSpec", "KernelOperator", "discretize_integral", "functional_value",
        "modulus", "negative_part", "operator_add", "operator_is_positive", "operator_leq",
        "operator_scale", "positive_part", "rank_one", "validate", "zero_operator",
    ),
    "projections": (
        "PrincipalProjection", "ProjectionResult", "RankOneProjection", "band_set_profile",
        "masking_oracle", "project_band_set", "project_band_set_complement",
        "project_functional", "project_principal", "project_rank_one",
    ),
    "suite": ("CHECK_IDS", "run_suite"),
}
_SUBMODULES = (*_HOMES, "cli", "instances", "report")

__version__ = "0.1.0"

__all__ = [
    # calculus
    "DisjointnessWitness", "RKResult", "check_disjoint_iff",
    "check_modulus_bound", "disjoint_witness", "rk_eval", "rk_eval_separable",
    "witness_products",
    # dsl
    "Model", "Settings", "build_operator", "parse_model", "render",
    # errors
    "BadCommand", "C0Violation", "DimensionMismatch", "KernelEvalError",
    "ModelSemanticError", "ModelSyntaxError", "NegativeU", "NoStabilization",
    "NotConverged", "NotDisjoint", "NotIncreasing", "NotPositive",
    "NotPositiveUnit", "NumericError", "SupportTooLarge", "UrysonError",
    # kernels
    "BuiltinKernel", "FuncKernel", "PwlKernel", "ZERO_KERNEL",
    # lattice
    "EpsSchedule", "IndexedFamily", "Mask", "Vector", "fragments",
    "order_limit_witness", "principal_projection_sup_form", "vec",
    # operators
    "IntegralKernelSpec", "KernelOperator", "discretize_integral",
    "functional_value", "modulus", "negative_part", "operator_add",
    "operator_is_positive", "operator_leq", "operator_scale", "positive_part",
    "rank_one", "validate", "zero_operator",
    # projections
    "PrincipalProjection", "ProjectionResult", "RankOneProjection",
    "band_set_profile", "masking_oracle", "project_band_set",
    "project_band_set_complement", "project_functional", "project_principal",
    "project_rank_one",
    # suite
    "CHECK_IDS", "run_suite",
]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    for home, names in _HOMES.items():
        if name in names:
            value = globals()[name] = getattr(importlib.import_module(f".{home}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
