"""schurlab: multiplicative Schur maps, certified, factored, enumerated, completed.

A Schur map B -> A o B (entrywise product) distributes over ordinary matrix
multiplication exactly when the coefficients factor as a_ij = f(i)/f(j) for
nonzero scalars f(i). This package decides that property numerically, extracts
the scaling, walks the group structure of such matrices, completes partially
specified instances, probes truncations of infinite coefficient matrices, and
ties everything together with seeded verification suites and a CLI.

Importing the package loads ``core`` and ``errors``, which every path needs.
Each public name is resolved from its submodule on first use, so a program
loads only the submodules it reaches. ``_HOME`` is the one table of which
submodule holds each name; the CLI resolves its library names through it too.
"""

from . import core, errors  # noqa: F401  (loaded by every path)

# the submodule each public name lives in
_HOME = {
    name: module
    for module, names in {
        "core": (
            "DEFAULT_TOL", "ComplexMatrix", "Tolerance", "all_ones", "as_matrix", "eigenvalues",
            "identity", "matrix_unit", "multiset_distance", "numerical_rank", "operator_norm",
            "schur_inverse", "schur_product",
        ),
        "errors": (
            "ConvergenceError", "DimensionError", "DocumentFormatError", "NotMultiplicativeError",
            "PreconditionError", "ResourceLimitError", "SchurError", "ZeroEntryError",
        ),
        "multiplicative": (
            "CocycleResult", "ConditionResult", "MultiplicativityCertificate",
            "MULTIPLICATIVE_CONDITIONS", "ScalingVector", "build_from_scaling",
            "certify_multiplicative", "check_cocycle", "factor_scaling",
            "numerical_range_samples", "schur_map_norm",
        ),
        "star": (
            "STAR_CONDITIONS", "StarCertificate", "certify_star_multiplicative",
            "is_positive_semidefinite", "is_unimodular", "projection_check",
        ),
        "groups": (
            "ENUMERATION_LIMIT", "SignMatrix", "enumerate_real_positive", "group_product",
            "toeplitz_member", "torus_param",
        ),
        "completion": (
            "COMPLETED", "INCONSISTENT", "UNDERDETERMINED", "CompletionReport", "PartialMatrix",
            "Violation", "complete_partial", "log_coordinates",
        ),
        "truncation": (
            "CoefficientGenerator", "L2FactorReport", "WitnessResult", "compact_bound_check",
            "corner", "l2_multiplier_factor_check", "scaling_generator", "table_generator",
            "toeplitz_generator", "unboundedness_witness",
        ),
        "extreme": ("CorrelationVerdict", "IsometryResult", "correlation_check", "isometry_check"),
        "verify": ("SUITE_NAMES", "VerifyFailure", "VerifyReport", "run_suite"),
    }.items()
    for name in names
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__`` takes the import statement's own path, which ``-X importtime`` reports
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
