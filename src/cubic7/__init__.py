"""Representation counting and local analysis for cubic forms
L1(x1,x2,x3) Q1(x1,x2,x3) + L2(x4,x5,x6) Q2(x4,x5,x6) + a7 x7^3.

The names below are imported from their modules on first use, so
`import cubic7` loads neither numpy nor any submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module and the names it exports.
_EXPORTS = {
    "errors": (
        "DegenerateBlockError",
        "DomainError",
        "InvalidFormError",
        "ResourceLimitError",
    ),
    "forms": (
        "BlockInvariants",
        "Classification",
        "CubicForm",
        "LinearSpace",
        "NormalForm",
        "adjoint_matrix",
        "block_invariants",
        "classify",
        "content_decomposition",
        "delta",
        "form_from_dict",
        "form_to_dict",
        "linear_spaces",
        "load_form",
        "transform_block",
    ),
    "counting": (
        "MainTermReport",
        "chi",
        "count_representations",
        "count_zeros",
        "delta_constants",
        "representation_counts",
        "union_space_count",
        "value_histogram",
    ),
    "expsums": (
        "SeriesEstimate",
        "s3",
        "s_block",
        "singular_series",
        "singular_term",
    ),
    "density": (
        "DensityResult",
        "SlabEstimate",
        "density_ladder",
        "singular_integral",
        "slab_volume",
    ),
    "local": (
        "BlockLocalData",
        "LocalData",
        "block_local_case",
        "congruence_solvable",
        "gamma_report",
        "gammas",
        "local_data",
        "local_report",
    ),
    "audits": (
        "GrowthAudit",
        "growth_audit",
        "power_congruence_audit",
        "power_congruence_count",
        "second_moment",
        "second_moment_audit",
        "special_surface_count",
        "surface_audit",
    ),
    "checks": ("CheckResult", "verify"),
    "experiment": ("P_SCHEDULE", "PredictionReport", "predict"),
}

_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
