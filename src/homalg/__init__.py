"""Exact workbench for twisted (Hom-type) algebras given by structure constants.

The package namespace is lazy (PEP 562): `import homalg` loads no submodule,
and `homalg.<name>` imports the module that defines the name on first use.
The name is looked up in its module on every access and never cached here,
so a rebinding in the defining module shows through the namespace.
"""

import sys as _sys
from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exact": (
        "LinearMap",
        "ShapeError",
        "StructureTensor",
        "Vector",
        "apply_bilinear",
        "compose",
        "map_power",
        "scalar_arith",
    ),
    "engine": (
        "CheckReport",
        "IdentitySchema",
        "Interpretation",
        "SemanticError",
        "Witness",
        "check_schema",
        "check_schema_random",
        "evaluate",
        "op",
        "polarize",
        "tw",
        "var",
    ),
    "varieties": (
        "AlgebraInstance",
        "VarietyTag",
        "certify",
        "certify_multiplicative",
        "is_morphism",
        "schemas_for",
    ),
    "reps": (
        "AssocAction",
        "AssocBimodule",
        "CertificationError",
        "JordanAction",
        "JordanModule",
        "LieAction",
        "LieModule",
        "certify_rep",
        "direct_sum",
        "minus_algebra",
        "plus_algebra",
        "regular",
        "semidirect_product",
        "symmetrized",
        "tensor_square_bimodule",
    ),
    "constructions": (
        "ConstructionId",
        "bimodule_map_dialgebra",
        "crossed_module_check",
        "differential_dialgebra",
        "functor",
        "graph_closure",
        "hemisemi",
        "induce",
        "twist_products",
        "yau_twist",
    ),
    "operators": (
        "OperatorCandidate",
        "certify_operator",
        "lift_to_averaging",
        "nijenhuis_of",
    ),
    "dsl": ("DslSemanticError", "DslSyntaxError", "SourceFile", "parse", "serialize"),
    "forge": (
        "CatalogEntry",
        "GenerationError",
        "GridSpec",
        "brute_oracle",
        "catalog",
        "catalog_entry",
        "find_endomorphisms",
        "perturb_operator",
        "perturb_product",
        "sample_operator_candidates",
    ),
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_sys.modules.get(module) or _import_module(module), name)


def __dir__():
    return sorted({*globals(), *__all__})
