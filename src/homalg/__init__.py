"""Exact workbench for twisted (Hom-type) algebras given by structure constants."""

from .exact import (
    LinearMap,
    ShapeError,
    StructureTensor,
    Vector,
    apply_bilinear,
    compose,
    map_power,
    scalar_arith,
)
from .engine import (
    CheckReport,
    IdentitySchema,
    Interpretation,
    SemanticError,
    Witness,
    check_schema,
    check_schema_random,
    evaluate,
    op,
    polarize,
    tw,
    var,
)
from .varieties import (
    AlgebraInstance,
    VarietyTag,
    certify,
    certify_multiplicative,
    is_morphism,
    schemas_for,
)
from .reps import (
    AssocAction,
    AssocBimodule,
    CertificationError,
    JordanAction,
    JordanModule,
    LieAction,
    LieModule,
    certify_rep,
    direct_sum,
    minus_algebra,
    plus_algebra,
    regular,
    semidirect_product,
    symmetrized,
    tensor_square_bimodule,
)
from .constructions import (
    ConstructionId,
    bimodule_map_dialgebra,
    crossed_module_check,
    differential_dialgebra,
    functor,
    graph_closure,
    hemisemi,
    induce,
    twist_products,
    yau_twist,
)
from .operators import (
    OperatorCandidate,
    certify_operator,
    lift_to_averaging,
    nijenhuis_of,
)
from .dsl import DslSemanticError, DslSyntaxError, SourceFile, parse, serialize
from .forge import (
    CatalogEntry,
    GenerationError,
    GridSpec,
    brute_oracle,
    catalog,
    catalog_entry,
    find_endomorphisms,
    perturb_operator,
    perturb_product,
    sample_operator_candidates,
)

__version__ = "0.1.0"
