"""The lazy package namespace: every public name resolves, on each access, to
its defining module's attribute."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homalg

PUBLIC = {
    "exact": ["LinearMap", "ShapeError", "StructureTensor", "Vector", "apply_bilinear",
              "compose", "map_power", "scalar_arith"],
    "engine": ["CheckReport", "IdentitySchema", "Interpretation", "SemanticError", "Witness",
               "check_schema", "check_schema_random", "evaluate", "op", "polarize", "tw",
               "var"],
    "varieties": ["AlgebraInstance", "VarietyTag", "certify", "certify_multiplicative",
                  "is_morphism", "schemas_for"],
    "reps": ["AssocAction", "AssocBimodule", "CertificationError", "JordanAction",
             "JordanModule", "LieAction", "LieModule", "certify_rep", "direct_sum",
             "minus_algebra", "plus_algebra", "regular", "semidirect_product", "symmetrized",
             "tensor_square_bimodule"],
    "constructions": ["ConstructionId", "bimodule_map_dialgebra", "crossed_module_check",
                      "differential_dialgebra", "functor", "graph_closure", "hemisemi",
                      "induce", "twist_products", "yau_twist"],
    "operators": ["OperatorCandidate", "certify_operator", "lift_to_averaging",
                  "nijenhuis_of"],
    "dsl": ["DslSemanticError", "DslSyntaxError", "SourceFile", "parse", "serialize"],
    "forge": ["CatalogEntry", "GenerationError", "GridSpec", "brute_oracle", "catalog",
              "catalog_entry", "find_endomorphisms", "perturb_operator", "perturb_product",
              "sample_operator_candidates"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_lists_the_seventy_public_names():
    assert len(NAMES) == 70
    assert homalg.__all__ == [name for _, name in NAMES]
    assert homalg.__version__ == "0.1.0"
    assert set(homalg.__all__) <= set(dir(homalg))


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_its_module_attribute(module, name):
    assert getattr(homalg, name) is getattr(importlib.import_module(f"homalg.{module}"), name)


def test_a_rebinding_in_the_defining_module_shows_through(monkeypatch):
    import homalg.varieties

    def stand_in(*args, **kwargs):
        return None

    monkeypatch.setattr(homalg.varieties, "certify", stand_in)
    assert homalg.certify is stand_in
    monkeypatch.undo()
    assert homalg.certify is homalg.varieties.certify is not stand_in


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from homalg import *", scope)
    assert {name for name in scope if not name.startswith("__")} == set(homalg.__all__)
    assert scope["catalog"] is homalg.catalog


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        homalg.no_such_name
    assert not hasattr(homalg, "dataclass")


# `python -m homalg ARGS`, run in this process by runpy, then which homalg
# modules it loaded; the report goes to stdout, the module list to stderr
CLI_PROBE = """
import runpy, sys
sys.argv[0] = "homalg"
try:
    runpy.run_module("homalg", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stderr.write(repr((code, sorted(m for m in sys.modules if m.startswith("homalg")))))
"""


@pytest.mark.parametrize("argv", [
    ["-c", "import sys, homalg.cli; "
           "sys.stderr.write(repr((0, sorted(m for m in sys.modules if m.startswith('homalg')))))"],
    ["-c", CLI_PROBE, "report", "kx3.halg"],
    ["-c", CLI_PROBE, "report", "lie.halg"],
], ids=["import", "report-kx3", "report-lie"])
def test_the_cli_never_loads_the_forge(argv):
    # the catalog, the sampler and the endomorphism search stay out of a CLI
    # process: importing them costs every command
    data = Path(homalg.__file__).parent / "data"
    argv = [str(data / a) if a.endswith(".halg") else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(homalg.__file__).parent.parent))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    code, modules = ast.literal_eval(proc.stderr)
    assert code in (0, 1) and "homalg.cli" in modules, proc.stderr  # 1: some check failed
    assert "homalg.forge" not in modules
