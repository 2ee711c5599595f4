"""The package's public surface, and import hygiene of its modules, read with ``ast``."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import _code_lines
import blowups
from blowups import contraction, equivalence, errors, forest, io, tensor

SRC = Path(blowups.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))

# Imported names that a module keeps without using them, with the reason.
KEPT_IMPORTS = {
    ("equivalence", "recover_sequence"): "perfbench/tracer.py wraps blowups.equivalence.recover_sequence by name",
}

SURFACE = [
    "BlowupsError",
    "CanonicalForm",
    "ContractionStep",
    "ContractionTrace",
    "IntersectionTensor",
    "MarkedPartition",
    "NotContractibleError",
    "Point",
    "ProximityForest",
    "SchemaError",
    "SearchLimitError",
    "TotalTransformMatrix",
    "ValidationReport",
    "Violation",
    "automorphism_orbits",
    "block_degree",
    "block_proximity",
    "canonical_form",
    "canonical_json",
    "contract",
    "diagonal",
    "empty_intersection",
    "evaluate",
    "final_set",
    "forest_from_dict",
    "forest_isomorphic",
    "forest_to_dict",
    "is_final",
    "load_document",
    "marked_forest_equivalent",
    "marked_tensor_equivalent",
    "partition_compatible_morphism",
    "partition_compatible_sequence",
    "partition_from_dict",
    "partition_to_dict",
    "quotient_tensor",
    "random_forest",
    "recover_all_orders",
    "recover_sequence",
    "report_to_dict",
    "tensor_equivalent",
    "tensor_from_dict",
    "tensor_from_forest",
    "tensor_to_dict",
    "total_transform_matrix",
    "trace_from_dict",
    "trace_to_dict",
    "validate_forest",
    "witness_to_dict",
]


class TestPublicSurface:
    def test_package_exports_the_union_of_module_lists(self):
        modules = (contraction, equivalence, errors, forest, io, tensor)
        assert blowups.__all__ == sorted({name for module in modules for name in module.__all__})

    def test_pinned_names(self):
        assert blowups.__all__ == SURFACE
        assert len(SURFACE) == 49

    def test_star_import_binds_exactly_the_surface(self):
        namespace: dict = {}
        exec("from blowups import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == SURFACE
        assert all(namespace[name] is getattr(blowups, name) for name in SURFACE)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name != "*" and name not in used and (path.stem, name) not in KEPT_IMPORTS:
                    unused.append(name)
    assert unused == []


def _bound_names(tree: ast.Module) -> set[str]:
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return bound


def _listed_names(tree: ast.Module) -> list[str] | None:
    """The module's ``__all__`` if it is a literal list of strings, else ``None``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            if isinstance(node.value, ast.List):
                return [ast.literal_eval(item) for item in node.value.elts]
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_listed_name_is_bound(path):
    tree = _tree(path)
    listed = _listed_names(tree)
    if listed is None:
        # The package's list is built from the modules' lists; ``__main__`` exports nothing.
        assert path.name in ("__init__.py", "__main__.py")
        return
    assert sorted(set(listed) - _bound_names(tree)) == []
    assert len(listed) == len(set(listed))


def _self_calls(tree: ast.Module) -> list[str]:
    """Every function, nested ones included, whose body calls it by name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == node.name
                for call in ast.walk(node)
            ):
                found.append(node.name)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    """Depth is bounded by a stated budget, not by Python's recursion limit: nothing here recurses by name."""
    assert _self_calls(_tree(path)) == []


def _limit_constants(tree: ast.Module) -> set[str]:
    """The module-level names ending in ``_LIMIT`` that the module assigns."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return {t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_LIMIT")}


def test_readme_names_every_limit():
    """Each budget a user can hit is named in the README, and the README names no budget the package lacks."""
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\b[A-Z][A-Z0-9_]*_LIMIT\b", readme))
    defined = set().union(*(_limit_constants(_tree(path)) for path in MODULES))
    assert (sorted(defined - named), sorted(named - defined)) == ([], [])


def test_code_lines_lists_every_module(capsys):
    """``tests/_code_lines.py`` prints one count per module, then their sum."""
    _code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for _, name in rows] == [path.name for path in MODULES] + ["total"]
    counts = [int(count) for count, _ in rows]
    assert all(counts) and sum(counts[:-1]) == counts[-1]
