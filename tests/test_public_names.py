"""Every public name of the package has a caller in the program or in
perfbench, or a stated reason to stay.

A caller is a use of the name in code: a name or attribute read anywhere in
``src/siftmatch/*.py`` or ``perfbench/*.py``.  Its definition, the strings
of an ``__all__`` list, imports, docstrings and comments do not count, and
``__init__.py`` is not read, so its re-exports do not count either.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "siftmatch"

# Public names with no caller that stay, one reason each.
KEEP = {
    "dot_product_core": "scalar oracle of the pipeline's dot product",
    "cordic_arccos": "scalar oracle of the arccos unit",
    "min_find": "scalar oracle of the two-minimum tracker",
    "match_check": "scalar oracle of the ratio check",
    "dot_product": "scalar oracle of the reference's strict-order dot",
    "dot_matrix": "the reference's strict-order dot, which the GEMM equals",
    "effective_throughput_with_blocking":
        "the paper's blocking model, to be printed by the roofline report",
}


def public_names(path: Path) -> list[str]:
    """The strings of the module's ``__all__`` list."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.fixture(scope="module")
def used_names() -> set[str]:
    """Every name and attribute read in the package and in perfbench."""
    used = set()
    for path in [*PACKAGE.glob("*.py"), *(REPO / "perfbench").glob("*.py")]:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


MODULES = sorted(p for p in PACKAGE.glob("*.py") if public_names(p))


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_public_name_has_a_caller(module, used_names):
    uncalled = [name for name in public_names(module)
                if name not in used_names and name not in KEEP]
    assert not uncalled, f"{module.name}: no caller for {uncalled}"


def test_keep_list_names_public_names():
    public = {name for module in MODULES for name in public_names(module)}
    assert set(KEEP) <= public
