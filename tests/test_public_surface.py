"""Public-surface guard: every exported name of a layer module has a caller.

A name in a layer module's ``__all__`` must be referenced somewhere other
than its own definition and its ``__all__`` entry: by another part of the
package, by the acceptance suite, or by the benchmark harness.  A name that
only its own unit tests call yields no verdict; it is either given a caller
or deleted.  A re-export in the package ``__init__`` is not a caller.
References are found in the syntax tree, so strings, comments and
docstrings do not count, and neither does a use inside the name's own
function or class body.
"""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "agmonlab"
# the public modules; _smooth and _svg are private helpers of the layers
LAYERS = tuple(
    sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))
)
# callers outside the package; inside it, every module but __init__ counts
EXTERNAL_CALLERS = (
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
)
# (module, name): why the name stays exported without a caller
EXEMPT = {
    ("fcalc", "expected_circle_eigenvalue"): (
        "the closed-form flat-case oracle for the level-circle operator's "
        "spectrum, kept for the non-separable eigenfunction model to check "
        "against"
    ),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _references(tree: ast.Module) -> dict[str, list[frozenset]]:
    """Each load of a name, attribute access ``.name`` and import of a name,
    mapped to the names of the functions and classes enclosing it."""
    refs = defaultdict(list)
    stack = [(tree, frozenset())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id].append(enclosing)
        elif isinstance(node, ast.Attribute):
            refs[node.attr].append(enclosing)
        elif isinstance(node, ast.alias):
            refs[node.name].append(enclosing)
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing | {node.name}
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return refs


def uncalled(layers: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """``layer.name`` for each name in a layer module's ``__all__`` that no
    layer module and no module of ``others`` references, uses inside the
    name's own definition in its own module aside."""
    refs = {layer: _references(tree) for layer, tree in layers.items()}
    refs.update((i, _references(tree)) for i, tree in enumerate(others))

    def has_caller(layer: str, name: str) -> bool:
        return any(
            key != layer or name not in enclosing
            for key, by_name in refs.items()
            for enclosing in by_name.get(name, ())
        )

    return [
        f"{layer}.{name}"
        for layer, tree in layers.items()
        for name in _exports(tree)
        if not has_caller(layer, name)
    ]


def _package_trees(
    package: Path = PACKAGE, external: tuple[Path, ...] = EXTERNAL_CALLERS
) -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The layer modules of ``package`` by name, and the other callers: its
    private modules other than ``__init__``, then ``external``."""

    def parse(path: Path) -> ast.Module:
        return ast.parse(path.read_text(), str(path))

    modules = sorted(package.glob("*.py"))
    layers = {p.stem: parse(p) for p in modules if not p.stem.startswith("_")}
    private = [p for p in modules if p.stem.startswith("_") and p.stem != "__init__"]
    return layers, [parse(p) for p in (*private, *external)]


def test_every_exported_name_has_a_caller():
    missing = [
        qualified
        for qualified in uncalled(*_package_trees())
        if tuple(qualified.split(".")) not in EXEMPT
    ]
    assert not missing, (
        "exported names that nothing outside their own unit tests calls "
        f"(give each a caller or delete it): {', '.join(missing)}"
    )


def test_exemptions_are_current():
    # an exemption that no longer applies is dropped, not kept
    layers, others = _package_trees()
    flagged = set(uncalled(layers, others))
    stale = [
        f"{layer}.{name}"
        for layer, name in EXEMPT
        if name not in _exports(layers[layer]) or f"{layer}.{name}" not in flagged
    ]
    assert not stale, f"exemptions to drop: {', '.join(stale)}"


def test_every_export_is_defined():
    undefined = [
        f"{layer}.{name}"
        for layer in LAYERS
        for name in importlib.import_module(f"agmonlab.{layer}").__all__
        if not hasattr(importlib.import_module(f"agmonlab.{layer}"), name)
    ]
    assert not undefined, f"__all__ names with no definition: {', '.join(undefined)}"


# --------------------------------------------------------------------------
# the guard on small synthetic modules
# --------------------------------------------------------------------------

_LAYER_A = """
__all__ = ["f", "g"]


def f(n):
    '''f calls itself; g is its sibling.'''
    return f(n - 1) if n else 0


def g():
    return 1


def _helper():
    return 2
"""


def _flagged(layer_source: str, *other_sources: str) -> list[str]:
    return uncalled(
        {"a": ast.parse(layer_source)}, [ast.parse(src) for src in other_sources]
    )


def test_use_inside_own_definition_is_not_a_caller():
    assert _flagged(_LAYER_A) == ["a.f", "a.g"]


def test_strings_comments_and_docstrings_are_not_callers():
    caller = '"""Calls f and g."""\nNAMES = ["f", "g"]  # f(), g()\n'
    assert _flagged(_LAYER_A, caller) == ["a.f", "a.g"]


def test_use_by_a_sibling_in_the_same_module_is_a_caller():
    layer = _LAYER_A.replace("return 1", "return f(1)")
    assert _flagged(layer) == ["a.g"]


@pytest.mark.parametrize(
    "caller",
    ["from a import f\n", "import a\n\nVALUE = a.f(2)\n", "def h():\n    return f\n"],
    ids=["import", "attribute", "load"],
)
def test_reference_in_another_module_is_a_caller(caller):
    # g keeps no caller; names outside __all__, such as _helper, are not checked
    assert _flagged(_LAYER_A, caller) == ["a.g"]


def test_reexport_in_a_package_init_is_not_a_caller(tmp_path):
    # a private module's import is a use; the package __init__'s is not
    (tmp_path / "a.py").write_text(_LAYER_A)
    (tmp_path / "__init__.py").write_text("from pkg.a import f, g\n")
    (tmp_path / "_helpers.py").write_text("from pkg.a import g\n")
    assert uncalled(*_package_trees(tmp_path, external=())) == ["a.f"]
