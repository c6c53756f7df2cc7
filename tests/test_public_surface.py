"""Public-surface guard: every exported name and every option has a caller.

A name in a layer module's ``__all__`` must be referenced somewhere other
than its own definition and its ``__all__`` entry: by another part of the
package, by the acceptance suite, or by the benchmark harness.  A name that
only its own unit tests call yields no verdict; it is either given a caller
or deleted.  A re-export in the package ``__init__`` is not a caller.
References are found in the syntax tree, so strings, comments and
docstrings do not count, and neither does a use inside the name's own
function or class body.

The private helper modules ``_numerics``, ``_smooth`` and ``_svg`` serve
the layers, so each name in their ``__all__`` needs a caller among the
package modules; the acceptance suite and the benchmark harness do not
count for them.

The same callers must pass every option: each defaulted parameter of an
exported function, and of the explicit ``__init__`` of an exported class,
is passed by some call by that name, by keyword or by position.  An option
that every caller leaves at its default is a constant.  And each parameter
of those functions is read in its body: a parameter that nothing reads is
left over from a use that is gone.

No layer module imports an underscore name from another layer module, at
module level or inside a function: what one layer needs of another is part
of that layer's public surface.

The same callers must read every field: each annotated class attribute (a
dataclass field) and each property of a class in a layer module's
``__all__`` is read as an attribute by a package module, by the acceptance
suite or by the benchmark harness.  A read inside the class's own body does
not count, and neither does passing the field to the constructor; fields
whose names start with an underscore are not checked.  A field that no
verdict reads is carried for nothing, and the work that fills it is done
for nothing.  Reads are matched by attribute name alone, since the syntax
tree does not know the type of the object read from: a read of ``.h`` on
anything counts for every exported field named ``h``, so a field that
shares its name with a read one passes unchecked.

The same readers must read every key of a result dict: each string key
that a layer module writes in a dict literal into a field annotated
``dict`` of an exported class (``meta``, ``record``, ``verdict``), passed
by keyword directly or through a local name bound to the literal, is read
by a package module, by the acceptance suite or by the benchmark harness.
A read is ``x.field["key"]`` or ``x.field.get("key")``, or either on a
local name bound to ``x.field`` in the same function.  A subscript of any
other dict, a store and a string do not count, and neither does a key
that a unit test reads.  Keys are matched by field name alone: every
``record`` dict shares one set of keys, so ``EigenMode.record`` and
``SeparableMode.record`` pass or fail a key together, as every ``meta``
dict does.

No package module reads an attribute through ``getattr`` with a default:
a quantity has one attribute, so a fallback to another name, or to a
value standing in for a missing one, is a second rule for it.
"""

import ast
import importlib
import re
from collections import defaultdict
from collections.abc import Iterator
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "agmonlab"
# the public modules; _numerics, _smooth and _svg are private helpers of the layers
LAYERS = tuple(
    sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))
)
# the private helper modules, whose exports only package modules may call
HELPERS = tuple(
    sorted(p.stem for p in PACKAGE.glob("_*.py") if p.stem != "__init__")
)
# callers outside the package; inside it, every module but __init__ counts
EXTERNAL_CALLERS = (
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
)
# (module, name): why the name stays exported without a caller
EXEMPT: dict[tuple[str, str], str] = {}

# (module, function, parameter): why the option stays without a caller
OPTION_EXEMPT = {
    ("cli", "main", "argv"): (
        "the console script calls main() with no arguments, so argparse "
        "reads sys.argv"
    ),
}

# (importing layer, imported layer, name): why the private import stays
PRIVATE_IMPORT_EXEMPT = {
    ("experiments", "solver", "_MIN_NODES"): (
        "config validation rejects a grid below the solver's own node "
        "minimum, so the two limits cannot drift apart"
    ),
    ("experiments", "solver", "_check_far_boundary"): (
        "config validation runs the solver's own far-boundary certificate, "
        "so a config is rejected exactly when the solve would be"
    ),
    ("experiments", "solver", "_resolving_normal_nodes"): (
        "config validation applies the solver's own resolvability rule to a "
        "Poisson grid, so a config is rejected exactly when the solve would be"
    ),
}

# (module, class, field): why the field stays without a reader
EXEMPT_FIELDS = {
    ("fcalc", "DerivativeNormReport", "norms"): (
        "the exponent is fitted from these norms, and the unit tests check "
        "each norm against its oracles"
    ),
    ("quantize", "Symbol", "baseline"): (
        "the symbol's own construction check reads it"
    ),
    ("quantize", "Symbol", "support"): (
        "the symbol's own construction check reads it"
    ),
    ("quantize", "TailBoundReport", "factorization_ok"): (
        "a check that holds by construction today; it is to be made able to "
        "fail, not deleted (ROADMAP item 8)"
    ),
}

# (module, class, field, key): why the key stays without a reader
EXEMPT_KEYS = {
    ("solver", "Field2D", "meta", "contamination_bound"): (
        "a health number, the far closure's influence bound on the traces: "
        "the diagnostics block of ROADMAP item 12 surfaces it"
    ),
    ("solver", "Field2D", "meta", "iterations"): (
        "a health number, the CG iterations of a mode-pcg solve: the "
        "diagnostics block of ROADMAP item 12 surfaces it"
    ),
    ("solver", "Field2D", "meta", "n_normal"): (
        "the normal rows of a solve: the diagnostics block of ROADMAP item 12 "
        "surfaces it, and the unknowns count of item 3a reads it"
    ),
    ("solver", "EigenMode", "record", "residual"): (
        "a health number, the transverse equation residual: ROADMAP item 1a "
        "adds the recurrence-eigensolver agreement beside it"
    ),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_PROPERTIES = ("property", "cached_property")


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _enclosed(tree: ast.Module) -> Iterator[tuple[ast.AST, frozenset]]:
    """Each node of ``tree`` with the names of the functions and classes
    enclosing it."""
    stack = [(tree, frozenset())]
    while stack:
        node, enclosing = stack.pop()
        yield node, enclosing
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing | {node.name}
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))


def _references(tree: ast.Module) -> dict[str, list[frozenset]]:
    """Each load of a name, attribute access ``.name`` and import of a name,
    mapped to the names of the functions and classes enclosing it."""
    refs = defaultdict(list)
    for node, enclosing in _enclosed(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id].append(enclosing)
        elif isinstance(node, ast.Attribute):
            refs[node.attr].append(enclosing)
        elif isinstance(node, ast.alias):
            refs[node.name].append(enclosing)
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


def _signatures(tree: ast.Module) -> Iterator[tuple[str, ast.FunctionDef, int]]:
    """(name, function, leading parameters a call does not pass) for each
    exported function (0) and each exported class's explicit ``__init__``
    (1, for ``self``)."""
    exported = set(_exports(tree))
    for node in tree.body:
        if not isinstance(node, _DEFINITIONS) or node.name not in exported:
            continue
        if not isinstance(node, ast.ClassDef):
            yield node.name, node, 0
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                yield node.name, item, 1
                break


def _options(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(name, parameter, position) for each defaulted parameter of an
    exported function, or of an exported class's explicit ``__init__``;
    position is the index among the positional arguments a call passes
    (``self`` aside), None for a keyword-only parameter."""
    options = []
    for name, function, skip in _signatures(tree):
        args = function.args
        positional = [*args.posonlyargs, *args.args][skip:]
        first = len(positional) - len(args.defaults)
        options.extend(
            (name, arg.arg, index)
            for index, arg in enumerate(positional)
            if index >= first
        )
        options.extend(
            (name, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        )
    return options


def _calls(trees: list[ast.Module]) -> tuple[set[tuple[str, str]], dict[str, int]]:
    """The (callee name, keyword) pairs of every call in ``trees`` to a plain
    or dotted name, and the most positional arguments any such call passes
    per callee name (a starred argument counts for none)."""
    keywords, most = set(), defaultdict(int)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                name = callee.id
            elif isinstance(callee, ast.Attribute):
                name = callee.attr
            else:
                continue
            keywords.update((name, kw.arg) for kw in node.keywords if kw.arg)
            count = sum(not isinstance(a, ast.Starred) for a in node.args)
            most[name] = max(most[name], count)
    return keywords, most


def options_without_caller(
    layers: dict[str, ast.Module], others: list[ast.Module]
) -> list[str]:
    """``layer.name(parameter=)`` for each option that no call in a layer
    module or in ``others`` passes, by keyword or by position."""
    keywords, most = _calls([*layers.values(), *others])
    return [
        f"{layer}.{name}({parameter}=)"
        for layer, tree in layers.items()
        for name, parameter, position in _options(tree)
        if (name, parameter) not in keywords
        and (position is None or most[name] <= position)
    ]


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


def test_every_helper_export_has_a_package_caller():
    layers, helpers = _package_trees(external=())
    missing = uncalled(dict(zip(HELPERS, helpers)), list(layers.values()))
    assert not missing, (
        "helper exports that no package module calls (give each a caller or "
        f"delete it): {', '.join(missing)}"
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


def test_every_option_has_a_caller():
    missing = [
        flagged
        for flagged in options_without_caller(*_package_trees())
        if _option_key(flagged) not in OPTION_EXEMPT
    ]
    assert not missing, (
        "options that every caller leaves at their default (make each a "
        f"constant or give it a caller): {', '.join(missing)}"
    )


def unread_parameters(layers: dict[str, ast.Module]) -> list[str]:
    """``layer.name(parameter)`` for each parameter of an exported function,
    or of an exported class's explicit ``__init__``, that its body never
    loads as a name."""
    unread = []
    for layer, tree in layers.items():
        for name, function, _ in _signatures(tree):
            args = function.args
            parameters = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            parameters += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                node.id
                for statement in function.body
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread.extend(
                f"{layer}.{name}({arg.arg})"
                for arg in parameters
                if arg.arg not in read
            )
    return unread


def test_every_parameter_is_read():
    layers, _ = _package_trees()
    unread = unread_parameters(layers)
    assert not unread, (
        "parameters that their function never reads (delete each, with what "
        f"its callers pass for it): {', '.join(unread)}"
    )


def _option_key(flagged: str) -> tuple[str, str, str]:
    qualified, parameter = flagged[:-2].split("(")
    layer, name = qualified.split(".")
    return layer, name, parameter


def test_option_exemptions_are_current():
    # an exemption whose option is gone, or now has a caller, is dropped
    flagged = {_option_key(f) for f in options_without_caller(*_package_trees())}
    stale = [".".join(key) for key in OPTION_EXEMPT if key not in flagged]
    assert not stale, f"option exemptions to drop: {', '.join(stale)}"


def test_every_export_is_defined():
    undefined = [
        f"{layer}.{name}"
        for layer in LAYERS
        for name in importlib.import_module(f"agmonlab.{layer}").__all__
        if not hasattr(importlib.import_module(f"agmonlab.{layer}"), name)
    ]
    assert not undefined, f"__all__ names with no definition: {', '.join(undefined)}"


def private_imports(layers: dict[str, ast.Module]) -> list[tuple[str, str, str]]:
    """(importing layer, imported layer, name) for each underscore name that
    one layer module imports from another, anywhere in its syntax tree."""
    found = []
    for layer, tree in layers.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            source = node.module.split(".")[-1]
            if source == layer or source not in layers:
                continue
            found.extend(
                (layer, source, alias.name)
                for alias in node.names
                if alias.name.startswith("_")
            )
    return found


def test_no_layer_imports_a_private_name_of_another():
    layers, _ = _package_trees()
    crossing = [
        f"{layer} imports {source}.{name}"
        for layer, source, name in private_imports(layers)
        if (layer, source, name) not in PRIVATE_IMPORT_EXEMPT
    ]
    assert not crossing, (
        "private names used across layers (make each public in its layer or "
        f"ask that layer for the decision): {', '.join(crossing)}"
    )


def test_private_import_exemptions_are_current():
    layers, _ = _package_trees()
    found = set(private_imports(layers))
    stale = [".".join(key) for key in PRIVATE_IMPORT_EXEMPT if key not in found]
    assert not stale, f"private-import exemptions to drop: {', '.join(stale)}"


def _fields(tree: ast.Module) -> Iterator[tuple[str, str]]:
    """(class, field) for each annotated class attribute and each property
    of an exported class, names starting with an underscore aside."""
    exported = set(_exports(tree))
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name not in exported:
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            elif isinstance(item, ast.FunctionDef) and any(
                getattr(d, "id", getattr(d, "attr", None)) in _PROPERTIES
                for d in item.decorator_list
            ):
                name = item.name
            else:
                continue
            if not name.startswith("_"):
                yield node.name, name


def _attribute_reads(tree: ast.Module) -> dict[str, list[frozenset]]:
    """Each attribute load ``.name``, mapped to the names of the functions
    and classes enclosing it."""
    reads = defaultdict(list)
    for node, enclosing in _enclosed(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr].append(enclosing)
    return reads


def unread_fields(layers: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """``layer.Class.field`` for each field of an exported class that no
    layer module and no module of ``others`` reads as an attribute, reads
    inside the class's own body in its own module aside."""
    reads = {layer: _attribute_reads(tree) for layer, tree in layers.items()}
    reads.update((i, _attribute_reads(tree)) for i, tree in enumerate(others))

    def has_reader(layer: str, cls: str, name: str) -> bool:
        return any(
            key != layer or cls not in enclosing
            for key, by_name in reads.items()
            for enclosing in by_name.get(name, ())
        )

    return [
        f"{layer}.{cls}.{name}"
        for layer, tree in layers.items()
        for cls, name in _fields(tree)
        if not has_reader(layer, cls, name)
    ]


def test_every_field_has_a_reader():
    unread = [
        qualified
        for qualified in unread_fields(*_package_trees())
        if tuple(qualified.split(".")) not in EXEMPT_FIELDS
    ]
    assert not unread, (
        "fields of exported classes that nothing outside their own class and "
        f"unit tests reads (delete each, with the work that fills it): "
        f"{', '.join(unread)}"
    )


def test_field_exemptions_are_current():
    # an exemption whose field is gone, or now has a reader, is dropped
    layers, others = _package_trees()
    flagged = set(unread_fields(layers, others))
    stale = [
        ".".join(key)
        for key in EXEMPT_FIELDS
        if key[1:] not in set(_fields(layers[key[0]])) or ".".join(key) not in flagged
    ]
    assert not stale, f"field exemptions to drop: {', '.join(stale)}"


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _dict_fields(layers: dict[str, ast.Module]) -> dict[str, dict[str, str]]:
    """Each name of a field annotated ``dict`` of an exported class, mapped
    to {class: module} of the classes that have it."""
    owners = defaultdict(dict)
    for layer, tree in layers.items():
        exported = set(_exports(tree))
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or node.name not in exported:
                continue
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and getattr(item.annotation, "id", None) == "dict"
                ):
                    owners[item.target.id][node.name] = layer
    return owners


def _scopes(tree: ast.Module) -> Iterator[list[ast.AST]]:
    """The nodes of the module level and of each function of ``tree``, the
    nodes of the functions nested in it aside: where a local name holds."""
    for root in (tree, *(n for n in ast.walk(tree) if isinstance(n, _SCOPES))):
        nodes, stack = [], list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not isinstance(node, _SCOPES):
                stack.extend(ast.iter_child_nodes(node))
        yield nodes


def _bound(nodes: list[ast.AST], kind: type) -> dict[str, ast.AST]:
    """Each plain name that ``nodes`` assign a node of type ``kind`` to,
    mapped to that node."""
    return {
        target.id: node.value
        for node in nodes
        if isinstance(node, ast.Assign) and isinstance(node.value, kind)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _string(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _key_writes(
    tree: ast.Module, owners: dict[str, dict[str, str]]
) -> Iterator[tuple[str, str, str]]:
    """(callee, field, key) for each string key of a dict literal that a
    call in ``tree`` passes by keyword as a dict field, directly or through
    a local name bound to the literal."""
    for nodes in _scopes(tree):
        literals = _bound(nodes, ast.Dict)
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            for keyword in node.keywords:
                value = keyword.value
                if isinstance(value, ast.Name):
                    value = literals.get(value.id)
                if keyword.arg in owners and isinstance(value, ast.Dict):
                    for key in filter(None, map(_string, value.keys)):
                        yield callee, keyword.arg, key


def _key_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(field, key) for each string key that ``tree`` reads from an
    attribute ``x.field``: ``x.field["key"]`` or ``x.field.get("key")``, or
    either on a local name bound to ``x.field`` in the same function."""
    reads = set()
    for nodes in _scopes(tree):
        aliases = {
            name: value.attr for name, value in _bound(nodes, ast.Attribute).items()
        }
        for node in nodes:
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                owner, key = node.value, _string(node.slice)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and node.args
            ):
                owner, key = node.func.value, _string(node.args[0])
            else:
                continue
            if isinstance(owner, ast.Attribute):
                field = owner.attr
            else:
                field = aliases.get(getattr(owner, "id", None))
            if field and key is not None:
                reads.add((field, key))
    return reads


def _key_name(module: str, cls: str, field: str, key: str) -> str:
    return f"{module}.{cls}.{field}[{key!r}]"


def unread_keys(layers: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """``layer.Class.field['key']`` for each key that a layer module writes
    into a dict field of an exported class and that no layer module and no
    module of ``others`` reads, matched by field name and key.  Class is
    the callee that the write passes the dict to, and layer the module of
    that class, else the writing module."""
    owners = _dict_fields(layers)
    reads = set().union(*map(_key_reads, (*layers.values(), *others)))
    return sorted(
        {
            _key_name(owners[field].get(cls, layer), cls, field, key)
            for layer, tree in layers.items()
            for cls, field, key in _key_writes(tree, owners)
            if (field, key) not in reads
        }
    )


def test_every_key_has_a_reader():
    exempt = {_key_name(*key) for key in EXEMPT_KEYS}
    unread = [name for name in unread_keys(*_package_trees()) if name not in exempt]
    assert not unread, (
        "keys of result dicts that nothing outside their own unit tests reads "
        f"(delete each, with the work that fills it): {', '.join(unread)}"
    )


def test_key_exemptions_are_current():
    # an exemption whose key is no longer written, or now has a reader, is
    # dropped
    flagged = set(unread_keys(*_package_trees()))
    stale = [_key_name(*key) for key in EXEMPT_KEYS if _key_name(*key) not in flagged]
    assert not stale, f"key exemptions to drop: {', '.join(stale)}"


def attribute_fallbacks(modules: dict[str, ast.Module]) -> list[str]:
    """``module:line`` of each call of ``getattr`` with a default (a third
    argument) in ``modules``."""
    return [
        f"{name}:{node.lineno}"
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) + len(node.keywords) >= 3
    ]


def test_no_attribute_read_has_a_fallback():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    found = attribute_fallbacks(modules)
    assert not found, (
        "getattr calls with a default (read the one attribute the quantity "
        f"has): {', '.join(found)}"
    )


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


_LAYER_B = """
__all__ = ["f", "K"]


def f(a, b=1, *, c=2):
    return a + b + c


def _g(d=0):
    return d


class K:
    def __init__(self, x, y=0.0):
        self.x, self.y = x, y
"""


@pytest.mark.parametrize(
    "caller, flagged",
    [
        ("f(0)\nK(1)\n", ["b.f(b=)", "b.f(c=)", "b.K(y=)"]),
        ("f(0, 5)\nK(1, 2.0)\n", ["b.f(c=)"]),
        ("f(0, c=3)\nK(1, y=2.0)\n", ["b.f(b=)"]),
        ("f(0, *rest)\nb.K(1, 2.0)\n", ["b.f(b=)", "b.f(c=)"]),
    ],
    ids=["defaults", "positional", "keyword", "starred-and-dotted"],
)
def test_option_passed_by_keyword_or_position_has_a_caller(caller, flagged):
    # private helpers such as _g are not checked; a starred argument passes
    # nothing that the scan can count
    layers = {"b": ast.parse(_LAYER_B)}
    assert options_without_caller(layers, [ast.parse(caller)]) == flagged


_LAYER_C = """
__all__ = ["f", "K"]


def f(a, b, *, c=1, **rest):
    '''Reads a; b is named in this docstring only.'''
    del c
    return a + 1


def _g(d):
    return 0


class K:
    def __init__(self, x, y):
        self.x = x
        self.y = 0
"""


def test_unread_parameter_is_flagged():
    # a docstring, a del or an attribute of the same name is not a read;
    # private helpers such as _g are not checked
    assert unread_parameters({"c": ast.parse(_LAYER_C)}) == [
        "c.f(b)",
        "c.f(c)",
        "c.f(rest)",
        "c.K(y)",
    ]


def test_private_import_found_inside_a_function():
    # a function-local import counts; public names, the module's own
    # names and names from non-layer modules do not
    layers = {
        "a": ast.parse(_LAYER_A),
        "b": ast.parse(
            "from pkg.a import f\n"
            "from pkg._helpers import _h\n"
            "\n"
            "\n"
            "def g():\n"
            "    from pkg.a import _helper\n"
            "    from .b import _own\n"
            "    return _helper() + _own() + _h() + f(1)\n"
        ),
    }
    assert private_imports(layers) == [("b", "a", "_helper")]


_LAYER_D = """
from dataclasses import dataclass
from functools import cached_property

__all__ = ["R"]


@dataclass(frozen=True)
class R:
    a: float
    b: float
    _c: float = 0.0

    @property
    def total(self):
        return self.a + self.b + self._c

    @cached_property
    def twice(self):
        return 2.0 * self.total


@dataclass(frozen=True)
class _Hidden:
    d: float
"""


def _unread(layer_source: str, *other_sources: str) -> list[str]:
    return unread_fields(
        {"d": ast.parse(layer_source)}, [ast.parse(src) for src in other_sources]
    )


def test_unread_field_is_flagged():
    # fields and properties of exported classes are checked; underscore
    # fields and unexported classes such as _Hidden are not
    assert _unread(_LAYER_D) == ["d.R.a", "d.R.b", "d.R.total", "d.R.twice"]


def test_read_inside_its_own_class_is_not_a_reader():
    # total reads a and b, and twice reads total, all inside R; a function
    # of the same module outside R does count
    reader = _LAYER_D + "\n\ndef half(r):\n    return r.twice / 2.0\n"
    assert _unread(reader) == ["d.R.a", "d.R.b", "d.R.total"]


@pytest.mark.parametrize(
    "caller",
    [
        "R(a=1.0, b=2.0)\n",
        "from dataclasses import replace\n\nS = replace(r, a=1.0)\n",
        "r.a = 1.0\n",
        'A = getattr(r, "a")  # r.a\n',
    ],
    ids=["constructor", "replace", "store", "string"],
)
def test_keywords_stores_and_strings_are_not_readers(caller):
    assert _unread(_LAYER_D, caller) == ["d.R.a", "d.R.b", "d.R.total", "d.R.twice"]


def test_read_by_acceptance_or_benchmark_is_a_reader(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "d.py").write_text(_LAYER_D)
    (package / "__init__.py").write_text("R = None\nVALUE = R.total\n")
    acceptance = tmp_path / "test_acceptance.py"
    acceptance.write_text("def test_r(r):\n    assert r.a > 0.0\n")
    bench = tmp_path / "workloads.py"
    bench.write_text("def run(r):\n    return [r.b]\n")
    # a package __init__ is not a reader, as it is not a caller
    layers, others = _package_trees(package, external=(acceptance, bench))
    assert unread_fields(layers, others) == ["d.R.total", "d.R.twice"]


_LAYER_E = '''
from dataclasses import dataclass

__all__ = ["R", "S", "make"]


@dataclass(frozen=True)
class R:
    """Its meta holds "a" and "b"."""

    meta: dict
    tags: list


@dataclass(frozen=True)
class S:
    meta: dict


def make():
    meta = {"a": 1.0, "b": 2.0}
    common = dict(meta={"c": 3.0})
    return R(meta=meta, tags=["d"]), S(**common), S(meta={"e": 4.0})
'''


def _unread_keys(*other_sources: str) -> list[str]:
    return unread_keys(
        {"e": ast.parse(_LAYER_E)}, [ast.parse(src) for src in other_sources]
    )


# every key _LAYER_E writes, named by the callee it is passed to, so the
# write through dict() names dict
_WRITTEN_E = ["e.R.meta['a']", "e.R.meta['b']", "e.S.meta['e']", "e.dict.meta['c']"]


def test_unread_key_is_flagged():
    # a literal passed directly, through a local name or inside another
    # call's keywords is written; list fields such as tags are not checked
    assert _unread_keys() == _WRITTEN_E


@pytest.mark.parametrize(
    "reader, read",
    [
        ("def f(r):\n    return r.meta['a']\n", "e.R.meta['a']"),
        ("def f(r):\n    return r.meta.get('b', 0.0)\n", "e.R.meta['b']"),
        ("def f(r):\n    meta = r.meta\n    return meta['e']\n", "e.S.meta['e']"),
        ("def f(r):\n    meta = r.meta\n    return meta.get('a')\n", "e.R.meta['a']"),
    ],
    ids=["subscript", "get", "alias", "alias-get"],
)
def test_read_through_get_or_a_local_alias_is_a_reader(reader, read):
    assert _unread_keys(reader) == [key for key in _WRITTEN_E if key != read]


@pytest.mark.parametrize(
    "reader",
    [
        "def f(d):\n    return d['a'], d.get('b'), {'e': 0}['e']\n",
        "def f(r):\n    return r.tags['a'], r.meta.keys()\n",
        '"""Reads r.meta["a"]."""\nKEYS = ["a", "b", "e"]  # r.meta["b"]\n',
        "def f(r):\n    r.meta['a'] = 0.0\n    del r.meta['b']\n",
        "def f(r):\n    meta = r.meta\n\n\ndef g(meta):\n    return meta['a']\n",
    ],
    ids=["plain-dict", "other-field", "strings", "store", "alias-elsewhere"],
)
def test_other_dicts_stores_and_strings_are_not_readers(reader):
    assert _unread_keys(reader) == _WRITTEN_E


@pytest.mark.parametrize(
    "key",
    [("solver", "Field2D", "meta", "path"), ("solver", "Field2D", "meta", "far")],
    ids=["read-by-the-benchmark", "no-longer-written"],
)
def test_stale_key_exemption_fails_its_check(monkeypatch, key):
    monkeypatch.setitem(EXEMPT_KEYS, key, "stale")
    with pytest.raises(AssertionError, match=re.escape(_key_name(*key))):
        test_key_exemptions_are_current()


def test_attribute_fallback_is_flagged():
    source = (
        "def f(t, c):\n"
        "    a = getattr(t, 'ambient_norm', getattr(t, 'norm', 0.0))\n"
        "    return a, getattr(c, 'seed'), c.getattr(t, 'x', 0)\n"
    )
    assert attribute_fallbacks({"a": ast.parse(source)}) == ["a:2", "a:2"]
