"""Every public name of the package keeps a caller in the package, and
is stated once: in its module's ``__all__``, which the package
``__init__.py`` files re-export without restating.

A name in a submodule's ``__all__``, or a public method or property of
a public class, must be referenced in ``src/`` code outside the
package ``__init__.py`` files, which only re-export, and that code must
itself be called (see ``_referenced``).  References are read from the
AST, as names and attribute accesses: an import, a definition, a
docstring or an ``__all__`` string is not a caller.
Every module-level private function and class must be read by called
``src/`` code too, or by what a ``NO_CALLER_YET`` name reaches, so a
helper cannot outlive its callers as a name only the tests read.
Likewise every module-level import must be read in its module, so a
deleted caller cannot leave a dead import behind (no linter runs here).
"""

import ast
import importlib
from pathlib import Path

import mvsde

SRC = Path(mvsde.__file__).resolve().parent

# names kept without a caller in src/, each with its reason; a name
# that gains a caller must leave this list
NO_CALLER_YET = {
    "smooth_coefficient": "step 2's approximation sequence; an experiment will run it",
    "truncate_coefficient": "step 2's cutoff of non-Lipschitz coefficients; an experiment will run it",
    "yosida": "the Yosida approximation of the operator; an experiment will run it",
    "operator_contains": "the graph check a new scheme's inclusion test will use",
    "wasserstein2_exhaustive": "the tests' reference for wasserstein2",
    "solve_ensemble_frozen": (
        "the one-round frozen solve; the tests' reference for distribution_iterate's rounds"
    ),
    "flow_distances": "the tests' reference for flow_sup_distance",
    "SMOOTHING_STREAM": "reserves the substream smooth_coefficient's callers draw from",
    "TEST_STREAM": "reserves the substream the tests draw from",
    "FOLD_STREAM": "retired with no consumer; kept so that its id is not reused",
    "read_results_jsonl": "reads back the results.jsonl that emit_outputs writes",
    "window_times": "read only by smooth_coefficient's mollifier, which has no caller yet",
}


def _modules():
    """(dotted name, parsed tree) of every module of the package but
    the ``__init__.py`` files."""
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            parts = path.relative_to(SRC.parent).with_suffix("").parts
            yield ".".join(parts), ast.parse(path.read_text(), str(path))


def _reads(nodes):
    """The identifiers read (not assigned) in ``nodes``: ``(names,
    attributes)``, where ``names`` holds both bare names and attribute
    accesses, since a module-level name is read either way, and
    ``attributes`` only the latter, since a method or property is."""
    names, attributes = set(), set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names | attributes, attributes


def _referenced(roots=()):
    """The identifiers read by called code outside the package
    ``__init__.py`` files, as ``_reads`` returns them; the names in
    ``roots`` count as called.

    Module-level code is always called (the coefficient catalogue, the
    experiment declarations, the command line's ``__main__`` guard).  A
    module-level function or class is called once called code reads its
    name, and a method's reads count as its class's; this is iterated
    to a fixed point.  So what only an uncalled definition reads, a
    ``NO_CALLER_YET`` name's helpers among them, has no caller either.
    """
    names, attributes = set(roots), set()
    pending = []
    for _, tree in _modules():
        defs = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        pending += [(node.name, _reads([node])) for node in defs]
        top_names, top_attributes = _reads([n for n in tree.body if n not in defs])
        names |= top_names
        attributes |= top_attributes
    while True:
        called = [reads for name, reads in pending if name in names]
        if not called:
            return names, attributes
        pending = [(name, reads) for name, reads in pending if name not in names]
        for more_names, more_attributes in called:
            names |= more_names
            attributes |= more_attributes


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _public_names():
    """(qualified name, identifier, is a member) of every submodule
    ``__all__`` entry and of every public method or property of a
    public class."""
    for module, tree in _modules():
        exported = _declared_all(tree)
        for name in exported:
            yield f"{module}.{name}", name, False
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, True


def test_public_names_are_found():
    found = {qualified: member for qualified, _, member in _public_names()}
    assert found["mvsde.solver.integrate"] is False
    assert found["mvsde.solver.EnsembleTrajectories.variation_totals"] is True
    assert found["mvsde.segments.TimeGrid.window_len"] is True
    assert set(NO_CALLER_YET) <= {name for _, name, _ in _public_names()}


def test_what_only_uncalled_code_reads_has_no_caller():
    names, _ = _referenced()
    # operator_contains has no caller, so neither have its helpers
    assert "_graph_contains" not in names
    assert "_cone_contains" not in names
    assert "_graph_resolvent" in names


def test_every_public_name_has_a_caller_in_src():
    names, attributes = _referenced()
    orphans = [
        qualified
        for qualified, name, member in _public_names()
        if name not in (attributes if member else names) and name not in NO_CALLER_YET
    ]
    assert orphans == [], f"public names with no caller in src/: {orphans}"


def _private_definitions():
    """(qualified name, identifier) of every module-level private
    function and class."""
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name


def test_every_private_definition_is_read_by_called_src_code():
    # what a NO_CALLER_YET name reaches is kept with it
    names, _ = _referenced(roots=NO_CALLER_YET)
    private = dict(_private_definitions())
    assert "mvsde.meanfield._sup_sq" in private
    assert "mvsde.monotone._graph_contains" in private
    orphans = sorted(q for q, name in private.items() if name not in names)
    assert orphans == [], f"private definitions no called src/ code reads: {orphans}"


def test_allowlisted_names_still_have_no_caller():
    names, _ = _referenced()
    called = sorted(name for name in NO_CALLER_YET if name in names)
    assert called == [], f"drop these from NO_CALLER_YET, they have callers now: {called}"


# module-level imports kept without a reader in their module, each with
# its reason; an import that gains a reader must leave this list
UNREAD_IMPORTS = {
    "mvsde.solver.project": "perfbench/tracer.py wraps mvsde.solver.project, so the name must resolve",
}


def _module_imports():
    """(qualified name, read) of every name bound by a module-level
    import outside the package ``__init__.py`` files, ``read`` telling
    whether the module reads the name anywhere."""
    for module, tree in _modules():
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    yield f"{module}.{name}", name in read


def test_every_module_import_has_a_reader():
    imports = dict(_module_imports())
    assert imports["mvsde.solver.np"] is True
    assert set(UNREAD_IMPORTS) <= set(imports)
    unread = sorted(q for q, read in imports.items() if not read and q not in UNREAD_IMPORTS)
    assert unread == [], f"imports that nothing in their module reads: {unread}"


def test_allowlisted_imports_still_have_no_reader():
    imports = dict(_module_imports())
    read = sorted(q for q in UNREAD_IMPORTS if imports[q])
    assert read == [], f"drop these from UNREAD_IMPORTS, they are read now: {read}"


# the modules each package re-exports, in its import order
PACKAGES = {
    "mvsde": ["errors", "rng", "monotone", "segments", "coefficients", "solver", "meanfield"],
    "mvsde.experiments": ["config", "records", "runner"],
}


def test_packages_export_their_modules_all():
    for package, names in PACKAGES.items():
        pkg = importlib.import_module(package)
        modules = [importlib.import_module(f"{package}.{name}") for name in names]
        assert all("__all__" in vars(m) for m in modules), f"{package}: a module lacks __all__"
        joined = [name for m in modules for name in m.__all__]
        head = ["__version__"] if package == "mvsde" else []
        assert pkg.__all__ == head + joined
        # a star import would let a later module shadow an earlier one's name
        assert len(set(joined)) == len(joined), f"{package}: a name is in two modules"
        for m in modules:
            for name in m.__all__:
                assert getattr(pkg, name) is getattr(m, name), f"{package}.{name}"


def _is_module_all(node, modules):
    return (
        isinstance(node, ast.Starred)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "__all__"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id in modules
    )


def _hand_written(path):
    """The top-level statements of a package ``__init__.py`` beyond its
    docstring, ``from . import <modules>``, ``from .<module> import *``,
    ``__version__`` and an ``__all__`` joined from the modules' own."""
    tree = ast.parse(path.read_text(), str(path))
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    modules = {p.stem for p in path.parent.glob("*.py")} - {"__init__"}
    extra = []
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None and all(
                a.name in modules and a.asname is None for a in node.names
            ):
                continue
            if node.module in modules and [a.name for a in node.names] == ["*"]:
                continue
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = getattr(node.targets[0], "id", None)
            if target == "__version__" and isinstance(node.value, ast.Constant):
                continue
            if target == "__all__" and isinstance(node.value, ast.List) and all(
                _is_module_all(elt, modules)
                or (isinstance(elt, ast.Constant) and elt.value == "__version__")
                for elt in node.value.elts
            ):
                continue
        extra.append(ast.unparse(node).splitlines()[0])
    return extra


def test_package_inits_name_no_public_name_by_hand():
    inits = sorted(SRC.rglob("__init__.py"))
    assert [p.relative_to(SRC.parent).parent.as_posix() for p in inits] == [
        package.replace(".", "/") for package in PACKAGES
    ]
    for path in inits:
        assert _hand_written(path) == [], f"{path}: state public names in their modules' __all__"


def test_hand_written_names_are_caught(tmp_path):
    (tmp_path / "solver.py").write_text('__all__ = ["integrate"]\n')
    path = tmp_path / "__init__.py"
    path.write_text(
        '"""Doc."""\nfrom . import solver\nfrom .solver import *\nfrom . import integrate\n'
        'from .solver import integrate\n__all__ = ["integrate", *solver.__all__]\n'
    )
    assert _hand_written(path) == [
        "from . import integrate",
        "from .solver import integrate",
        "__all__ = ['integrate', *solver.__all__]",
    ]
