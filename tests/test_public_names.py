"""Every public name of the package keeps a caller in the package.

A name in a submodule's ``__all__``, or a public method or property of
a public class, must be referenced in ``src/`` code outside the
package ``__init__.py`` files, which only re-export.  References are
read from the AST, as names and attribute accesses: an import, a
definition, a docstring or an ``__all__`` string is not a caller.
"""

import ast
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
    "flow_distances": "the tests' reference for flow_sup_distance",
    "SMOOTHING_STREAM": "reserves the substream smooth_coefficient's callers draw from",
    "TEST_STREAM": "reserves the substream the tests draw from",
    "read_results_jsonl": "reads back the results.jsonl that emit_outputs writes",
}


def _modules():
    """(dotted name, parsed tree) of every module of the package but
    the ``__init__.py`` files."""
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            parts = path.relative_to(SRC.parent).with_suffix("").parts
            yield ".".join(parts), ast.parse(path.read_text(), str(path))


def _referenced():
    """The identifiers read (not assigned) outside the package
    ``__init__.py`` files: ``(names, attributes)``, where ``names``
    holds both bare names and attribute accesses, since a module-level
    name is read either way, and ``attributes`` only the latter, since
    a method or property is."""
    names, attributes = set(), set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names | attributes, attributes


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


def test_every_public_name_has_a_caller_in_src():
    names, attributes = _referenced()
    orphans = [
        qualified
        for qualified, name, member in _public_names()
        if name not in (attributes if member else names) and name not in NO_CALLER_YET
    ]
    assert orphans == [], f"public names with no caller in src/: {orphans}"


def test_allowlisted_names_still_have_no_caller():
    names, _ = _referenced()
    called = sorted(name for name in NO_CALLER_YET if name in names)
    assert called == [], f"drop these from NO_CALLER_YET, they have callers now: {called}"
