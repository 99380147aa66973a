"""Every public function, class and method of the package is used by the package.

The scan parses each module under src/gaborstab and lists its public names:
module-level functions and classes, and the methods (properties included)
of those classes, leaving out every name that starts with an underscore.
A name counts as referenced when src/ or perfbench/ reads it anywhere: as
a name, as an attribute, in an import, or as a string made of dotted
identifiers (perfbench/spans.py wraps functions by such strings).  A
definition is not a reference.

Names that only tests reach are deleted or kept on purpose; the kept ones
are KEPT below, and the test fails when one of them gains a caller, so the
list stays exact.

The scan matches names, not owners: a method that shares its name with
another referenced name, such as a second class's ``pack``, is counted as
referenced and slips through.  So the public member names that more than
one class defines are listed exactly too, and a new one must be looked at.
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaborstab"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")

# Kept although only tests reach them: the growth and zero-count checks of
# criteria 02 and 04, the holomorphy check of criterion 05, and the slack
# that criterion 07 reads.
KEPT = {"jensen_check_1d", "zero_count_bound_1d", "argument_principle_count",
        "gradient_identity_report", "CheegerRouteCheck.slack"}


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name) of the module's public functions, classes and methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def unreferenced_names() -> set[str]:
    referenced = set()
    for path in READERS:
        referenced |= _references(ast.parse(path.read_text(encoding="utf-8")))
    return {qualified
            for path in sorted(PACKAGE.glob("*.py"))
            for qualified, bare in _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
            if bare not in referenced}


def shared_member_names() -> set[str]:
    """Public method and property names that more than one class defines."""
    owners = collections.Counter(
        bare
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, bare in _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if "." in qualified)
    return {name for name, count in owners.items() if count > 1}


def test_only_the_kept_names_are_unreferenced():
    assert unreferenced_names() == KEPT


def test_only_dimension_is_a_member_of_several_classes():
    # SignalGrid, PhaseSpaceGrid and EntireFunctionSpec each define
    # dimension, and each one is read: by gabor._separable_transform,
    # gabor.entire_lift and cli._run_entire respectively.
    assert shared_member_names() == {"dimension"}


def test_the_scan_sees_methods_and_string_references():
    tree = ast.parse("class A:\n    def used(self): pass\n    def unused(self): pass\n"
                     "def f(): pass\nTARGETS = [('mod', 'A.used')]\nx = f\n")
    assert list(_public_definitions(tree)) == [("A", "A"), ("A.used", "used"),
                                               ("A.unused", "unused"), ("f", "f")]
    assert {"A", "used", "f", "mod"} <= _references(tree)
    assert "unused" not in _references(tree)
