"""Source lint as tests: no bare ``assert`` statements, no unused imports
and no unreferenced private helpers in the package, a package namespace
that exports exactly what it imports, one home for the special-weight
rule, one factory for echelon engines, and no test that asserts a bound
method where it meant to call it.

``python -O`` strips asserts, so a certification step or a grading check
written as one would silently vanish; every check raises explicitly.  An
import that nothing reads, a private function, method or class that nothing
references, or an export of a name no longer imported, is left over from
deleted code.
"""

import ast
from pathlib import Path

import stlhom

SRC = Path(__file__).resolve().parent.parent / "src" / "stlhom"


def test_package_has_no_assert_statements():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"bare asserts (stripped by python -O): {found}"


def _annotation_names(node) -> set[str]:
    """Names read by an annotation, also when it is written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_package_has_no_unused_imports():
    # __init__.py imports to re-export, so it is not checked
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert sources
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                used |= _annotation_names(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.returns is not None:
                    used |= _annotation_names(node.returns)
            elif isinstance(node, ast.AnnAssign):
                used |= _annotation_names(node.annotation)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in sorted(imported.items())
                   if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_init_exports_exactly_what_it_imports():
    path = SRC / "__init__.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    exported = stlhom.__all__
    assert len(exported) == len(set(exported)), "duplicates in __all__"
    assert set(exported) == imported


def test_private_helpers_are_used():
    # a reference is a Name or an Attribute anywhere in the package; dunders
    # are called by the language, not by name
    defined = {}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.setdefault(name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    unused = sorted(f"{where} {name}" for name, where in defined.items()
                    if name not in used)
    assert not unused, f"private helpers nothing references: {unused}"


def test_special_weight_rule_lives_in_leibniz_only():
    # the rule is applied by Grading.special; a caller elsewhere would be a
    # second derivation of which weights are special
    refs = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "leibniz.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name == "special_weight":
                refs.append(f"{path.name}:{node.lineno}")
    assert not refs, f"special_weight referenced outside leibniz.py: {refs}"


ENGINES = {"HermiteBasis", "F2Forward", "FpForward", "QForward"}


def test_echelon_engines_are_built_by_make_echelon_only():
    # every span, ideal and center is a make_echelon(dom) engine; building
    # one by its class elsewhere would be a second way to pick an engine
    built = []
    outside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        factory = {id(n) for f in tree.body
                   if path.name == "linalg.py"
                   and isinstance(f, ast.FunctionDef)
                   and f.name == "make_echelon" for n in ast.walk(f)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name not in ENGINES:
                continue
            if id(node) in factory:
                built.append(name)
            else:
                outside.append(f"{path.name}:{node.lineno} {name}")
    assert sorted(built) == sorted(ENGINES)
    assert not outside, f"engines built outside make_echelon: {outside}"


def _self_only_methods() -> set[str]:
    """Public methods of package classes that take only ``self`` and are
    not properties: ``x.m`` without a call is a bound method, always true."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for f in cls.body:
                if (isinstance(f, ast.FunctionDef)
                        and not f.name.startswith("_")
                        and [a.arg for a in f.args.args] == ["self"]
                        and not (f.args.vararg or f.args.kwarg
                                 or f.args.kwonlyargs)
                        and not any(isinstance(d, ast.Name)
                                    and d.id == "property"
                                    for d in f.decorator_list)):
                    names.add(f.name)
    return names


def test_tests_do_not_assert_uncalled_methods():
    methods = _self_only_methods()
    assert {"describe", "row_dicts", "to_json"} <= methods
    found = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assert):
                continue
            test = node.test
            if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                test = test.operand
            if isinstance(test, ast.Attribute) and test.attr in methods:
                found.append(f"{path.name}:{node.lineno} {test.attr}")
    assert not found, f"asserts of an uncalled method: {found}"
