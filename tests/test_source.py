"""Static checks on the package source that need no linter."""

import ast
from collections import Counter, defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "virloop"


def _quoted_names(annotation) -> set:
    """Names inside a string annotation such as "Generator" or "list[Generator]"."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        inner = ast.parse(annotation.value, mode="eval")
        return {node.id for node in ast.walk(inner) if isinstance(node, ast.Name)}
    return set()


def unused_imports(source: str) -> list:
    """Names a module imports but never reads.

    A name counts as read when the code loads it, when a quoted annotation
    names it, or when `__all__` lists it; prose in docstrings does not count.
    """
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_quoted_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_quoted_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_detects_and_spares():
    source = '''
from __future__ import annotations
import os.path
from json import dumps, loads as ld
from typing import Any, Optional
from fractions import Fraction
__all__ = ["Fraction"]


def f(x: "Any") -> "Optional[str]":
    """Mentions ld in prose only."""
    return os.path.join(dumps(x))
'''
    assert unused_imports(source) == ["ld"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Definitions nothing in src/virloop calls, kept because something outside it reads them.
READ_OUTSIDE_SRC = {
    "_Parser.error": "argparse, on a malformed argument",
    "GaussianRational.im": "bench/reference.py, bench/tracing.py, tests/test_scalars.py",
    "GaussianRational.re": "bench/reference.py, bench/tracing.py, tests/test_scalars.py",
    "normal_order": "bench/tracing.py, tests/test_acceptance.py, tests/test_verma.py",
    "replay_certificate": "tests/test_probes.py, bench/workloads.py, bench/tracing.py",
}


def _reads(node) -> Counter:
    """Reads below node: ("name", x) for a bare or quoted-annotation name, ("attr", x) for .x."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            reads["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads["attr", sub.attr] += 1
        elif isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation is not None:
            reads.update(("name", x) for x in _quoted_names(sub.annotation))
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.returns:
            reads.update(("name", x) for x in _quoted_names(sub.returns))
    return reads


def dead_definitions(sources: list) -> list:
    """Module-level functions and classes, and methods, that no other code in sources reads.

    A module-level definition is read by its bare name, a method as an
    attribute of anything (`obj.name`), so a local variable never hides a
    dead method of the same name.  Reads inside a definition's own body
    (recursion) do not count, and dunder methods, which the interpreter
    calls, are never reported.  Methods come as "Class.name".
    """
    trees = [ast.parse(source) for source in sources]
    reads = sum((_reads(tree) for tree in trees), Counter())
    dead = []

    def visit(body, prefix, how):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            key = (how, node.name)
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and reads[key] == _reads(node)[key]:
                dead.append(prefix + node.name)
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", "attr")

    for tree in trees:
        visit(tree.body, "", "name")
    return sorted(dead)


def test_dead_definitions_detects_and_spares():
    first = '''
class Shape:
    def __init__(self, n: int):
        self.n = n

    def area(self) -> "Shape":
        return self.grow()

    def grow(self):
        return Shape(self.n + 1)

    def orphan(self):
        return self.orphan()

    def size(self):
        return self.n


def volume(size):
    return size * size


def countdown(n):
    return countdown(n - 1) if n else 0


def main():
    return Shape(2).area()
'''
    second = '''
from first import main, volume

main()
volume(3)
'''
    assert dead_definitions([first, second]) == ["Shape.orphan", "Shape.size", "countdown"]
    # the blind spot: a read of .add spares every class that defines add
    third = '''
class Bag:
    def add(self, x):
        return x


class Tally:
    def add(self, x):
        return x

    def total(self):
        return 0


def fill(bag):
    return bag.add(1), Tally().total()


fill(Bag())
'''
    assert dead_definitions([third]) == []
    assert shared_method_problems([third], {}) == ["Bag.add", "Tally.add"]
    assert shared_method_problems([third], {"add": {"Bag": "fill"}}) == ["Tally.add"]
    # a reader must exist and read .add; a listed name that is no longer shared is stale
    assert shared_method_problems([third], {"add": {"Bag": "fill", "Tally": "Tally.total"}}) == [
        "Tally.add"
    ]
    assert shared_method_problems([first], {"area": {"Shape": "main"}}) == ["Shape.area"]


def test_src_defines_nothing_that_nothing_reads():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    dead = dead_definitions(sources)
    assert sorted(set(dead) - set(READ_OUTSIDE_SRC)) == []
    assert set(READ_OUTSIDE_SRC) <= set(dead), "an allowlisted name is read in src or gone"


# Public method names that more than one src class defines, each class mapped to the src
# definition that calls its method.  dead_definitions counts a read of `.name` as a read of
# every class defining name, so a namesake's call would hide a dead method here.
SHARED_METHOD_READERS = {
    "act": {"IntModule": "TensorModule.act", "TensorModule": "TensorModule.act_words"},
    "apply": {"PbwAction": "normal_order", "ProbeRun": "endo_probe"},
    "to_dict": {"IsoSignature": "_cmd_iso_check", "ProbeCertificate": "run_config"},
}


def shared_method_problems(sources: list, readers: dict) -> list:
    """Classes that share a public method name with another class and lack a reader.

    dead_definitions counts a read of `.name` for every class that defines
    name, so readers maps each shared name to {class: reader}, where reader
    is a module-level function or "Class.method" of sources, not the method
    itself, whose body reads `.name`.  Returns "Class.name" for each class of
    a shared name with no reader or a bad one, and for each listed class
    that no longer shares the name.
    """
    owners = defaultdict(list)
    defs = {}
    for tree in (ast.parse(source) for source in sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs[f"{node.name}.{sub.name}"] = sub
                        if not sub.name.startswith("_"):
                            owners[sub.name].append(node.name)
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    problems = []
    for name, classes in shared.items():
        for cls in classes:
            reader = readers.get(name, {}).get(cls)
            if reader == f"{cls}.{name}" or reader not in defs or not _reads(defs[reader])["attr", name]:
                problems.append(f"{cls}.{name}")
    for name, listed in readers.items():
        problems.extend(f"{cls}.{name}" for cls in listed if cls not in shared.get(name, ()))
    return sorted(problems)


def test_src_shared_method_names_each_have_a_reader():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert shared_method_problems(sources, SHARED_METHOD_READERS) == []


# The only module-level definitions in src/virloop that may call json.dumps or json.dump,
# with the keywords each call passes: no indent anywhere, so the output format lives in one place.
JSON_DUMPS_ALLOWED = {
    "dump_json": set(),  # the one writer of every printed or written document
    "serialize_words": {"sort_keys"},  # the compact sort key of an operator's words
}


def json_dumps_calls(source: str) -> list:
    """(enclosing module-level definition or None, keyword names) of each json.dump(s) call.

    `from json import dumps` (or `dump`) is reported as a call at module level,
    so an alias cannot hide one.
    """
    calls = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.module == "json":
                calls.extend((owner, set()) for a in child.names if a.name in ("dump", "dumps"))
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("dump", "dumps")
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "json"
            ):
                calls.append((owner, {k.arg for k in child.keywords}))
            visit(child, owner)

    visit(ast.parse(source), None)
    return calls


def json_format_violations(source: str) -> list:
    return [
        (owner, sorted(keywords))
        for owner, keywords in json_dumps_calls(source)
        if JSON_DUMPS_ALLOWED.get(owner) != keywords
    ]


def test_json_format_violations_detects_and_spares():
    source = '''
import json
from json import dumps as d


def dump_json(obj):
    def write(value):
        return json.dumps(value)
    return write(obj)


def serialize_words(words):
    return sorted(words, key=lambda t: json.dumps(t, sort_keys=True))


def emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


class Cert:
    def to_json(self, fh):
        json.dump(self.data, fh)


def serialize_tensor(vec):
    return json.dumps(vec, sort_keys=True, indent=None)


def serialize_words(words):
    return json.dumps(words, indent=2)


TOP = json.dumps({})
'''
    assert json_format_violations(source) == [
        (None, []),
        ("emit", ["indent", "sort_keys"]),
        ("Cert", []),
        ("serialize_tensor", ["indent", "sort_keys"]),
        ("serialize_words", ["indent"]),
        (None, []),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_writes_json_only_through_dump_json(path):
    assert json_format_violations(path.read_text(encoding="utf-8")) == []
