"""Every crystalsum attribute the benchmark reaches must still resolve.

The benchmark under perfbench/ is not part of this suite, so a rename or a
deletion in src/ could break it silently.  This test parses its sources
with `ast` (nothing there is imported or run) and resolves each reference:

* `mod.name[.name...]` attribute chains on a crystalsum module;
* `cls.__dict__["name"]` lookups on such a chain;
* `(owner, "name", ...)` tuples, the form its wrapper tables take.

The same references bound the library from the other side: every public
name of `src/crystalsum` must be named by other code in `src/` or reached
by one of them, so code that only tests call lives with the tests.  A
public method or property of a class must have its name read as an
attribute in `src/` outside its own body, or read anywhere in the
benchmark, where instances of library classes are not traced to a module.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_names(tree):
    """Local name -> crystalsum module, from every import in the file."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "crystalsum":
            for a in node.names:
                names[a.asname or a.name] = "crystalsum." + a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "crystalsum":
                    names[a.asname or a.name] = "crystalsum"
    return names


def _chain(node, modules):
    """(module, [attr, ...]) for an attribute chain rooted at a module name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in modules:
        return modules[node.id], attrs[::-1]
    return None


def references():
    """Sorted (file, 'module.attr...') strings, each with a resolver."""
    refs = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = _module_names(tree)
        # only the outermost node of each attribute chain counts
        inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        for node in ast.walk(tree):
            found = None
            if isinstance(node, ast.Attribute) and id(node) not in inner:
                found = _chain(node, modules)
                if found and found[1][-1:] == ["__dict__"]:
                    found = None  # resolved with its key below
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.slice, ast.Constant)
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "__dict__"):
                base = _chain(node.value.value, modules)
                if base:
                    found = (base[0], base[1] + ["__dict__", node.slice.value])
            elif (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                  and isinstance(node.elts[1], ast.Constant)
                  and isinstance(node.elts[1].value, str)):
                owner = node.elts[0]
                base = (modules[owner.id], []) if isinstance(owner, ast.Name) \
                    and owner.id in modules else _chain(owner, modules)
                if base:
                    found = (base[0], base[1] + [node.elts[1].value])
            if found and found[1]:
                refs[".".join([found[0]] + found[1])] = found
    return refs


def _resolve(module, attrs):
    obj = importlib.import_module(module)
    for i, name in enumerate(attrs):
        if i and attrs[i - 1] == "__dict__":
            obj = obj[name]
        else:
            obj = getattr(obj, name)
    return obj


REFS = references()


def test_the_benchmark_reaches_the_library():
    # a parser that finds nothing would pass the test below vacuously
    assert len(REFS) >= 40
    for key in ("crystalsum.qmodular.QQ", "crystalsum.qmodular.qpow",
                "crystalsum.qmodular.QSeries.__mul__",
                "crystalsum.measures.herglotz_tail_bound",
                "crystalsum.dbspace.real_root_scan"):
        assert key in REFS


@pytest.mark.parametrize("ref", sorted(REFS))
def test_perfbench_reference_resolves(ref):
    _resolve(*REFS[ref])


# -- the library keeps no test-only code -------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "crystalsum"


def _public_definitions(tree):
    """(name, statement) for each module-level public function, class and constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from ((n, stmt) for n in names if not n.startswith("_"))


def _names_read(stmt):
    """Every name a statement reads, imports or takes as an attribute."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def unreached_names():
    """'module.name' for each public name of src/crystalsum that no other
    top-level statement of src/ names and no benchmark reference reaches."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    reads = [(id(stmt), _names_read(stmt)) for t in trees.values() for stmt in t.body]
    out = []
    for module, tree in trees.items():
        for name, stmt in _public_definitions(tree):
            key = f"crystalsum.{module}.{name}"
            if any(name in names for sid, names in reads if sid != id(stmt)):
                continue
            if any(ref == key or ref.startswith(key + ".") for ref in REFS):
                continue
            out.append(f"{module}.{name}")
    return out


def test_every_public_name_is_reached_from_src_or_the_benchmark():
    # a parser that finds nothing would pass vacuously
    assert sum(1 for p in SRC.glob("*.py")
               for _ in _public_definitions(ast.parse(p.read_text()))) >= 60
    unreached = unreached_names()
    assert not unreached, f"only tests reach {unreached}: move them to a test helper"


def _public_methods(tree):
    """(class, name, def) for each public method and property of a module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    yield cls.name, stmt.name, stmt


def _benchmark_names():
    """Every attribute the benchmark sources read, on any object, and every
    name in a reference (its wrapper tables name methods as strings)."""
    out = {name for ref in REFS for name in ref.split(".")}
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
    return out


def unreached_methods():
    """'module.Class.name' for each public method or property of src/crystalsum
    whose name src/ reads as an attribute only inside its own body, or not
    at all, and the benchmark does not read."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    reads = [(node.attr, id(node)) for t in trees.values() for node in ast.walk(t)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    bench = _benchmark_names()
    out = []
    for module, tree in trees.items():
        for cls, name, stmt in _public_methods(tree):
            own = {id(n) for n in ast.walk(stmt)}
            if name in bench or any(a == name and i not in own for a, i in reads):
                continue
            out.append(f"{module}.{cls}.{name}")
    return out


def test_every_public_method_is_reached_from_src_or_the_benchmark():
    # a parser that finds nothing would pass vacuously
    assert sum(1 for p in SRC.glob("*.py")
               for _ in _public_methods(ast.parse(p.read_text()))) >= 40
    unreached = unreached_methods()
    assert not unreached, f"only tests reach {unreached}: move them to a test helper"
