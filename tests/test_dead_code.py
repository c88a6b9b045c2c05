"""Every name that src/ defines has a caller in src/, scripts/ or bench/.

A module-level function or class, and a public method or property, must
be named at least once more than its definition counts, outside the
package's ``__init__`` (whose re-exports call nothing).  Names are read
as identifier tokens, so a mention in a comment or docstring is not a
caller.  Likewise every attribute a class in src/ stores, in a slot or
through ``self``, is read somewhere.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "droughtnet"


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _name_counts() -> Counter:
    files = [*_modules(), *(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    counts = Counter()
    for path in files:
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
        counts.update(tok.string for tok in tokens if tok.type == tokenize.NAME)
    return counts


def _definitions(tree: ast.Module):
    """(qualified name, name) of each module-level function or class and
    each public non-dunder method or property of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_defined_name_has_a_caller():
    counts = _name_counts()
    defined = Counter()
    found = []
    for path in _modules():
        for qualified, name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            defined[name] += 1
            found.append((f"{path.name}:{qualified}", name))
    unused = [where for where, name in found if counts[name] <= defined[name]]
    assert not unused, f"defined in src/ and called nowhere: {unused}"


def _stored_attributes(cls: ast.ClassDef):
    """Each ``__slots__`` entry and each ``self.<name>`` assignment of ``cls``."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            for elt in getattr(node.value, "elts", ()):
                yield elt.value
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr


def _declared_attributes(cls: ast.ClassDef):
    """The stored attributes of ``cls`` and, for a dataclass, its fields."""
    yield from _stored_attributes(cls)
    if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
        yield from (item.target.id for item in cls.body if isinstance(item, ast.AnnAssign))


def _attribute_reads(tree: ast.Module):
    """(class, name) of each ``self.<name>`` read inside a class, and
    (None, name) of each read through another receiver or through
    ``getattr`` with a literal name."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                is_self = isinstance(child.value, ast.Name) and child.value.id == "self"
                yield (owner if is_self else None), child.attr
            elif (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "getattr"
                  and len(child.args) > 1 and isinstance(child.args[1], ast.Constant)):
                yield None, child.args[1].value
            yield from walk(child, owner)
    yield from walk(tree, None)


def test_every_stored_attribute_is_read():
    """Every ``__slots__`` entry and ``self.<name>`` assignment of a class
    in src/ is read as an attribute in src/, scripts/ or bench/.

    A read through ``self`` counts for its own class.  A read through any
    other receiver counts for the one class that declares the name; a
    name that several classes declare (``seed`` is a slot of two classes
    and a config field) counts only in the class's own module or in a
    file that names the class."""
    files = [*_modules(), *(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    trees, names, reads = {}, {}, {}
    owners: dict[str, set] = {}
    for path in files:
        text = path.read_text(encoding="utf-8")
        trees[path] = ast.parse(text)
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        names[path] = {tok.string for tok in tokens if tok.type == tokenize.NAME}
        reads[path] = set(_attribute_reads(trees[path]))
        for cls in trees[path].body:
            if isinstance(cls, ast.ClassDef):
                for name in _declared_attributes(cls):
                    owners.setdefault(name, set()).add(cls.name)

    def is_read(path, cls, name):
        return any((cls, name) in got or (None, name) in got and (
                       len(owners[name]) == 1 or where == path or cls in names[where])
                   for where, got in reads.items())

    unread = sorted({
        f"{path.name}:{cls.name}.{name}"
        for path in _modules() for cls in trees[path].body if isinstance(cls, ast.ClassDef)
        for name in _stored_attributes(cls)
        if not name.startswith("__") and not is_read(path, cls.name, name)
    })
    assert not unread, f"stored in src/ and read nowhere: {unread}"
