"""Every name that src/ defines has a caller in src/, scripts/ or bench/.

A module-level function or class, and a public method or property, must
be named at least once more than its definition counts, outside the
package's ``__init__`` (whose re-exports call nothing).  Names are read
as identifier tokens, so a mention in a comment or docstring is not a
caller.
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
