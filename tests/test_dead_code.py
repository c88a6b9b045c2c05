"""Every name that src/ defines has a caller in src/, scripts/ or bench/.

A module-level function, class or constant must be named at least once
more than its definition counts.  Names are read as identifier tokens, so a
mention in a comment or docstring is not a caller.  A public method or
property must be read as an attribute (``x.name``, or ``getattr`` with
the literal name), so a local variable of the same name is not a caller.
Likewise every attribute a class in src/ stores, in a slot, through
``self`` or as a dataclass field, is read somewhere, and every name a
module of src/ imports, the package's ``__init__`` included, is used in
it, so that no layer of re-exports stands between a caller and the
module that defines a name.  No module of src/ reads another module's
single-underscore attribute, and none calls builtin ``sum`` or
``fsum``, whose float totals depend on the Python version.  Only the
node stack builds a ``kernel.Message``, the kernel names no entity,
only ``geometry.links`` decides which nodes link, and the runner
computes no end second for a region.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "droughtnet"


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _files():
    return [*_modules(), *(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]


def _name_counts() -> Counter:
    counts = Counter()
    for path in _files():
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
        counts.update(tok.string for tok in tokens if tok.type == tokenize.NAME)
    return counts


def _attribute_read_counts() -> Counter:
    """How often each name is read as an attribute: ``x.name``, or
    ``getattr(x, "name")`` with a literal name."""
    counts = Counter()
    for path in _files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                counts[node.attr] += 1
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                counts[node.args[1].value] += 1
    return counts


def _definitions(tree: ast.Module):
    """(qualified name, name) of each module-level function, class or
    non-dunder name bound by assignment, and each public non-dunder method
    or property of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, name.id
        if not isinstance(node, defs):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_defined_name_has_a_caller():
    counts, reads = _name_counts(), _attribute_read_counts()
    defined = Counter()
    found = []
    for path in _modules():
        for qualified, name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            defined[name] += 1
            found.append((f"{path.name}:{qualified}", qualified, name))
    unused = [where for where, qualified, name in found
              if (not reads[name] if "." in qualified else counts[name] <= defined[name])]
    assert not unused, f"defined in src/ and called nowhere: {unused}"


def test_every_import_is_used():
    """Each name a module of src/ binds by an import, ``from __future__``
    aside, is used in that module."""
    unused = []
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert not unused, f"imported in src/ and used nowhere: {unused}"


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


def _union(annotation):
    """The members of an ``X | Y`` annotation."""
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _union(annotation.left) + _union(annotation.right)
    return [annotation]


def _annotated_class(annotation, classes):
    """The one class of ``classes`` that an annotation names, alone or with
    None (``"C"``, ``C | None``), else None."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    named = [a for a in _union(annotation) if not (isinstance(a, ast.Constant) and a.value is None)]
    if len(named) == 1 and isinstance(named[0], ast.Name) and named[0].id in classes:
        return named[0].id
    return None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _scope_nodes(scope):
    """The nodes of ``scope`` outside the functions and classes nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo += ast.iter_child_nodes(node)


def _scope_types(scope, classes, outer: dict) -> dict:
    """Name -> class, or None when unknown, of the names a function (or
    the module) sees.  A name's class is known when the scope annotates it
    with a class (a parameter ``x: C`` or a statement ``x: C``), or when
    every binding of it in the scope is a call of one class (``x = C()``);
    any other binding makes it unknown, and an outer name keeps its class."""
    declared, bound = {}, {}
    args = getattr(scope, "args", None)
    for arg in () if args is None else (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                         args.vararg, args.kwarg):
        if arg is None:
            continue
        if arg.annotation is None:
            bound.setdefault(arg.arg, set()).add(None)
        else:
            declared[arg.arg] = _annotated_class(arg.annotation, classes)
    built = {}
    for node in _scope_nodes(scope):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            declared[node.target.id] = _annotated_class(node.annotation, classes)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) in classes):
            built[id(node.targets[0])] = node.value.func.id
    for node in _scope_nodes(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.setdefault(node.id, set()).add(built.get(id(node)))
    types = {**outer, **{name: kinds.pop() if len(kinds) == 1 else None
                         for name, kinds in bound.items()}}
    types.update(declared)
    return types


# the receiver of a read through ``getattr`` with a literal name: any object
ANY_RECEIVER = "*"


def _attribute_reads(tree: ast.Module, classes):
    """(receiver, name, ctor) of each attribute read.  receiver is the
    receiver's class where it is known: the enclosing class for ``self``,
    or the class that ``_scope_types`` finds for a name; it is
    ANY_RECEIVER for ``getattr`` with a literal name, and None for any
    other read.  ctor names the class called with the read among its
    arguments, if any.  A read that only feeds a store to an attribute of
    the same name (``out.n = msg.n + 1``) is not yielded."""
    def walk(node, owner, ctor, copying, types):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name, None, (), types)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from walk(child, owner, ctor, copying, _scope_types(child, classes, types))
                continue
            inner_ctor, inner_copying = ctor, copying
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = getattr(child, "targets", None) or [child.target]
                stored = {getattr(t, "attr", None) for t in targets}
                inner_copying = () if None in stored else stored
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                inner_ctor = child.func.id
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                receiver = getattr(child.value, "id", None)
                if child.attr not in copying:
                    yield owner if receiver == "self" else types.get(receiver), child.attr, ctor
            elif (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "getattr"
                  and len(child.args) > 1 and isinstance(child.args[1], ast.Constant)):
                yield ANY_RECEIVER, child.args[1].value, None
            yield from walk(child, owner, inner_ctor, inner_copying, types)
    yield from walk(tree, None, None, (), _scope_types(tree, classes, {}))


def _echoed_classes(trees) -> set:
    """The config schema: ScenarioConfig and every dataclass named in
    its fields' annotations, transitively.  config_to_dict echoes each
    of their fields, so every one of them is read."""
    annotations = {
        cls.name: [item.annotation for item in cls.body if isinstance(item, ast.AnnAssign)]
        for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
    }
    echoed, todo = set(), ["ScenarioConfig"]
    while todo:
        name = todo.pop()
        if name in echoed or name not in annotations:
            continue
        echoed.add(name)
        todo += [n.id for a in annotations[name] for n in ast.walk(a) if isinstance(n, ast.Name)]
    return echoed


def test_every_stored_attribute_is_read():
    """Every ``__slots__`` entry, ``self.<name>`` assignment and
    dataclass field of a class in src/ is read as an attribute in src/,
    scripts/ or bench/; the fields of the config schema count as read,
    because the config echo reads them all.

    A read whose receiver's class is known (``self``, an annotated name,
    a name bound from a constructor call; see ``_scope_types``) counts
    only for that class and the classes it derives from.  A read through
    ``getattr`` with a literal name counts for every class that declares
    the name.  Any other read counts for the one class that declares the
    name; a name that several classes declare counts only in the class's
    own module or in a file that names the class.  A read that is an
    argument of the class's own constructor (``fork()`` copying a
    message) does not count, nor does one that only feeds a store to an
    attribute of the same name."""
    files = [*_modules(), *(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    trees, names, reads = {}, {}, {}
    owners: dict[str, set] = {}
    bases: dict[str, list] = {}
    for path in files:
        text = path.read_text(encoding="utf-8")
        trees[path] = ast.parse(text)
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        names[path] = {tok.string for tok in tokens if tok.type == tokenize.NAME}
        for cls in ast.walk(trees[path]):
            if isinstance(cls, ast.ClassDef):
                bases[cls.name] = [b.id for b in cls.bases if isinstance(b, ast.Name)]
        for cls in trees[path].body:
            if isinstance(cls, ast.ClassDef):
                for name in _declared_attributes(cls):
                    owners.setdefault(name, set()).add(cls.name)
    for path in files:
        reads[path] = set(_attribute_reads(trees[path], bases))
    echoed = _echoed_classes(trees.values())

    def lineage(cls):
        found = [cls]
        for c in found:  # the list grows as it is read
            found += [b for b in bases.get(c, ()) if b not in found]
        return found

    def credits(path, cls, name, where, receiver):
        if receiver is None:
            return len(owners[name]) == 1 or where == path or cls in names[where]
        return receiver == ANY_RECEIVER or cls in lineage(receiver)

    def is_read(path, cls, name):
        return cls in echoed or any(
            attr == name and ctor != cls and credits(path, cls, name, where, receiver)
            for where, got in reads.items() for receiver, attr, ctor in got)

    unread = sorted({
        f"{path.name}:{cls.name}.{name}"
        for path in _modules() for cls in trees[path].body if isinstance(cls, ast.ClassDef)
        for name in _declared_attributes(cls)
        if not name.startswith("__") and not is_read(path, cls.name, name)
    })
    assert not unread, f"stored in src/ and read nowhere: {unread}"


def test_attribute_reads_know_the_receiver_class():
    """The guard above credits a read by its receiver's class: that of
    ``self``, of an annotated name and of a name that only a constructor
    call binds; getattr with a literal name reads any object, and any
    other receiver is unknown."""
    source = (
        "class A:\n"
        "    def f(self, a: A, b: 'A | None', c):\n"
        "        d = A()\n"
        "        e: A\n"
        "        for e in c:\n"
        "            g = A()\n"
        "            g = c\n"
        "        return self.x, a.x, b.x, c.x, d.x, e.x, g.x, getattr(c, 'x')\n"
    )
    reads = [receiver for receiver, attr, _ in _attribute_reads(ast.parse(source), {"A"})
             if attr == "x"]
    assert reads == ["A", "A", "A", None, "A", "A", None, ANY_RECEIVER]


def _own_names(tree: ast.Module) -> set:
    """Every name a module defines: its functions and classes at any
    depth, the attributes its classes declare or assign in their bodies,
    and every attribute it stores through any receiver."""
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        if isinstance(node, ast.ClassDef):
            own.update(_declared_attributes(node))
            for item in node.body:
                if isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = getattr(item, "targets", None) or [item.target]
                    own.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
    return own


def test_no_private_attribute_read_from_another_module():
    """A single-underscore attribute is read through ``self`` or ``cls``,
    or in the module that defines it: a caller that needs another
    module's private attribute needs that module to give it a public
    name, not a reach past it."""
    reads = []
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _own_names(tree)
        reads += [
            f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_") and not node.attr.startswith("__")
            and getattr(node.value, "id", None) not in ("self", "cls") and node.attr not in own
        ]
    assert not reads, f"private attributes read from outside their module: {reads}"


def _forks(tree: ast.Module) -> bool:
    """Whether a module imports ``multiprocessing`` or names ``os.fork``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
            names = [f"os.{node.attr}"]
        else:
            continue
        if any(n.split(".")[0] == "multiprocessing" or n.startswith("os.fork") for n in names):
            return True
    return False


def test_one_module_forks():
    """Every phase that runs on more than one CPU forks through one
    module, so that the child lifecycle has one copy."""
    forking = [p.name for p in PACKAGE.glob("*.py") if _forks(ast.parse(p.read_text(encoding="utf-8")))]
    assert forking == ["forked.py"]


def test_one_module_builds_messages():
    """A ``kernel.Message`` carries a node-to-node link delivery and its
    sender, so only the node stack builds one; every other event is
    scheduled as itself."""
    building = [
        p.name for p in _modules()
        if any(isinstance(node, ast.Call) and "Message" in (getattr(node.func, "id", None),
                                                            getattr(node.func, "attr", None))
               for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))))
    ]
    assert building == ["stack.py"]


def test_one_link_rule():
    """Which cells link, and how far apart they are, is the one rule of
    ``geometry.links``: the node stack and the runner take every link and
    its distance from it and measure no distance themselves."""
    calls = [
        f"{name}:{node.lineno}"
        for name in ("stack.py", "runner.py")
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "distance_to"
    ]
    assert not calls, f"distances measured outside geometry.links: {calls}"


def test_runner_computes_no_end():
    """A region runs until nothing is queued, so the runner needs neither
    the backbone's retry timing nor a count of the events left: it reads
    no ``backbone`` attribute and calls no ``pending``."""
    found = [
        f"{node.attr}:{node.lineno}"
        for node in ast.walk(ast.parse((PACKAGE / "runner.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("backbone", "pending")
    ]
    assert not found, f"runner.py reads the backbone or the queue's length: {found}"


def test_kernel_knows_no_entity():
    """An event's target is the entity object itself, so the kernel needs
    nothing of the entities but their ``handle`` and ``str``: it imports
    no other module of the package and names no entity class, as a name
    or inside a string."""
    tree = ast.parse((PACKAGE / "kernel.py").read_text(encoding="utf-8"))
    entities = ("SensorNode", "LocalBaseStation", "RemoteBaseStation")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("droughtnet")):
            found.append(f"from {'.' * node.level}{node.module or ''} import")
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("droughtnet")]
        elif isinstance(node, (ast.Name, ast.Attribute, ast.Constant)):
            text = getattr(node, "id", None) or getattr(node, "attr", None) or node.value
            if isinstance(text, str):
                found += [f"{node.lineno}: {e}" for e in entities if e in text]
    assert not found, f"kernel.py names the package or an entity: {found}"


def test_no_builtin_sum():
    """Builtin ``sum`` adds floats with compensation since Python 3.12 and
    ``math.fsum`` always does, so a total in src/ would differ between
    interpreters or from the analytics' row-order sums; src/ adds left to
    right (``geometry.ordered_total``) instead.  Integers are no exception,
    so that the rule needs no allow-list."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and (getattr(node.func, "id", None) in ("sum", "fsum")
                                           or getattr(node.func, "attr", None) == "fsum")
    ]
    assert not calls, f"builtin sum or fsum called in src/: {calls}"
