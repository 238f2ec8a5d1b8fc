"""The library holds no code that only tests reach, and imports one way.

Every name a module lists in `__all__`, and every method or property of
a class in `src/`, is reached from `src/` or the benchmark, apart from
its own definition and its `__all__` entry; a re-export by the package's
`__init__.py` does not count as a use.  A method counts as reached when
an attribute of its name is read, whatever the object, so no two classes
in `src/` define a method or property of the same name.  A use inside a
definition counts only when that definition is itself reached, so a
helper of dead code is dead too.  Test oracles live in `conftest.py`.
Every field of a dataclass in `src/` is read as an attribute somewhere
in `src/` or the benchmark, apart from the fields in UNREAD_FIELDS, and
none is private: `dataclasses.replace` copies every field, so state
derived from the others would go stale in the copy.
Every import in `src/` sits at module level, and the modules' imports
of each other form no cycle.
Random numbers are drawn only in RANDOM_USERS, each from a fixed or a
caller's seed, so every command is a function of its input alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splrsdp"

# the only functions that may read np.random: gen's instances, drawn from
# the seed its caller passes, and verify's sample points, drawn from seed 0
RANDOM_USERS = {"cli._cmd_gen", "sparse_extension.verify_extension"}

# fields kept for the library's callers, each with its reason
UNREAD_FIELDS = {
    # the public per-iteration residual trace of a solve
    "solver.SolveStats.history",
}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _reads(node):
    """Names read under node, bare or as attributes; imports do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def _trees():
    """Path -> parsed module for every file of src/ and the benchmark."""
    return {path: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))
            + sorted((ROOT / "benchmark").glob("*.py"))}


def _dataclass_fields(trees):
    """module.Class.field for every dataclass field in src/."""
    return ["%s.%s.%s" % (path.stem, cls.name, f.target.id)
            for path, tree in trees.items() if path.parent == PACKAGE
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and any("dataclass" in ast.unparse(d)
                    for d in cls.decorator_list)
            for f in cls.body if isinstance(f, ast.AnnAssign)
            and isinstance(f.target, ast.Name)]


def _unread_fields():
    """module.Class.field for every dataclass field in src/ that no
    attribute read in src/ or the benchmark names."""
    trees = _trees()
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f for f in _dataclass_fields(trees)
                  if f.rsplit(".", 1)[1] not in read)


def _methods(cls):
    """The methods and properties of a class node, dunders aside (Python
    calls those itself)."""
    return [f for f in cls.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (f.name.startswith("__") and f.name.endswith("__"))]


def _unreached():
    """(exports, methods) that nothing outside the tests reaches, each as
    sorted module.name or module.Class.name strings."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    candidates = {name: module for module, tree in modules.items()
                  for name in _exports(tree)}
    methods = {}  # method name -> module.Class.name of each definition
    inside = {}  # candidate or method name -> names its definition reads
    reached = set()
    sources = list(modules.values()) + [ast.parse(path.read_text())
                                        for path in (ROOT / "benchmark").glob("*.py")]
    for tree in sources:
        module = next((m for m, t in modules.items() if t is tree), None)
        for node in tree.body:
            name = getattr(node, "name", None)
            reads = _reads(node)
            if module is not None and isinstance(node, ast.ClassDef):
                own = _methods(node)
                for f in own:
                    methods.setdefault(f.name, []).append(
                        "%s.%s.%s" % (module, name, f.name))
                    inside.setdefault(f.name, set()).update(_reads(f))
                # the class's own reads, outside its methods
                reads = set().union(*(_reads(n) for n in node.body
                                      if n not in own),
                                    *(_reads(d) for d in node.bases
                                      + node.decorator_list))
            if name in candidates and module == candidates[name]:
                inside.setdefault(name, set()).update(reads)
            else:
                reached |= reads
    live = set(candidates) | set(methods)
    todo = list(reached & live)
    while todo:
        new = inside.get(todo.pop(), set()) & live - reached
        reached |= new
        todo.extend(new)
    return (sorted("%s.%s" % (module, name)
                   for name, module in candidates.items() if name not in reached),
            sorted(q for name, qs in methods.items() if name not in reached
                   for q in qs))


def test_every_export_is_reached_outside_the_tests():
    unreached = _unreached()[0]
    assert unreached == [], "exported but only tests reach: %s" % unreached


def test_every_method_is_reached_outside_the_tests():
    unreached = _unreached()[1]
    assert unreached == [], \
        "methods or properties only tests reach: %s" % unreached


def test_no_two_classes_share_a_method_name():
    # the reach rule goes by name, so a dead method passes as reached when
    # a namesake in another class is read, as ExtendedSdp.n_ext did
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for f in _methods(cls):
                    owners.setdefault(f.name, set()).add(
                        "%s.%s" % (path.stem, cls.name))
    shared = {name: sorted(qs) for name, qs in owners.items() if len(qs) > 1}
    assert shared == {}, "methods or properties of one name: %s" % shared


def _package_imports():
    """Module stem -> the package modules its module-level imports name,
    and the (module, line) of every import inside a function body."""
    graph, nested = {}, set()
    stems = {path.stem for path in PACKAGE.glob("*.py")}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update((path.stem, n.lineno) for n in ast.walk(fn)
                              if isinstance(n, (ast.Import, ast.ImportFrom)))
        names = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                names |= ({node.module.split(".")[0]} if node.module
                          else {a.name for a in node.names})
            elif isinstance(node, ast.Import):
                names |= {a.name.split(".")[1] for a in node.names
                          if a.name.startswith("splrsdp.")}
        graph[path.stem] = sorted(names & stems - {path.stem})
    return graph, sorted(nested)


def test_imports_sit_at_module_level_and_form_no_cycle():
    graph, nested = _package_imports()
    assert nested == [], "imports inside a function body: %s" % nested
    # depth-first search; a module met again while still on the path
    # closes a cycle
    state = {}

    def visit(m, path):
        state[m] = "open"
        for dep in graph[m]:
            assert state.get(dep) != "open", \
                "import cycle: %s" % " -> ".join(path + [m, dep])
            if dep not in state:
                visit(dep, path + [m])
        state[m] = "done"

    for m in sorted(graph):
        if m not in state:
            visit(m, [])


def test_every_dataclass_field_is_read_outside_the_tests():
    unread = set(_unread_fields())
    assert unread - UNREAD_FIELDS == set(), \
        "dataclass fields only tests read: %s" % sorted(unread - UNREAD_FIELDS)
    assert UNREAD_FIELDS <= unread, \
        "read now, so no longer allowed: %s" % sorted(UNREAD_FIELDS - unread)


def test_no_dataclass_field_is_private():
    private = [f for f in _dataclass_fields(_trees())
               if f.rsplit(".", 1)[1].startswith("_")]
    assert private == [], "private dataclass fields: %s" % private


def _random_reads(node):
    """Line of every np.random read under node, and of every import of a
    random module, which would let a bare name draw."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            hit = n.attr == "random" and isinstance(n.value, ast.Name) \
                and n.value.id in ("np", "numpy")
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in n.names]
            if isinstance(n, ast.ImportFrom):
                names.append(n.module or "")
            hit = any("random" in name.split(".") for name in names)
        else:
            continue
        if hit:
            yield n.lineno


def test_random_numbers_are_drawn_only_from_a_callers_seed():
    readers = sorted(
        "%s.%s:%d" % (path.stem, getattr(node, "name", "<module>"), line)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if "%s.%s" % (path.stem, getattr(node, "name", "")) not in RANDOM_USERS
        for line in _random_reads(node))
    assert readers == [], "random numbers outside %s: %s" % (
        sorted(RANDOM_USERS), readers)
