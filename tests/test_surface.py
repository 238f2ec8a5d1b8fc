"""The library holds no code that only tests reach.

Every name a module lists in `__all__` is reached from `src/` or the
benchmark, apart from its own definition and its `__all__` entry; a
re-export by the package's `__init__.py` does not count as a use.  A use
inside a definition counts only when that definition is itself reached,
so a helper of dead code is dead too.  Test oracles live in
`conftest.py`.  Every field of a dataclass in `src/` is read as an
attribute somewhere in `src/` or the benchmark, apart from the fields in
UNREAD_FIELDS.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splrsdp"

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


def _unread_fields():
    """module.Class.field for every dataclass field in src/ that no
    attribute read in src/ or the benchmark names."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             + sorted((ROOT / "benchmark").glob("*.py"))}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    fields = ["%s.%s.%s" % (path.stem, cls.name, f.target.id)
              for path, tree in trees.items() if path.parent == PACKAGE
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              and any("dataclass" in ast.unparse(d)
                      for d in cls.decorator_list)
              for f in cls.body if isinstance(f, ast.AnnAssign)
              and isinstance(f.target, ast.Name)]
    return sorted(f for f in fields if f.rsplit(".", 1)[1] not in read)


def _unreached_exports():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    candidates = {name: module for module, tree in modules.items()
                  for name in _exports(tree)}
    inside = {}  # candidate -> names its definition reads
    reached = set()
    sources = list(modules.values()) + [ast.parse(path.read_text())
                                        for path in (ROOT / "benchmark").glob("*.py")]
    for tree in sources:
        for node in tree.body:
            name = getattr(node, "name", None)
            if name in candidates and tree is modules[candidates[name]]:
                inside[name] = _reads(node)
            else:
                reached |= _reads(node)
    todo = list(reached & set(candidates))
    while todo:
        new = inside.get(todo.pop(), set()) & set(candidates) - reached
        reached |= new
        todo.extend(new)
    return sorted("%s.%s" % (module, name) for name, module in candidates.items()
                  if name not in reached)


def test_every_export_is_reached_outside_the_tests():
    unreached = _unreached_exports()
    assert unreached == [], "exported but only tests reach: %s" % unreached


def test_every_dataclass_field_is_read_outside_the_tests():
    unread = set(_unread_fields())
    assert unread - UNREAD_FIELDS == set(), \
        "dataclass fields only tests read: %s" % sorted(unread - UNREAD_FIELDS)
    assert UNREAD_FIELDS <= unread, \
        "read now, so no longer allowed: %s" % sorted(UNREAD_FIELDS - unread)
