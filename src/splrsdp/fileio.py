"""JSON interchange for problems, decompositions, solutions and reports.

All writers sort keys and refuse NaN so files are diffable; infinite
constraint bounds travel as null.  Every command reads a file kind
through its one reader here, which checks it; a solution file always
embeds its extended problem.  load takes an open file object or a path,
save a path.
"""

import json
import math
from itertools import chain, islice

import numpy as np

from .completion_rank import AffineSlice
from .graph_core import Graph, TreeDecomposition
from .sdp_model import (Constraint, SparseSymMatrix, SplrSdp, Term, _number,
                        validate_problem)
from .sparse_extension import build_extension

__all__ = [
    "PROBLEM_SCHEMA",
    "EXTENDED_SCHEMA",
    "SOLUTION_SCHEMA",
    "RECOVERED_SCHEMA",
    "SLICE_SCHEMA",
    "REPORT_SCHEMA",
    "problem_to_dict",
    "problem_from_dict",
    "td_to_dict",
    "td_from_dict",
    "extended_to_dict",
    "extended_from_dict",
    "slice_to_dict",
    "slice_from_dict",
    "solution_to_dict",
    "solution_from_dict",
    "stats_to_dict",
    "dump",
    "load",
    "save",
]

PROBLEM_SCHEMA = "splr-problem/1"
EXTENDED_SCHEMA = "splr-extended/1"
SOLUTION_SCHEMA = "splr-solution/1"
RECOVERED_SCHEMA = "splr-recovered/1"
SLICE_SCHEMA = "splr-slice/1"
REPORT_SCHEMA = "splr-report/1"


def _typed(v, kind, name):
    """v if it is a JSON object (kind dict) or array (kind list), which the
    readers index; anything else raises ValueError naming it."""
    if not isinstance(v, kind):
        raise ValueError("%s must be a JSON %s, not %s" % (
            name, "object" if kind is dict else "array", type(v).__name__))
    return v


def _node_key(key, what):
    """The node id a JSON object key, always a string, spells."""
    try:
        return int(key)
    except ValueError:
        raise ValueError("%s key %r is not an integer node id"
                         % (what, key)) from None


def _bound_out(v):
    return None if not math.isfinite(v) else float(v)


def _bound_in(v, sign, name):
    return sign * float("inf") if v is None else _number(v, float, name)


def _sparse_out(sp):
    return [[i, j, float(v)] for (i, j), v in sorted(sp.entries.items())]


def _index_rows(n, items, cols, shape_msg, label):
    """items as a float array of `cols` columns, and the (min, max) int
    columns of its leading index pairs, all checked at once: numbers by
    sdp_model._number, indices integers in 1..n.  Errors use shape_msg, or
    name pair k as label % items[k][:2].
    """
    try:
        E = _number(items, np.ndarray, "items").reshape(len(items), cols)
    except ValueError:
        raise ValueError(shape_msg) from None
    ij = E[:, :2]
    whole = np.isfinite(ij) & (ij == np.floor(ij))
    bad = np.flatnonzero(~(whole & (ij >= 1) & (ij <= n)).all(axis=1))
    if bad.size:
        k = bad[0]
        why = "outside 1..%d" % n if whole[k].all() \
            else "has a non-integer index"
        raise ValueError("%s %s" % (label % tuple(items[k][:2]), why))
    return E, ij.min(axis=1).astype(np.int64), ij.max(axis=1).astype(np.int64)


def _sparse_rows(n, rows):
    """One SparseSymMatrix per list of [i, j, value] entries.

    All rows are checked at once by _index_rows.  As in
    SparseSymMatrix.from_entries, (i, j) and (j, i) share the key (min,
    max), a repeated key sums its values in file order, and keys keep the
    order of their first entry.
    """
    counts = [len(r) for r in rows]
    flat = list(chain.from_iterable(rows))
    E, i, j = _index_rows(n, flat, 3, "sparse entries must be [i, j, value]"
                          " triples", "entry (%r, %r)")
    row = np.repeat(np.arange(len(rows)), counts)
    key = (row * (n + 1) + i) * (n + 1) + j
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    vals = np.zeros(first.size)
    np.add.at(vals, inv, E[:, 2])
    order = np.argsort(first)
    at = first[order]
    items = zip(zip(i[at].tolist(), j[at].tolist()), vals[order].tolist())
    return [SparseSymMatrix(n, dict(islice(items, c)))
            for c in np.bincount(row[at], minlength=len(rows)).tolist()]


def problem_to_dict(p):
    """The problem file's dict.  A bound that would not read back as
    itself raises ValueError: null reads back as -inf for a lower bound and
    +inf for an upper one, so NaN, a lower +inf or an upper -inf would not.
    """
    for r, c in enumerate(p.constraints, start=1):
        if not (c.lower < math.inf and c.upper > -math.inf):
            raise ValueError("constraint %d has a NaN bound or an infinite one"
                             " on the wrong side (lower %r, upper %r), which"
                             " would not read back" % (r, c.lower, c.upper))
    return {
        "schema": PROBLEM_SCHEMA,
        "n": p.n,
        "ell": p.ell,
        "m": p.m,
        "pattern_edges": [[i, j] for i, j in sorted(p.pattern.edges)],
        "factor": np.asarray(p.factor, dtype=float).tolist(),
        "objective": {
            "sparse_entries": _sparse_out(p.objective.sparse),
            "core": np.asarray(p.objective.core, dtype=float).tolist(),
        },
        "constraints": [{
            "sparse_entries": _sparse_out(c.sparse),
            "core": np.asarray(c.core, dtype=float).tolist(),
            "lower": _bound_out(c.lower),
            "upper": _bound_out(c.upper),
        } for c in p.constraints],
    }


def problem_from_dict(d):
    if d.get("schema") != PROBLEM_SCHEMA:
        raise ValueError("not a problem file (schema %r)" % d.get("schema"))
    n = _number(d["n"], int, "n")
    ell = _number(d["ell"], int, "ell")
    factor = _number(d["factor"], np.ndarray, "factor").reshape(n, ell)
    _, i, j = _index_rows(n, _typed(d["pattern_edges"], list,
                                    "pattern_edges"), 2,
                          "pattern edges must be [i, j] pairs",
                          "pattern edge [%r, %r]")
    loop = i[i == j]
    if loop.size:
        raise ValueError("pattern edge [%d, %d] is a self-loop"
                         % (loop[0], loop[0]))
    edges = frozenset(zip(i.tolist(), j.tolist()))
    rows = [_typed(d["objective"], dict, "objective")] + [
        _typed(c, dict, "constraint %d" % r) for r, c in
        enumerate(_typed(d["constraints"], list, "constraints"), start=1)]
    if "m" in d and _number(d["m"], int, "m") != len(rows) - 1:
        raise ValueError("m = %s does not match %d constraints"
                         % (d["m"], len(rows) - 1))
    sparse = _sparse_rows(n, [_typed(r["sparse_entries"], list,
                                     "sparse_entries") for r in rows])
    cores = _number([r["core"] for r in rows], np.ndarray,
                  "core").reshape(len(rows), ell, ell)
    cons = [Constraint(a, core,
                       _bound_in(c["lower"], -1.0, "constraint %d lower" % r),
                       _bound_in(c["upper"], 1.0, "constraint %d upper" % r))
            for r, (a, core, c) in enumerate(zip(sparse[1:], cores[1:],
                                                 rows[1:]), start=1)]
    p = SplrSdp(n=n, ell=ell, pattern=Graph(n, edges), factor=factor,
                objective=Term(sparse[0], cores[0]), constraints=cons)
    validate_problem(p)
    return p


def td_to_dict(td):
    return {
        "nodes": sorted(td.nodes),
        "edges": [[a, b] for a, b in sorted(td.edges)],
        "bags": {str(t): sorted(td.bags[t]) for t in td.nodes},
        "root": td.root,
    }


def td_from_dict(d):
    def ints(vs, name):
        return [_number(v, int, name) for v in _typed(vs, list, name)]

    edges = [ints(e, "tree edge") for e in _typed(d["edges"], list, "edges")]
    return TreeDecomposition(
        nodes=tuple(ints(d["nodes"], "nodes")),
        edges=frozenset((a, b) for a, b in edges),
        bags={_node_key(t, "bags"): frozenset(ints(vs, "bag %s" % t))
              for t, vs in _typed(d["bags"], dict, "bags").items()},
        root=None if d.get("root") is None else _number(d["root"], int, "root"))


def extended_to_dict(ext):
    # the canonical rooted tree is enough to rebuild the a_mats exactly
    return {
        "schema": EXTENDED_SCHEMA,
        "base": problem_to_dict(ext.base),
        "tree": td_to_dict(ext.pattern.td),
    }


def extended_from_dict(d):
    if d.get("schema") != EXTENDED_SCHEMA:
        raise ValueError("not an extended-problem file (schema %r)"
                         % d.get("schema"))
    base = problem_from_dict(_typed(d["base"], dict, "base"))
    return build_extension(base, td_from_dict(_typed(d["tree"], dict, "tree")))


def slice_to_dict(sl):
    dim = sl.point.shape[0]
    return {
        "schema": SLICE_SCHEMA,
        "dim": dim,
        "mats": np.asarray(sl.mats, dtype=float).tolist(),
        "rhs": [float(r) for r in sl.rhs],
        "point": np.asarray(sl.point, dtype=float).tolist(),
    }


def slice_from_dict(d):
    if d.get("schema") != SLICE_SCHEMA:
        raise ValueError("not a slice file (schema %r)" % d.get("schema"))
    dim = _number(d["dim"], int, "dim")
    rows = _typed(d["mats"], list, "mats")
    mats = _number(rows, np.ndarray, "mats").reshape(len(rows), dim, dim)
    rhs = [_number(r, float, "rhs") for r in _typed(d["rhs"], list, "rhs")]
    if len(rhs) != len(mats):
        raise ValueError("slice has %d rows in mats but %d rhs values"
                         % (len(mats), len(rhs)))
    return AffineSlice(mats, np.array(rhs), _number(
        d["point"], np.ndarray, "point").reshape(dim, dim))


def stats_to_dict(st):
    return {
        "iterations": st.iterations,
        "primal_residual": st.primal_residual,
        "dual_residual": st.dual_residual,
        "objective": st.objective,
        "block_ranks": {str(t): int(r) for t, r in sorted(st.block_ranks.items())},
        "rho": st.rho,
        "converged": bool(st.converged),
        "aa_accepted": int(st.aa_accepted),
        "aa_rejected": int(st.aa_rejected),
    }


def solution_to_dict(blocks, stats=None, *, extended):
    d = {
        "schema": SOLUTION_SCHEMA,
        "blocks": {str(t): np.asarray(Y, dtype=float).tolist()
                   for t, Y in sorted(blocks.items())},
        "extended": extended_to_dict(extended),
    }
    if stats is not None:
        d["stats"] = stats_to_dict(stats)
    return d


def solution_from_dict(d):
    """Returns (blocks dict, stats dict or None, ExtendedSdp).

    By the writers' own rule, a NaN or infinity in a block or in the stats
    raises ValueError.
    """
    if d.get("schema") != SOLUTION_SCHEMA:
        raise ValueError("not a solution file (schema %r)" % d.get("schema"))
    blocks = {}
    for t, Y in _typed(d["blocks"], dict, "blocks").items():
        blocks[_node_key(t, "solution blocks")] = _number(
            Y, np.ndarray, "solution block %s" % t)
    bad = [t for t, Y in blocks.items() if not np.isfinite(Y).all()]
    if bad:  # the message of recover_low_rank's own check
        raise ValueError("block %s has a non-finite entry" % min(bad))
    stats = _typed(d["stats"], dict, "stats") if "stats" in d else None
    try:
        json.dumps(stats, allow_nan=False)
    except ValueError as err:
        raise ValueError("solution stats: %s" % err) from None
    return blocks, stats, extended_from_dict(_typed(d["extended"], dict,
                                                    "extended"))


def dump(d, fh):
    # the indenting encoder is pure Python and yields one short string per
    # token, which json.dump writes one by one; joined in batches they make
    # a few large writes, and unlike json.dumps the whole text is never held
    chunks = json.JSONEncoder(indent=2, sort_keys=True,
                              allow_nan=False).iterencode(d)
    for part in iter(lambda: "".join(islice(chunks, 1 << 14)), ""):
        fh.write(part)
    fh.write("\n")


def save(d, path):
    with open(path, "w") as fh:
        dump(d, fh)


def load(path_or_file):
    """The JSON object in a file; any other top level raises ValueError."""
    if hasattr(path_or_file, "read"):
        d = json.load(path_or_file)
    else:
        with open(path_or_file) as fh:
            d = json.load(fh)
    return _typed(d, dict, "top level")
