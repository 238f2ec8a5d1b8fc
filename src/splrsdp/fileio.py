"""JSON interchange for problems, decompositions, solutions and reports.

All writers sort keys and refuse NaN so files are diffable; infinite
constraint bounds travel as null.  Loaders take an open file object or a
path.
"""

import json
import math
from itertools import chain, islice

import numpy as np

from .completion_rank import AffineSlice
from .graph_core import Graph, TreeDecomposition, read_graph
from .sdp_model import (Constraint, SparseSymMatrix, SplrSdp, Term,
                        detect_splr, validate_problem)
from .sdpa import parse_sdpa
from .solver import AdmmParams
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
    "params_to_dict",
    "params_from_dict",
    "dump",
    "load",
    "save",
    "load_sdpa_problem",
]

PROBLEM_SCHEMA = "splr-problem/1"
EXTENDED_SCHEMA = "splr-extended/1"
SOLUTION_SCHEMA = "splr-solution/1"
RECOVERED_SCHEMA = "splr-recovered/1"
SLICE_SCHEMA = "splr-slice/1"
REPORT_SCHEMA = "splr-report/1"


def _bound_out(v):
    return None if not math.isfinite(v) else float(v)


def _bound_in(v, sign):
    return sign * float("inf") if v is None else float(v)


def _sparse_out(sp):
    return [[i, j, float(v)] for (i, j), v in sorted(sp.entries.items())]


def _index_rows(n, items, cols, shape_msg, label):
    """items as a float array of `cols` columns, and the (min, max) int
    columns of its leading index pairs, all checked at once: integers in
    1..n.  Errors use shape_msg, or name pair k as label % items[k][:2].
    """
    try:
        E = np.array(items, dtype=float).reshape(len(items), cols)
    except (TypeError, ValueError):
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
    """The problem file's dict; a NaN bound raises ValueError, as null
    would read back as an infinite one."""
    nan = [r for r, c in enumerate(p.constraints, start=1)
           if math.isnan(c.lower) or math.isnan(c.upper)]
    if nan:
        raise ValueError("constraint %d has a NaN bound" % nan[0])
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
    n = int(d["n"])
    ell = int(d["ell"])
    factor = np.asarray(d["factor"], dtype=float).reshape(n, ell)
    _, i, j = _index_rows(n, d["pattern_edges"], 2, "pattern edges must be"
                          " [i, j] pairs", "pattern edge [%r, %r]")
    loop = i[i == j]
    if loop.size:
        raise ValueError("pattern edge [%d, %d] is a self-loop"
                         % (loop[0], loop[0]))
    edges = frozenset(zip(i.tolist(), j.tolist()))
    rows = [d["objective"]] + list(d["constraints"])
    if "m" in d and int(d["m"]) != len(rows) - 1:
        raise ValueError("m = %s does not match %d constraints"
                         % (d["m"], len(rows) - 1))
    sparse = _sparse_rows(n, [r["sparse_entries"] for r in rows])
    cores = np.asarray([r["core"] for r in rows],
                       dtype=float).reshape(len(rows), ell, ell)
    cons = [Constraint(a, core, _bound_in(c["lower"], -1.0),
                       _bound_in(c["upper"], 1.0))
            for a, core, c in zip(sparse[1:], cores[1:], rows[1:])]
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
    nodes = tuple(int(t) for t in d["nodes"])
    return TreeDecomposition(
        nodes=nodes,
        edges=frozenset((int(a), int(b)) for a, b in d["edges"]),
        bags={int(t): frozenset(map(int, vs)) for t, vs in d["bags"].items()},
        root=None if d.get("root") is None else int(d["root"]))


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
    base = problem_from_dict(d["base"])
    return build_extension(base, td_from_dict(d["tree"]))


def slice_to_dict(sl):
    dim = sl.point.shape[0]
    return {
        "schema": SLICE_SCHEMA,
        "dim": dim,
        "mats": [np.asarray(M, dtype=float).tolist() for M in sl.mats],
        "rhs": [float(r) for r in sl.rhs],
        "point": np.asarray(sl.point, dtype=float).tolist(),
    }


def slice_from_dict(d):
    if d.get("schema") != SLICE_SCHEMA:
        raise ValueError("not a slice file (schema %r)" % d.get("schema"))
    dim = int(d["dim"])
    mats = [np.asarray(M, dtype=float).reshape(dim, dim) for M in d["mats"]]
    return AffineSlice(mats, [float(r) for r in d["rhs"]],
                       np.asarray(d["point"], dtype=float).reshape(dim, dim))


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


def solution_to_dict(blocks, stats=None, extended=None):
    d = {
        "schema": SOLUTION_SCHEMA,
        "blocks": {str(t): np.asarray(Y, dtype=float).tolist()
                   for t, Y in sorted(blocks.items())},
    }
    if stats is not None:
        d["stats"] = stats_to_dict(stats)
    if extended is not None:
        d["extended"] = extended_to_dict(extended)
    return d


def solution_from_dict(d):
    """Returns (blocks dict, stats dict or None, ExtendedSdp or None)."""
    if d.get("schema") != SOLUTION_SCHEMA:
        raise ValueError("not a solution file (schema %r)" % d.get("schema"))
    blocks = {int(t): np.asarray(Y, dtype=float) for t, Y in d["blocks"].items()}
    ext = extended_from_dict(d["extended"]) if "extended" in d else None
    return blocks, d.get("stats"), ext


def params_to_dict(par):
    return {
        "rho": par.rho,
        "max_iter": par.max_iter,
        "tol_primal": par.tol_primal,
        "tol_dual": par.tol_dual,
        "seed": par.seed,
    }


def params_from_dict(d):
    if not isinstance(d, dict):
        raise ValueError("solver parameters must be a JSON object")
    base = params_to_dict(AdmmParams())
    unknown = set(d) - set(base)
    if unknown:
        raise ValueError("unknown solver parameters: %s" % sorted(unknown))
    par = {}
    # each value takes the type of its default
    for key, default in base.items():
        value = d.get(key, default)
        try:
            par[key] = type(default)(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("solver parameter %s must be a number, got %r"
                             % (key, value)) from None
    return AdmmParams(**par)


def dump(d, fh):
    json.dump(d, fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def save(d, path_or_file):
    if hasattr(path_or_file, "write"):
        dump(d, path_or_file)
    else:
        with open(path_or_file, "w") as fh:
            dump(d, fh)


def load(path_or_file):
    if hasattr(path_or_file, "read"):
        return json.load(path_or_file)
    with open(path_or_file) as fh:
        return json.load(fh)


def load_sdpa_problem(dat, pattern, rank_tol=1e-9):
    """Dense-matrix import: an SDPA sparse file plus a pattern graph file.

    Rebuilds one dense symmetric matrix per row from the block entries
    (negative block sizes mean diagonal-only blocks), then recovers the
    sparse-plus-low-rank split against the pattern.  SDPA rows carry a
    single right-hand side, so constraints come back as equalities.
    """
    if hasattr(dat, "read"):
        m, sizes, rhs, entries = parse_sdpa(dat)
    else:
        with open(dat) as fh:
            m, sizes, rhs, entries = parse_sdpa(fh)
    g = pattern if isinstance(pattern, Graph) else read_graph(pattern)
    offsets = []
    n = 0
    for s in sizes:
        offsets.append(n)
        n += abs(s)
    if g.n != n:
        raise ValueError("pattern has %d vertices, SDPA blocks cover %d"
                         % (g.n, n))
    mats = [np.zeros((n, n)) for _ in range(m + 1)]
    for matno, blk, i, j, v in entries:
        if not (0 <= matno <= m and 1 <= blk <= len(sizes)):
            raise ValueError("entry (%d, %d, %d, %d) out of range"
                             % (matno, blk, i, j))
        if sizes[blk - 1] < 0 and i != j:
            raise ValueError("off-diagonal entry in diagonal block %d" % blk)
        gi = offsets[blk - 1] + i - 1
        gj = offsets[blk - 1] + j - 1
        mats[matno][gi, gj] = v
        mats[matno][gj, gi] = v
    bounds = [(b, b) for b in rhs]
    return detect_splr(mats, bounds, g, rank_tol=rank_tol)
