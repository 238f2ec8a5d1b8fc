"""Chordal conversion of the extended problem into coupled PSD blocks.

The union of extended bags defines a chordal cover in which every bag is a
clique.  The matrix variable splits into one PSD block per decomposition
node; data entries are charged to the smallest-id block whose bag contains
them, and blocks agree on shared index pairs.  RecoveryError lives here,
next to assemble, the first step of recovery to raise it.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .graph_core import (TreeDecomposition, _two_child_nodes, chordal_complete,
                         clique_tree, root_binary, to_binary, width)
from .sdp_model import PINV_RCOND, _entries, _sym
from .sparse_extension import build_extension

__all__ = [
    "BlockSdp",
    "RecoveryError",
    "convert",
    "convert_problem",
    "assemble",
    "export_sdpa",
]


class RecoveryError(RuntimeError):
    """A block solution too inexact to recover from.

    Carries the measured value of the check that failed; the others are
    None.  disagreement: worst mismatch between blocks on a shared entry
    (assemble).  eigenvalue: most negative eigenvalue of a bag matrix.
    reproduction_error: worst completed entry against its bag.
    face_residual: worst violation of a block's accumulator identity.
    """

    def __init__(self, message, disagreement=None, eigenvalue=None,
                 reproduction_error=None, face_residual=None):
        super().__init__(message)
        self.disagreement = disagreement
        self.eigenvalue = eigenvalue
        self.reproduction_error = reproduction_error
        self.face_residual = face_residual


@dataclass
class BlockSdp:
    """Block form of the extended problem.

    Blocks carry the canonical labels 1..k of the extended pattern: a
    child's label is below its parent's, the root is k, and parent maps
    every other label to its parent's.  blocks[t] is the sorted tuple of
    extended indices of bag t.  As auxiliary indices exceed n, a two-child
    block reads [sorted bag | child-1 aux | child-2 aux
    | own aux], the order reduce_block takes, and null_mats[t] ends in
    [I; I; -I] below the bag rows.  Stacking
    the blocks' upper triangles gives the columns described by `columns`.
    rows is a CSR matrix with the objective in row 0 and the r-th kept
    constraint in row r; a row holds each of its data entries X[u, v],
    u <= v, once, in the first column of the pair (u, v), and stores no
    zeros.  bounds[r - 1] is the [lower, upper] interval of row r.  Rows and
    bounds omit the constraints convert moves into the root face (no sparse
    part, bounds [0, 0], semidefinite core); the others keep their order.
    null_mats[t] carries the accumulator constraint matrix of the block
    (null_mats[t].T @ Y_t @ null_mats[t] = 0), and null_mats[root] may carry
    further face vectors [0; V] on the root's auxiliary rows J after it.
    """

    n_ext: int
    blocks: dict
    rows: object  # scipy.sparse CSR, (1 + m) x stacked columns
    bounds: np.ndarray  # (m, 2) floats, per constraint: lower, upper
    null_mats: dict
    parent: dict

    @property
    def columns(self):
        """Stacked columns as int arrays (node, i, j, u, v).

        Column c is entry (i[c], j[c]), i <= j, 0-based, of block node[c]
        and holds the index pair (u[c], v[c]) of the extended matrix.
        Blocks follow node order, each upper triangle taken row by row.
        Built on each access and not kept: a BlockSdp held after its solve
        carries no stacked-column arrays.
        """
        return _columns(self.blocks)


def _columns(blocks):
    ids = sorted(blocks)
    sizes = [len(blocks[t]) for t in ids]
    tri = {d: np.triu_indices(d) for d in set(sizes)}
    i = np.concatenate([tri[d][0] for d in sizes])
    j = np.concatenate([tri[d][1] for d in sizes])
    counts = [d * (d + 1) // 2 for d in sizes]
    # offset of each column's block in the blocks' concatenated indices
    start = np.repeat(np.cumsum([0] + sizes[:-1]), counts)
    flat = np.fromiter(chain.from_iterable(blocks[t] for t in ids),
                       dtype=np.int64, count=sum(sizes))
    return np.repeat(ids, counts), i, j, flat[start + i], flat[start + j]


def _face_rows(constraints, ell):
    """Constraint rows that only cut out a face of the core view.

    A row with no sparse entries, bounds [0, 0] and a nonzero semidefinite
    core K (either sign) reads <K, F^T X F> = 0, which for X PSD holds
    exactly when X F range(K) = 0.  Returns the set of these rows'
    positions and an orthonormal ell x f basis V of the sum of their core
    ranges, orthonormalised together so repeated or overlapping cores add
    no dependent vectors.
    """
    row, _, _, v = _entries(constraints)
    has_sparse = np.bincount(row[v != 0.0], minlength=len(constraints))
    moved, spans = set(), []
    for r, c in enumerate(constraints):
        if c.lower != 0.0 or c.upper != 0.0 or has_sparse[r]:
            continue
        w, U = np.linalg.eigh(_sym(np.asarray(c.core, dtype=float)))
        live = np.abs(w) > PINV_RCOND * np.abs(w).max(initial=0.0)
        if live.any() and ((w[live] > 0).all() or (w[live] < 0).all()):
            moved.add(r)
            spans.append(U[:, live])
    if not spans:
        return moved, np.zeros((ell, 0))
    U, s, _ = np.linalg.svd(np.hstack(spans), full_matrices=False)
    return moved, U[:, s > PINV_RCOND * s[0]]


def convert(ext):
    """Turn an extended problem into its coupled block form.

    Each data entry goes to the first column holding its index pair, that
    is to the smallest-id block containing the pair.  Rows that only cut
    out a face of the core view (see _face_rows) are not data rows: their
    face vectors [0; V] on the root's auxiliary rows J join null_mats[root]
    (partial facial reduction), which keeps Slater's condition on the block
    problem.
    """
    pat = ext.pattern
    verts, ends = pat.bag_verts.tolist(), np.cumsum(pat.bag_sizes).tolist()
    blocks = {t: tuple(verts[e - d:e])
              for t, e, d in zip(pat.td.nodes, ends, pat.bag_sizes.tolist())}
    _, _, _, u, v = _columns(blocks)
    stride = pat.n_ext + 1
    keys, home = np.unique(u * stride + v, return_index=True)

    p = ext.base
    moved, V = _face_rows(p.constraints, pat.ell)
    cons = [c for r, c in enumerate(p.constraints) if r not in moved]
    terms = [p.objective] + cons  # each with .sparse and .core
    # every row's sparse entries, then every row's core entries, which sit
    # on the root's auxiliary pairs J x J
    m = len(terms)
    row, i, j, v = _entries(terms)
    ja, jb = np.triu_indices(pat.ell)
    J = np.asarray(pat.index_j, dtype=np.int64)
    uv = np.concatenate([np.column_stack([i + 1, j + 1]),
                         np.tile(np.column_stack([J[ja], J[jb]]), (m, 1))])
    vals = np.concatenate([
        v,
        np.array([t.core for t in terms],
                 dtype=float).reshape(m, pat.ell, pat.ell)[:, ja, jb].ravel()])
    ri = np.concatenate([row, np.repeat(np.arange(m), ja.size)])
    key = uv[:, 0] * stride + uv[:, 1]
    pos = np.minimum(np.searchsorted(keys, key), keys.size - 1)
    missing = keys[pos] != key
    if missing.any():
        raise ValueError("no block contains the pair (%d, %d)"
                         % tuple(uv[missing][0]))
    keep = vals != 0.0
    rows = sp.csr_matrix((vals[keep], (ri[keep], home[pos[keep]])),
                         shape=(m, u.size))
    null_mats = dict(ext.a_mats)
    if V.shape[1]:
        root = pat.td.root
        face = np.zeros((len(blocks[root]), V.shape[1]))
        face[np.searchsorted(blocks[root], J)] = V
        null_mats[root] = np.hstack([null_mats[root], face])
    return BlockSdp(
        n_ext=pat.n_ext,
        blocks=blocks,
        rows=rows,
        bounds=np.array([(c.lower, c.upper) for c in cons],
                        dtype=float).reshape(-1, 2),
        null_mats=null_mats,
        parent={t: pat.td.parent(t) for t in pat.td.nodes[:-1]},
    )


def convert_problem(p, td=None):
    """Full pipeline from an SPLR problem to its block form.

    Completes the pattern, takes a clique tree, splits high-degree nodes,
    roots it, builds the extension and block conversion.  A tree
    decomposition can be supplied instead; an empty pattern defaults to the
    path of singleton bags.  The report's path_mode says whether the rooted
    tree is a path, on which the tighter certificates apply.  Returns
    (extended problem, block problem, report dict).
    """
    if td is not None:
        base = td
    elif not p.pattern.edges:
        nodes = tuple(range(1, p.n + 1))
        base = TreeDecomposition(
            nodes=nodes,
            edges=frozenset((t, t + 1) for t in range(1, p.n)),
            bags={t: frozenset({t}) for t in nodes})
    else:
        completed, _ = chordal_complete(p.pattern)
        base = clique_tree(completed)
    wid = width(base)
    ext = build_extension(p, root_binary(to_binary(base)))
    bs = convert(ext)
    ext_wid = int(ext.pattern.bag_sizes.max()) - 1
    report = {
        "n": p.n,
        "n_hat": ext.pattern.n_ext,
        "ell": p.ell,
        "k": ext.pattern.k,
        "width_before": wid,
        "width_after": ext_wid,
        "bound_3l": wid + 3 * p.ell,
        "bound_2l": wid + 2 * p.ell,
        "path_mode": not _two_child_nodes(ext.pattern.td),
    }
    return ext, bs, report


def assemble(block_solution, bs, tol=1e-6):
    """Agreed bag matrices of a block solution.

    Symmetrizes every block (halving before the sum, as sdp_model._sym
    does), then gives each entry the value of the
    topmost block holding its index pair, in one gather over the stacked
    columns.  This is what copying shared entries down the tree parents
    first yields.  The blocks holding a pair form a subtree, and its top
    node has the subtree's largest label.  The worst
    difference between an entry and that value is the disagreement; beyond
    `tol` it raises RecoveryError.  Returns {t: matrix},
    rows in bs.blocks[t] order, as psd_complete_min_rank takes them.
    """
    ids = sorted(bs.blocks)
    for t in reversed(ids):
        d = len(bs.blocks[t])
        if np.shape(block_solution[t]) != (d, d):
            raise ValueError("block %d has shape %s, expected %d"
                             % (t, np.shape(block_solution[t]), d))
    # every block's matrix in one flat array, blocks in node order
    sizes = np.array([len(bs.blocks[t]) for t in ids], dtype=np.int64)
    base = np.cumsum(sizes * sizes) - sizes * sizes
    flat = 0.5 * np.concatenate([np.asarray(block_solution[t], dtype=float)
                                 .ravel() for t in ids])
    node, i, j, u, v = _columns(bs.blocks)
    k = np.searchsorted(ids, node)
    d = sizes[k]
    upper, lower = base[k] + i * d + j, base[k] + j * d + i
    sym = flat[upper] + flat[lower]
    # each column takes the value of the column of the topmost block
    # holding its pair: the first of its pair by descending label
    key = u * (bs.n_ext + 1) + v
    order = np.lexsort((-node, key))
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    agreed = np.empty_like(sym)
    agreed[order] = sym[order[first]][np.cumsum(first) - 1]
    worst = float(np.abs(sym - agreed).max(initial=0.0))
    if not worst <= tol:  # a NaN gap fails too
        raise RecoveryError("blocks disagree on shared entries by %.3e"
                            % worst, disagreement=worst)
    flat[upper] = agreed
    flat[lower] = agreed
    return {t: flat[o:o + d * d].reshape(d, d)
            for t, o, d in zip(ids, base.tolist(), sizes.tolist())}


def export_sdpa(bs, fh):
    """Write the block problem in sparse SDPA form.

    Rows: equalities as-is, two-sided inequalities split into two one-sided
    rows, one-sided rows with a nonnegative slack in a trailing LP block, and
    one rank-one equality row per null_mats column (accumulator and face
    vectors; blocks may carry different counts).  The file encodes
    min sum_t <F_0 blk t, Y_t> subject to row values = rhs: the row count,
    the block count, the block sizes (the LP block's negative), the rhs,
    then one "matno blkno i j value" line per entry (rows store no zeros),
    1-based with i <= j and matno 0 for the objective, floats by repr.
    """
    block_ids = sorted(bs.blocks)
    node, i, j, _, _ = bs.columns
    blk = np.searchsorted(block_ids, node)  # block position of each column
    # accumulator rows (block, h): upper triangle of a a^T, a = null_mats[t][:, h]
    sizes = [len(bs.blocks[t]) for t in block_ids]
    q = np.array([bs.null_mats[t].shape[1] for t in block_ids], dtype=int)
    wide = int(q.max(initial=0))
    first = np.cumsum([0] + sizes[:-1])  # first row of each block in A
    # null matrices zero-padded to a common width; padded columns get no row
    A = np.zeros((sum(sizes), wide))
    for b, t in enumerate(block_ids):
        A[first[b]:first[b] + sizes[b], :q[b]] = bs.null_mats[t]
    real = (np.arange(wide) < q[:, None]).ravel()
    row_of = np.cumsum(real) - 1  # (block, h) -> accumulator row
    at = first[blk]
    val = (A[at + i] * A[at + j]).ravel()
    nz = val != 0.0
    acc = sp.csr_matrix(
        (val[nz], (row_of[(blk[:, None] * wide + np.arange(wide)).ravel()[nz]],
                   np.repeat(np.arange(node.size), wide)[nz])),
        shape=(int(q.sum()), node.size))
    M = sp.vstack([bs.rows, acc], format="csr")

    rows = []  # (row of M, rhs, slack_sign or 0)
    for r, (lo, hi) in enumerate(bs.bounds.tolist(), start=1):
        if lo == hi:
            rows.append((r, lo, 0))
            continue
        if np.isfinite(lo):
            rows.append((r, lo, -1))  # value - slack = lo
        if np.isfinite(hi):
            rows.append((r, hi, +1))  # value + slack = hi
    rows += [(r, 0.0, 0) for r in range(len(bs.bounds) + 1, M.shape[0])]

    # file row (matno) k copies row src[k] of M in its stored order (CSR
    # row indexing keeps it); a row with a slack ends in its LP-block entry
    src = np.array([0] + [r for r, _, _ in rows], dtype=np.int64)
    sign = np.array([0] + [s for _, _, s in rows], dtype=float)
    F = M[src]
    c = F.indices
    slack = np.flatnonzero(sign)
    if slack.size:
        sizes.append(-slack.size)
    diag = np.arange(1, slack.size + 1)  # slack h at LP entry (h, h)
    cols = [np.concatenate(x) for x in (
        (np.repeat(np.arange(src.size), np.diff(F.indptr)), slack),
        (blk[c] + 1, np.full(slack.size, len(block_ids) + 1)),
        (i[c] + 1, diag), (j[c] + 1, diag), (F.data, sign[slack]))]
    order = np.argsort(cols[0], kind="stable")
    fh.write("%d\n%d\n%s\n%s\n" % (
        len(rows), len(sizes), " ".join(map(str, sizes)),
        " ".join(repr(float(b)) for _, b, _ in rows)))
    fh.writelines("%d %d %d %d %r\n" % e
                  for e in zip(*(x[order].tolist() for x in cols)))
