"""Chordal conversion of the extended problem into coupled PSD blocks.

The union of extended bags defines a chordal cover in which every bag is a
clique.  The matrix variable splits into one PSD block per decomposition
node; data entries are charged to the smallest-id block whose bag contains
them, and blocks agree on shared index pairs.
"""

from dataclasses import dataclass

import numpy as np

from .graph_core import (TreeDecomposition, chordal_complete, clique_tree,
                         root_binary, to_binary, width)
from .sdpa import write_sdpa
from .sparse_extension import build_extension

__all__ = [
    "BlockSdp",
    "convert",
    "convert_problem",
    "assemble",
    "export_sdpa",
]


@dataclass
class BlockSdp:
    """Block form of the extended problem.

    blocks[t] is the sorted tuple of extended indices of bag t; objective and
    constraint data are dense matrices per block (dict keyed by node, absent
    means zero).  null_mats[t] carries the accumulator constraint matrix of
    the block (block.T @ Y @ block = 0).  Overlaps list
    (t, parent, shared_indices) for every tree edge.
    """

    n_ext: int
    tree: object  # relabeled rooted TreeDecomposition, root = k
    blocks: dict
    objective: dict
    constraints: list  # per row: dict node -> dense matrix
    bounds: list  # per row: (lower, upper)
    null_mats: dict
    overlaps: list

    @property
    def k(self):
        return len(self.blocks)

    def block_values(self, row_data, blocks):
        """Sum of <C_t, Y_t> over the row's blocks."""
        return sum(float(np.sum(C * blocks[t])) for t, C in row_data.items())


def _entry_home(ext):
    """Map each needed index pair to the smallest-id block containing it."""
    occ = {}
    for t in sorted(ext.pattern.ext_bags):
        for v in ext.pattern.ext_bags[t]:
            occ.setdefault(v, []).append(t)

    def home(u, v):
        ts = set(occ.get(u, ())) & set(occ.get(v, ()))
        if not ts:
            raise ValueError("no block contains the pair (%d, %d)" % (u, v))
        return min(ts)

    return home


def convert(ext):
    """Turn an extended problem into its coupled block form."""
    pat = ext.pattern
    home = _entry_home(ext)
    blocks = {t: tuple(sorted(pat.ext_bags[t])) for t in pat.td.nodes}
    pos = {t: {v: i for i, v in enumerate(blocks[t])} for t in blocks}

    def add_entry(data, u, v, val):
        t = home(u, v)
        C = data.setdefault(t, np.zeros((len(blocks[t]), len(blocks[t]))))
        i, j = pos[t][u], pos[t][v]
        C[i, j] += val
        if i != j:
            C[j, i] += val

    def row_data(term):
        data = {}
        for (u, v), val in term.sparse.entries.items():
            add_entry(data, u, v, val)
        if pat.ell:
            J = pat.index_j
            for a in range(pat.ell):
                for b in range(a, pat.ell):
                    val = term.core[a, b]
                    if val != 0.0:
                        add_entry(data, J[a], J[b], val)
        return data

    p = ext.base
    objective = row_data(p.objective)
    constraints = [row_data(c.term) for c in p.constraints]
    bounds = [(c.lower, c.upper) for c in p.constraints]
    overlaps = []
    for t in pat.td.nodes:
        par = pat.td.parent(t)
        if par is not None:
            shared = tuple(sorted(pat.ext_bags[t] & pat.ext_bags[par]))
            overlaps.append((t, par, shared))
    return BlockSdp(
        n_ext=pat.n_ext,
        tree=pat.td,
        blocks=blocks,
        objective=objective,
        constraints=constraints,
        bounds=bounds,
        null_mats=dict(ext.a_mats),
        overlaps=overlaps,
    )


def convert_problem(p, td=None, path_mode=False):
    """Full pipeline from an SPLR problem to its block form.

    Completes the pattern, takes a clique tree, splits high-degree nodes,
    roots it, builds the extension and block conversion.  A tree
    decomposition can be supplied instead; an empty pattern defaults to the
    path of singleton bags.  With path_mode the decomposition must already
    be a path (tighter certificates apply).  Returns (extended problem,
    block problem, report dict).
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
    if path_mode:
        if not base.is_path():
            raise ValueError("decomposition is not a path; path mode unavailable")
        rooted = root_binary(base)
    else:
        rooted = root_binary(to_binary(base))
    ext = build_extension(p, rooted)
    bs = convert(ext)
    ext_wid = max(len(b) for b in ext.pattern.ext_bags.values()) - 1
    report = {
        "n": p.n,
        "n_hat": ext.pattern.n_ext,
        "ell": p.ell,
        "k": ext.pattern.k,
        "width_before": wid,
        "width_after": ext_wid,
        "bound_3l": wid + 3 * p.ell,
        "bound_2l": wid + 2 * p.ell,
        "path_mode": bool(path_mode),
    }
    return ext, bs, report


def assemble(block_solution, bs, tol=1e-6):
    """Merge per-block matrices into one partial matrix on the block pattern.

    Writes parents before children (labels descend from the root k); entries
    already written are kept, and a disagreement beyond `tol` raises
    completion_rank.RecoveryError.  Returns a completion_rank.PartialMatrix.
    """
    from .completion_rank import PartialMatrix, RecoveryError

    entries = {}
    worst = 0.0
    for t in sorted(bs.blocks, reverse=True):
        idx = bs.blocks[t]
        Z = np.asarray(block_solution[t])
        if Z.shape != (len(idx), len(idx)):
            raise ValueError("block %d has shape %s, expected %d"
                             % (t, Z.shape, len(idx)))
        for a in range(len(idx)):
            for b in range(a, len(idx)):
                key = (idx[a], idx[b])
                v = 0.5 * (Z[a, b] + Z[b, a])
                if key in entries:
                    worst = max(worst, abs(entries[key] - v))
                else:
                    entries[key] = v
    if worst > tol:
        raise RecoveryError("blocks disagree on shared entries by %.3e"
                            % worst, worst)
    return PartialMatrix(n=bs.n_ext, entries=entries)


def export_sdpa(bs, fh):
    """Write the block problem in sparse SDPA form.

    Rows: equalities as-is, two-sided inequalities split into two one-sided
    rows, one-sided rows with a nonnegative slack in a trailing LP block, and
    one rank-one equality row per accumulator vector.  The file encodes
    min sum_t <F_0 blk t, Y_t> subject to row values = rhs.
    """
    rows = []  # (entries without slack, rhs, slack_sign or 0)
    for r, (lo, hi) in enumerate(bs.bounds):
        data = bs.constraints[r]
        if lo == hi:
            rows.append((data, lo, 0))
            continue
        if np.isfinite(lo):
            rows.append((data, lo, -1))  # value - slack = lo
        if np.isfinite(hi):
            rows.append((data, hi, +1))  # value + slack = hi
    for t in sorted(bs.null_mats):
        A = bs.null_mats[t]
        for h in range(A.shape[1]):
            a = A[:, h]
            rows.append(({t: np.outer(a, a)}, 0.0, 0))

    n_slack = sum(1 for _, _, s in rows if s)
    block_ids = sorted(bs.blocks)
    sizes = [len(bs.blocks[t]) for t in block_ids]
    if n_slack:
        sizes.append(-n_slack)
    blkno_of = {t: i + 1 for i, t in enumerate(block_ids)}
    lp_blk = len(block_ids) + 1

    entries = []
    for t, C in sorted(bs.objective.items()):
        for i in range(C.shape[0]):
            for j in range(i, C.shape[0]):
                if C[i, j] != 0.0:
                    entries.append((0, blkno_of[t], i + 1, j + 1, C[i, j]))
    rhs = []
    slack_idx = 0
    for r, (data, b, sign) in enumerate(rows, start=1):
        rhs.append(b)
        for t, C in sorted(data.items()):
            for i in range(C.shape[0]):
                for j in range(i, C.shape[0]):
                    if C[i, j] != 0.0:
                        entries.append((r, blkno_of[t], i + 1, j + 1, C[i, j]))
        if sign:
            slack_idx += 1
            entries.append((r, lp_blk, slack_idx, slack_idx, float(sign)))
    write_sdpa(fh, len(rows), sizes, rhs, entries)
