"""Sparse extension: trade the shared low-rank factor for auxiliary rows.

Given a problem whose data matrices are pattern-sparse plus factor @ core @
factor.T, and a rooted binary tree decomposition of the pattern, this module
builds an equivalent SDP in dimension n + k*ell.  Each decomposition node t
gets ell auxiliary indices that accumulate partial products factor.T @ X
along the tree; rank-one "accumulator" equality constraints tie them
together, and the low-rank part of every constraint becomes a small dense
block on the root's auxiliary indices.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .graph_core import TreeDecomposition, _binary_degrees, _top_nodes
from .sdp_model import FactoredSolution, _core_gram, _entries, _values

__all__ = [
    "ExtendedPattern",
    "ExtendedSdp",
    "canonical_relabel",
    "build_extended_pattern",
    "build_extension",
    "extend_solution",
    "restrict_solution",
    "null_residuals",
    "verify_extension",
]

# verify_extension's samples have rank uniform in 1..min(n, ell + this)
SAMPLE_RANK_EXTRA = 2
# verify_extension's gate on the accumulator rows; a value gap passes
# within 10 times this times max(1, |value|)
VERIFY_TOL = 1e-10


@dataclass
class ExtendedPattern:
    """Index bookkeeping for the extended problem, as arrays in label order.

    Nodes are relabeled 1..k so that children precede parents and the root
    is k.  Node t owns the ell auxiliary indices n+(t-1)ell+1..n+t*ell, and
    its extended bag is bag(t) with its own and its children's auxiliary
    indices; the solver side works with the chordal cover in which every
    extended bag is a clique.  bag_verts holds every extended bag sorted,
    bag after bag, and bag_sizes their sizes.  held holds every W_t =
    bag(t) \\ bag(parent(t)), W_t after W_t, and owner the label t of each
    of its vertices; the W_t partition 1..n, as a vertex's bags form a
    subtree and W_t keeps it at the subtree's top node.
    """

    n: int
    ell: int
    k: int
    td: TreeDecomposition  # relabeled, rooted at k
    bag_verts: np.ndarray = field(repr=False, compare=False)
    bag_sizes: np.ndarray = field(repr=False, compare=False)
    held: np.ndarray = field(repr=False, compare=False)
    owner: np.ndarray = field(repr=False, compare=False)

    @property
    def n_ext(self):
        return self.n + self.k * self.ell

    @property
    def index_j(self):
        """Root auxiliary indices carrying factor.T @ X @ factor."""
        return tuple(range(self.n_ext - self.ell + 1, self.n_ext + 1))


@dataclass
class ExtendedSdp:
    """The extended problem: base data re-read on the extension plus
    per-node accumulator constraints (a_mats[t].T @ X_block @ a_mats[t] = 0).
    """

    base: object  # SplrSdp
    pattern: ExtendedPattern
    a_mats: dict  # node -> ndarray (len(ext_bag) x ell), rows follow sorted(ext_bag)


def canonical_relabel(td):
    """Relabel a rooted decomposition to 1..k in post-order.

    Children then carry smaller labels than parents and the root becomes k;
    the new bags run in label order.  Raises ValueError if td is not rooted
    at one of its nodes or is no tree on the keys of its bags.
    """
    order = td.postorder()
    new_of = {old: i + 1 for i, old in enumerate(order)}
    k = len(order)
    # each edge runs (child, parent); a child's label is below its parent's
    edges = frozenset((new_of[t], new_of[td.parent(t)]) for t in order[:-1])
    return TreeDecomposition(nodes=tuple(range(1, k + 1)), edges=edges,
                             bags={new_of[t]: td.bags[t] for t in order},
                             root=k)


def build_extended_pattern(pattern, td, ell):
    """Extended bags for `ell` auxiliary indices per node of the rooted
    binary `td`, which must be a valid decomposition of `pattern`.

    The checks and W_t come from one top-node pass over the canonical tree;
    a refused tree raises ValueError.
    """
    ctd = canonical_relabel(td)
    n, k = pattern.n, len(ctd.nodes)
    if _binary_degrees(ctd)[k] > 2:
        raise ValueError("root has more than two children")
    top = _top_nodes(ctd, pattern)
    if top is None:
        raise ValueError("decomposition is not valid for the problem pattern")
    # a child's auxiliary indices sort below its parent's, and all of them
    # above the bag's
    verts, sizes = [], []
    for t in ctd.nodes:
        bag = sorted(ctd.bags[t])
        for c in ctd.children(t) + [t]:
            bag.extend(range(n + (c - 1) * ell + 1, n + c * ell + 1))
        verts += bag
        sizes.append(len(bag))
    return ExtendedPattern(
        n=n, ell=ell, k=k, td=ctd, bag_verts=np.array(verts, dtype=np.int64),
        bag_sizes=np.array(sizes), held=np.fromiter(top, np.int64, len(top)),
        owner=np.fromiter(top.values(), np.int64, len(top)))


def build_extension(p, td):
    """Build the extended problem for `p` over the rooted binary `td`.

    The decomposition must be valid for p.pattern, which
    build_extended_pattern checks.  Auxiliary constraint matrices a_mats[t]
    hold the factor rows on W_t, zeros on the rest of the bag, +I on child
    accumulator blocks, and -I on the node's own block.
    """
    ext = build_extended_pattern(p.pattern, td, p.ell)
    n, ell, labels = ext.n, ext.ell, ext.td.nodes
    verts, sizes = ext.bag_verts, ext.bag_sizes
    node = np.repeat(labels, sizes)
    # vertex -> the node whose W holds it; 0 on the auxiliary indices
    home = np.zeros(ext.n_ext + 1, dtype=np.int64)
    home[ext.held] = ext.owner
    A = np.zeros((verts.size, ell))
    own = home[verts] == node
    A[own] = p.factor[verts[own] - 1]
    aux = np.flatnonzero(verts > n)
    x = verts[aux] - n - 1  # node (x // ell) + 1, column x % ell
    A[aux, x % ell] = np.where(x // ell + 1 == node[aux], -1.0, 1.0)
    a_mats = dict(zip(labels, np.split(A, np.cumsum(sizes)[:-1])))
    return ExtendedSdp(base=p, pattern=ext, a_mats=a_mats)


def extend_solution(ext, sol):
    """Lift a factored solution into the extended dimension.

    Node t's auxiliary rows sum its W_t rows weighted by the factor (one
    product), then its children's auxiliary rows: one pass up the label
    order, which puts children first, adds each finished node to its parent.
    """
    pat = ext.pattern
    R = sol.factor
    held, owner = pat.held, pat.owner
    acc = np.zeros((pat.k, pat.ell, R.shape[1]))
    np.add.at(acc, owner - 1, ext.base.factor[held - 1, :, None] * R[held - 1, None, :])
    for t in pat.td.nodes[:-1]:
        acc[pat.td.parent(t) - 1] += acc[t - 1]
    return FactoredSolution(np.concatenate([R, acc.reshape(pat.k * pat.ell, R.shape[1])]))


def restrict_solution(ext_sol, ext):
    """Drop the auxiliary rows: rows 1..n of the extended factor."""
    return FactoredSolution(ext_sol.factor[:ext.pattern.n, :].copy())


def null_residuals(ext, ext_sol):
    """max |a_mats[t].T X a_mats[t]| per node for a factored extended point:
    one gather and one batched product per extended-bag size."""
    verts, sizes = ext.pattern.bag_verts, ext.pattern.bag_sizes
    start = np.cumsum(sizes) - sizes
    worst = np.zeros(sizes.size)
    for s in np.unique(sizes):
        at = np.flatnonzero(sizes == s)
        rows = ext_sol.factor[verts[start[at, None] + np.arange(s)] - 1]
        G = np.stack([ext.a_mats[t] for t in at + 1]).transpose(0, 2, 1) @ rows
        worst[at] = np.abs(G @ G.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    return dict(enumerate(worst.tolist(), start=1))


def _root_gram(ext, ext_sol):
    """The root accumulator block of a factored extended point, which
    stands for factor.T X factor; None if ell = 0."""
    if not ext.base.ell:
        return None
    rows_j = ext_sol.factor[np.array(ext.pattern.index_j, dtype=np.int64) - 1]
    return rows_j @ rows_j.T


def verify_extension(p, ext, samples=100):
    """Certify the extension numerically on random lifted points.

    For each sample X = RR^T: accumulator constraints vanish to VERIFY_TOL,
    every extended objective/constraint value equals the original to 10
    VERIFY_TOL times max(1, |original|), and restriction gives R back
    bit-exactly.  Each identity is linear in X, so a generic R of any rank
    tests it with probability one: R has rank uniform in 1..min(n, ell +
    SAMPLE_RANK_EXTRA), O(n + k ell) memory.  The samples come from
    default_rng(0), so the report is a function of (p, ext, samples).
    Returns a report dict whose max_value_mismatch is the largest absolute
    gap; "ok" is the overall verdict.  samples must be an integer >= 1, as
    a check of no point certifies nothing.
    """
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) \
            or samples < 1:
        raise ValueError("samples must be an integer >= 1, got %r" % (samples,))
    rng = np.random.default_rng(0)
    # the extension is evaluated on its own copy of the problem, so a
    # mismatched pair shows as a value gap
    terms = [p.objective, *p.constraints]
    ext_terms = [ext.base.objective, *ext.base.constraints]
    entries, ext_entries = _entries(terms), _entries(ext_terms)
    worst = np.zeros(3)  # null residual, value mismatch, restriction error
    values_ok = True
    for _ in range(samples):
        r = int(rng.integers(1, min(p.n, p.ell + SAMPLE_RANK_EXTRA) + 1))
        sol = FactoredSolution(rng.standard_normal((p.n, r)) / np.sqrt(r))
        lifted = extend_solution(ext, sol)
        value = _values(terms, sol, _core_gram(p, sol), entries)
        gap = _values(ext_terms, lifted, _root_gram(ext, lifted), ext_entries) - value
        values_ok &= bool((np.abs(gap) <= 10 * VERIFY_TOL * np.fmax(1.0, np.abs(value))).all())
        back = restrict_solution(lifted, ext).factor
        worst = np.fmax(worst, [max(null_residuals(ext, lifted).values(), default=0.0),
                                np.abs(gap).max(), np.abs(back - sol.factor).max()])
    null, val, restrict = worst.tolist()
    return {"samples": samples, "max_null_residual": null,
            "max_value_mismatch": val, "max_restriction_error": restrict,
            "ok": null <= VERIFY_TOL and values_ok and restrict == 0.0}
