import numpy as np
import pytest
from hypothesis import settings

from splrsdp.graph_core import Graph, TreeDecomposition, _is_peo, _mcs_order
from splrsdp.instances import gen_min_bisection
from splrsdp.sdp_model import _values
from splrsdp.sparse_extension import _root_gram

# every property test runs the same examples on every run, with no deadline
# (the first call of a test can pay for imports and LAPACK warm-up)
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

# 12-vertex chordal test graph with treewidth 3 and known maximal cliques:
# an inner 6-cycle braced by two chords plus one pendant triangle per
# inner edge.
CHORDAL12_CLIQUES = [
    frozenset({1, 6, 7}),
    frozenset({1, 2, 8}),
    frozenset({2, 3, 9}),
    frozenset({3, 4, 10}),
    frozenset({4, 5, 11}),
    frozenset({5, 6, 12}),
    frozenset({1, 2, 5, 6}),
    frozenset({2, 3, 4, 5}),
]


@pytest.fixture
def chordal12():
    edges = set()
    for c in CHORDAL12_CLIQUES:
        cs = sorted(c)
        for a in range(len(cs)):
            for b in range(a + 1, len(cs)):
                edges.add((cs[a], cs[b]))
    return Graph.from_edges(12, edges)


def random_valid_td(rng, p, max_new=3, max_keep=4):
    """Random valid tree decomposition with p nodes.

    Bags are built top-down: each node keeps a random subset of its parent's
    bag and introduces fresh vertices, which makes running intersection hold
    by construction.  Returns (graph, td) where the graph is the union of
    bag cliques.
    """
    parent = {1: None}
    for t in range(2, p + 1):
        parent[t] = int(rng.integers(1, t))
    next_v = 1
    bags = {}
    for t in range(1, p + 1):
        if parent[t] is None:
            inherited = set()
        else:
            pb = sorted(bags[parent[t]])
            keep = int(rng.integers(0, min(len(pb), max_keep) + 1))
            inherited = set(rng.choice(pb, size=keep, replace=False)) if keep else set()
        fresh = int(rng.integers(1 if not inherited else 0, max_new + 1))
        newv = set(range(next_v, next_v + fresh))
        next_v += fresh
        bags[t] = frozenset({int(v) for v in inherited} | newv)
    n = next_v - 1
    edges = set()
    for t in range(2, p + 1):
        edges.add((min(t, parent[t]), max(t, parent[t])))
    td = TreeDecomposition(nodes=tuple(range(1, p + 1)), edges=frozenset(edges), bags=bags)
    gedges = set()
    for bag in bags.values():
        bs = sorted(bag)
        for a in range(len(bs)):
            for b in range(a + 1, len(bs)):
                gedges.add((bs[a], bs[b]))
    return Graph.from_edges(n, gedges), td


def aux(pat, t):
    """Auxiliary indices of node t by their definition: n+(t-1)ell+1 ..
    n+t*ell."""
    return tuple(range(pat.n + (t - 1) * pat.ell + 1, pat.n + t * pat.ell + 1))


def ext_bags(pat):
    """Label -> extended bag, sliced out of the pattern's bag arrays."""
    ends = np.cumsum(pat.bag_sizes).tolist()
    return {t: tuple(pat.bag_verts[e - d:e].tolist())
            for t, e, d in zip(pat.td.nodes, ends, pat.bag_sizes.tolist())}


def w_sets(pat):
    """Label -> W_t, read from the pattern's held/owner arrays."""
    return {t: set(pat.held[pat.owner == t].tolist()) for t in pat.td.nodes}


def copy_down(blocks, bs):
    """Reference agreement by the depth rule: symmetrize, then overwrite
    each child's shared entries by its parent's, in order of depth from
    the root; returns (bags, worst gap)."""
    depth = {}

    def level(t):
        if t not in depth:
            depth[t] = 0 if t not in bs.parent else level(bs.parent[t]) + 1
        return depth[t]

    bags = {t: 0.5 * (B + B.T) for t, B in blocks.items()}
    worst = 0.0
    for t in sorted(bs.parent, key=level):
        par = bs.parent[t]
        shared = sorted(set(bs.blocks[t]) & set(bs.blocks[par]))
        if not shared:
            continue
        a = np.ix_(*[np.searchsorted(bs.blocks[t], shared)] * 2)
        b = np.ix_(*[np.searchsorted(bs.blocks[par], shared)] * 2)
        worst = max(worst, float(np.abs(bags[t][a] - bags[par][b]).max()))
        bags[t][a] = bags[par][b]
    return bags, worst


def block_row_values(bs, blocks):
    """Value of every data row of a block problem on per-block matrices,
    objective first."""
    node, i, j, _, _ = bs.columns
    y = np.array([blocks[t][a, b] for t, a, b in zip(node, i, j)])
    return bs.rows @ (y * np.where(i == j, 1.0, 2.0))


def cycle_bisection(n):
    """gen_min_bisection on the cycle C_n."""
    return gen_min_bisection(
        Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)]))


def random_graph(rng, n, p_edge):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < p_edge]
    return Graph.from_edges(n, edges)


def random_psd(rng, n, rank=None):
    r = rank if rank is not None else n
    f = rng.standard_normal((n, r))
    return f @ f.T


def random_splr_problem(rng, n, ell, p_edge=0.15, m_extra=3, graph=None):
    """Random SPLR instance: sparse parts on a random pattern, shared random
    factor, mixed equality/interval/one-sided rows."""
    from splrsdp.sdp_model import Constraint, SparseSymMatrix, SplrSdp, Term

    g = graph if graph is not None else random_graph(rng, n, p_edge)
    factor = rng.standard_normal((n, ell)) if ell else np.zeros((n, 0))

    def random_sparse(density=0.5):
        items = []
        for i, j in g.edges:
            if rng.random() < density:
                items.append((i, j, float(rng.standard_normal())))
        for i in range(1, n + 1):
            if rng.random() < density:
                items.append((i, i, float(rng.standard_normal())))
        return SparseSymMatrix.from_entries(n, items)

    def random_core():
        if not ell:
            return np.zeros((0, 0))
        C = rng.standard_normal((ell, ell))
        return 0.5 * (C + C.T)

    obj = Term(random_sparse(), random_core())
    cons = []
    for _ in range(m_extra):
        v = float(rng.standard_normal())
        kind = rng.integers(0, 3)
        if kind == 0:
            lo = hi = v
        elif kind == 1:
            lo, hi = v, v + float(rng.random())
        else:
            lo, hi = float("-inf"), v
        cons.append(Constraint(random_sparse(), random_core(), lo, hi))
    return SplrSdp(n=n, ell=ell, pattern=g, factor=factor,
                   objective=obj, constraints=cons)


def write_graph(g, fh):
    """The text graph format read_graph takes: "n m", then one "i j" line
    per edge."""
    fh.write("%d %d\n" % (g.n, len(g.edges)))
    for i, j in sorted(g.edges):
        fh.write("%d %d\n" % (i, j))


def is_chordal(g):
    """True iff the reverse of a maximum cardinality search order is a
    perfect elimination order."""
    return _is_peo(g, _mcs_order(g)[::-1])


def eval_extended(ext, ext_sol):
    """Objective and constraint values of the extended problem: the sparse
    parts on the original indices, the cores on the root accumulator block."""
    p = ext.base
    vals = _values([p.objective, *p.constraints], ext_sol, _root_gram(ext, ext_sol))
    return float(vals[0]), vals[1:]


def parse_sdpa(fh):
    """Reads a sparse SDPA (.dat-s) file: the row count m, the block count,
    the block sizes (negative for a diagonal block), the m right-hand sides,
    then "matno blkno i j value" lines with i <= j, matno 0 the objective.
    Lines starting with '"' or '*' are comments; brace, comma and
    parenthesis decorations on the size and rhs lines are accepted.
    Returns (m, block_sizes, rhs, entries), entries as 1-based
    (matno, blkno, i, j, value).
    """
    lines = []
    for raw in fh:
        line = raw.strip()
        if not line or line[0] in "\"*":
            continue
        lines.append(line)
    if len(lines) < 4:
        raise ValueError("truncated SDPA file")
    m = int(lines[0].split()[0])
    nblocks = int(lines[1].split()[0])
    clean = lines[2].replace(",", " ").replace("{", " ").replace("}", " ")
    clean = clean.replace("(", " ").replace(")", " ")
    block_sizes = [int(float(tok)) for tok in clean.split()]
    if len(block_sizes) != nblocks:
        raise ValueError("expected %d block sizes, got %d" % (nblocks, len(block_sizes)))
    clean = lines[3].replace(",", " ").replace("{", " ").replace("}", " ")
    rhs = [float(tok) for tok in clean.split()]
    if len(rhs) != m:
        raise ValueError("expected %d rhs values, got %d" % (m, len(rhs)))
    entries = []
    for line in lines[4:]:
        toks = line.split()
        if len(toks) != 5:
            raise ValueError("bad entry line: %r" % line)
        matno, blkno, i, j = (int(toks[0]), int(toks[1]), int(toks[2]), int(toks[3]))
        v = float(toks[4])
        if not (0 <= matno <= m):
            raise ValueError("matrix index %d out of range" % matno)
        if not (1 <= blkno <= nblocks):
            raise ValueError("block index %d out of range" % blkno)
        dim = abs(block_sizes[blkno - 1])
        if not (1 <= i <= j <= dim):
            raise ValueError("entry (%d, %d) outside block %d" % (i, j, blkno))
        entries.append((matno, blkno, i, j, v))
    return m, block_sizes, rhs, entries
