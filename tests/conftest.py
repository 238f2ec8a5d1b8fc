from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import settings

from splrsdp.completion_rank import _face_bases
from splrsdp.graph_core import (Graph, TreeDecomposition, _mcs_order,
                                _top_nodes)
from splrsdp.instances import _witness_d, gen_min_bisection
from splrsdp.sdp_model import FactoredSolution, _core_gram, _values
from splrsdp.solver import AdmmParams, SolveStats, _face_project
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
    perfect elimination order: eliminating in it never needs a fill edge.
    Checked pair by pair over each vertex's later neighbours, apart from
    the test clique_tree makes."""
    adj = g.adjacency()
    order = _mcs_order(g)[::-1]
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        for a in range(len(later)):
            for b in range(a + 1, len(later)):
                if later[b] not in adj[later[a]]:
                    return False
    return True


def sparse_dense(A):
    """The dense symmetric matrix of a SparseSymMatrix."""
    M = np.zeros((A.n, A.n))
    for (i, j), v in A.entries.items():
        M[i - 1, j - 1] = v
        M[j - 1, i - 1] = v
    return M


def term_dense(term, factor):
    """The dense data matrix of a Term: sparse part plus factor core factor^T."""
    A = sparse_dense(term.sparse)
    if term.core.size:
        A = A + factor @ term.core @ factor.T
    return A


def eval_extended(ext, ext_sol):
    """Objective and constraint values of the extended problem: the sparse
    parts on the original indices, the cores on the root accumulator block."""
    p = ext.base
    vals = _values([p.objective, *p.constraints], ext_sol, _root_gram(ext, ext_sol))
    return float(vals[0]), vals[1:]


def factored(X):
    """The FactoredSolution of a PSD matrix X: its eigenvectors scaled by
    the roots of its eigenvalues, negative ones clipped to zero."""
    w, V = np.linalg.eigh(np.asarray(X, dtype=float))
    return FactoredSolution(V * np.sqrt(np.maximum(w, 0.0)))


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


def eval_constraint(p, i, sol):
    """Value of constraint row i (1-based) at a FactoredSolution."""
    return float(_values([p.constraints[i - 1]], sol, _core_gram(p, sol))[0])


def validate_decomposition(td, g):
    """True iff td is a tree whose bags cover vertices and edges of g and
    satisfy the running intersection property.

    Uses td's own orientation (an unrooted td is rooted at its first node),
    whose walk checks the tree, and checks both properties by _top_nodes.
    """
    if td.nodes and td.root not in set(td.nodes):
        td = replace(td, root=td.nodes[0])
    try:
        td.postorder()
    except ValueError:
        return False
    return _top_nodes(td, g) is not None


def brute_force_treewidth(g):
    """Exact treewidth by dynamic programming over elimination prefixes.

    Only for n <= 12.  For an eliminated set S the fill neighborhood of v is
    order independent: u is adjacent iff reachable from v through S.  That
    makes f(S) = best achievable max-degree well defined on subsets.
    """
    n = g.n
    if n > 12:
        raise ValueError("brute_force_treewidth limited to n <= 12")
    if n == 0:
        raise ValueError("empty graph")
    adj = [0] * n
    for i, j in g.edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)

    def elim_degree(S, v):
        # neighbors of v after eliminating S: reachable through S vertices
        seen = 1 << v
        frontier = 1 << v
        reach = 0
        while frontier:
            nbrs = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nbrs |= adj[low.bit_length() - 1]
            nbrs &= ~seen
            reach |= nbrs & ~S
            frontier = nbrs & S
            seen |= nbrs
        return bin(reach).count("1")

    full = (1 << n) - 1
    INF = n + 1
    f = [INF] * (1 << n)
    f[0] = 0
    by_count = sorted(range(1 << n), key=lambda s: bin(s).count("1"))
    for S in by_count:
        if f[S] == INF:
            continue
        rest = full & ~S
        r = rest
        while r:
            low = r & -r
            r ^= low
            v = low.bit_length() - 1
            cost = max(f[S], elim_degree(S, v))
            T = S | low
            if cost < f[T]:
                f[T] = cost
    return f[full]


def coupling_singular_values(alpha, beta):
    """Closed-form singular values of [[1, beta], [-beta, alpha]].

    These 2x2 blocks show up when comparing a candidate factor against the
    witness frame; alpha is the retained diagonal weight and beta the
    rotation amount.  Returns (larger, smaller).
    """
    a2 = alpha * alpha
    b2 = beta * beta
    mid = 2.0 * b2 + a2 + 1.0
    disc = np.sqrt((1.0 - a2) ** 2 + 4.0 * b2 * (alpha - 1.0) ** 2)
    hi = np.sqrt((mid + disc) / 2.0)
    lo = np.sqrt(max((mid - disc) / 2.0, 0.0))
    return hi, lo


def lb_tree_feasible_point(ell):
    """Feasible (and optimal) solution of gen_lb_tree."""
    D = _witness_d(ell)
    I = np.eye(ell)
    Z = np.zeros((ell, ell))
    Y3 = -I
    return np.block([
        [I, Z, Z, I, Z, Z],
        [Z, I, Z, Z, I, Z],
        [Z, Z, I, Z, Z, Y3],
        [I, Z, Z, 2.0 * I, D.T, (I + D).T],
        [Z, I, Z, D, 2.0 * I, (I + D).T],
        [Z, Z, Y3, I + D, I + D, I + 2.0 * (I + D)],
    ])


def face_basis(null_vectors, d):
    """The _face_bases basis of one matrix of null vectors."""
    return _face_bases([null_vectors], [d])[0]


def project_null_psd(M, null_vectors):
    """Project onto {Y PSD : Y a = 0 for each null vector a}.

    PSD plus a^T Y a = 0 forces Y a = 0, so the set is Q S+ Q^T for Q an
    orthonormal basis of the vectors' orthogonal complement, and the
    projection is Q clip(Q^T M Q) Q^T.
    """
    M = np.asarray(M, dtype=float)
    M = 0.5 * (M + M.T)
    Q = face_basis(null_vectors, M.shape[0])
    return _face_project(M, Q, Q.T)


class AdmmDivergence(RuntimeError):
    """Raised by dense_reference_solve when its residuals blow up; carries
    the stats so far."""

    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


def _dense_svec(M):
    """Symmetric vectorization: <A, B> = svec(A) @ svec(B)."""
    iu = np.triu_indices(M.shape[0])
    return M[iu] * np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))


def _dense_unsvec(v, d):
    iu = np.triu_indices(d)
    M = np.zeros((d, d))
    M[iu] = v * np.where(iu[0] == iu[1], 1.0, 1.0 / np.sqrt(2.0))
    return M + np.triu(M, 1).T


def _dense_psd_factor(S):
    """Factor of a PSD matrix, eigenvalues at or below 1e-10 times the
    largest dropped."""
    vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    top = vals[-1] if vals.size else 0.0
    if top <= 0.0:
        return np.zeros((S.shape[0], 0))
    keep = vals > 1e-10 * top
    return vecs[:, keep] * np.sqrt(vals[keep])


def dense_reference_solve(p, params=None):
    """Plain dense ADMM on the original problem; the cross-check oracle.

    Splits the variable into a data copy (interval rows) and a PSD copy.
    Rows <F K F^T, X> = 0 with no sparse part and K semidefinite hold for
    PSD X only on the face X F range(K) = 0, which is Q S+ Q^T for Q an
    orthonormal basis of the complement of F range(K); the solve runs on
    X = Q W Q^T over the data Q^T A Q, so the PSD step projects onto that
    face.  Returns (FactoredSolution, SolveStats); check stats.converged
    before trusting tight tolerances.  Residual blow-up raises
    AdmmDivergence, and infeasible instances show up as a primal residual
    that stalls high.  rho stays params.rho, so ADMM's convergence holds.
    """
    params = params or AdmmParams()
    # its own face, written apart from the block path's facial reduction
    killed = []
    for cn in p.constraints:
        if cn.lower == cn.upper == 0.0 and cn.core.size \
                and not any(cn.sparse.entries.values()):
            ev, EV = np.linalg.eigh(cn.core)
            big = np.abs(ev) > 1e-10 * np.abs(ev).max()
            if big.any() and abs(ev[big].sum()) == np.abs(ev[big]).sum():
                killed.append(p.factor @ EV[:, big])
    Q = np.eye(p.n)
    if killed:
        UK, sK, _ = np.linalg.svd(np.hstack(killed))
        Q = UK[:, int(np.sum(sK > 1e-10 * sK[0])):]
    n = Q.shape[1]
    C = Q.T @ term_dense(p.objective, p.factor) @ Q
    mats = [Q.T @ term_dense(cn.term, p.factor) @ Q for cn in p.constraints]
    c = _dense_svec(C)
    dim = c.size
    m = len(mats)
    A = (np.array([_dense_svec(M) for M in mats]) if m else np.zeros((0, dim)))
    lo = np.array([cn.lower for cn in p.constraints], dtype=float)
    hi = np.array([cn.upper for cn in p.constraints], dtype=float)
    cho = sla.cho_factor(np.eye(dim) + A.T @ A)

    rho = params.rho
    scale0 = float(2.0 ** np.random.default_rng(params.seed).uniform(-1.0, 1.0))
    x = np.zeros(dim)
    S = scale0 * np.eye(n)
    s_v = _dense_svec(S)
    lam = np.zeros(dim)
    z = np.clip(np.zeros(m), lo, hi)
    w = np.zeros(m)
    history = []
    converged = diverged = False
    for it in range(1, params.max_iter + 1):
        rhs = -c / rho + (s_v - lam) + A.T @ (z - w)
        x = sla.cho_solve(cho, rhs)
        Ax = A @ x

        s_old = s_v
        # its own clip, sharing no projection code with the block path
        wS, VS = np.linalg.eigh(_dense_unsvec(x + lam, n))
        S = (VS * np.maximum(wS, 0.0)) @ VS.T
        s_v = _dense_svec(S)
        z_old = z
        z = np.clip(Ax + w, lo, hi)

        lam = lam + x - s_v
        w = w + Ax - z

        pri = np.sqrt(float(np.sum((x - s_v) ** 2) + np.sum((Ax - z) ** 2)))
        pri /= max(1.0, np.linalg.norm(x), np.linalg.norm(s_v))
        dvec = (s_v - s_old) + A.T @ (z - z_old)
        uvec = lam + A.T @ w
        dua = rho * np.linalg.norm(dvec) / max(1.0, rho * np.linalg.norm(uvec))
        history.append((pri, dua))
        if pri <= params.tol_primal and dua <= params.tol_dual:
            converged = True
            break
        if pri + dua > 1e6 * max(sum(history[0]), 1.0):
            diverged = True
            break
    stats = SolveStats(iterations=it, primal_residual=pri, dual_residual=dua,
                       objective=float(c @ x), block_ranks={}, rho=rho,
                       converged=converged, history=np.array(history))
    if diverged:
        raise AdmmDivergence("dense solve diverged at iteration %d" % it,
                             stats)
    return FactoredSolution(Q @ _dense_psd_factor(S)), stats
