"""Concrete problem generators.

Covers the running feasibility example, two application relaxations
(minimum bisection and quadratic programs over x >= 0), and a family
of worst-case instances whose optimal solutions cannot drop below the
certified rank bound.
"""

import numpy as np

from .graph_core import Graph
from .sdp_model import Constraint, SparseSymMatrix, SplrSdp, Term

__all__ = [
    "gen_simex",
    "gen_min_bisection",
    "gen_bqp_relaxation",
    "gen_lb_small",
    "gen_lb_padded",
    "gen_lb_tree",
]

_INF = float("inf")


def _zero_sparse(n):
    return SparseSymMatrix(n, {})


def _sym_unit(ell, a, b):
    """sym(e_a e_b^T) as a dense ell x ell core, 1-based indices."""
    S = np.zeros((ell, ell))
    if a == b:
        S[a - 1, a - 1] = 1.0
    else:
        S[a - 1, b - 1] = 0.5
        S[b - 1, a - 1] = 0.5
    return S


def _entry_row(n, cells, lo, hi, ell=0):
    """Equality/interval row pinning a combination of matrix cells, with a
    zero ell x ell core.

    cells is a list of (i, j, coeff) with coeff already accounting for
    symmetric double counting.
    """
    sp = SparseSymMatrix.from_entries(n, cells)
    return Constraint(sp, np.zeros((ell, ell)), lo, hi)


def gen_simex(n, a=None, b=None):
    """Feasibility instance: unit diagonal plus one rank-one row.

    Constraints are diag(X) = 1 and <a a^T, X> = b with zero objective.
    The pattern is empty, so all coupling lives in the rank-one row.
    Defaults: a = all-ones, b = ||a||^2 (making X = I feasible).
    """
    if a is None:
        a = np.ones(n)
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.shape[0] != n:
        raise ValueError("a has length %d, expected %d" % (a.shape[0], n))
    nrm = float(np.linalg.norm(a))
    if nrm == 0.0:
        raise ValueError("a must be nonzero")
    if b is None:
        b = nrm * nrm
    b = float(b)

    factor = (a / nrm).reshape(n, 1)
    cons = [_entry_row(n, [(i, i, 1.0)], 1.0, 1.0, ell=1) for i in range(1, n + 1)]
    # <a a^T, X> = ||a||^2 u^T X u with u the normalized factor
    cons.append(Constraint(_zero_sparse(n), np.array([[nrm * nrm]]), b, b))
    return SplrSdp(
        n=n, ell=1, pattern=Graph(n, frozenset()), factor=factor,
        objective=Term(_zero_sparse(n), np.zeros((1, 1))), constraints=cons)


def _connected(g):
    adj = g.adjacency()
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def gen_min_bisection(g):
    """Graph bisection relaxation: Laplacian objective over the cut polytope
    relaxation {X PSD, diag(X) = 1, <ee^T, X> = 0}.

    The all-ones row is the declared rank-one part (factor e/sqrt(n)).
    """
    if g.n < 2:
        raise ValueError("need at least 2 vertices")
    if not _connected(g):
        raise ValueError("graph is not connected")
    n = g.n
    deg = {v: 0 for v in range(1, n + 1)}
    items = []
    for i, j in sorted(g.edges):
        deg[i] += 1
        deg[j] += 1
        items.append((i, j, -1.0))
    items += [(v, v, float(deg[v])) for v in range(1, n + 1)]
    lap = SparseSymMatrix.from_entries(n, items)

    cons = [_entry_row(n, [(i, i, 1.0)], 1.0, 1.0, ell=1) for i in range(1, n + 1)]
    # <ee^T, X> with factor e/sqrt(n) needs core scale n
    cons.append(Constraint(_zero_sparse(n), np.array([[float(n)]]), 0.0, 0.0))
    factor = np.full((n, 1), 1.0 / np.sqrt(n))
    return SplrSdp(n=n, ell=1, pattern=g, factor=factor,
                   objective=Term(lap, np.zeros((1, 1))), constraints=cons)


def gen_bqp_relaxation(Q, c, Aeq=None, beq=None, binary_set=()):
    """Lifted relaxation of min x^T Q x + 2 c^T x over Ax = b, x >= 0,
    x_i binary on binary_set.

    Variable Y is (n+1)-dimensional with Y_11 = 1; first row carries x.
    Equalities enter through one rank-deficient row <N^T N, Y> = 0 with
    N = [-b, A], declared via an orthonormal factor.
    """
    Q = np.asarray(Q, dtype=float)
    nq = Q.shape[0]
    if Q.shape != (nq, nq):
        raise ValueError("Q must be square")
    Q = 0.5 * (Q + Q.T)
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.shape[0] != nq:
        raise ValueError("c has length %d, expected %d" % (c.shape[0], nq))
    if Aeq is None:
        Aeq = np.zeros((0, nq))
    Aeq = np.asarray(Aeq, dtype=float)
    if Aeq.ndim != 2 or Aeq.shape[1] != nq:
        raise ValueError("Aeq must have %d columns" % nq)
    if beq is None:
        beq = np.zeros(Aeq.shape[0])
    beq = np.asarray(beq, dtype=float).reshape(-1)
    if beq.shape[0] != Aeq.shape[0]:
        raise ValueError("beq length does not match Aeq rows")
    binary_set = sorted(set(binary_set))
    if binary_set and not (1 <= binary_set[0] and binary_set[-1] <= nq):
        raise ValueError("binary indices outside 1..%d" % nq)

    n = nq + 1
    # shared column space of the equality block [-b, A]^T
    N = np.hstack([-beq.reshape(-1, 1), Aeq]).T
    if N.size:
        U, s, _ = np.linalg.svd(N, full_matrices=False)
        ell = int(np.sum(s > 1e-12 * s[0])) if s.size and s[0] > 0 else 0
        W = U[:, :ell]
    else:
        ell = 0
        W = np.zeros((n, 0))

    obj_items = [(1, i + 1, c[i - 1]) for i in range(1, nq + 1) if c[i - 1] != 0.0]
    for i in range(1, nq + 1):
        for j in range(i, nq + 1):
            if Q[i - 1, j - 1] != 0.0:
                obj_items.append((i + 1, j + 1, Q[i - 1, j - 1]))
    objective = Term(SparseSymMatrix.from_entries(n, obj_items), np.zeros((ell, ell)))

    cons = [_entry_row(n, [(1, 1, 1.0)], 1.0, 1.0, ell=ell)]
    for i in range(1, nq + 1):
        cons.append(_entry_row(n, [(1, i + 1, 0.5)], 0.0, _INF, ell=ell))
    for i in binary_set:
        cons.append(_entry_row(
            n, [(i + 1, i + 1, 1.0), (1, i + 1, -0.5)], 0.0, 0.0, ell=ell))
    if ell:
        core = W.T @ (N @ N.T) @ W
        cons.append(Constraint(_zero_sparse(n), 0.5 * (core + core.T), 0.0, 0.0))

    edges = {(1, i + 1) for i in range(1, nq + 1)}
    for i in range(1, nq + 1):
        for j in range(i + 1, nq + 1):
            if Q[i - 1, j - 1] != 0.0:
                edges.add((i + 1, j + 1))
    return SplrSdp(n=n, ell=ell, pattern=Graph.from_edges(n, edges), factor=W,
                   objective=objective, constraints=cons)


def _witness_d(ell):
    """diag(1, ..., 1, 1/2), the coupling of the witness frame."""
    D = np.eye(ell)
    D[ell - 1, ell - 1] = 0.5
    return D


def gen_lb_small(ell):
    """Smallest hard instance: dimension l+1 with empty pattern whose only
    solution is the identity, forcing full rank l+1.

    Rows: diag(X) = 1 and A^T X A = I + 11^T for A = [I; 1^T].
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    n = ell + 1
    factor = np.vstack([np.eye(ell), np.ones((1, ell))])
    cons = [_entry_row(n, [(i, i, 1.0)], 1.0, 1.0, ell=ell) for i in range(1, n + 1)]
    for a in range(1, ell + 1):
        for b in range(a, ell + 1):
            rhs = 2.0 if a == b else 1.0
            cons.append(Constraint(_zero_sparse(n), _sym_unit(ell, a, b), rhs, rhs))
    return SplrSdp(n=n, ell=ell, pattern=Graph(n, frozenset()), factor=factor,
                   objective=Term(_zero_sparse(n), np.zeros((ell, ell))),
                   constraints=cons)


def gen_lb_padded(base, sigma, n_hat):
    """Pad an instance with a pinned identity block, raising both the
    tree-width and the forced solution rank by sigma.

    New rows: X[n+s, j] = 0 for old columns j, X[n+s, n+t] = delta_st.
    The pattern gains a clique on the new block joined to every old vertex.
    Vertices past n + sigma stay isolated and unconstrained.
    """
    n = base.n
    if sigma < 0 or n_hat < n + sigma:
        raise ValueError("need n_hat >= base.n + sigma >= base.n")
    if sigma == 0 and n_hat == n:
        return base

    def widen(sp):
        return SparseSymMatrix(n_hat, dict(sp.entries))

    cons = [Constraint(widen(c.sparse), c.core, c.lower, c.upper)
            for c in base.constraints]
    for s in range(1, sigma + 1):
        for j in range(1, n + 1):
            cons.append(_entry_row(n_hat, [(j, n + s, 0.5)], 0.0, 0.0, ell=base.ell))
        for t in range(s, sigma + 1):
            rhs = 1.0 if s == t else 0.0
            coeff = 1.0 if s == t else 0.5
            cons.append(_entry_row(
                n_hat, [(n + s, n + t, coeff)], rhs, rhs, ell=base.ell))

    edges = set(base.pattern.edges)
    for s in range(1, sigma + 1):
        edges |= {(j, n + s) for j in range(1, n + 1)}
        edges |= {(n + s, n + t) for t in range(s + 1, sigma + 1)}
    factor = np.vstack([base.factor, np.zeros((n_hat - n, base.ell))])
    return SplrSdp(n=n_hat, ell=base.ell, pattern=Graph.from_edges(n_hat, edges),
                   factor=factor,
                   objective=Term(widen(base.objective.sparse), base.objective.core),
                   constraints=cons)


def gen_lb_tree(ell):
    """Worst-case instance on 6l vertices whose pattern is chordal with
    tree-width 3l - 1 yet every optimal solution has rank >= 3l + (l+1).

    Eight groups of sparse block equations fix most of the matrix; one
    rank-l row V^T X V = 0 with V = [-I; -I; -I; I; I; -I] couples the
    free blocks.  Blocks 4, 5 and 6 are pinned to 2I, 2I and 3I + 2D, D
    the coupling of the witness frame: gluing two copies of that frame.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")

    n = 6 * ell

    def rng_of(block):  # 1-based row range of block index 1..6
        return range((block - 1) * ell + 1, block * ell + 1)

    cons = []

    def pin_zero_block(rows, colblocks):
        for i in rows:
            for cb in colblocks:
                for j in rng_of(cb):
                    cons.append(_entry_row(n, [(i, j, 0.5)], 0.0, 0.0, ell=ell))

    def pin_sym_block(block, target):
        base = (block - 1) * ell
        for a in range(1, ell + 1):
            for b in range(a, ell + 1):
                coeff = 1.0 if a == b else 0.5
                rhs = float(target[a - 1, b - 1])
                cons.append(_entry_row(
                    n, [(base + a, base + b, coeff)], rhs, rhs, ell=ell))

    pin_zero_block(rng_of(5), [1])
    pin_zero_block(rng_of(5), [3])
    pin_zero_block(rng_of(6), [1, 2])
    pin_sym_block(4, 2.0 * np.eye(ell))
    pin_sym_block(5, 2.0 * np.eye(ell))
    pin_sym_block(6, 3.0 * np.eye(ell) + 2.0 * _witness_d(ell))
    for i in range(1, 3 * ell + 1):
        for j in range(i, 3 * ell + 1):
            coeff = 1.0 if i == j else 0.5
            rhs = 1.0 if i == j else 0.0
            cons.append(_entry_row(n, [(i, j, coeff)], rhs, rhs, ell=ell))
    pin_zero_block(rng_of(4), [2, 3])

    signs = [-1.0, -1.0, -1.0, 1.0, 1.0, -1.0]
    V = np.vstack([s * np.eye(ell) for s in signs])
    for a in range(1, ell + 1):
        for b in range(a, ell + 1):
            cons.append(Constraint(_zero_sparse(n), _sym_unit(ell, a, b), 0.0, 0.0))

    edges = set()
    for c in cons:
        edges |= c.sparse.support()
    return SplrSdp(n=n, ell=ell, pattern=Graph(n, frozenset(edges)), factor=V,
                   objective=Term(_zero_sparse(n), np.zeros((ell, ell))),
                   constraints=cons)

