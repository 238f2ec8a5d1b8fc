"""ADMM solvers for the block problem and a dense reference oracle.

The block solver works on a consensus vector x over the union of block entry
positions (off-diagonal entries scaled by sqrt(2) so inner products are dot
products).  Block iterates are full d x d matrices stored in slabs, one slab
per (block size, face dimension) group, and with the data row values they
form one vector v = K x at consensus, K = [G; A] stacking the gather matrix
G and the data rows A.  Each iteration solves a prefactored least-squares
system for the consensus, projects each slab onto its null-constrained PSD
faces with one batched eigh, clips row values into their interval bounds,
and updates the scaled dual.  The dense reference solver runs the same
scheme on the full matrix of the original problem and shares no conversion
or projection code, which makes it usable as an independent cross-check.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .completion_rank import (_block_rank, _face_basis, _psd_factor, _svec,
                              _sym, _unsvec)

__all__ = [
    "AdmmParams",
    "SolveStats",
    "AdmmDivergence",
    "project_null_psd",
    "admm_solve",
    "dense_reference_solve",
]


@dataclass
class AdmmParams:
    """Knobs for both ADMM loops."""

    rho: float = 1.0
    max_iter: int = 5000
    tol_primal: float = 1e-6
    tol_dual: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("rho", "tol_primal", "tol_dual"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError("%s must be positive and finite, got %r"
                                 % (name, value))
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveStats:
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    block_ranks: dict
    rho: float
    converged: bool
    # (iterations, 2) array of the (primal, dual) residuals per iteration
    history: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)),
                                repr=False)


class AdmmDivergence(RuntimeError):
    """Raised when residuals blow up; carries the stats so far."""

    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


def _face_project(M, Q):
    """Q clip(Q^T M Q) Q^T for stacks of symmetric M (..., d, d) and face
    bases Q (..., d, f): one batched eigh.  The result is symmetrised, as
    (W w) W^T is not bitwise symmetric."""
    QT = np.swapaxes(Q, -1, -2)
    w, V = np.linalg.eigh(QT @ M @ Q)
    W = Q @ V
    P = (W * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(W, -1, -2)
    return 0.5 * (P + np.swapaxes(P, -1, -2))


def project_null_psd(M, null_vectors, tol=1e-10):
    """Project onto {Y PSD : Y a = 0 for each null vector a}.

    PSD plus a^T Y a = 0 forces Y a = 0, so the set is Q S+ Q^T for Q an
    orthonormal basis of the vectors' orthogonal complement, and the
    projection is Q clip(Q^T M Q) Q^T.
    """
    M = _sym(np.asarray(M, dtype=float))
    return _face_project(M, _face_basis(null_vectors, M.shape[0], tol))


def admm_solve(bs, params=None):
    """Solve the coupled block problem; returns ({t: Y_t}, SolveStats).

    The blocks are grouped by (size d, face dimension), groups and members
    in node order, and each group is one contiguous slab of full d x d
    matrices in the stacked block vector y.  The sparse gather matrix G
    copies the consensus x into both triangles of every block holding a
    pair (weight 1/sqrt(2) off the diagonal), so ||G x - y|| is the svec
    distance, G^T y is the svec sum and G^T G the diagonal of pair
    multiplicities.  With the data rows A this is one splitting K x = v,
    K = [G; A], v = [y; z] and scaled dual u = [lam; w]: each iteration
    solves against K^T K, projects every slab onto its PSD face in one
    batch and clips z into its interval bounds, then updates u.
    Divergence (combined residual growing past 1e6 times its starting
    value) raises AdmmDivergence carrying the stats.
    """
    params = params or AdmmParams()
    ids = sorted(bs.blocks)
    basis = {t: _face_basis(bs.null_mats[t], len(bs.blocks[t])) for t in ids}
    groups = {}
    for t in ids:
        groups.setdefault(basis[t].shape, []).append(t)
    offset, slabs, ny = {}, [], 0
    for (d, _), members in groups.items():
        for t in members:
            offset[t], ny = ny, ny + d * d
        slabs.append((slice(offset[members[0]], ny), d,
                      np.stack([basis[t] for t in members])))

    node, i, j, pu, pv = bs.columns
    _, first, inv = np.unique(pu * (bs.n_ext + 1) + pv, return_index=True,
                              return_inverse=True)
    # consensus coordinates: index pairs in order of first appearance
    _, cols = np.unique(first[inv], return_inverse=True)
    L, N = cols.size, first.size
    # each column's place in its block's slab, and that of its mirror entry
    k = np.searchsorted(ids, node)
    d, base = np.array([(len(basis[t]), offset[t]) for t in ids])[k].T
    diag = i == j
    at = base + i * d + j
    weight = np.where(diag, 1.0, np.sqrt(0.5))
    G = sp.csr_matrix((np.concatenate([weight, weight[~diag]]),
                       (np.concatenate([at, (base + j * d + i)[~diag]]),
                        np.concatenate([cols, cols[~diag]]))), shape=(ny, N))
    # data rows in consensus coordinates: rows . diag(svec scale) . 0/1 map
    scaled = bs.rows.copy()
    scaled.data *= np.where(diag, 1.0, np.sqrt(2.0))[scaled.indices]
    rows = scaled @ sp.csr_matrix((np.ones(L), (np.arange(L), cols)),
                                  shape=(L, N))
    c = rows[0].toarray().ravel()
    K = sp.vstack([G, rows[1:]]).tocsr()
    # stored transpose: building a .T view costs more than the product
    KT = K.T.tocsr()
    solve = spla.factorized((KT @ K).tocsc())
    lo = np.concatenate([np.full(ny, -np.inf), [b[0] for b in bs.bounds]])
    hi = np.concatenate([np.full(ny, np.inf), [b[1] for b in bs.bounds]])

    rho = params.rho
    # identity times a seed-dependent scale, so reruns with other seeds probe
    # different basins while staying reproducible
    scale0 = float(2.0 ** np.random.default_rng(params.seed).uniform(-1.0, 1.0))
    v = np.clip(np.zeros(K.shape[0]), lo, hi)
    v[at[diag]] = scale0
    u = np.zeros(K.shape[0])

    history = []
    converged = diverged = False
    for it in range(1, params.max_iter + 1):
        x = solve(KT @ (v - u) - c / rho)
        Kx = K @ x

        v_old = v
        v = np.clip(Kx + u, lo, hi)
        for s, d, Q in slabs:
            v[s] = _face_project(v[s].reshape(-1, d, d), Q).ravel()
        r = Kx - v
        u = u + r

        pri = np.linalg.norm(r) / max(1.0, np.linalg.norm(Kx),
                                      np.linalg.norm(v))
        dua = rho * np.linalg.norm(KT @ (v - v_old)) / max(
            1.0, rho * np.linalg.norm(KT @ u))
        history.append((pri, dua))
        if pri <= params.tol_primal and dua <= params.tol_dual:
            converged = True
            break
        if pri + dua > 1e6 * max(sum(history[0]), 1.0):
            diverged = True
            break
        if it % 25 == 0:
            if pri > 10.0 * dua and rho < 1e6:
                rho *= 2.0
                u /= 2.0
            elif dua > 10.0 * pri and rho > 1e-6:
                rho /= 2.0
                u *= 2.0

    blocks = {t: v[offset[t]:offset[t] + len(Q) ** 2].reshape(len(Q), -1)
              for t, Q in basis.items()}
    ranks = {t: _block_rank(B) for t, B in blocks.items()}
    stats = SolveStats(iterations=it, primal_residual=float(pri),
                       dual_residual=float(dua), objective=float(c @ x),
                       block_ranks=ranks, rho=float(rho), converged=converged,
                       history=np.array(history))
    if diverged:
        raise AdmmDivergence("residuals diverged at iteration %d" % it, stats)
    return blocks, stats


def dense_reference_solve(p, params=None):
    """Plain dense ADMM on the original problem; the cross-check oracle.

    Splits the variable into a data copy (interval rows) and a PSD copy.
    Returns (FactoredSolution, SolveStats); check stats.converged before
    trusting tight tolerances.  Residual blow-up raises AdmmDivergence, and
    infeasible instances show up as a primal residual that stalls high.
    """
    from .sdp_model import FactoredSolution

    params = params or AdmmParams()
    n = p.n
    C = p.objective.dense(p.factor)
    mats = [cn.term.dense(p.factor) for cn in p.constraints]
    c = _svec(C)
    dim = c.size
    m = len(mats)
    A = (np.array([_svec(M) for M in mats]) if m else np.zeros((0, dim)))
    lo = np.array([cn.lower for cn in p.constraints], dtype=float)
    hi = np.array([cn.upper for cn in p.constraints], dtype=float)

    import scipy.linalg as sla
    cho = sla.cho_factor(np.eye(dim) + A.T @ A)

    rho = params.rho
    scale0 = float(2.0 ** np.random.default_rng(params.seed).uniform(-1.0, 1.0))
    x = np.zeros(dim)
    S = scale0 * np.eye(n)
    s_v = _svec(S)
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
        wS, VS = np.linalg.eigh(_unsvec(x + lam, n))
        S = (VS * np.maximum(wS, 0.0)) @ VS.T
        s_v = _svec(S)
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
        if it % 25 == 0:
            if pri > 10.0 * dua and rho < 1e6:
                rho *= 2.0
                lam /= 2.0
                w /= 2.0
            elif dua > 10.0 * pri and rho > 1e-6:
                rho /= 2.0
                lam *= 2.0
                w *= 2.0
    stats = SolveStats(iterations=it, primal_residual=pri, dual_residual=dua,
                       objective=float(c @ x), block_ranks={}, rho=rho,
                       converged=converged, history=np.array(history))
    if diverged:
        raise AdmmDivergence("dense solve diverged at iteration %d" % it,
                             stats)
    return FactoredSolution(_psd_factor(S)), stats
