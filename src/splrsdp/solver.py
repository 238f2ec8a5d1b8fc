"""ADMM solvers for the block problem and a dense reference oracle.

The block solver works on a consensus vector x over the union of block entry
positions (off-diagonal entries scaled by sqrt(2) so inner products are dot
products).  Block iterates and their scaled duals are single stacked svec
vectors, one slice per block, tied to x by a sparse 0/1 gather matrix G with
G x the blocks' copies of x.  Each iteration solves a prefactored
least-squares system for the consensus, projects every block slice onto its
null-constrained PSD face, clips row values into their interval bounds, and
updates scaled duals.  The dense reference solver runs the same scheme on
the full matrix of the original problem and shares no conversion code, which
makes it usable as an independent cross-check.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .completion_rank import _block_rank, _psd_factor, _svec, _sym, _unsvec

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
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.tol_primal <= 0 or self.tol_dual <= 0:
            raise ValueError("tolerances must be positive")
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
    history: list = field(default_factory=list, repr=False)


class AdmmDivergence(RuntimeError):
    """Raised when residuals blow up; carries the stats so far."""

    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


def _psd_clip(M):
    w, V = np.linalg.eigh(_sym(M))
    w = np.maximum(w, 0.0)
    return (V * w) @ V.T


def _face_basis(null_vectors, d, tol=1e-10):
    """Orthonormal basis Q of the complement of the null vectors' span.

    Returns None when there are no null vectors (the face is the whole
    cone).  Directions below `tol` times the largest singular value count as
    dependent and are dropped with a warning.
    """
    A = np.asarray(null_vectors, dtype=float)
    if A.size == 0:
        return None
    A = A.reshape(d, -1)
    U, s, _ = np.linalg.svd(A, full_matrices=True)
    r = int(np.sum(s > tol * s[0])) if s.size else 0
    if r < A.shape[1]:
        warnings.warn("null vectors are linearly dependent; projecting onto "
                      "the span of %d of %d" % (r, A.shape[1]))
    return U[:, r:]


def _face_project(M, Q):
    """Q clip(Q^T M Q) Q^T for a symmetric M; the plain clip when Q is None."""
    if Q is None:
        return _psd_clip(M)
    return Q @ _psd_clip(Q.T @ M @ Q) @ Q.T


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

    The block iterates y and the scaled duals lam are stacked svec vectors,
    one slice per block in node order.  The 0/1 gather matrix G (stacked
    entries x distinct index pairs) copies the consensus x into every block
    holding a pair, so consensus means y = G x and G^T G is the diagonal of
    pair multiplicities.  Divergence (combined residual growing past 1e6
    times its starting value) raises AdmmDivergence.
    """
    params = params or AdmmParams()
    layout, start = {}, 0
    for t in sorted(bs.blocks):
        d = len(bs.blocks[t])
        layout[t] = (slice(start, start + d * (d + 1) // 2), d,
                     _face_basis(bs.null_mats[t], d))
        start = layout[t][0].stop
    _, i, j, pu, pv = bs.columns
    _, first, inv = np.unique(pu * (bs.n_ext + 1) + pv, return_index=True,
                              return_inverse=True)
    # consensus coordinates: index pairs in order of first appearance
    _, cols = np.unique(first[inv], return_inverse=True)
    L, N = cols.size, first.size
    G = sp.csr_matrix((np.ones(L), (np.arange(L), cols)), shape=(L, N))

    def unstack(v):
        return {t: _unsvec(v[s], d) for t, (s, d, _) in layout.items()}

    # data rows in consensus coordinates: rows . diag(svec scale) . G
    scaled = bs.rows.copy()
    scaled.data *= np.where(i == j, 1.0, np.sqrt(2.0))[scaled.indices]
    rows = scaled @ G
    c = rows[0].toarray().ravel()
    A = rows[1:]
    m = A.shape[0]
    lo = np.array([b[0] for b in bs.bounds], dtype=float)
    hi = np.array([b[1] for b in bs.bounds], dtype=float)

    solve = spla.factorized((G.T @ G + A.T @ A).tocsc())
    # stored transposes: building a .T view costs more than the product
    GT, AT = G.T.tocsr(), A.T.tocsr()

    rho = params.rho
    # identity times a seed-dependent scale, so reruns with other seeds probe
    # different basins while staying reproducible
    scale0 = float(2.0 ** np.random.default_rng(params.seed).uniform(-1.0, 1.0))
    x = np.zeros(N)
    y = np.concatenate([_svec(scale0 * np.eye(d))
                        for _, d, _ in layout.values()])
    lam = np.zeros(L)
    z = np.clip(np.zeros(m), lo, hi)
    w = np.zeros(m)

    history = []
    it = 0
    converged = False
    first_combined = None
    for it in range(1, params.max_iter + 1):
        x = solve(-c / rho + AT @ (z - w) + GT @ (y - lam))
        Gx = G @ x
        Ax = A @ x

        y_old = y
        v = Gx + lam
        y = np.concatenate([_svec(_face_project(_unsvec(v[s], d), Q))
                            for s, d, Q in layout.values()])
        z_old = z
        z = np.clip(Ax + w, lo, hi)

        lam = lam + Gx - y
        w = w + Ax - z

        pri = np.sqrt(np.sum((Gx - y) ** 2) + np.sum((Ax - z) ** 2))
        pri /= max(1.0, np.sqrt(np.sum(Gx ** 2) + np.sum(Ax ** 2)),
                   np.sqrt(np.sum(y ** 2) + np.sum(z ** 2)))
        dvec = GT @ (y - y_old) + AT @ (z - z_old)
        uvec = GT @ lam + AT @ w
        dua = rho * np.linalg.norm(dvec) / max(1.0, rho * np.linalg.norm(uvec))
        history.append((pri, dua))

        combined = pri + dua
        if first_combined is None:
            first_combined = combined
        if pri <= params.tol_primal and dua <= params.tol_dual:
            converged = True
            break
        if combined > 1e6 * max(first_combined, 1.0):
            stats = _block_stats(it, pri, dua, float(c @ x), unstack(y), rho,
                                 False, history)
            raise AdmmDivergence("residuals diverged at iteration %d" % it,
                                 stats)
        if it % 25 == 0:
            if pri > 10.0 * dua and rho < 1e6:
                rho *= 2.0
                lam /= 2.0
                w /= 2.0
            elif dua > 10.0 * pri and rho > 1e-6:
                rho /= 2.0
                lam *= 2.0
                w *= 2.0

    blocks = unstack(y)
    stats = _block_stats(it, history[-1][0] if history else 0.0,
                         history[-1][1] if history else 0.0,
                         float(c @ x), blocks, rho, converged, history)
    return blocks, stats


def _block_stats(it, pri, dua, obj, blocks, rho, converged, history):
    ranks = {t: _block_rank(B) for t, B in blocks.items()}
    return SolveStats(iterations=it, primal_residual=float(pri),
                      dual_residual=float(dua), objective=float(obj),
                      block_ranks=ranks, rho=float(rho),
                      converged=bool(converged), history=history)


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
    converged = False
    first_combined = None
    it = 0
    for it in range(1, params.max_iter + 1):
        rhs = -c / rho + (s_v - lam) + A.T @ (z - w)
        x = sla.cho_solve(cho, rhs)
        Ax = A @ x

        s_old = s_v
        S = _psd_clip(_unsvec(x + lam, n))
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
        combined = pri + dua
        if first_combined is None:
            first_combined = combined
        if pri <= params.tol_primal and dua <= params.tol_dual:
            converged = True
            break
        if combined > 1e6 * max(first_combined, 1.0):
            stats = SolveStats(iterations=it, primal_residual=pri,
                               dual_residual=dua, objective=float(c @ x),
                               block_ranks={}, rho=rho, converged=False,
                               history=history)
            raise AdmmDivergence("dense solve diverged at iteration %d" % it,
                                 stats)
        if it % 25 == 0:
            if pri > 10.0 * dua and rho < 1e6:
                rho *= 2.0
                lam /= 2.0
                w /= 2.0
            elif dua > 10.0 * pri and rho > 1e-6:
                rho /= 2.0
                lam *= 2.0
                w *= 2.0
    stats = SolveStats(iterations=it,
                       primal_residual=history[-1][0] if history else 0.0,
                       dual_residual=history[-1][1] if history else 0.0,
                       objective=float(c @ x), block_ranks={}, rho=rho,
                       converged=converged, history=history)
    return FactoredSolution(_psd_factor(S)), stats
