"""ADMM solvers for the block problem and a dense reference oracle.

The block solver first merges each tree node with its parent while the
parent's group holds fewer than GROUP_SIZE nodes, solves on the merged
blocks, and slices every fine block back out of its group's block.  It
works on a consensus vector x over the union of block entry positions
(off-diagonal entries scaled by sqrt(2) so inner products are dot
products).  Block iterates are full d x d matrices stored in slabs, one slab
per (block size, face dimension) group, and with the data row values they
form one vector v = K x at consensus, K = [G; W A] stacking the gather
matrix G and the data rows A weighted by W = DATA_WEIGHT.  Each evaluation
of the ADMM map projects each slab onto its null-constrained PSD faces with
one batched eigh, clips row values into their interval bounds, and solves a
prefactored least-squares system for the consensus; safeguarded Anderson
acceleration of that map picks the steps.  The dense reference solver
runs plain ADMM on the full matrix of the original problem and shares no
conversion or projection code, which makes it usable as an independent
cross-check.
"""

import logging
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chordal_conversion import _columns
from .completion_rank import (_block_ranks, _face_basis, _face_bases,
                              _psd_factor, _svec, _sym, _unsvec)

__all__ = [
    "AdmmParams",
    "SolveStats",
    "AdmmDivergence",
    "project_null_psd",
    "admm_solve",
    "dense_reference_solve",
]

AA_MEMORY = 25  # Anderson acceleration memory of admm_solve
GROUP_SIZE = 2  # fine tree nodes per merged block of admm_solve
DATA_WEIGHT = 2.0  # scale of admm_solve's data rows and bounds in K

log = logging.getLogger("splrsdp")
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


@dataclass
class AdmmParams:
    """Knobs for both ADMM loops, and the one check of them for library
    calls, params files and CLI flags: each must be a real number (numpy
    scalars too, bools not), max_iter >= 1 and seed >= 0 integral, rho and
    the tolerances positive and finite.  Each is cast to its field's type;
    a refused value raises ValueError naming the field."""

    rho: float = 1.0
    max_iter: int = 5000
    tol_primal: float = 1e-6
    tol_dual: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                why = "must be a number"
            elif kind is int and not (isinstance(value, numbers.Integral)
                                      or float(value).is_integer()):
                why = "must be an integer"
            else:
                try:
                    cast = kind(value)
                except OverflowError:
                    why = "is out of range"
                else:
                    if kind is float and not (math.isfinite(cast)
                                              and cast > 0):
                        why = "must be positive and finite"
                    elif f.name == "max_iter" and cast < 1:
                        why = "must be at least 1"
                    elif f.name == "seed" and cast < 0:
                        why = "must be non-negative"
                    else:
                        setattr(self, f.name, cast)
                        continue
            raise ValueError("solver parameter %s %s, got %r"
                             % (f.name, why, value))


@dataclass
class SolveStats:
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    block_ranks: dict
    rho: float
    converged: bool
    # Anderson candidates taken and refused by the block solver's safeguard
    aa_accepted: int = 0
    aa_rejected: int = 0
    # (iterations, 2) array of the (primal, dual) residuals per iteration
    history: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)),
                                repr=False)


class AdmmDivergence(RuntimeError):
    """Raised by dense_reference_solve when its residuals blow up; carries
    the stats so far."""

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


def project_null_psd(M, null_vectors):
    """Project onto {Y PSD : Y a = 0 for each null vector a}.

    PSD plus a^T Y a = 0 forces Y a = 0, so the set is Q S+ Q^T for Q an
    orthonormal basis of the vectors' orthogonal complement, and the
    projection is Q clip(Q^T M Q) Q^T.
    """
    M = _sym(np.asarray(M, dtype=float))
    return _face_project(M, _face_basis(null_vectors, M.shape[0]))


def _anderson_weights(gram, rhs):
    """Anderson weights gamma solving (gram + lam I) gamma = rhs by one LU
    solve, lam = m eps max(diag gram, tiny) for m x m gram.

    lam is the cut scale of lstsq's default rcond (eps max(m, n)) put on
    the diagonal: it makes the system positive definite when residual
    differences repeat or vanish, and an all-zero gram (so rhs = 0) gives
    gamma = 0, the plain step.  An m x m solve costs a fraction of the SVD
    behind lstsq, which is what lets the memory grow.
    """
    m = len(gram)
    shifted = gram.copy()
    shifted.flat[::m + 1] += m * _EPS * max(gram.diagonal().max(), _TINY)
    return np.linalg.solve(shifted, rhs)


def _merge_pairs(bs):
    """The solver's layout of bs on parent-child groups of its tree.

    Parents first along bs.overlaps, a node joins its parent's group while
    that group has fewer than GROUP_SIZE nodes and otherwise starts its
    own; a group is labelled by its top node.  Its block is the sorted
    union of its members' index sets, and its null vectors are the
    members' null_mats embedded in its rows and stacked side by side (for
    PSD Y, a^T Y a = 0 on the group block is a_t^T Y_t a_t = 0 on the
    member's principal submatrix).  The fine blocks are principal
    submatrices of the group blocks, so solving on the groups has the fine
    problem's feasible values and objective.  Returns (blocks, null_mats,
    place), the first two keyed by group and place[t] = (group, rows of
    bs.blocks[t] in the group block).
    """
    ids = sorted(bs.blocks)
    top = dict(zip(ids, ids))
    size = dict.fromkeys(ids, 1)
    for t, par, _ in bs.overlaps:  # parents first
        g = top[par]
        if size[g] < GROUP_SIZE:
            top[t] = g
            size[g] += 1
    members = {}
    for t in ids:
        members.setdefault(top[t], []).append(t)
    blocks, null_mats, place = {}, {}, {}
    for g in sorted(members):
        block = np.unique(np.concatenate([bs.blocks[t] for t in members[g]]))
        mats = [np.asarray(bs.null_mats[t], dtype=float) for t in members[g]]
        null = np.zeros((block.size, sum(a.shape[1] for a in mats)))
        h = 0
        for t, a in zip(members[g], mats):
            rows = np.searchsorted(block, bs.blocks[t])
            null[rows, h:h + a.shape[1]] = a
            h += a.shape[1]
            place[t] = (g, rows)
        blocks[g], null_mats[g] = block, null
    return blocks, null_mats, place


def admm_solve(bs, params=None):
    """Solve the coupled block problem; returns ({t: Y_t}, SolveStats).

    The ADMM runs on the merged blocks of _merge_pairs, and every fine
    block Y_t, t in bs.blocks, is sliced out of its group's block, so fine
    blocks of one group agree bitwise on their shared pairs; block_ranks
    count the fine blocks.  Below, "blocks" are the merged ones.  The
    blocks are grouped by (size d, face dimension), groups and members
    in node order, and each group is one contiguous slab of full d x d
    matrices in the stacked block vector y.  The sparse gather matrix G
    copies the consensus x into both triangles of every block holding a
    pair (weight 1/sqrt(2) off the diagonal), so ||G x - y|| is the svec
    distance, G^T y is the svec sum and G^T G the diagonal of pair
    multiplicities.  The data rows A are bs.rows with each fine column
    moved to the consensus coordinate of its index pair, which makes one
    splitting K x = v, K = [G; W A], v = [y; z] and scaled dual u = [lam; w].
    The data rows and their bounds are scaled by W = DATA_WEIGHT, which
    penalises them W^2 times as hard as the block copies (the per-row
    penalty of OSQP and COSMO) and changes neither the feasible set nor
    the objective c, the objective row.

    The ADMM runs as Douglas-Rachford on zeta = K x + u: with P the
    projection of every slab onto its PSD face and of z into its interval
    bounds, and X(w) the x minimising c.x + rho/2 ||K x - w||^2, one step
    is T(zeta) = zeta - P(zeta) + K X(2 P(zeta) - zeta).  Each evaluation
    of T yields v = P(zeta), u = zeta - v (exactly complementary to v) and
    x; the primal residual is ||K x - v|| over max(1, ||K x||, ||v||), each
    vector's data part divided by W first, so it is that of the unweighted
    rows and tol_primal, history and stats keep their meaning.  The dual
    residual is ||c + rho K^T u|| over max(1, ||rho K^T u||); K^T u = G^T
    lam + A^T (W w) is already the unweighted problem's, with dual W w on
    the data rows.  Type-II Anderson acceleration with memory AA_MEMORY
    proposes a candidate from the last steps, its weights from the
    regularised normal equations of _anderson_weights (one LU solve, where
    an SVD least squares at memory 25 would cost most of what the longer
    memory saves); the safeguard takes it only if its fixed-point residual
    ||T(c) - c|| is no larger than the plain step's ||T(zeta) - zeta||,
    and otherwise takes the plain step T(zeta).  Memory 25 is the best of
    a sweep over 10-40 (README): against 10 it takes the benchmark's
    `chain` from 1089 to about 720 iterations and minbisect C64 at tol
    1e-8 from 13432 to 2341, while at 30 and 40 C64 and `wide` lose again
    and refusals climb.  One iteration is one step taken, so it costs one
    evaluation of T, or two when the candidate is rejected; max_iter caps
    these steps and per-iteration timings divide by them.  Every 25 iterations rho is
    doubled or halved when one residual exceeds the other tenfold, which
    clears the memory; each of these checks logs one debug line on the
    "splrsdp" logger (iteration, residuals, rho, candidates taken/refused,
    memory filled).  The loop ends at the tolerances or at max_iter and
    has no divergence exit: the primal residual is at most 2 (triangle
    inequality) and the dual residual at most ||c|| + 1, so neither can
    grow without bound.  stats.objective is the objective row on the
    returned fine blocks, which lie off consensus by the primal residual.
    """
    params = params or AdmmParams()
    blocks, null_mats, place = _merge_pairs(bs)
    ids = sorted(blocks)
    basis = dict(zip(ids, _face_bases([null_mats[t] for t in ids],
                                      [len(blocks[t]) for t in ids])))
    groups = {}
    for t in ids:
        groups.setdefault(basis[t].shape, []).append(t)
    offset, slabs, ny = {}, [], 0
    for (d, _), members in groups.items():
        for t in members:
            offset[t], ny = ny, ny + d * d
        slabs.append((slice(offset[members[0]], ny), d,
                      np.stack([basis[t] for t in members])))

    node, i, j, pu, pv = _columns(blocks)
    stride = bs.n_ext + 1
    keys, first, inv = np.unique(pu * stride + pv, return_index=True,
                                 return_inverse=True)
    # consensus coordinates: index pairs in order of first appearance
    rank = np.argsort(np.argsort(first))
    cols = rank[inv]
    N = first.size
    # each column's place in its block's slab, and that of its mirror entry
    k = np.searchsorted(ids, node)
    d, base = np.array([(len(basis[t]), offset[t]) for t in ids])[k].T
    diag = i == j
    at = base + i * d + j
    weight = np.where(diag, 1.0, np.sqrt(0.5))
    G = sp.csr_matrix((np.concatenate([weight, weight[~diag]]),
                       (np.concatenate([at, (base + j * d + i)[~diag]]),
                        np.concatenate([cols, cols[~diag]]))), shape=(ny, N))
    # data rows in consensus coordinates, svec-scaled: a row holds each pair
    # once, so each fine column maps to its pair's coordinate alone
    _, fi, fj, fu, fv = bs.columns
    fcol = rank[np.searchsorted(keys, fu * stride + fv)]
    scale = np.where(fi == fj, 1.0, np.sqrt(2.0))
    rows = sp.csr_matrix((bs.rows.data * scale[bs.rows.indices],
                          fcol[bs.rows.indices], bs.rows.indptr),
                         shape=(bs.rows.shape[0], N))
    c = rows[0].toarray().ravel()
    K = sp.vstack([G, DATA_WEIGHT * rows[1:]]).tocsr()
    # stored transpose: building a .T view costs more than the product
    KT = K.T.tocsr()
    solve = spla.factorized((KT @ K).tocsc())
    lo = np.concatenate([np.full(ny, -np.inf),
                         [DATA_WEIGHT * b[0] for b in bs.bounds]])
    hi = np.concatenate([np.full(ny, np.inf),
                         [DATA_WEIGHT * b[1] for b in bs.bounds]])
    shrink = 1.0 - DATA_WEIGHT ** -2

    def norm(y):
        """||y|| with the data part divided by DATA_WEIGHT: the norm of the
        unweighted rows, from two dot products and no copy."""
        return np.sqrt(y @ y - shrink * (y[ny:] @ y[ny:]))

    def project(zeta):
        v = np.clip(zeta, lo, hi)
        for s, d, Q in slabs:
            v[s] = _face_project(v[s].reshape(-1, d, d), Q).ravel()
        return v

    def evaluate(zeta, v):
        """T at zeta given v = P(zeta): v, u, K^T u, x, K x, T(zeta) - zeta."""
        u = zeta - v
        KTu = KT @ u
        x = solve(KT @ v - KTu - c / rho)
        Kx = K @ x
        return v, u, KTu, x, Kx, Kx - v

    rho = params.rho
    # identity times a seed-dependent scale, so reruns with other seeds probe
    # different basins while staying reproducible
    scale0 = float(2.0 ** np.random.default_rng(params.seed).uniform(-1.0, 1.0))
    zeta = np.clip(np.zeros(K.shape[0]), lo, hi)
    zeta[at[diag]] = scale0
    ev = evaluate(zeta, project(zeta))

    # Anderson memory: rows of differences of T(zeta) and of T(zeta) - zeta
    # between successive iterates, filled round-robin, with the Gram matrix
    # of the residual differences kept current
    dG = np.empty((AA_MEMORY, zeta.size))
    dF = np.empty((AA_MEMORY, zeta.size))
    gram = np.empty((AA_MEMORY, AA_MEMORY))
    filled = slot = accepted = rejected = 0
    history = []
    converged = False
    debug = log.isEnabledFor(logging.DEBUG)
    for it in range(1, params.max_iter + 1):
        v, u, KTu, x, Kx, f = ev
        pri = norm(f) / max(1.0, norm(Kx), norm(v))
        dua = np.linalg.norm(c + rho * KTu) / max(
            1.0, rho * np.linalg.norm(KTu))
        history.append((pri, dua))
        if pri <= params.tol_primal and dua <= params.tol_dual:
            converged = True
            break
        if it == params.max_iter:
            break
        if it % 25 == 0:
            if debug:
                log.debug("admm it %d pri %.3e dua %.3e rho %.3g aa %d/%d "
                          "memory %d/%d", it, pri, dua, rho, accepted,
                          rejected, filled, AA_MEMORY)
            step = (2.0 if pri > 10.0 * dua and rho < 1e6 else
                    0.5 if dua > 10.0 * pri and rho > 1e-6 else None)
            if step is not None:
                # u scales by 1/step; v stays the projection of v + u/step
                rho *= step
                zeta = v + u / step
                ev = evaluate(zeta, v)
                f = ev[-1]
                filled = slot = 0

        new = None
        if filled:
            gamma = _anderson_weights(gram[:filled, :filled],
                                      dF[:filled] @ f)
            cand = zeta + f - gamma @ dG[:filled]
            ev_c = evaluate(cand, project(cand))
            if np.linalg.norm(ev_c[-1]) <= np.linalg.norm(f):
                new, ev_new = cand, ev_c
                accepted += 1
            else:
                rejected += 1
        if new is None:
            new = zeta + f
            ev_new = evaluate(new, project(new))
        df = ev_new[-1] - f
        dF[slot] = df
        dG[slot] = new - zeta + df
        filled = min(filled + 1, AA_MEMORY)
        gram[slot, :filled] = gram[:filled, slot] = dF[:filled] @ df
        slot = (slot + 1) % AA_MEMORY
        zeta, ev = new, ev_new

    blocks = {t: v[offset[g] + len(basis[g]) * r[:, None] + r]
              for t, (g, r) in place.items()}
    ranks = _block_ranks(blocks)
    # bs.columns run over the fine nodes in order, each upper triangle row
    # by row
    upper = np.concatenate([B[np.triu_indices(len(B))]
                            for _, B in sorted(blocks.items())])
    objective = bs.rows[0].dot(upper * np.where(fi == fj, 1.0, 2.0))[0]
    stats = SolveStats(iterations=it, primal_residual=float(pri),
                       dual_residual=float(dua), objective=float(objective),
                       block_ranks=ranks, rho=float(rho), converged=converged,
                       aa_accepted=accepted, aa_rejected=rejected,
                       history=np.array(history))
    return blocks, stats


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
    from .sdp_model import FactoredSolution

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
    C = Q.T @ p.objective.dense(p.factor) @ Q
    mats = [Q.T @ cn.term.dense(p.factor) @ Q for cn in p.constraints]
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
    stats = SolveStats(iterations=it, primal_residual=pri, dual_residual=dua,
                       objective=float(c @ x), block_ranks={}, rho=rho,
                       converged=converged, history=np.array(history))
    if diverged:
        raise AdmmDivergence("dense solve diverged at iteration %d" % it,
                             stats)
    return FactoredSolution(Q @ _psd_factor(S)), stats
