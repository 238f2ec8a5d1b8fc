"""PSD completion and rank reduction.

Contains:
- minimum-rank PSD completion of bag matrices along a clique tree,
- rank reduction over an affine slice of the PSD cone down to the classic
  feasibility bound r(r+1)/2 <= #constraints,
- the block-level reduction used on two-child blocks of the converted
  problem, and
- end-to-end low-rank recovery for a solved block problem.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineSlice",
    "RecoveryError",
    "bp_bound",
    "max_rank_for_constraints",
    "psd_complete_min_rank",
    "rank_reduce_affine",
    "reduce_block",
    "recover_low_rank",
]

PINV_RCOND = 1e-10  # relative cut for pseudo-inverses and factor tails
RANK_TOL = 1e-8  # relative eigenvalue cut when reporting ranks


class RecoveryError(RuntimeError):
    """A block solution too inexact to recover from.

    Carries the measured value of the check that failed; the others are
    None.  disagreement: worst mismatch between blocks on a shared entry.
    eigenvalue: most negative eigenvalue of a bag matrix.
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
class AffineSlice:
    """{Y PSD : <mats[j], Y> = rhs[j]} with a known feasible point."""

    mats: list
    rhs: list
    point: np.ndarray


def max_rank_for_constraints(q):
    """Largest r with r(r+1)/2 <= q: a PSD set cut by q affine constraints
    always contains a point of at most this rank."""
    return (math.isqrt(8 * q + 1) - 1) // 2


def bp_bound(ell):
    """Certified rank of the per-block reduction, max_rank_for_constraints
    applied to its 3*ell*(ell+1)/2 constraints."""
    return (math.isqrt(12 * ell * (ell + 1) + 1) - 1) // 2


def _sym(M):
    return 0.5 * (M + M.T)


def _psd_factor(M, rel_cut=PINV_RCOND):
    """Factor a nearly-PSD symmetric matrix, dropping the tiny tail."""
    vals, vecs = np.linalg.eigh(_sym(M))
    top = vals[-1] if vals.size else 0.0
    if top <= 0.0:
        return np.zeros((M.shape[0], 0))
    keep = vals > rel_cut * top
    return vecs[:, keep] * np.sqrt(vals[keep])


def _orth_complement(V, dim, count):
    """First `count` orthonormal directions of R^dim orthogonal to the
    columns of V."""
    if count == 0:
        return np.zeros((dim, 0))
    if V.size == 0:
        return np.eye(dim)[:, :count]
    U, _, _ = np.linalg.svd(np.eye(dim) - V @ np.linalg.pinv(V))
    return U[:, :count]


def psd_complete_min_rank(bags, td, psd_tol=1e-6, rank_tol=RANK_TOL,
                          face_mats=None):
    """Complete a PSD matrix known on the bags of a clique tree at minimum rank.

    bags[t] is the known submatrix on bag t, rows in sorted(bag) order; bags
    must agree on shared entries, as the output of
    chordal_conversion.assemble does.  The completed matrix spans indices
    1..n, n the largest index in any bag.

    Builds a factor row by row, bags processed parents-first.  Each bag is
    factored on its own, then rotated so that its separator rows land exactly
    on the rows already placed (possible because both factor the same
    separator submatrix); the remaining directions reuse spare columns of the
    global frame and only widen it when the bag rank exceeds every bag seen
    so far.  The completed rank therefore equals the largest bag rank.

    face_mats (optional) maps a bag node to a matrix C (rows in sorted bag
    order) whose columns the bag must annihilate: the bag submatrix is
    projected onto the face C^T Z C = 0 before factoring, and the freshly
    placed rows get a minimum-norm correction so that C^T rows = 0 holds
    exactly in the global factor.  This keeps noisy input from leaking into
    directions that downstream identities rely on.

    Raises ValueError if a bag has no matrix of its size or the bags miss
    an index, and RecoveryError if a bag matrix is clearly not PSD
    (carrying its most negative eigenvalue) or the result fails to
    reproduce the bags (carrying the worst error).  Returns a
    FactoredSolution of the full matrix.
    """
    from .sdp_model import FactoredSolution

    if td.root is None:
        rooted = type(td)(nodes=td.nodes, edges=td.edges, bags=dict(td.bags),
                          root=min(td.nodes))
    else:
        rooted = td
    seq = list(reversed(rooted.postorder()))  # parents before children

    mats = {}
    for t in seq:
        d = len(rooted.bags[t])
        if t not in bags or np.shape(bags[t]) != (d, d):
            raise ValueError("bag %d needs a %d x %d matrix" % (t, d, d))
        mats[t] = _sym(np.asarray(bags[t], dtype=float))
    n = max((max(b) for b in rooted.bags.values() if b), default=0)
    scale = max([np.abs(B).max() for B in mats.values() if B.size] + [1.0])
    R = np.zeros((n, 0))
    placed = set()
    for t in seq:
        idx = sorted(rooted.bags[t])
        B = mats[t]
        C = None
        if face_mats is not None:
            C = face_mats.get(t)
            if C is not None and C.size == 0:
                C = None
        if C is not None:
            if C.shape[0] != len(idx):
                raise ValueError("face matrix of bag %d has %d rows, bag has %d"
                                 % (t, C.shape[0], len(idx)))
            P = np.eye(len(idx)) - C @ np.linalg.pinv(C)
            B = _sym(P @ B @ P)
        w = np.linalg.eigvalsh(B)
        if w.size and w[0] < -psd_tol * scale:
            raise RecoveryError("bag %d submatrix has eigenvalue %.3e"
                                % (t, w[0]), eigenvalue=float(w[0]))
        G = _psd_factor(B, rel_cut=rank_tol)
        rt = G.shape[1]
        sep = [a for a, v in enumerate(idx) if v in placed]
        new = [a for a, v in enumerate(idx) if v not in placed]
        if not new:
            continue
        if R.shape[1] < rt:
            R = np.hstack([R, np.zeros((n, rt - R.shape[1]))])
        dim = R.shape[1]
        if not sep:
            rows = np.zeros((len(idx), dim))
            rows[:, :rt] = G
        else:
            Gs, Gn = G[sep], G[new]
            Rs = R[[idx[a] - 1 for a in sep]]
            # orthogonal map sending the bag's own frame onto the global one:
            # both factor the same separator Gram, so pairing the singular
            # directions of the cross matrix aligns them exactly
            Uc, s, Vt = np.linalg.svd(Gs.T @ Rs, full_matrices=False)
            keep = s > 1e-13 * s[0] if s.size and s[0] > 0 else np.zeros(s.shape, bool)
            U1 = Uc[:, keep]
            V1 = Vt[keep].T
            rho = U1.shape[1]
            U1c = _orth_complement(U1, rt, rt - rho)
            Z = _orth_complement(V1, dim, rt - rho)
            Q = U1 @ V1.T + U1c @ Z.T
            rows = np.empty((len(idx), dim))
            rows[sep] = Rs
            rows[new] = Gn @ Q
            if C is not None:
                # already-placed rows are fixed, so push the face residual
                # onto the new rows (minimum-norm exact fix)
                d = C.T @ rows
                if np.abs(d).max() > 0.0:
                    fix, *_ = np.linalg.lstsq(C[new].T, -d, rcond=None)
                    rows[new] += fix
        for a in new:
            R[idx[a] - 1] = rows[a]
        placed.update(idx)
    if len(placed) != n:
        raise ValueError("bags cover only %d of %d indices" % (len(placed), n))
    err = 0.0
    for t, B in mats.items():
        rows = R[[v - 1 for v in sorted(rooted.bags[t])]]
        err = max(err, float(np.abs(rows @ rows.T - B).max(initial=0.0)))
    if err > max(10.0 * psd_tol, 1e3 * rank_tol) * scale:
        raise RecoveryError("completion reproduces known entries only to %.3e"
                            % err, reproduction_error=err)
    live = np.linalg.norm(R, axis=0) > 0.0
    return FactoredSolution(R[:, live])


def _svec(M):
    """Symmetric vectorization: <A, B> = svec(A) @ svec(B)."""
    d = M.shape[0]
    iu = np.triu_indices(d)
    scale = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return M[iu] * scale


def _unsvec(v, d):
    iu = np.triu_indices(d)
    M = np.zeros((d, d))
    M[iu] = v * np.where(iu[0] == iu[1], 1.0, 1.0 / np.sqrt(2.0))
    return M + np.triu(M, 1).T


def rank_reduce_affine(slc, feas_tol=1e-6, sv_tol=1e-10, max_steps=None):
    """Walk the feasible point of an affine PSD slice down in rank.

    Each step finds a symmetric direction Delta with
    <R.T @ B_j @ R, Delta> = 0 for all j (smallest singular direction of the
    factored tangent system), then moves Y -> R (I + alpha Delta) R.T with
    alpha = -1/lambda chosen so the boundary of the cone is hit.  Constraint
    values are invariant along these moves.  Stops when the tangent system
    has no null direction, which forces r(r+1)/2 <= len(mats).
    """
    from .sdp_model import FactoredSolution

    Y = _sym(np.asarray(slc.point, dtype=float))
    worst = max((abs(float(np.sum(_sym(B) * Y)) - c)
                 for B, c in zip(slc.mats, slc.rhs)), default=0.0)
    if worst > feas_tol:
        raise ValueError("slice point infeasible by %.3e" % worst)
    R = _psd_factor(Y)
    steps = 0
    while R.shape[1] > 0:
        if max_steps is not None and steps >= max_steps:
            break
        r = R.shape[1]
        dim = r * (r + 1) // 2
        if slc.mats:
            K = np.array([_svec(R.T @ _sym(B) @ R) for B in slc.mats])
            _, s, Vt = np.linalg.svd(K, full_matrices=True)
            tau = sv_tol * max(s[0] if s.size else 0.0, 1.0)
            if int(np.sum(s > tau)) >= dim:
                break
            delta = _unsvec(Vt[-1], r)
        else:
            delta = np.eye(r) / np.sqrt(r)
        lam, P = np.linalg.eigh(delta)
        istar = int(np.argmax(np.abs(lam)))
        alpha = -1.0 / lam[istar]
        dnew = 1.0 + alpha * lam
        keep = dnew > 1e-12
        W = P[:, keep] * np.sqrt(dnew[keep])
        if W.shape[1] >= r:
            break  # no progress; numerical stalemate
        R = R @ W
        steps += 1
    return FactoredSolution(R)


def reduce_block(Z, v_part, ell, input_tol=1e-6):
    """Lower the rank of a two-child block while keeping its data entries.

    Z is ordered [bag | child-1 aux | child-2 aux | own aux], aux blocks of
    size ell, and satisfies u.T @ Z @ u = 0 for u = [v_part; I; I; -I].  The
    bag block, the aux-to-bag strip and the three aux diagonal blocks stay
    fixed; only the three aux-aux cross blocks move.  The result is PSD with
    the same accumulator identity and rank <= rank(bag block) + bp_bound(ell).

    The construction: take the generalized Schur complement of the bag
    block, split its factor into the three aux row groups, orthogonalize
    each, reduce the resulting 2*ell-dimensional slice (both diagonal blocks
    = identity, coupled product fixed), and rebuild.
    """
    Z = _sym(np.asarray(Z, dtype=float))
    d = Z.shape[0]
    if ell == 0:
        return Z.copy()
    p = d - 3 * ell
    if p < 0:
        raise ValueError("block of size %d cannot hold three aux groups of %d" % (d, ell))
    if v_part.shape != (p, ell):
        raise ValueError("v_part shape %s, expected (%d, %d)" % (v_part.shape, p, ell))
    E = np.vstack([np.eye(ell), np.eye(ell), -np.eye(ell)])
    U = np.vstack([v_part, E])
    scale = max(1.0, float(np.abs(Z).max()))
    resid = float(np.abs(U.T @ Z @ U).max())
    if resid > input_tol * scale:
        raise RecoveryError("block violates its accumulator identity by %.3e"
                            % resid, face_residual=resid)

    B = Z[:p, :p]
    C = Z[p:, :p]
    Mblk = Z[p:, p:]
    if p:
        Bp = np.linalg.pinv(B, rcond=PINV_RCOND)
        CBp = C @ Bp
        Mp = _sym(Mblk - CBp @ C.T)
    else:
        CBp = np.zeros((3 * ell, 0))
        Mp = Mblk.copy()

    R = _psd_factor(Mp)
    if R.shape[1] <= bp_bound(ell):
        return Z.copy()

    R1, R2, R3 = R[:ell], R[ell:2 * ell], R[2 * ell:]
    q1, l1 = np.linalg.qr(R1.T)
    q2, l2 = np.linalg.qr(R2.T)
    q3, l3 = np.linalg.qr(R3.T)
    Q1, R1_ = q1.T, l1.T
    Q2, R2_ = q2.T, l2.T
    R3_ = l3.T
    G = np.hstack([R1_, R2_])  # ell x 2ell
    target = R3_ @ R3_.T

    mats = []
    rhs = []
    for blk, off in ((0, 0), (1, ell)):
        for a in range(ell):
            for b in range(a, ell):
                Bmat = np.zeros((2 * ell, 2 * ell))
                Bmat[off + a, off + b] = 1.0
                Bmat[off + b, off + a] = 1.0
                mats.append(Bmat)
                rhs.append(1.0 if a == b else 0.0)
    for a in range(ell):
        for b in range(a, ell):
            Bmat = _sym(np.outer(G[a], G[b]))
            mats.append(Bmat)
            rhs.append(target[a, b])
    Y0 = np.vstack([Q1, Q2]) @ np.vstack([Q1, Q2]).T
    init_resid = max(abs(float(np.sum(B_ * Y0)) - c) for B_, c in zip(mats, rhs))
    W = rank_reduce_affine(AffineSlice(mats, rhs, Y0),
                           feas_tol=max(1e-8, 10.0 * init_resid)).factor
    Q1n, Q2n = W[:ell], W[ell:]
    P = R1_ @ Q1n + R2_ @ Q2n
    Q3n = np.linalg.pinv(R3_, rcond=PINV_RCOND) @ P
    F = np.vstack([R1_ @ Q1n, R2_ @ Q2n, R3_ @ Q3n])
    Mpp = F @ F.T

    out = np.zeros_like(Z)
    out[:p, :p] = B
    out[p:, :p] = C
    out[:p, p:] = C.T
    out[p:, p:] = (CBp @ C.T if p else 0.0) + Mpp
    return _sym(out)


def _block_rank(M, tol=RANK_TOL):
    w = np.linalg.eigvalsh(_sym(np.asarray(M, dtype=float)))
    top = max(w[-1], 0.0) if w.size else 0.0
    if top == 0.0:
        return 0
    return int(np.sum(w > tol * top))


def recover_low_rank(block_solution, ext, bs, mode="tree", overlap_tol=1e-6,
                     psd_tol=1e-6, rank_tol=RANK_TOL):
    """Turn a solved block problem into a low-rank factored solution.

    block_solution maps tree node -> PSD block matrix (indexed by
    bs.blocks[t]).  In "tree" mode every two-child block is first reduced by
    reduce_block; in "path" mode (only valid when no node has two children)
    blocks are already narrow enough and are used as-is.  The blocks are then
    made to agree on their overlaps (chordal_conversion.assemble), completed
    at minimum rank along the extended clique tree, and restricted to the
    original rows.  Solver output too inexact for any of these steps raises
    RecoveryError.

    Returns (solution, info) where solution is a FactoredSolution on the
    original index range and info reports block ranks and the certified
    bound: width + ell + 1 on paths, width + bp_bound(ell) + 1 on trees,
    width taken from the decomposition that produced the blocks.
    """
    from .chordal_conversion import assemble
    from .graph_core import TreeDecomposition
    from .sdp_model import FactoredSolution

    pat = ext.pattern
    td = pat.td
    blocks = {t: _sym(np.asarray(block_solution[t], dtype=float))
              for t in bs.blocks}
    two_child = [t for t in bs.blocks if len(td.children(t)) == 2]
    if mode == "path":
        if two_child:
            raise ValueError("path mode needs a path decomposition; nodes %s have"
                             " two children" % sorted(two_child))
    elif mode != "tree":
        raise ValueError("mode must be 'path' or 'tree'")

    reduced = []
    if mode == "tree" and pat.ell:
        for t in sorted(two_child):
            idx = bs.blocks[t]
            pos = {v: i for i, v in enumerate(idx)}
            j1, j2 = sorted(td.children(t))
            order = (sorted(td.bags[t]) + list(pat.u[j1]) + list(pat.u[j2])
                     + list(pat.u[t]))
            perm = [pos[v] for v in order]
            A = ext.a_mats[t]
            vp = A[[pos[v] for v in sorted(td.bags[t])], :]
            Zr = reduce_block(blocks[t][np.ix_(perm, perm)], vp, pat.ell)
            back = np.empty_like(Zr)
            back[np.ix_(perm, perm)] = Zr
            blocks[t] = back
            reduced.append(t)

    bags = assemble(blocks, bs, tol=overlap_tol)
    ctd = TreeDecomposition(nodes=td.nodes, edges=td.edges,
                            bags={t: frozenset(bs.blocks[t]) for t in bs.blocks},
                            root=td.root)
    # accumulator identities must survive completion exactly, otherwise
    # solver noise leaks through the glue and breaks the lifted values
    faces = {t: np.asarray(bs.null_mats[t], dtype=float)
             for t in bs.blocks} if pat.ell else None
    full = psd_complete_min_rank(bags, ctd, psd_tol=psd_tol, rank_tol=rank_tol,
                                 face_mats=faces)
    restricted = FactoredSolution(full.factor[:pat.n, :].copy())

    wid = max(len(b) for b in td.bags.values()) - 1
    if mode == "path":
        cert = wid + pat.ell + 1
    else:
        cert = wid + bp_bound(pat.ell) + 1
    info = {
        "mode": mode,
        "block_ranks": {t: _block_rank(blocks[t], rank_tol) for t in blocks},
        "reduced_blocks": reduced,
        "completed_rank": full.rank,
        "rank": restricted.numerical_rank(),
        "certified_bound": cert,
    }
    return restricted, info
