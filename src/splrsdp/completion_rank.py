"""PSD completion and rank reduction.

Contains:
- minimum-rank PSD completion of bag matrices along a clique tree,
- rank reduction over an affine slice of the PSD cone down to the classic
  feasibility bound r(r+1)/2 <= #constraints,
- the block-level reduction used on two-child blocks of the converted
  problem, and
- end-to-end low-rank recovery for a solved block problem.

Recovery starts from chordal_conversion.assemble, whose RecoveryError
every later check raises too; the cuts come from sdp_model.
"""

import math
import warnings
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .chordal_conversion import RecoveryError, assemble
from .graph_core import _two_child_nodes, width
from .sdp_model import PINV_RCOND, RANK_TOL, FactoredSolution, _rank_mask, _sym
from .sparse_extension import restrict_solution

__all__ = [
    "AffineSlice",
    "bp_bound",
    "max_rank_for_constraints",
    "psd_complete_min_rank",
    "rank_reduce_affine",
    "reduce_block",
    "recover_low_rank",
]

SLICE_TOL = 1e-6  # rank_reduce_affine's slack on a point's rows and cone


@dataclass
class AffineSlice:
    """{Y PSD : <mats[j], Y> = rhs[j]} with a known feasible point; mats a
    (q, d, d) stack (or list of matrices), rhs q values."""

    mats: np.ndarray
    rhs: np.ndarray
    point: np.ndarray


def max_rank_for_constraints(q):
    """Largest r with r(r+1)/2 <= q: a PSD set cut by q affine constraints
    always contains a point of at most this rank."""
    return (math.isqrt(8 * q + 1) - 1) // 2


def bp_bound(ell):
    """Certified rank of the per-block reduction, max_rank_for_constraints
    applied to its 3*ell*(ell+1)/2 constraints."""
    return max_rank_for_constraints(3 * ell * (ell + 1) // 2)


def _psd_factor(M):
    """Factor a nearly-PSD symmetric matrix, dropping the tiny tail."""
    vals, vecs = np.linalg.eigh(_sym(M))
    top = vals[-1] if vals.size else 0.0
    if top <= 0.0:
        return np.zeros((M.shape[0], 0))
    keep = vals > PINV_RCOND * top
    return vecs[:, keep] * np.sqrt(vals[keep])


def _face_bases(null_mats, sizes):
    """Orthonormal bases Q of the complements of the null vectors' spans.

    null_mats[k] holds null vectors of dimension sizes[k] as its columns.
    Matrices of equal shape take one batched SVD.  Without null vectors
    the basis is the identity (the face is the whole cone).  Directions
    below PINV_RCOND times a matrix's largest singular value count as
    dependent and are dropped, with one warning per matrix that has them.
    Returns the bases in input order.
    """
    mats, groups = [], {}
    for A, d in zip(null_mats, sizes):
        A = np.asarray(A, dtype=float)
        A = A.reshape(d, -1) if A.size else np.zeros((d, 0))
        groups.setdefault(A.shape, []).append(len(mats))
        mats.append(A)
    out = [None] * len(mats)
    for (d, q), ks in groups.items():
        if not q:
            for k in ks:
                out[k] = np.eye(d)
            continue
        U, s, _ = np.linalg.svd(np.stack([mats[k] for k in ks]),
                                full_matrices=True)
        for k, Uk, r in zip(ks, U, np.sum(s > PINV_RCOND * s[:, :1], axis=1)):
            if r < q:
                warnings.warn("null vectors are linearly dependent; projecting"
                              " onto the span of %d of %d" % (r, q))
            out[k] = Uk[:, r:]
    return out


def psd_complete_min_rank(bags, td, psd_tol=1e-6, face_mats=None):
    """Complete a PSD matrix known on the bags of a clique tree at minimum rank.

    td is a rooted clique tree, whose orientation sets the placement order.
    bags[t] is the known submatrix on bag t, rows in sorted(bag) order; bags
    must agree on shared entries, as the output of
    chordal_conversion.assemble does.  The completed matrix spans indices
    1..n, n the largest index in any bag.

    face_mats (optional) maps a bag node to a matrix C (rows in sorted bag
    order) whose columns the bag must annihilate; a d x 0 matrix, like no
    entry, leaves the whole cone.  Each bag B is factored on its face: with
    Q from _face_bases, the factor is Q V sqrt(w) over the eigenpairs of
    Q^T B Q that _rank_mask keeps, one batched eigh per group of bags with
    equal (size, face dimension).  This keeps noisy input from leaking into
    directions that downstream identities rely on.

    The factor rows are then placed bag by bag, parents first.  A bag's
    separator rows are already placed, and both factors have the same
    separator Gram, so the polar factor U V^T of the SVD of G_sep^T R_sep
    (orthogonal Procrustes) maps the bag's factor G onto the placed rows,
    and its new rows become G_new U V^T.  With a face, the new rows get a
    minimum-norm correction so that C^T rows = 0 holds exactly in the
    global factor; its operators pinv(C_new^T) are computed before the
    placement, one batched pinv per (face shape, new-row mask) group.  The
    completed rank is the largest rank of these face-projected bags at
    RANK_TOL; on noisy input it can exceed the ranks of the raw blocks.

    Raises ValueError if td is not rooted at one of its nodes or is no
    tree, if a bag or face matrix does not fit its bag or if the bags miss
    an index, and RecoveryError if a bag matrix is clearly not PSD on its
    face (the first such bag parents-first, carrying its most negative
    eigenvalue) or the result fails to reproduce the bags (carrying the
    worst error).  Returns a FactoredSolution of the full matrix.
    """
    seq = list(reversed(td.postorder()))  # parents before children
    sizes = [len(td.bags[t]) for t in seq]
    # every bag's sorted indices, bag after bag
    flat = np.fromiter(chain.from_iterable(sorted(td.bags[t]) for t in seq),
                       dtype=np.int64, count=sum(sizes))
    ends = np.cumsum(sizes, dtype=np.int64).tolist()
    spans = [(e - d, e) for e, d in zip(ends, sizes)]
    idxs = [flat[a:b] for a, b in spans]
    faces = []
    for t, d in zip(seq, sizes):
        if t not in bags or np.shape(bags[t]) != (d, d):
            raise ValueError("bag %d needs a %d x %d matrix" % (t, d, d))
        C = np.zeros((d, 0))
        if face_mats is not None and t in face_mats:
            C = np.asarray(face_mats[t], dtype=float)
        if C.size and C.shape[0] != d:
            raise ValueError("face matrix of bag %d has %d rows, bag has %d"
                             % (t, C.shape[0], d))
        faces.append(C)
    basis = _face_bases(faces, sizes)
    n = int(flat.max(initial=0))
    # a bag places the indices no bag before it holds (its new rows); the
    # placement takes each bag's rows old ones first, then new ones, each
    # in bag order: positions lps[k] in the bag, rows of R bag_rows[k].
    # Old-first keeps each bag's steps on slices ([:o] and [o:]); boolean
    # masks in bag order were bitwise identical and shorter, but made the
    # completion about 20% slower on the lift workload's n = 2000 trees
    covered, first = np.unique(flat, return_index=True)
    fresh = np.zeros(flat.size, dtype=bool)
    fresh[first] = True
    bag_of = np.repeat(np.arange(len(seq)), sizes)
    perm = np.lexsort((fresh, bag_of))
    local = perm - np.repeat([a for a, _ in spans], sizes)
    lps = [local[a:b] for a, b in spans]
    rows0 = flat[perm] - 1
    bag_rows = [rows0[a:b] for a, b in spans]
    n_old = np.bincount(bag_of[~fresh], minlength=len(seq)).tolist()

    shapes = {}
    for k, Q in enumerate(basis):
        shapes.setdefault(Q.shape, []).append(k)
    groups = []
    for ks in shapes.values():
        B = np.stack([np.asarray(bags[seq[k]], dtype=float) for k in ks])
        groups.append((ks, _sym(B)))
    scale = max([np.abs(B).max() for _, B in groups if B.size] + [1.0])
    factors, lowest = [None] * len(seq), np.full(len(seq), np.inf)
    for ks, B in groups:
        Q = np.stack([basis[k] for k in ks])
        w, V = np.linalg.eigh(np.swapaxes(Q, -1, -2) @ B @ Q)
        W = (Q @ V) * np.sqrt(np.maximum(w, 0.0))[:, None, :]
        W = W[np.arange(len(ks))[:, None], np.stack([lps[k] for k in ks])]
        for k, Wk, kk in zip(ks, W, _rank_mask(w)):
            factors[k] = Wk[:, kk]
        lowest[ks] = w.min(axis=1, initial=np.inf)
    bad = np.flatnonzero(lowest < -psd_tol * scale)
    if bad.size:
        k = bad[0]
        raise RecoveryError("bag %d submatrix has eigenvalue %.3e"
                            % (seq[k], lowest[k]), eigenvalue=float(lowest[k]))
    if covered.size != n:
        raise ValueError("bags cover only %d of %d indices"
                         % (covered.size, n))

    # a bag with a face that adds rows to placed ones gets the minimum-norm
    # fix operator pinv(C_new^T) (lstsq's default cut), one batched pinv
    # per (face shape, new-row mask) group
    fixes = {}
    for k, (C, o) in enumerate(zip(faces, n_old)):
        if C.size and 0 < o < sizes[k]:
            a, b = spans[k]
            fixes.setdefault((C.shape, fresh[a:b].tobytes()), []).append(k)
    fix_op = [None] * len(seq)
    for ks in fixes.values():
        new = lps[ks[0]][n_old[ks[0]]:]
        CT = np.swapaxes(np.stack([faces[k] for k in ks])[:, new], 1, 2)
        rcond = np.finfo(float).eps * max(CT.shape[1:])
        for k, P in zip(ks, np.linalg.pinv(CT, rcond)):
            fix_op[k] = P

    R = np.zeros((n, 0))
    for rows, G, C, lp, o, P in zip(bag_rows, factors, faces, lps, n_old,
                                    fix_op):
        if o == rows.size:
            continue
        rt = G.shape[1]
        if R.shape[1] < rt:
            R = np.hstack([R, np.zeros((n, rt - R.shape[1]))])
        if not o:
            R[rows, :rt] = G
            continue
        sep = R[rows[:o]]
        U, _, Vt = np.linalg.svd(G[:o].T @ sep, full_matrices=False)
        add = G[o:] @ U @ Vt
        if P is not None:
            # already-placed rows are fixed, so push the face residual, taken
            # over the bag's rows in bag order, onto the new rows
            # (minimum-norm exact fix)
            full = np.empty((lp.size, add.shape[1]))
            full[lp] = np.vstack([sep, add])
            resid = C.T @ full
            if np.abs(resid).max() > 0.0:
                add -= P @ resid
        R[rows[o:]] = add
    err = 0.0
    for ks, B in groups:
        rows = R[np.stack([idxs[k] for k in ks]) - 1]
        err = max(err, float(np.abs(rows @ np.swapaxes(rows, -1, -2) - B)
                             .max(initial=0.0)))
    if err > max(10.0 * psd_tol, 1e3 * RANK_TOL) * scale:
        raise RecoveryError("completion reproduces known entries only to %.3e"
                            % err, reproduction_error=err)
    live = np.linalg.norm(R, axis=0) > 0.0
    return FactoredSolution(R[:, live])


def rank_reduce_affine(slc):
    """Walk the point of an affine PSD slice down in rank (_rank_walk).

    The point must be finite, meet every row within SLICE_TOL and have no
    eigenvalue below -SLICE_TOL * max(1, largest eigenvalue); a point that
    fails one of these (a NaN row gap counts as off the slice), or an rhs
    whose length is not the row count, raises ValueError.
    """
    Y = _sym(np.asarray(slc.point, dtype=float))
    S = _sym(np.asarray(slc.mats, dtype=float)
             .reshape(len(slc.mats), *Y.shape))
    rhs = np.asarray(slc.rhs, dtype=float).reshape(len(S))
    # np.max keeps a NaN gap, where max() may skip it
    worst = float(np.max(np.abs(np.sum(S * Y, axis=(1, 2)) - rhs),
                         initial=0.0))
    if not worst <= SLICE_TOL:
        raise ValueError("slice point infeasible by %.3e" % worst)
    if not np.isfinite(Y).all():  # without rows no gap carries it
        raise ValueError("slice point has a non-finite entry")
    w = np.linalg.eigvalsh(Y)
    if w.min(initial=0.0) < -SLICE_TOL * w.max(initial=1.0):
        raise ValueError("slice point is not PSD: eigenvalue %.3e" % w[0])
    return FactoredSolution(_rank_walk(S, _psd_factor(Y)))


def _rank_walk(S, R):
    """Walk the PSD point R R^T down in rank, keeping its value on every
    symmetric row of the (q, d, d) stack S; returns the last factor.

    Each step finds a symmetric direction Delta with
    <R.T @ S_j @ R, Delta> = 0 for all j (smallest singular direction of the
    factored tangent system), then moves Y -> R (I + alpha Delta) R.T with
    alpha = -1/lambda chosen so the boundary of the cone is hit.  Row
    values are invariant along these moves.  Stops when the tangent system
    has no null direction (singular values above PINV_RCOND times the
    largest, or 1, span it), which forces r(r+1)/2 <= q.  Without rows the
    SVD's right factor is the identity, so each step drops one column.
    """
    while R.shape[1] > 0:
        r = R.shape[1]
        # the tangent system in symmetric vectorization, where
        # <A, B> = svec(A) @ svec(B): off-diagonal entries carry sqrt(2)
        iu = np.triu_indices(r)
        off = iu[0] != iu[1]
        K = (R.T @ S @ R)[:, iu[0], iu[1]]
        K[:, off] *= np.sqrt(2.0)
        _, s, Vt = np.linalg.svd(K, full_matrices=True)
        if int(np.sum(s > PINV_RCOND * s.max(initial=1.0))) >= off.size:
            break
        delta = np.zeros((r, r))
        delta[iu] = np.where(off, 1.0 / np.sqrt(2.0), 1.0) * Vt[-1]
        delta += np.triu(delta, 1).T
        lam, P = np.linalg.eigh(delta)
        istar = int(np.argmax(np.abs(lam)))
        alpha = -1.0 / lam[istar]
        dnew = 1.0 + alpha * lam
        keep = dnew > 1e-12
        W = P[:, keep] * np.sqrt(dnew[keep])
        if W.shape[1] >= r:
            break  # no progress; numerical stalemate
        R = R @ W
    return R


def _coupled_slice(G, target, point):
    """{Y PSD, 2l x 2l : both diagonal blocks I, sym(G Y G^T) = target}
    for l x 2l G, with the feasible point given, as one stack of rows, each
    group in np.triu_indices(l) order of (a, b): the identity rows of the
    first and then the second diagonal block (two unit entries and rhs 0
    off the diagonal), then the coupling rows sym(G[a] G[b]^T) with rhs
    target[a, b]."""
    ell = G.shape[0]
    a, b = np.triu_indices(ell)
    k, i, j = np.arange(2 * a.size), np.r_[a, a + ell], np.r_[b, b + ell]
    unit = np.zeros((k.size, 2 * ell, 2 * ell))
    unit[k, i, j] = unit[k, j, i] = 1.0
    mats = np.concatenate([unit, _sym(G[a, :, None] * G[b, None, :])])
    return AffineSlice(mats, np.r_[a == b, a == b, target[a, b]], point)


def reduce_block(Z, v_part, ell):
    """Lower the rank of a two-child block while keeping its data entries.

    Z is ordered [bag | child-1 aux | child-2 aux | own aux], aux blocks of
    size ell, and satisfies u.T @ Z @ u = 0 for u = [v_part; I; I; -I].  The
    bag block, the aux-to-bag strip and the three aux diagonal blocks stay
    fixed; only the three aux-aux cross blocks move.  The result is PSD with
    the same accumulator identity and rank <= rank(bag block) + bp_bound(ell).
    An input whose identity is off by more than 1e-6 relative to its largest
    entry raises RecoveryError.

    The construction: take the generalized Schur complement of the bag
    block, split its factor into the three aux row groups, orthogonalize
    each (one batched QR), walk the resulting 2*ell-dimensional slice (both
    diagonal blocks = identity, coupled product fixed) down in rank, and
    rebuild.  With ell = 0 or an empty bag the same steps run on empty
    arrays.
    """
    Z = _sym(np.asarray(Z, dtype=float))
    p = Z.shape[0] - 3 * ell
    if p < 0:
        raise ValueError("block of size %d cannot hold three aux groups of %d"
                         % (Z.shape[0], ell))
    if v_part.shape != (p, ell):
        raise ValueError("v_part shape %s, expected (%d, %d)" % (v_part.shape, p, ell))
    E = np.vstack([np.eye(ell), np.eye(ell), -np.eye(ell)])
    U = np.vstack([v_part, E])
    scale = max(1.0, float(np.abs(Z).max()))
    resid = float(np.abs(U.T @ Z @ U).max(initial=0.0))
    if resid > 1e-6 * scale:
        raise RecoveryError("block violates its accumulator identity by %.3e"
                            % resid, face_residual=resid)

    C = Z[p:, :p]
    CBp = C @ np.linalg.pinv(Z[:p, :p], rcond=PINV_RCOND)
    R = _psd_factor(_sym(Z[p:, p:] - CBp @ C.T))
    if R.shape[1] <= bp_bound(ell):
        return Z.copy()

    # R_k = L_k Q_k with orthonormal rows Q_k, for the aux groups k = 1, 2, 3
    q, l = np.linalg.qr(np.swapaxes(R.reshape(3, ell, -1), 1, 2))
    Q, L = np.swapaxes(q, 1, 2), np.swapaxes(l, 1, 2)
    Q12 = np.vstack([Q[0], Q[1]])
    slc = _coupled_slice(np.hstack([L[0], L[1]]), L[2] @ L[2].T, Q12 @ Q12.T)
    W = _rank_walk(slc.mats, _psd_factor(slc.point))
    F1, F2 = L[0] @ W[:ell], L[1] @ W[ell:]
    F3 = L[2] @ (np.linalg.pinv(L[2], rcond=PINV_RCOND) @ (F1 + F2))
    F = np.vstack([F1, F2, F3])

    out = Z.copy()
    out[p:, p:] = CBp @ C.T + F @ F.T
    return _sym(out)


def _block_rank(M):
    """Numerical rank of each matrix in a (..., d, d) stack: its eigenvalues
    counted by _rank_mask."""
    M = np.asarray(M, dtype=float)
    w = np.linalg.eigvalsh(_sym(M))
    return np.sum(_rank_mask(w), axis=-1)


def _block_ranks(blocks):
    """Node -> rank of its block, one stacked eigvalsh per block size."""
    groups = {}
    for t, B in blocks.items():
        groups.setdefault(np.shape(B), []).append(t)
    ranks = {}
    for members in groups.values():
        r = _block_rank(np.stack([blocks[t] for t in members]))
        ranks.update(zip(members, r.tolist()))
    return {t: ranks[t] for t in blocks}


def recover_low_rank(block_solution, ext, bs, mode=None, overlap_tol=1e-6,
                     psd_tol=1e-6):
    """Turn a solved block problem into a low-rank factored solution.

    block_solution maps tree node -> PSD block matrix (indexed by
    bs.blocks[t]).  The shape of the rooted tree ext.pattern.td sets the
    mode: "tree" when a node has two children, "path" otherwise.  In tree
    mode every two-child block is first reduced by reduce_block, which
    takes it in its stored order (see BlockSdp).  The blocks are then made
    to agree on their overlaps (chordal_conversion.assemble), completed at
    minimum rank along the extended clique tree on the faces of the
    accumulator constraints, and restricted to the original rows.  Solver
    output too inexact for any of these steps raises RecoveryError, and a
    block_solution whose keys are not exactly bs's nodes, or whose blocks
    hold a non-finite entry, ValueError, as does a mode other than None or
    the tree's own.

    Returns (solution, info) where solution is a FactoredSolution on the
    original index range and info reports the mode, block ranks and the
    certified bound: width + ell + 1 on paths, width + bp_bound(ell) + 1 on
    trees, width taken from the decomposition that produced the blocks.
    """
    missing = [t for t in sorted(bs.blocks) if t not in block_solution]
    if missing:
        raise ValueError("block solution has no block %s" % missing[0])
    extra = [t for t in block_solution if t not in bs.blocks]
    if extra:
        raise ValueError("block solution has block %s, which is no tree node"
                         % extra[0])
    pat = ext.pattern
    td = pat.td
    # reduce_block, assemble and _block_ranks each symmetrize
    blocks = {t: np.asarray(block_solution[t], dtype=float) for t in bs.blocks}
    bad = [t for t, B in blocks.items() if not np.isfinite(B).all()]
    if bad:
        raise ValueError("block %s has a non-finite entry" % min(bad))
    two_child = _two_child_nodes(td)
    shape = "tree" if two_child else "path"
    if mode not in (None, shape):
        raise ValueError("mode %r contradicts the decomposition's shape %r"
                         % (mode, shape))

    reduced = two_child if pat.ell else []
    for t in reduced:
        p = len(td.bags[t])
        blocks[t] = reduce_block(blocks[t], ext.a_mats[t][:p], pat.ell)

    bags = assemble(blocks, bs, tol=overlap_tol)
    # the extended bags on the same rooted tree
    ctd = replace(td, bags=bs.blocks)
    # completing on the accumulator faces keeps solver noise out of the
    # accumulator identities: each bag's new rows get an exact fix.  A bag
    # whose new rows miss the face's support (all its accumulator and v_part
    # rows sit in its separator) cannot be fixed and keeps its parent's
    # noise, at 1e-9 input noise measured at 2e-11 to 8e-11 relative to the
    # bag scale.  The face vectors convert adds to bs.null_mats[root] are
    # left out: the solver already projected the root block onto them
    full = psd_complete_min_rank(bags, ctd, psd_tol=psd_tol,
                                 face_mats=ext.a_mats)
    restricted = restrict_solution(full, ext)

    info = {
        "mode": shape,
        "block_ranks": _block_ranks(blocks),
        "reduced_blocks": reduced,
        "completed_rank": full.rank,
        "rank": restricted.numerical_rank(),
        "certified_bound": width(td) + 1 + (bp_bound(pat.ell) if two_child
                                            else pat.ell),
    }
    return restricted, info
