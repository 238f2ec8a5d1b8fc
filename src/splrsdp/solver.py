"""ADMM solver for the block problem.

The block solver first merges each tree node into its parent's group
while that group holds fewer than GROUP_SIZE nodes, solves on the merged
blocks, and slices every fine block back out of its group's block.  It
works on a consensus vector x over the union of block entry positions
(off-diagonal entries scaled by sqrt(2) so inner products are dot
products).  Block iterates are full matrices stored in slabs: taken in order
of face dimension, a block joins a slab while padding the slab's blocks to
its largest shape adds at most SLAB_PAD^3 to their eigh work, and every
block of a slab is stored D x D, D the slab's largest size.  With the data
row values they form one vector v = K x at consensus, K = [G; A] stacking
the gather matrix G and the data rows A.  Each evaluation of the ADMM map
projects each slab onto its null-constrained PSD faces with one batched
eigh, clips row values into their interval bounds, and solves a
prefactored least-squares system for the consensus; safeguarded Anderson
acceleration of that map picks the steps.
"""

import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chordal_conversion import _columns
from .completion_rank import _block_ranks, _face_bases
from .sdp_model import _number, _sym

__all__ = [
    "AdmmParams",
    "SolveStats",
    "admm_solve",
]

AA_MEMORY = 25  # Anderson acceleration memory of admm_solve
GROUP_SIZE = 4  # fine tree nodes per merged block of admm_solve
SLAB_PAD = 12  # cube root of the eigh work padding may add to one slab

log = logging.getLogger("splrsdp")
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


@dataclass
class AdmmParams:
    """Knobs of the ADMM loop, and the one check of them for library
    calls, params files and CLI flags: each must be a number by
    sdp_model._number, max_iter >= 1 and seed >= 0 integral, rho and the
    tolerances positive and finite.  Each is cast to its field's type; a
    refused value raises ValueError naming the field."""

    rho: float = 1.0
    max_iter: int = 5000
    tol_primal: float = 1e-6
    tol_dual: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            name = "solver parameter " + f.name
            cast = _number(value, kind, name)
            if kind is float and not (math.isfinite(cast) and cast > 0):
                why = "must be positive and finite"
            elif f.name == "max_iter" and cast < 1:
                why = "must be at least 1"
            elif f.name == "seed" and cast < 0:
                why = "must be non-negative"
            else:
                setattr(self, f.name, cast)
                continue
            raise ValueError("%s %s, got %r" % (name, why, value))


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


def _face_project(M, Q, QT):
    """Q clip(Q^T M Q) Q^T for stacks of symmetric M (..., d, d) and face
    bases Q (..., d, f): one batched eigh.  QT is Q^T (the block solver
    passes a contiguous copy it keeps).  The result is symmetrised, as
    (W w) W^T is not bitwise symmetric."""
    w, V = np.linalg.eigh(QT @ M @ Q)
    W = Q @ V
    P = (W * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(W, -1, -2)
    return _sym(P)


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


def _merge_groups(bs):
    """The solver's layout of bs on connected groups of its tree.

    Parents first (in descending label), a node joins its parent's group
    while that group has fewer than GROUP_SIZE nodes and otherwise starts
    its own; a group is labelled by its top node.  Its block is the sorted
    union of its members' index sets, and its null vectors are the
    members' null_mats embedded in its rows and stacked side by side (for
    PSD Y, a^T Y a = 0 on the group block is a_t^T Y_t a_t = 0 on the
    member's principal submatrix).  The fine blocks are principal
    submatrices of the group blocks, so solving on the groups has the fine
    problem's feasible values and objective.  Returns (blocks, null_mats,
    place), the first two keyed by group and place[t] = (group, rows of
    bs.blocks[t] in the group block).
    """
    top = {t: t for t in bs.blocks}
    members = {t: [t] for t in bs.blocks}
    for t in sorted(bs.parent, reverse=True):
        g = top[bs.parent[t]]
        if len(members[g]) < GROUP_SIZE:
            top[t] = g
            members[g] += members.pop(t)
    blocks, null_mats, place = {}, {}, {}
    for g, group in sorted(members.items()):
        group.sort()
        block = np.unique(np.concatenate([bs.blocks[t] for t in group]))
        mats = [np.asarray(bs.null_mats[t], dtype=float) for t in group]
        null = np.zeros((block.size, sum(a.shape[1] for a in mats)))
        h = 0
        for t, a in zip(group, mats):
            rows = np.searchsorted(block, bs.blocks[t])
            null[rows, h:h + a.shape[1]] = a
            h += a.shape[1]
            place[t] = (g, rows)
        blocks[g], null_mats[g] = block, null
    return blocks, null_mats, place


def _pack_slabs(bases):
    """The slabs of face bases (d x f each) that admm_solve projects with
    one batched eigh each: a list of (members, Q, QT), members indexing
    bases, Q the members' bases padded to the slab's largest (d, f) with
    zero rows and columns, and QT its contiguous transpose.

    In the order (f, d, index), a basis joins the last slab while padding
    all its members to the slab's largest f adds at most SLAB_PAD^3 to
    their sum of f^3, the eigh work, and otherwise starts a slab (sorted
    by f, the one joining has the largest f).
    """
    groups, work = [], 0
    for k in sorted(range(len(bases)),
                    key=lambda k: bases[k].shape[::-1] + (k,)):
        f3 = bases[k].shape[1] ** 3
        if groups and (len(groups[-1]) + 1) * f3 - work - f3 <= SLAB_PAD ** 3:
            groups[-1].append(k)
            work += f3
        else:
            groups.append([k])
            work = f3
    slabs = []
    for members in groups:
        Q = np.zeros((len(members),)
                     + tuple(np.max([bases[k].shape for k in members], 0)))
        for Qk, k in zip(Q, members):
            d, f = bases[k].shape
            Qk[:d, :f] = bases[k]
        slabs.append((members, Q, np.ascontiguousarray(np.swapaxes(Q, 1, 2))))
    return slabs


def admm_solve(bs, params=None):
    """Solve the coupled block problem; returns ({t: Y_t}, SolveStats).

    The ADMM runs on the merged blocks of _merge_groups, and every fine
    block Y_t, t in bs.blocks, is sliced out of its group's block, so fine
    blocks of one group agree bitwise on their shared pairs; block_ranks
    count the fine blocks.  Below, "blocks" are the merged ones.  The
    blocks are packed into slabs by _pack_slabs, and each slab is one
    contiguous run of full D x D matrices in the stacked block vector y,
    D the slab's largest block size: a block of size d sits in the top
    left d x d corner, and its face basis gets zero rows for the padded
    indices and zero columns for the padded face dimensions.  G has no
    entries at padded positions, so v, zeta and u stay exactly 0 there,
    and K, K^T K and every residual are those of the unpadded layout.  One
    batched eigh per slab replaces one per (size, face dimension) pair,
    as each eigh call has a fixed cost besides the ~10 numpy calls around
    it in _face_project; SLAB_PAD bounds what padding adds on trees of
    mixed block sizes.  The sparse gather matrix G copies the consensus x
    into both triangles of every block holding a pair (weight 1/sqrt(2)
    off the diagonal), so ||G x - y|| is the svec distance, G^T y is the
    svec sum and G^T G the diagonal of pair multiplicities.  The data rows
    A are bs.rows with each fine column moved to the consensus coordinate
    of its index pair, which makes one splitting K x = v, K = [G; A],
    v = [y; z] and scaled dual u = [lam; w]; c is the objective row.  The
    rows enter K unweighted.  GROUP_SIZE, AA_MEMORY and SLAB_PAD are the
    settings the README's sweeps chose.

    The ADMM runs as Douglas-Rachford on zeta = K x + u: with P the
    projection of every slab onto its PSD face and of z into its interval
    bounds, and X(w) the x minimising c.x + rho/2 ||K x - w||^2, one step
    is T(zeta) = zeta - P(zeta) + K X(2 P(zeta) - zeta).  Each evaluation
    of T yields v = P(zeta), u = zeta - v (exactly complementary to v) and
    x; the primal residual is ||K x - v|| over max(1, ||K x||, ||v||) and
    the dual residual ||c + rho K^T u|| over max(1, ||rho K^T u||).  Type-II
    Anderson acceleration with memory AA_MEMORY proposes a candidate from
    the last steps, its weights from the regularised normal equations of
    _anderson_weights (one LU solve, where an SVD least squares would cost
    most of what the longer memory saves); the safeguard takes it only if
    its fixed-point residual ||T(c) - c|| is no larger than the plain
    step's ||T(zeta) - zeta||, and otherwise takes the plain step T(zeta).
    One iteration is one step taken, so it costs one evaluation of T, or
    two when the candidate is rejected; max_iter caps these steps and
    per-iteration timings divide by them.  rho stays params.rho, so T is
    one fixed map and the Anderson memory is never reset.  On the "splrsdp"
    logger at debug level, one line before the loop gives the layout (fine
    nodes, groups, range of block sizes, slabs, and the share of eigh work
    the padding adds) and one line every 25 iterations gives the progress
    (iteration, residuals, rho, candidates taken/refused, memory filled).
    The loop ends at the tolerances or at max_iter and has no divergence
    exit: the primal residual is at most 2 (triangle inequality) and the
    dual residual at most ||c|| + 1, so neither can grow without bound.
    stats.objective is the objective row on the returned fine blocks, which
    lie off consensus by the primal residual.
    """
    params = params or AdmmParams()
    blocks, null_mats, place = _merge_groups(bs)
    ids = sorted(blocks)
    basis = dict(zip(ids, _face_bases([null_mats[t] for t in ids],
                                      [len(blocks[t]) for t in ids])))
    # each slab is a run of full D x D matrices, D its largest block size
    offset, dmax, slabs, ny = {}, {}, [], 0
    for members, Q, QT in _pack_slabs([basis[t] for t in ids]):
        start, D = ny, Q.shape[1]
        for k in members:
            offset[ids[k]], dmax[ids[k]], ny = ny, D, ny + D * D
        slabs.append((slice(start, ny), D, Q, QT))

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
    d, base = np.array([(dmax[t], offset[t]) for t in ids])[k].T
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
    K = sp.vstack([G, rows[1:]]).tocsr()
    # stored transpose: building a .T view costs more than the product
    KT = K.T.tocsr()
    solve = spla.factorized((KT @ K).tocsc())
    # bounds of the data rows; block copies have none
    lo, hi = np.ascontiguousarray(bs.bounds.T)

    def evaluate(zeta):
        """T at zeta: v = P(zeta), K^T u for u = zeta - v, K x, f = T(zeta) -
        zeta and ||f||."""
        v = np.empty_like(zeta)
        np.clip(zeta[ny:], lo, hi, out=v[ny:])
        for s, D, Q, QT in slabs:
            v[s] = _face_project(zeta[s].reshape(-1, D, D), Q, QT).ravel()
        KTu = KT @ (zeta - v)
        Kx = K @ solve(KT @ v - KTu - c / rho)
        f = Kx - v
        return v, KTu, Kx, f, math.sqrt(f @ f)

    rho = params.rho
    # identity times a seed-dependent scale, so reruns with other seeds probe
    # different basins while staying reproducible
    scale0 = float(2.0 ** np.random.default_rng(params.seed).uniform(-1.0, 1.0))
    zeta = np.zeros(K.shape[0])
    zeta[ny:] = np.clip(0.0, lo, hi)
    zeta[at[diag]] = scale0
    ev = evaluate(zeta)

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
    if debug:
        sizes = [len(blocks[t]) for t in ids]
        work = sum(basis[t].shape[1] ** 3 for t in ids)
        padded = sum(len(Q) * Q.shape[2] ** 3 for _, _, Q, _ in slabs)
        log.debug("admm layout: %d nodes in %d groups, blocks %d-%d, %d slab%s,"
                  " padding %.0f%%", len(place), len(ids), min(sizes),
                  max(sizes), len(slabs), "s" if len(slabs) > 1 else "",
                  100.0 * (padded - work) / max(work, 1))
    for it in range(1, params.max_iter + 1):
        v, KTu, Kx, f, fn = ev
        # each norm as np.linalg.norm takes it for a vector
        pri = fn / max(1.0, math.sqrt(Kx @ Kx), math.sqrt(v @ v))
        cu = c + rho * KTu
        dua = math.sqrt(cu @ cu) / max(1.0, rho * math.sqrt(KTu @ KTu))
        history.append((pri, dua))
        if pri <= params.tol_primal and dua <= params.tol_dual:
            converged = True
            break
        if it == params.max_iter:
            break
        if it % 25 == 0 and debug:
            log.debug("admm it %d pri %.3e dua %.3e rho %.3g aa %d/%d "
                      "memory %d/%d", it, pri, dua, rho, accepted, rejected,
                      filled, AA_MEMORY)

        new = None
        if filled:
            gamma = _anderson_weights(gram[:filled, :filled],
                                      dF[:filled] @ f)
            cand = zeta + f - gamma @ dG[:filled]
            ev_c = evaluate(cand)
            if ev_c[-1] <= fn:
                new, ev_new = cand, ev_c
                accepted += 1
            else:
                rejected += 1
        if new is None:
            new = zeta + f
            ev_new = evaluate(new)
        df = ev_new[-2] - f
        dF[slot] = df
        dG[slot] = new - zeta + df
        filled = min(filled + 1, AA_MEMORY)
        gram[slot, :filled] = gram[:filled, slot] = dF[:filled] @ df
        slot = (slot + 1) % AA_MEMORY
        zeta, ev = new, ev_new

    blocks = {t: v[offset[g] + dmax[g] * r[:, None] + r]
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

