from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

from splrsdp import completion_rank
from splrsdp.chordal_conversion import (BlockSdp, RecoveryError, assemble,
                                        convert_problem)
from splrsdp.completion_rank import (AffineSlice, _block_rank, _face_bases,
                                     bp_bound, max_rank_for_constraints,
                                     psd_complete_min_rank, rank_reduce_affine,
                                     recover_low_rank, reduce_block)
from splrsdp.graph_core import Graph, TreeDecomposition, chordal_complete, clique_tree
from splrsdp.instances import gen_phi_witness
from splrsdp.sdp_model import (PINV_RCOND, RANK_TOL, FactoredSolution,
                               eval_objective)
from splrsdp.sparse_extension import canonical_relabel, extend_solution

from conftest import (copy_down, eval_constraint, random_graph,
                      random_splr_problem, random_valid_td)


def test_rank_bounds_table():
    assert [max_rank_for_constraints(q) for q in (0, 1, 2, 3, 6, 10, 15)] == \
        [0, 1, 1, 2, 3, 4, 5]
    # r(r+1)/2 <= q tight on both sides
    for q in range(0, 60):
        r = max_rank_for_constraints(q)
        assert r * (r + 1) // 2 <= q < (r + 1) * (r + 2) // 2
    assert [bp_bound(l) for l in (0, 1, 2, 3, 4)] == [0, 2, 3, 5, 7]
    for l in range(1, 12):
        assert l + 1 <= bp_bound(l) <= 2 * l
        assert bp_bound(l) == max_rank_for_constraints(3 * l * (l + 1) // 2)


def _erase_to_clique_tree(X, ct):
    """The submatrices of X on the bags of ct."""
    bags = {}
    for t in ct.nodes:
        idx = [v - 1 for v in sorted(ct.bags[t])]
        bags[t] = X[np.ix_(idx, idx)]
    return bags


def test_psd_complete_erased_low_rank():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(5, 30))
        g = random_graph(rng, n, 0.2)
        fg, _ = chordal_complete(g)
        ct = replace(clique_tree(fg), root=1)
        r = int(rng.integers(1, 5))
        F = rng.standard_normal((n, r))
        X = F @ F.T
        bags = _erase_to_clique_tree(X, ct)
        sol = psd_complete_min_rank(bags, ct)
        Xc = sol.factor @ sol.factor.T
        err = 0.0
        for t in ct.nodes:
            idx = [v - 1 for v in sorted(ct.bags[t])]
            err = max(err, np.abs(Xc[np.ix_(idx, idx)] - bags[t]).max())
        assert err < 1e-9
        assert np.linalg.eigvalsh(Xc)[0] > -1e-9
        maxbag = max(len(b) for b in ct.bags.values())
        assert sol.rank == min(r, maxbag)


def test_psd_complete_missing_entry_raises():
    td = TreeDecomposition(nodes=(1, 2), edges=frozenset({(1, 2)}),
                           bags={1: frozenset({1, 2}), 2: frozenset({2, 3})},
                           root=1)
    # bag 2 needs the unknown entry (2, 3), so only bag 1 is known
    bags = {1: np.array([[1.0, 0.5], [0.5, 1.0]])}
    with pytest.raises(ValueError):
        psd_complete_min_rank(bags, td)


def test_psd_complete_indefinite_bag_raises():
    td = TreeDecomposition(nodes=(1,), edges=frozenset(),
                           bags={1: frozenset({1, 2})}, root=1)
    bags = {1: np.array([[1.0, 2.0], [2.0, 1.0]])}
    with pytest.raises(RecoveryError) as err:
        psd_complete_min_rank(bags, td)
    assert abs(err.value.eigenvalue + 1.0) < 1e-12


def test_psd_complete_rejects_misfit_face_matrix():
    td = TreeDecomposition(nodes=(1,), edges=frozenset(),
                           bags={1: frozenset({1, 2})}, root=1)
    with pytest.raises(ValueError, match="face matrix of bag 1"):
        psd_complete_min_rank({1: np.eye(2)}, td,
                              face_mats={1: np.ones((3, 1))})


def test_psd_complete_names_the_indefinite_bag_nearest_the_root():
    # path 3 - 2 - 1 rooted at 3; bags 2 and 1 share a size (one batch), and
    # the deeper bag 1 is the more indefinite one
    td = TreeDecomposition(nodes=(1, 2, 3), edges=frozenset({(1, 2), (2, 3)}),
                           bags={1: frozenset({1, 2}), 2: frozenset({2, 3}),
                                 3: frozenset({3, 4})}, root=3)
    bags = {3: np.eye(2),
            2: np.array([[1.0, 2.0], [2.0, 1.0]]),
            1: np.array([[1.0, 4.0], [4.0, 1.0]])}
    with pytest.raises(RecoveryError, match="bag 2 ") as err:
        psd_complete_min_rank(bags, td)
    assert abs(err.value.eigenvalue + 1.0) < 1e-12


def test_psd_complete_on_faces_keeps_accumulator_identities():
    rng = np.random.default_rng(41)
    exact = 0
    for _ in range(8):
        g, td = random_valid_td(rng, int(rng.integers(3, 9)))
        ell = int(rng.integers(1, 3))
        p = random_splr_problem(rng, g.n, ell, graph=g)
        ext, bs, _ = convert_problem(p, td=td)
        F = rng.standard_normal((g.n, 3))
        noisy = {}
        for t, B in _lifted_blocks(ext, bs, F).items():
            E = 1e-9 * rng.standard_normal(B.shape)
            noisy[t] = B + E + E.T
        bags = assemble(noisy, bs)
        etd = ext.pattern.td
        ctd = TreeDecomposition(nodes=etd.nodes, edges=etd.edges,
                                bags={t: frozenset(b)
                                      for t, b in bs.blocks.items()},
                                root=etd.root)
        sol = psd_complete_min_rank(bags, ctd, face_mats=bs.null_mats)
        scale = max(np.abs(B).max() for B in bags.values())
        for t, idx in bs.blocks.items():
            C = bs.null_mats[t]
            resid = np.abs(C.T @ sol.factor[[v - 1 for v in idx]]).max()
            par = etd.parent(t)
            new = ~np.isin(idx, bs.blocks[par] if par is not None else ())
            if np.linalg.matrix_rank(C[new]) == C.shape[1]:
                # the bag's new rows can absorb the face residual: exact
                exact += par is not None
                assert resid <= 1e-12 * scale
            else:
                # rows placed by the parent carry the noise; it must not grow
                assert resid <= 1e-9 * scale
        ranks = []
        for B in bags.values():
            w = np.linalg.eigvalsh(B)
            ranks.append(int(np.sum(w > RANK_TOL * w[-1])))
        assert sol.rank == max(ranks)
    assert exact > 0


def test_rank_rule_edge_cases():
    # one rule counts every rank: eigenvalues above RANK_TOL times the
    # largest, none when that is not positive
    Q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))
    spectrum = np.array([1.0, 2e-8, 5e-9])
    for F, want in ((np.zeros((3, 0)), 0), (np.zeros((3, 2)), 0),
                    (Q * np.sqrt(spectrum), 2)):
        assert FactoredSolution(F).numerical_rank() == want
        assert _block_rank(F @ F.T) == want
    stack = np.stack([np.zeros((3, 3)), -np.eye(3) - 0.5,
                      (Q * spectrum) @ Q.T])
    assert _block_rank(stack).tolist() == [0, 0, 2]
    assert _block_rank(np.zeros((2, 0, 0))).tolist() == [0, 0]


def _branching_lift(rng, ell=0, rank=2):
    """A problem of factor width ell on a random valid decomposition whose
    rooted binary tree has a two-child node, with the exact lift of a
    random point of the given rank (None: full rank n); returns (problem,
    ext, bs, point factor, lifted blocks)."""
    while True:
        g, td = random_valid_td(rng, int(rng.integers(4, 10)))
        p = random_splr_problem(rng, g.n, ell, graph=g)
        ext, bs, _ = convert_problem(p, td=td)
        if any(len(ext.pattern.td.children(t)) == 2 for t in bs.blocks):
            F = rng.standard_normal((g.n, rank or g.n))
            return p, ext, bs, F, _lifted_blocks(ext, bs, F)


def test_ell0_face_path_matches_the_plain_completion():
    rng = np.random.default_rng(43)
    for _ in range(6):
        _, ext, bs, _, blocks = _branching_lift(rng)
        assert all(C.shape == (len(bs.blocks[t]), 0)
                   for t, C in bs.null_mats.items())
        etd = ext.pattern.td
        ctd = TreeDecomposition(nodes=etd.nodes, edges=etd.edges,
                                bags={t: frozenset(b)
                                      for t, b in bs.blocks.items()},
                                root=etd.root)
        bags = assemble(blocks, bs)
        plain = psd_complete_min_rank(bags, ctd).factor
        faced = psd_complete_min_rank(bags, ctd, face_mats=bs.null_mats).factor
        assert plain.shape == faced.shape
        assert plain.tobytes() == faced.tobytes()


def test_recover_low_rank_ell0_branching_tree():
    rng = np.random.default_rng(47)
    for _ in range(6):
        p, ext, bs, F, blocks = _branching_lift(rng)
        sol, info = recover_low_rank(blocks, ext, bs, mode="tree")
        assert info["reduced_blocks"] == []
        assert info["rank"] <= min(2, info["certified_bound"])
        ref = FactoredSolution(F)
        for i in range(p.m + 1):
            v0 = eval_constraint(p, i, ref) if i else eval_objective(p, ref)
            v1 = eval_constraint(p, i, sol) if i else eval_objective(p, sol)
            assert abs(v0 - v1) < 1e-9 * max(1.0, abs(v0))


def test_recover_low_rank_reduces_two_child_blocks_on_random_trees(
        monkeypatch):
    # with ell >= 1 every two-child block goes through reduce_block.  An
    # exact block's Schur complement has rank <= 2 ell, which bp_bound(1) = 2
    # already meets, so only ell = 2 walks: 9 of its blocks here
    walks = []

    def counted(S, R):
        walks.append(ell)
        return walk(S, R)

    walk = completion_rank._rank_walk
    monkeypatch.setattr(completion_rank, "_rank_walk", counted)
    rng = np.random.default_rng(53)
    for ell in (1, 2):
        for _ in range(6):
            p, ext, bs, F, blocks = _branching_lift(rng, ell, None)
            td = ext.pattern.td
            sol, info = recover_low_rank(blocks, ext, bs)
            assert info["reduced_blocks"] == [
                t for t in sorted(td.nodes) if len(td.children(t)) == 2]
            assert info["rank"] <= info["certified_bound"]
            ref = FactoredSolution(F)
            for i in range(p.m + 1):
                v0 = eval_constraint(p, i, ref) if i else eval_objective(p, ref)
                v1 = eval_constraint(p, i, sol) if i else eval_objective(p, sol)
                assert abs(v0 - v1) < 1e-7 * max(1.0, abs(v0))
    assert 2 in walks


def _bag_layout(td, root=1):
    """A BlockSdp holding only what assemble reads: one block per bag of the
    decomposition rooted at `root`, on canonical labels."""
    td = canonical_relabel(replace(td, root=root))
    blocks = {t: tuple(sorted(td.bags[t])) for t in td.nodes}
    bs = BlockSdp(n_ext=max(max(b) for b in td.bags.values()), blocks=blocks,
                  rows=None, bounds=np.zeros((0, 2)), null_mats={},
                  parent={t: td.parent(t) for t in td.nodes[:-1]})
    return td, bs


def _shared_pairs(bs):
    """(t, a, b) for every index pair a <= b that block t shares with its
    parent."""
    out = []
    for t, par in sorted(bs.parent.items()):
        sh = sorted(set(bs.blocks[t]) & set(bs.blocks[par]))
        out += [(t, a, b) for a in sh for b in sh if a <= b]
    return out


@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(2, 12),
       delta=st.floats(1e-3, 10.0), pick=st.integers(0, 2 ** 16))
def test_assemble_measures_a_perturbed_shared_entry(seed, p, delta, pick):
    rng = np.random.default_rng(seed)
    td, bs = _bag_layout(random_valid_td(rng, p)[1])
    F = rng.standard_normal((bs.n_ext, int(rng.integers(1, bs.n_ext + 1))))
    X = F @ F.T
    bags = {t: X[np.ix_([v - 1 for v in idx], [v - 1 for v in idx])]
            for t, idx in bs.blocks.items()}
    # unperturbed, the completion reproduces every bag
    R = psd_complete_min_rank(assemble(bags, bs), td).factor
    Xc = R @ R.T
    for t, B in bags.items():
        idx = [v - 1 for v in bs.blocks[t]]
        assert np.abs(Xc[np.ix_(idx, idx)] - B).max() <= 1e-9 * max(
            1.0, np.abs(X).max())
    shared = _shared_pairs(bs)
    assume(shared)
    t, a, b = shared[pick % len(shared)]
    # levels between the perturbed bag and the topmost bag holding (a, b)
    depth, s = 0, td.parent(t)
    while s is not None and {a, b} <= td.bags[s]:
        depth, s = depth + 1, td.parent(s)
    event("levels below its topmost bag: %s" % ("1" if depth == 1 else "2+"))
    i, j = bs.blocks[t].index(a), bs.blocks[t].index(b)
    bad = {u: B.copy() for u, B in bags.items()}
    bad[t][i, j] += delta
    if i != j:
        bad[t][j, i] += delta
    with pytest.raises(RecoveryError) as err:
        assemble(bad, bs, tol=0.5 * delta)
    assert abs(err.value.disagreement - delta) <= 1e-12


def test_face_bases_equal_the_per_matrix_svd_bitwise():
    rng = np.random.default_rng(8)
    shapes = [(5, 1), (5, 2), (5, 1), (7, 3), (5, 0), (7, 3), (4, 1), (5, 2),
              (6, 6)]
    mats = [rng.standard_normal(s) for s in shapes]
    mats.append(rng.standard_normal(3))  # one null vector given flat
    sizes = [d for d, _ in shapes] + [3]
    for A, d, Q in zip(mats, sizes, _face_bases(mats, sizes)):
        if A.size:
            U, s, _ = np.linalg.svd(A.reshape(d, -1), full_matrices=True)
            want = U[:, int(np.sum(s > PINV_RCOND * s[0])):]
        else:
            want = np.eye(d)
        assert Q.shape == want.shape
        assert Q.tobytes() == want.tobytes()


def test_face_bases_warn_for_each_dependent_member():
    a = np.random.default_rng(9).standard_normal((5, 2))
    dep = np.hstack([a[:, :1], -2.0 * a[:, :1]])
    with pytest.warns(UserWarning, match="span of 1 of 2") as caught:
        Q = _face_bases([a, dep, a, dep], [5] * 4)
    assert len(caught) == 2
    assert [B.shape for B in Q] == [(5, 3), (5, 4), (5, 3), (5, 4)]
    assert np.abs(dep.T @ Q[1]).max() < 1e-12


@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 12),
       independent=st.booleans())
def test_assemble_equals_the_parents_first_copy_down(seed, p, independent):
    rng = np.random.default_rng(seed)
    td = random_valid_td(rng, p)[1]
    _, bs = _bag_layout(td, root=int(rng.integers(1, p + 1)))
    if independent:
        # every block its own PSD matrix: shared entries disagree everywhere
        blocks = {}
        for t, idx in bs.blocks.items():
            F = rng.standard_normal((len(idx), 2))
            blocks[t] = F @ F.T
    else:
        F = rng.standard_normal((bs.n_ext, 2))
        X = F @ F.T
        blocks = {t: X[np.ix_(*[[v - 1 for v in idx]] * 2)]
                  for t, idx in bs.blocks.items()}
        shared = _shared_pairs(bs)
        if shared:
            t, a, b = shared[int(rng.integers(len(shared)))]
            i, j = bs.blocks[t].index(a), bs.blocks[t].index(b)
            blocks[t][i, j] += 0.1
    want, worst = copy_down(blocks, bs)
    got = assemble(blocks, bs, tol=np.inf)
    assert got.keys() == want.keys()
    for t in want:
        assert got[t].tobytes() == want[t].tobytes()
    if worst > 0.0:
        with pytest.raises(RecoveryError) as err:
            assemble(blocks, bs, tol=0.0)
        assert err.value.disagreement == worst
    else:
        assemble(blocks, bs, tol=0.0)


def test_rank_reduce_affine_reaches_feasibility_bound():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = int(rng.integers(4, 12))
        q = int(rng.integers(1, 7))
        mats = [0.5 * (M + M.T) for M in rng.standard_normal((q, d, d))]
        R0 = rng.standard_normal((d, d))
        Y0 = R0 @ R0.T
        rhs = [float(np.sum(B * Y0)) for B in mats]
        out = rank_reduce_affine(AffineSlice(mats, rhs, Y0))
        r = out.factor.shape[1]
        assert r <= max_rank_for_constraints(q)
        Y = out.factor @ out.factor.T
        drift = max(abs(float(np.sum(B * Y)) - c) for B, c in zip(mats, rhs))
        assert drift < 1e-7 * max(1.0, np.abs(Y0).max())
        assert np.linalg.eigvalsh(Y)[0] > -1e-8 * max(1.0, np.abs(Y).max())


def test_rank_reduce_affine_edge_cases():
    # no constraints: everything collapses to zero
    Y = np.eye(4) * 2.0
    out = rank_reduce_affine(AffineSlice([], [], Y))
    assert out.factor.shape[1] == 0
    # infeasible start is refused
    B = np.eye(3)
    with pytest.raises(ValueError):
        rank_reduce_affine(AffineSlice([B], [0.0], np.eye(3)))
    # a point that meets its rows but is not PSD is refused: the walk's
    # factor would drop its negative part and leave the slice
    E = np.zeros((3, 3))
    E[0, 1] = E[1, 0] = 1.0
    Y = np.eye(3) + 2.0 * np.diag([1.0, -1.0, 0.0])  # eigenvalue -1
    with pytest.raises(ValueError, match="not PSD: eigenvalue -1.000e"):
        rank_reduce_affine(AffineSlice([E, B], [0.0, 3.0], Y))
    # within 1e-6 of the largest eigenvalue it is taken as rounding
    Y = np.diag([4.0, 1.0, -3e-6])
    out = rank_reduce_affine(AffineSlice([E, B], [0.0, 5.0 - 3e-6], Y))
    assert out.factor.shape[1] <= max_rank_for_constraints(2)
    # a NaN point is refused also when no row gap carries the NaN
    with pytest.raises(ValueError, match="non-finite"):
        rank_reduce_affine(AffineSlice([], [], np.diag([np.nan, 1.0])))
    # the row count and the rhs length must agree
    with pytest.raises(ValueError):
        rank_reduce_affine(AffineSlice([E, B], [0.0], np.eye(3)))


def test_unique_coupled_slice_is_fixed_point():
    # diag blocks pinned to I and the coupled sum pinned leaves exactly one
    # element; the walk must return it unchanged at rank ell + 1
    for ell in (1, 2, 3):
        D = np.diag([1.0] * (ell - 1) + [0.5])
        Y0 = np.block([[np.eye(ell), D], [D, np.eye(ell)]])
        mats, rhs = [], []
        for off in (0, ell):
            for a in range(ell):
                for b in range(a, ell):
                    E = np.zeros((2 * ell, 2 * ell))
                    E[off + a, off + b] = 1.0
                    E[off + b, off + a] = 1.0
                    mats.append(E)
                    rhs.append(1.0 if a == b else 0.0)
        M = np.diag([4.0] * (ell - 1) + [3.0])
        for a in range(ell):
            for b in range(a, ell):
                u = np.zeros(2 * ell)
                v = np.zeros(2 * ell)
                u[a] = u[ell + a] = 1.0
                v[b] = v[ell + b] = 1.0
                mats.append(0.5 * (np.outer(u, v) + np.outer(v, u)))
                rhs.append(M[a, b])
        # the stacked slice the package builds holds these rows, bitwise and
        # in this order
        sl = gen_phi_witness(ell)
        assert np.asarray(sl.mats).tobytes() == np.array(mats).tobytes()
        assert np.asarray(sl.rhs).tobytes() == np.array(rhs).tobytes()
        assert np.array_equal(sl.point, Y0)
        out = rank_reduce_affine(AffineSlice(mats, rhs, Y0))
        assert np.abs(out.factor @ out.factor.T - Y0).max() < 1e-8
        assert out.factor.shape[1] == ell + 1


def _reduction_input(rng, p, ell, r):
    """A rank <= r block in reduce_block's order [bag | child-1 aux |
    child-2 aux | own aux] that meets its accumulator identity, and its
    v_part."""
    vp = rng.standard_normal((p, ell))
    Rv = rng.standard_normal((p, r))
    R1 = rng.standard_normal((ell, r))
    R2 = rng.standard_normal((ell, r))
    R3 = vp.T @ Rv + R1 + R2
    S = np.vstack([Rv, R1, R2, R3])
    return S @ S.T, vp


def test_reduce_block_keeps_data_and_certifies_rank():
    rng = np.random.default_rng(3)

    def shapes():
        for _ in range(30):
            p = int(rng.integers(1, 7))
            ell = int(rng.integers(1, 4))
            yield p, ell, int(rng.integers(p + 2 * ell, p + 3 * ell + 3))
        # an empty bag: the walk gets the whole aux part, of rank 2 ell
        yield 0, 2, 6
        yield 0, 3, 9

    for p, ell, r in shapes():
        Z, vp = _reduction_input(rng, p, ell, r)
        Zr = reduce_block(Z, vp, ell)
        assert np.allclose(Zr[:p, :p], Z[:p, :p], atol=1e-8)
        assert np.allclose(Zr[p:, :p], Z[p:, :p], atol=1e-8)
        for gidx in range(3):
            s = slice(p + gidx * ell, p + (gidx + 1) * ell)
            assert np.abs(Zr[s, s] - Z[s, s]).max() < 1e-7
        U = np.vstack([vp, np.eye(ell), np.eye(ell), -np.eye(ell)])
        assert np.abs(U.T @ Zr @ U).max() < 1e-6 * max(1.0, np.abs(Z).max())
        w = np.linalg.eigvalsh(Zr)
        assert w[0] > -1e-8 * max(1.0, w[-1])
        rB = np.linalg.matrix_rank(Z[:p, :p], tol=1e-8)
        assert int(np.sum(w > 1e-8 * w[-1])) <= rB + bp_bound(ell)


def test_reduce_block_narrow_input_untouched():
    rng = np.random.default_rng(9)
    p, ell = 4, 2
    # residual after removing the bag part has rank 0
    Z, vp = _reduction_input(rng, p, ell, p)
    assert np.abs(reduce_block(Z, vp, ell) - Z).max() < 1e-10
    # with ell = 0 there is nothing to reduce: the symmetric block comes
    # back bitwise
    Z, vp = _reduction_input(rng, 5, 0, 7)
    Z = 0.5 * (Z + Z.T)
    assert reduce_block(Z, vp, 0).tobytes() == Z.tobytes()


def test_reduce_block_rejects_broken_identity():
    rng = np.random.default_rng(1)
    p, ell = 3, 1
    vp = rng.standard_normal((p, ell))
    F = rng.standard_normal((p + 3 * ell, p + 3 * ell))
    with pytest.raises(RecoveryError) as err:
        reduce_block(F @ F.T, vp, ell)
    assert err.value.face_residual > 1e-6


def _lifted_blocks(ext, bs, F):
    lifted = extend_solution(ext, FactoredSolution(F))
    XL = lifted.factor @ lifted.factor.T
    out = {}
    for t in bs.blocks:
        idx = [v - 1 for v in bs.blocks[t]]
        out[t] = XL[np.ix_(idx, idx)]
    return out


def test_recover_low_rank_tree():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(8, 20))
        ell = int(rng.integers(1, 3))
        p = random_splr_problem(rng, n, ell)
        ext, bs, report = convert_problem(p)
        F = rng.standard_normal((n, 3))
        sol, info = recover_low_rank(_lifted_blocks(ext, bs, F), ext, bs)
        assert info["rank"] <= info["certified_bound"]
        assert max(info["block_ranks"].values()) >= info["completed_rank"]
        ref = FactoredSolution(F)
        for i in range(p.m + 1):
            v0 = eval_constraint(p, i, ref) if i else eval_objective(p, ref)
            v1 = eval_constraint(p, i, sol) if i else eval_objective(p, sol)
            assert abs(v0 - v1) < 1e-7 * max(1.0, abs(v0))


def test_recover_low_rank_path():
    rng = np.random.default_rng(29)
    for _ in range(6):
        n = int(rng.integers(8, 16))
        ell = int(rng.integers(1, 3))
        band = Graph.from_edges(n, {(i, i + 1) for i in range(1, n)})
        p = random_splr_problem(rng, n, ell, graph=band)
        ext, bs, report = convert_problem(p)
        F = rng.standard_normal((n, 2))
        sol, info = recover_low_rank(_lifted_blocks(ext, bs, F), ext, bs, mode="path")
        wid = report["width_before"]
        assert info["certified_bound"] == wid + ell + 1
        assert info["rank"] <= info["certified_bound"]
        assert info["reduced_blocks"] == []
        ref = FactoredSolution(F)
        for i in range(p.m + 1):
            v0 = eval_constraint(p, i, ref) if i else eval_objective(p, ref)
            v1 = eval_constraint(p, i, sol) if i else eval_objective(p, sol)
            assert abs(v0 - v1) < 1e-7 * max(1.0, abs(v0))


def test_recover_path_mode_rejects_branching():
    rng = np.random.default_rng(31)
    # star-ish pattern forces a branching clique tree eventually; build one
    # directly instead of hunting for it
    p = random_splr_problem(rng, 12, 1)
    ext, bs, _ = convert_problem(p)
    has_branch = any(len(ext.pattern.td.children(t)) == 2 for t in bs.blocks)
    if not has_branch:
        pytest.skip("random instance came out without a branching node")
    F = rng.standard_normal((12, 2))
    with pytest.raises(ValueError):
        recover_low_rank(_lifted_blocks(ext, bs, F), ext, bs, mode="path")


@pytest.mark.parametrize("branching", [False, True])
def test_recover_mode_that_contradicts_the_tree_shape_raises(branching):
    # the tree's shape alone picks the certificate: a mode passed as a
    # check names both when it disagrees, instead of returning the other
    # shape's bound
    rng = np.random.default_rng(37)
    if branching:
        _, ext, bs, _, blocks = _branching_lift(rng, 1)
    else:
        band = Graph.from_edges(8, {(i, i + 1) for i in range(1, 8)})
        ext, bs, _ = convert_problem(random_splr_problem(rng, 8, 1, graph=band))
        blocks = _lifted_blocks(ext, bs, rng.standard_normal((8, 2)))
    shape, other = ("tree", "path") if branching else ("path", "tree")
    with pytest.raises(ValueError, match="mode '%s' contradicts the"
                       " decomposition's shape '%s'" % (other, shape)):
        recover_low_rank(blocks, ext, bs, mode=other)
    _, info = recover_low_rank(blocks, ext, bs, mode=shape)
    assert info == recover_low_rank(blocks, ext, bs)[1]
    assert info["mode"] == shape
