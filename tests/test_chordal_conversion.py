import io
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from splrsdp.chordal_conversion import (RecoveryError, assemble, convert_problem,
                                        export_sdpa)
from splrsdp.graph_core import Graph
from splrsdp.instances import gen_lb_tree
from splrsdp.sdp_model import (Constraint, FactoredSolution, SparseSymMatrix,
                               SplrSdp, eval_objective)
from splrsdp.solver import AdmmParams, admm_solve
from splrsdp.sparse_extension import extend_solution

from conftest import (aux, block_row_values, cycle_bisection, eval_constraint,
                      parse_sdpa, random_splr_problem, random_valid_td,
                      sparse_dense)


def _lift_blocks(ext, bs, F):
    lifted = extend_solution(ext, FactoredSolution(F))
    XL = lifted.factor @ lifted.factor.T
    return {t: XL[np.ix_([v - 1 for v in bs.blocks[t]],
                         [v - 1 for v in bs.blocks[t]])]
            for t in bs.blocks}, XL


def test_block_values_match_original_values():
    rng = np.random.default_rng(41)
    for _ in range(12):
        n = int(rng.integers(6, 20))
        ell = int(rng.integers(0, 3))
        p = random_splr_problem(rng, n, ell)
        ext, bs, _ = convert_problem(p)
        F = rng.standard_normal((n, 3))
        blocks, _ = _lift_blocks(ext, bs, F)
        ref = FactoredSolution(F)
        vals = block_row_values(bs, blocks)
        v = vals[0]
        assert abs(v - eval_objective(p, ref)) < 1e-8 * max(1.0, abs(v))
        for i in range(1, p.m + 1):
            v = vals[i]
            want = eval_constraint(p, i, ref)
            assert abs(v - want) < 1e-8 * max(1.0, abs(want))
        assert bs.bounds.tolist() == [[c.lower, c.upper]
                                      for c in p.constraints]


def test_block_data_reconstructs_extended_matrices():
    # every data entry is charged to exactly one block, mirrored off-diagonal
    rng = np.random.default_rng(43)
    for _ in range(8):
        n = int(rng.integers(5, 16))
        ell = int(rng.integers(1, 3))
        p = random_splr_problem(rng, n, ell)
        ext, bs, _ = convert_problem(p)
        nh = ext.pattern.n_ext
        J = ext.pattern.index_j
        _, _, _, u, v = bs.columns
        for r, term in enumerate([p.objective]
                                 + [c.term for c in p.constraints]):
            want = np.zeros((nh, nh))
            want[:n, :n] = sparse_dense(term.sparse)
            for a in range(ell):
                for b in range(ell):
                    want[J[a] - 1, J[b] - 1] += term.core[a, b]
            row = bs.rows[r].tocoo()
            got = np.zeros((nh, nh))
            np.add.at(got, (u[row.col] - 1, v[row.col] - 1), row.data)
            got += np.triu(got, 1).T
            assert np.abs(got - want).max() < 1e-12


def test_blocks_and_overlap_identity():
    rng = np.random.default_rng(47)
    p = random_splr_problem(rng, 14, 2)
    ext, bs, _ = convert_problem(p)
    pat = ext.pattern
    td = pat.td
    assert sorted(bs.blocks) == list(range(1, pat.k + 1)) and td.root == pat.k
    for t in bs.blocks:
        want = set(td.bags[t]).union(aux(pat, t), *(
            aux(pat, c) for c in td.children(t)))
        assert bs.blocks[t] == tuple(sorted(want))
    assert bs.parent == {t: td.parent(t) for t in td.nodes if t != td.root}
    for t, par in bs.parent.items():
        assert t < par
        shared = set(bs.blocks[t]) & set(bs.blocks[par])
        assert shared == set(aux(pat, t)) | (td.bags[t] & td.bags[par])


def test_convert_problem_path_mode():
    rng = np.random.default_rng(53)
    n = 10
    band = Graph.from_edges(n, {(i, i + 1) for i in range(1, n)}
                            | {(i, i + 2) for i in range(1, n - 1)})
    p = random_splr_problem(rng, n, 1, graph=band)
    ext, bs, report = convert_problem(p)
    assert report["path_mode"]
    assert report["width_after"] <= report["width_before"] + 2 * p.ell
    assert report["n_hat"] == n + report["k"] * p.ell
    # a branching clique tree converts, and the report says it is no path
    star_core = {(1, j) for j in range(2, 8)}
    p2 = random_splr_problem(rng, 9, 1,
                             graph=Graph.from_edges(9, star_core | {(2, 9), (3, 8)}))
    assert not convert_problem(p2)[2]["path_mode"]


@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(3, 14),
       ell=st.integers(1, 3), given_td=st.booleans())
def test_two_child_blocks_are_stored_in_reduction_order(seed, p, ell,
                                                        given_td):
    # the order reduce_block takes: [sorted bag | child-1 aux | child-2 aux
    # | own aux], with the accumulator rows [I; I; -I] below the bag rows
    rng = np.random.default_rng(seed)
    g, td = random_valid_td(rng, p)
    prob = random_splr_problem(rng, g.n, ell, graph=g)
    ext, bs, _ = convert_problem(prob, td=td if given_td else None)
    pat = ext.pattern
    two_child = [t for t in bs.blocks if len(pat.td.children(t)) == 2]
    assume(two_child)
    E = np.vstack([np.eye(ell), np.eye(ell), -np.eye(ell)])
    for t in two_child:
        c1, c2 = sorted(pat.td.children(t))
        bag = tuple(sorted(pat.td.bags[t]))
        assert bs.blocks[t] == bag + aux(pat, c1) + aux(pat, c2) + aux(pat, t)
        assert np.array_equal(ext.a_mats[t][len(bag):], E)


def test_assemble_matches_lift_and_flags_conflicts():
    rng = np.random.default_rng(59)
    p = random_splr_problem(rng, 12, 2)
    ext, bs, _ = convert_problem(p)
    F = rng.standard_normal((12, 2))
    blocks, XL = _lift_blocks(ext, bs, F)
    bags = assemble(blocks, bs)
    for t, B in bags.items():
        idx = [v - 1 for v in bs.blocks[t]]
        assert np.abs(B - XL[np.ix_(idx, idx)]).max() < 1e-10
    # children disagreeing with parents on a shared entry is an error
    u = min(set(bs.blocks[1]) & set(bs.blocks[bs.parent[1]]))
    t = 1
    pos = bs.blocks[t].index(u)
    bad = {s: B.copy() for s, B in blocks.items()}
    bad[t][pos, pos] += 1.0
    with pytest.raises(RecoveryError) as err:
        assemble(bad, bs, tol=1e-3)
    assert abs(err.value.disagreement - 1.0) < 1e-12


def test_assemble_refuses_a_nan_that_the_parent_would_overwrite():
    rng = np.random.default_rng(59)
    p = random_splr_problem(rng, 12, 2)
    ext, bs, _ = convert_problem(p)
    blocks, _ = _lift_blocks(ext, bs, rng.standard_normal((12, 2)))
    u = min(set(bs.blocks[1]) & set(bs.blocks[bs.parent[1]]))
    pos = bs.blocks[1].index(u)
    blocks[1][pos, pos] = np.nan
    with pytest.raises(RecoveryError) as err:
        assemble(blocks, bs, tol=1e-3)
    assert np.isnan(err.value.disagreement)


def test_export_sdpa_round_trip():
    rng = np.random.default_rng(61)
    p = random_splr_problem(rng, 8, 1)
    # pin every row to an equality so no slack block is emitted
    p = SplrSdp(n=p.n, ell=p.ell, pattern=p.pattern, factor=p.factor,
                objective=p.objective,
                constraints=[Constraint(c.sparse, c.core, 0.5, 0.5)
                             for c in p.constraints])
    ext, bs, _ = convert_problem(p)
    buf = io.StringIO()
    export_sdpa(bs, buf)
    buf.seek(0)
    m, sizes, rhs, entries = parse_sdpa(buf)
    k = len(bs.blocks)
    assert m == p.m + k * p.ell
    order = sorted(bs.blocks)
    assert sizes == [len(bs.blocks[t]) for t in order]
    assert rhs[:p.m] == [0.5] * p.m
    assert all(v == 0.0 for v in rhs[p.m:])
    # rebuild dense per-row block data and compare
    dense = {}
    for matno, blkno, i, j, v in entries:
        C = dense.setdefault((matno, blkno), np.zeros((sizes[blkno - 1],) * 2))
        C[i - 1, j - 1] = v
        C[j - 1, i - 1] = v
    node, ci, cj, _, _ = bs.columns
    data = bs.rows.tocoo()
    block_data = {}
    for r, c, v in zip(data.row, data.col, data.data):
        t = node[c]
        C = block_data.setdefault((r, t), np.zeros((len(bs.blocks[t]),) * 2))
        C[ci[c], cj[c]] = C[cj[c], ci[c]] = v
    for r in range(p.m):
        for bi, t in enumerate(order, start=1):
            want = block_data.get((r + 1, t))
            got = dense.get((r + 1, bi))
            if want is None:
                assert got is None
            else:
                assert np.abs(got - want).max() < 1e-12
    for h, (r, t) in enumerate(((r, t) for t in sorted(bs.null_mats)
                                for r in range(p.ell))):
        a = bs.null_mats[t][:, r]
        got = dense[(p.m + 1 + h, order.index(t) + 1)]
        assert np.abs(got - np.outer(a, a)).max() < 1e-12


def test_export_sdpa_interval_rows_use_lp_block():
    rng = np.random.default_rng(67)
    p = random_splr_problem(rng, 7, 1)
    has_interval = any(np.isfinite(c.lower) and np.isfinite(c.upper)
                       and c.lower != c.upper for c in p.constraints)
    has_onesided = any(not np.isfinite(c.lower) or not np.isfinite(c.upper)
                       for c in p.constraints)
    if not (has_interval or has_onesided):
        pytest.skip("random draw produced only equalities")
    ext, bs, _ = convert_problem(p)
    buf = io.StringIO()
    export_sdpa(bs, buf)
    buf.seek(0)
    m, sizes, rhs, entries = parse_sdpa(buf)
    assert sizes[-1] < 0  # trailing LP block for slacks
    n_slack = -sizes[-1]
    lp = len(sizes)
    slack_rows = sorted({e[0] for e in entries if e[1] == lp})
    assert len(slack_rows) == n_slack
    expect = sum((1 if np.isfinite(c.lower) else 0) + (1 if np.isfinite(c.upper) else 0)
                 for c in p.constraints if c.lower != c.upper)
    assert n_slack == expect


def _face_columns(ext, bs):
    """The columns null_mats[root] carries beyond the accumulator matrix."""
    root = ext.pattern.td.root
    return bs.null_mats[root][:, ext.a_mats[root].shape[1]:]


def _rows_are(p, ext, bs, kept):
    """bs.rows holds the objective and exactly the constraints `kept`
    (positions in p.constraints), in order, checked on a lifted point."""
    F = np.random.default_rng(3).standard_normal((p.n, 3))
    blocks, _ = _lift_blocks(ext, bs, F)
    ref = FactoredSolution(F)
    want = [eval_objective(p, ref)] + [eval_constraint(p, r + 1, ref)
                                       for r in kept]
    got = block_row_values(bs, blocks)
    assert got.shape == (len(want),)
    assert np.abs(got - want).max() < 1e-9 * max(1.0, np.abs(want).max())
    assert bs.bounds.tolist() == [
        [p.constraints[r].lower, p.constraints[r].upper] for r in kept]


def test_minbisect_sum_row_moves_into_the_root_face():
    p = cycle_bisection(8)
    ext, bs, _ = convert_problem(p)
    # <ee^T, X> = 0 is the last row: dropped, the diagonal rows stay
    _rows_are(p, ext, bs, range(p.m - 1))
    face = _face_columns(ext, bs)
    assert face.shape[1] == 1
    root = ext.pattern.td.root
    J = np.searchsorted(bs.blocks[root], ext.pattern.index_j)
    want = np.zeros_like(face)
    want[J] = 1.0
    assert np.abs(np.abs(face) - want).max() < 1e-15
    # the face holds on the exact lift of a balanced point
    R = np.vstack([np.eye(4), -np.eye(4)])
    blocks, _ = _lift_blocks(ext, bs, R)
    assert np.abs(blocks[root] @ face).max() < 1e-12


def test_lb_tree_moves_the_diagonal_core_rows_only():
    ell = 2
    p = gen_lb_tree(ell)
    ext, bs, _ = convert_problem(p)
    core_only = [r for r, c in enumerate(p.constraints)
                 if not c.sparse.entries]
    diagonal = [r for r in core_only
                if np.count_nonzero(p.constraints[r].core) == 1]
    assert len(core_only) == 3 and len(diagonal) == ell
    # sym(e_1 e_2^T) is indefinite and stays a data row
    _rows_are(p, ext, bs, [r for r in range(p.m) if r not in diagonal])
    face = _face_columns(ext, bs)
    assert face.shape[1] == ell
    root = ext.pattern.td.root
    J = np.searchsorted(bs.blocks[root], ext.pattern.index_j)
    assert np.abs(face[J].T @ face[J] - np.eye(ell)).max() < 1e-12
    assert np.abs(np.delete(face, J, axis=0)).max() == 0.0


def test_repeated_face_rows_add_one_face_vector():
    p = cycle_bisection(6)
    twice = replace(p, constraints=p.constraints + [p.constraints[-1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ext, bs, _ = convert_problem(twice)
        _, stats = admm_solve(bs, AdmmParams(max_iter=3))
    assert stats.iterations == 3
    assert _face_columns(ext, bs).shape[1] == 1
    _rows_are(twice, ext, bs, range(p.m - 1))


def test_zero_row_with_a_sparse_part_stays_a_data_row():
    p = cycle_bisection(6)
    last = p.constraints[-1]
    mixed = Constraint(SparseSymMatrix.from_entries(p.n, [(1, 2, 0.5)]),
                       last.core, 0.0, 0.0)
    q = replace(p, constraints=p.constraints[:-1] + [mixed])
    ext, bs, _ = convert_problem(q)
    _rows_are(q, ext, bs, range(q.m))
    assert _face_columns(ext, bs).shape[1] == 0


def test_export_sdpa_of_a_reduced_minbisect_keeps_the_row_count():
    p = cycle_bisection(8)
    ext, bs, _ = convert_problem(p)
    buf = io.StringIO()
    export_sdpa(bs, buf)
    buf.seek(0)
    m, sizes, rhs, entries = parse_sdpa(buf)
    # the moved row comes back as the root's rank-one face row
    assert m == p.m + len(bs.blocks) * p.ell
    assert len(bs.bounds) == p.m - 1
    root_blk = sorted(bs.blocks).index(ext.pattern.td.root) + 1
    face = _face_columns(ext, bs)[:, 0]
    got = np.zeros((sizes[root_blk - 1],) * 2)
    for matno, blkno, i, j, v in entries:
        if matno == m:
            assert blkno == root_blk
            got[i - 1, j - 1] = got[j - 1, i - 1] = v
    assert rhs[-1] == 0.0
    assert np.abs(got - np.outer(face, face)).max() < 1e-12
