import numpy as np
import pytest
import scipy.sparse as sp

from splrsdp.chordal_conversion import BlockSdp, convert_problem
from splrsdp.graph_core import Graph
from splrsdp.instances import gen_min_bisection, gen_simex
from splrsdp.sdp_model import SparseSymMatrix, SplrSdp, Term, is_feasible
from splrsdp.solver import (AdmmDivergence, AdmmParams, admm_solve,
                            dense_reference_solve, project_null_psd)

from conftest import block_row_values


def test_admm_params_validation():
    with pytest.raises(ValueError):
        AdmmParams(rho=0.0)
    with pytest.raises(ValueError):
        AdmmParams(tol_primal=-1e-9)
    with pytest.raises(ValueError):
        AdmmParams(max_iter=0)


def test_project_null_psd_plain_clip():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5))
    M = 0.5 * (M + M.T)
    P = project_null_psd(M, np.zeros((5, 0)))
    w, V = np.linalg.eigh(M)
    expect = (V * np.maximum(w, 0.0)) @ V.T
    assert np.abs(P - expect).max() < 1e-12


def test_project_null_psd_kills_direction():
    a = np.zeros((4, 1))
    a[0, 0] = 1.0
    P = project_null_psd(np.eye(4), a)
    assert np.abs(P - np.diag([0.0, 1.0, 1.0, 1.0])).max() < 1e-12
    # projection of a projection is itself
    again = project_null_psd(P, a)
    assert np.abs(P - again).max() < 1e-12
    assert np.abs(P @ a).max() < 1e-12


def test_project_null_psd_nonexpansive():
    # metric projections onto a convex set cannot increase distances
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        q = int(rng.integers(1, d))
        a = rng.standard_normal((d, q))
        M1 = rng.standard_normal((d, d))
        M2 = rng.standard_normal((d, d))
        M1, M2 = 0.5 * (M1 + M1.T), 0.5 * (M2 + M2.T)
        P1 = project_null_psd(M1, a)
        P2 = project_null_psd(M2, a)
        assert np.linalg.norm(P1 - P2) <= np.linalg.norm(M1 - M2) + 1e-10


def test_project_null_psd_warns_on_dependent_vectors():
    a = np.ones((3, 2))  # two identical columns
    with pytest.warns(UserWarning):
        P = project_null_psd(np.eye(3), a)
    assert np.abs(P @ a[:, :1]).max() < 1e-10


def _single_block_problem(C, lower, upper):
    """min <C, Y> over one PSD block with tr(Y) in [lower, upper]."""
    d = C.shape[0]
    i, j = np.triu_indices(d)
    rows = sp.csr_matrix(np.vstack([C[i, j], (i == j).astype(float)]))
    return BlockSdp(n_ext=d, blocks={1: tuple(range(1, d + 1))}, rows=rows,
                    bounds=[(lower, upper)], null_mats={1: np.zeros((d, 0))},
                    overlaps=[])


def test_admm_single_block_eigenvalue():
    rng = np.random.default_rng(2)
    C = rng.standard_normal((6, 6))
    C = 0.5 * (C + C.T)
    bs = _single_block_problem(C, 1.0, 1.0)
    blocks, stats = admm_solve(bs, AdmmParams(max_iter=4000, tol_primal=1e-9,
                                              tol_dual=1e-9))
    lam = np.linalg.eigvalsh(C)[0]
    assert stats.converged
    assert abs(stats.objective - lam) < 1e-5
    Y = blocks[1]
    assert abs(np.trace(Y) - 1.0) < 1e-6
    assert np.linalg.eigvalsh(Y)[0] > -1e-8


def test_admm_without_constraint_rows():
    # min <I, X> over X PSD with the path P4 as pattern: no data rows (m = 0)
    n = 4
    p = SplrSdp(n=n, ell=0,
                pattern=Graph.from_edges(n, [(i, i + 1) for i in range(1, n)]),
                factor=np.zeros((n, 0)),
                objective=Term(SparseSymMatrix.from_entries(
                    n, [(i, i, 1.0) for i in range(1, n + 1)]), np.zeros((0, 0))),
                constraints=[])
    _, bs, _ = convert_problem(p)
    assert bs.bounds == [] and bs.rows.shape[0] == 1 and bs.k > 1
    blocks, stats = admm_solve(bs)
    assert stats.converged
    assert abs(stats.objective) < 1e-8
    assert all(np.abs(B).max() < 1e-8 for B in blocks.values())


def test_admm_interval_row_picks_the_right_end():
    C = np.eye(4)
    bs = _single_block_problem(C, 1.0, 2.0)
    _, stats = admm_solve(bs, AdmmParams(max_iter=3000, tol_primal=1e-9,
                                         tol_dual=1e-9))
    assert abs(stats.objective - 1.0) < 1e-6
    bs = _single_block_problem(-C, 1.0, 2.0)
    _, stats = admm_solve(bs, AdmmParams(max_iter=3000, tol_primal=1e-9,
                                         tol_dual=1e-9))
    assert abs(stats.objective + 2.0) < 1e-6


def test_admm_simex_chain():
    p = gen_simex(10)
    ext, bs, rep = convert_problem(p, path_mode=True)
    blocks, stats = admm_solve(bs, AdmmParams(max_iter=5000, tol_primal=1e-8,
                                              tol_dual=1e-8))
    assert stats.converged
    assert stats.iterations < 5000
    assert all(r <= 2 for r in stats.block_ranks.values())
    # bound rows hold on the block solution
    for v, (lo, hi) in zip(block_row_values(bs, blocks)[1:], bs.bounds):
        assert v > lo - 1e-5 and v < hi + 1e-5
    # overlapping blocks agree on shared entries
    pos = {t: {v: i for i, v in enumerate(bs.blocks[t])} for t in bs.blocks}
    for t, par, shared in bs.overlaps:
        it = [pos[t][v] for v in shared]
        ip = [pos[par][v] for v in shared]
        gap = np.abs(blocks[t][np.ix_(it, it)] - blocks[par][np.ix_(ip, ip)]).max()
        assert gap < 1e-5


def test_admm_residual_trend():
    p = gen_simex(8)
    ext, bs, rep = convert_problem(p, path_mode=True)
    _, stats = admm_solve(bs, AdmmParams(max_iter=2000, tol_primal=1e-10,
                                         tol_dual=1e-10))
    comb = [a + b for a, b in stats.history]
    window = 100
    meds = [np.median(comb[i:i + window]) for i in range(0, len(comb) - window, window)]
    drops = sum(1 for a, b in zip(meds, meds[1:]) if b < a)
    # allow plateaus but the overall trend must point down
    assert meds[-1] < 1e-2 * meds[0]
    assert drops >= len(meds) * 0.6


def test_admm_seed_moves_the_start():
    p = gen_simex(8)
    ext, bs, rep = convert_problem(p, path_mode=True)
    _, s0 = admm_solve(bs, AdmmParams(max_iter=300, seed=0))
    _, s1 = admm_solve(bs, AdmmParams(max_iter=300, seed=1))
    assert s0.history[0] != s1.history[0]


def test_divergence_exception_carries_stats():
    from splrsdp.solver import SolveStats
    st = SolveStats(iterations=3, primal_residual=1.0, dual_residual=2.0,
                    objective=0.0, block_ranks={}, rho=1.0, converged=False)
    err = AdmmDivergence("blew up", st)
    assert isinstance(err, RuntimeError)
    assert err.stats.iterations == 3


def test_dense_reference_simex_feasibility():
    p = gen_simex(10)
    sol, stats = dense_reference_solve(p, AdmmParams(max_iter=4000,
                                                     tol_primal=1e-9,
                                                     tol_dual=1e-9))
    assert stats.converged
    ok, rep = is_feasible(p, sol, tol=1e-6)
    assert ok, rep


def test_dense_reference_flags_infeasible_by_stalling():
    p = gen_simex(6, np.ones(6), -1.0)  # <aa^T, X> = -1 impossible for PSD X
    sol, stats = dense_reference_solve(p, AdmmParams(max_iter=2500))
    assert not stats.converged
    assert stats.primal_residual > 1e-3


def test_dense_matches_block_on_min_bisection():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    q = gen_min_bisection(g)
    par = AdmmParams(max_iter=15000, tol_primal=1e-8, tol_dual=1e-8)
    sold, std = dense_reference_solve(q, par)
    ext, bs, rep = convert_problem(q)
    blocks, stb = admm_solve(bs, par)
    assert std.converged and stb.converged
    assert abs(std.objective - stb.objective) < 1e-5 * (1.0 + abs(std.objective))
    # K2 has a hand-checkable optimum of 4
    q2 = gen_min_bisection(Graph.from_edges(2, [(1, 2)]))
    sol2, st2 = dense_reference_solve(q2, par)
    assert abs(st2.objective - 4.0) < 1e-5


def test_dense_matches_cvxpy():
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(5)
    Q = rng.standard_normal((4, 4))
    Q = Q @ Q.T / 4
    c = rng.normal(size=4) * 0.3
    from splrsdp.instances import gen_bqp_relaxation
    p = gen_bqp_relaxation(Q, c)
    X = cp.Variable((p.n, p.n), symmetric=True)
    cons = [X >> 0]
    for cn in p.constraints:
        v = cp.trace(cn.term.dense(p.factor) @ X)
        if cn.lower == cn.upper:
            cons.append(v == cn.lower)
        else:
            if np.isfinite(cn.lower):
                cons.append(v >= cn.lower)
            if np.isfinite(cn.upper):
                cons.append(v <= cn.upper)
    prob = cp.Problem(cp.Minimize(cp.trace(p.objective.dense(p.factor) @ X)), cons)
    prob.solve()
    sol, stats = dense_reference_solve(p, AdmmParams(max_iter=20000,
                                                     tol_primal=1e-9,
                                                     tol_dual=1e-9))
    assert stats.converged
    assert abs(stats.objective - prob.value) < 1e-4 * (1.0 + abs(prob.value))
