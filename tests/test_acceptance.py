"""Acceptance gate: one test per contract item, one printed line each.

Run with -v to get a pass/fail line per criterion; the prints also land in
captured output for failed items.
"""

import time
from dataclasses import replace

import numpy as np

from conftest import (CHORDAL12_CLIQUES, brute_force_treewidth,
                      coupling_singular_values, dense_reference_solve,
                      phi_witness_matrix, phi_witness_slice,
                      random_splr_problem, random_valid_td, rank_walk)
from splrsdp.chordal_conversion import convert_problem
from splrsdp.completion_rank import (max_rank_for_constraints,
                                     psd_complete_min_rank, recover_low_rank)
from splrsdp.graph_core import (Graph, TreeDecomposition, clique_tree,
                                to_binary, width)
from splrsdp.instances import (gen_bqp_relaxation, gen_lb_padded, gen_lb_small,
                               gen_lb_tree, gen_min_bisection, gen_simex)
from splrsdp.sdp_model import is_feasible
from splrsdp.solver import AdmmParams, admm_solve
from splrsdp.sparse_extension import verify_extension


def _ok(name):
    print("acceptance %s: PASS" % name)


def _rank_and_gap(X, rel_tol=1e-8):
    w = np.sort(np.linalg.eigvalsh(X))[::-1]
    r = int(np.sum(w > rel_tol * w[0]))
    gap = (w[r - 1] - (w[r] if r < len(w) else 0.0)) / w[0]
    return r, gap


def test_binary_tree_rewrite_bulk():
    rng = np.random.default_rng(0)
    tds = [random_valid_td(rng, int(rng.integers(1, 201)))[1]
           for _ in range(200)]
    t0 = time.time()
    outs = [to_binary(td) for td in tds]
    elapsed = time.time() - t0
    for td, b in zip(tds, outs):
        assert len(b.nodes) <= 2 * len(td.nodes)
        assert width(b) == width(td)
        deg = {t: 0 for t in b.nodes}
        for x, y in b.edges:
            deg[x] += 1
            deg[y] += 1
        assert not deg or max(deg.values()) <= 3
    assert elapsed < 1.0, "200 rewrites took %.2fs" % elapsed
    _ok("binary tree rewrite (200 trees, %.2fs)" % elapsed)


def test_known_chordal_graph_cliques(chordal12):
    ct = clique_tree(chordal12)
    assert set(ct.bags.values()) == set(CHORDAL12_CLIQUES)
    assert len(ct.bags) == 8
    assert width(ct) == 3
    assert brute_force_treewidth(chordal12) == 3
    _ok("12-vertex clique tree fidelity")


def test_extension_width_and_size_certificates():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 25:  # general trees
        p_nodes = int(rng.integers(2, 10))
        g, td = random_valid_td(rng, p_nodes)
        if g.n > 60 or g.n == 0:
            continue
        ell = int(rng.integers(1, 4))
        prob = random_splr_problem(rng, g.n, ell, graph=g)
        _, _, rep = convert_problem(prob, td=td)
        assert rep["width_after"] <= rep["width_before"] + 3 * ell
        assert rep["n_hat"] <= prob.n + 2 * p_nodes * ell
        checked += 1
    for _ in range(25):  # banded patterns with explicit path decompositions
        n = int(rng.integers(6, 61))
        w = int(rng.integers(1, 4))
        ell = int(rng.integers(1, 4))
        g = Graph.from_edges(n, [(i, j) for i in range(1, n + 1)
                                 for j in range(i + 1, min(i + w, n) + 1)])
        k = n - w
        td = TreeDecomposition(
            nodes=tuple(range(1, k + 1)),
            edges=frozenset((t, t + 1) for t in range(1, k)),
            bags={t: frozenset(range(t, t + w + 1)) for t in range(1, k + 1)})
        prob = random_splr_problem(rng, n, ell, graph=g)
        _, _, rep = convert_problem(prob, td=td)
        assert rep["path_mode"]
        assert rep["width_after"] <= rep["width_before"] + 2 * ell
        assert rep["n_hat"] <= n + k * ell
        checked += 1
    _ok("extension certificates (%d instances, zero violations)" % checked)


def test_extension_value_equivalence():
    rng = np.random.default_rng(2)
    lifted = 0
    for _ in range(4):
        n = int(rng.integers(6, 31))
        ell = int(rng.integers(1, 4))
        prob = random_splr_problem(rng, n, ell, p_edge=0.2, m_extra=4)
        ext, _, _ = convert_problem(prob)
        # the draw that was verify's seed keeps the later problems as they were
        rng.integers(1 << 30)
        rep = verify_extension(prob, ext, samples=25)
        assert rep["max_null_residual"] <= 1e-10
        assert rep["max_value_mismatch"] <= 1e-9
        assert rep["max_restriction_error"] == 0.0
        assert rep["ok"]
        lifted += rep["samples"]
    assert lifted == 100
    _ok("extension equivalence (100 lifted points)")


def test_end_to_end_chain_recovery():
    t0 = time.time()
    p = gen_simex(20)
    ext, bs, _ = convert_problem(p)
    par = AdmmParams(max_iter=5000, tol_primal=1e-9, tol_dual=1e-9)
    blocks, stats = admm_solve(bs, par)
    assert stats.converged and stats.iterations <= 5000
    sol, info = recover_low_rank(blocks, ext, bs, mode="path",
                                 overlap_tol=1e-3, psd_tol=1e-4)
    ok, rep = is_feasible(p, sol, tol=1e-6)
    assert ok, "violation %.3e" % rep["max_violation"]
    assert sol.numerical_rank() <= 2
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _ok("end-to-end chain recovery (%d iters, rank %d, %.1fs)"
        % (stats.iterations, info["rank"], elapsed))


def test_min_rank_completion_bulk():
    rng = np.random.default_rng(3)
    done = 0
    while done < 500:
        g, td = random_valid_td(rng, int(rng.integers(1, 13)))
        n = g.n
        if n > 40 or n == 0:
            continue
        F = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        X = F @ F.T
        rows = {t: [v - 1 for v in sorted(bag)] for t, bag in td.bags.items()}
        bags = {t: X[np.ix_(ix, ix)] for t, ix in rows.items()}
        sol = psd_complete_min_rank(bags, replace(td, root=min(td.nodes)))
        Xc = sol.factor @ sol.factor.T
        assert max(np.abs(Xc[np.ix_(ix, ix)] - bags[t]).max()
                   for t, ix in rows.items()) <= 1e-9
        assert np.linalg.eigvalsh(Xc)[0] >= -1e-9
        maxbag = 0
        for bag in td.bags.values():
            idx = [v - 1 for v in sorted(bag)]
            maxbag = max(maxbag, _rank_and_gap(X[np.ix_(idx, idx)])[0])
        assert sol.rank == maxbag
        done += 1
    _ok("minimum-rank completion (500 patterns)")


def test_constraint_count_rank_cap():
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(2, 21))
        q = int(rng.integers(1, 11))
        F = rng.standard_normal((d, d))
        X0 = F @ F.T
        mats = []
        for _ in range(q):
            B = rng.standard_normal((d, d))
            mats.append(0.5 * (B + B.T))
        rhs = [float(np.sum(B * X0)) for B in mats]
        sol = rank_walk(mats, X0)
        assert sol.factor.shape[1] <= max_rank_for_constraints(q)
        Xr = sol.factor @ sol.factor.T
        drift = max(abs(float(np.sum(B * Xr)) - c) for B, c in zip(mats, rhs))
        assert drift <= 1e-8
    _ok("few-constraint rank cap (100 slices)")


def test_unique_slice_element_and_closed_form():
    rng = np.random.default_rng(5)
    for ell in (1, 2):
        mats = phi_witness_slice(ell)[0]
        W = phi_witness_matrix(ell)
        for _ in range(50):
            # random start: a full-rank nudge off the anchor, kept inside the
            # cone; the tangency amplifies larger kicks by their square root,
            # so the scale sits below that regime
            G = rng.standard_normal(W.shape)
            X0 = W + 1e-11 * (G @ G.T) / W.shape[0]
            sol = rank_walk(mats, X0)
            X = sol.factor @ sol.factor.T
            assert np.abs(X - W).max() <= 1e-6
            assert sol.factor.shape[1] == ell + 1
    for alpha in (0.5, 1.0):
        for _ in range(100):
            beta = float(rng.uniform(-3.0, 3.0))
            s = np.linalg.svd(np.array([[1.0, beta], [-beta, alpha]]),
                              compute_uv=False)
            hi, lo = coupling_singular_values(alpha, beta)
            assert abs(hi - s[0]) <= 1e-12
            assert abs(lo - s[1]) <= 1e-12
    _ok("unique slice element from 50 random starts; closed-form factors")


def test_forced_rank_floors():
    par = AdmmParams(max_iter=20000, tol_primal=1e-9, tol_dual=1e-9)

    def solved_rank(p):
        sol, stats = dense_reference_solve(p, par)
        assert stats.converged
        r, gap = _rank_and_gap(sol.factor @ sol.factor.T)
        assert gap >= 1e-4, "spectral gap %.2e disqualifies the measurement" % gap
        return r

    for ell in (2, 3):
        assert solved_rank(gen_lb_small(ell)) == ell + 1
    base = gen_lb_small(2)
    sigma = 2
    assert solved_rank(gen_lb_padded(base, sigma, base.n + sigma)) \
        == solved_rank(base) + sigma
    assert solved_rank(gen_lb_tree(1)) >= 5
    _ok("forced rank floors (small, padded, low-width family)")


def test_block_vs_dense_objective_consistency():
    rng = np.random.default_rng(6)
    Q = rng.standard_normal((4, 4))
    Q = Q @ Q.T / 4
    c = 0.3 * rng.normal(size=4)
    A = np.ones((1, 4))
    shipped = [
        ("chain n=20", gen_simex(20)),
        ("chain n=12 random", gen_simex(12, rng.normal(size=12) + 2.0)),
        ("bisection K2", gen_min_bisection(Graph.from_edges(2, [(1, 2)]))),
        ("bisection P4", gen_min_bisection(
            Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]))),
        ("bisection C5", gen_min_bisection(
            Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]))),
        ("boxed qp", gen_bqp_relaxation(Q, c)),
        ("boxed qp eq+binary", gen_bqp_relaxation(
            Q, c, A, A @ np.array([1.0, 1.0, 0.0, 0.0]),
            binary_set=(1, 2, 3, 4))),
        ("rank floor l=2", gen_lb_small(2)),
        ("padded floor", gen_lb_padded(gen_lb_small(2), 1, 4)),
        ("low-width floor", gen_lb_tree(1)),
    ]
    par = AdmmParams(max_iter=20000, tol_primal=1e-8, tol_dual=1e-8)
    for name, p in shipped:
        assert p.n <= 40
        _, std = dense_reference_solve(p, par)
        _, bs, _ = convert_problem(p)
        _, stb = admm_solve(bs, par)
        assert std.converged and stb.converged, \
            "%s: dense %d, block %d iterations" % (name, std.iterations,
                                                   stb.iterations)
        diff = abs(std.objective - stb.objective)
        assert diff <= 1e-4 * (1.0 + abs(std.objective)), \
            "%s: dense %.8f vs block %.8f" % (name, std.objective, stb.objective)
    _ok("objective consistency (%d shipped instances)" % len(shipped))
