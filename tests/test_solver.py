import logging
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splrsdp import fileio, solver
from splrsdp.chordal_conversion import BlockSdp, convert_problem
from splrsdp.cli import run
from splrsdp.completion_rank import _face_bases, bp_bound, recover_low_rank
from splrsdp.graph_core import Graph, _two_child_nodes
from splrsdp.instances import gen_lb_tree, gen_min_bisection, gen_simex
from splrsdp.sdp_model import (Constraint, FactoredSolution, SparseSymMatrix,
                               SplrSdp, Term, is_feasible)
from splrsdp.solver import (AdmmParams, _anderson_weights, _face_project,
                            _merge_groups, _pack_slabs, admm_solve)

from conftest import (AdmmDivergence, block_row_values, cycle_bisection,
                      dense_reference_solve, eval_constraint, face_basis,
                      project_null_psd, random_splr_problem, random_valid_td,
                      term_dense)


def test_admm_params_validation():
    with pytest.raises(ValueError):
        AdmmParams(rho=0.0)
    with pytest.raises(ValueError):
        AdmmParams(tol_primal=-1e-9)
    with pytest.raises(ValueError):
        AdmmParams(max_iter=0)
    # NaN passes a `<= 0` check; each non-finite value is named
    for name, value in (("rho", np.nan), ("tol_dual", np.inf),
                        ("tol_primal", np.nan)):
        with pytest.raises(ValueError, match=name):
            AdmmParams(**{name: value})
    # values of the wrong type or out of range, refused with the texts the
    # CLI prints for them
    for name, value, why in (
            ("tol_primal", None, "must be a number, got None"),
            ("rho", [1], "must be a number, got [1]"),
            ("max_iter", 2.7, "must be an integer, got 2.7"),
            ("rho", "1.0", "must be a number, got '1.0'"),
            ("max_iter", 1e400, "must be an integer, got inf"),
            ("rho", 10 ** 400, "is out of range"),
            ("max_iter", True, "must be a number, got True")):
        with pytest.raises(ValueError) as err:
            AdmmParams(**{name: value})
        assert str(err.value).startswith("solver parameter %s %s"
                                         % (name, why))
    # numpy scalars are numbers, cast to the field's type
    par = AdmmParams(max_iter=np.int64(10), rho=np.float64(0.5))
    assert (par.max_iter, par.rho) == (10, 0.5)
    assert type(par.max_iter) is int and type(par.rho) is float
    # the start is fixed: there is no seed to set
    with pytest.raises(TypeError):
        AdmmParams(seed=0)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_face_project_stack_matches_per_matrix_reference(q):
    from scipy.linalg import null_space
    rng = np.random.default_rng(10 + q)
    k, d = 6, 5
    a = rng.standard_normal((k, d, q))
    M = rng.standard_normal((k, d, d))
    M = M + np.swapaxes(M, 1, 2)
    Q = np.stack([face_basis(a[b], d) for b in range(k)])
    P = _face_project(M, Q, np.swapaxes(Q, 1, 2))
    assert P.shape == (k, d, d)
    assert (P == np.swapaxes(P, 1, 2)).all()
    for b in range(k):
        B = null_space(a[b].T) if q else np.eye(d)
        w, V = np.linalg.eigh(B.T @ M[b] @ B)
        expect = B @ (V * np.maximum(w, 0.0)) @ V.T @ B.T
        assert np.abs(P[b] - expect).max() < 1e-10
        assert np.abs(P[b] @ a[b]).max(initial=0.0) < 1e-10


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
                    bounds=np.array([[lower, upper]]),
                    null_mats={1: np.zeros((d, 0))},
                    parent={})


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


def test_admm_slabs_return_blocks_in_node_order():
    # disjoint blocks of sizes 3, 2, 3: the size-3 slab holds nodes 1 and 3,
    # so slab order differs from node order
    rng = np.random.default_rng(4)
    sizes = {1: 3, 2: 2, 3: 3}
    blocks, costs, tri, start = {}, [], [], 1
    for t, d in sizes.items():
        blocks[t] = tuple(range(start, start + d))
        start += d
        C = rng.standard_normal((d, d))
        costs.append(0.5 * (C + C.T))
        tri.append(np.triu_indices(d))
    obj = np.concatenate([C[i, j] for C, (i, j) in zip(costs, tri)])
    trace = sp.block_diag([(i == j).astype(float)[None, :] for i, j in tri])
    rows = sp.vstack([obj[None, :], trace]).tocsr()
    bs = BlockSdp(n_ext=start - 1, blocks=blocks, rows=rows,
                  bounds=np.ones((3, 2)),
                  null_mats={t: np.zeros((d, 0)) for t, d in sizes.items()},
                  parent={})
    Y, stats = admm_solve(bs, AdmmParams(max_iter=5000, tol_primal=1e-9,
                                         tol_dual=1e-9))
    assert stats.converged
    assert stats.history.shape == (stats.iterations, 2)
    assert list(Y) == [1, 2, 3]
    lam = [np.linalg.eigvalsh(C)[0] for C in costs]
    for (t, d), C, low in zip(sizes.items(), costs, lam):
        assert Y[t].shape == (d, d)
        assert abs(np.trace(Y[t]) - 1.0) < 1e-6
        assert abs(np.sum(C * Y[t]) - low) < 1e-5
    assert abs(stats.objective - sum(lam)) < 1e-5


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
    assert bs.bounds.shape == (0, 2) and bs.rows.shape[0] == 1 \
        and len(bs.blocks) > 1
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
    ext, bs, rep = convert_problem(p)
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
    for t, par in bs.parent.items():
        shared = sorted(set(bs.blocks[t]) & set(bs.blocks[par]))
        it = [pos[t][v] for v in shared]
        ip = [pos[par][v] for v in shared]
        gap = np.abs(blocks[t][np.ix_(it, it)] - blocks[par][np.ix_(ip, ip)]).max()
        assert gap < 1e-5


def test_admm_residual_trend():
    p = gen_simex(8)
    ext, bs, rep = convert_problem(p)
    _, stats = admm_solve(bs, AdmmParams(max_iter=2000, tol_primal=1e-10,
                                         tol_dual=1e-10))
    assert stats.converged
    # the combined residual falls at least a millionfold from the first
    # iteration to the last
    comb = stats.history.sum(axis=1)
    assert comb[-1] <= 1e-6 * comb[0]


def test_admm_counts_anderson_steps():
    p = gen_simex(8)
    ext, bs, rep = convert_problem(p)
    _, stats = admm_solve(bs, AdmmParams(max_iter=2000, tol_primal=1e-10,
                                         tol_dual=1e-10))
    assert stats.converged and stats.aa_accepted > 0
    # every iteration after the first takes one step, and each step tries
    # at most one candidate
    assert stats.aa_accepted + stats.aa_rejected <= stats.iterations - 1
    # max_iter caps the steps taken
    _, capped = admm_solve(bs, AdmmParams(max_iter=7))
    assert capped.iterations == 7 and capped.history.shape == (7, 2)
    assert capped.aa_accepted + capped.aa_rejected <= 6


def test_anderson_weights_without_a_pseudo_inverse():
    rng = np.random.default_rng(0)
    # an all-zero gram (every residual difference zero) is the plain step
    gamma = _anderson_weights(np.zeros((4, 4)), np.zeros(4))
    assert np.array_equal(gamma, np.zeros(4))
    # repeated difference rows make gram singular; the weights stay finite
    dF = rng.standard_normal((3, 50))
    dF = np.vstack([dF, dF[:2]])
    f = rng.standard_normal(50)
    gamma = _anderson_weights(dF @ dF.T, dF @ f)
    assert np.isfinite(gamma).all()
    # on a well-conditioned gram they are lstsq's
    dF = rng.standard_normal((6, 50))
    gram = dF @ dF.T
    ref = np.linalg.lstsq(gram, dF @ f, rcond=None)[0]
    gamma = _anderson_weights(gram, dF @ f)
    assert np.linalg.norm(gamma - ref) <= 1e-10 * np.linalg.norm(ref)


def test_objective_is_that_of_the_returned_blocks():
    # the blocks lie off the consensus x by the primal residual, so the
    # objective is the objective row on them, not c.x (1.9e-6 apart on this
    # instance at Anderson memory 10)
    ext, bs, _ = convert_problem(cycle_bisection(8))
    td = ext.pattern.td
    assert all(len(td.children(t)) <= 1 for t in td.nodes)
    assert len(_merge_groups(bs)[0]) < len(bs.blocks)
    blocks, stats = admm_solve(bs)
    ref = block_row_values(bs, blocks)[0]
    assert abs(stats.objective - ref) <= 1e-12 * max(1.0, abs(ref))


def test_rho_stays_the_parameter_for_the_whole_solve():
    # simex-n40 at tol 1e-8 runs with its dual residual over ten times the
    # primal at every 25-iteration mark, where a balancing rule would move rho
    _, bs, _ = convert_problem(gen_simex(40))
    params = AdmmParams(tol_primal=1e-8, tol_dual=1e-8)
    _, stats = admm_solve(bs, params)
    assert stats.converged and stats.rho == params.rho


def test_admm_logs_progress_at_the_rho_checks(caplog):
    # C16 at tol 1e-8 runs past several 25-iteration progress lines
    _, bs, _ = convert_problem(cycle_bisection(16))
    tight = AdmmParams(tol_primal=1e-8, tol_dual=1e-8)
    with caplog.at_level(logging.DEBUG, logger="splrsdp"):
        _, stats = admm_solve(bs, tight)
    lines = [m for m in (r.getMessage() for r in caplog.records)
             if m.startswith("admm it ")]
    assert len(lines) == (stats.iterations - 1) // 25 > 0
    assert lines[0].startswith("admm it 25 pri ")
    assert all(" rho " in m and " aa " in m and " memory " in m
               for m in lines)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="splrsdp"):
        admm_solve(bs, tight)
    assert not caplog.records


def test_admm_logs_its_layout_once_before_the_loop(tmp_path, caplog):
    # gen minbisect -n 12 --seed 0 keeps two slabs: its face dimensions 3-4
    # and 8-10 are too far apart to pad into one
    path = str(tmp_path / "p.json")
    assert run(["gen", "minbisect", "-n", "12", "--seed", "0",
                "--out", path]) == 0
    _, bs, _ = convert_problem(fileio.problem_from_dict(fileio.load(path)))
    blocks, null_mats, place = _merge_groups(bs)
    sizes = [len(b) for b in blocks.values()]
    bases = _face_bases(list(null_mats.values()), sizes)
    slabs = _pack_slabs(bases)
    work = sum(Q.shape[1] ** 3 for Q in bases)
    padded = sum(len(Q) * Q.shape[2] ** 3 for _, Q, _ in slabs)
    with caplog.at_level(logging.DEBUG, logger="splrsdp"):
        admm_solve(bs, AdmmParams(max_iter=60))
    lines = [r.getMessage() for r in caplog.records]
    assert lines[0] == ("admm layout: %d nodes in %d groups, blocks %d-%d, "
                        "%d slabs, padding %.0f%%"
                        % (len(bs.blocks), len(blocks), min(sizes), max(sizes),
                           len(slabs), 100.0 * (padded - work) / work))
    assert len(place) == len(bs.blocks) > len(blocks) > 1 and len(slabs) > 1
    assert padded > work
    assert sum(m.startswith("admm layout") for m in lines) == 1
    # C16 packs into one slab
    caplog.clear()
    _, bs, _ = convert_problem(cycle_bisection(16))
    with caplog.at_level(logging.DEBUG, logger="splrsdp"):
        admm_solve(bs, AdmmParams(max_iter=1))
    assert caplog.records[0].getMessage() == (
        "admm layout: 14 nodes in 4 groups, blocks 6-11, 1 slab, padding 42%")


def test_padded_slab_projects_each_block_as_project_null_psd():
    # mixed shapes in one slab; the padded rows and columns of M hold
    # noise, which the zero rows of the padded bases must ignore
    rng = np.random.default_rng(7)
    # (block size, null vector count): face dimensions 1-6
    sizes = [(6, 0), (4, 1), (6, 2), (5, 3), (3, 0), (6, 1), (2, 1)]
    nulls = [rng.standard_normal((d, q)) for d, q in sizes]
    bases = [face_basis(a, d) for a, (d, _) in zip(nulls, sizes)]
    slabs = _pack_slabs(bases)
    assert len(slabs) == 1
    members, Q, QT = slabs[0]
    assert sorted(members) == list(range(len(sizes)))
    assert Q.shape == (len(sizes), 6, 6) and QT.flags.c_contiguous
    M = rng.standard_normal(Q.shape[:1] + (6, 6))
    M = M + np.swapaxes(M, 1, 2)
    P = _face_project(M, Q, QT)
    for q, k in enumerate(members):
        d = sizes[k][0]
        expect = project_null_psd(M[q, :d, :d], nulls[k])
        assert np.abs(P[q, :d, :d] - expect).max() < 1e-12
        assert (P[q, d:] == 0.0).all() and (P[q, :, d:] == 0.0).all()


def test_slab_rule_bounds_the_eigh_work_that_padding_adds():
    def slabs(shapes):
        return [m for m, _, _ in
                _pack_slabs([np.zeros(shape) for shape in shapes])]

    # C16's merged blocks: one slab
    _, bs, _ = convert_problem(cycle_bisection(16))
    blocks, null_mats, _ = _merge_groups(bs)
    bases = _face_bases(list(null_mats.values()),
                        [len(b) for b in blocks.values()])
    assert len({Q.shape for Q in bases}) == 3 and len(_pack_slabs(bases)) == 1
    # padding 18 to 30 would add 30^3 - 18^3 > 12^3
    assert solver.SLAB_PAD == 12
    assert slabs([(35, 30), (20, 18)]) == [[1], [0]]
    # padding f 0 to 12 adds exactly 12^3, and to 13 more than that
    assert slabs([(12, 12), (12, 0)]) == [[1, 0]]
    assert slabs([(13, 13), (12, 0)]) == [[1], [0]]
    # a slab grows in (f, d, index) order
    assert slabs([(3, 2), (2, 2), (3, 2), (30, 30)]) == [[1, 0, 2], [3]]


def test_block_residuals_are_bounded_so_no_divergence_exit_is_needed():
    # ||Kx - v|| <= ||Kx|| + ||v|| puts the primal residual at most 2, and
    # ||c + rho K^T u|| <= ||c|| + rho ||K^T u|| the dual at most ||c|| + 1,
    # even for a large objective at a large rho (slack: rounding only)
    p = gen_min_bisection(Graph.from_edges(6, [(i, i + 1) for i in range(1, 6)]))
    big = replace(p, objective=Term(
        SparseSymMatrix(p.n, {k: 1e7 * v
                              for k, v in p.objective.sparse.entries.items()}),
        1e7 * p.objective.core))
    for prob, par in ((gen_lb_tree(1), AdmmParams()),
                      (big, AdmmParams(rho=1e6))):
        _, bs, _ = convert_problem(prob)
        _, stats = admm_solve(bs, par)
        _, fi, fj, _, _ = bs.columns
        c0 = bs.rows[0]
        c = c0.data * np.where(fi == fj, 1.0, np.sqrt(2.0))[c0.indices]
        pri, dua = stats.history.T
        assert stats.converged
        assert (pri <= 2.0 * (1 + 1e-12)).all()
        assert (dua <= (np.linalg.norm(c) + 1.0) * (1 + 1e-12)).all()


@pytest.fixture(scope="module")
def bqp8(tmp_path_factory):
    """`splrsdp gen bqp -n 8 --binary` at gen's default seed."""
    path = tmp_path_factory.mktemp("bqp") / "bqp.json"
    assert run(["gen", "bqp", "-n", "8", "--binary", "--out", str(path)]) == 0
    return fileio.problem_from_dict(fileio.load(path))


def test_anderson_memory_cuts_iterations_at_the_same_objective(monkeypatch):
    tight = AdmmParams(tol_primal=1e-8, tol_dual=1e-8)
    for p, par in ((cycle_bisection(16), tight),
                   (gen_lb_tree(1), AdmmParams())):
        _, bs, _ = convert_problem(p)
        _, long = admm_solve(bs, par)
        monkeypatch.setattr(solver, "AA_MEMORY", 10)
        _, short = admm_solve(bs, par)
        monkeypatch.undo()
        assert long.converged and short.converged
        assert long.iterations < short.iterations
        assert abs(long.objective - short.objective) <= 1e-6


def test_groups_of_four_take_fewer_iterations_than_pairs(monkeypatch):
    # lb-tree-l2 took 143 iterations as pairs against 22, C16 at tol 1e-8
    # 155 against 143
    tight = AdmmParams(tol_primal=1e-8, tol_dual=1e-8)
    for p, par in ((gen_lb_tree(2), AdmmParams()),
                   (cycle_bisection(16), tight)):
        _, bs, _ = convert_problem(p)
        _, groups = admm_solve(bs, par)
        monkeypatch.setattr(solver, "GROUP_SIZE", 2)
        _, pairs = admm_solve(bs, par)
        monkeypatch.undo()
        assert groups.converged and pairs.converged
        assert groups.iterations < pairs.iterations
        assert abs(groups.objective - pairs.objective) <= 1e-6


def test_returned_blocks_meet_every_row_within_ten_tol_primal(bqp8):
    # the primal residual is one 2-norm over every block copy and data row;
    # on the returned blocks each row still lies within 10 tol_primal (on
    # this problem's unit row scale) of its bounds
    _, bs, _ = convert_problem(bqp8)
    par = AdmmParams()
    blocks, stats = admm_solve(bs, par)
    assert stats.converged and stats.primal_residual <= par.tol_primal
    vals = block_row_values(bs, blocks)[1:]
    lo, hi = bs.bounds.T
    viol = np.maximum(np.maximum(lo - vals, vals - hi), 0.0)
    assert viol.max() <= 10 * par.tol_primal * max(1.0, np.abs(vals).max())


@pytest.mark.parametrize("weight", [0.1, 10.0])
def test_data_weight_is_undone_in_the_primal_residual(bqp8, weight):
    # the solver puts no weight of its own on the data rows; a weight the
    # caller puts there (each row and its bounds times `weight`) is the row
    # scale the residual measures, and each weighted row lies within
    # 10 tol_primal of its bounds on that scale.  Measured: 2.4 tol_primal
    # at 0.1, 54 tol_primal on rows of size 10 at 10.0
    def scaled(c):
        entries = {k: weight * v for k, v in c.sparse.entries.items()}
        return replace(c, sparse=SparseSymMatrix(c.sparse.n, entries),
                       core=weight * c.core, lower=weight * c.lower,
                       upper=weight * c.upper)

    p = replace(bqp8, constraints=[scaled(c) for c in bqp8.constraints])
    _, bs, _ = convert_problem(p)
    par = AdmmParams()
    blocks, stats = admm_solve(bs, par)
    assert stats.converged and stats.primal_residual <= par.tol_primal
    vals = block_row_values(bs, blocks)[1:]
    lo, hi = bs.bounds.T
    viol = np.maximum(np.maximum(lo - vals, vals - hi), 0.0)
    assert viol.max() <= 10 * par.tol_primal * max(1.0, np.abs(vals).max())


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
        v = cp.trace(term_dense(cn.term, p.factor) @ X)
        if cn.lower == cn.upper:
            cons.append(v == cn.lower)
        else:
            if np.isfinite(cn.lower):
                cons.append(v >= cn.lower)
            if np.isfinite(cn.upper):
                cons.append(v <= cn.upper)
    prob = cp.Problem(cp.Minimize(cp.trace(term_dense(p.objective, p.factor) @ X)), cons)
    prob.solve()
    sol, stats = dense_reference_solve(p, AdmmParams(max_iter=20000,
                                                     tol_primal=1e-9,
                                                     tol_dual=1e-9))
    assert stats.converged
    assert abs(stats.objective - prob.value) < 1e-4 * (1.0 + abs(prob.value))


def _pinned(p, R, rng):
    """p's rows pinned at their values on X0 = R R^T, a trace row at
    tr X0, and a random combination y of these rows as the objective, so
    every feasible point is optimal.  Returns (problem, optimum)."""
    n = p.n
    x0 = FactoredSolution(R)
    cons = [Constraint(c.sparse, c.core, v, v) for c, v in zip(
        p.constraints, (eval_constraint(p, i, x0)
                        for i in range(1, p.m + 1)))]
    trace = float(np.sum(R * R))
    cons.append(Constraint(SparseSymMatrix.from_entries(
        n, [(i, i, 1.0) for i in range(1, n + 1)]), np.zeros((p.ell, p.ell)),
        trace, trace))
    y = rng.standard_normal(len(cons))
    items = [(i, j, yk * v) for yk, c in zip(y, cons)
             for (i, j), v in c.sparse.entries.items()]
    objective = Term(SparseSymMatrix.from_entries(n, items),
                     sum(yk * c.core for yk, c in zip(y, cons)))
    optimum = float(y @ [c.lower for c in cons])
    return replace(p, objective=objective, constraints=cons), optimum


def _with_face_row(p, rng):
    """_pinned at a random point X0 = R R^T with X0 F w = 0, plus the row
    <w w^T, F^T X F> = 0 for a random w.  Returns (problem, optimum)."""
    w = rng.standard_normal(p.ell)
    a = p.factor @ w
    R = rng.standard_normal((p.n, p.n))
    R -= np.outer(a, a @ R) / (a @ a)
    q, optimum = _pinned(p, R, rng)
    return replace(q, constraints=q.constraints + [
        Constraint(SparseSymMatrix(p.n, {}), np.outer(w, w), 0.0, 0.0)]), optimum


@settings(max_examples=12)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 10),
       ell=st.integers(1, 2), m=st.integers(0, 3))
def test_face_row_keeps_block_and_dense_objectives_equal(seed, n, ell, m):
    # a random problem plus one row <w w^T, F^T X F> = 0, which makes
    # Slater's condition fail unless it is moved into the face X F w = 0.
    # Every row is pinned at its value on a point X0 interior to that face,
    # and the objective is a random combination of the rows, so every
    # feasible point is optimal with a known value.  Factor entries stay
    # away from zero: a vertex whose factor row nearly vanishes is coupled
    # so weakly that both solvers crawl, whatever the face.
    rng = np.random.default_rng(seed)
    p = random_splr_problem(rng, n, ell, m_extra=m)
    p = replace(p, factor=rng.uniform(0.5, 1.5, (n, ell))
                * rng.choice([-1.0, 1.0], (n, ell)))
    q, optimum = _with_face_row(p, rng)

    par = AdmmParams(max_iter=20000, tol_primal=1e-8, tol_dual=1e-8)
    _, std = dense_reference_solve(q, par)
    _, bs, _ = convert_problem(q)
    _, stb = admm_solve(bs, par)
    assert std.converged and stb.converged
    assert len(bs.bounds) == q.m - 1
    scale = 1.0 + abs(optimum)
    assert abs(std.objective - stb.objective) <= 1e-4 * scale
    assert abs(stb.objective - optimum) <= 1e-4 * scale


@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(4, 6),
       ell=st.integers(1, 2))
@example(seed=2, nodes=6, ell=1)  # both rooted with two-child nodes
@example(seed=4, nodes=6, ell=2)
def test_merged_solve_returns_agreeing_fine_blocks(seed, nodes, ell):
    # a random valid decomposition (its rooted binary form often has
    # two-child nodes) under a pinned problem with a known optimum
    rng = np.random.default_rng(seed)
    g, td = random_valid_td(rng, nodes, max_new=2, max_keep=2)
    p = random_splr_problem(rng, g.n, ell, m_extra=2, graph=g)
    p = replace(p, factor=rng.uniform(0.5, 1.5, (g.n, ell))
                * rng.choice([-1.0, 1.0], (g.n, ell)))
    q, optimum = _pinned(p, rng.standard_normal((g.n, g.n)), rng)
    ext, bs, _ = convert_problem(q, td=td)
    rows = bs.rows.copy()
    par = AdmmParams(max_iter=20000, tol_primal=1e-8, tol_dual=1e-8)
    Y, stats = admm_solve(bs, par)
    assert stats.converged
    assert (bs.rows != rows).nnz == 0  # the fine problem is left as it was
    assert list(Y) == sorted(bs.blocks)
    assert list(stats.block_ranks) == sorted(bs.blocks)
    for t, idx in bs.blocks.items():
        d = len(idx)
        assert Y[t].shape == (d, d)
        A = ext.a_mats[t]
        assert np.abs(A.T @ Y[t] @ A).max() <= 1e-6 * max(1.0, np.abs(Y[t]).max())
    # fine blocks of one group are slices of one matrix
    _, _, place = _merge_groups(bs)
    for s, (gs, _) in place.items():
        for t, (gt, _) in place.items():
            if s < t and gs == gt:
                shared = sorted(set(bs.blocks[s]) & set(bs.blocks[t]))
                at_s = np.searchsorted(bs.blocks[s], shared)
                at_t = np.searchsorted(bs.blocks[t], shared)
                assert np.array_equal(Y[s][np.ix_(at_s, at_s)],
                                      Y[t][np.ix_(at_t, at_t)])
    _, std = dense_reference_solve(q, par)
    assert std.converged
    scale = 1.0 + abs(optimum)
    assert abs(std.objective - stats.objective) <= 1e-4 * scale
    assert abs(stats.objective - optimum) <= 1e-4 * scale
    # the certificate comes from the fine tree, whatever the solver merged
    sol, info = recover_low_rank(Y, ext, bs, overlap_tol=1e-4, psd_tol=1e-4)
    two_child = _two_child_nodes(ext.pattern.td)
    wid = max(len(b) for b in ext.pattern.td.bags.values()) - 1
    assert info["mode"] == ("tree" if two_child else "path")
    assert info["certified_bound"] == wid + 1 + (
        bp_bound(ell) if two_child else ell)
    assert info["rank"] <= info["certified_bound"]


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), nodes=st.integers(1, 7),
       ell=st.integers(0, 2))
def test_merge_pairs_matches_a_loop_reference(seed, nodes, ell):
    rng = np.random.default_rng(seed)
    g, td = random_valid_td(rng, nodes)
    _, bs, _ = convert_problem(random_splr_problem(rng, g.n, ell, graph=g),
                               td=td)
    blocks, null_mats, place = _merge_groups(bs)
    # groups parents first, labels k-1..1: join the parent's group while it
    # is not full
    top = {t: t for t in bs.blocks}
    for t in range(len(bs.blocks) - 1, 0, -1):
        par = bs.parent[t]
        if sum(top[s] == top[par] for s in bs.blocks) < solver.GROUP_SIZE:
            top[t] = top[par]
    groups = {}
    for t in sorted(bs.blocks):
        groups.setdefault(top[t], []).append(t)
    assert sorted(blocks) == sorted(groups)
    for grp, members in groups.items():
        idx = sorted(set().union(*(bs.blocks[t] for t in members)))
        assert blocks[grp].tolist() == idx
        null = []
        for t in members:
            A = np.zeros((len(idx), bs.null_mats[t].shape[1]))
            A[np.searchsorted(idx, bs.blocks[t])] = bs.null_mats[t]
            null.append(A)
        assert np.array_equal(null_mats[grp], np.hstack(null))
        for t in members:
            assert place[t][0] == grp
            assert [idx[r] for r in place[t][1]] == list(bs.blocks[t])


@pytest.mark.parametrize("m", [0, 2, 3])
def test_admm_converges_when_a_vertex_couples_through_a_tiny_factor_entry(m):
    # the face-row family on a pattern of two edges over six vertices: the
    # root bag {6} reaches the rest only through the factor entry 0.0041.
    # Solved on unmerged blocks, the primal residual stalled between 1.5e-6
    # and 3.5e-6 for all of 20000 iterations
    rng = np.random.default_rng(3121)
    p = random_splr_problem(rng, 6, 1, m_extra=m)
    assert abs(p.factor[5, 0] - 0.0041) < 1e-4
    q, optimum = _with_face_row(p, rng)
    ext, bs, _ = convert_problem(q)
    assert ext.pattern.td.bags[ext.pattern.td.root] == {6}
    _, stats = admm_solve(bs, AdmmParams(max_iter=2000, tol_primal=1e-8,
                                         tol_dual=1e-8))
    assert stats.converged
    assert abs(stats.objective - optimum) <= 1e-6 * (1.0 + abs(optimum))
