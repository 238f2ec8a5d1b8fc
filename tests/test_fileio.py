import io
import json

import numpy as np
import pytest

from splrsdp import fileio
from splrsdp.chordal_conversion import convert, convert_problem
from splrsdp.graph_core import Graph
from splrsdp.instances import (gen_bqp_relaxation, gen_lb_tree,
                               gen_min_bisection, gen_phi_witness, gen_simex)
from splrsdp.solver import AdmmParams, SolveStats

from conftest import random_valid_td


def _rt(d):
    # force a real trip through text
    return json.loads(json.dumps(d))


def test_problem_roundtrip_exact():
    rng = np.random.default_rng(0)
    probs = [
        gen_simex(9, rng.normal(size=9) + 2.0),
        gen_min_bisection(Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])),
        gen_bqp_relaxation(np.eye(3), np.ones(3), np.ones((1, 3)), np.ones(1)),
        gen_lb_tree(1),
    ]
    for p in probs:
        q = fileio.problem_from_dict(_rt(fileio.problem_to_dict(p)))
        assert q.n == p.n and q.ell == p.ell and q.m == p.m
        assert q.pattern.edges == p.pattern.edges
        assert np.array_equal(q.factor, p.factor)
        assert q.objective.sparse.entries == p.objective.sparse.entries
        assert np.array_equal(q.objective.core, p.objective.core)
        for a, b in zip(p.constraints, q.constraints):
            assert a.sparse.entries == b.sparse.entries
            assert np.array_equal(a.core, b.core)
            assert a.lower == b.lower and a.upper == b.upper


def test_problem_infinite_bounds_travel_as_null():
    p = gen_bqp_relaxation(np.eye(2), np.zeros(2))  # has one-sided rows
    d = fileio.problem_to_dict(p)
    uppers = [c["upper"] for c in d["constraints"]]
    assert None in uppers
    q = fileio.problem_from_dict(_rt(d))
    assert any(np.isinf(c.upper) for c in q.constraints)
    assert all(np.isfinite(c.lower) for c in q.constraints)


def test_problem_schema_and_m_guards():
    with pytest.raises(ValueError):
        fileio.problem_from_dict({"schema": "nope"})
    d = fileio.problem_to_dict(gen_simex(4))
    d["m"] = 99
    with pytest.raises(ValueError):
        fileio.problem_from_dict(d)


def test_td_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g, td = random_valid_td(rng, int(rng.integers(1, 12)))
        d = _rt(fileio.td_to_dict(td))
        back = fileio.td_from_dict(d)
        assert set(back.nodes) == set(td.nodes)
        assert back.edges == td.edges
        assert back.bags == td.bags
        assert back.root == td.root


def test_extended_roundtrip_rebuilds_identical_data():
    for p in (gen_simex(7),
              gen_min_bisection(Graph.from_edges(6, [(1, 2), (2, 3), (3, 4),
                                                     (4, 5), (5, 6), (1, 6)]))):
        ext, bs, _ = convert_problem(p)
        back = fileio.extended_from_dict(_rt(fileio.extended_to_dict(ext)))
        assert back.pattern.ext_bags == ext.pattern.ext_bags
        assert back.pattern.td.bags == ext.pattern.td.bags
        for t in ext.a_mats:
            assert np.array_equal(back.a_mats[t], ext.a_mats[t])
        # the rebuilt extension drives the same block problem
        bs2 = convert(back)
        assert bs2.blocks == bs.blocks
        assert bs2.bounds == bs.bounds


def test_slice_roundtrip():
    sl = gen_phi_witness(2)
    back = fileio.slice_from_dict(_rt(fileio.slice_to_dict(sl)))
    assert len(back.mats) == len(sl.mats)
    for A, B in zip(sl.mats, back.mats):
        assert np.array_equal(A, B)
    assert np.array_equal(back.point, sl.point)
    assert back.rhs == sl.rhs


def test_solution_roundtrip_with_stats_and_problem():
    p = gen_simex(6)
    ext, bs, _ = convert_problem(p, path_mode=True)
    blocks = {t: np.eye(len(bs.blocks[t])) for t in bs.blocks}
    st = SolveStats(iterations=12, primal_residual=1e-9, dual_residual=2e-9,
                    objective=0.5, block_ranks={t: 1 for t in blocks},
                    rho=2.0, converged=True)
    d = _rt(fileio.solution_to_dict(blocks, st, extended=ext))
    back, stats, ext2 = fileio.solution_from_dict(d)
    assert set(back) == set(blocks)
    for t in blocks:
        assert np.array_equal(back[t], blocks[t])
    assert stats["iterations"] == 12 and stats["converged"] is True
    assert ext2 is not None and ext2.pattern.ext_bags == ext.pattern.ext_bags


def test_params_defaults_and_unknown_keys():
    par = fileio.params_from_dict({"rho": 3.0})
    assert par.rho == 3.0
    assert par.max_iter == AdmmParams().max_iter
    with pytest.raises(ValueError):
        fileio.params_from_dict({"rho": 1.0, "momentum": 0.9})
    # the thread-pool option is gone; old params files naming it are refused
    with pytest.raises(ValueError):
        fileio.params_from_dict({"threads": 2})
    back = fileio.params_from_dict(_rt(fileio.params_to_dict(
        AdmmParams(rho=0.5, max_iter=42, seed=3))))
    assert back.rho == 0.5 and back.max_iter == 42
    assert back.seed == 3


def test_parse_sdpa_without_rhs_line_is_truncated():
    from splrsdp.sdpa import parse_sdpa

    with pytest.raises(ValueError, match="truncated SDPA file"):
        parse_sdpa(io.StringIO("1\n1\n2\n"))


def test_sdpa_import_recovers_the_split(tmp_path):
    # write the bisection instance as dense SDPA rows, read it back through
    # the pattern and check the declared low-rank part reappears
    from splrsdp.graph_core import write_graph
    from splrsdp.sdpa import write_sdpa

    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    p = gen_min_bisection(g)
    n = p.n
    mats = [p.objective.dense(p.factor)] + [c.term.dense(p.factor)
                                            for c in p.constraints]
    entries = []
    for k, M in enumerate(mats):
        for i in range(n):
            for j in range(i, n):
                if M[i, j] != 0.0:
                    entries.append((k, 1, i + 1, j + 1, float(M[i, j])))
    dat = tmp_path / "prob.dat-s"
    with open(dat, "w") as fh:
        write_sdpa(fh, p.m, [n], [c.lower for c in p.constraints], entries)
    gfile = tmp_path / "pattern.txt"
    with open(gfile, "w") as fh:
        write_graph(g, fh)

    q = fileio.load_sdpa_problem(str(dat), str(gfile))
    assert q.n == n and q.ell == 1
    # same factor line up to sign, same core scale
    direction = q.factor[:, 0] * np.sign(q.factor[0, 0])
    assert np.abs(direction - p.factor[:, 0]).max() < 1e-9
    for a, b in zip(p.constraints, q.constraints):
        assert a.lower == b.lower and a.upper == b.upper
    # dense reconstructions agree row by row
    for A, B in zip(mats, [q.objective.dense(q.factor)]
                    + [c.term.dense(q.factor) for c in q.constraints]):
        assert np.abs(A - B).max() < 1e-9


def test_sdpa_import_rejects_wrong_pattern_size(tmp_path):
    from splrsdp.sdpa import write_sdpa

    dat = tmp_path / "p.dat-s"
    with open(dat, "w") as fh:
        write_sdpa(fh, 1, [3], [1.0], [(0, 1, 1, 1, 1.0), (1, 1, 1, 1, 1.0)])
    with pytest.raises(ValueError):
        fileio.load_sdpa_problem(str(dat), Graph(2, frozenset()))


def test_dump_is_deterministic_and_rejects_nan():
    d = fileio.problem_to_dict(gen_simex(5))
    buf1, buf2 = io.StringIO(), io.StringIO()
    fileio.dump(d, buf1)
    fileio.dump(d, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    bad = fileio.problem_to_dict(gen_simex(3))
    bad["factor"][0][0] = float("nan")
    with pytest.raises(ValueError):
        fileio.dump(bad, io.StringIO())
