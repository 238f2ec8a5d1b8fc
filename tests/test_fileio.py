import io
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from splrsdp import fileio
from splrsdp.chordal_conversion import convert, convert_problem
from splrsdp.cli import run
from splrsdp.graph_core import Graph
from splrsdp.instances import (gen_bqp_relaxation, gen_lb_tree,
                               gen_min_bisection, gen_phi_witness, gen_simex)
from splrsdp.solver import AdmmParams, SolveStats

from conftest import random_splr_problem, random_valid_td


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


def test_problem_with_a_nan_bound_is_refused_before_writing(tmp_path):
    p = gen_simex(5)
    p.constraints[0] = replace(p.constraints[0], lower=float("nan"))
    path = tmp_path / "p.json"
    with pytest.raises(ValueError, match="constraint 1 has a NaN bound"):
        fileio.save(fileio.problem_to_dict(p), str(path))
    assert not path.exists()


def test_problem_schema_and_m_guards():
    with pytest.raises(ValueError):
        fileio.problem_from_dict({"schema": "nope"})
    d = fileio.problem_to_dict(gen_simex(4))
    d["m"] = 99
    with pytest.raises(ValueError):
        fileio.problem_from_dict(d)


def test_problem_dict_roundtrip_is_identity():
    rng = np.random.default_rng(3)
    probs = [
        gen_simex(7, rng.normal(size=7) + 2.0),
        gen_min_bisection(Graph.from_edges(6, [(1, 2), (2, 3), (3, 6), (1, 5),
                                                (4, 5)])),
        gen_bqp_relaxation(np.eye(3), np.ones(3), np.ones((1, 3)), np.ones(1),
                           binary_set=(1, 2)),
        gen_lb_tree(2),
        random_splr_problem(rng, 9, 0),
        random_splr_problem(rng, 9, 2),
    ]
    for p in probs:
        d = _rt(fileio.problem_to_dict(p))
        assert fileio.problem_to_dict(fileio.problem_from_dict(d)) == d


def test_pattern_edges_are_checked_on_load():
    # one broken edge added to the output of `gen simex -n 5`
    for edge, match in (([0, 9], r"edge \[0, 9\] outside 1\.\.5"),
                        ([3, 3], r"edge \[3, 3\] is a self-loop"),
                        ([2, 1.5], r"edge \[2, 1\.5\] has a non-integer"),
                        ([1, 2, 3], "pairs"), (["x", 1], "pairs")):
        d = _rt(fileio.problem_to_dict(gen_simex(5)))
        d["pattern_edges"].append(edge)
        with pytest.raises(ValueError, match=match):
            fileio.problem_from_dict(d)
    # reversed and float-valued edges load as (min, max) Python ints
    d["pattern_edges"] = [[4, 2], [1.0, 2]]
    edges = fileio.problem_from_dict(d).pattern.edges
    assert edges == {(2, 4), (1, 2)}
    assert all(type(v) is int for e in edges for v in e)


@pytest.mark.parametrize("argv", [["simex", "-n", "7"],
                                  ["minbisect", "-n", "9", "--seed", "3"],
                                  ["bqp", "-n", "6", "--eq", "2"],
                                  ["lb-tree", "--ell", "2"],
                                  ["lb-padded", "--sigma", "2"]])
def test_generated_problems_round_trip_unchanged(tmp_path, argv):
    path = tmp_path / "p.json"
    assert run(["gen"] + argv + ["--out", str(path)]) == 0
    d = fileio.load(str(path))
    assert fileio.problem_to_dict(fileio.problem_from_dict(d)) == d


def test_problem_rows_sum_repeated_entries_in_file_order():
    d = fileio.problem_to_dict(gen_simex(4))
    d["pattern_edges"] = [[1, 3], [2, 4]]
    d["objective"]["sparse_entries"] = [[3, 1, 0.5], [2, 2, -0.0],
                                        [1, 3, 0.25], [2.0, 4, 1.0]]
    sp = fileio.problem_from_dict(d).objective.sparse
    # keys in order of first entry; -0.0 comes out as 0.0 + -0.0 = 0.0
    assert list(sp.entries.items()) == [((1, 3), 0.75), ((2, 2), 0.0),
                                        ((2, 4), 1.0)]
    assert all(type(i) is int and type(j) is int for i, j in sp.entries)
    assert str(sp.entries[(2, 2)]) == "0.0"


@pytest.mark.parametrize("where", ["objective", "constraint"])
def test_problem_rows_reject_bad_entries(where):
    def broken(entry=None, core=None):
        d = fileio.problem_to_dict(gen_lb_tree(1))
        row = d["objective"] if where == "objective" else d["constraints"][-1]
        if entry is not None:
            row["sparse_entries"] = row["sparse_entries"] + [entry]
        if core is not None:
            row["core"] = core
        return d

    n = gen_lb_tree(1).n
    for entry, match in (([0, 1, 1.0], "outside 1..%d" % n),
                         ([1, n + 1, 1.0], "outside 1..%d" % n),
                         ([2.5, 1, 1.0], "non-integer"),
                         (["x", 1, 1.0], "triples"),
                         ([1, 2], "triples")):
        with pytest.raises(ValueError, match=match):
            fileio.problem_from_dict(broken(entry=entry))
    for core in ([[1.0, 2.0]], [[1.0], [2.0]], [[1.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError):
            fileio.problem_from_dict(broken(core=core))


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
        for name in ("bag_verts", "bag_sizes", "held", "owner"):
            assert np.array_equal(getattr(back.pattern, name),
                                  getattr(ext.pattern, name))
        assert back.pattern.td.bags == ext.pattern.td.bags
        for t in ext.a_mats:
            assert np.array_equal(back.a_mats[t], ext.a_mats[t])
        # the rebuilt extension drives the same block problem
        bs2 = convert(back)
        assert bs2.blocks == bs.blocks
        assert np.array_equal(bs2.bounds, bs.bounds)


def test_slice_roundtrip():
    sl = gen_phi_witness(2)
    back = fileio.slice_from_dict(_rt(fileio.slice_to_dict(sl)))
    assert len(back.mats) == len(sl.mats)
    for A, B in zip(sl.mats, back.mats):
        assert np.array_equal(A, B)
    assert np.array_equal(back.point, sl.point)
    assert np.array_equal(back.rhs, sl.rhs)


def test_solution_roundtrip_with_stats_and_problem():
    p = gen_simex(6)
    ext, bs, _ = convert_problem(p)
    blocks = {t: np.eye(len(bs.blocks[t])) for t in bs.blocks}
    st = SolveStats(iterations=12, primal_residual=1e-9, dual_residual=2e-9,
                    objective=0.5, block_ranks={t: 1 for t in blocks},
                    rho=2.0, converged=True, aa_accepted=9, aa_rejected=2)
    d = _rt(fileio.solution_to_dict(blocks, st, extended=ext))
    back, stats, ext2 = fileio.solution_from_dict(d)
    assert set(back) == set(blocks)
    for t in blocks:
        assert np.array_equal(back[t], blocks[t])
    assert stats["iterations"] == 12 and stats["converged"] is True
    assert stats["aa_accepted"] == 9 and stats["aa_rejected"] == 2
    assert ext2 is not None
    assert np.array_equal(ext2.pattern.bag_verts, ext.pattern.bag_verts)
    assert np.array_equal(ext2.pattern.bag_sizes, ext.pattern.bag_sizes)


def test_params_defaults_and_unknown_keys():
    par = fileio.params_from_dict({"rho": 3.0})
    assert par.rho == 3.0
    assert par.max_iter == AdmmParams().max_iter
    with pytest.raises(ValueError):
        fileio.params_from_dict({"rho": 1.0, "momentum": 0.9})
    # the thread-pool option is gone; old params files naming it are refused
    with pytest.raises(ValueError):
        fileio.params_from_dict({"threads": 2})
    back = fileio.params_from_dict(_rt(asdict(
        AdmmParams(rho=0.5, max_iter=42, seed=3))))
    assert back.rho == 0.5 and back.max_iter == 42
    assert back.seed == 3


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
