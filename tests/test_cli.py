import json
import shutil
import subprocess

import numpy as np
import pytest

from splrsdp import fileio
from splrsdp.chordal_conversion import convert_problem
from splrsdp.cli import run
from splrsdp.graph_core import Graph, write_graph
from splrsdp.instances import gen_lb_tree, gen_simex
from splrsdp.sdp_model import FactoredSolution
from splrsdp.sparse_extension import extend_solution


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_gen_convert_solve_recover_files(tmp_path):
    p = tmp_path / "p.json"
    e = tmp_path / "e.json"
    s = tmp_path / "s.json"
    st = tmp_path / "stats.json"
    r = tmp_path / "r.json"
    assert run(["gen", "simex", "-n", "10", "--seed", "7",
                "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(e),
                "--report", str(tmp_path / "rep.json")]) == 0
    assert run(["solve", "--in", str(e), "--tol", "1e-9",
                "--max-iter", "20000", "--out", str(s), "--stats", str(st)]) == 0
    assert run(["recover", "--extended-solution", str(s), "--problem", str(e),
                "--out", str(r)]) == 0
    rec = _load(r)
    assert rec["schema"] == fileio.RECOVERED_SCHEMA
    assert rec["mode"] == "path"
    assert rec["rank"] <= 2
    assert rec["rank"] <= rec["certified_bound"]
    assert rec["residuals"]["max_violation"] < 1e-5
    stats = _load(st)
    assert stats["converged"] is True
    rep = _load(tmp_path / "rep.json")
    assert rep["schema"] == fileio.REPORT_SCHEMA
    assert rep["n_hat"] == rep["n"] + rep["k"] * rep["ell"]


def test_shell_pipeline_matches_the_documented_flow(tmp_path):
    exe = shutil.which("splrsdp")
    if exe is None:
        pytest.skip("entry point not installed")
    cmd = ("splrsdp gen simex -n 8 --seed 7 | splrsdp convert "
           "| splrsdp solve --tol 1e-8 --max-iter 10000 | splrsdp recover "
           "| splrsdp report")
    out = subprocess.run(cmd, shell=True, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)
    assert rep["rank"] <= 2


def test_convert_without_low_rank_part_is_identity_width(tmp_path):
    # no factor columns: conversion adds no vertices, width stays put
    p = tmp_path / "p.json"
    rep = tmp_path / "rep.json"
    assert run(["gen", "bqp", "-n", "5", "--seed", "1", "--out", str(p)]) == 0
    assert _load(p)["ell"] == 0
    assert run(["convert", "--in", str(p), "--out", str(tmp_path / "e.json"),
                "--report", str(rep)]) == 0
    d = _load(rep)
    assert d["width_after"] == d["width_before"]
    assert d["n_hat"] == d["n"]


def test_verify_passes_on_matching_pair_and_fails_on_mismatch(tmp_path):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    ea = tmp_path / "ea.json"
    assert run(["gen", "simex", "-n", "6", "--out", str(pa)]) == 0
    assert run(["gen", "minbisect", "-n", "6", "--seed", "2",
                "--out", str(pb)]) == 0
    assert run(["convert", "--in", str(pa), "--out", str(ea)]) == 0
    assert run(["verify", "--problem", str(pa), "--extension", str(ea),
                "--samples", "25", "--out", str(tmp_path / "v.json")]) == 0
    assert _load(tmp_path / "v.json")["ok"] is True
    # lifting through the wrong problem's extension must be caught
    assert run(["verify", "--problem", str(pb), "--extension", str(ea),
                "--samples", "25", "--out", str(tmp_path / "w.json")]) == 1
    assert _load(tmp_path / "w.json")["ok"] is False


def test_recover_defaults_to_tree_mode_on_a_branching_tree(tmp_path):
    # exact lift of a random point over the default decomposition of lb-tree,
    # whose rooted tree has a two-child node
    p = gen_lb_tree(1)
    ext, bs, _ = convert_problem(p)
    R = np.random.default_rng(0).standard_normal((p.n, 2))
    L = extend_solution(ext, FactoredSolution(R)).factor
    blocks = {}
    for t, idx in bs.blocks.items():
        rows = L[[v - 1 for v in idx]]
        blocks[t] = rows @ rows.T
    s = tmp_path / "s.json"
    r = tmp_path / "r.json"
    fileio.save(fileio.solution_to_dict(blocks, extended=ext), str(s))
    assert run(["recover", "--extended-solution", str(s), "--out", str(r)]) == 0
    rec = _load(r)
    assert rec["mode"] == "tree"
    assert rec["rank"] <= rec["certified_bound"]


def test_solve_iteration_cap_returns_numerical_failure(tmp_path):
    p = tmp_path / "p.json"
    e = tmp_path / "e.json"
    s = tmp_path / "s.json"
    assert run(["gen", "simex", "-n", "10", "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(e)]) == 0
    assert run(["solve", "--in", str(e), "--max-iter", "5",
                "--out", str(s), "--stats", str(tmp_path / "st.json")]) == 2
    assert _load(tmp_path / "st.json")["converged"] is False
    # the partial solution is still written for inspection
    assert _load(s)["schema"] == fileio.SOLUTION_SCHEMA


@pytest.mark.parametrize("flags", [["--tol", "nan"], ["--rho", "nan"],
                                   ["--params", "nan.json"]])
def test_solve_rejects_non_finite_parameters(tmp_path, capsys, flags):
    p = tmp_path / "p.json"
    assert run(["gen", "simex", "-n", "4", "--out", str(p)]) == 0
    # json.load accepts the NaN literal, so a params file can carry one
    (tmp_path / "nan.json").write_text('{"rho": NaN}')
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    assert run(["solve", "--in", str(p), "--out", str(tmp_path / "s.json")]
               + flags) == 1
    err = capsys.readouterr().err
    assert "invalid input" in err
    assert ("tol_primal" if "--tol" in flags else "rho") in err


def test_recover_of_unconverged_solve_is_a_numerical_failure(tmp_path, capsys):
    # blocks that still disagree on their overlaps are solver noise, not a
    # malformed input
    p = tmp_path / "p.json"
    e = tmp_path / "e.json"
    s = tmp_path / "s.json"
    assert run(["gen", "simex", "-n", "10", "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(e)]) == 0
    assert run(["solve", "--in", str(e), "--max-iter", "5",
                "--out", str(s)]) == 2
    capsys.readouterr()
    assert run(["recover", "--extended-solution", str(s),
                "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: blocks disagree on shared entries" in err


def test_recover_of_indefinite_block_is_a_numerical_failure(tmp_path, capsys):
    # exact lift of simex n=10, then the diagonal entry of an index held by
    # one block only set to -5: that bag is no longer PSD
    p = gen_simex(10)
    ext, bs, _ = convert_problem(p)
    R = np.random.default_rng(0).standard_normal((p.n, 2))
    L = extend_solution(ext, FactoredSolution(R)).factor
    blocks = {}
    for t, idx in bs.blocks.items():
        rows = L[[v - 1 for v in idx]]
        blocks[t] = rows @ rows.T
    held = [v for idx in bs.blocks.values() for v in idx]
    v = min(u for u in held if held.count(u) == 1)
    t = next(t for t, idx in bs.blocks.items() if v in idx)
    a = bs.blocks[t].index(v)
    blocks[t][a, a] = -5.0
    s = tmp_path / "s.json"
    fileio.save(fileio.solution_to_dict(blocks, extended=ext), str(s))
    assert run(["recover", "--extended-solution", str(s),
                "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: bag %d submatrix has eigenvalue" % t in err


def test_solve_accepts_unconverted_problem(tmp_path):
    p = tmp_path / "p.json"
    s = tmp_path / "s.json"
    assert run(["gen", "lb-small", "--ell", "2", "--out", str(p)]) == 0
    assert run(["solve", "--in", str(p), "--tol", "1e-8",
                "--max-iter", "5000", "--out", str(s)]) == 0
    blocks, stats, ext = fileio.solution_from_dict(_load(s))
    assert stats["converged"] is True
    assert ext is not None


def test_export_writes_sdpa_text(tmp_path):
    p = tmp_path / "p.json"
    e = tmp_path / "e.json"
    out = tmp_path / "prob.dat-s"
    assert run(["gen", "simex", "-n", "5", "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(e)]) == 0
    assert run(["export", "--in", str(e), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert int(lines[0]) > 0  # constraint count
    assert int(lines[1]) > 0  # block count


def test_gen_minbisect_from_graph_file(tmp_path):
    gfile = tmp_path / "g.txt"
    with open(gfile, "w") as fh:
        write_graph(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), fh)
    p = tmp_path / "p.json"
    assert run(["gen", "minbisect", "--graph", str(gfile), "--out", str(p)]) == 0
    d = _load(p)
    assert d["n"] == 4
    assert [1, 2] in d["pattern_edges"]


def test_gen_seed_changes_random_instances(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for seed, path in ((1, a), (2, b)):
        assert run(["gen", "bqp", "-n", "6", "--seed", str(seed), "--eq", "1",
                    "--out", str(path)]) == 0
    assert _load(a)["objective"] != _load(b)["objective"]


def test_reduce_cli_hits_the_constraint_bound(tmp_path):
    f = tmp_path / "phi.json"
    out = tmp_path / "red.json"
    assert run(["gen", "phi", "--ell", "1", "--out", str(f)]) == 0
    assert run(["reduce", "--in", str(f), "--out", str(out)]) == 0
    d = _load(out)
    assert d["rank"] <= d["bound"]


def test_bad_inputs_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["report", "--in", str(bad)]) == 1
    ok = tmp_path / "ok.json"
    ok.write_text('{"schema": "mystery/9"}')
    assert run(["report", "--in", str(ok)]) == 1
    assert run(["convert", "--in", str(tmp_path / "missing.json")]) == 1
    assert run(["gen"]) == 1  # family required
    # --threads was removed; on a valid input it is a usage error, not a
    # capped solve (which would exit 2)
    prob = tmp_path / "p.json"
    assert run(["gen", "simex", "-n", "4", "--out", str(prob)]) == 0
    assert run(["solve", "--in", str(prob), "--threads", "2", "--max-iter",
                "1", "--out", str(tmp_path / "s.json")]) == 1
    assert run(["frobnicate"]) == 1


def test_report_of_solution_carries_stats(tmp_path):
    p = tmp_path / "p.json"
    s = tmp_path / "s.json"
    rep = tmp_path / "rep.json"
    assert run(["gen", "simex", "-n", "6", "--out", str(p)]) == 0
    assert run(["solve", "--in", str(p), "--max-iter", "8000",
                "--out", str(s)]) == 0
    assert run(["report", "--in", str(s), "--out", str(rep)]) == 0
    d = _load(rep)
    assert d["kind"] == fileio.SOLUTION_SCHEMA
    assert d["converged"] is True and d["iterations"] > 0
