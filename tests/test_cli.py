import hashlib
import json
import shutil
import subprocess

import numpy as np
import pytest

from splrsdp import fileio
from splrsdp.chordal_conversion import convert, convert_problem
from splrsdp.cli import run
from splrsdp.completion_rank import bp_bound
from splrsdp.graph_core import (Graph, TreeDecomposition, root_binary,
                                write_graph)
from splrsdp.instances import gen_lb_tree, gen_simex
from splrsdp.sdp_model import FactoredSolution
from splrsdp.sparse_extension import build_extension, extend_solution


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


def test_solve_writes_one_block_per_fine_node(tmp_path):
    # the solver merges parent-child pairs internally; its solution file,
    # the recovered certificate and the export stay those of the fine tree
    f = {name: tmp_path / name for name in
         ("p.json", "e.json", "rep.json", "x.dat-s", "s.json", "r.json")}
    assert run(["gen", "minbisect", "-n", "12", "--seed", "3",
                "--out", str(f["p.json"])]) == 0
    assert run(["convert", "--in", str(f["p.json"]), "--out", str(f["e.json"]),
                "--report", str(f["rep.json"])]) == 0
    assert run(["export", "--in", str(f["e.json"]),
                "--out", str(f["x.dat-s"])]) == 0
    assert hashlib.sha256(f["x.dat-s"].read_bytes()).hexdigest() == (
        "188795f9feb59c433b0105d0e789b8f6ad84421888486b8a3dc8f7f7f495cc49")
    assert run(["solve", "--in", str(f["e.json"]), "--tol", "1e-8",
                "--max-iter", "20000", "--out", str(f["s.json"])]) == 0
    ext = fileio.extended_from_dict(_load(f["e.json"]))
    blocks = _load(f["s.json"])["blocks"]
    assert sorted(map(int, blocks)) == sorted(ext.pattern.ext_bags)
    for t, Y in blocks.items():
        d = len(ext.pattern.ext_bags[int(t)])
        assert np.shape(Y) == (d, d)
    assert run(["recover", "--extended-solution", str(f["s.json"]),
                "--out", str(f["r.json"])]) == 0
    rec = _load(f["r.json"])
    assert rec["mode"] == "tree" and rec["certified_bound"] == 8
    assert rec["rank"] <= rec["certified_bound"]


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


def _save_exact_lift(path, ext, bs, R):
    """Save the exact lift of the point R R^T over ext as a solution file."""
    L = extend_solution(ext, FactoredSolution(R)).factor
    blocks = {t: L[[v - 1 for v in idx]] @ L[[v - 1 for v in idx]].T
              for t, idx in bs.blocks.items()}
    fileio.save(fileio.solution_to_dict(blocks, extended=ext), str(path))


def test_recover_defaults_to_tree_mode_on_a_branching_tree(tmp_path):
    # exact lifts over two rooted trees with a two-child node: the default
    # decomposition of lb-tree, and a path of singleton bags rooted at an
    # inner node, a path unrooted but not rooted
    lb = gen_lb_tree(1)
    ext, bs, _ = convert_problem(lb)
    cases = [(ext, bs, np.random.default_rng(0).standard_normal((lb.n, 2)))]
    # simex with b set so that a point with unit rows is feasible
    n = 6
    R = np.random.default_rng(2).standard_normal((n, 3))
    R /= np.linalg.norm(R, axis=1, keepdims=True)
    simex = gen_simex(n, None, float(np.sum(R.sum(axis=0) ** 2)))
    path = TreeDecomposition(
        nodes=tuple(range(1, n + 1)),
        edges=frozenset((t, t + 1) for t in range(1, n)),
        bags={t: frozenset({t}) for t in range(1, n + 1)})
    ext = build_extension(simex, root_binary(path, root=3))
    cases.append((ext, convert(ext), R))
    for k, (ext, bs, R) in enumerate(cases):
        s = tmp_path / ("s%d.json" % k)
        r = tmp_path / ("r%d.json" % k)
        _save_exact_lift(s, ext, bs, R)
        assert run(["recover", "--extended-solution", str(s),
                    "--out", str(r)]) == 0
        rec = _load(r)
        assert rec["mode"] == "tree"
        assert rec["rank"] <= rec["certified_bound"]
    # width 0 and ell 1 on the inner-rooted path
    assert rec["certified_bound"] == bp_bound(1) + 1
    assert rec["residuals"]["feasible_at_1e-4"]


def test_recover_problem_replaces_a_broken_embedded_extension(tmp_path):
    # the embedded extension is not built when --problem supplies one, so
    # a broken embedded tree no longer fails the run
    p = gen_lb_tree(1)
    ext, bs, _ = convert_problem(p)
    R = np.random.default_rng(1).standard_normal((p.n, 2))
    L = extend_solution(ext, FactoredSolution(R)).factor
    blocks = {}
    for t, idx in bs.blocks.items():
        rows = L[[v - 1 for v in idx]]
        blocks[t] = rows @ rows.T
    d = fileio.solution_to_dict(blocks, extended=ext)
    good, broken, e = (tmp_path / x for x in ("good.json", "broken.json",
                                              "e.json"))
    fileio.save(d, str(good))
    d["extended"]["tree"]["bags"]["1"] = []  # vertices left uncovered
    fileio.save(d, str(broken))
    fileio.save(fileio.extended_to_dict(ext), str(e))
    outs = []
    for sol in (good, broken):
        out = tmp_path / ("r-%s" % sol.name)
        assert run(["recover", "--extended-solution", str(sol), "--problem",
                    str(e), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # without --problem the broken embedded extension is bad input
    assert run(["recover", "--extended-solution", str(broken),
                "--out", str(tmp_path / "r.json")]) == 1


# sha256 of the files `gen minbisect -n 40 --seed 5 | convert | export`
# writes; a change to any byte of the file layer shows here
GOLDEN_SHA256 = {
    "ext.json":
        "77cfe32a224cba59a47e167fdb21c85994c7437664e3b2b99ec1bae4b71d28f5",
    "conv.json":
        "762b3a276206bc3691a0d20ee783814fefc3153fab1d7e5e2f55312a696e3557",
    "prob.dat-s":
        "06a3bed5630987ac97c5acbda612c946e3bdcf7d61935306375993c0d0dfcb74",
}


def test_convert_and_export_files_are_byte_stable(tmp_path):
    f = {name: tmp_path / name for name in GOLDEN_SHA256}
    p = tmp_path / "p.json"
    assert run(["gen", "minbisect", "-n", "40", "--seed", "5",
                "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(f["ext.json"]),
                "--report", str(f["conv.json"])]) == 0
    assert run(["export", "--in", str(f["ext.json"]), "--out",
                str(f["prob.dat-s"])]) == 0
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest()
           for name, path in f.items()}
    assert got == GOLDEN_SHA256


@pytest.mark.parametrize("breakage", ["outside", "non-integer", "m", "core",
                                      "edge-outside", "edge-loop",
                                      "edge-non-integer", "lower-nan",
                                      "lower-above-upper", "sparse-nan",
                                      "factor-nan", "core-nan",
                                      "core-asymmetric"])
def test_malformed_problem_rows_exit_1(tmp_path, capsys, breakage):
    # an asymmetric core needs ell >= 2
    d = fileio.problem_to_dict(gen_lb_tree(2 if breakage == "core-asymmetric"
                                           else 1))
    row = d["constraints"][2]
    edge = {"edge-outside": [0, 9], "edge-loop": [3, 3],
            "edge-non-integer": [2, 1.5]}.get(breakage)
    if edge is not None:
        d["pattern_edges"].append(edge)
    elif breakage == "outside":
        row["sparse_entries"].append([1, d["n"] + 1, 1.0])
    elif breakage == "non-integer":
        row["sparse_entries"].append([1.5, 2, 1.0])
    elif breakage == "m":
        d["m"] += 1
    elif breakage == "lower-nan":
        row["lower"] = float("nan")
    elif breakage == "lower-above-upper":
        row["lower"], row["upper"] = 2.0, 1.0
    elif breakage == "sparse-nan":
        row["sparse_entries"][0][2] = float("nan")
    elif breakage == "factor-nan":
        d["factor"][0][0] = float("nan")
    elif breakage == "core-nan":
        row["core"][0][0] = float("nan")
    elif breakage == "core-asymmetric":
        row["core"][0][1] += 1.0
    else:
        row["core"] = [[1.0, 0.0]]
    bad = tmp_path / "bad.json"
    # fileio.save refuses NaN, so the file is written as raw JSON text
    bad.write_text(json.dumps(d))
    out = tmp_path / "e.json"
    assert run(["convert", "--in", str(bad), "--out", str(out)]) == 1
    assert "invalid input" in capsys.readouterr().err
    assert not out.exists()


def test_convert_path_mode_only_checks_the_shape(tmp_path, capsys):
    # conv.json's path_mode reports whether convert's rooted tree is a path,
    # and recover reads the same shape to pick its mode and certificate
    band = {(i, i + 1) for i in range(1, 10)} | {(i, i + 2) for i in range(1, 9)}
    star = {(1, j) for j in range(2, 8)} | {(2, 9), (3, 8)}
    for name, g, is_path in (("band", Graph.from_edges(10, band), True),
                             ("simex", None, True),
                             ("star", Graph.from_edges(9, star), False)):
        p = tmp_path / ("%s.json" % name)
        c = tmp_path / ("%s-c.json" % name)
        if g is None:
            argv = ["simex", "-n", "12"]
        else:
            gfile = tmp_path / ("%s.txt" % name)
            with open(gfile, "w") as fh:
                write_graph(g, fh)
            argv = ["minbisect", "--graph", str(gfile)]
        assert run(["gen"] + argv + ["--out", str(p)]) == 0
        assert run(["convert", "--in", str(p), "--out",
                    str(tmp_path / ("%s-e.json" % name)), "--report",
                    str(c)]) == 0
        assert _load(c)["path_mode"] is is_path
        # exact lift over the same decomposition
        prob = fileio.problem_from_dict(_load(p))
        ext, bs, rep = convert_problem(prob)
        s = tmp_path / ("%s-s.json" % name)
        r = tmp_path / ("%s-r.json" % name)
        R = np.random.default_rng(1).standard_normal((prob.n, 2))
        _save_exact_lift(s, ext, bs, R)
        assert run(["recover", "--extended-solution", str(s),
                    "--out", str(r)]) == 0
        rec = _load(r)
        assert rec["mode"] == ("path" if is_path else "tree")
        extra = prob.ell if is_path else bp_bound(prob.ell)
        assert rec["certified_bound"] == rep["width_before"] + extra + 1
    # the flags that restated the shape are gone: usage errors, exit 1
    capsys.readouterr()
    assert run(["convert", "--in", str(p), "--path-mode"]) == 1
    assert run(["recover", "--extended-solution", str(s), "--mode",
                "path"]) == 1
    err = capsys.readouterr().err
    assert err.count("unrecognized arguments") == 2


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


def _solved_simex(tmp_path):
    """gen simex -n 5 | convert | solve, as files; returns the solution's."""
    p, e, s = (tmp_path / name for name in ("p.json", "e.json", "s.json"))
    assert run(["gen", "simex", "-n", "5", "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(e)]) == 0
    assert run(["solve", "--in", str(e), "--out", str(s)]) == 0
    return s


@pytest.mark.parametrize("edit, named", [("drop", "no block 3"),
                                         ("add", "block 99")])
def test_recover_refuses_block_ids_off_the_tree(tmp_path, capsys, edit, named):
    s = _solved_simex(tmp_path)
    d = _load(s)
    assert "3" in d["blocks"] and "99" not in d["blocks"]
    if edit == "drop":
        del d["blocks"]["3"]
    else:
        d["blocks"]["99"] = d["blocks"]["3"]
    fileio.save(d, str(s))
    capsys.readouterr()
    assert run(["recover", "--extended-solution", str(s),
                "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "splrsdp: invalid input: block solution has %s" % named in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("params, named", [
    ('{"tol_primal": null}', "tol_primal"),
    ('{"rho": [1]}', "rho"),
    ('{"max_iter": 1e400}', "max_iter"),
    ("[1, 2]", "must be a JSON object"),
])
def test_solve_rejects_malformed_params_files(tmp_path, capsys, params, named):
    p = tmp_path / "p.json"
    assert run(["gen", "simex", "-n", "5", "--out", str(p)]) == 0
    (tmp_path / "par.json").write_text(params)
    capsys.readouterr()
    assert run(["solve", "--in", str(p), "--params", str(tmp_path / "par.json"),
                "--out", str(tmp_path / "s.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("splrsdp: invalid input: ")
    assert named in err
    assert "Traceback" not in err
