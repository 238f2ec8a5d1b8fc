import contextlib
import copy
import hashlib
import io
import json
import logging
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import splrsdp
from splrsdp import fileio
from splrsdp.chordal_conversion import convert, convert_problem
from splrsdp.cli import _PARSER, run
from splrsdp.completion_rank import bp_bound
from splrsdp.graph_core import Graph, TreeDecomposition
from splrsdp.instances import gen_lb_tree, gen_simex
from splrsdp.sdp_model import FactoredSolution
from splrsdp.sparse_extension import (build_extension, extend_solution,
                                      verify_extension)

from conftest import write_graph


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_gen_convert_solve_recover_files(tmp_path):
    p = tmp_path / "p.json"
    e = tmp_path / "e.json"
    s = tmp_path / "s.json"
    st = tmp_path / "stats.json"
    r = tmp_path / "r.json"
    assert run(["gen", "simex", "-n", "10", "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(e),
                "--report", str(tmp_path / "rep.json")]) == 0
    assert run(["solve", "--in", str(e), "--tol", "1e-9",
                "--max-iter", "20000", "--out", str(s), "--stats", str(st)]) == 0
    assert run(["recover", "--extended-solution", str(s),
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


def test_simex_160_recovers_at_the_default_solver_settings(tmp_path):
    # recover needs the blocks to agree on their overlaps within 1e-3; a
    # solve that halved rho down to 0.0625 here left 1.8e-3 and exit 2
    f = {name: str(tmp_path / name) for name in
         ("p.json", "e.json", "s.json", "r.json")}
    assert run(["gen", "simex", "-n", "160", "--out", f["p.json"]]) == 0
    assert run(["convert", "--in", f["p.json"], "--out", f["e.json"]]) == 0
    assert run(["solve", "--in", f["e.json"], "--out", f["s.json"]]) == 0
    assert run(["recover", "--extended-solution", f["s.json"],
                "--out", f["r.json"]]) == 0
    assert _load(f["r.json"])["residuals"]["feasible_at_1e-4"] is True


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
    assert sorted(map(int, blocks)) == list(range(1, ext.pattern.k + 1))
    for t, Y in blocks.items():
        d = ext.pattern.bag_sizes[int(t) - 1]
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
    cmd = ("splrsdp gen simex -n 8 | splrsdp convert "
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


def test_verify_fails_on_an_extension_with_a_perturbed_factor_row(tmp_path):
    # the extension file's factor fills the accumulator rows, so with one
    # row off they no longer carry the problem's low-rank part to the root
    p, e, v = (tmp_path / name for name in ("p.json", "e.json", "v.json"))
    assert run(["gen", "simex", "-n", "12", "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(e)]) == 0
    d = _load(e)
    d["base"]["factor"][4][0] += 0.25
    fileio.save(d, str(e))
    assert run(["verify", "--problem", str(p), "--extension", str(e),
                "--out", str(v)]) == 1
    rep = _load(v)
    assert rep["ok"] is False
    assert rep["max_value_mismatch"] > 1e-3
    assert rep["max_null_residual"] <= 1e-10


@pytest.mark.parametrize("flag, value", [("--samples", "0"),
                                         ("--samples", "-3")])
def test_verify_refuses_a_check_that_certifies_nothing(tmp_path, capsys,
                                                       flag, value):
    # no sample checks nothing; the parent reported --samples 0 as "ok"
    p, e, v = (tmp_path / name for name in ("p.json", "e.json", "v.json"))
    assert run(["gen", "simex", "-n", "5", "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(e)]) == 0
    capsys.readouterr()
    assert run(["verify", "--problem", str(p), "--extension", str(e), flag,
                value, "--out", str(v)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("splrsdp: invalid input: samples must be")
    assert not v.exists()
    with pytest.raises(ValueError, match="samples must be"):
        verify_extension(fileio.problem_from_dict(_load(p)),
                         fileio.extended_from_dict(_load(e)),
                         samples=int(value))


# removed flags, commands and gen families, each with its usage error
REMOVED_FORMS = [
    (["recover", "--extended-solution", "{s}", "--problem", "{e}"],
     "unrecognized arguments: --problem "),
    (["verify", "--problem", "{p}", "--extension", "{e}", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    (["verify", "--problem", "{p}", "--extension", "{e}", "--tol", "1e-9"],
     "unrecognized arguments: --tol 1e-9"),
    (["reduce", "--in", "{p}"], "argument command: invalid choice: 'reduce'"),
    (["gen", "phi", "--ell", "1"], "argument family: invalid choice: 'phi'"),
]


@pytest.mark.parametrize("argv, message", REMOVED_FORMS,
                         ids=[" ".join(argv) for argv, _ in REMOVED_FORMS])
def test_removed_flags_are_usage_errors(tmp_path, capsys, argv, message):
    # the extension comes only from the solution file, verify draws from a
    # fixed seed and gates at sparse_extension.VERIFY_TOL, and the slice
    # file kind went with reduce and gen phi; the arguments are parsed
    # before any file is read
    files = {name: str(tmp_path / ("%s.json" % name))
             for name in ("p", "e", "s")}
    out = tmp_path / "out.json"
    assert run([a.format(**files) for a in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("splrsdp: error: " + message), err
    assert "Traceback" not in err
    assert not out.exists()


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
    ext = build_extension(simex, replace(path, root=3))
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
    # the embedded extension is the only one recover reads, so a broken
    # embedded tree is bad input
    p = gen_lb_tree(1)
    ext, bs, _ = convert_problem(p)
    R = np.random.default_rng(1).standard_normal((p.n, 2))
    L = extend_solution(ext, FactoredSolution(R)).factor
    blocks = {}
    for t, idx in bs.blocks.items():
        rows = L[[v - 1 for v in idx]]
        blocks[t] = rows @ rows.T
    d = fileio.solution_to_dict(blocks, extended=ext)
    broken = tmp_path / "broken.json"
    d["extended"]["tree"]["bags"]["1"] = []  # vertices left uncovered
    fileio.save(d, str(broken))
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


def test_solve_iteration_cap_returns_numerical_failure(tmp_path, capsys):
    p = tmp_path / "p.json"
    e = tmp_path / "e.json"
    s = tmp_path / "s.json"
    assert run(["gen", "simex", "-n", "10", "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(e)]) == 0
    capsys.readouterr()
    assert run(["solve", "--in", str(e), "--max-iter", "5",
                "--out", str(s), "--stats", str(tmp_path / "st.json")]) == 2
    # reported like every other numerical failure, on the current stderr
    assert capsys.readouterr().err == (
        "splrsdp: numerical failure: solver hit the iteration cap before"
        " the tolerances\n")
    assert _load(tmp_path / "st.json")["converged"] is False
    # the partial solution is still written for inspection
    assert _load(s)["schema"] == fileio.SOLUTION_SCHEMA


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--params", "{f}"]],
                         ids=" ".join)
def test_solve_has_no_seed_and_no_params_file(tmp_path, capsys, flag):
    # the start is fixed and the flags are the one way to set the solver
    p, f, s = (tmp_path / name for name in ("p.json", "f.json", "s.json"))
    assert run(["gen", "simex", "-n", "4", "--out", str(p)]) == 0
    f.write_text('{"rho": 2.0}')
    capsys.readouterr()
    assert run(["solve", "--in", str(p), "--out", str(s)]
               + [a.format(f=f) for a in flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("splrsdp: error: unrecognized arguments: ")
    assert "Traceback" not in err
    assert not s.exists()


@pytest.mark.parametrize("flags", [["--tol", "nan"], ["--rho", "nan"]])
def test_solve_rejects_non_finite_parameters(tmp_path, capsys, flags):
    p = tmp_path / "p.json"
    e = tmp_path / "e.json"
    assert run(["gen", "simex", "-n", "4", "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(e)]) == 0
    assert run(["solve", "--in", str(e), "--out", str(tmp_path / "s.json")]
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


def test_solve_and_export_refuse_an_unconverted_problem(tmp_path, capsys):
    # each command reads one file kind; convert is the one way to lift
    p = tmp_path / "p.json"
    out = tmp_path / "out"
    assert run(["gen", "lb-small", "--ell", "2", "--out", str(p)]) == 0
    for command in ("solve", "export"):
        capsys.readouterr()
        assert run([command, "--in", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "splrsdp: invalid input: not an extended-problem file"
            " (schema 'splr-problem/1')\n")
        assert not out.exists()


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


def test_gen_takes_seed_only_for_families_that_draw_random_numbers(
        tmp_path, capsys):
    out = tmp_path / "p.json"
    for argv in (["lb-tree", "--ell", "1"], ["lb-small", "--ell", "1"],
                 ["lb-padded", "--sigma", "1"]):
        capsys.readouterr()
        assert run(["gen"] + argv + ["--seed", "3", "--out", str(out)]) == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not out.exists()
    assert run(["gen", "lb-tree", "--ell", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "f2f13c062cbf044d5b12b5be34c5e3befee49aa4e6d2e46b30f698f557d844a6"


def test_gen_refuses_a_seed_it_would_ignore(tmp_path, capsys):
    # simex draws only with --random-a, minbisect only without --graph
    graph = tmp_path / "g.txt"
    with open(graph, "w") as fh:
        write_graph(Graph.from_edges(3, [(1, 2), (2, 3)]), fh)
    out = tmp_path / "p.json"
    for argv, why in ((["simex", "-n", "3"], "without --random-a"),
                      (["minbisect", "--graph", str(graph)], "with --graph")):
        capsys.readouterr()
        assert run(["gen"] + argv + ["--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "splrsdp: error: --seed has no effect on gen %s %s\n"
            % (argv[0], why))
        assert not out.exists()
    # without --seed the files are those the default seed 0 gave before
    for argv, digest in (
            (["simex", "-n", "5"], "83e59d76a81b1d1bade9d6b687381cea"
                                   "e6e9a4da89c220503764f9a8ace84be4"),
            (["minbisect", "-n", "8"], "5612fff4fb55794d32088507a520e221"
                                       "08e629b5790301d9c3ac47f81b4942fa")):
        assert run(["gen"] + argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    # where it draws, an explicit --seed 0 is the default
    assert run(["gen", "minbisect", "-n", "8", "--seed", "0",
                "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert run(["gen", "simex", "-n", "5", "--random-a", "--seed", "1",
                "--out", str(out)]) == 0


def test_gen_seed_changes_random_instances(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for seed, path in ((1, a), (2, b)):
        assert run(["gen", "bqp", "-n", "6", "--seed", str(seed), "--eq", "1",
                    "--out", str(path)]) == 0
    assert _load(a)["objective"] != _load(b)["objective"]


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
    prob, ext = tmp_path / "p.json", tmp_path / "e.json"
    assert run(["gen", "simex", "-n", "4", "--out", str(prob)]) == 0
    assert run(["convert", "--in", str(prob), "--out", str(ext)]) == 0
    assert run(["solve", "--in", str(ext), "--threads", "2", "--max-iter",
                "1", "--out", str(tmp_path / "s.json")]) == 1
    assert run(["frobnicate"]) == 1


@pytest.mark.parametrize("command, d, key", [
    ("convert", {"schema": "splr-problem/1", "ell": 0}, "n"),
    ("report", {"schema": "splr-recovered/1"}, "rank"),
], ids=["convert", "report"])
def test_a_missing_key_names_itself(tmp_path, capsys, command, d, key):
    # the bare KeyError printed only "invalid input: 'n'"
    f, out = tmp_path / "f.json", tmp_path / "out.json"
    fileio.save(d, str(f))
    assert run([command, "--in", str(f), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "splrsdp: invalid input: missing key '%s'\n" % key)
    assert not out.exists()


def test_report_reads_each_file_kind_as_the_pipeline_does(tmp_path, capsys,
                                                           simex6_solution):
    # report parsed the files itself and exited 0 on each of these
    p = tmp_path / "p.json"
    assert run(["gen", "minbisect", "-n", "6", "--out", str(p)]) == 0
    prob = _load(p)
    nan_core = copy.deepcopy(prob)
    nan_core["constraints"][0]["core"][0][0] = math.nan
    nan_block = copy.deepcopy(simex6_solution)
    nan_block["blocks"]["2"][0][0] = math.nan
    bare = copy.deepcopy(simex6_solution)
    del bare["extended"]
    # no command writes or reads the slice file kind any more
    slice_file = {"schema": "splr-slice/1", "dim": 1, "mats": [[[1.0]]],
                  "rhs": [1.0], "point": [[1.0]]}
    f, out = tmp_path / "f.json", tmp_path / "out.json"
    for d, command, named in (
            (nan_core, "report", "constraint 1 core has a non-finite entry"),
            (nan_block, "report", "block 2 has a non-finite entry"),
            (bare, "report", "missing key 'extended'"),
            (bare, "recover", "missing key 'extended'"),
            (slice_file, "report",
             "unrecognized file (schema 'splr-slice/1')")):
        f.write_text(json.dumps(d))  # fileio.save refuses NaN
        flag = "--extended-solution" if command == "recover" else "--in"
        capsys.readouterr()
        assert run([command, flag, str(f), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "splrsdp: invalid input: %s\n" % named)
        assert not out.exists()
    # a problem file's pattern is a set of edges, and report counts them
    n_edges = len(prob["pattern_edges"])
    prob["pattern_edges"].append(prob["pattern_edges"][0][::-1])
    fileio.save(prob, str(f))
    assert run(["report", "--in", str(f), "--out", str(out)]) == 0
    assert _load(out)["pattern_edges"] == n_edges


def test_each_run_logs_to_the_stderr_it_is_given(tmp_path, monkeypatch):
    # logging.basicConfig bound one root handler per process, to the stderr
    # of the first run, so a later run's lines went to that stream
    monkeypatch.setenv("SPLR_LOG", "info")
    package = logging.getLogger("splrsdp")
    before = (list(logging.getLogger().handlers), list(package.handlers),
              package.level)
    bufs = [io.StringIO(), io.StringIO()]
    for buf in bufs:
        with contextlib.redirect_stderr(buf):
            assert run(["gen", "simex", "-n", "4",
                        "--out", str(tmp_path / "p.json")]) == 0
    for buf in bufs:
        assert buf.getvalue() == (
            "splrsdp: INFO: generated simex: n=4 ell=1 m=5\n")
    assert (list(logging.getLogger().handlers), list(package.handlers),
            package.level) == before


def _readme_section():
    """The text of README's "Command line" section."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def _readme_commands():
    """The `splrsdp ...` lines of README's "Command line" section, each
    with its continuation lines joined."""
    section = _readme_section()
    return [line.strip() for line in section.replace("\\\n", "").splitlines()
            if line.startswith("    splrsdp ")]


def test_readme_command_lines_run_as_written(tmp_path, monkeypatch):
    # each stage of a pipeline reads the previous stage's output as stdin
    monkeypatch.chdir(tmp_path)
    lines = _readme_commands()
    assert len(lines) == 7
    for line in lines:
        text = ""
        for stage in line.split("|"):
            argv = shlex.split(stage)
            assert argv[0] == "splrsdp", line
            out = io.StringIO()
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            monkeypatch.setattr("sys.stdout", out)
            assert run(argv[1:]) == 0, stage
            text = out.getvalue()
        if "|" in line:
            assert json.loads(text)["rank"] == 2
    rec = _load(tmp_path / "rec.json")
    assert rec["rank"] <= rec["certified_bound"]


def _subparsers(parser, dest):
    """Name -> subparser, of those parser builds for the positional dest."""
    return next(a.choices for a in parser._actions if a.dest == dest)


def test_readme_names_exactly_the_commands_and_families_the_parser_builds():
    # a deleted command or family must leave the docs with the code; a
    # command is named as `splrsdp <command>`, a family as `gen <family>`
    # or as a code span of the "Generators:" sentence, outside the
    # parentheses that describe each family
    section = " ".join(_readme_section().split())
    commands = set(re.findall(r"\bsplrsdp ([a-z][a-z-]*)", section))
    sentence = re.sub(r"\([^()]*\)", "",
                      section.split("Generators:", 1)[1]).split(".", 1)[0]
    families = set(re.findall(r"`([a-z][a-z-]*)`", sentence)) | set(
        re.findall(r"\bgen ([a-z][a-z-]*)", section))
    parsers = _subparsers(_PARSER, "command")
    assert commands == set(parsers)
    assert families == set(_subparsers(parsers["gen"], "family"))


@pytest.mark.parametrize("argv, named", [
    # an infinite bound on the wrong side would read back as a free row
    (["simex", "-n", "3", "--b", "inf"], "constraint 4"),
    (["simex", "-n", "3", "--b=-inf"], "constraint 4"),
    (["simex", "-n", "3", "--b", "nan"], "constraint 4"),
    (["minbisect", "--p-edge", "7"], "--p-edge"),
    (["minbisect", "--p-edge", "-0.1"], "--p-edge"),
    (["bqp", "-n", "4", "--density", "-0.5"], "--density"),
    (["bqp", "-n", "4", "--density", "1.5"], "--density"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_gen_refuses_values_it_cannot_write_as_given(tmp_path, capsys, argv,
                                                     named):
    out = tmp_path / "p.json"
    assert run(["gen"] + argv + ["--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["report"], ["report", "--in", "{bad}"], ["convert", "--in", "-"],
    ["convert", "--in", "{bad}"], ["convert", "--in", "{p}", "--td", "{bad}"],
    ["solve", "--in", "{bad}"],
    ["export", "--in", "{bad}"], ["recover", "--extended-solution", "{bad}"],
    ["verify", "--problem", "{bad}", "--extension", "{e}"],
    ["verify", "--problem", "{p}", "--extension", "{bad}"],
    ["gen", "lb-padded", "--sigma", "1", "--base", "{bad}"],
], ids=" ".join)
def test_json_input_that_is_not_an_object_exits_1(tmp_path, capsys,
                                                  monkeypatch, argv):
    # {p} a problem, {e} its extension and {bad} a list; stdin holds a
    # list too
    files = {name: str(tmp_path / ("%s.json" % name))
             for name in ("p", "e", "bad")}
    assert run(["gen", "simex", "-n", "4", "--out", files["p"]]) == 0
    assert run(["convert", "--in", files["p"], "--out", files["e"]]) == 0
    (tmp_path / "bad.json").write_text("[1, 2]")
    monkeypatch.setattr("sys.stdin", io.StringIO("[1, 2]"))
    argv = [a.format(**files) for a in argv]
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("splrsdp: invalid input: top level must be a JSON"
                          " object, not list")
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("kind, key, value, command", [
    ("p", "objective", [1, 2], "convert"),
    ("e", "base", [1, 2], "report"),
    ("s", "blocks", [1, 2], "recover"),
    ("s", "stats", [1, 2], "recover"),
], ids=lambda v: str(v))
def test_nested_json_value_of_the_wrong_type_exits_1(tmp_path, capsys, kind,
                                                     key, value, command):
    # each of these indexed a list or an int and died with a traceback
    files = {name: str(tmp_path / ("%s.json" % name))
             for name in ("p", "e", "s")}
    assert run(["gen", "simex", "-n", "4", "--out", files["p"]]) == 0
    assert run(["convert", "--in", files["p"], "--out", files["e"]]) == 0
    assert run(["solve", "--in", files["e"], "--out", files["s"]]) == 0
    d = _load(files[kind])
    d[key] = value
    fileio.save(d, files[kind])
    flag = "--extended-solution" if command == "recover" else "--in"
    capsys.readouterr()
    assert run([command, flag, files[kind],
                "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("splrsdp: invalid input: %s must be a JSON" % key)
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("kind, path, value, command, named", [
    ("p", ["n"], [1, 2], "convert", "n must be a number, got [1, 2]"),
    ("p", ["ell"], [1], "convert", "ell must be a number"),
    ("p", ["m"], {"a": 1}, "convert", "m must be a number"),
    ("p", ["constraints", 0, "lower"], [1, 2], "convert",
     "constraint 1 lower must be a number"),
    ("p", ["constraints", 0, "upper"], "x", "convert",
     "constraint 1 upper must be a number"),
    ("p", ["factor"], {"a": 1}, "convert", "factor must be an array of"),
    ("p", ["objective", "core"], [[{"a": 1}]], "convert",
     "core must be an array of"),
    ("s", ["blocks", "1"], [[1, {"a": 1}]], "recover",
     "solution block 1 must be an array of"),
    ("e", ["tree", "root"], [1], "export", "root must be a number"),
    ("e", ["base", "ell"], [1], "report", "ell must be a number"),
], ids=lambda v: str(v))
def test_wrong_typed_json_number_exits_1(tmp_path, capsys, kind, path, value,
                                        command, named):
    # int(), float() and np.asarray raised TypeError on each of these
    _edited_file_exits_1(tmp_path, capsys, kind, path, value, command, named)


def _edited_file_exits_1(tmp_path, capsys, kind, path, value, command, named):
    """Set one value of a generated file; `command` on it exits 1 with an
    input error that starts with `named`."""
    files = {name: str(tmp_path / ("%s.json" % name))
             for name in ("p", "e", "s")}
    assert run(["gen", "simex", "-n", "4", "--out", files["p"]]) == 0
    assert run(["convert", "--in", files["p"], "--out", files["e"]]) == 0
    assert run(["solve", "--in", files["e"], "--out", files["s"]]) == 0
    d = _load(files[kind])
    inner = d
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    fileio.save(d, files[kind])
    flag = "--extended-solution" if command == "recover" else "--in"
    capsys.readouterr()
    assert run([command, flag, files[kind],
                "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("splrsdp: invalid input: %s" % named)
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("kind, path, value, command, named", [
    ("p", ["ell"], 2.9, "convert", "ell must be an integer, got 2.9"),
    ("p", ["n"], "4", "convert", "n must be a number, got '4'"),
    ("p", ["m"], 3.5, "convert", "m must be an integer, got 3.5"),
    ("p", ["constraints", 0, "upper"], "1.0", "convert",
     "constraint 1 upper must be a number, got '1.0'"),
    ("p", ["constraints", 0, "lower"], True, "convert",
     "constraint 1 lower must be a number, got True"),
    ("p", ["factor", 0, 0], "1.0", "convert", "factor must be an array of"),
    ("p", ["factor", 1, 0], False, "convert", "factor must be an array of"),
    ("p", ["objective", "core", 0, 0], True, "convert",
     "core must be an array of"),
    ("p", ["constraints", 0, "sparse_entries", 0, 2], "1.0", "convert",
     "sparse entries must be [i, j, value] triples"),
    ("p", ["ell"], 1.5, "report", "ell must be an integer, got 1.5"),
    ("e", ["tree", "root"], 2.5, "export", "root must be an integer"),
    ("e", ["tree", "nodes", 0], True, "export", "nodes must be a number"),
    ("e", ["base", "n"], "4", "report", "n must be a number, got '4'"),
    ("s", ["blocks", "1", 0, 0], "1", "recover",
     "solution block 1 must be an array of"),
], ids=lambda v: str(v))
def test_json_number_that_the_cast_would_change_exits_1(
        tmp_path, capsys, kind, path, value, command, named):
    # bools, strings and non-integral integers follow the rule AdmmParams
    # applies to a params file; int() and float() took "ell": 2.9 as 2 and
    # the string "1.0" as a bound
    _edited_file_exits_1(tmp_path, capsys, kind, path, value, command, named)


def test_report_counts_m_and_casts_sizes(tmp_path):
    # m is optional in a problem file, which convert takes without it; n
    # and ell are integers however the file writes them
    p, rep = tmp_path / "p.json", tmp_path / "rep.json"
    assert run(["gen", "simex", "-n", "4", "--out", str(p)]) == 0
    d = _load(p)
    m = len(d["constraints"])
    del d["m"]
    d["n"] = 4.0
    fileio.save(d, str(p))
    assert run(["convert", "--in", str(p), "--out", str(tmp_path / "e.json")]) == 0
    assert run(["report", "--in", str(p), "--out", str(rep)]) == 0
    out = _load(rep)
    assert (out["n"], out["ell"], out["m"]) == (4, 1, m)
    assert type(out["n"]) is int


def test_report_of_solution_carries_stats(tmp_path):
    p = tmp_path / "p.json"
    e = tmp_path / "e.json"
    s = tmp_path / "s.json"
    rep = tmp_path / "rep.json"
    assert run(["gen", "simex", "-n", "6", "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(e)]) == 0
    assert run(["solve", "--in", str(e), "--max-iter", "8000",
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


@pytest.mark.parametrize("key, value", [("iterations", math.inf),
                                        ("aa_accepted", math.nan),
                                        ("objective", -math.inf)])
def test_recover_refuses_stats_the_writers_would_refuse(tmp_path, capsys,
                                                         key, value):
    # recover exited 0 on these: it never read the stats
    s, r = _solved_simex(tmp_path), tmp_path / "r.json"
    d = _load(s)
    d["stats"][key] = value
    s.write_text(json.dumps(d))
    capsys.readouterr()
    assert run(["recover", "--extended-solution", str(s),
                "--out", str(r)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("splrsdp: invalid input: solution stats: ")
    assert not r.exists()


def test_report_of_solution_keeps_its_own_keys_over_the_stats(tmp_path):
    # the stats object was copied over the report's own keys, which wrote
    # a report that report then refused ("invalid input: 'n'")
    s, rep = _solved_simex(tmp_path), tmp_path / "rep.json"
    d = _load(s)
    d["stats"].update(schema=fileio.PROBLEM_SCHEMA, kind="oops", blocks=-1)
    fileio.save(d, str(s))
    assert run(["report", "--in", str(s), "--out", str(rep)]) == 0
    out = _load(rep)
    assert (out["schema"], out["kind"], out["blocks"]) == (
        fileio.REPORT_SCHEMA, fileio.SOLUTION_SCHEMA, len(d["blocks"]))
    assert out["iterations"] == d["stats"]["iterations"]
    assert run(["report", "--in", str(rep),
                "--out", str(tmp_path / "rep2.json")]) == 0


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


def test_recover_names_a_block_key_that_is_not_an_integer(tmp_path, capsys):
    s = _solved_simex(tmp_path)
    d = _load(s)
    d["blocks"]["abc"] = d["blocks"].pop("3")
    fileio.save(d, str(s))
    capsys.readouterr()
    assert run(["recover", "--extended-solution", str(s),
                "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "splrsdp: invalid input: solution blocks key 'abc'" in err
    assert "invalid literal" not in err
    assert not (tmp_path / "r.json").exists()


def test_linalg_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError; it must not read as invalid input
    def fail(bs, params):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    p = tmp_path / "p.json"
    e = tmp_path / "e.json"
    assert run(["gen", "simex", "-n", "4", "--out", str(p)]) == 0
    assert run(["convert", "--in", str(p), "--out", str(e)]) == 0
    monkeypatch.setattr("splrsdp.cli.admm_solve", fail)
    capsys.readouterr()
    assert run(["solve", "--in", str(e), "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("splrsdp: numerical failure: Eigenvalues did not")
    assert not (tmp_path / "s.json").exists()


@pytest.fixture(scope="module")
def simex6_solution(tmp_path_factory):
    """gen simex -n 6 | convert | solve --tol 1e-8, as a solution object."""
    d = tmp_path_factory.mktemp("simex6")
    p, e, s = (str(d / name) for name in ("p.json", "e.json", "s.json"))
    assert run(["gen", "simex", "-n", "6", "--out", p]) == 0
    assert run(["convert", "--in", p, "--out", e]) == 0
    assert run(["solve", "--in", e, "--tol", "1e-8", "--out", s]) == 0
    return _load(s)


@pytest.mark.parametrize("block, value", [
    # recover exited 0 on each infinite entry (with max_violation 6.0 at
    # the root), and 0 on a NaN in block 1, which assemble overwrote
    ("1", "inf"), ("root", "inf"), ("1", "nan"),
    # these exited 1 only as a LinAlgError taken for invalid input
    ("3", "nan"), ("root", "nan"),
])
def test_recover_refuses_a_non_finite_solution_block(tmp_path, capsys,
                                                     simex6_solution, block,
                                                     value):
    d = json.loads(json.dumps(simex6_solution))
    if block == "root":
        block = str(d["extended"]["tree"]["root"])
    d["blocks"][block][0][0] = float(value)
    s = tmp_path / "s.json"
    s.write_text(json.dumps(d))  # fileio.save refuses to write NaN
    capsys.readouterr()
    assert run(["recover", "--extended-solution", str(s),
                "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("splrsdp: invalid input: block %s has a non-finite"
                          " entry" % block)
    assert not (tmp_path / "r.json").exists()


@pytest.fixture(scope="module")
def lb_tree2_solution(tmp_path_factory):
    """gen lb-tree --ell 2 | convert | solve, as a solution object."""
    d = tmp_path_factory.mktemp("lbtree2")
    p, e, s = (str(d / name) for name in ("p.json", "e.json", "s.json"))
    assert run(["gen", "lb-tree", "--ell", "2", "--out", p]) == 0
    assert run(["convert", "--in", p, "--out", e]) == 0
    assert run(["solve", "--in", e, "--out", s]) == 0
    return _load(s)


@pytest.mark.parametrize("block, at, value", [
    # block 3 has two children: reduce_block's pinv did not return once
    # the symmetrisation M + M^T overflowed to inf
    ("3", (0, 0), 1e308),
    # assemble's overflow read as a disagreement by nan (root) or inf
    ("4", (0, 0), 1e308), ("1", (0, 0), 1e308),
])
def test_recover_of_a_finite_block_near_the_float_range_exits_2(
        tmp_path, lb_tree2_solution, block, at, value):
    d = json.loads(json.dumps(lb_tree2_solution))
    d["blocks"][block][at[0]][at[1]] = value
    s = tmp_path / "s.json"
    s.write_text(json.dumps(d))
    # a subprocess with a timeout, so that a hang fails instead of stalling
    src = str(Path(splrsdp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "splrsdp.cli", "recover",
                          "--extended-solution", str(s),
                          "--out", str(tmp_path / "r.json")],
                         capture_output=True, text=True, timeout=30, env=env)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("splrsdp: numerical failure: ")
    # the measured value is finite
    assert re.search(r"\b(nan|inf)\b", out.stderr) is None, out.stderr
    assert not (tmp_path / "r.json").exists()


# the numeric extremes and the values of the wrong type one JSON leaf is
# replaced with; JSON text spells NaN and the infinities as Python does
EXTREMES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-300, 0, -1]
WRONG_TYPES = ["1", True, None, [1.0], {"a": 1.0}]
# each command on each file kind it reads, the file last on the command line
EDITED_RUNS = [
    ("problem", ["convert", "--in"]),
    ("problem", ["report", "--in"]),
    ("extended", ["solve", "--max-iter", "50", "--in"]),
    ("extended", ["export", "--in"]),
    ("extended", ["report", "--in"]),
    ("solution", ["recover", "--extended-solution"]),
    ("solution", ["report", "--in"]),
    ("recovered", ["report", "--in"]),
]
# the message class each exit code starts its stderr with
EXIT_MESSAGES = {0: ("",),
                 1: ("splrsdp: invalid input: ", "splrsdp: error: "),
                 2: ("splrsdp: numerical failure: ",)}


def _leaves(d, path=()):
    """The path of every scalar in a JSON value, keys and list indices."""
    if not isinstance(d, (dict, list)):
        yield path
        return
    for k, v in (d.items() if isinstance(d, dict) else enumerate(d)):
        yield from _leaves(v, path + (k,))


def _edits(rng, d):
    """(path, value) pairs for one JSON value: each class of leaves (the
    path with list indices and node-id keys as '*') gets one extreme and
    one wrong type, each at a leaf drawn from the class."""
    classes = {}
    for path in _leaves(d):
        classes.setdefault(tuple("*" if isinstance(k, int) or k.isdigit()
                                 else k for k in path), []).append(path)
    for paths in classes.values():
        for values in (EXTREMES, WRONG_TYPES):
            yield (paths[rng.integers(len(paths))],
                   values[rng.integers(len(values))])


def _with_leaf(d, path, value):
    """A copy of the JSON value d with its leaf at path set to value."""
    d = copy.deepcopy(d)
    node = d
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return d


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """gen | convert | solve --max-iter 50 | recover of a path (simex -n 4)
    and of a tree with two-child nodes (lb-tree --ell 1): file kind ->
    path."""
    out = {}
    for name, gen in (("simex", ["simex", "-n", "4"]),
                      ("lbtree", ["lb-tree", "--ell", "1"])):
        d = tmp_path_factory.mktemp(name)
        files = {kind: str(d / (kind + ".json")) for kind in
                 ("problem", "extended", "solution", "recovered")}
        assert run(["gen", *gen, "--out", files["problem"]]) == 0
        assert run(["convert", "--in", files["problem"],
                    "--out", files["extended"]]) == 0
        assert run(["solve", "--max-iter", "50", "--in", files["extended"],
                    "--out", files["solution"]]) in (0, 2)
        assert run(["recover", "--extended-solution", files["solution"],
                    "--out", files["recovered"]]) == 0
        out[name] = files
    return out


def test_one_edited_json_leaf_keeps_the_exit_code_contract(
        tmp_path, capsys, pipeline_files):
    # exit 1 is bad input and 2 a numerical failure, each with its own
    # message class and neither with a traceback, and a NaN, or an
    # infinity that is no bound on its own side, never exits 0, and an
    # exit 1 leaves no --out file: about 350 runs
    rng = np.random.default_rng(20)
    edited = tmp_path / "edited.json"
    out = tmp_path / "out.json"
    broken = []
    for name, files in sorted(pipeline_files.items()):
        for kind, argv in EDITED_RUNS:
            d = _load(files[kind])
            argv = [a.format(**files) for a in argv] + [
                str(edited), "--out", str(out)]
            for path, value in _edits(rng, d):
                edited.write_text(json.dumps(_with_leaf(d, path, value)))
                out.unlink(missing_ok=True)
                case = "%s %s %s=%r" % (name, argv[0],
                                        "/".join(map(str, path)), value)
                try:
                    # as on the command line, a warning does not stop the
                    # run; the library's own warnings are UserWarnings
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        code = run(argv)
                except Exception as err:  # escaped run: a traceback
                    broken.append("%s raised %r" % (case, err))
                    continue
                broken += ["%s warned %r" % (case, w.message)
                           for w in caught if w.category is not UserWarning]
                err = capsys.readouterr().err
                if code not in EXIT_MESSAGES \
                        or not err.startswith(EXIT_MESSAGES[code]) \
                        or "Traceback" in err:
                    broken.append("%s exited %r with stderr %r"
                                  % (case, code, err[:200]))
                if code == 1 and out.exists():
                    broken.append("%s exited 1 but wrote --out" % case)
                bound = {"lower": -math.inf, "upper": math.inf}.get(path[-1])
                if code == 0 and isinstance(value, float) \
                        and not math.isfinite(value) and value != bound:
                    broken.append("%s exited 0" % case)
    assert not broken, "\n".join(broken)
