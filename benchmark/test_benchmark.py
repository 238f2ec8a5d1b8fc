"""Self-tests of the benchmark's checker, span recorder and seeding.

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

import json

import numpy as np

import splrsdp
import splrsdp.cli  # noqa: F401  (binds splrsdp.cli and splrsdp.fileio)
from checks import (CLI_EXIT, INFEASIBLE, Outcome, check_point,
                    objective_value, unexpected)
from spans import SpanRecorder, patch_package, public_functions, unpatch
from workloads import (LiftOp, cycle_graph, lift_files, lifted_solution,
                       path_decomposition, setup_chain, unit_rows)

pkg = splrsdp


def _small_lift(tmp_path, corrupt_block=False):
    """minbisect on C12 with an exact lifted rank-3 point, as `lift` builds
    it at n=2000; optionally one block of the lifted solution perturbed."""
    n = 12
    p = pkg.gen_min_bisection(cycle_graph(pkg, n))
    half = unit_rows(np.random.default_rng(0), n // 2, 3)
    R = np.vstack([half, -half])
    td = path_decomposition(pkg, [(1, i, i + 1) for i in range(2, n)])
    lifted = lifted_solution(pkg, p, R, td)
    if corrupt_block:
        Y = np.asarray(lifted["blocks"]["1"])
        lifted["blocks"]["1"] = (Y + 0.1 * np.eye(len(Y))).tolist()
    files = lift_files(str(tmp_path), "c12")
    pkg.fileio.save(pkg.fileio.problem_to_dict(p), files["problem"])
    with open(files["lifted"], "w") as fh:
        json.dump(lifted, fh)
    return LiftOp("c12", p, objective_value(p, R), 1e-6, files)


def _run(op):
    state = {}
    op.run(pkg, state, SpanRecorder().span)
    return op.check(state, None)


def test_exact_lift_passes_every_check(tmp_path):
    out = _run(_small_lift(tmp_path))
    assert out.ok, out.reasons
    assert out.rank <= out.bound


def test_perturbed_block_counts_as_failure(tmp_path):
    out = _run(_small_lift(tmp_path, corrupt_block=True))
    assert not out.ok
    assert CLI_EXIT in out.codes
    assert unexpected(out, {}) == out.codes
    assert unexpected(out, {"c12": {CLI_EXIT}}) == set()


def test_corrupted_point_is_infeasible():
    p = pkg.gen_simex(6)
    out = Outcome("simex")
    check_point(out, p, 1.01 * np.eye(6), bound=6, tol=1e-6,
                ref_objective=0.0)
    assert out.codes == {INFEASIBLE}


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 5.0, 9.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    with rec.span("parent"):
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
    assert rec.self_times() == {0: 4.0, 1: 2.0, 2: 4.0}


def test_patch_reaches_names_bound_by_import():
    rec = SpanRecorder()
    wrappers = {getattr(pkg.graph_core, name): rec.wrap("graph_core." + name,
                                                       getattr(pkg.graph_core,
                                                               name))
                for name in public_functions(pkg.graph_core)}
    original = pkg.chordal_conversion.clique_tree
    undo = patch_package("splrsdp", wrappers)
    try:
        with rec.span("convert"):
            pkg.convert_problem(pkg.gen_min_bisection(cycle_graph(pkg, 6)))
    finally:
        unpatch(undo)
    names = [s[0] for s in rec.spans]
    assert "graph_core.clique_tree" in names
    assert "graph_core.chordal_complete" in names
    assert rec.spans[names.index("graph_core.clique_tree")][3] == 0
    assert pkg.chordal_conversion.clique_tree is original


def test_inputs_follow_the_seed():
    def rows(seed):
        return [[sorted(c.sparse.entries.items()) for c in op.problem.constraints]
                for op in setup_chain(pkg, seed, None)]

    assert rows(5) == rows(5)
    assert rows(5) != rows(6)
