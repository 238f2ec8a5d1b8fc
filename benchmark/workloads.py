"""The benchmark's workloads: seeded inputs and the operations run on them.

An operation carries one instance through its whole chain.  `chain` and
`wide` drive the library (convert_problem -> admm_solve ->
recover_low_rank -> is_feasible); `lift` drives `splrsdp.cli.run` with
files (convert, verify, export, recover from an exact lifted solution,
report) and never calls the solver.

The workload seed fixes the order of every problem's constraint rows, which
the program's answer must not depend on, and the random data of `lift` (the
banded graph and the known feasible points).  The program sees only the
generated problems and files.

Package functions are looked up on the module objects at call time, so the
traced run sees the wrapped names.
"""

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from checks import (CLI_EXIT, EXCEPTION, INFEASIBLE, NOT_CONVERGED,
                    RANK_ABOVE_BOUND, VERIFY_FAILED, Outcome, check_point,
                    objective_value)

# Operations of `wide` that fail on the code this benchmark was first run
# against, with the checks they fail.  They stay in the workload and count
# as failed; only a failure outside these codes makes the run incorrect.
WIDE_KNOWN_DEFECTS = {
    "minbisect-n12-s3": {NOT_CONVERGED, INFEASIBLE},
    "lb-tree-l2": {RANK_ABOVE_BOUND},
    "lb-tree-l3": {RANK_ABOVE_BOUND},
    "simex-n10": {INFEASIBLE},
}

# the feasibility and objective tolerance each workload states
TOL = {"chain": 1e-4, "wide": 1e-4, "lift": 1e-6}


def shuffled_rows(p, rng):
    """The same problem with its constraint rows in a seeded order."""
    order = rng.permutation(len(p.constraints))
    return replace(p, constraints=[p.constraints[i] for i in order])


def cycle_graph(pkg, n):
    return pkg.Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def cycle_bisection_optimum(n):
    """min <L, X> over X PSD, diag(X) = 1, <ee^T, X> = 0 on the cycle C_n:
    n times the second Laplacian eigenvalue, reached by the rank-two
    circular embedding."""
    return n * (2.0 - 2.0 * math.cos(2.0 * math.pi / n))


@dataclass
class SolveOp:
    """Library chain on one instance; `ref_objective` None means the
    solver's own objective is the reference."""

    name: str
    problem: object
    params: object
    tol: float
    ref_objective: float = None

    def run(self, pkg, state, span):
        ext, bs, _ = pkg.convert_problem(self.problem)
        state["bs"] = bs
        blocks, stats = pkg.admm_solve(bs, self.params)
        state["stats"] = stats
        td = ext.pattern.td
        mode = "tree" if any(len(td.children(t)) == 2 for t in td.nodes) \
            else "path"
        sol, info = pkg.recover_low_rank(blocks, ext, bs, mode=mode,
                                         overlap_tol=1e-3, psd_tol=1e-4)
        pkg.is_feasible(self.problem, sol, tol=self.tol)
        state["recovered"] = (sol.factor, info["certified_bound"])

    def check(self, state, error):
        out = Outcome(self.name)
        stats = state.get("stats")
        if stats is not None:
            out.iterations = stats.iterations
            out.converged = stats.converged
            if not stats.converged:
                out.fail(NOT_CONVERGED, "%d iterations, residuals %.2e/%.2e"
                         % (stats.iterations, stats.primal_residual,
                            stats.dual_residual))
        if error is not None:
            out.fail(EXCEPTION, "%s: %s" % (type(error).__name__, error))
        if "recovered" in state:
            R, bound = state["recovered"]
            ref = stats.objective if self.ref_objective is None \
                else self.ref_objective
            check_point(out, self.problem, R, bound, self.tol, ref)
        return out

    def probe(self, pkg, state):
        """Solver set-up cost: one admm_solve capped at a single iteration."""
        pkg.admm_solve(state["bs"], replace(self.params, max_iter=1))


@dataclass
class LiftOp:
    """CLI chain on one instance through files in `workdir`."""

    name: str
    problem: object
    point_objective: float
    tol: float
    files: dict = field(default_factory=dict)

    def steps(self):
        f = self.files
        return [
            ("convert", ["convert", "--in", f["problem"], "--out", f["ext"],
                         "--report", f["conv"]]),
            ("verify", ["verify", "--problem", f["problem"], "--extension",
                        f["ext"], "--samples", "1", "--out", f["verify"]]),
            ("export", ["export", "--in", f["ext"], "--out", f["sdpa"]]),
            ("recover", ["recover", "--extended-solution", f["lifted"],
                         "--out", f["recovered"]]),
            ("report", ["report", "--in", f["recovered"], "--out",
                        f["report"]]),
        ]

    def run(self, pkg, state, span):
        for step, argv in self.steps():
            with span("cli." + step):
                state[step] = pkg.cli.run(argv)

    def check(self, state, error):
        out = Outcome(self.name)
        if error is not None:
            out.fail(EXCEPTION, "%s: %s" % (type(error).__name__, error))
        for step, _ in self.steps():
            rc = state.get(step)
            if rc is not None and rc != 0:
                out.fail(CLI_EXIT, "%s exited %d" % (step, rc))
        if state.get("verify") == 0:
            with open(self.files["verify"]) as fh:
                if not json.load(fh)["ok"]:
                    out.fail(VERIFY_FAILED, "verify report is not ok")
        if state.get("recover") == 0:
            with open(self.files["recovered"]) as fh:
                rec = json.load(fh)
            check_point(out, self.problem, np.asarray(rec["factor"]),
                        rec["certified_bound"], self.tol,
                        self.point_objective)
        return out


def _solve_ops(pkg, rng, specs, params, tol):
    return [SolveOp(name, shuffled_rows(p, rng), params, tol, ref)
            for name, p, ref in specs]


def setup_chain(pkg, seed, workdir):
    """Long path decompositions of 3-5 wide blocks at solver tol 1e-8."""
    rng = np.random.default_rng(seed)
    params = pkg.AdmmParams(tol_primal=1e-8, tol_dual=1e-8)
    specs = [
        ("simex-n20", pkg.gen_simex(20), 0.0),
        ("simex-n40", pkg.gen_simex(40), 0.0),
        ("minbisect-C32", pkg.gen_min_bisection(cycle_graph(pkg, 32)),
         cycle_bisection_optimum(32)),
    ]
    return _solve_ops(pkg, rng, specs, params, TOL["chain"])


def _gen_via_cli(pkg, workdir, argv):
    path = os.path.join(workdir, "gen-%s.json" % argv[0])
    rc = pkg.cli.run(["gen"] + argv + ["--out", path])
    if rc != 0:
        raise RuntimeError("splrsdp gen %s exited %d" % (" ".join(argv), rc))
    return pkg.fileio.problem_from_dict(pkg.fileio.load(path))


def setup_wide(pkg, seed, workdir):
    """Binary trees with two-child nodes at the solver's default settings."""
    rng = np.random.default_rng(seed)
    specs = [("lb-tree-l%d" % ell, pkg.gen_lb_tree(ell), 0.0)
             for ell in (1, 2, 3)]
    specs += [
        # `gen`'s own seeds: the default for bqp, the README's for minbisect
        ("bqp-n8-binary", _gen_via_cli(
            pkg, workdir, ["bqp", "-n", "8", "--binary"]), None),
        ("minbisect-n12-s3", _gen_via_cli(
            pkg, workdir, ["minbisect", "-n", "12", "--seed", "3"]), None),
        ("simex-n10", pkg.gen_simex(10), 0.0),
    ]
    return _solve_ops(pkg, rng, specs, pkg.AdmmParams(), TOL["wide"])


def unit_rows(rng, n, r):
    R = rng.standard_normal((n, r))
    return R / np.linalg.norm(R, axis=1, keepdims=True)


def path_decomposition(pkg, bags, leaf_every=0):
    """Path of `bags`; with leaf_every, every leaf_every-th node also gets a
    leaf holding a copy of its bag, so those nodes have two children once
    rooted at node 1."""
    k = len(bags)
    all_bags = {t + 1: frozenset(b) for t, b in enumerate(bags)}
    edges = {(t, t + 1) for t in range(1, k)}
    if leaf_every:
        for t in range(leaf_every, k, leaf_every):
            leaf = len(all_bags) + 1
            all_bags[leaf] = all_bags[t]
            edges.add((t, leaf))
    return pkg.TreeDecomposition(nodes=tuple(sorted(all_bags)),
                                 edges=frozenset(edges), bags=all_bags)


LIFT_N = 2000
LIFT_BAND = 6


def setup_lift(pkg, seed, workdir):
    """n=2000 instances with exact lifted solutions written to files.

    Each lifted solution comes from a known feasible point of rank 3,
    lifted over a decomposition the benchmark builds itself (a fan path for
    the cycle, a path with a leaf every 50 nodes for the band), so set-up
    does not run the program's chordal completion.
    """
    rng = np.random.default_rng(seed)
    n, w = LIFT_N, LIFT_BAND

    half = unit_rows(rng, n // 2, 3)
    balanced = np.vstack([half, -half])  # diag 1 and rows summing to 0
    band_edges = {(i, i + 1) for i in range(1, n)}
    band_edges |= {(i, j) for i in range(1, n + 1)
                   for j in range(i + 2, min(n, i + w) + 1)
                   if rng.uniform() < 0.5}
    spread = unit_rows(rng, n, 3)
    specs = [
        ("minbisect-C2000", pkg.gen_min_bisection(cycle_graph(pkg, n)),
         balanced, [(1, i, i + 1) for i in range(2, n)], 0),
        ("minbisect-band2000",
         pkg.gen_min_bisection(pkg.Graph.from_edges(n, band_edges)),
         balanced, [range(i, i + w + 1) for i in range(1, n - w + 1)], 50),
        # simex with b chosen so that the spread point is feasible
        ("simex-n2000",
         pkg.gen_simex(n, None, float(np.sum(spread.sum(axis=0) ** 2))),
         spread, None, 0),
    ]
    ops = []
    for name, p, R, bags, leaf_every in specs:
        p = shuffled_rows(p, rng)
        files = lift_files(workdir, name)
        pkg.fileio.save(pkg.fileio.problem_to_dict(p), files["problem"])
        td = None if bags is None else path_decomposition(pkg, bags,
                                                          leaf_every)
        pkg.fileio.save(lifted_solution(pkg, p, R, td), files["lifted"])
        ops.append(LiftOp(name, p, objective_value(p, R), TOL["lift"], files))
    return ops


def lift_files(workdir, name):
    return {key: os.path.join(workdir, "%s.%s" % (name, ext))
            for key, ext in (("problem", "prob.json"), ("ext", "ext.json"),
                             ("conv", "conv.json"),
                             ("verify", "verify.json"), ("sdpa", "dat-s"),
                             ("lifted", "lifted.json"),
                             ("recovered", "rec.json"),
                             ("report", "report.json"))}


def lifted_solution(pkg, p, R, td):
    """Solution-file dict of the exact lift of the point R R^T over `td`
    (None: the package's default decomposition)."""
    ext, bs, _ = pkg.convert_problem(p, td=td)
    L = pkg.extend_solution(ext, pkg.FactoredSolution(R)).factor
    blocks = {}
    for t, idx in bs.blocks.items():
        rows = L[[v - 1 for v in idx]]
        blocks[t] = rows @ rows.T
    return pkg.fileio.solution_to_dict(blocks, extended=ext)


SETUP = {"chain": setup_chain, "wide": setup_wide, "lift": setup_lift}
KNOWN_DEFECTS = {"chain": {}, "wide": WIDE_KNOWN_DEFECTS, "lift": {}}
