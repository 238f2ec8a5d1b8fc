"""Command line front end.

Subcommands chain over stdin/stdout so `gen ... | convert | solve | recover`
works without temp files; each reads one file kind, through its fileio
reader.  Exit codes: 0 success, 1 bad input, 2 numerical failure.  Set
SPLR_LOG=info (or debug) for progress on stderr.
"""

import argparse
import logging
import os
import sys

import numpy as np

from . import fileio
from .chordal_conversion import convert, convert_problem, export_sdpa
from .completion_rank import (max_rank_for_constraints, rank_reduce_affine,
                              recover_low_rank)
from .graph_core import Graph, read_graph
from .instances import (gen_bqp_relaxation, gen_lb_padded, gen_lb_small,
                        gen_lb_tree, gen_min_bisection, gen_phi_witness,
                        gen_simex)
from .sdp_model import eval_objective, is_feasible
from .solver import AdmmParams, admm_solve
from .sparse_extension import verify_extension

log = logging.getLogger("splrsdp")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; map those to 1 instead so that
    # exit code 2 stays reserved for numerical failures
    def error(self, message):
        raise _UsageError(message)


def _probability(text):
    """argparse type of the probability flags: a float in [0, 1]."""
    p = float(text)
    if 0.0 <= p <= 1.0:
        return p
    raise argparse.ArgumentTypeError("%s is not in [0, 1]" % text)


def _read_json(path):
    return fileio.load(sys.stdin if path is None or path == "-" else path)


def _write_json(d, path):
    if path is None or path == "-":
        fileio.dump(d, sys.stdout)
    else:
        fileio.save(d, path)


def _random_connected_graph(rng, n, p_edge):
    edges = set()
    for v in range(2, n + 1):  # random attachment keeps it connected
        edges.add((int(rng.integers(1, v)), v))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.uniform() < p_edge:
                edges.add((i, j))
    return Graph.from_edges(n, edges)


def _cmd_gen(args):
    # only the families that draw random numbers take --seed, and simex and
    # minbisect only when they draw
    fam = args.family
    if getattr(args, "seed", None) is not None and (
            fam == "simex" and not args.random_a
            or fam == "minbisect" and args.graph):
        raise _UsageError("--seed has no effect on gen %s %s" % (
            fam, "without --random-a" if fam == "simex" else "with --graph"))
    rng = np.random.default_rng(args.seed or 0) if "seed" in args else None
    if fam == "simex":
        a = rng.standard_normal(args.n) + 2.0 if args.random_a else None
        p = gen_simex(args.n, a, args.b)
    elif fam == "minbisect":
        if args.graph:
            g = read_graph(args.graph)
        else:
            g = _random_connected_graph(rng, args.n, args.p_edge)
        p = gen_min_bisection(g)
    elif fam == "bqp":
        n = args.n
        Q = rng.standard_normal((n, n))
        Q = 0.5 * (Q + Q.T)
        keep = rng.uniform(size=(n, n)) < args.density
        keep = np.triu(keep) | np.triu(keep).T
        np.fill_diagonal(keep, True)
        Q = Q * keep
        c = 0.5 * rng.normal(size=n)
        binary = tuple(range(1, n + 1)) if args.binary else ()
        if args.eq:
            x0 = rng.integers(0, 2, n).astype(float) if args.binary \
                else rng.uniform(0.0, 1.0, n)
            Aeq = rng.standard_normal((args.eq, n))
            p = gen_bqp_relaxation(Q, c, Aeq, Aeq @ x0, binary_set=binary)
        else:
            p = gen_bqp_relaxation(Q, c, binary_set=binary)
    elif fam == "phi":
        _write_json(fileio.slice_to_dict(gen_phi_witness(args.ell)), args.out)
        return 0
    elif fam == "lb-small":
        p = gen_lb_small(args.ell)
    elif fam == "lb-padded":
        base = fileio.problem_from_dict(_read_json(args.base)) if args.base \
            else gen_lb_small(args.ell)
        n_hat = args.n_hat if args.n_hat is not None else base.n + args.sigma
        p = gen_lb_padded(base, args.sigma, n_hat)
    elif fam == "lb-tree":
        p = gen_lb_tree(args.ell)
    else:
        raise _UsageError("unknown family %r" % fam)
    log.info("generated %s: n=%d ell=%d m=%d", fam, p.n, p.ell, p.m)
    _write_json(fileio.problem_to_dict(p), args.out)
    return 0


def _cmd_convert(args):
    p = fileio.problem_from_dict(_read_json(args.infile))
    td = fileio.td_from_dict(fileio.load(args.td)) if args.td else None
    ext, bs, report = convert_problem(p, td=td)
    log.info("converted: n=%d -> n_hat=%d, k=%d, width %d -> %d",
             report["n"], report["n_hat"], report["k"],
             report["width_before"], report["width_after"])
    _write_json(fileio.extended_to_dict(ext), args.out)
    if args.report:
        report = dict(report, schema=fileio.REPORT_SCHEMA)
        _write_json(report, args.report)
    return 0


def _solver_params(args):
    over = {"tol_primal": args.tol, "tol_dual": args.tol,
            "max_iter": args.max_iter, "rho": args.rho}
    return AdmmParams(**{k: v for k, v in over.items() if v is not None})


def _cmd_solve(args):
    ext = fileio.extended_from_dict(_read_json(args.infile))
    bs = convert(ext)
    blocks, stats = admm_solve(bs, _solver_params(args))
    log.info("solved: %d iterations, residuals %.2e/%.2e, objective %.6g",
             stats.iterations, stats.primal_residual, stats.dual_residual,
             stats.objective)
    _write_json(fileio.solution_to_dict(blocks, stats, extended=ext), args.out)
    if args.stats:
        _write_json(fileio.stats_to_dict(stats), args.stats)
    if not stats.converged:
        raise RuntimeError("solver hit the iteration cap before the tolerances")
    return 0


def _cmd_recover(args):
    blocks, _, ext = fileio.solution_from_dict(
        _read_json(args.extended_solution))
    bs = convert(ext)
    # tolerances sized for first-order solver output
    sol, info = recover_low_rank(blocks, ext, bs, overlap_tol=1e-3,
                                 psd_tol=1e-4)
    ok, rep = is_feasible(ext.base, sol, tol=1e-4)
    log.info("recovered rank %d (certified <= %d), max violation %.2e",
             info["rank"], info["certified_bound"], rep["max_violation"])
    _write_json({
        "schema": fileio.RECOVERED_SCHEMA,
        "factor": sol.factor.tolist(),
        "rank": info["rank"],
        "certified_bound": info["certified_bound"],
        "mode": info["mode"],
        "block_ranks": {str(t): r for t, r in sorted(info["block_ranks"].items())},
        "completed_rank": info["completed_rank"],
        "residuals": {
            "max_violation": rep["max_violation"],
            "objective": eval_objective(ext.base, sol),
            "feasible_at_1e-4": bool(ok),
        },
    }, args.out)
    return 0


def _cmd_verify(args):
    p = fileio.problem_from_dict(fileio.load(args.problem))
    ext = fileio.extended_from_dict(fileio.load(args.extension))
    report = verify_extension(p, ext, samples=args.samples)
    _write_json(dict(report, schema=fileio.REPORT_SCHEMA), args.out)
    return 0 if report["ok"] else 1


def _cmd_export(args):
    bs = convert(fileio.extended_from_dict(_read_json(args.infile)))
    if args.out is None or args.out == "-":
        export_sdpa(bs, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            export_sdpa(bs, fh)
    return 0


def _cmd_report(args):
    d = _read_json(args.infile)
    schema = d.get("schema", "")
    out = {"schema": fileio.REPORT_SCHEMA, "kind": schema}
    # read, and so checked, as the pipeline reads it; cli alone writes the
    # report files
    if schema == fileio.PROBLEM_SCHEMA:
        p = fileio.problem_from_dict(d)
        out.update(n=p.n, ell=p.ell, m=p.m,
                   pattern_edges=len(p.pattern.edges))
    elif schema == fileio.EXTENDED_SCHEMA:
        pat = fileio.extended_from_dict(d).pattern
        out.update(n=pat.n, ell=pat.ell, k=pat.k, n_hat=pat.n_ext)
    elif schema == fileio.SOLUTION_SCHEMA:
        blocks, stats, _ = fileio.solution_from_dict(d)
        out["blocks"] = len(blocks)
        if stats is not None:  # the report's own keys win over the stats'
            out = dict(stats, **out)
    elif schema == fileio.RECOVERED_SCHEMA:
        d = fileio.recovered_from_dict(d)
        out.update(rank=d["rank"], certified_bound=d["certified_bound"],
                   mode=d["mode"], residuals=d["residuals"])
    elif schema == fileio.SLICE_SCHEMA:
        sl = fileio.slice_from_dict(d)
        out.update(dim=sl.point.shape[0], rows=len(sl.mats))
    elif schema == fileio.REPORT_SCHEMA:
        out.update({k: v for k, v in d.items() if k != "schema"})
    else:
        raise ValueError("unrecognized file (schema %r)" % schema)
    _write_json(out, args.out)
    return 0


def _cmd_reduce(args):
    sl = fileio.slice_from_dict(_read_json(args.infile))
    sol = rank_reduce_affine(sl)
    rank = sol.numerical_rank()
    log.info("rank reduced to %d (bound %d)", rank,
             max_rank_for_constraints(len(sl.mats)))
    _write_json({"schema": fileio.REPORT_SCHEMA, "kind": "rank-reduction",
                 "rank": rank, "bound": max_rank_for_constraints(len(sl.mats)),
                 "point": (sol.factor @ sol.factor.T).tolist()}, args.out)
    return 0


def _build_parser():
    top = _Parser(prog="splrsdp", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generated problem as JSON")
    gsub = gen.add_subparsers(dest="family", required=True)

    def gcommon(sp, seeded=False):
        if seeded:
            sp.add_argument("--seed", type=int, default=None)  # unset: seed 0
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=_cmd_gen)

    sp = gsub.add_parser("simex", help="diagonal-plus-rank-one feasibility chain")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--random-a", action="store_true")
    gcommon(sp, seeded=True)
    sp = gsub.add_parser("minbisect", help="graph bisection relaxation")
    sp.add_argument("-n", type=int, default=8)
    sp.add_argument("--p-edge", type=_probability, default=0.3)
    sp.add_argument("--graph", default=None, help="text graph file instead of random")
    gcommon(sp, seeded=True)
    sp = gsub.add_parser("bqp", help="quadratic program relaxation over x >= 0;"
                         " bounded with --binary or a positive definite Q")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--density", type=_probability, default=0.5)
    sp.add_argument("--eq", type=int, default=0, help="number of equality rows")
    sp.add_argument("--binary", action="store_true")
    gcommon(sp, seeded=True)
    sp = gsub.add_parser("phi", help="coupled slice with a unique rank l+1 element")
    sp.add_argument("--ell", type=int, required=True)
    gcommon(sp)
    sp = gsub.add_parser("lb-small", help="full-rank-forced instance of size l+1")
    sp.add_argument("--ell", type=int, required=True)
    gcommon(sp)
    sp = gsub.add_parser("lb-padded", help="pad an instance to raise its rank floor")
    sp.add_argument("--ell", type=int, default=1)
    sp.add_argument("--sigma", type=int, required=True)
    sp.add_argument("--n-hat", type=int, default=None)
    sp.add_argument("--base", default=None, help="problem JSON to pad (default lb-small)")
    gcommon(sp)
    sp = gsub.add_parser("lb-tree", help="low-width pattern with rank floor 4l+1")
    sp.add_argument("--ell", type=int, required=True)
    gcommon(sp)

    sp = sub.add_parser("convert", help="build the extended sparse problem")
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--td", default=None, help="tree decomposition JSON")
    sp.add_argument("--out", default=None)
    sp.add_argument("--report", default=None)
    sp.set_defaults(func=_cmd_convert)

    sp = sub.add_parser("solve", help="run the block solver")
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iter", type=int, default=None)
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--stats", default=None)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("recover", help="rebuild a low-rank original solution")
    sp.add_argument("--extended-solution", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_recover)

    sp = sub.add_parser("verify", help="check an extension on random lifted points")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--extension", required=True)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("export", help="write the block problem in SDPA sparse form")
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_export)

    sp = sub.add_parser("report", help="summarize any JSON artifact")
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("reduce", help="rank reduction on an affine slice file")
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_reduce)
    return top


# parse_args keeps no state between calls, so one parser serves every run
_PARSER = _build_parser()


_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
               "warning": logging.WARNING, "error": logging.ERROR}
_LOG_FORMAT = logging.Formatter("splrsdp: %(levelname)s: %(message)s")


def run(argv=None):
    # for this run only, the package logger gets one handler on the current
    # stderr and its level from SPLR_LOG; the root logger is left alone, so
    # an in-process caller keeps its own logging
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LOG_FORMAT)
    level = log.level
    log.addHandler(handler)
    log.setLevel(_LOG_LEVELS.get(os.environ.get("SPLR_LOG", "").lower(),
                                 logging.WARNING))
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print("splrsdp: error: %s" % err, file=sys.stderr)
        return 1
    # LinAlgError subclasses ValueError, so it must be caught first
    except (np.linalg.LinAlgError, RuntimeError) as err:
        log.debug("numerical failure", exc_info=True)
        print("splrsdp: numerical failure: %s" % err, file=sys.stderr)
        return 2
    except KeyError as err:
        log.debug("input failure", exc_info=True)
        print("splrsdp: invalid input: missing key %s" % err, file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:  # json's decode errors included
        log.debug("input failure", exc_info=True)
        print("splrsdp: invalid input: %s" % err, file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def main():
    sys.exit(run(argv=None))


if __name__ == "__main__":
    main()
