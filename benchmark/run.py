"""Seeded benchmark of the splrsdp chain: gen -> convert -> solve -> recover.

    python3 benchmark/run.py --workload chain|wide|lift --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
One process runs the workload's operations one after another (a closed
loop with one client) in passes over all of them, and starts another pass
while one more fits in `--seconds`.  BLAS is pinned to one thread.

Every output is checked (see checks.py).  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json with `--trace 0`, the per-layer
metrics with `--trace 1`.  The lines before it are a readable table.  Work
files, span logs and a full result record go to benchmark/out/.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# BLAS reads its thread count when numpy loads, so this precedes the imports
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from checks import accuracy_digits, unexpected  # noqa: E402
from spans import (SpanRecorder, patch_package, public_functions,  # noqa: E402
                   unpatch)
from workloads import KNOWN_DEFECTS, SETUP  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
# package modules whose public functions get spans in the traced run
LAYERS = ("graph_core", "sparse_extension", "chordal_conversion", "solver",
          "completion_rank", "sdp_model", "fileio")
# figures the table prints besides the JSON metrics; they can be 0 or
# negative, so the JSON carries ok_frac and rank_bound_ratio instead
TABLE_ONLY = (
    ("iterations", "count", "lower"),
    ("fail_frac", "ratio", "lower"),
    ("cert_slack_min", "ranks", "higher"),
)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("chain", "wide", "lift"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package():
    """Import splrsdp from this checkout's src/, never from elsewhere."""
    if not (SRC / "splrsdp" / "__init__.py").is_file():
        raise SystemExit("benchmark: no package at %s" % (SRC / "splrsdp"))
    sys.path.insert(0, str(SRC))
    import splrsdp
    import splrsdp.cli  # noqa: F401  (binds pkg.cli and pkg.fileio)
    if Path(splrsdp.__file__).resolve().parent != SRC / "splrsdp":
        raise SystemExit("benchmark: imported splrsdp from %s"
                         % splrsdp.__file__)
    return splrsdp


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _code_digest():
    """Hash of the package and of the benchmark, which makes the inputs."""
    h = hashlib.sha256()
    for path in sorted((SRC / "splrsdp").glob("*.py")) + sorted(
            HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _no_span(name):
    return contextlib.nullcontext()


class Tracer:
    """Spans around every public function of the layer modules, installed
    only for traced passes."""

    def __init__(self, pkg, recorder):
        self.pkg = pkg
        self.rec = recorder
        self.wrappers = {}
        for layer in LAYERS:
            module = getattr(pkg, layer)
            for name in public_functions(module):
                fn = getattr(module, name)
                label = "%s.%s" % (layer, name)
                self.wrappers[fn] = (self._counting_dump(label, fn)
                                     if label == "fileio.dump"
                                     else recorder.wrap(label, fn))
        self._undo = None

    def _counting_dump(self, label, fn):
        rec = self.rec

        def dump(d, fh):
            start = fh.tell() if fh.seekable() else None
            with rec.span(label):
                fn(d, fh)
            if start is not None:
                rec.count("fileio.bytes_written", fh.tell() - start)
        return dump

    def __enter__(self):
        self._undo = patch_package(self.pkg.__name__, self.wrappers)
        return self

    def __exit__(self, *exc):
        unpatch(self._undo)
        self._undo = None


def run_pass(pkg, ops, rec=None):
    """One pass over all operations; returns (seconds, [(op, state, error,
    seconds)]).  Only the program calls are timed."""
    results = []
    for op in ops:
        state = {}
        error = None
        if rec is not None:
            rec.op = op.name
        span = rec.span if rec is not None else _no_span
        t0 = time.perf_counter()
        try:
            with span("op." + op.name):
                op.run(pkg, state, span)
        except Exception as err:  # a failing operation is a result, not a crash
            error = err
            state["traceback"] = traceback.format_exc(limit=3)
        results.append((op, state, error, time.perf_counter() - t0))
    return sum(r[3] for r in results), results


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _layer_metrics(names, rec, traced, counters, outcomes, probe_s,
                   overhead_s):
    """Per-layer values, each the median over traced passes."""
    per_pass = []
    for first, last in traced:
        totals, counts, layer_self = {}, {}, {}
        self_t = rec.self_times(first, last)
        for i in range(first, last):
            name, start, end = rec.spans[i][:3]
            totals[name] = totals.get(name, 0.0) + (end - start)
            counts[name] = counts.get(name, 0) + 1
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_t[i]
        per_pass.append((totals, counts, layer_self))
    solves = [o for o in outcomes if o.iterations]
    iters = sum(o.iterations for o in solves)
    admm_s = _median([t.get("solver.admm_solve", 0.0) for t, _, _ in per_pass])
    special = {
        "solver.iterations": iters,
        "solver.ms_per_iter": 1000.0 * admm_s / iters if iters else 0.0,
        "solver.converged_frac": (sum(o.converged for o in solves) / len(solves)
                                  if solves else 0.0),
        "solver.setup_s": probe_s,
        "fileio.bytes_written": _median(
            [c.get("fileio.bytes_written", 0) for c in counters]),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".self_s"):
            layer = name[:-len(".self_s")]
            out[name] = _median([s.get(layer, 0.0) for _, _, s in per_pass])
        elif name.endswith("_calls"):
            span = name[:-len("_calls")]
            out[name] = _median([c.get(span, 0) for _, c, _ in per_pass])
        elif name.endswith("_s"):
            span = name[:-len("_s")]
            out[name] = _median([t.get(span, 0.0) for t, _, _ in per_pass])
        else:
            raise KeyError("no rule computes per-layer metric %r" % name)
    return out


def main(argv=None):
    args = _parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    pkg = _import_package()
    import_s = time.perf_counter() - _T0

    out_dir = HERE / "out"
    tag = "%s-s%d" % (args.workload, args.seed)
    workdir = _fresh_dir(out_dir / tag)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = SETUP[args.workload](pkg, args.seed, str(workdir))
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + _median(setup_times)

    rec = SpanRecorder()
    pass_counters = []
    tracer = Tracer(pkg, rec) if args.trace else None
    passes = []  # (seconds, results, traced, span range)
    t_start = time.perf_counter()
    min_passes = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            first = len(rec.spans)
            rec.counters = {}
            with tracer:
                seconds, results = run_pass(pkg, ops, rec)
            pass_counters.append(rec.counters)
            passes.append((seconds, results, True, (first, len(rec.spans))))
        else:
            seconds, results = run_pass(pkg, ops)
            passes.append((seconds, results, False, None))
        elapsed = time.perf_counter() - t_start
        typical = _median([p[0] for p in passes])
        if len(passes) >= min_passes and elapsed + typical > args.seconds:
            break

    probe_s = 0.0
    if args.trace:
        _, last_results = passes[-1][:2]
        for op, state, error, _ in last_results:
            if hasattr(op, "probe") and "bs" in state:
                t0 = time.perf_counter()
                op.probe(pkg, state)
                probe_s += time.perf_counter() - t0
        rec.write(out_dir / ("spans-%s.jsonl" % tag))

    # checks, outside every timed region
    known = KNOWN_DEFECTS[args.workload]
    checked = []  # per pass: [Outcome]
    for _, results, _, _ in passes:
        outs = []
        for op, state, error, op_s in results:
            o = op.check(state, error)
            o.seconds = op_s
            o.traceback = state.get("traceback")
            outs.append(o)
        checked.append(outs)
    outcomes = [o for outs in checked for o in outs]
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    surprises = sorted({(o.op, code) for o in outcomes
                        for code in unexpected(o, known)})

    # determinism: passes of this run, then earlier runs of the same code
    sigs = [[o.signature() for o in outs] for outs in checked]
    mismatches = ["pass %d differs from pass 1" % (i + 1)
                  for i, s in enumerate(sigs) if s != sigs[0]]
    det_path = out_dir / "determinism" / ("%s-%s.json"
                                          % (tag, _code_digest()))
    det_path.parent.mkdir(parents=True, exist_ok=True)
    if det_path.exists():
        if json.loads(det_path.read_text()) != sigs[0]:
            mismatches.append("differs from an earlier run (%s)"
                              % det_path.name)
    else:
        det_path.write_text(json.dumps(sigs[0]))

    first = checked[0]
    ranked = [o for o in outcomes if o.rank is not None]
    pass_s = [p[0] for p in passes if not p[2]]
    figures = {
        "setup_s": setup_s,
        "pipeline_s": _median(pass_s),
        "iterations": sum(o.iterations for o in first),
        "fail_frac": failed / attempted,
        "ok_frac": 1.0 - failed / attempted,
        "cert_slack_min": min((o.bound - o.rank for o in ranked), default=0),
        "rank_bound_ratio": max((o.rank / o.bound for o in ranked),
                                default=0.0),
        "accuracy_digits": min((accuracy_digits(o.max_violation)
                                for o in ranked), default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    samples = {"setup_s": SETUP_REPEATS, "pipeline_s": len(pass_s),
               "iterations": len(first)}
    correct = bool(ranked) and not surprises and not mismatches
    env = _environment()

    if args.trace:
        traced_ranges = [p[3] for p in passes if p[2]]
        traced_s = _median([p[0] for p in passes if p[2]])
        names = [m["name"] for m in spec["per_layer"]]
        values = _layer_metrics(names, rec, traced_ranges, pass_counters,
                                first, probe_s,
                                traced_s - figures["pipeline_s"])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    lines = ["workload %s  seed %d  trace %d  passes %d  operations/pass %d"
             % (args.workload, args.seed, args.trace, len(passes), len(ops)),
             "env " + " ".join("%s=%s" % kv for kv in env.items()),
             "%-18s %14s %-7s %-7s %s" % ("metric", "value", "unit", "better",
                                          "samples")]
    table = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    for name, unit, better in table + list(TABLE_ONLY):
        lines.append("%-18s %14.6g %-7s %-7s %s" % (
            name, figures[name], unit, better,
            samples.get(name, attempted)))
    by_op = {}
    for o in outcomes:
        by_op.setdefault(o.op, []).append(o.seconds)
    for op, times in by_op.items():
        lines.append("op %-22s median %.4g s  max %.4g s  n=%d"
                     % (op, _median(times), max(times), len(times)))
    for o in first:
        for code, detail in o.reasons:
            lines.append("FAIL %s %s%s: %s" % (
                o.op, code, "" if code in known.get(o.op, ()) else
                " (unexpected)", detail.splitlines()[0]))
    lines.append("determinism " + ("; ".join(mismatches) if mismatches
                                   else "ok"))
    if args.trace:
        for name, m in metrics.items():
            lines.append("%-45s %14.6g %s" % (name, m["value"], m["unit"]))
    print("\n".join(lines))

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "figures": figures,
              "metrics": metrics, "setup_times": setup_times,
              "import_s": import_s, "pass_seconds": [p[0] for p in passes],
              "determinism": mismatches or "ok",
              "outcomes": [[vars(o) for o in outs] for outs in checked]}
    (out_dir / ("result-%s-t%d.json" % (tag, args.trace))).write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
