"""bihomcheck benchmark: drive a fixed workload through `cli_main` in-process.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ./src and
writes bundles, reports and span files under ./.perfbench_out/. One run:

1. sets the workload up (re-import, catalog load, bundle build and save)
   and runs one uncounted warm-up pass;
2. runs passes until about --seconds of pass time are measured (at least
   one), each of the first ones on a fresh set-up; setup_s is the median of
   SETUPS set-ups (topped up after the passes when there were fewer);
3. compares every check's exit code and --report bytes with the golden
   file, and the golden verdicts with the known answers.

Times are rescaled to a reference host speed by the calibration loop in
harness.py (see there and README.md); raw wall times are printed too.

With --trace 1 the run also times scalar micro-operations, re-imports the
package through the tracer and runs TRACED_PASSES traced passes, which give
the per-layer metrics; their exact counts must agree pass for pass.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from golden import known_answer_errors, load, matches
from harness import calibration_loop, run_pass, scale, set_up
from tracer import Tracer
from workloads import CATALOG_SEEDS, WORKLOADS, dim6_ternary, tensor_square

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUPS = 5  # set-ups per untraced run
TRACED_PASSES = 2
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MICRO_REPEATS = 5


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else "unknown"
    return ref


def _tail(samples: list):
    """(percentile, value) for the highest percentile in TAIL_PERCENTILES
    that has at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[min(n - 1, int(n * p / 100.0))]
    return None


def _want_more(passes, seconds) -> bool:
    """True before the first pass, then while one more pass of the median
    length would end less than half a pass after `seconds`: a run measures
    about `seconds`."""
    if not passes:
        return True
    median = statistics.median(p.wall_s for p in passes)
    return sum(p.wall_s for p in passes) + median / 2 < seconds


def _judge(checks, passes, golden_records) -> list:
    """[attempted, errors, wrong, failed] over every check of every pass:
    errors raised or exited 2, wrong differ from the golden record, failed
    did either."""
    tally = [0, 0, 0, 0]
    for result in passes:
        for check, outcome in zip(checks, result.outcomes):
            error = outcome.exit_code is None or outcome.exit_code == 2
            record = golden_records.get(check.key)
            wrong = record is None or not matches(record, outcome)
            for i, hit in enumerate((True, error, wrong, error or wrong)):
                tally[i] += hit
    return tally


# ---------------------------------------------------------------------------
# scalar micro-timings
# ---------------------------------------------------------------------------


def _per_op_s(pairs, op) -> float:
    samples = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        for a, b in pairs:
            op(a, b)
        samples.append((time.perf_counter() - t0) / len(pairs))
    return statistics.median(samples)


def _pairs(pool, count):
    if not pool:
        raise RuntimeError("empty operand pool for a scalar micro-timing")
    n = len(pool)
    return [(pool[i % n], pool[(7 * i + 3) % n]) for i in range(count)]


def scalar_micro_timings() -> dict:
    """Scalar operators on operands taken from the dim-6 ternary bundle
    (rationals) and the entry-20 tensor square (polynomials in k1..k4, and
    the rational functions of its inverse maps)."""
    t3 = dim6_ternary()
    rats = [c for vec in t3.ops["tbr"].constants.values() for c in vec if not c.is_zero()]
    t20 = tensor_square(20)
    polys, ratfuncs = [], []
    for name in ("a", "b"):
        m = t20.maps[name]
        polys += [c for row in m.rows for c in row if not c.is_zero() and not c.is_rational()]
        inv = m.power(-1)
        ratfuncs += [
            c for row in inv.rows for c in row
            if not c.is_rational() and not c.as_fraction_pair()[1].is_const()
        ]
    return {
        "scalars.rat_mul_ns": _per_op_s(_pairs(rats, 20000), operator.mul) * 1e9,
        "scalars.poly_mul_us": _per_op_s(_pairs(polys, 1000), operator.mul) * 1e6,
        "scalars.ratfunc_add_us": _per_op_s(_pairs(ratfuncs, 500), operator.add) * 1e6,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

EXACT = (
    "engine.check_calls", "engine.tuples", "engine.fail_tuple_frac",
    "linear.op_apply_calls", "linear.map_apply_calls", "linear.power_calls",
    "scalars.rat_ops", "scalars.poly_ops", "dsl.monomials",
    "structures.verdicts_pass", "structures.verdicts_fail",
    "structures.verdicts_inapplicable", "catalog.cases", "bundle.eval_at_calls",
    "cli.calls", "fileio.report_bytes",
)


def _layer_metrics(span, counts, scalar_ops, report_bytes) -> dict:
    calls, incl, self_s = span["calls"], span["incl_s"], span["self_s"]

    def self_of(layer):
        return sum(v for n, v in self_s.items() if n.startswith(layer + "."))

    check_incl = incl.get("engine.check_identity", 0.0)
    bind = incl.get("engine.BoundIdentity.__init__", 0.0)
    tuples = counts["tuples"]
    return {
        "engine.check_calls": calls["engine.check_identity"],
        "engine.tuples": tuples,
        "engine.bind_s": bind,
        "engine.check_self_s": self_s.get("engine.check_identity", 0.0),
        "engine.us_per_tuple": (check_incl - bind) / tuples * 1e6 if tuples else 0.0,
        "engine.fail_tuple_frac": counts["fail_tuples"] / counts["fail_space"]
        if counts["fail_space"] else 0.0,
        "linear.op_apply_calls": calls["linear.MultiOp.apply"],
        "linear.op_apply_s": incl.get("linear.MultiOp.apply", 0.0),
        "linear.map_apply_calls": calls["linear.LinMap.apply"],
        "linear.map_apply_s": incl.get("linear.LinMap.apply", 0.0),
        "linear.power_calls": calls["linear.LinMap.power"],
        "linear.power_s": incl.get("linear.LinMap.power", 0.0),
        "scalars.rat_ops": scalar_ops[0],
        "scalars.poly_ops": scalar_ops[1],
        "dsl.monomials": counts["monomials"],
        "structures.verdicts_pass": counts["verdicts_pass"],
        "structures.verdicts_fail": counts["verdicts_fail"],
        "structures.verdicts_inapplicable": counts["verdicts_inapplicable"],
        "catalog.cases": counts["cases"],
        "catalog.verify_entry_s": self_of("catalog"),
        "bundle.eval_at_calls": calls["bundle.AlgebraBundle.eval_at"],
        "bundle.eval_at_s": incl.get("bundle.AlgebraBundle.eval_at", 0.0),
        "cli.calls": calls["cli.cli_main"],
        "cli.self_s": self_of("cli"),
        "fileio.load_bundle_s": incl.get("fileio.load_bundle", 0.0),
        "fileio.report_bytes": report_bytes,
    }


def traced_run(workload, seed, golden_records, untraced_run_s, log) -> tuple:
    """Set up and run TRACED_PASSES passes through the tracer. Returns
    (per-layer metrics, _judge tally, self-check problems)."""
    problems = []
    tracer = Tracer()
    bundle_dir = OUT / workload.name / "bundles"
    cli_main = set_up(workload, bundle_dir, tracer)
    setup_end = tracer.span_count()
    setup_span = tracer.summarize(0, setup_end)
    checks = workload.checks(bundle_dir, seed)
    per_pass, passes = [], []
    for _ in range(TRACED_PASSES):
        lo = tracer.span_count()
        counts_before = tracer.counts.copy()
        ops_before = list(tracer.scalar_ops)
        result = run_pass(
            cli_main, checks, OUT / workload.name / "reports", tracer, calibrate=True
        )
        counts = tracer.counts - counts_before
        ops = [a - b for a, b in zip(tracer.scalar_ops, ops_before)]
        report_bytes = sum(len(o.report) for o in result.outcomes if o.report is not None)
        span = tracer.summarize(lo, tracer.span_count())
        per_pass.append(_layer_metrics(span, counts, ops, report_bytes))
        passes.append(result)
    for name in EXACT:
        values = {m[name] for m in per_pass}
        if len(values) != 1:
            problems.append(f"exact count {name} differs between traced passes: {sorted(values)}")
    metrics = {}
    for name in per_pass[0]:
        if name in EXACT:
            metrics[name] = per_pass[0][name]
        else:
            metrics[name] = statistics.median(m[name] for m in per_pass)
    parse_names = {"dsl.parse_identity", "dsl.parse_identities", "dsl.parse_identity_file"}
    metrics["dsl.parse_s"] = tracer.outermost_s(0, setup_end, parse_names)
    metrics["construct.build_s"] = setup_span["layer_incl_s"].get("construct", 0.0)
    traced_run_s = statistics.median(p.scaled_wall_s for p in passes)
    metrics["trace.overhead_frac"] = traced_run_s / untraced_run_s - 1.0
    span_file = OUT / workload.name / f"spans-seed{seed}.tsv.gz"
    tracer.write_spans(span_file)
    log(f"traced passes: {TRACED_PASSES}, median {traced_run_s:.4f} s rescaled; "
        f"{tracer.span_count()} spans written to {span_file.relative_to(ROOT)}")
    return metrics, _judge(checks, passes, golden_records), problems


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bihomcheck" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'bihomcheck'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    def log(text):
        print(f"# {text}", flush=True)

    log(f"workload {workload.name}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    if workload.seeded:
        log(f"inputs: catalog verify --seed {args.seed % CATALOG_SEEDS} (seed mod {CATALOG_SEEDS})")
    else:
        log("inputs: deterministic, the seed does not change them")
    log(f"python {platform.python_version()} ({sys.executable}), nproc {os.cpu_count()}, "
        f"affinity {len(os.sched_getaffinity(0))}, commit {_git_commit()}")

    golden_records = load(workload.name)
    problems = known_answer_errors(workload.name, golden_records, SRC)

    bundle_dir = OUT / workload.name / "bundles"
    report_dir = OUT / workload.name / "reports"
    setup_raw, setup_times = [], []

    def timed_set_up():
        before = calibration_loop()
        t0 = time.perf_counter()
        cli = set_up(workload, bundle_dir)
        setup_raw.append(time.perf_counter() - t0)
        setup_times.append(setup_raw[-1] * scale(before, calibration_loop()))
        return cli

    # Without tracing, the first measured passes each run on a fresh set-up,
    # so the SETUPS samples spread over the run instead of one moment of it.
    # The count is fixed because every set-up leaves some memory behind,
    # which peak_rss_mb would otherwise tie to the number of passes.
    cli_main = timed_set_up()
    checks = workload.checks(bundle_dir, args.seed)
    warm = run_pass(cli_main, checks, report_dir)
    passes = []
    while _want_more(passes, args.seconds):
        if args.trace == 0 and len(setup_times) < SETUPS:
            cli_main = timed_set_up()
        passes.append(run_pass(cli_main, checks, report_dir, calibrate=True))
    while args.trace == 0 and len(setup_times) < SETUPS:
        timed_set_up()
    tally = _judge(checks, [warm, *passes], golden_records)
    run_s = statistics.median(p.scaled_wall_s for p in passes)
    latencies = [x for p in passes for x in p.scaled_s]
    log(f"checks per pass {len(checks)}; warm-up {warm.wall_s:.4f} s; measured passes "
        f"{len(passes)}, wall s: " + ", ".join(f"{p.wall_s:.4f}" for p in passes))
    log("  rescaled to the reference speed: "
        + ", ".join(f"{p.scaled_wall_s:.4f}" for p in passes))

    if args.trace == 0:
        setup_s = statistics.median(setup_times)
        p50_ms = statistics.median(latencies) * 1e3
        tail = _tail(latencies)
        tail_text = (
            f"p{tail[0]:g} {tail[1] * 1e3:.4f} ms" if tail
            else "absent (fewer than 10 samples beyond p90)"
        )
        log(f"set-ups, wall s: " + ", ".join(f"{t:.4f}" for t in setup_raw))
        log(f"  rescaled: " + ", ".join(f"{t:.4f}" for t in setup_times))
        log(f"check_p50_ms {p50_ms:.4f} over {len(latencies)} samples (wall "
            f"{statistics.median(x for p in passes for x in p.latencies_s) * 1e3:.4f}); "
            f"check_tail_ms {tail_text}")
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "check_p50_ms": p50_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        micro = scalar_micro_timings()
        values, traced_tally, trace_problems = traced_run(
            workload, args.seed, golden_records, run_s, log
        )
        values.update(micro)
        problems += trace_problems
        tally = [a + b for a, b in zip(tally, traced_tally)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }

    attempted, errors, wrong, failed = tally
    log(f"wrong_outputs {wrong}; error_frac {errors / attempted:.6f} "
        f"({errors} of {attempted} checks, warm-up included)")
    for p in problems:
        log(f"problem: {p}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
