"""cavlab benchmark: one workload, closed loop, one process.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 36 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``) as the last line of standard output, and writes
the full record under ``.perfbench/``.  ``--full-gate`` instead runs all
nine acceptance criteria once and reports each one's seconds against its
budget.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: on a 2-core machine the
# second thread made the sparse solves no faster but their timings noisier.
# Set before numpy loads; set-up processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import harness  # noqa: E402
import paths  # noqa: E402

SETUP_REPEATS = 7
WORKLOAD_NAMES = ("sweeps", "probe_scan", "gate")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-gate", action="store_true",
                        help="run the nine acceptance criteria once, with budgets")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.full_gate and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    return args


def setup_only(args, start: float) -> int:
    """Import every layer and make the first pass's inputs; print the seconds."""
    import cavlab.cli  # noqa: F401
    import workloads

    with tempfile.TemporaryDirectory(dir=paths.OUT_DIR) as tmp:
        workloads.WORKLOADS[args.workload](args.seed, Path(tmp)).make_pass(0)
        seconds = time.perf_counter() - start
    print(json.dumps({"setup_s": seconds}))
    return 0


def bench(args) -> int:
    import cavlab
    import layers
    import workloads
    from spans import SPAN_FIELDS, Tracer

    setup = [] if args.trace else harness.time_setup(args.workload, args.seed, SETUP_REPEATS)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=paths.OUT_DIR) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        if not args.trace:
            passes = harness.run_passes(workload.make_pass, args.seconds)
            metrics = harness.end_to_end(passes, setup)
        else:
            # one warm-up pass first, so first-call costs land in neither half
            warm = harness.run_passes(workload.make_pass, 0.0)
            plain = harness.run_passes(workload.make_pass, args.seconds / 2, first=1)
            tracer.install(cavlab)
            try:
                traced = harness.run_passes(workload.make_pass, args.seconds / 2,
                                            tracer, first=1 + len(plain))
            finally:
                tracer.remove()
            metrics = layers.per_layer(tracer.spans, traced, harness.pass_seconds(plain),
                                       harness.pass_seconds(traced))
            passes = warm + plain + traced

    env = harness.environment(args.workload, args.seed, args.seconds, bool(args.trace))
    if env["flagged"]:
        print("warning: CAVLAB_BUDGET is set; gate checks may skip", file=sys.stderr)
    result = harness.result_line(passes, metrics)
    stem = paths.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "result": result, "setup_s": setup,
              "operations": [{"name": o.op.name, "run_id": o.run_id, "wall_s": o.wall,
                              "cpu_s": o.cpu, "host_slowdown": o.slowdown, "error": o.error,
                              "worst_ratio": o.worst_ratio}
                             for p in passes for o in p]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as out:
            out.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in tracer.spans:
                out.write(json.dumps(span.row()) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


def full_gate(args) -> int:
    """All nine criteria once, spectrum-triple-agreement included."""
    from cavlab import validation

    seed = validation.DEFAULT_SEED if args.seed is None else args.seed
    rows = []
    for name, _ in validation.CRITERIA:
        start = time.perf_counter()
        try:
            (check,) = validation.run_all(seed, only=[name])
            row = {"status": check.line().split()[0], "seconds": check.seconds,
                   "budget_seconds": check.budget_seconds, "detail": check.line()}
        except Exception as exc:     # a crashing criterion is reported, not fatal
            row = {"status": "ERROR", "seconds": time.perf_counter() - start,
                   "budget_seconds": None, "detail": f"{type(exc).__name__}: {exc}"}
        rows.append({"name": name, **row})
        print(f"{row['seconds']:8.2f} s / {row['budget_seconds'] or '-'} s  {row['detail']}",
              file=sys.stderr)
    doc = {"environment": harness.environment("full-gate", seed, 0.0, False),
           "all_passed": all(r["status"] == "PASS" for r in rows), "criteria": rows}
    out = paths.OUT_DIR / f"full-gate-seed{seed}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"all_passed": doc["all_passed"], "report": str(out.relative_to(paths.ROOT))}))
    return 0 if doc["all_passed"] else 1


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    try:
        paths.use_checkout_source()
    except paths.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    paths.OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        return setup_only(args, start)
    if args.full_gate:
        return full_gate(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
