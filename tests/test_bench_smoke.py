"""The benchmark in ``perfbench/`` still runs against this package.

Runs every operation of pass 0 of the ``sweeps`` and ``probe_scan``
workloads, and three quick acceptance criteria of ``gate``, through the
benchmark's own runner with its call tracer installed.  A renamed or removed
function, option or traced parameter name fails here.
"""
import sys
from pathlib import Path

import cavlab
from cavlab import validation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

QUICK_CRITERIA = ("height-bounds-and-limits", "coherent-state-preservation",
                  "linear-regime-boundary")


def test_benchmark_operations_run_without_errors(tmp_path):
    ops = workloads.Sweeps(0, tmp_path).make_pass(0)
    ops += workloads.ProbeScan(0, tmp_path).make_pass(0)
    ops += [workloads.criterion_op(name, validation.DEFAULT_SEED) for name in QUICK_CRITERIA]
    tracer = Tracer()
    tracer.install(cavlab)
    try:
        outcomes = [harness.run_op(op, f"0:{k}", tracer) for k, op in enumerate(ops)]
    finally:
        tracer.remove()
    assert [(o.op.name, o.error) for o in outcomes if o.error is not None] == []
    # the spans whose details read the parameters dims, grid and argv
    traced = {span.name for span in tracer.spans}
    assert {"liouville.probe_spectrum", "liouville.steady_state", "cli.main"} <= traced
