"""Per-layer metrics of a traced run, from its spans and operations.

Counts, self times and errors are per pass (totals over the traced passes
divided by their number); ``_p50`` is the median over every traced call and
``_tail`` the highest of the 90th, 99th and 99.9th percentiles that has at
least ten calls beyond it (the maximum when none has, as with fewer than
100 calls), with the percentile used in ``tail_pct``.  A function the workload never calls reports 0.
"""
from __future__ import annotations

import statistics

from harness import Outcome
from spans import LAYERS, Span, self_seconds
from workloads import GATE_CRITERIA
CLI_COMMANDS = ("profile", "spectrum", "height-scan")
DIRECT_LIMIT = 64            # cavlab's direct/marching switch, in Hilbert dimension

# (name, unit) of every per-layer metric, as in BENCHMARK.json
PER_LAYER = (
    ("liouville.steady_state.calls", "count"),
    ("liouville.steady_state.le64.calls", "count"),
    ("liouville.steady_state.le64.ms_p50", "ms"),
    ("liouville.steady_state.le64.ms_tail", "ms"),
    ("liouville.steady_state.le64.tail_pct", "%"),
    ("liouville.steady_state.gt64.calls", "count"),
    ("liouville.steady_state.gt64.ms_p50", "ms"),
    ("liouville.probe_spectrum.calls", "count"),
    ("liouville.probe_spectrum.point_ms", "ms"),
    ("liouville.converged_moment_state.solves_per_call", "ratio"),
    ("liouville.build_liouvillian.calls", "count"),
    ("liouville.build_liouvillian.ms_p50", "ms"),
    ("liouville.build_liouvillian.nnz", "count"),
    ("liouville.stochastic_dephasing_check.calls", "count"),
    ("liouville.stochastic_dephasing_check.ms_p50", "ms"),
    ("liouville.wigner.calls", "count"),
    ("liouville.wigner.ms_p50", "ms"),
    ("moments.regression_spectrum.calls", "count"),
    ("moments.regression_spectrum.s_p50", "s"),
    ("moments.regression_spectrum.stiff_s", "s"),
    ("moments.steady_state.calls", "count"),
    ("moments.steady_state.us_p50", "us"),
    ("analytic.point_us", "us"),
    *((f"cli.{command}.s", "s") for command in CLI_COMMANDS),
    *((f"validation.{name}.s", "s") for name in GATE_CRITERIA),
    *(item for layer in LAYERS for item in ((f"{layer}.calls", "count"),
                                            (f"{layer}.self_s", "s"),
                                            (f"{layer}.errors", "count"))),
    ("trace.passes", "count"),
    ("trace.overhead_frac", "ratio"),
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten calls beyond it."""
    if not values:
        return 0.0, 0.0
    for permille in (999, 990, 900):
        if len(values) * (1000 - permille) >= 10 * 1000:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return cuts[permille - 1], permille / 10
    return max(values), 100.0


def per_layer(spans: list[Span], passes: list[list[Outcome]],
              plain_run_s: float, traced_run_s: float) -> dict:
    """Every per-layer metric, as ``{name: {"value", "unit"}}``."""
    n = len(passes)
    ops = {o.run_id: o.op for p in passes for o in p}
    selfs = self_seconds(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def times(name: str, scale: float = 1.0) -> list[float]:
        return [spans[i].seconds * scale for i in by_name.get(name, ())]

    def per_pass(count: float) -> float:
        return count / n

    def inside(index: int, name: str) -> bool:
        parent = spans[index].parent
        while parent is not None:
            if spans[parent].name == name:
                return True
            parent = spans[parent].parent
        return False

    out: dict[str, float] = {}
    solves = by_name.get("liouville.steady_state", [])
    small = [i for i in solves if spans[i].detail is not None and spans[i].detail <= DIRECT_LIMIT]
    large = [i for i in solves if spans[i].detail is not None and spans[i].detail > DIRECT_LIMIT]
    small_ms = [spans[i].seconds * 1e3 for i in small]
    out["liouville.steady_state.calls"] = per_pass(len(solves))
    out["liouville.steady_state.le64.calls"] = per_pass(len(small))
    out["liouville.steady_state.le64.ms_p50"] = _median(small_ms)
    (out["liouville.steady_state.le64.ms_tail"],
     out["liouville.steady_state.le64.tail_pct"]) = tail(small_ms)
    out["liouville.steady_state.gt64.calls"] = per_pass(len(large))
    out["liouville.steady_state.gt64.ms_p50"] = _median([spans[i].seconds * 1e3 for i in large])

    probes = by_name.get("liouville.probe_spectrum", [])
    out["liouville.probe_spectrum.calls"] = per_pass(len(probes))
    out["liouville.probe_spectrum.point_ms"] = _median(
        [spans[i].seconds * 1e3 / spans[i].detail for i in probes if spans[i].detail])
    converged = by_name.get("liouville.converged_moment_state", [])
    inner = sum(inside(i, "liouville.converged_moment_state") for i in solves)
    out["liouville.converged_moment_state.solves_per_call"] = (
        inner / len(converged) if converged else 0.0)
    builds = by_name.get("liouville.build_liouvillian", [])
    out["liouville.build_liouvillian.calls"] = per_pass(len(builds))
    out["liouville.build_liouvillian.ms_p50"] = _median(times("liouville.build_liouvillian", 1e3))
    out["liouville.build_liouvillian.nnz"] = per_pass(
        sum(spans[i].detail or 0 for i in builds))
    for name in ("liouville.stochastic_dephasing_check", "liouville.wigner"):
        out[f"{name}.calls"] = per_pass(len(by_name.get(name, ())))
        out[f"{name}.ms_p50"] = _median(times(name, 1e3))

    regressions = by_name.get("moments.regression_spectrum", [])
    out["moments.regression_spectrum.calls"] = per_pass(len(regressions))
    out["moments.regression_spectrum.s_p50"] = _median(times("moments.regression_spectrum"))
    out["moments.regression_spectrum.stiff_s"] = _median(
        [spans[i].seconds for i in regressions if ops[spans[i].run_id].kind == "stiff"])
    out["moments.steady_state.calls"] = per_pass(len(by_name.get("moments.steady_state", ())))
    out["moments.steady_state.us_p50"] = _median(times("moments.steady_state", 1e6))

    # closed forms per profile grid point: analytic calls not made by analytic
    profile_runs = {run_id for run_id, op in ops.items() if op.kind == "profile"}
    points = sum(op.points for run_id, op in ops.items() if run_id in profile_runs)
    analytic_s = sum(
        span.seconds for span in spans
        if span.layer == "analytic" and span.run_id in profile_runs
        and (span.parent is None or spans[span.parent].layer != "analytic"))
    out["analytic.point_us"] = analytic_s * 1e6 / points if points else 0.0

    mains = by_name.get("cli.main", [])
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = per_pass(
            sum(spans[i].seconds for i in mains if spans[i].detail == command))
    runs = by_name.get("validation.run_all", [])
    for name in GATE_CRITERIA:
        out[f"validation.{name}.s"] = per_pass(
            sum(spans[i].seconds for i in runs if ops[spans[i].run_id].name == name))

    for layer in LAYERS:
        mine = [i for i, span in enumerate(spans) if span.layer == layer]
        out[f"{layer}.calls"] = per_pass(len(mine))
        out[f"{layer}.self_s"] = per_pass(sum(selfs[i] for i in mine))
        out[f"{layer}.errors"] = per_pass(sum(spans[i].error for i in mine))

    out["trace.passes"] = n
    out["trace.overhead_frac"] = traced_run_s / plain_run_s - 1.0
    return {name: {"value": float(out[name]), "unit": unit} for name, unit in PER_LAYER}
