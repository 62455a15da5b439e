"""Tests of the benchmark harness itself; no workload is run.

    python3 -m pytest perfbench/tests
"""
import json
import math
import signal
import time

import cavlab
import pytest
from cavlab import analytic, cli, model
from cavlab.model import SystemParams

import harness
import layers
import paths
import run
import workloads
from harness import Op, OpFailed
from spans import Span, Tracer, self_seconds


def test_self_time_subtracts_the_children_it_covers():
    spans = [
        Span("liouville.outer", None, "0:0", 0.0, 10.0),
        Span("liouville.inner", 0, "0:0", 1.0, 3.0),
        Span("moments.inner", 0, "0:0", 5.0, 6.0),
        Span("model.leaf", 1, "0:0", 1.5, 2.0),
    ]
    assert self_seconds(spans) == [7.0, 1.5, 1.0, 0.5]


def test_nested_calls_record_parents_and_run_ids():
    tracer = Tracer()
    inner = tracer.wrap("moments.inner", lambda x: x + 1)
    outer = tracer.wrap("liouville.outer", lambda x: inner(x) + inner(x))
    tracer.run_id = "3:1"
    assert outer(1) == 4
    tracer.run_id = None
    outer(1)                     # harness-side calls leave no span
    assert [(s.name, s.parent, s.run_id) for s in tracer.spans] == [
        ("liouville.outer", None, "3:1"),
        ("moments.inner", 0, "3:1"),
        ("moments.inner", 0, "3:1"),
    ]
    own = self_seconds(tracer.spans)
    children = tracer.spans[1].seconds + tracer.spans[2].seconds
    assert own[0] == pytest.approx(tracer.spans[0].seconds - children)


def test_a_raising_call_marks_its_span_and_propagates():
    tracer = Tracer()

    def boom():
        raise ValueError("bad input")

    tracer.run_id = "0:0"
    with pytest.raises(ValueError):
        tracer.wrap("analytic.boom", boom)()
    assert tracer.spans[0].error and not math.isnan(tracer.spans[0].end)


def test_install_sees_from_imports_and_remove_restores_them():
    originals = (cli.main, analytic.mean_field, analytic.derive, model.derive)
    tracer = Tracer()
    tracer.install(cavlab)
    try:
        assert analytic.derive is not originals[2] and analytic.derive is model.derive
        params = SystemParams(g=1.0, n_atoms=1, kappa1=0.5, kappa2=0.5, omega_c=0.0,
                              omega_a=0.0, gamma_par=1.0, beta=0.1)
        tracer.run_id = "0:0"
        analytic.mean_field(params, 0.0)
        tracer.run_id = None
    finally:
        tracer.remove()
    assert (cli.main, analytic.mean_field, analytic.derive, model.derive) == originals
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("analytic.mean_field", None), ("model.derive", 0)]


def _fake_pass(ran: list):
    def ok():
        ran.append("ok")
        return 0.5

    def crash():
        ran.append("crash")
        raise RuntimeError("solver blew up")

    def exit_code():
        ran.append("exit")
        return 1

    def code_check(code):
        if code != 0:
            raise OpFailed(f"exited with {code}")
        return []

    def after():
        ran.append("after")
        return 3.0

    return [
        Op("ok", "fake", ok, lambda err: [("error", err, 1.0)]),
        Op("crash", "fake", crash, lambda _: []),
        Op("exit", "fake", exit_code, code_check),
        Op("loose", "fake", after, lambda err: [("error", err, 1.5)]),
    ]


def test_failures_are_counted_and_the_run_goes_on():
    ran = []
    passes = harness.run_passes(lambda k: _fake_pass(ran), seconds=0.0)
    assert ran == ["ok", "crash", "exit", "after"]
    errors = [o.error for o in passes[0]]
    assert errors[0] is None
    assert errors[1] == "RuntimeError: solver blew up"
    assert errors[2] == "exited with 1"
    assert errors[3].startswith("error: 3.000e+00 outside tolerance")
    result = harness.result_line(passes, harness.end_to_end(passes, [1.0]))
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 3)
    assert result["metrics"]["pass_frac"]["value"] == 0.25
    assert result["metrics"]["err_ratio_max"]["value"] == 2.0


def test_host_meter_divides_by_the_readings_around_and_inside_a_call(monkeypatch):
    # the kernel runs at 2x, 4x, then 3x its reference time
    per_run = iter([2.0, 4.0, 3.0])
    monkeypatch.setattr(harness, "kernel_seconds",
                        lambda repeats: repeats * harness.REFERENCE_S * next(per_run))
    meter = harness.HostMeter()

    def call():
        meter._read(None, None)    # one reading inside the call, as SIGALRM does
        return 0.0

    outcome = harness.run_op(Op("a", "fake", call, lambda err: []), "0:0", meter=meter)
    around, inside = harness.HostMeter.AROUND, harness.HostMeter.INSIDE
    assert outcome.slowdown == pytest.approx(
        (2.0 * around + 4.0 * inside + 3.0 * around) / (2 * around + inside))
    assert 0.0 <= outcome.wall and meter.inside_wall > 0.0
    assert harness.pass_seconds([[outcome]]) == pytest.approx(outcome.wall / outcome.slowdown)


def test_host_meter_reads_inside_long_calls_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    meter = harness.HostMeter()
    meter.INTERVAL = 0.05

    def call():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return 0.0

    outcome = harness.run_op(Op("a", "fake", call, lambda err: []), "0:0", meter=meter)
    assert meter._runs > harness.HostMeter.AROUND     # readings were taken inside
    assert outcome.wall == pytest.approx(0.3 - meter.inside_wall, abs=0.05)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_failed_criterion_or_skip_fails_its_operation(monkeypatch):
    from cavlab import validation
    from cavlab.validation import CheckResult

    verdicts = {"a": CheckResult("a", False, "too far", 1.0),
                "b": CheckResult("b", False, "", 0.1, skipped=True, reason="budget")}
    monkeypatch.setattr(validation, "run_all", lambda seed, only: [verdicts[only[0]]])
    outcomes = [harness.run_op(workloads.criterion_op(name, 1), name) for name in "ab"]
    assert [o.error for o in outcomes] == ["FAIL a: too far", "SKIP b: budget"]


def test_gate_errors_are_read_from_the_criterion_detail():
    detail = ("residuals 1.74e-15/8.88e-16 (tol 1e-10), dev 2.91e-08 (density matrix, "
              "tol 1e-3), distance 0.0047 at 1e4 trajectories (tol 0.03), "
              "slope -0.996 (want -1 within 5%); deviation 1.11e-03 <= 2.40e-03")
    found = [(err, tol) for _, err, tol in workloads.stated_errors("c", detail)]
    assert found == [(1.74e-15, 1e-10), (8.88e-16, 1e-10), (2.91e-08, 1e-3),
                     (0.0047, 0.03), (1.11e-03, 2.40e-03)]


def test_tail_needs_ten_calls_beyond_it():
    assert layers.tail([1.0, 2.0, 3.0]) == (3.0, 100.0)
    value, pct = layers.tail([float(k) for k in range(1, 101)])
    assert pct == 90.0 and 90.0 <= value <= 91.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((paths.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in harness.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)

    passes = harness.run_passes(lambda k: _fake_pass([])[:1], seconds=0.0)
    emitted = harness.end_to_end(passes, [1.0])
    assert list(emitted) == [m["name"] for m in spec["end_to_end"]]
    emitted = layers.per_layer([Span("cli.main", None, "0:0", 0.0, 1.0, detail="profile")],
                               passes, 1.0, 1.1)
    assert list(emitted) == [m["name"] for m in spec["per_layer"]]
    assert emitted["cli.profile.s"]["value"] == 1.0
