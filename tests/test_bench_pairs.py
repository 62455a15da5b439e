"""The summary of ``tools/bench_pairs.py`` on canned result lines."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402

METRICS = {"run_s": "lower", "pass_frac": "higher"}


def _stdout(run_s: float, pass_frac: float, failed: int = 0) -> str:
    env = {"environment": {"workload": "gate", "seed": 1, "nproc": 2, "python": "3.11.7",
                           "numpy": "2.4.6", "scipy": "1.17.1",
                           "blas_threads": {"libopenblas.so": 1}}}
    result = {"correct": True, "attempted": 8, "failed": failed,
              "metrics": {"run_s": {"value": run_s, "unit": "s"},
                          "pass_frac": {"value": pass_frac, "unit": "ratio"}}}
    return f"warning: a line before the result\n{json.dumps(env)}\n{json.dumps(result)}\n"


def _runs(lines: dict[str, list[tuple[float, float]]],
          failed: dict[str, int] | None = None) -> list[dict]:
    runs = []
    for side, values in lines.items():
        for pair, (run_s, pass_frac) in enumerate(values, start=1):
            env, result = bench_pairs.parse_output(
                _stdout(run_s, pass_frac, (failed or {}).get(side, 0)))
            assert env["nproc"] == 2 and result["attempted"] == 8
            runs.append({"workload": "gate", "side": side, "seed": pair, "pair": pair,
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": result["metrics"]})
    return runs


def _gain(runs: list[dict]) -> dict:
    return bench_pairs.claim(bench_pairs.summarize(runs, METRICS), runs, "gate", "run_s",
                             "lower")


def test_summary_gives_quartiles_and_pairs_won():
    runs = _runs({"parent": [(1.0, 1.0), (0.9, 1.0), (1.2, 1.0), (1.1, 0.5), (0.95, 1.0)],
                  "change": [(0.7, 1.0), (0.75, 1.0), (0.72, 0.9), (0.95, 1.0), (0.96, 1.0)]})
    summary = bench_pairs.summarize(runs, METRICS)
    run_s = summary["gate"]["run_s"]
    # parent sorted 0.9 0.95 1.0 1.1 1.2: quartiles at positions 1 and 3 of 0-4
    assert run_s["parent"] == {"n": 5, "median": 1.0, "q1": 0.95, "q3": 1.1}
    assert run_s["change"] == {"n": 5, "median": 0.75, "q1": 0.72, "q3": 0.95}
    assert (run_s["change_wins"], run_s["pairs"]) == (4, 5)      # 0.96 > 0.95 loses
    # higher is better for pass_frac, and a tie is not a win
    assert summary["gate"]["pass_frac"]["change_wins"] == 1
    gain = _gain(runs)
    assert gain["median_gap"] == pytest.approx(0.25)
    assert gain["parent_iqr"] == pytest.approx(0.15)
    assert not gain["holds"]                                      # 4 of 5 < 90%


def test_claim_holds_only_past_the_parent_spread():
    wide = _runs({"parent": [(1.0, 1.0), (0.5, 1.0), (1.5, 1.0), (0.6, 1.0)],
                  "change": [(0.9, 1.0), (0.4, 1.0), (1.4, 1.0), (0.5, 1.0)]})
    gain = _gain(wide)
    assert gain["change_wins"] == 4 and gain["median_gap"] < gain["parent_iqr"]
    assert not gain["holds"]
    narrow = {"parent": [(1.0, 1.0), (1.01, 1.0), (0.99, 1.0)],
              "change": [(0.8, 1.0), (0.81, 1.0), (0.79, 1.0)]}
    assert _gain(_runs(narrow))["holds"]
    # the same gain with failures on both sides, no larger a share on the change's
    assert _gain(_runs(narrow, failed={"parent": 2, "change": 2}))["holds"]


def test_claim_fails_when_more_operations_fail_on_the_change():
    narrow = {"parent": [(1.0, 1.0), (1.01, 1.0), (0.99, 1.0)],
              "change": [(0.8, 1.0), (0.81, 1.0), (0.79, 1.0)]}
    gain = _gain(_runs(narrow, failed={"change": 1}))
    assert gain["change_wins"] == 3 and gain["median_gap"] > gain["parent_iqr"]
    assert gain["parent_failed_share"] == 0.0
    assert gain["change_failed_share"] == pytest.approx(3 / 24)
    assert not gain["holds"]


def test_a_single_run_per_side_is_its_own_quartiles():
    assert bench_pairs.quartiles([0.5]) == {"n": 1, "median": 0.5, "q1": 0.5, "q3": 0.5}
