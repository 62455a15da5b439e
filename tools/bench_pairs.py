"""Alternating parent/change pairs of the benchmark, written as one BENCH file.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 \\
        --change "what the change does" --claim gate:run_s --out BENCH_22.json

exports the parent revision with ``git archive`` into a temporary directory
and runs BENCHMARK.json's command with ``--trace 0`` for its ``run_seconds``
on it and on this working tree, one process at a time.  ``--parent`` names
the revision the working tree is compared with: ``HEAD~1`` once the change
is committed, ``HEAD`` while it is not.  For each workload in
BENCHMARK.json, pair k runs both sides at seed k: the working tree first in
odd pairs, the parent first in even pairs, so a drift in host speed falls
on both sides alike.  The file holds every run's result, each side's median
and quartiles of every end-to-end metric in BENCHMARK.json, the pairs the
change won, the host and the command.  ``--traces`` adds one ``--trace 1``
run per side of the named workloads, and ``--claim workload:metric`` states
whether a gain holds: the change better in at least 9 of 10 pairs, its
median better than the parent's by more than the parent's interquartile
range, and no larger share of its operations failed.
"""
from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WIN_SHARE = 0.9


def run_command(bench: dict, workload: str, seed: int | str, trace: int) -> list[str]:
    """BENCHMARK.json's command for one workload, seed and trace setting."""
    return [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", f"{bench['run_seconds']:g}", "--trace", str(trace)]


def parse_output(stdout: str) -> tuple[dict, dict]:
    """The environment and the result, the last two lines run.py prints,
    with each metric's {"value", "unit"} read as its value."""
    env_line, result_line = stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return json.loads(env_line)["environment"], result


def quartiles(values: list[float]) -> dict:
    """n, median and quartiles, linear between order statistics (numpy's default)."""
    if len(values) == 1:
        return {"n": 1, "median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def _better(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload and metric: each side's quartiles, and in how many pairs
    the change was strictly better (``metrics`` maps a name to "lower" or
    "higher", the direction that is better)."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        summary[workload] = {}
        for name, better in metrics.items():
            by_pair = {side: {r["pair"]: r["metrics"][name] for r in runs
                              if r["workload"] == workload and r["side"] == side}
                       for side in SIDES}
            entry = {side: quartiles(list(by_pair[side].values())) for side in SIDES}
            pairs = sorted(by_pair["parent"].keys() & by_pair["change"].keys())
            entry["change_wins"] = sum(_better(by_pair["change"][k], by_pair["parent"][k],
                                               better) for k in pairs)
            entry["pairs"] = len(pairs)
            summary[workload][name] = entry
    return summary


def failed_share(runs: list[dict], workload: str, side: str) -> float:
    """The share of one side's attempted operations on a workload that failed."""
    mine = [r for r in runs if r["workload"] == workload and r["side"] == side]
    return sum(r["failed"] for r in mine) / max(sum(r["attempted"] for r in mine), 1)


def claim(summary: dict, runs: list[dict], workload: str, metric: str,
          better: str) -> dict:
    """Whether the change's gain on one metric holds.  The failed shares
    compare shares, not counts, as a faster side attempts more operations
    in the same run length."""
    entry = summary[workload][metric]
    parent, change = entry["parent"], entry["change"]
    gap = parent["median"] - change["median"]
    if better != "lower":
        gap = -gap
    iqr = parent["q3"] - parent["q1"]
    failed = {side: failed_share(runs, workload, side) for side in SIDES}
    return {"workload": workload, "metric": metric, "better": better,
            "change_wins": entry["change_wins"], "pairs": entry["pairs"],
            "parent_median": parent["median"], "change_median": change["median"],
            "parent_iqr": iqr, "median_gap": gap,
            "parent_failed_share": failed["parent"], "change_failed_share": failed["change"],
            "holds": (entry["change_wins"] >= WIN_SHARE * entry["pairs"] and gap > iqr
                      and failed["change"] <= failed["parent"])}


def host(env: dict) -> dict:
    """The machine and library versions the runs report."""
    with open("/proc/cpuinfo") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), platform.processor())
    threads = set(env["blas_threads"].values())
    return {"cpu": cpu, "vcpus": env["nproc"], "machine": platform.machine(),
            "python": env["python"], "numpy": env["numpy"], "scipy": env["scipy"],
            "blas_threads": threads.pop() if len(threads) == 1 else env["blas_threads"]}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def _tree(path: Path) -> dict[str, bytes]:
    return {str(f.relative_to(path)): f.read_bytes() for f in sorted(path.rglob("*"))
            if f.is_file() and "__pycache__" not in f.parts}


def _extract(archive: bytes, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on; before
        # that the archive, written by git from this repository, is unpacked as is
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                else {}))


def _run(bench: dict, checkout: Path, workload: str, seed: int,
         trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(run_command(bench, workload, seed, trace), cwd=checkout,
                          capture_output=True, text=True,
                          timeout=10 * bench["run_seconds"] + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return parse_output(proc.stdout)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traces", nargs="*", default=[],
                        help="workloads to run once per side with --trace 1")
    parser.add_argument("--claim", help="workload:metric whose gain is claimed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    claimed_metric = args.claim.split(":") if args.claim else None
    if claimed_metric and (len(claimed_metric) != 2 or claimed_metric[0] not in workloads
                           or claimed_metric[1] not in metrics):
        print(f"error: --claim wants workload:metric of this run, got {args.claim!r}",
              file=sys.stderr)
        return 2
    if not set(args.traces) <= set(workloads):
        print(f"error: --traces takes workloads of {workloads}", file=sys.stderr)
        return 2
    seconds = bench["run_seconds"]
    runs, traces = [], []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp)
        _extract(_git("archive", args.parent), parent_dir)
        checkouts = {"parent": parent_dir, "change": ROOT}
        same_bench = _tree(parent_dir / "perfbench") == _tree(ROOT / "perfbench")
        for workload in workloads:
            for pair in range(1, args.pairs + 1):      # pair k runs at seed k
                for side in (SIDES[::-1] if pair % 2 else SIDES):
                    env, result = _run(bench, checkouts[side], workload, pair, 0)
                    runs.append({"workload": workload, "side": side, "seed": pair,
                                 "pair": pair, "seconds": seconds,
                                 "attempted": result["attempted"],
                                 "failed": result["failed"], "metrics": result["metrics"]})
                    print(f"{workload} pair {pair} {side}: run_s "
                          f"{result['metrics']['run_s']:.4f}", file=sys.stderr)
        trace_seed = args.pairs + 1
        for workload in args.traces:
            for side in SIDES:
                env, result = _run(bench, checkouts[side], workload, trace_seed, 1)
                traces.append({"workload": workload, "side": side, "seed": trace_seed,
                               "seconds": seconds, "trace": 1,
                               "metrics": result["metrics"]})
    summary = summarize(runs, metrics)
    method = (f"each side run from its own copy of the files, one process at a time; "
              f"perfbench/ {'identical' if same_bench else 'DIFFERENT'} on both sides. "
              f"{', '.join(workloads)}, seeds 1-{args.pairs} each, pair k at the "
              f"k-th seed: change first in odd pairs, parent first in even pairs")
    if traces:
        method += (f". traces: one --trace 1 run per side of {', '.join(args.traces)} "
                   f"at seed {trace_seed}")
    claimed = (claim(summary, runs, *claimed_metric, metrics[claimed_metric[1]])
               if args.claim else None)
    command = run_command(bench, "<workload>", "<seed>", 0)
    doc = {"change": args.change,
           "parent_commit": _git("rev-parse", "--short", args.parent).decode().strip(),
           "command": " ".join(command),
           "method": method, "host": host(env), "claim": claimed, "summary": summary,
           "traces": traces, "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
