"""Closed-loop runner, failure counting and the end-to-end metrics of a run.

An :class:`Op` is one call into cavlab plus the check of what it returned.
Operations run one after another in this process: each starts when the
previous one has returned.  A crash, a result that reports its own failure
(:class:`OpFailed`) and an output outside its tolerance each count as one
failed operation, and the run goes on.

A fixed reference kernel is timed before, during and after every call
(:class:`HostMeter`), and the call's times are divided by how much slower
than usual the kernel ran; see README.md, "Host speed".
"""
from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable

import paths

# (name, unit, better) of every end-to-end metric, as in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_frac", "ratio", "higher"),
    ("err_ratio_max", "ratio", "lower"),
)

Check = tuple[str, float, float]     # (what, observed error, tolerance)


class OpFailed(Exception):
    """The program returned normally but reported a failure (exit code, FAIL)."""


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Iterable[Check]]
    points: int = 0          # grid points the call evaluates, where that applies


@dataclass
class Outcome:
    op: Op
    run_id: str
    wall: float
    cpu: float
    error: str | None
    worst_ratio: float       # largest error / tolerance over the op's checks
    slowdown: float = 1.0    # host slowdown during the call, from HostMeter


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_op(op: Op, run_id: str, tracer=None, meter: "HostMeter | None" = None) -> Outcome:
    """Time one call, then check its result outside the timed region.

    With a ``meter``, the host is read around and during the call, and the
    time the readings inside the call took is taken out of its times."""
    error = None
    if tracer is not None:
        tracer.run_id = run_id
    if meter is not None:
        meter.arm()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result = op.run()
    except Exception as exc:       # a crash is one failed operation
        error = _describe(exc)
        traceback.print_exc(file=sys.stderr)
    finally:
        if meter is not None:
            meter.disarm()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if meter is not None:
            wall, cpu = wall - meter.inside_wall, cpu - meter.inside_cpu
        if tracer is not None:
            tracer.run_id = None
    slowdown = meter.finish() if meter is not None else 1.0
    worst = 0.0
    if error is None:
        try:
            for what, err, tol in op.check(result):
                ratio = err / tol
                worst = max(worst, ratio) if ratio == ratio else math.inf
                if not err <= tol and error is None:
                    error = f"{what}: {err:.3e} outside tolerance {tol:.1e}"
        except OpFailed as exc:
            error = str(exc)
        except Exception as exc:   # an unreadable output fails its operation
            error = _describe(exc)
            traceback.print_exc(file=sys.stderr)
    if error is not None:
        print(f"FAIL {op.name}: {error}", file=sys.stderr)
    return Outcome(op, run_id, wall, cpu, error, worst, slowdown)


# Mean seconds of one reference kernel run while the tuning machine (2 vCPUs
# of a shared Xeon host) runs at its usual, faster speed.  Only ratios of it
# matter: every run of every commit divides by the same constant.
REFERENCE_S = 0.010
_kernel_inputs: tuple | None = None


def kernel_seconds(repeats: int) -> float:
    """Seconds ``repeats`` runs of the reference kernel take now.

    The kernel is numpy and scipy work of the kinds cavlab does (float
    formatting in Python, array arithmetic, a small matrix product and
    sparse LU) at sizes that stay on one thread, and no cavlab code.
    """
    global _kernel_inputs
    import numpy as np
    from scipy import sparse
    from scipy.sparse.linalg import splu

    if _kernel_inputs is None:
        rng = np.random.default_rng(0)
        lu_matrix = (sparse.random(400, 400, density=0.01, random_state=1)
                     + 4.0 * sparse.identity(400)).tocsc()
        _kernel_inputs = (rng.standard_normal(200_000), rng.standard_normal((128, 128)),
                          lu_matrix)
    vec, dense, lu_matrix = _kernel_inputs
    start = time.perf_counter()
    for _ in range(repeats):
        ",".join("%.17g" % x for x in vec[:5000].tolist())
        float(np.exp(-vec * vec).sum() + (dense @ dense).sum())
        splu(lu_matrix)
    return time.perf_counter() - start


class HostMeter:
    """How much slower than usual the host ran during each call: 1.0 when the
    reference kernel takes REFERENCE_S.

    A reading of ``AROUND`` kernel runs, about 80 ms, is taken before the
    first call and after each call, outside the timed region.  While a call
    runs, SIGALRM takes a reading of ``INSIDE`` runs every ``INTERVAL``
    seconds, so a long call is followed through the host's slow spells; the
    time those readings take is kept out of the call's times.  A call's
    slowdown is the kernel's mean time over the readings from the one before
    it to the one after it.  The mean, not the fastest run, because it counts
    the host's brief stalls as the calls do.
    """
    AROUND = 8
    INSIDE = 3
    INTERVAL = 1.0

    def __init__(self):
        self._last = (kernel_seconds(self.AROUND), self.AROUND)
        self._previous_handler = None

    def arm(self) -> None:
        self._seconds, self._runs = self._last
        self.inside_wall = self.inside_cpu = 0.0
        self._previous_handler = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def _read(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self._seconds += kernel_seconds(self.INSIDE)
        self._runs += self.INSIDE
        self.inside_wall += time.perf_counter() - wall
        self.inside_cpu += time.process_time() - cpu

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def finish(self) -> float:
        """Take the reading after the call; return the call's slowdown."""
        self._last = (kernel_seconds(self.AROUND), self.AROUND)
        seconds, runs = self._seconds + self._last[0], self._runs + self._last[1]
        return seconds / runs / REFERENCE_S


def run_passes(make_pass: Callable[[int], list[Op]], seconds: float,
               tracer=None, first: int = 0) -> list[list[Outcome]]:
    """Run whole passes while the next one, at the mean pass time so far, is
    expected to end within ``seconds``; always at least one.  Each call is
    metered by one :class:`HostMeter`."""
    passes: list[list[Outcome]] = []
    meter = HostMeter()
    start = time.perf_counter()
    while True:
        k = first + len(passes)
        passes.append([run_op(op, f"{k}:{i}", tracer, meter)
                       for i, op in enumerate(make_pass(k))])
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def pass_seconds(passes: list[list[Outcome]], field: str = "wall") -> float:
    """Seconds of one pass: each operation's time divided by the host's
    slowdown during it, its median over the passes, and the sum of those
    medians.

    Per-operation medians drop a slow spell in one pass that a median of
    whole-pass times, over the two or three passes of a run, would keep.
    """
    return sum(statistics.median(getattr(o, field) / o.slowdown for o in column)
               for column in zip(*passes))


def end_to_end(passes: list[list[Outcome]], setup_seconds: list[float]) -> dict:
    outcomes = [o for p in passes for o in p]
    failed = sum(o.error is not None for o in outcomes)
    values = {
        "setup_s": statistics.median(setup_seconds),
        "run_s": pass_seconds(passes, "wall"),
        "cpu_s": pass_seconds(passes, "cpu"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed / len(outcomes),
        "err_ratio_max": max(o.worst_ratio for o in outcomes),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END}


def result_line(passes: list[list[Outcome]], metrics: dict) -> dict:
    outcomes = [o for p in passes for o in p]
    failed = sum(o.error is not None for o in outcomes)
    return {"correct": failed == 0, "attempted": len(outcomes),
            "failed": failed, "metrics": metrics}


def time_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Set-up seconds of ``repeats`` fresh processes, import plus inputs, each
    divided by the host's slowdown in the readings just before and after it."""
    cmd = [sys.executable, str(paths.BENCH_DIR / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    out = []
    before = kernel_seconds(HostMeter.AROUND)
    for _ in range(repeats):
        proc = subprocess.run(cmd, cwd=paths.ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        after = kernel_seconds(HostMeter.AROUND)
        slowdown = (before + after) / (2 * HostMeter.AROUND) / REFERENCE_S
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"] / slowdown)
        before = after
    return out


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                out[os.path.basename(path)] = getter()
                break
    return out


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=paths.ROOT, capture_output=True, text=True,
                              timeout=30)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(paths.ROOT):
        return None
    return lines[1]


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """What a result depends on besides the code: versions, cores, threads."""
    import numpy
    import scipy

    try:
        blas = _blas_threads()
    except OSError:
        blas = {}
    budget = os.environ.get("CAVLAB_BUDGET")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas,
        "thread_env": {key: os.environ[key] for key in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if key in os.environ},
        "git_commit": _git_commit(),
        "cavlab_budget": budget,
        # CAVLAB_BUDGET changes which gate checks skip: such runs do not compare
        "flagged": budget is not None,
    }
