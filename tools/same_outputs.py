"""Byte-for-byte comparison of cavlab's command outputs with another revision's.

    python3 tools/same_outputs.py --parent 3d01be8

exports the revision with ``git archive`` into a temporary directory and
runs every command of ``COMMANDS`` there and in this working tree, each in
its own process: ``python -m cavlab.cli`` with that tree's ``src`` first on
PYTHONPATH and one BLAS thread.  Both sides read the same configs, copied
from this tree's ``configs/`` into the temporary directory with one-emitter
copies of the two five-emitter configs, whose density matrices are over the
budget.  A command is compared on its exit code and on what it wrote to
stdout if it exited 0, to stderr if not; ``validate`` on its report without
the ``timings`` key, which holds wall times.  It prints one line per
command, ``same`` or ``DIFFERENT`` and the command, and exits 1 if any
output differs.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, _extract, _git

SHIPPED = ("atoms_common_dephasing", "atoms_resonant", "empty_jitter")
# the configs the density-matrix commands run on
SMALL = ("atoms_common_dephasing_n1", "atoms_resonant_n1", "empty_jitter")


def _commands() -> list[tuple[str, ...]]:
    out = []
    for name in SHIPPED:
        for method in ("analytic", "moments"):
            out.append(("profile", "--config", name, "--method", method))
            out += [("spectrum", "--config", name, "--method", method, "--omega-l", omega_l)
                    for omega_l in ("0", "8")]
    for name in SMALL:
        probe = ("spectrum", "--config", name, "--method", "probe")
        out += [probe + ("--grid=-12:12:97", "--omega-l", omega_l) for omega_l in ("0", "8")]
        out.append(probe + ("--grid=-12:12:41", "--format", "json"))
        out.append(("wigner", "--config", name))
        out.append(("wigner", "--config", name, "--omega-l", "8", "--format", "json"))
    out += [("height-scan", "--config", name, "--sweep", sweep)
            for name in SHIPPED for sweep in ("dephasing_time", "gamma_par")]
    out.append(("validate",))    # at DEFAULT_SEED
    return out


COMMANDS = _commands()


def write_configs(into: Path) -> None:
    """The shipped configs, and one-emitter copies of those with emitters."""
    for name in SHIPPED:
        text = (ROOT / "configs" / f"{name}.json").read_text()
        (into / f"{name}.json").write_text(text)
        raw = json.loads(text)
        if raw["n_atoms"] > 1:
            (into / f"{name}_n1.json").write_text(json.dumps(dict(raw, n_atoms=1)))


def run(tree: Path, command: tuple[str, ...], configs: Path) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one command run in one tree."""
    argv = [str(configs / f"{arg}.json") if previous == "--config" else arg
            for previous, arg in zip(("",) + command, command)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "cavlab.cli", *argv], env=env,
                          capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def _compared(command: tuple[str, ...], result: tuple[int, bytes, bytes]) -> tuple:
    code, stdout, stderr = result
    if command[0] == "validate" and stdout:
        report = json.loads(stdout)
        del report["timings"]
        return code, json.dumps(report, indent=2).encode()
    return (code, stdout) if code == 0 else (code, stderr)


def same(command: tuple[str, ...], parent: tuple[int, bytes, bytes],
         change: tuple[int, bytes, bytes]) -> bool:
    """Whether one command's two results are the same, as the module says."""
    return _compared(command, parent) == _compared(command, change)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        parent, configs = Path(tmp) / "parent", Path(tmp) / "configs"
        parent.mkdir()
        configs.mkdir()
        _extract(_git("archive", args.parent), parent)
        write_configs(configs)
        for command in COMMANDS:
            ok = same(command, run(parent, command, configs), run(ROOT, command, configs))
            differ += not ok
            print(f"{'same' if ok else 'DIFFERENT':<9} cavlab {' '.join(command)}", flush=True)
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} outputs the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
