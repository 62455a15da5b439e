"""The command list and the comparison of ``tools/same_outputs.py``."""
import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import same_outputs  # noqa: E402

from cavlab import cli  # noqa: E402


def test_the_list_runs_every_subcommand():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {command[0] for command in same_outputs.COMMANDS} == set(sub.choices)


def test_a_one_byte_difference_reads_as_different():
    command = ("profile", "--config", "empty_jitter", "--method", "analytic")
    table = b"# config: {}\nomega,R\n1.0000000000000000e+00,5.0000000000000000e-01\n"
    assert same_outputs.same(command, (0, table, b""), (0, table, b""))
    assert not same_outputs.same(command, (0, table, b""), (0, table.replace(b"5.0", b"5.1"), b""))
    # a failed command is compared on its exit code and error line
    error = b"error: dimension 9216 exceeds budget 512\n"
    assert same_outputs.same(command, (2, b"", error), (2, b"", error))
    assert not same_outputs.same(command, (2, b"", error), (2, b"", error.replace(b"9", b"8")))
    assert not same_outputs.same(command, (2, b"", error), (1, b"", error))


def test_validate_is_compared_without_its_timings():
    def report(seconds: float, detail: str) -> bytes:
        return json.dumps({"seed": 1, "all_passed": True,
                           "results": [{"name": "a", "detail": detail}],
                           "timings": [{"name": "a", "seconds": seconds}]}).encode()

    command = ("validate",)
    assert same_outputs.same(command, (0, report(1.0, "x 1e-3"), b"[1.0 s]"),
                             (0, report(2.0, "x 1e-3"), b"[2.0 s]"))
    assert not same_outputs.same(command, (0, report(1.0, "x 1e-3"), b""),
                                 (0, report(1.0, "x 2e-3"), b""))
