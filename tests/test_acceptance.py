"""Acceptance gate: every advertised identity at its pinned tolerance.

Each registry entry of ``validation.CRITERIA`` gets one test, named after the
criterion, that runs it through ``validation.run_all``, prints its PASS/FAIL
line, and fails if the criterion does, a crash or a budget overrun included.
Criteria that cannot fit the dimension budget are skipped with the budget
message instead of failing, as ``cavlab validate`` reports them.
"""
import pytest

from cavlab import validation
from cavlab.validation import DEFAULT_SEED


def _run(name, seed=DEFAULT_SEED):
    [result] = validation.run_all(seed, only=[name])
    print()
    print(result.line())
    if result.skipped:
        pytest.skip(result.reason)
    assert result.passed, result.line()
    return result


def _criterion_test(name):
    def test():
        _run(name)
    return test


# one test per registry entry, test_<name>, so a new criterion is gated as
# soon as it is registered
for _name, _ in validation.CRITERIA:
    globals()[f"test_{_name.replace('-', '_')}"] = _criterion_test(_name)


def test_registry_names_are_unique_and_complete():
    names = [name for name, _ in validation.CRITERIA]
    assert len(names) == 9
    assert len(set(names)) == 9
    for name, (check, budget) in validation.CRITERIA:
        assert callable(check)
        assert budget is None or budget > 0.0


def test_coherent_state_preservation_scales_each_moment_by_its_own_size():
    # at this seed a draw has |s2| = 762 |s1|: residuals of the emitter
    # moments measured against |s1|^2 would read rounding as a failure
    _run("coherent-state-preservation", seed=115)
