"""Acceptance gate: every advertised identity at its pinned tolerance.

Each test runs one validation check, prints its PASS/FAIL line, and fails if
the check does.  Checks that cannot fit the dimension budget are skipped with
the budget message instead of failing.
"""
import pytest

from cavlab import validation
from cavlab.validation import DEFAULT_SEED


def _run(fn):
    result = fn(DEFAULT_SEED)
    print()
    print(result.line())
    if result.skipped:
        pytest.skip(result.reason)
    assert result.passed, result.detail
    return result


def test_registry_names_are_unique_and_complete():
    names = [name for name, _ in validation.CRITERIA]
    assert len(names) == 9
    assert len(set(names)) == 9
    for name, fn in validation.CRITERIA:
        assert callable(fn)


def test_steady_state_equivalence():
    _run(validation.check_steady_state_equivalence)


def test_energy_conservation():
    _run(validation.check_energy_conservation)


def test_transmission_profile():
    _run(validation.check_transmission_profile)


def test_jitter_coherence_ratio():
    _run(validation.check_jitter_coherence_ratio)


def test_spectrum_triple_agreement():
    _run(validation.check_spectrum_triple_agreement)


def test_height_bounds_and_limits():
    _run(validation.check_height_bounds_and_limits)


def test_stochastic_dephasing():
    _run(validation.check_stochastic_dephasing)


def test_coherent_state_preservation():
    _run(validation.check_coherent_state_preservation)


def test_coherent_state_preservation_scales_each_moment_by_its_own_size():
    # at this seed a draw has |s2| = 762 |s1|: residuals of the emitter
    # moments measured against |s1|^2 would read rounding as a failure
    result = validation.check_coherent_state_preservation(115)
    assert result.passed, result.detail


def test_linear_regime_boundary():
    _run(validation.check_linear_regime_boundary)
