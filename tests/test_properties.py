"""Properties over the acceptance gate's parameter domain (rates 1e-2..1e2)
and over rates 1e-4..1e4.

On the gate's domain the array forms of the closed forms and of the moment
solve must equal per-point calls, and the resolvent spectrum, the flux
identity, the relaxation of the moment equations and the height bound must
hold on every draw.  Over rates 1e-4..1e4 the closed forms must match the
moment solve, the flux identity and the height bound must hold, and a
parameter record must survive the JSON round trip.
"""
import json
import math

import numpy as np
import pytest

from cavlab import analytic, moments
from cavlab.model import SystemParams, params_from_json, params_to_dict

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

OMEGAS = np.linspace(-6.0, 6.0, 11)


@st.composite
def emitter_params(draw, decades: float) -> SystemParams:
    """A record with emitters and without jitter: every rate in
    10**-decades..10**decades (the gate's domain is 2 decades), each
    dephasing channel on or off, detunings in [-5, 5], a complex drive."""
    rate = st.floats(-decades, decades).map(lambda e: 10.0 ** e)
    channel = st.one_of(st.none(), rate.map(lambda r: 1.0 / r))
    return SystemParams(
        g=draw(rate), n_atoms=draw(st.sampled_from([1, 2, 3, 5, 20])),
        kappa1=draw(rate), kappa2=draw(rate), gamma_par=draw(rate),
        omega_c=draw(st.floats(-5.0, 5.0)), omega_a=draw(st.floats(-5.0, 5.0)),
        tau_indiv=draw(channel) or math.inf, tau_common=draw(channel) or math.inf,
        beta=complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.05, 2.0))),
    )


def _relative(array, points) -> float:
    points = np.asarray(points)
    return float(np.max(np.abs(array - points) / np.maximum(np.abs(points), 1e-300)))


@given(emitter_params(2.0))
def test_array_moment_solve_equals_scalar_solves(p):
    batch = moments.steady_state(p, OMEGAS).packed()
    for k, om in enumerate(OMEGAS):
        point = moments.steady_state(p, om).packed()
        assert np.max(np.abs(batch[k] - point)) <= 1e-12 * np.max(np.abs(point))


@given(emitter_params(2.0))
def test_array_closed_forms_equal_scalar_calls(p):
    r, t = analytic.field_coefficients(p, OMEGAS)
    big_r, big_t = analytic.intensity_coefficients(p, OMEGAS)
    summary = analytic.steady_state_summary(p, OMEGAS)
    points = [(*analytic.field_coefficients(p, om), *analytic.intensity_coefficients(p, om),
               analytic.steady_state_summary(p, om)) for om in OMEGAS]
    # r, t, R and T are measured against the incident amplitude or flux,
    # which they never exceed: r = 2 kappa1 / den - 1 cancels near matching
    for k, array in enumerate((r, t, big_r, big_t)):
        assert np.max(np.abs(array - np.array([pt[k] for pt in points]))) <= 1e-14
    for name in ("mean_field", "photon_number", "p_exc"):
        assert _relative(getattr(summary, name),
                         [getattr(pt[4], name) for pt in points]) <= 1e-14


@given(emitter_params(2.0), st.floats(-6.0, 6.0))
def test_resolvent_spectrum_matches_closed_form(p, omega_l):
    grid = analytic.spectrum_grid(p)
    s = moments.regression_spectrum(p, omega_l, grid).incoherent_density
    ref = analytic.emission_spectrum(p, omega_l, grid).incoherent_density
    if not ref.any():        # no dephasing: all light is in the coherent line
        assert not s.any()
        return
    mask = ref > 0.01 * ref.max()
    assert _relative(s[mask], ref[mask]) <= 1e-11


@given(emitter_params(2.0))
def test_flux_identity(p):
    _assert_flux_identity(p)


@given(emitter_params(4.0))
def test_flux_identity_over_wide_rates(p):
    _assert_flux_identity(p)


def _assert_flux_identity(p):
    flux = abs(p.beta) ** 2
    big_r, big_t = analytic.intensity_coefficients(p, OMEGAS)
    loss = p.n_atoms * p.gamma_par * analytic.steady_state_summary(p, OMEGAS).p_exc / flux
    assert np.max(np.abs(big_r + big_t + loss - 1.0)) <= 1e-10
    state = moments.steady_state(p, OMEGAS)
    big_r, big_t = moments.intensity_from_state(p, state)
    loss = p.n_atoms * p.gamma_par * state.s5 / flux
    assert np.max(np.abs(big_r + big_t + loss - 1.0)) <= 1e-10


@given(emitter_params(2.0))
def test_moment_equations_relax(p):
    # every mode of the homogeneous moment system decays, so any initial
    # state relaxes to the steady state
    _, _, matrix = moments._steady_solution(p, OMEGAS)
    assert matrix.shape == (OMEGAS.size, 9, 9)
    assert np.max(np.linalg.eigvals(matrix).real) < 0.0


@given(emitter_params(2.0))
def test_height_bounded_by_cooperativity(p):
    report = analytic.lorentzian_height(p)
    assert report.height <= report.cooperativity * (1 + 1e-12)


@given(emitter_params(4.0))
def test_height_bounded_by_cooperativity_over_wide_rates(p):
    report = analytic.lorentzian_height(p)
    assert report.height <= report.cooperativity * (1 + 1e-12)


@given(emitter_params(4.0))
def test_closed_forms_match_moments_over_wide_rates(p):
    # the steady-state-equivalence criterion, out to rates 1e-4..1e4
    ref = analytic.steady_state_summary(p, OMEGAS)
    state = moments.steady_state(p, OMEGAS)
    assert _relative(state.s1, ref.mean_field) <= 1e-9
    assert _relative(state.s3, ref.photon_number) <= 1e-9
    assert _relative(state.s5, ref.p_exc) <= 1e-9


_wide_rate = st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)
_wide_time = st.one_of(st.none(), _wide_rate.map(lambda rate: 1.0 / rate))


@given(g=_wide_rate, n_atoms=st.integers(0, 20), kappa1=_wide_rate,
       kappa2=_wide_rate, gamma_par=_wide_rate, omega_c=st.floats(-1e4, 1e4),
       omega_a=st.floats(-1e4, 1e4), tau_indiv=_wide_time, tau_common=_wide_time,
       tau_jitter=_wide_time, beta=st.complex_numbers(max_magnitude=1e4))
def test_json_round_trip_over_wide_rates(tau_indiv, tau_common, tau_jitter, **fields):
    # each noise channel on (a finite time) or off (null in the JSON)
    times = dict(tau_indiv=tau_indiv, tau_common=tau_common, tau_jitter=tau_jitter)
    p = SystemParams(**fields, **{key: value or math.inf for key, value in times.items()})
    # the text a config or an output header carries
    assert params_from_json(json.dumps(params_to_dict(p))) == p
