"""Moment-equation oracle: steady states and the regression spectrum."""
import math

import numpy as np
import pytest

from cavlab import analytic, moments
from cavlab.errors import ParameterError
from cavlab.model import SystemParams
from cavlab.moments import MomentState


def _params(**overrides):
    base = dict(g=2.0, n_atoms=5, kappa1=0.5, kappa2=0.5, omega_c=0.0,
                omega_a=0.0, gamma_par=2.0, beta=0.05)
    base.update(overrides)
    return SystemParams(**base)


def _random_params(rng, n_atoms, jitter=False):
    g, k1, k2, gam = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 4))
    taus = {}
    for key in ("tau_indiv", "tau_common") + (("tau_jitter",) if jitter else ()):
        if rng.random() < 0.75:
            taus[key] = 1.0 / np.exp(rng.uniform(np.log(1e-2), np.log(1e2)))
    return SystemParams(g=g, n_atoms=n_atoms, kappa1=k1, kappa2=k2,
                        omega_c=rng.uniform(-5, 5), omega_a=rng.uniform(-5, 5),
                        gamma_par=gam,
                        beta=complex(rng.normal(), rng.normal()), **taus)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# --- derivative and steady state ---------------------------------------------

def test_derivative_vanishes_at_steady_state():
    p = _params(tau_indiv=0.5, tau_common=2.0)
    ss = moments.steady_state(p, 0.7)
    assert np.max(np.abs(moments.derivative(p, 0.7, ss).packed())) < 1e-10


def test_zero_state_zero_drive_is_fixed_point():
    p = _params(beta=0.0)
    d = moments.derivative(p, 0.0, MomentState(0j, 0j, 0.0, 0j, 0.0, 0.0))
    assert np.all(d.packed() == 0.0)


def test_steady_state_matches_closed_forms():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(60):
        p = _random_params(rng, int(rng.choice([1, 2, 3, 5, 20])))
        for om in np.linspace(-6, 6, 5):
            ss = moments.steady_state(p, om)
            ref = analytic.steady_state_summary(p, om)
            worst = max(worst, _rel(ss.s3, ref.photon_number),
                        _rel(ss.s5, ref.p_exc),
                        abs(ss.s1 - ref.mean_field) / abs(ref.mean_field))
    assert worst < 1e-9


def test_steady_state_accurate_at_a_transmission_zero():
    # 20 strongly coupled emitters block the cavity: near omega_a the drive
    # work and the emitter absorption cancel to 1 part in 1e7, which cost a
    # single 9x9 solve of all moments 7 digits of T
    p = SystemParams(g=64.75365087323328, n_atoms=20, kappa1=0.03721180589306598,
                     kappa2=0.018273568607838304, omega_c=-4.582592650208274,
                     omega_a=-3.50857119396757, gamma_par=0.018606791507735913,
                     beta=complex(-1.3907348415318277, -0.6482490491747387))
    grid = np.linspace(-10.0, 10.0, 1601)
    _, big_t = moments.intensity_from_state(p, moments.steady_state(p, grid))
    ref = analytic.intensity_coefficients(p, grid)[1]
    assert ref.min() < 1e-16
    assert np.max(np.abs(big_t - ref) / ref) < 1e-12


def test_empty_cavity_with_jitter_matches_closed_form():
    rng = np.random.default_rng(103)
    for _ in range(20):
        p = _random_params(rng, 0, jitter=True).replace(g=0.0)
        om = rng.uniform(-3, 3)
        ss = moments.steady_state(p, om)
        ref = analytic.steady_state_summary(p, om)
        assert ss.s1 == pytest.approx(ref.mean_field, rel=1e-12)
        assert ss.s3 == pytest.approx(ref.photon_number, rel=1e-12)


def test_mean_field_with_atoms_and_jitter():
    # first moments close even with the jitter channel on
    p = _params(tau_jitter=0.7, tau_indiv=0.4)
    for om in (-2.0, 0.0, 1.5):
        ss = moments.steady_state(p, om)
        assert ss.s1 == pytest.approx(analytic.mean_field(p, om), rel=1e-12)


def test_energy_balance():
    rng = np.random.default_rng(107)
    for _ in range(50):
        p = _random_params(rng, int(rng.choice([1, 3, 20])))
        ss = moments.steady_state(p, rng.uniform(-5, 5))
        assert moments.energy_balance_residual(p, ss) < 1e-10


def test_cross_moment_sum_identity():
    rng = np.random.default_rng(109)
    for _ in range(50):
        n = int(rng.choice([2, 3, 5, 20]))
        p = _random_params(rng, n)
        ss = moments.steady_state(p, rng.uniform(-5, 5))
        total = n * ss.s5 + n * (n - 1) * ss.s6
        expected = n * ss.s5 * analytic.collective_rate_ratio(p)
        assert _rel(total, expected) < 1e-10


def test_reduced_matches_per_atom_system():
    rng = np.random.default_rng(113)
    for n in (1, 2, 3):
        for _ in range(15):
            p = _random_params(rng, n)
            om = rng.uniform(-4, 4)
            red = moments.steady_state(p, om)
            full = moments.per_atom_steady_state(p, om)
            assert np.max(np.abs(red.packed() - full.packed())) < 1e-9 * max(
                1.0, np.max(np.abs(red.packed())))


def test_per_atom_limited_to_three():
    with pytest.raises(ParameterError):
        moments.per_atom_steady_state(_params(n_atoms=4), 0.0)


def test_single_atom_channel_swap_is_exact():
    p = _params(n_atoms=1, tau_indiv=0.4)
    q = _params(n_atoms=1, tau_common=0.4)
    for om in (-1.0, 0.0, 2.5):
        assert moments.steady_state(p, om) == moments.steady_state(q, om)


def test_coherent_factorization_without_dephasing():
    rng = np.random.default_rng(127)
    for _ in range(25):
        p = _random_params(rng, int(rng.choice([1, 2, 5])))
        p = p.replace(tau_indiv=None, tau_common=None, tau_jitter=None)
        ss = moments.steady_state(p, rng.uniform(-3, 3))
        scale = max(abs(ss.s1) ** 2, 1e-300)
        assert abs(ss.s3 - abs(ss.s1) ** 2) / scale < 1e-12
        assert abs(ss.s5 - abs(ss.s2) ** 2) / scale < 1e-12
        assert abs(ss.s4 - ss.s1.conjugate() * ss.s2) / scale < 1e-12
        if p.n_atoms > 1:
            assert abs(ss.s6 - abs(ss.s2) ** 2) / scale < 1e-12


def test_intensity_from_state_matches_closed_form():
    p = _params(tau_common=1 / 3.0)
    ss = moments.steady_state(p, 0.0)
    big_r, big_t = moments.intensity_from_state(p, ss)
    ref_r, ref_t = analytic.intensity_coefficients(p, 0.0)
    assert big_r == pytest.approx(ref_r, rel=1e-10)
    assert big_t == pytest.approx(ref_t, rel=1e-10)
    with pytest.raises(ParameterError):
        moments.intensity_from_state(p.replace(beta=0.0), ss)


# --- regression spectrum -------------------------------------------------------

def test_regression_spectrum_no_dephasing_is_coherent():
    p = _params()
    s = moments.regression_spectrum(p, 0.0, np.linspace(-10, 10, 101))
    assert np.max(np.abs(s.incoherent_density)) < 1e-8 * s.coherent_power


def test_regression_spectrum_empty_cavity_lorentzian():
    p = _params(g=0.0, n_atoms=0, beta=1.0, tau_jitter=1.0)
    grid = np.linspace(-6, 6, 241)
    s = moments.regression_spectrum(p, 0.0, grid)
    ref = analytic.emission_spectrum(p, 0.0, grid)
    peak = ref.incoherent_density.max()
    k = int(np.argmax(ref.incoherent_density))
    assert _rel(s.incoherent_density[k], peak) < 1e-10
    mask = ref.incoherent_density > 0.05 * peak
    assert np.max(np.abs(s.incoherent_density[mask] - ref.incoherent_density[mask])
                  / ref.incoherent_density[mask]) < 1e-10


def test_regression_spectrum_matches_closed_form_with_atoms():
    p = _params(tau_common=1 / 3.0)
    grid = np.arange(-16.0, 16.2, 0.2) + 0.1     # avoid the coherent line at 0
    s = moments.regression_spectrum(p, 0.0, grid)
    ref = analytic.emission_spectrum(p, 0.0, grid)
    mask = ref.incoherent_density > 0.01 * ref.incoherent_density.max()
    assert np.max(np.abs(s.incoherent_density[mask] - ref.incoherent_density[mask])
                  / ref.incoherent_density[mask]) < 1e-10


def test_regression_spectrum_integral_identity():
    p = _params(tau_common=1 / 3.0)
    s = moments.regression_spectrum(p, 0.0, analytic.spectrum_grid(p))
    total = s.incoherent_power() + s.coherent_power
    assert _rel(total, s.meta["photon_number"]) < 1e-3


@pytest.mark.parametrize("params, omega_l", [
    (_params(tau_common=1 / 3.0), 8.0),
    # correlation decay rates 20 and 0.11: a time-stepped transform needs
    # steps in proportion to their ratio, the resolvent does not
    (_params(g=0.1, n_atoms=1, kappa1=10.0, kappa2=10.0, gamma_par=0.02,
             tau_common=10.0), 0.0),
], ids=["figure-w8", "stiff"])
def test_regression_spectrum_resolvent_matches_closed_form(params, omega_l):
    grid = np.arange(-16.0, 16.2, 0.2) + 0.1
    s = moments.regression_spectrum(params, omega_l, grid)
    ref = analytic.emission_spectrum(params, omega_l, grid)
    mask = ref.incoherent_density > 0.01 * ref.incoherent_density.max()
    assert mask.sum() >= 5
    assert np.max(np.abs(s.incoherent_density[mask] - ref.incoherent_density[mask])
                  / ref.incoherent_density[mask]) < 1e-10
    assert set(s.meta) == {"photon_number"}


def test_regression_spectrum_coherent_power():
    p = _params(tau_indiv=1 / 3.0)
    s = moments.regression_spectrum(p, 0.0, np.linspace(-5, 5, 11))
    assert s.coherent_power == pytest.approx(
        abs(analytic.mean_field(p, 0.0)) ** 2, rel=1e-9)
    assert s.method == "regression"
