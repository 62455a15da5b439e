"""Closed-form steady state, coefficients, height and spectra."""
import math

import numpy as np
import pytest

from cavlab import analytic
from cavlab.errors import ParameterError
from cavlab.model import SystemParams, derive


def _params(**overrides):
    base = dict(g=2.0, n_atoms=5, kappa1=0.5, kappa2=0.5, omega_c=0.0,
                omega_a=0.0, gamma_par=2.0)
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


# --- empty cavity -----------------------------------------------------------

def test_empty_cavity_matched_no_noise():
    p = _params(g=0.0, n_atoms=0, beta=1.0)
    s = analytic.steady_state_summary(p, 0.0)
    assert s.mean_field == pytest.approx(1.0 + 0j, abs=1e-15)
    assert s.photon_number == pytest.approx(1.0, abs=1e-15)
    assert s.p_exc == 0.0 and s.coherence_ratio == 1.0


def test_empty_cavity_with_jitter():
    # 1/(kappa tau_jit) = 1 halves the field and the photon number
    p = _params(g=0.0, n_atoms=0, beta=1.0, tau_jitter=1.0)
    s = analytic.steady_state_summary(p, 0.0)
    assert s.mean_field == pytest.approx(0.5 + 0j, abs=1e-15)
    assert s.photon_number == pytest.approx(0.5, abs=1e-15)
    assert s.coherence_ratio == pytest.approx(2.0, abs=1e-15)


def test_empty_cavity_undriven():
    s = analytic.steady_state_summary(_params(g=0.0, n_atoms=0), 0.0)
    assert s.mean_field == 0j and s.photon_number == 0.0


def test_uncoupled_emitters_leave_the_empty_cavity_state():
    empty = _params(g=0.0, n_atoms=0, beta=1.0, tau_indiv=0.5)
    uncoupled = empty.replace(n_atoms=5)
    for om in (-2.0, 0.0, 1.5):
        a = analytic.steady_state_summary(uncoupled, om)
        assert a == analytic.steady_state_summary(empty, om)
        assert a.p_exc == 0.0 and a.coherence_ratio == 1.0


def test_closed_forms_reject_jitter_with_atoms():
    p = _params(tau_jitter=2.0, beta=0.1)
    with pytest.raises(ParameterError, match="steady_state_summary: .*jitter"):
        analytic.steady_state_summary(p, 0.0)
    with pytest.raises(ParameterError, match="jitter"):
        analytic.lorentzian_height(p)


# --- field and intensity coefficients ---------------------------------------

def test_field_coefficients_matched_empty():
    r, t = analytic.field_coefficients(_params(g=0.0, n_atoms=0), 0.0)
    assert r == pytest.approx(0j, abs=1e-15)
    assert t == pytest.approx(1.0 + 0j, abs=1e-15)


def test_field_coefficients_blocking():
    p = _params(tau_indiv=math.inf)          # gamma_perp = 1, v = 20
    r, t = analytic.field_coefficients(p, 0.0)
    assert t == pytest.approx(1.0 / 21.0, rel=1e-14)
    assert r == pytest.approx(-20.0 / 21.0, rel=1e-14)
    strong = analytic.field_coefficients(p.replace(g=2e4), 0.0)
    assert abs(strong[1]) < 1e-7 and strong[0] == pytest.approx(-1.0, abs=1e-7)


def test_intensity_reduces_without_dephasing():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = _random_params(rng, int(rng.choice([1, 2, 5])))
        p = p.replace(tau_indiv=None, tau_common=None, tau_jitter=None)
        om = rng.uniform(-5, 5)
        r, t = analytic.field_coefficients(p, om)
        big_r, big_t = analytic.intensity_coefficients(p, om)
        assert big_r == pytest.approx(abs(r) ** 2, rel=1e-12)
        assert big_t == pytest.approx(abs(t) ** 2, rel=1e-12)


def test_transmission_exceeds_coherent_part_with_common_dephasing():
    p = _params(tau_common=1.0 / 3.0)
    grid = np.linspace(-10, 10, 401)
    big_t = analytic.intensity_coefficients(p, grid)[1]
    coherent = abs(analytic.field_coefficients(p, grid)[1]) ** 2
    assert np.all(big_t > coherent)
    assert np.argmax(big_t / coherent) == 200     # largest relative excess on resonance


def test_flux_balance_random_sweep():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        p = _random_params(rng, int(rng.choice([1, 2, 3, 5, 20])))
        for om in np.linspace(-8, 8, 11):
            big_r, big_t = analytic.intensity_coefficients(p, om)
            s = analytic.steady_state_summary(p, om)
            loss = p.n_atoms * p.gamma_par * s.p_exc / abs(p.beta) ** 2
            worst = max(worst, abs(big_r + big_t + loss - 1.0))
    assert worst < 1e-9


def test_empty_cavity_flux_balance_with_jitter():
    p = _params(g=0.0, n_atoms=0, beta=0.8, tau_jitter=2.5)
    for om in np.linspace(-4, 4, 9):
        big_r, big_t = analytic.intensity_coefficients(p, om)
        assert big_r + big_t == pytest.approx(1.0, abs=1e-12)


# --- reduced 2x2 system vs direct formulas ----------------------------------

def _reduced_system(p, om):
    """The closed 2x2 steady-state system ``matrix @ [p_exc, photon_number]
    = rhs`` with emitters and without jitter, as a reference for the
    closed forms."""
    d = derive(p, om)
    kappa, gp, g2, n = p.kappa, p.gamma_perp, p.g**2, p.n_atoms
    big_k = kappa + gp
    lor = gp**2 + d.delta_a**2
    # summed emitter cross-correlations over N p_exc
    half_gamma = p.gamma_par / 2.0
    q = (p.inv_tau_indiv + n * half_gamma) / (p.inv_tau_indiv + half_gamma)
    matrix = np.array([
        [p.gamma_par * (big_k**2 + d.delta_ac**2) + 2.0 * g2 * big_k * q, -2.0 * g2 * big_k],
        [n * p.gamma_par, 2.0 * kappa],
    ])
    rhs = np.array([
        (2.0 * g2 / lor) * (g2 * n * big_k + kappa * (gp**2 - d.delta_a**2)
                            + gp * (kappa**2 + d.delta_c**2)
                            - 2.0 * gp * d.delta_a * d.delta_c),
        2.0 * kappa + 2.0 * gp * g2 * n / lor,
    ]) * abs(analytic.mean_field(p, om)) ** 2
    return matrix, rhs


def test_reduced_system_matches_cavity_moments():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        p = _random_params(rng, int(rng.choice([1, 2, 3, 5, 20])))
        for om in np.linspace(-6, 6, 11):
            p_exc, n_cav = np.linalg.solve(*_reduced_system(p, om))
            s = analytic.steady_state_summary(p, om)
            worst = max(worst,
                        abs(p_exc - s.p_exc) / abs(s.p_exc),
                        abs(n_cav - s.photon_number) / s.photon_number)
    assert worst < 1e-12


def test_reduced_system_determinant_positive():
    rng = np.random.default_rng(43)
    for _ in range(50):
        p = _random_params(rng, int(rng.choice([1, 3, 20])))
        assert np.linalg.det(_reduced_system(p, rng.uniform(-5, 5))[0]) > 0.0


def test_symmetric_detuning_drops_from_population_row():
    p = _params(omega_c=1.3, omega_a=1.3, tau_indiv=0.5)
    matrix, _ = _reduced_system(p, 0.2)
    big_k = p.kappa + p.gamma_perp
    half_gamma_tau = p.gamma_par * p.tau_indiv / 2.0
    q = (1.0 + p.n_atoms * half_gamma_tau) / (1.0 + half_gamma_tau)
    assert matrix[0, 0] == pytest.approx(
        p.gamma_par * big_k**2 + 2.0 * p.g**2 * big_k * q, rel=1e-14)


# --- dephasing fraction and height ------------------------------------------

def test_fraction_limit_cases_are_exact():
    # all four printed limits hold bit for bit, not just asymptotically
    assert analytic.dephasing_fraction(_params()) == 0.0
    p1 = _params(n_atoms=1, tau_indiv=1 / 0.37, tau_common=1 / 0.11)
    assert analytic.dephasing_fraction(p1) == p1.inv_tau_indiv + p1.inv_tau_common
    pi = _params(tau_indiv=1 / 0.37)
    assert analytic.dephasing_fraction(pi) == pi.inv_tau_indiv
    pc = _params(tau_common=1 / 0.11)
    assert analytic.dephasing_fraction(pc) == 5 * pc.inv_tau_common


def test_fraction_limits_asymptotic_at_large_ratio():
    # a channel 1e3 times slower than its partner moves the fraction < 1%
    pi = _params(tau_indiv=1.0, tau_common=1e3)
    f = analytic.dephasing_fraction(pi)
    assert abs(f - 1.0) / 1.0 < 0.01
    pc = _params(tau_common=1.0, tau_indiv=1e3)
    f = analytic.dephasing_fraction(pc)
    assert abs(f - 5.0) / 5.0 < 0.01


def test_height_report_cooperativity_example():
    # g = 2, N = 5, kappa = 1, gamma_perp = 1: C = g^2 N / (kappa gamma_perp) = 20
    assert analytic.lorentzian_height(_params()).cooperativity == pytest.approx(20.0, rel=1e-15)


def test_height_zero_without_dephasing():
    assert analytic.lorentzian_height(_params()).height == 0.0


def test_height_bounded_by_cooperativity():
    rng = np.random.default_rng(57)
    for _ in range(200):
        p = _random_params(rng, int(rng.choice([1, 2, 3, 5, 20])))
        rep = analytic.lorentzian_height(p)
        assert 0.0 <= rep.height <= rep.cooperativity * (1 + 1e-12)


def test_height_lifetime_bound_in_slow_dephasing_regime():
    rng = np.random.default_rng(59)
    for _ in range(100):
        p = _random_params(rng, int(rng.choice([1, 2, 5])))
        slow = 20.0 / p.gamma_par
        p = p.replace(tau_indiv=slow * (1 + rng.random()),
                      tau_common=slow * (1 + rng.random()))
        rep = analytic.lorentzian_height(p)
        assert rep.height <= rep.lifetime_bound * (1 + 1e-12)


def test_height_reaches_cooperativity_at_small_gamma_par():
    rep = analytic.lorentzian_height(_params(gamma_par=1e-4, tau_indiv=1.0))
    assert abs(rep.height - rep.cooperativity) / rep.cooperativity < 0.01


def test_height_falls_inversely_with_slow_dephasing_time():
    times = np.geomspace(1e2, 1e4, 9)
    hs = [analytic.lorentzian_height(_params(tau_common=t)).height for t in times]
    slope = np.polyfit(np.log(times), np.log(hs), 1)[0]
    assert abs(slope + 1.0) < 0.05


def test_coherence_ratio_matches_height_lorentzian():
    p = _params(tau_common=1 / 3.0, omega_a=0.7)
    rep = analytic.lorentzian_height(p)
    for om in np.linspace(-6, 6, 13):
        d = derive(p, om)
        expected = 1.0 + rep.height * p.gamma_perp**2 / (p.gamma_perp**2 + d.delta_a**2)
        s = analytic.steady_state_summary(p, om)
        assert s.coherence_ratio == pytest.approx(expected, rel=1e-12)


# --- structural properties ---------------------------------------------------

def test_coherence_ratio_unity_without_dephasing():
    rng = np.random.default_rng(61)
    for _ in range(30):
        p = _random_params(rng, int(rng.choice([1, 4])))
        p = p.replace(tau_indiv=None, tau_common=None, tau_jitter=None)
        assert analytic.steady_state_summary(p, rng.uniform(-3, 3)).coherence_ratio == 1.0


def test_single_atom_channel_swap_symmetry():
    p = _params(n_atoms=1, tau_indiv=0.4, tau_common=math.inf, beta=0.2)
    q = _params(n_atoms=1, tau_indiv=math.inf, tau_common=0.4, beta=0.2)
    for om in np.linspace(-4, 4, 9):
        a, b = analytic.steady_state_summary(p, om), analytic.steady_state_summary(q, om)
        assert a.photon_number == b.photon_number
        assert a.p_exc == b.p_exc
        assert a.mean_field == b.mean_field


def test_drive_phase_covariance():
    p = _params(tau_indiv=0.5, beta=0.4)
    q = p.replace(beta=0.4 * np.exp(0.93j))
    for om in (-2.0, 0.0, 3.1):
        a, b = analytic.steady_state_summary(p, om), analytic.steady_state_summary(q, om)
        assert b.photon_number == pytest.approx(a.photon_number, rel=1e-12)
        assert b.p_exc == pytest.approx(a.p_exc, rel=1e-12)
        assert b.mean_field == pytest.approx(a.mean_field * np.exp(0.93j), rel=1e-12)
        assert analytic.intensity_coefficients(q, om) == pytest.approx(
            analytic.intensity_coefficients(p, om), rel=1e-12)


def test_transmission_doublet_positions():
    p = _params()          # no dephasing, g sqrt(N) = 4.472
    grid = np.linspace(-10, 10, 401)
    t2 = np.array([abs(analytic.field_coefficients(p, om)[1]) ** 2 for om in grid])
    inner = (t2[1:-1] > t2[:-2]) & (t2[1:-1] > t2[2:])
    peaks = grid[1:-1][inner]
    assert peaks.size == 2
    split = p.g * math.sqrt(p.n_atoms)
    half_linewidth = 0.5 * (p.kappa + p.gamma_perp) / 2.0
    assert abs(peaks[0] + split) < half_linewidth
    assert abs(peaks[1] - split) < half_linewidth


# --- spectra ------------------------------------------------------------------

def test_spectrum_zero_without_noise():
    p = _params(beta=0.1)
    s = analytic.emission_spectrum(p, 0.0, analytic.spectrum_grid(p))
    assert np.all(s.incoherent_density == 0.0)
    assert s.coherent_power == pytest.approx(abs(analytic.mean_field(p, 0.0)) ** 2)


def test_spectrum_integral_identity_with_atoms():
    p = _params(tau_common=1 / 3.0, beta=0.05)
    for om in (0.0, 8.0):
        s = analytic.emission_spectrum(p, om, analytic.spectrum_grid(p))
        total = s.incoherent_power() + s.coherent_power
        assert abs(total - s.meta["photon_number"]) / s.meta["photon_number"] < 1e-3


def test_spectrum_integral_identity_empty_cavity():
    # bare-cavity Lorentzian has slow tails; needs a wide, fine grid
    p = _params(g=0.0, n_atoms=0, beta=1.0, tau_jitter=1.0)
    grid = np.linspace(-1500.0, 1500.0, 30001)
    s = analytic.emission_spectrum(p, 0.0, grid)
    total = s.incoherent_power() + s.coherent_power
    assert abs(total - s.meta["photon_number"]) / s.meta["photon_number"] < 2e-3


def test_empty_spectrum_peak_value():
    p = _params(g=0.0, n_atoms=0, beta=1.0, tau_jitter=0.5)
    s = analytic.emission_spectrum(p, 0.0, np.array([0.0]))
    gam = p.big_gamma
    w = abs(analytic.mean_field(p, 0.0)) ** 2
    assert s.incoherent_density[0] == pytest.approx(
        (p.inv_tau_jitter / p.kappa) * w / (math.pi * gam), rel=1e-12)


def test_spectrum_shape_independent_of_drive_frequency():
    p = _params(tau_common=1 / 3.0, beta=0.05)
    grid = analytic.spectrum_grid(p)
    d0 = analytic.emission_spectrum(p, 0.0, grid).incoherent_density
    d8 = analytic.emission_spectrum(p, 8.0, grid).incoherent_density
    assert np.allclose(d8 / d8.max(), d0 / d0.max(), rtol=1e-12, atol=1e-15)


def test_spectrum_grid_spans_ten_linewidths():
    p = _params(omega_a=1.0, tau_indiv=0.5)
    grid = analytic.spectrum_grid(p)
    width = p.kappa + p.gamma_perp
    assert grid.size == 2001
    assert grid[0] == -10.0 * width and grid[-1] == 1.0 + 10.0 * width
