"""Closed-form steady-state optics of the driven cavity-emitter system.

Everything here is algebra on the system parameters: the mean cavity field,
reflection/transmission coefficients for field and intensity, the cavity
photon number including the dephasing-induced incoherent component, the
emitter excitation probability, and the emission spectrum.  The expressions
assume the low-excitation (linearised emitter) regime; their validity is
diagnosed by ``p_exc`` and checked against the numerical oracles in
:mod:`cavlab.moments` and :mod:`cavlab.liouville`.

Every formula covers all four noise channels.  The photon number is
``(1 + h_jit + h * L(delta_a)) * |<a_c>|**2``, with ``L`` a unit-height
Lorentzian of width ``gamma_perp`` in the emitter detuning.  Cavity jitter
gives ``h_jit``, which is ``1/(kappa tau_jit)`` without emitters; emitter
dephasing gives the height ``h``, bounded by the cooperativity, and in the
lifetime-dominated regime by a bound linear in the dephasing rates.

:func:`steady_state_summary` is the one closed-form steady state, with or
without emitters.  It and the coefficient functions also accept an array of
drive frequencies ``omega_l`` and then return arrays of its shape (a
:class:`SteadyStateSummary` of arrays), equal to per-point calls up to
rounding.  :func:`emission_spectrum` takes one drive frequency and an array
of emission frequencies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import SystemParams, derive

__all__ = [
    "SteadyStateSummary",
    "HeightReport",
    "SpectrumResult",
    "mean_field",
    "steady_state_summary",
    "field_coefficients",
    "intensity_coefficients",
    "dephasing_fraction",
    "lorentzian_height",
    "emission_spectrum",
    "spectrum_grid",
]


@dataclass(frozen=True)
class SteadyStateSummary:
    """Steady-state expectation values at one drive frequency."""

    omega_l: float
    mean_field: complex        # <a_c>
    photon_number: float       # <a_c^dag a_c>
    p_exc: float               # excited-state population per emitter
    coherence_ratio: float     # photon_number / |mean_field|**2  (>= 1)


@dataclass(frozen=True)
class HeightReport:
    """Height of the incoherent photon-number Lorentzian and its bounds."""

    height: float
    cooperativity: float
    lifetime_bound: float   # valid bound when dephasing is slow vs gamma_par
    fraction: float         # dephasing fraction entering the height


@dataclass(frozen=True)
class SpectrumResult:
    """Emission spectral density split into incoherent part and coherent line.

    ``incoherent_density`` integrates (over angular frequency) to the
    incoherent photon number; the coherent line carries ``coherent_power``
    and is rendered only at presentation time.
    """

    omega_l: float
    grid: np.ndarray
    incoherent_density: np.ndarray
    coherent_power: float
    method: str
    meta: dict

    def incoherent_power(self) -> float:
        return float(np.trapezoid(self.incoherent_density, self.grid))


def _field_denominator(params: SystemParams, omega_l: float) -> complex:
    """Denominator of the mean cavity field.

    Equals ``(kappa + i delta_c)(1 + v)`` when jitter is off, and reduces to
    ``big_gamma + i delta_c`` for the empty cavity; the combined form covers
    both without special cases.
    """
    d = derive(params, omega_l)
    den = params.big_gamma + 1j * d.delta_c
    if params.n_atoms:
        den += params.g**2 * params.n_atoms / (params.gamma_perp + 1j * d.delta_a)
    return den


def mean_field(params: SystemParams, omega_l: float) -> complex:
    """Steady-state coherent cavity amplitude <a_c>."""
    return params.drive / _field_denominator(params, omega_l)


def dephasing_fraction(params: SystemParams) -> float:
    """Weighted dephasing rate controlling the incoherent photon number.

    Written in a factored form algebraically identical to the ratio
    ``(gamma_perp/tau + N gamma_par/(2 tau')) / (1/tau + gamma_par/2)`` but
    whose limit cases are exact in floating point: it vanishes when both
    dephasing channels are off, equals ``1/tau + 1/tau'`` for a single
    emitter, ``1/tau`` without the common channel and ``N/tau'`` without the
    individual one.
    """
    if params.n_atoms < 1:
        raise ParameterError("dephasing_fraction: requires n_atoms >= 1")
    it = params.inv_tau_indiv
    ic = params.inv_tau_common
    half_gamma = params.gamma_par / 2.0
    n = params.n_atoms
    return it + ic * n * (it / n + half_gamma) / (it + half_gamma)


def _height_and_determinant(params: SystemParams) -> tuple[HeightReport, float, float]:
    """The height report, the reduced 2x2 system's determinant and h_jit.

    The steady-state p_exc and photon number solve a closed 2x2 linear
    system whose right-hand side is proportional to ``|<a_c>|**2``.  Its
    determinant does not depend on the drive frequency; both heights and the
    emitter excitation divide by it.  The cross moment decays at
    ``K = big_gamma + gamma_perp``: with jitter off, K is exactly
    ``kappa + gamma_perp`` and ``h_jit`` is 0.0.  The emitters enter through
    ``q = sum_kj <a_k^dag a_j> / (N p_exc)``, which is
    ``(1 + N gamma_par tau / 2) / (1 + gamma_par tau / 2)``, written in
    inverse rates so that an inactive individual-dephasing channel gives the
    limit N.  Requires n_atoms >= 1.
    """
    kappa, gp = params.kappa, params.gamma_perp
    g2 = params.g**2
    n = params.n_atoms
    big_k = params.big_gamma + gp
    delta_ac = params.omega_a - params.omega_c
    it = params.inv_tau_indiv
    half_gamma = params.gamma_par / 2.0
    q = (it + n * half_gamma) / (it + half_gamma)
    frac = dephasing_fraction(params)
    det = (
        2.0 * kappa * params.gamma_par * (big_k**2 + delta_ac**2)
        + 4.0 * kappa * g2 * big_k * (q + n * params.gamma_par / (2.0 * kappa))
    )
    h = 4.0 * g2**2 * n * big_k * frac / (gp**2 * det)
    h_jit = params.inv_tau_jitter * (
        2.0 * params.gamma_par * (big_k**2 + delta_ac**2) + 4.0 * g2 * big_k * q) / det
    coop = g2 * n / (kappa * gp)
    lifetime_bound = (2.0 * coop / params.gamma_par) * (
        params.inv_tau_common + params.inv_tau_indiv / n
    )
    return HeightReport(
        height=h, cooperativity=coop, lifetime_bound=lifetime_bound, fraction=frac,
    ), det, h_jit


def lorentzian_height(params: SystemParams) -> HeightReport:
    """Height h of the incoherent photon-number Lorentzian, with bounds.

    ``h`` is the drive-frequency-independent prefactor defined by
    ``photon_number = (1 + h_jit + h gamma_perp**2/(gamma_perp**2 + delta_a**2))
    * |<a_c>|**2``; it is obtained by evaluating the dephasing term of the
    photon number on emitter resonance and dividing out the Lorentzian.
    """
    if params.n_atoms < 1:
        raise ParameterError("lorentzian_height: requires n_atoms >= 1")
    return _height_and_determinant(params)[0]


def _excess_and_p_exc(params: SystemParams, omega_l, w) -> tuple[float, float]:
    """The excess ``h_jit + h L(delta_a)`` of the coherence ratio over 1,
    and p_exc, for a mean field of power ``w``."""
    if params.n_atoms == 0:
        return params.inv_tau_jitter / params.kappa, 0.0
    report, det, h_jit = _height_and_determinant(params)
    d = derive(params, omega_l)
    kappa, gp = params.kappa, params.gamma_perp
    g2 = params.g**2
    big_k = params.big_gamma + gp
    lor_den = gp**2 + d.delta_a**2
    # not (1 - h/C): that is 0/0 for uncoupled emitters (g = 0)
    p_exc = (
        (2.0 * g2 * w * (gp / params.gamma_par) / lor_den)
        * (1.0 - 4.0 * kappa * g2 * big_k * report.fraction / (gp * det))
        + 4.0 * g2 * big_k * w * params.inv_tau_jitter / det
    )
    return h_jit + report.height * gp**2 / lor_den, p_exc


def steady_state_summary(params: SystemParams, omega_l: float) -> SteadyStateSummary:
    """Closed-form steady state: mean field, photon number and p_exc."""
    a = mean_field(params, omega_l)
    w = abs(a) ** 2
    excess, p_exc = _excess_and_p_exc(params, omega_l, w)
    ratio = 1.0 + excess
    return SteadyStateSummary(
        omega_l=omega_l, mean_field=a, photon_number=ratio * w,
        p_exc=p_exc, coherence_ratio=ratio,
    )


def field_coefficients(params: SystemParams, omega_l: float) -> tuple[complex, complex]:
    """Amplitude reflection and transmission (r, t) of the mean field."""
    den = _field_denominator(params, omega_l)
    r = 2.0 * params.kappa1 / den - 1.0
    product = params.kappa1 * params.kappa2
    # rates above about 1e154 overflow the product; the split root rounds apart
    root = math.sqrt(product) if math.isfinite(product) else (
        math.sqrt(params.kappa1) * math.sqrt(params.kappa2))
    t = 2.0 * root / den
    return r, t


def intensity_coefficients(params: SystemParams, omega_l: float) -> tuple[float, float]:
    """Intensity reflectance and transmittance (R, T), incoherent light included."""
    r, t = field_coefficients(params, omega_l)
    ratio = steady_state_summary(params, omega_l).coherence_ratio
    den = _field_denominator(params, omega_l)
    big_r = abs(r) ** 2 + (4.0 * params.kappa1**2 / abs(den) ** 2) * (ratio - 1.0)
    big_t = abs(t) ** 2 * ratio
    return big_r, big_t


def spectrum_grid(params: SystemParams) -> np.ndarray:
    """Default frequency grid covering the emission structures: 2001 points
    spanning 10 linewidths beyond the cavity and emitter frequencies.

    Ten widths suit the emitter case, whose spectral density has quartic
    tails; the bare-cavity Lorentzian decays only quadratically and needs a
    much wider grid for tight integral checks.
    """
    width = params.big_gamma
    if params.n_atoms:
        width += params.gamma_perp
    lo = min(params.omega_c, params.omega_a) - 10.0 * width
    hi = max(params.omega_c, params.omega_a) + 10.0 * width
    return np.linspace(lo, hi, 2001)


def emission_spectrum(params: SystemParams, omega_l: float,
                      grid: np.ndarray) -> SpectrumResult:
    """Closed-form emission spectral density of the cavity output.

    The incoherent part integrates to ``photon_number - |<a_c>|**2``; the
    coherent line at the drive frequency carries ``|<a_c>|**2`` and is kept
    as a scalar.  By the quantum regression theorem the incoherent part is
    ``(1/pi) Re[(d3 c_a - i g N d4) / (c_c c_a + g**2 N)]`` with
    ``c_c = big_gamma + i (omega_c - omega)``, ``c_a = gamma_perp +
    i (omega_a - omega)`` and d3, d4 the incoherent parts of the photon
    number and the cross moment.  The photon balance fixes ``g N Im d4 =
    kappa d3 - |<a_c>|**2 / tau_jit`` and the cross moment's own equation
    ``Re d4 = (omega_a - omega_c) Im d4 / (big_gamma + gamma_perp)``.
    """
    grid = np.asarray(grid, dtype=float)
    summary = steady_state_summary(params, omega_l)
    w = abs(summary.mean_field) ** 2
    d3 = w * _excess_and_p_exc(params, omega_l, w)[0]
    tilt = (params.omega_a - params.omega_c) / (params.big_gamma + params.gamma_perp)
    cross = (1.0 - 1j * tilt) * (params.kappa * d3 - w * params.inv_tau_jitter)
    c_a = params.gamma_perp + 1j * (params.omega_a - grid)
    c_c = params.big_gamma + 1j * (params.omega_c - grid)
    resolvent = (d3 * c_a + cross) / (c_c * c_a + params.g**2 * params.n_atoms)
    # + 0.0 turns the -0.0 of noise-free light into 0.0
    density = resolvent.real / math.pi + 0.0
    return SpectrumResult(
        omega_l=omega_l, grid=grid, incoherent_density=density,
        coherent_power=w, method="analytic",
        meta={"photon_number": summary.photon_number},
    )
