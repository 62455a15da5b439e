"""Closed-form steady-state optics of the driven cavity-emitter system.

Everything here is algebra on the system parameters: the mean cavity field,
reflection/transmission coefficients for field and intensity, the cavity
photon number including the dephasing-induced incoherent component, the
emitter excitation probability, and the emission spectrum.  The expressions
assume the low-excitation (linearised emitter) regime; their validity is
diagnosed by ``p_exc`` and checked against the numerical oracles in
:mod:`cavlab.moments` and :mod:`cavlab.liouville`.

The incoherent photon fraction enters through a single dimensionless height
``h``: the photon number is ``(1 + h * L(delta_a)) * |<a_c>|**2`` with
``L`` a unit-height Lorentzian of width ``gamma_perp`` in the emitter
detuning.  ``h`` is bounded by the cooperativity, and in the
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
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .model import SystemParams, derive

__all__ = [
    "SteadyStateSummary",
    "HeightReport",
    "SpectrumResult",
    "ReducedMomentSystem",
    "mean_field",
    "steady_state_summary",
    "field_coefficients",
    "intensity_coefficients",
    "dephasing_fraction",
    "collective_rate_ratio",
    "lorentzian_height",
    "reduced_moment_system",
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
    method: str = "analytic"
    meta: dict = field(default_factory=dict)

    def incoherent_power(self) -> float:
        return float(np.trapezoid(self.incoherent_density, self.grid))


def _require_no_jitter(params: SystemParams, what: str) -> None:
    if params.inv_tau_jitter != 0.0:
        raise ParameterError(
            f"{what}: closed forms for n_atoms >= 1 assume the cavity jitter "
            "channel is off (use the moments or liouville oracle instead)"
        )


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
    return math.sqrt(2.0 * params.kappa1) * params.beta / _field_denominator(params, omega_l)


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


def collective_rate_ratio(params: SystemParams) -> float:
    """Enhancement of the summed emitter cross-correlations over N p_exc.

    Equals ``(1 + N gamma_par tau / 2) / (1 + gamma_par tau / 2)`` written in
    inverse rates so that an inactive individual-dephasing channel gives the
    limit N without special-casing.
    """
    it = params.inv_tau_indiv
    half_gamma = params.gamma_par / 2.0
    return (it + params.n_atoms * half_gamma) / (it + half_gamma)


@dataclass(frozen=True)
class ReducedMomentSystem:
    """Closed 2x2 linear system for (p_exc, photon_number).

    The steady-state second moments obey
    ``[[a, b], [c, d]] @ [p_exc, photon_number] = [e, f] * |<a_c>|**2``.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    @property
    def determinant(self) -> float:
        return self.a * self.d - self.b * self.c

    def solve(self, field_intensity: float) -> tuple[float, float]:
        """Return (p_exc, photon_number) for a given |<a_c>|**2 by elimination."""
        det = self.determinant
        p_exc = (self.e * self.d - self.b * self.f) / det * field_intensity
        photon_number = (self.a * self.f - self.c * self.e) / det * field_intensity
        return p_exc, photon_number


def reduced_moment_system(params: SystemParams, omega_l: float) -> ReducedMomentSystem:
    """Coefficients of the closed 2x2 steady-state system at one drive frequency."""
    if params.n_atoms < 1:
        raise ParameterError("reduced_moment_system: requires n_atoms >= 1")
    _require_no_jitter(params, "reduced_moment_system")
    d = derive(params, omega_l)
    kappa, gp = params.kappa, params.gamma_perp
    g2 = params.g**2
    n = params.n_atoms
    big_k = kappa + gp
    lor = gp**2 + d.delta_a**2
    q = collective_rate_ratio(params)
    return ReducedMomentSystem(
        a=params.gamma_par * (big_k**2 + d.delta_ac**2) + 2.0 * g2 * big_k * q,
        b=-2.0 * g2 * big_k,
        c=n * params.gamma_par,
        d=2.0 * kappa,
        e=(2.0 * g2 / lor) * (
            g2 * n * big_k
            + kappa * (gp**2 - d.delta_a**2)
            + gp * (kappa**2 + d.delta_c**2)
            - 2.0 * gp * d.delta_a * d.delta_c
        ),
        f=2.0 * kappa + 2.0 * gp * g2 * n / lor,
    )


def _height_and_determinant(params: SystemParams) -> tuple[HeightReport, float]:
    """The height report and the determinant of the reduced 2x2 system.

    The determinant of :class:`ReducedMomentSystem` does not depend on the
    drive frequency; both the height and the emitter excitation divide by
    it.  Requires n_atoms >= 1 and the jitter channel off.
    """
    kappa, gp = params.kappa, params.gamma_perp
    g2 = params.g**2
    n = params.n_atoms
    big_k = kappa + gp
    delta_ac = params.omega_a - params.omega_c
    q = collective_rate_ratio(params)
    frac = dephasing_fraction(params)
    det = (
        2.0 * kappa * params.gamma_par * (big_k**2 + delta_ac**2)
        + 4.0 * kappa * g2 * big_k * (q + n * params.gamma_par / (2.0 * kappa))
    )
    h = 4.0 * g2**2 * n * big_k * frac / (gp**2 * det)
    coop = g2 * n / (kappa * gp)
    lifetime_bound = (2.0 * coop / params.gamma_par) * (
        params.inv_tau_common + params.inv_tau_indiv / n
    )
    return HeightReport(
        height=h, cooperativity=coop, lifetime_bound=lifetime_bound, fraction=frac,
    ), det


def lorentzian_height(params: SystemParams) -> HeightReport:
    """Height h of the incoherent photon-number Lorentzian, with bounds.

    ``h`` is the drive-frequency-independent prefactor defined by
    ``photon_number = (1 + h gamma_perp**2/(gamma_perp**2 + delta_a**2))
    * |<a_c>|**2``; it is obtained by evaluating the incoherent term of the
    photon number on emitter resonance and dividing out the Lorentzian.
    """
    if params.n_atoms < 1:
        raise ParameterError("lorentzian_height: requires n_atoms >= 1")
    _require_no_jitter(params, "lorentzian_height")
    return _height_and_determinant(params)[0]


def steady_state_summary(params: SystemParams, omega_l: float) -> SteadyStateSummary:
    """Closed-form steady state: mean field, photon number and p_exc.

    Without emitters only cavity jitter makes light incoherent, and the
    coherence ratio is ``1 + 1/(kappa tau_jit)``.  With emitters the jitter
    channel must be off; the ratio is ``1 + h L(delta_a)``.
    """
    a = mean_field(params, omega_l)
    w = abs(a) ** 2
    if params.n_atoms == 0:
        ratio = 1.0 + params.inv_tau_jitter / params.kappa
        p_exc = 0.0
    else:
        _require_no_jitter(params, "steady_state_summary")
        report, det = _height_and_determinant(params)
        d = derive(params, omega_l)
        kappa, gp = params.kappa, params.gamma_perp
        g2 = params.g**2
        lor_den = gp**2 + d.delta_a**2
        ratio = 1.0 + report.height * gp**2 / lor_den
        # not (1 - h/C): that is 0/0 for uncoupled emitters (g = 0)
        p_exc = (
            (2.0 * g2 * w * (gp / params.gamma_par) / lor_den)
            * (1.0 - 4.0 * kappa * g2 * (kappa + gp) * report.fraction / (gp * det))
        )
    return SteadyStateSummary(
        omega_l=omega_l, mean_field=a, photon_number=ratio * w,
        p_exc=p_exc, coherence_ratio=ratio,
    )


def field_coefficients(params: SystemParams, omega_l: float) -> tuple[complex, complex]:
    """Amplitude reflection and transmission (r, t) of the mean field."""
    den = _field_denominator(params, omega_l)
    r = 2.0 * params.kappa1 / den - 1.0
    t = 2.0 * math.sqrt(params.kappa1 * params.kappa2) / den
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
    width = params.kappa + params.inv_tau_jitter
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
    as a scalar.
    """
    grid = np.asarray(grid, dtype=float)
    summary = steady_state_summary(params, omega_l)
    w = abs(summary.mean_field) ** 2
    if params.n_atoms == 0:
        gam = params.big_gamma
        weight = params.inv_tau_jitter / params.kappa
        density = (gam / math.pi) / (gam**2 + (params.omega_c - grid) ** 2) * weight * w
    else:
        d = derive(params, omega_l)
        kappa, gp = params.kappa, params.gamma_perp
        g2n = params.g**2 * params.n_atoms
        big_k = kappa + gp
        # Unit-area spectral shape: dressed-mode resonances of the coupled system.
        numer = big_k * (kappa * gp + g2n) + kappa * gp * d.delta_ac**2 / big_k
        q = g2n + (kappa + 1j * (params.omega_c - grid)) * (gp + 1j * (params.omega_a - grid))
        shape = numer / (math.pi * np.abs(q) ** 2)
        height = lorentzian_height(params).height
        weight = height * gp**2 / (gp**2 + d.delta_a**2)
        density = shape * weight * w
    return SpectrumResult(
        omega_l=omega_l, grid=grid, incoherent_density=density,
        coherent_power=w, method="analytic",
        meta={"photon_number": summary.photon_number},
    )
