"""Parameter records and derived rates for the driven cavity-emitter system.

Conventions used throughout the package:

* ``kappa1``/``kappa2`` are the field decay rates through the input and
  output mirrors; the total cavity field decay is ``kappa = kappa1 + kappa2``
  and the photon number decays at ``2 kappa``.
* ``gamma_par`` is the population decay rate of a single emitter.
* Noise channels are parametrised by time constants: ``tau_indiv`` (per-atom
  dephasing), ``tau_common`` (dephasing common to all atoms) and
  ``tau_jitter`` (cavity-resonance jitter).  ``math.inf``, or in JSON ``null``
  or no field, means the channel is off.  Internally every formula consumes the
  inverse rates, where exact ``0.0`` encodes an inactive channel, so the
  printed limit cases of the analytic results hold bit-for-bit.
* ``beta`` is the coherent drive amplitude; ``|beta|**2`` is the incoming
  photon flux.  Frequencies (``omega_c``, ``omega_a`` and every drive
  frequency ``omega_l``) share one rotating frame, so they may equally be
  given as absolute values or as detunings from any common reference.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

__all__ = [
    "SystemParams",
    "DerivedRates",
    "validate",
    "derive",
    "params_to_dict",
    "params_from_dict",
    "params_from_json",
]

from .errors import ParameterError


@dataclass(frozen=True)
class SystemParams:
    """Immutable record of the physical parameters of one system."""

    g: float
    n_atoms: int
    kappa1: float
    kappa2: float
    omega_c: float
    omega_a: float
    gamma_par: float
    tau_indiv: float = math.inf
    tau_common: float = math.inf
    tau_jitter: float = math.inf
    beta: complex = field(default=0j)

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", complex(self.beta))
        validate(self)

    # Inverse time constants; exactly 0.0 when the channel is off.
    @property
    def inv_tau_indiv(self) -> float:
        return 0.0 if math.isinf(self.tau_indiv) else 1.0 / self.tau_indiv

    @property
    def inv_tau_common(self) -> float:
        return 0.0 if math.isinf(self.tau_common) else 1.0 / self.tau_common

    @property
    def inv_tau_jitter(self) -> float:
        return 0.0 if math.isinf(self.tau_jitter) else 1.0 / self.tau_jitter

    @property
    def kappa(self) -> float:
        return self.kappa1 + self.kappa2

    @property
    def gamma_perp(self) -> float:
        """Transverse emitter decay rate: dephasing plus half the population decay."""
        return self.inv_tau_indiv + self.inv_tau_common + self.gamma_par / 2.0

    @property
    def big_gamma(self) -> float:
        """Damping rate of the mean cavity field: jitter plus mirror losses."""
        return self.inv_tau_jitter + self.kappa

    def replace(self, **changes) -> "SystemParams":
        """A copy with fields changed, given as in the JSON form (None: channel off)."""
        data = params_to_dict(self)
        data.update(changes)
        return params_from_dict(data)


@dataclass(frozen=True)
class DerivedRates:
    """Detunings from the drive frequency; arrays for a grid of them."""

    delta_c: float      # omega_c - omega_l
    delta_a: float      # omega_a - omega_l
    delta_ac: float     # delta_a - delta_c


def validate(params: SystemParams) -> None:
    """Check every validity invariant; raise ParameterError naming the first violation."""
    checks = [
        ("g", params.g >= 0.0 and math.isfinite(params.g)),
        ("n_atoms", isinstance(params.n_atoms, int) and params.n_atoms >= 0),
        ("kappa1", params.kappa1 >= 0.0 and math.isfinite(params.kappa1)),
        ("kappa2", params.kappa2 >= 0.0 and math.isfinite(params.kappa2)),
        ("kappa1+kappa2", params.kappa1 + params.kappa2 > 0.0),
        ("omega_c", math.isfinite(params.omega_c)),
        ("omega_a", math.isfinite(params.omega_a)),
        # Population decay must be strictly positive: every emitter formula
        # divides by gamma_par and the steady state degenerates without it.
        ("gamma_par", params.gamma_par > 0.0 and math.isfinite(params.gamma_par)),
        ("tau_indiv", params.tau_indiv > 0.0),
        ("tau_common", params.tau_common > 0.0),
        ("tau_jitter", params.tau_jitter > 0.0),
        ("beta", math.isfinite(abs(complex(params.beta)))),
    ]
    for name, ok in checks:
        if not ok:
            raise ParameterError(f"invalid parameter: {name}")


def derive(params: SystemParams, omega_l: float) -> DerivedRates:
    """Detunings of the cavity and the emitters from drive frequency omega_l."""
    delta_c = params.omega_c - omega_l
    delta_a = params.omega_a - omega_l
    return DerivedRates(delta_c=delta_c, delta_a=delta_a, delta_ac=delta_a - delta_c)


# JSON round trip.  Noise times serialise as None when the channel is off;
# beta serialises as [re, im] and is accepted as a plain number too.

def params_to_dict(params: SystemParams) -> dict:
    def _time(value: float):
        return None if math.isinf(value) else value

    beta = complex(params.beta)
    return {
        "g": params.g,
        "n_atoms": params.n_atoms,
        "kappa1": params.kappa1,
        "kappa2": params.kappa2,
        "omega_c": params.omega_c,
        "omega_a": params.omega_a,
        "gamma_par": params.gamma_par,
        "tau_indiv": _time(params.tau_indiv),
        "tau_common": _time(params.tau_common),
        "tau_jitter": _time(params.tau_jitter),
        "beta": [beta.real, beta.imag],
    }


def finite_number(name: str, value, whole: bool = False) -> float:
    """value as a float when it is a finite real number, a whole one if
    asked, and not a bool; ParameterError naming the field otherwise."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            number = float(value)
            if math.isfinite(number) and (number.is_integer() or not whole):
                return number
    except OverflowError:
        pass
    kind = "whole" if whole else "finite"
    raise ParameterError(f"{name}: expected a {kind} number, got {value!r}")


def params_from_dict(data: dict) -> SystemParams:
    known = {
        "g", "n_atoms", "kappa1", "kappa2", "omega_c", "omega_a",
        "gamma_par", "tau_indiv", "tau_common", "tau_jitter", "beta",
    }
    unknown = set(data) - known
    if unknown:
        raise ParameterError(f"unknown parameter fields: {sorted(unknown)}")

    def _time(key: str) -> float:
        value = data.get(key)
        return math.inf if value is None else finite_number(key, value)

    beta = data.get("beta", 0.0)
    if isinstance(beta, (list, tuple)) and len(beta) == 2:
        beta = complex(finite_number("beta", beta[0]), finite_number("beta", beta[1]))
    elif isinstance(beta, numbers.Complex) and not isinstance(beta, bool):
        beta = complex(beta)
    else:
        raise ParameterError("beta: expected a number or a [re, im] pair")

    try:
        fields = {key: finite_number(key, data[key]) for key in (
            "g", "kappa1", "kappa2", "omega_c", "omega_a", "gamma_par")}
        n_atoms = int(finite_number("n_atoms", data["n_atoms"], whole=True))
    except KeyError as exc:
        raise ParameterError(f"missing parameter field: {exc.args[0]}") from exc
    return SystemParams(**fields, n_atoms=n_atoms, tau_indiv=_time("tau_indiv"),
                        tau_common=_time("tau_common"),
                        tau_jitter=_time("tau_jitter"), beta=beta)


def params_from_json(text: str) -> SystemParams:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError("config must be a JSON object")
    return params_from_dict(data)
