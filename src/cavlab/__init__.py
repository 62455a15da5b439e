"""Steady states, photon statistics, and emission spectra of a driven
cavity coupled to N two-level emitters under phase noise.

Closed-form results live in :mod:`cavlab.analytic`; two independent
numerical oracles (:mod:`cavlab.moments`, :mod:`cavlab.liouville`) validate
them, and :mod:`cavlab.validation` bundles the full cross-check suite used
by ``cavlab validate``.
"""
from .errors import BudgetError, ParameterError, SingularSystemError
from .model import DerivedRates, SystemParams, derive, params_from_dict, params_from_json, params_to_dict, validate

__all__ = [
    "BudgetError",
    "ParameterError",
    "SingularSystemError",
    "DerivedRates",
    "SystemParams",
    "derive",
    "validate",
    "params_from_dict",
    "params_from_json",
    "params_to_dict",
]
