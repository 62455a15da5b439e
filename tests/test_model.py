"""Parameter validation, derived rates and JSON round trips."""
import json
import math

import numpy as np
import pytest

from cavlab.analytic import mean_field
from cavlab.errors import ParameterError
from cavlab.model import (
    SystemParams,
    derive,
    params_from_dict,
    params_from_json,
    params_to_dict,
    validate,
)


def _figure_params(**overrides):
    base = dict(g=2.0, n_atoms=5, kappa1=0.5, kappa2=0.5, omega_c=0.0,
                omega_a=0.0, gamma_par=2.0)
    base.update(overrides)
    return SystemParams(**base)


def test_figure_parameter_set_accepted():
    p = _figure_params()
    validate(p)   # construction already validates; explicit call is idempotent
    assert p.kappa == 1.0
    assert p.gamma_perp == 1.0


@pytest.mark.parametrize("field,value", [
    ("gamma_par", 0.0),
    ("gamma_par", -1.0),
    ("g", -0.5),
    ("g", math.inf),
    ("tau_indiv", 0.0),
    ("tau_common", -2.0),
    ("tau_jitter", 0.0),
    ("kappa1", -0.1),
])
def test_invalid_fields_rejected(field, value):
    with pytest.raises(ParameterError, match=field.split("_")[0]):
        _figure_params(**{field: value})


def test_no_mirror_coupling_rejected():
    with pytest.raises(ParameterError, match="kappa1\\+kappa2"):
        _figure_params(kappa1=0.0, kappa2=0.0)


@pytest.mark.parametrize("changes, name", [
    (dict(kappa1=1e308, kappa2=1e308), "kappa"),
    (dict(tau_indiv=1e-320), "gamma_perp"),
    (dict(tau_jitter=1e-320), "big_gamma"),
])
def test_derived_rates_that_overflow_are_rejected(changes, name):
    with pytest.raises(ParameterError, match=f"invalid parameter: {name}$"):
        _figure_params(**changes)


def test_drive_enters_through_mirror_one():
    p = _figure_params(kappa1=0.08, kappa2=3.0, beta=0.5 - 2j)
    assert p.drive == pytest.approx(0.4 * (0.5 - 2j), rel=1e-15)
    assert mean_field(p, 0.0) * (p.big_gamma + p.g**2 * p.n_atoms / p.gamma_perp) == \
        pytest.approx(p.drive, rel=1e-15)


def test_one_sided_cavity_allowed():
    p = _figure_params(kappa1=1.0, kappa2=0.0)
    assert p.kappa == 1.0


def test_gamma_perp_composition():
    assert _figure_params().gamma_perp == 1.0           # gamma_par / 2 only
    p = _figure_params(tau_indiv=0.5, tau_common=0.25)
    assert p.gamma_perp == 2.0 + 4.0 + 1.0
    # lower bound gamma_par / 2, equality iff both channels off
    assert _figure_params(tau_indiv=10.0).gamma_perp > 1.0


def test_inverse_times_encode_channel_off():
    p = _figure_params()
    assert p.inv_tau_indiv == 0.0
    assert p.inv_tau_common == 0.0
    assert p.inv_tau_jitter == 0.0
    assert p.big_gamma == p.kappa
    q = _figure_params(tau_jitter=2.0)
    assert q.inv_tau_jitter == 0.5
    assert q.big_gamma == 1.5


def test_derive_is_pure():
    p = _figure_params(omega_c=1.2, omega_a=-0.4, tau_indiv=0.7)
    assert derive(p, 0.3) == derive(p, 0.3)


def test_delta_ac_independent_of_drive_frequency():
    p = _figure_params(omega_c=1.5, omega_a=-2.0)
    values = {derive(p, om).delta_ac for om in np.linspace(-5, 5, 11)}
    assert values == {-3.5}


def test_v_linear_in_atom_number():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g, k1, k2, gam = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 4))
        p1 = SystemParams(g=g, n_atoms=1, kappa1=k1, kappa2=k2, omega_c=0.3,
                          omega_a=-0.2, gamma_par=gam, beta=1.0)
        # the collective response v = g^2 N / ((kappa + i delta_c)(gamma_perp
        # + i delta_a)) sees N only through g^2 N
        pn = p1.replace(n_atoms=6)
        collective = p1.replace(g=g * math.sqrt(6.0))
        om = rng.uniform(-2, 2)
        assert mean_field(pn, om) == pytest.approx(mean_field(collective, om), rel=1e-14)


def test_json_round_trip():
    p = _figure_params(tau_indiv=0.25, beta=1.0 - 2.0j)
    data = params_to_dict(p)
    assert data["tau_common"] is None          # channel off serialises as null
    assert data["beta"] == [1.0, -2.0]
    q = params_from_dict(json.loads(json.dumps(data)))
    assert q == p


def test_json_scalar_beta_accepted():
    data = params_to_dict(_figure_params())
    data["beta"] = 0.75
    assert params_from_dict(data).beta == 0.75 + 0j


def test_json_unknown_field_rejected():
    data = params_to_dict(_figure_params())
    data["coupling"] = 1.0
    with pytest.raises(ParameterError, match="unknown"):
        params_from_dict(data)


def test_json_missing_field_rejected():
    data = params_to_dict(_figure_params())
    del data["g"]
    with pytest.raises(ParameterError, match="missing"):
        params_from_dict(data)


def test_bad_json_text_rejected():
    with pytest.raises(ParameterError, match="JSON"):
        params_from_json("{not json")
    with pytest.raises(ParameterError, match="object"):
        params_from_json("[1, 2]")


def test_replace_builds_new_record():
    p = _figure_params()
    q = p.replace(beta=0.3j, tau_jitter=5.0)
    assert q.beta == 0.3j and q.tau_jitter == 5.0
    assert p.beta == 0j and math.isinf(p.tau_jitter)
