"""Properties over the acceptance gate's parameter domain (rates 1e-2..1e2)
and over rates 1e-4..1e4.

On the gate's domain the array forms of the closed forms and of the moment
solve must equal per-point calls, and the resolvent spectrum, the flux
identity, the relaxation of the moment equations and the height bound must
hold on every draw.  Over rates 1e-4..1e4 the closed forms must match the
moment solve, the symmetry-reduced moments must match the per-emitter ones
for up to three emitters, the flux identity and the height bound must hold,
and a parameter record must survive the JSON round trip, while a
string, a container, NaN or +-inf in any physics field or command option
of a config must make the CLI exit 2 with one error line.  On small
truncated spaces, the one-pass generator of the density-matrix oracle must
equal the kron-chain reference, the sector-preconditioned steady state, on
its own and solved over the orbits of identical emitters, must match the
direct LU, the real LU of a system with a Hermitian unknown must solve as
the complex LU, and the stochastic dephasing check without diffusion must
be exact at any time, seed and trajectory count, and with diffusion must
equal the two-propagation reference, the Lindblad generator evolved on its
own.  Over every finite double, the CSV row formatter must write the bytes
``%`` writes.
"""
import contextlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, splu

from cavlab import analytic, cli, liouville, moments
from cavlab.liouville import SpaceSpec
from cavlab.model import SystemParams, params_from_json, params_to_dict
from test_cli import _rows_by_percent
from test_liouville import _kron_chain_liouvillian, _kron_chain_lowering
from test_moments import _per_atom_steady_state

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

OMEGAS = np.linspace(-6.0, 6.0, 11)


@st.composite
def emitter_params(draw, decades: float, atoms=(1, 2, 3, 5, 20)) -> SystemParams:
    """A record with emitters: every rate in 10**-decades..10**decades (the
    gate's domain is 2 decades), each dephasing channel and cavity jitter on
    or off, detunings in [-5, 5], a complex drive and an emitter number from
    ``atoms``."""
    rate = st.floats(-decades, decades).map(lambda e: 10.0 ** e)
    channel = st.one_of(st.none(), rate.map(lambda r: 1.0 / r))
    return SystemParams(
        g=draw(rate), n_atoms=draw(st.sampled_from(atoms)),
        kappa1=draw(rate), kappa2=draw(rate), gamma_par=draw(rate),
        omega_c=draw(st.floats(-5.0, 5.0)), omega_a=draw(st.floats(-5.0, 5.0)),
        tau_indiv=draw(channel) or math.inf, tau_common=draw(channel) or math.inf,
        tau_jitter=draw(channel) or math.inf,
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
    if not ref.any():        # no noise: all light is in the coherent line
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


@given(emitter_params(4.0, atoms=(1, 2, 3)), st.floats(-4.0, 4.0))
def test_reduced_moments_match_per_atom_system_over_wide_rates(p, omega_l):
    # the permutation-symmetry reduction against every <a_k^dag a_j> kept
    reduced = moments.steady_state(p, omega_l).packed()
    full = _per_atom_steady_state(p, omega_l).packed()
    assert np.max(np.abs(reduced - full)) <= 1e-9 * np.max(np.abs(reduced))


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


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# numbers and words as text: "1.5" and "inf" are strings too
_TEXT = st.text(alphabet="0123456789.-e:infax ", max_size=4)
# a list of strings is malformed everywhere, beta's [re, im] pair included
_CONTAINER = st.one_of(st.lists(_TEXT, min_size=1, max_size=2),
                       st.dictionaries(_TEXT, st.integers(), max_size=2))
JITTER_CONFIG = json.loads((Path(__file__).resolve().parents[1] / "configs"
                            / "empty_jitter.json").read_text())


@st.composite
def malformed_entries(draw) -> tuple[str, object]:
    """A physics field or a command option, and a value of the wrong kind:
    a string, a container, NaN or +-inf; never a string for an option that
    takes one."""
    key = draw(st.sampled_from(sorted(JITTER_CONFIG.keys() | {"tau_indiv", "tau_common"}
                                      | cli._OPTION_TYPES.keys())))
    wrong = [_CONTAINER, _NON_FINITE]
    if cli._OPTION_TYPES.get(key) is not str:
        wrong.append(_TEXT)
    return key, draw(st.one_of(wrong))


@settings(max_examples=40)
@given(command=st.sampled_from(["profile", "spectrum", "wigner", "height-scan"]),
       entry=malformed_entries())
def test_a_malformed_config_value_exits_2_with_one_error_line(tmp_path_factory, command,
                                                             entry):
    key, value = entry
    config = tmp_path_factory.mktemp("config") / "bad.json"
    config.write_text(json.dumps({**JITTER_CONFIG, key: value}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([command, "--config", str(config), "--out", str(config) + ".out"])
    assert rc == 2
    [line] = err.getvalue().splitlines()
    assert line.startswith("error: ")


@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=16),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_formatted_rows_equal_percent(rows):
    """Subnormals, +-0 and +-max included: byte for byte, and no warning."""
    assert cli._format_rows(rows) == _rows_by_percent(rows)


_gate_rate = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
_gate_time = st.one_of(st.none(), _gate_rate.map(lambda rate: 1.0 / rate))
SMALL_SPACES = (SpaceSpec(5, 1, "two_level"), SpaceSpec(4, 1, atom_cutoff=2),
                SpaceSpec(3, 2, "two_level"), SpaceSpec(2, 2, atom_cutoff=2))


@st.composite
def truncated_spaces(draw) -> SpaceSpec:
    """hp (one or two quanta) or two-level emitters, N = 0-3, cavity cutoff
    1-6, with or without the probe mode: at most 378 states."""
    return SpaceSpec(cavity_cutoff=draw(st.integers(1, 6)), n_atoms=draw(st.integers(0, 3)),
                     atom_model=draw(st.sampled_from(("hp", "two_level"))),
                     atom_cutoff=draw(st.integers(1, 2)), probe_enabled=draw(st.booleans()))


@given(space=truncated_spaces(), probe_terms=st.booleans(), g=_gate_rate,
       kappa1=_gate_rate, kappa2=_gate_rate, gamma_par=_gate_rate,
       omega_c=st.floats(-5.0, 5.0), omega_a=st.floats(-5.0, 5.0),
       omega_l=st.floats(-5.0, 5.0), tau_indiv=_gate_time, tau_common=_gate_time,
       tau_jitter=_gate_time, beta=st.complex_numbers(max_magnitude=2.0))
def test_one_pass_generator_equals_kron_chain(space, probe_terms, omega_l, tau_indiv,
                                              tau_common, tau_jitter, **fields):
    # H_eff x 1, 1 x conj(H_eff) and c x conj(c) summed once from the level
    # table's operators, against the commutator plus one full dissipator per
    # jump, each from kron-chain operators; the lowering operators are exact
    times = dict(tau_indiv=tau_indiv, tau_common=tau_common, tau_jitter=tau_jitter)
    p = SystemParams(n_atoms=space.n_atoms, **fields,
                     **{key: value or math.inf for key, value in times.items()})
    extras = {}
    if space.probe_enabled and probe_terms:
        a_p = _kron_chain_lowering(space.dims, len(space.dims) - 1)
        a_c = _kron_chain_lowering(space.dims, 0)
        extras = dict(extra_hamiltonian=0.02 * (a_c.conj().T @ a_p + a_c @ a_p.conj().T),
                      extra_jumps=(math.sqrt(0.02) * a_p,))
    gen = liouville.build_liouvillian(p, omega_l, space, **extras)
    ref = _kron_chain_liouvillian(p, omega_l, space, **extras)
    assert abs(gen - ref).max() <= 1e-14 * abs(ref).max()
    for site in range(len(space.dims)):
        assert (liouville._lowering(space.dims, site)
                != _kron_chain_lowering(space.dims, site)).nnz == 0


@given(space=st.sampled_from(SMALL_SPACES), g=_gate_rate, kappa1=_gate_rate,
       kappa2=_gate_rate, gamma_par=_gate_rate, omega_c=st.floats(-5.0, 5.0),
       omega_a=st.floats(-5.0, 5.0), tau_indiv=_gate_time, tau_common=_gate_time,
       tau_jitter=_gate_time, beta=st.complex_numbers(max_magnitude=1.0))
def test_sector_steady_state_matches_direct(space, tau_indiv, tau_common, tau_jitter,
                                            **fields):
    times = dict(tau_indiv=tau_indiv, tau_common=tau_common, tau_jitter=tau_jitter)
    p = SystemParams(n_atoms=space.n_atoms, **fields,
                     **{key: value or math.inf for key, value in times.items()})
    gen = liouville.build_liouvillian(p, 0.0, space)
    direct = liouville.steady_state(gen, space.dims).rho
    # every dimension above the limit: the sector path, or its fallback
    with mock.patch.object(liouville, "_DIRECT_SOLVE_LIMIT", 0):
        swept = liouville.steady_state(gen, space.dims).rho
    assert np.max(np.abs(swept - direct)) <= 1e-12 * np.max(np.abs(direct))


@given(space=st.sampled_from(SMALL_SPACES), probe_terms=st.booleans(), squeeze=st.booleans(),
       g=_gate_rate, kappa1=_gate_rate, kappa2=_gate_rate, gamma_par=_gate_rate,
       omega_c=st.floats(-5.0, 5.0), omega_a=st.floats(-5.0, 5.0),
       omega_l=st.floats(-5.0, 5.0), tau_indiv=_gate_time, tau_common=_gate_time,
       tau_jitter=_gate_time, beta=st.complex_numbers(max_magnitude=2.0))
def test_real_lu_solves_as_the_complex_lu(space, probe_terms, squeeze, omega_l, tau_indiv,
                                          tau_common, tau_jitter, **fields):
    # the constrained generator of the direct solve or, with the probe's
    # coupling and decay, the probe populations' rho_11 and rho_00 blocks;
    # each has a Hermitian unknown of the small space's dimension
    times = dict(tau_indiv=tau_indiv, tau_common=tau_common, tau_jitter=tau_jitter)
    p = SystemParams(n_atoms=space.n_atoms, **fields,
                     **{key: value or math.inf for key, value in times.items()})
    n = space.dimension
    big = replace(space, probe_enabled=probe_terms)
    a_c = _kron_chain_lowering(big.dims, 0)
    extra, jumps = 0.4 * squeeze * (a_c @ a_c + (a_c @ a_c).conj().T), ()
    if probe_terms:
        a_p = _kron_chain_lowering(big.dims, len(big.dims) - 1)
        extra = extra + 0.02 * (a_c.conj().T @ a_p + a_c @ a_p.conj().T)
        jumps = (math.sqrt(0.02) * a_p,)
    gen = liouville.build_liouvillian(p, omega_l, big, extra_hamiltonian=extra,
                                      extra_jumps=jumps)
    a = liouville._constrained(gen, liouville._trace_row(big.dimension))[0].tocsr()
    ket, bra = np.divmod(np.arange(big.dimension ** 2), big.dimension)
    if probe_terms:
        blocks = [np.flatnonzero((ket % 2 == level) & (bra % 2 == level)) for level in (1, 0)]
    else:
        blocks = [np.arange(n * n)]
    m = np.random.default_rng(n).standard_normal((n, n, 2)) @ [1.0, 1j]
    hermitian = (m + m.conj().T).ravel()
    for idx in blocks:
        block = a[idx][:, idx].tocsc()
        lu = liouville._HermitianLU(block, n, "test")
        assert lu.factor.L.dtype == lu.factor.U.dtype == np.float64
        assert lu.from_real(lu.to_real(hermitian)).tobytes() == hermitian.tobytes()
        x, ref = lu.solve(hermitian), splu(block).solve(hermitian)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


SYMMETRIC_SPACES = (SpaceSpec(2, 2, "two_level"), SpaceSpec(1, 3, "two_level"),
                    SpaceSpec(2, 3, "two_level"), SpaceSpec(1, 2, atom_cutoff=2))


@given(space=st.sampled_from(SYMMETRIC_SPACES), g=_gate_rate, kappa1=_gate_rate,
       kappa2=_gate_rate, gamma_par=_gate_rate, omega_c=st.floats(-5.0, 5.0),
       omega_a=st.floats(-5.0, 5.0), tau_indiv=_gate_rate.map(lambda rate: 1.0 / rate),
       tau_common=_gate_rate.map(lambda rate: 1.0 / rate),
       beta=st.complex_numbers(max_magnitude=1.0))
def test_sector_solve_on_emitter_orbits_matches_direct(space, **fields):
    # identical emitters with individual and common dephasing: one unknown
    # per cavity entry and multiset of emitter (ket, bra) level pairs
    p = SystemParams(n_atoms=space.n_atoms, **fields)
    gen = liouville.build_liouvillian(p, 0.0, space)
    record = liouville._SolveRecord("sector", space.dimension)
    swept = liouville._sector_steady(gen, space.dims, record)
    direct = liouville._direct_steady(gen, space.dimension)
    pairs = space.atom_dim ** 2
    assert record.unknowns == ((space.cavity_cutoff + 1) ** 2
                               * math.comb(space.n_atoms + pairs - 1, space.n_atoms))
    assert liouville._residual(gen, swept) <= 1e-14
    assert np.max(np.abs(swept - direct)) <= 1e-12 * np.max(np.abs(direct))


@given(t_end=st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e), n_traj=st.integers(1, 100),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stochastic_check_without_diffusion_is_exact(t_end, n_traj, seed):
    # no kick: every trajectory is the Lindblad evolution itself
    space = SpaceSpec(cavity_cutoff=3, n_atoms=0)
    p = SystemParams(g=0.0, n_atoms=0, kappa1=0.5, kappa2=0.5, omega_c=0.0,
                     omega_a=0.0, gamma_par=1.0, beta=0.0)
    gen = liouville.build_liouvillian(p, 0.0, space)
    amp = liouville.coherent_vector(0.5, space.dimension)
    distance = liouville.stochastic_dephasing_check(
        gen, np.diag(np.arange(space.dimension, dtype=float)), 0.0,
        np.outer(amp, amp.conj()), t_end=t_end, n_traj=n_traj, seed=seed)
    assert distance < 1e-12


def _two_propagation_distance(gen, operator, diffusion, initial, t_end, n_traj, seed):
    """The check's trace distance with the Lindblad reference evolved on its
    own generator, gen - D/2 diag(delta**2), and the phases averaged over
    every signed delta."""
    lam = np.diag(operator)
    deltas = (lam[:, None] - lam[None, :]).ravel()
    v0 = np.asarray(initial, dtype=complex).ravel()
    wiener = np.random.default_rng(seed).standard_normal(n_traj) * math.sqrt(t_end)
    slopes, labels = np.unique(deltas, return_inverse=True)
    phases = np.exp(-1j * math.sqrt(diffusion) * np.outer(wiener, slopes)).mean(axis=0)
    v_mc = expm_multiply(gen * t_end, v0) * phases[labels]
    v_ref = expm_multiply((gen + sp.diags(-0.5 * diffusion * deltas ** 2)) * t_end, v0)
    diff = (v_mc - v_ref).reshape(len(lam), len(lam))
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))


def _decaying_cavity(dim):
    p = SystemParams(g=0.0, n_atoms=0, kappa1=0.5, kappa2=0.5, omega_c=0.0,
                     omega_a=0.0, gamma_par=1.0, beta=0.0)
    return liouville.build_liouvillian(p, 0.0, SpaceSpec(cavity_cutoff=dim - 1, n_atoms=0))


def _pure_dephasing(dim, seed=5):
    # diagonal, so the kick of any real diagonal operator commutes with it
    rng = np.random.default_rng(seed)
    energies = rng.uniform(-3.0, 3.0, dim)
    rates = rng.uniform(0.0, 2.0, (dim, dim))
    return sp.diags((-1j * (energies[:, None] - energies[None, :]) - (rates + rates.T)).ravel())


@pytest.mark.parametrize("lam, generator", [
    (np.arange(17.0), _decaying_cavity),
    # unequal level spacings whose slope steps repeat: slopes 0, 0.5, ..., 2.5
    # are one step of 0.5 apart, and slopes 0, 1, 2, 3, 4.5, 6.5, 7.5 three
    # distinct steps
    (np.array([0.0, 0.5, 1.0, 2.5]), _pure_dephasing),
    (np.array([0.0, 1.0, 3.0, 7.5]), _pure_dephasing),
])
def test_stochastic_check_at_the_criterion_size_matches_one_exponential_per_slope(
        lam, generator):
    # the criterion's D = 2, T = 1 and 16,000 trajectories: the running
    # products of step factors against one exp(-i sqrt(D) W s) per slope
    gen = generator(len(lam))
    amp = liouville.coherent_vector(2.0, len(lam))
    kwargs = dict(diffusion=2.0, initial=np.outer(amp, amp.conj()), t_end=1.0,
                  n_traj=16000, seed=20260815)
    assert abs(liouville.stochastic_dephasing_check(gen, np.diag(lam), **kwargs)
               - _two_propagation_distance(gen, np.diag(lam), **kwargs)) <= 1e-12


@st.composite
def commuting_noise(draw):
    """A generator, a real diagonal noise operator whose kick commutes with it,
    and an initial density matrix: the decaying cavity with its number
    operator, or pure dephasing with a non-equally spaced diagonal operator."""
    if draw(st.booleans()):
        dim = draw(st.integers(2, 5))
        gen = _decaying_cavity(dim)
        lam = np.arange(dim, dtype=float)
    else:
        lam = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=5)))
        dim = len(lam)
        gen = _pure_dephasing(dim, draw(st.integers(0, 2 ** 32 - 1)))
    amp = draw(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=dim,
                        max_size=dim).filter(lambda z: np.linalg.norm(z) > 0.1))
    amp = np.array(amp) / np.linalg.norm(amp)
    mixed = np.diag(np.full(dim, 1.0 / dim))
    return gen, np.diag(lam), 0.5 * (np.outer(amp, amp.conj()) + mixed)


@given(system=commuting_noise(), diffusion=st.floats(0.0, 5.0),
       t_end=st.floats(1e-3, 10.0), n_traj=st.integers(1, 200),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stochastic_check_matches_two_propagations(system, diffusion, t_end, n_traj, seed):
    # the Lindblad channel of a commuting kick is its decoherence factor on
    # the same evolution, and the kick of -delta the conjugate of delta's
    gen, operator, initial = system
    kwargs = dict(diffusion=diffusion, initial=initial, t_end=t_end, n_traj=n_traj,
                  seed=seed)
    assert abs(liouville.stochastic_dephasing_check(gen, operator, **kwargs)
               - _two_propagation_distance(gen, operator, **kwargs)) <= 1e-12
