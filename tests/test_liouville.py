"""Truncated-Hilbert-space oracle: generator, steady states, Wigner, probe,
stochastic dephasing consistency."""
import logging
import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import eval_laguerre

from cavlab import analytic, liouville, moments
from cavlab.errors import BudgetError, ParameterError, SingularSystemError
from cavlab.liouville import SpaceSpec, TruncatedState
from cavlab.model import SystemParams


def _params(**overrides):
    base = dict(g=2.0, n_atoms=1, kappa1=0.5, kappa2=0.5, omega_c=0.0,
                omega_a=0.0, gamma_par=2.0, beta=0.05)
    base.update(overrides)
    return SystemParams(**base)


def _empty(**overrides):
    return _params(g=0.0, n_atoms=0, **overrides)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(liouville, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(liouville, name, counted)
    return calls


# --- space bookkeeping --------------------------------------------------------

def test_space_spec_dimensions():
    assert SpaceSpec(5, 0).dims == (6,)
    assert SpaceSpec(3, 2, "two_level").dims == (4, 2, 2)
    assert SpaceSpec(3, 2, "hp", atom_cutoff=2).dims == (4, 3, 3)
    assert SpaceSpec(3, 1, "hp", 3, probe_enabled=True).dims == (4, 4, 2)
    assert SpaceSpec(3, 2, "hp", atom_cutoff=2).dimension == 36


@pytest.mark.parametrize("kwargs", [
    dict(cavity_cutoff=0, n_atoms=1),
    dict(cavity_cutoff=3, n_atoms=-1),
    dict(cavity_cutoff=3, n_atoms=1, atom_model="spin"),
    dict(cavity_cutoff=3, n_atoms=1, atom_model="hp", atom_cutoff=0),
])
def test_space_spec_rejects(kwargs):
    with pytest.raises(ParameterError):
        SpaceSpec(**kwargs)


def test_the_dimension_is_exact_beyond_64_bits(monkeypatch):
    monkeypatch.delenv("CAVLAB_BUDGET", raising=False)
    space = SpaceSpec(cavity_cutoff=3, n_atoms=31, atom_cutoff=3)
    assert space.dimension == 2**64
    with pytest.raises(BudgetError, match=f"dimension {2**64} exceeds"):
        space.check_budget()


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("CAVLAB_BUDGET", "16")
    assert liouville.dimension_budget() == 16
    with pytest.raises(BudgetError, match="budget"):
        SpaceSpec(cavity_cutoff=20, n_atoms=0).check_budget()
    with pytest.raises(BudgetError):
        liouville.build_liouvillian(_empty(), 0.0, SpaceSpec(20, 0))
    monkeypatch.setenv("CAVLAB_BUDGET", "not-a-number")
    with pytest.raises(ParameterError):
        liouville.dimension_budget()


# --- generator properties -----------------------------------------------------

def _destroy(dim):
    return sp.diags(np.sqrt(np.arange(1, dim, dtype=float)), 1, format="csr").astype(complex)


def _kron_chain_embed(op, site, dims):
    """identity x op x identity by a chain of krons with identities."""
    mat = sp.identity(1, format="csr", dtype=complex)
    for k, d in enumerate(dims):
        mat = sp.kron(mat, op if k == site else sp.identity(d, dtype=complex), format="csr")
    return mat


def _kron_chain_lowering(dims, site):
    return _kron_chain_embed(_destroy(dims[site]), site, dims)


def _kron_chain_operators(params, omega_l, space):
    """H and the jumps term by term: kron-chain lowering operators, number
    operators as products l^dagger l, one coupling term per emitter."""
    a = _kron_chain_lowering(space.dims, 0)
    lows = [_kron_chain_lowering(space.dims, s) for s in range(1, 1 + params.n_atoms)]

    def number(op):
        return op.conj().T @ op

    drive = math.sqrt(2.0 * params.kappa1) * params.beta
    h = (params.omega_c - omega_l) * number(a)
    h = h + 1j * (drive * a.conj().T - np.conj(drive) * a)
    for low in lows:
        h = h + (params.omega_a - omega_l) * number(low)
        h = h + params.g * (low.conj().T @ a + low @ a.conj().T)
    jumps = [math.sqrt(2.0 * params.kappa) * a]
    if params.inv_tau_jitter > 0.0:
        jumps.append(math.sqrt(2.0 * params.inv_tau_jitter) * number(a))
    jumps += [math.sqrt(params.gamma_par) * low for low in lows]
    if params.inv_tau_indiv > 0.0:
        jumps += [math.sqrt(2.0 * params.inv_tau_indiv) * number(low) for low in lows]
    if params.inv_tau_common > 0.0 and lows:
        jumps.append(math.sqrt(2.0 * params.inv_tau_common) * sum(number(low) for low in lows))
    return h.tocsr(), jumps


def _hamiltonian_superop(h):
    """-i [H, .] in vectorized form."""
    ident = sp.identity(h.shape[0], format="csr", dtype=complex)
    return (-1j * (sp.kron(h, ident) - sp.kron(ident, h.T))).tocsr()


def _dissipator_superop(c):
    ident = sp.identity(c.shape[0], format="csr", dtype=complex)
    cdc = (c.conj().T @ c).tocsr()
    out = sp.kron(c, c.conj()) - 0.5 * (sp.kron(cdc, ident) + sp.kron(ident, cdc.T))
    return out.tocsr()


def _kron_chain_liouvillian(params, omega_l, space, extra_hamiltonian=None,
                            extra_jumps=()):
    """The generator as the commutator superoperator of H plus one full
    dissipator superoperator per jump, each formed by krons."""
    h, jumps = _kron_chain_operators(params, omega_l, space)
    if extra_hamiltonian is not None:
        h = (h + extra_hamiltonian).tocsr()
    gen = _hamiltonian_superop(h)
    for c in jumps + list(extra_jumps):
        gen = gen + _dissipator_superop(c)
    return gen.tocsr()


def test_generator_preserves_trace():
    p = _params(tau_indiv=0.5, tau_common=2.0, tau_jitter=3.0)
    space = SpaceSpec(cavity_cutoff=3, n_atoms=1, atom_cutoff=2)
    gen = liouville.build_liouvillian(p, 0.3, space)
    dim = space.dimension
    trace_row = np.zeros(dim * dim)
    trace_row[np.arange(dim) * (dim + 1)] = 1.0
    residual = np.max(np.abs(gen.T @ trace_row))
    assert residual < 1e-12 * np.max(np.abs(gen.data))


def test_generator_rejects_a_space_for_another_emitter_number():
    with pytest.raises(ParameterError, match="build_liouvillian: space.n_atoms"):
        liouville.build_liouvillian(_params(n_atoms=2), 0.0, SpaceSpec(3, 1))


def test_undriven_empty_cavity_relaxes_to_vacuum():
    gen = liouville.build_liouvillian(_empty(beta=0.0), 0.0, SpaceSpec(4, 0))
    state = liouville.steady_state(gen, (5,))
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    assert np.max(np.abs(state.rho - expected)) < 1e-12


def test_empty_driven_steady_state_is_coherent():
    p = _empty(beta=0.6)
    space = SpaceSpec(cavity_cutoff=12, n_atoms=0)
    gen = liouville.build_liouvillian(p, 0.0, space)
    state = liouville.steady_state(gen, space.dims)
    alpha = analytic.mean_field(p, 0.0)
    a_c = _kron_chain_lowering(space.dims, 0)
    assert liouville.expectation(state, a_c) == pytest.approx(alpha, abs=1e-8)
    amp = liouville.coherent_vector(alpha, space.dimension)
    fidelity = float(np.real(amp.conj() @ state.rho @ amp))
    assert fidelity > 1.0 - 1e-6
    assert state.purity() > 1.0 - 1e-6


def test_reduced_cavity_of_emitter_system_stays_coherent():
    # population decay alone must not degrade the coherent cavity state
    p = _params(beta=0.2)
    space = SpaceSpec(cavity_cutoff=8, n_atoms=1, atom_cutoff=3)
    gen = liouville.build_liouvillian(p, 0.0, space)
    cav = liouville.reduce_cavity(liouville.steady_state(gen, space.dims))
    assert cav.purity() > 1.0 - 1e-6
    amp = liouville.coherent_vector(analytic.mean_field(p, 0.0), cav.dims[0])
    assert float(np.real(amp.conj() @ cav.rho @ amp)) > 1.0 - 1e-6


def test_expectation_basics():
    space = SpaceSpec(cavity_cutoff=3, n_atoms=0)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    state = TruncatedState(rho, (4,))
    ident = np.eye(4)
    number = np.diag(np.arange(4.0))
    assert liouville.expectation(state, ident) == 1.0
    assert liouville.expectation(state, number) == 0.0
    assert liouville.expectation(state, sp.csr_matrix(number)) == 0.0
    with pytest.raises(ParameterError):
        liouville.expectation(state, np.eye(5))


def test_reduce_cavity_partial_trace():
    cav = np.diag([0.7, 0.3]).astype(complex)
    atom = np.array([[0.4, 0.2], [0.2, 0.6]], dtype=complex)
    full = TruncatedState(np.kron(cav, atom), (2, 2))
    red = liouville.reduce_cavity(full)
    assert np.max(np.abs(red.rho - cav)) < 1e-15
    assert red.trace() == pytest.approx(1.0, abs=1e-15)


def test_state_checks():
    bad = TruncatedState(np.diag([0.9, 0.2]).astype(complex), (2,))
    with pytest.raises(Exception, match="trace"):
        bad.check()
    with pytest.raises(ParameterError):
        TruncatedState(np.eye(3, dtype=complex), (2,))


def test_a_non_finite_state_fails_its_check():
    with pytest.raises(SingularSystemError, match="not finite"):
        TruncatedState(np.full((2, 2), np.nan + 0j), (2,)).check()


class _NanLU:
    """A factorization whose every solve is NaN."""

    def solve(self, b):
        return np.full(b.shape, np.nan + 0j)


# --- steady-state solves --------------------------------------------------------

def test_a_direct_solve_that_yields_nan_raises(monkeypatch):
    gen = liouville.build_liouvillian(_empty(beta=0.5), 0.0, SpaceSpec(4, 0))
    monkeypatch.setattr(liouville, "splu", lambda a, **kwargs: _NanLU())
    with pytest.raises(SingularSystemError, match="residual inf"):
        liouville._direct_steady(gen, 5)


def test_jitter_coherence_ratio():
    p = _empty(beta=2.0, tau_jitter=1.0)      # 1/(kappa tau_jit) = 1, <a_c> = 1
    mstate, _, used = liouville.converged_moment_state(
        p, 0.0, SpaceSpec(cavity_cutoff=14, n_atoms=0))
    ratio = mstate.s3 / abs(mstate.s1) ** 2
    assert abs(ratio - 2.0) < 1e-3
    assert used.cavity_cutoff > 14


def test_hp_oracle_matches_moment_oracle():
    p = _params(n_atoms=2, tau_indiv=0.5, beta=0.05)
    mstate, _, _ = liouville.converged_moment_state(
        p, 0.2, SpaceSpec(cavity_cutoff=3, n_atoms=2, atom_cutoff=2))
    ref = moments.steady_state(p, 0.2)
    scale = np.max(np.abs(ref.packed()))
    assert np.max(np.abs(mstate.packed() - ref.packed())) < 1e-6 * scale


@pytest.mark.parametrize("n_atoms", [1, 2])
def test_weak_drive_with_every_channel_matches_moments_and_closed_forms(n_atoms):
    # individual and common dephasing and cavity jitter at once, each at a
    # rate near the others; the cavity and emitter truncations leave 3.2e-7
    p = _params(n_atoms=n_atoms, tau_indiv=0.5, tau_common=2.0, tau_jitter=3.0)
    omega_l = 0.4
    mstate, _, _ = liouville.converged_moment_state(
        p, omega_l, SpaceSpec(cavity_cutoff=3, n_atoms=n_atoms, atom_cutoff=2))
    ref = moments.steady_state(p, omega_l)
    scale = np.max(np.abs(ref.packed()))
    assert np.max(np.abs(mstate.packed() - ref.packed())) <= 1e-5 * scale
    closed = analytic.steady_state_summary(p, omega_l)
    assert abs(mstate.s1 - closed.mean_field) <= 1e-5 * abs(closed.mean_field)
    assert abs(mstate.s3 - closed.photon_number) <= 1e-5 * closed.photon_number
    assert abs(mstate.s5 - closed.p_exc) <= 1e-5 * closed.p_exc


@pytest.mark.parametrize("space", [
    SpaceSpec(cavity_cutoff=2, n_atoms=3, atom_cutoff=2),                    # dim 81
    SpaceSpec(cavity_cutoff=2, n_atoms=3, atom_model="two_level"),           # dim 24
], ids=["3hp", "3two-level"])
def test_collective_moments_match_the_pair_loop(space):
    # s2, s4 and s6 through L = sum_j l_j against the per-emitter means and
    # the n (n - 1) ordered pairs, on the same state
    p = _params(n_atoms=3, beta=0.6, tau_indiv=0.5, tau_common=2.0, tau_jitter=3.0)
    mstate, state = liouville.steady_moment_state(p, 0.3, space)
    a = _kron_chain_lowering(space.dims, 0)
    lows = [_kron_chain_lowering(space.dims, s) for s in (1, 2, 3)]
    s2 = np.mean([liouville.expectation(state, low) for low in lows])
    s4 = np.mean([liouville.expectation(state, a.conj().T @ low) for low in lows])
    s5 = np.mean([liouville.expectation(state, low.conj().T @ low).real for low in lows])
    s6 = np.mean([liouville.expectation(state, k.conj().T @ j)
                  for k in lows for j in lows if k is not j]).real
    assert abs(mstate.s2 - s2) <= 1e-14 * abs(s2)
    assert abs(mstate.s4 - s4) <= 1e-14 * abs(s4)
    scale = max(s5, abs(s6))
    assert abs(mstate.s5 - s5) <= 1e-14 * scale
    assert abs(mstate.s6 - s6) <= 1e-14 * scale


def test_two_level_equals_hp_at_cutoff_one():
    # a two-level emitter is the one-quantum ladder: its dephasing couples
    # through the number operator n, not sigma_z/2 = n - 1/2, which is exact
    # because a constant shift leaves a Hermitian jump's dissipator unchanged
    number = sp.csr_matrix(np.diag([0.0, 1.0]).astype(complex))
    shifted = sp.csr_matrix(np.diag([-0.5, 0.5]).astype(complex))
    gap = _dissipator_superop(shifted) - _dissipator_superop(number)
    assert np.max(np.abs(gap.toarray())) <= 1e-15
    p = _params(n_atoms=2, tau_indiv=0.7, tau_common=1.4, beta=0.3)
    sp_tl = SpaceSpec(cavity_cutoff=4, n_atoms=2, atom_model="two_level")
    sp_hp = SpaceSpec(cavity_cutoff=4, n_atoms=2, atom_model="hp", atom_cutoff=1)
    assert sp_tl.dims == sp_hp.dims
    gen_tl = liouville.build_liouvillian(p, 0.1, sp_tl)
    gen_hp = liouville.build_liouvillian(p, 0.1, sp_hp)
    assert (gen_tl != gen_hp).nnz == 0


@pytest.mark.parametrize("n_atoms, space", [
    (2, SpaceSpec(cavity_cutoff=3, n_atoms=2, atom_cutoff=2)),
    (1, SpaceSpec(cavity_cutoff=8, n_atoms=1, atom_cutoff=3)),
    (3, SpaceSpec(cavity_cutoff=1, n_atoms=3, atom_cutoff=2)),
], ids=["2hp-dim36", "1hp-dim36", "3hp-dim54"])
def test_sector_solve_agrees_with_direct(n_atoms, space):
    p = _params(n_atoms=n_atoms, beta=0.4, tau_indiv=0.5, tau_common=2.0)
    gen = liouville.build_liouvillian(p, 0.0, space)
    direct = liouville._direct_steady(gen, space.dimension)
    record = liouville._SolveRecord("sector", space.dimension)
    swept = liouville._sector_steady(gen, space.dims, record)
    assert liouville._residual(gen, swept) <= 1e-14
    assert np.max(np.abs(swept - direct)) <= 1e-12 * np.max(np.abs(direct))
    # sectors -k..k, k the most quanta the cavity and emitters hold
    assert record.sectors == 2 * (space.cavity_cutoff + n_atoms * space.atom_cutoff) + 1


def _strong_two_level():
    p = _params(beta=2.5, tau_indiv=1.0 / 3.0)
    return p, SpaceSpec(cavity_cutoff=40, n_atoms=1, atom_model="two_level")   # dim 82


def _strong_jitter():
    # 1/(kappa tau_jit) = 1: photon number over |<a_c>|^2 is 2
    return _empty(beta=4.0, tau_jitter=1.0), SpaceSpec(cavity_cutoff=80, n_atoms=0)   # dim 81


def test_strong_drive_converges_on_the_sector_path():
    p, space = _strong_two_level()
    gen = liouville.build_liouvillian(p, 0.0, space)
    record = liouville._SolveRecord("sector", space.dimension)
    swept = liouville._sector_steady(gen, space.dims, record)
    direct = liouville._direct_steady(gen, space.dimension)
    assert record.residual <= 1e-14
    assert np.max(np.abs(swept - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_stalled_sector_solve_falls_back_to_direct(monkeypatch, caplog):
    # restart cycles of two iterations cannot reach the tolerance here
    p, space = _strong_two_level()
    gen = liouville.build_liouvillian(p, 0.0, space)
    monkeypatch.setattr(liouville, "_GMRES_RESTART", 2)
    direct = _count_calls(monkeypatch, "_direct_steady")
    caplog.set_level(logging.DEBUG, logger="cavlab.liouville")
    liouville.steady_state(gen, space.dims)
    assert len(direct) == 1
    record = caplog.records[-1].solve
    assert record.method == "sector→direct"
    assert record.iterations > 0 and record.residual <= 1e-10


def test_a_sector_solve_that_yields_nan_falls_back_after_one_cycle(monkeypatch):
    p, space = _strong_two_level()
    gen = liouville.build_liouvillian(p, 0.0, space)
    cycles = []

    def nan_gmres(a, b, **kwargs):
        cycles.append(b)
        return np.full(b.shape, np.nan + 0j), 0

    monkeypatch.setattr(liouville, "gmres", nan_gmres)
    direct = _count_calls(monkeypatch, "_direct_steady")
    liouville.steady_state(gen, space.dims).check()
    assert len(cycles) == 1 and len(direct) == 1


def _failing_splu(monkeypatch, exact_calls: int) -> None:
    """Let the first exact_calls factorizations through, then fail each."""
    exact, calls = liouville.splu, []

    def splu(a, **kwargs):
        calls.append(a.shape)
        if len(calls) > exact_calls:
            raise RuntimeError("Factor is exactly singular")
        return exact(a, **kwargs)

    monkeypatch.setattr(liouville, "splu", splu)


def test_a_failed_solve_logs_its_record(monkeypatch, caplog):
    gen = liouville.build_liouvillian(_empty(beta=0.5), 0.0, SpaceSpec(4, 0))
    _failing_splu(monkeypatch, 0)
    caplog.set_level(logging.DEBUG, logger="cavlab.liouville")
    with pytest.raises(SingularSystemError, match="sparse LU failed") as failure:
        liouville.steady_state(gen, (5,))
    record = caplog.records[-1].solve
    assert record.method == "direct" and record.error == str(failure.value)
    assert caplog.records[-1].getMessage().endswith(
        ", failed: steady_state: sparse LU failed: Factor is exactly singular")


def test_a_failed_probe_fallback_logs_the_scan_record(monkeypatch, caplog):
    # the two population blocks factor; the point's coherence block and its
    # direct fallback do not
    p = _empty(beta=1.0, tau_jitter=1.0)
    space = SpaceSpec(cavity_cutoff=4, n_atoms=0, probe_enabled=True)
    _failing_splu(monkeypatch, 2)
    caplog.set_level(logging.DEBUG, logger="cavlab.liouville")
    with pytest.raises(SingularSystemError, match="sparse LU failed") as failure:
        liouville.probe_spectrum(p, 0.0, np.array([0.1]), epsilon=0.01, space=space)
    record = caplog.records[-1].probe
    assert record.factorizations == 2 and record.fallbacks == 0
    assert record.error == str(failure.value)
    assert "failed: steady_state: sparse LU failed" in caplog.records[-1].getMessage()


def test_a_single_mode_takes_the_direct_solve(monkeypatch, caplog):
    # its generator lives on a 2D grid, whose LU stays sparse at any size;
    # the sector solve of this space stops near a residual of 1e-9
    p, space = _strong_jitter()
    gen = liouville.build_liouvillian(p, 0.0, space)
    direct = _count_calls(monkeypatch, "_direct_steady")
    caplog.set_level(logging.DEBUG, logger="cavlab.liouville")
    state = liouville.steady_state(gen, space.dims)
    assert len(direct) == 1 and caplog.records[-1].solve.method == "direct"
    a_c = _kron_chain_lowering(space.dims, 0)
    mean = liouville.expectation(state, a_c)
    number = liouville.expectation(state, a_c.conj().T @ a_c).real
    assert abs(number / abs(mean) ** 2 - 2.0) < 1e-3


def test_sector_solve_survives_a_generator_that_breaks_the_sectors():
    # a two-photon drive moves k by 2 in both directions of the sweep
    p, space = _empty(beta=1.0, tau_jitter=1.0), SpaceSpec(cavity_cutoff=80, n_atoms=0)
    a_c = _kron_chain_lowering(space.dims, 0)
    squeeze = 0.4 * (a_c @ a_c + (a_c @ a_c).conj().T)
    gen = liouville.build_liouvillian(p, 0.0, space, extra_hamiltonian=squeeze)
    swept = liouville._sector_steady(gen, space.dims, liouville._SolveRecord("sector", 81))
    direct = liouville._direct_steady(gen, space.dimension)
    assert np.max(np.abs(swept - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_a_one_emitter_term_keeps_every_entry_an_unknown():
    p = _params(n_atoms=2, beta=0.4, tau_indiv=0.5, tau_common=2.0)
    space = SpaceSpec(cavity_cutoff=3, n_atoms=2, atom_cutoff=2)              # dim 36
    first = _kron_chain_lowering(space.dims, 1)
    gen = liouville.build_liouvillian(
        p, 0.0, space, extra_hamiltonian=0.3 * (first.conj().T @ first))
    record = liouville._SolveRecord("sector", space.dimension)
    swept = liouville._sector_steady(gen, space.dims, record)
    direct = liouville._direct_steady(gen, space.dimension)
    assert record.unknowns == space.dimension ** 2
    assert liouville._residual(gen, swept) <= 1e-14
    assert np.max(np.abs(swept - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_the_cavity_never_joins_the_emitter_orbits():
    # an undriven, uncoupled cavity that decays like the two-level emitters:
    # the generator commutes with every permutation of the three sites, yet
    # only the emitters are identical by construction
    p = _params(g=0.0, n_atoms=2, kappa1=0.5, kappa2=0.5, gamma_par=2.0, beta=0.0)
    space = SpaceSpec(cavity_cutoff=1, n_atoms=2, atom_model="two_level")    # dims 2, 2, 2
    gen = liouville.build_liouvillian(p, 0.0, space)
    reps, labels = liouville._permutation_orbits(gen, space.dims)
    # 2**2 cavity entries times the multisets of two emitter level pairs
    assert reps.size == 4 * 10 and labels.max() == reps.size - 1
    swept = liouville._sector_steady(gen, space.dims,
                                     liouville._SolveRecord("sector", space.dimension))
    assert np.max(np.abs(swept - liouville._direct_steady(gen, space.dimension))) <= 1e-14


def test_a_failed_incomplete_sector_factor_is_factored_exactly(monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(liouville, "spilu", failing)
    exact = _count_calls(monkeypatch, "splu")
    p = _params(n_atoms=2, beta=0.4, tau_indiv=0.5)
    space = SpaceSpec(cavity_cutoff=3, n_atoms=2, atom_cutoff=2)              # dim 36
    gen = liouville.build_liouvillian(p, 0.0, space)
    record = liouville._SolveRecord("sector", space.dimension)
    x = liouville._sector_steady(gen, space.dims, record)
    assert liouville._residual(gen, x) <= 1e-14
    # one exact factor for each sector k = 0..7
    assert len(exact) == space.cavity_cutoff + 2 * space.atom_cutoff + 1


def test_transmission_ladder_needs_no_direct_solve(monkeypatch, caplog):
    # the N=3 cutoff ladder of transmission-profile: dimensions 54, 108, 162,
    # one DEBUG record per rung
    caplog.set_level(logging.DEBUG, logger="cavlab.liouville")
    p = _params(g=2.0 * math.sqrt(5.0 / 3.0), n_atoms=3, tau_common=1.0 / 3.0)
    direct = _count_calls(monkeypatch, "_direct_steady")
    sectors = _count_calls(monkeypatch, "_sector_steady")
    _, _, used = liouville.converged_moment_state(
        p, 0.0, SpaceSpec(cavity_cutoff=1, n_atoms=3, atom_cutoff=2))
    assert used.dimension == 162
    assert not direct and len(sectors) == 3
    # solved over the orbits of the three identical emitters
    solves = [r.solve for r in caplog.records if hasattr(r, "solve")]
    assert [r.unknowns for r in solves] == [660, 2640, 5940]
    records = [r for r in caplog.records if hasattr(r, "rung")]
    rungs = [r.rung for r in records]
    assert [(r["cavity_cutoff"], r["dimension"]) for r in rungs] == [(1, 54), (3, 108),
                                                                       (5, 162)]
    assert math.isnan(rungs[0]["change"])
    assert rungs[1]["change"] >= 1e-6 > rungs[2]["change"]
    assert records[0].getMessage().startswith(
        "converged_moment_state rung: cavity cutoff 1, dimension 54")


def test_every_solve_logs_one_record(caplog):
    caplog.set_level(logging.DEBUG, logger="cavlab.liouville")
    small = SpaceSpec(cavity_cutoff=5, n_atoms=1, atom_cutoff=2)             # dim 18
    large = SpaceSpec(cavity_cutoff=20, n_atoms=1, atom_cutoff=3)            # dim 84
    p = _params(beta=1.0, tau_indiv=1.0 / 3.0)
    nnz = []
    for space in (small, large):
        gen = liouville.build_liouvillian(p, 0.0, space)
        nnz.append(gen.nnz)
        liouville.steady_state(gen, space.dims)
    builds = [r.build for r in caplog.records[::2]]
    direct, sector = [r.solve for r in caplog.records[1::2]]
    # cavity leak, emitter decay and individual dephasing
    assert [(b["dimension"], b["jumps"], b["nnz"]) for b in builds] == [(18, 3, nnz[0]),
                                                                      (84, 3, nnz[1])]
    assert all(b["seconds"] > 0.0 for b in builds)
    assert (direct.method, direct.dimension, direct.sectors) == ("direct", 18, 1)
    assert direct.largest_block == 18 ** 2 and direct.iterations == 0
    assert (sector.method, sector.dimension, sector.sectors) == ("sector", 84, 47)
    assert sector.largest_block < 84 ** 2 and sector.iterations > 0
    for record in (direct, sector):
        assert record.fill > 0 and record.residual <= 1e-14 and record.seconds > 0.0
    assert caplog.records[3].getMessage().startswith("steady_state sector: dimension 84, 47 sectors")
    assert caplog.records[2].getMessage() == (
        f"build_liouvillian: dimension 84, 3 jumps, nnz {nnz[1]}, {builds[1]['seconds']:.3f} s")


def test_steady_state_rejects_bad_input():
    gen = liouville.build_liouvillian(_empty(), 0.0, SpaceSpec(3, 0))
    with pytest.raises(ParameterError, match="shape"):
        liouville.steady_state(gen, (5,))


def test_converged_moment_state_raises_cutoff():
    p = _empty(beta=1.0)
    mstate, _, used = liouville.converged_moment_state(
        p, 0.0, SpaceSpec(cavity_cutoff=6, n_atoms=0))
    assert used.cavity_cutoff >= 8
    assert mstate.s3 == pytest.approx(1.0, rel=1e-6)


# --- Wigner function -------------------------------------------------------------

def test_wigner_vacuum():
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    xs = np.linspace(-4, 4, 81)
    grid = liouville.wigner(TruncatedState(rho, (8,)), xs, xs)
    center = np.argmin(np.abs(xs))
    assert grid.w[center, center] == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert grid.normalization_residual() < 1e-4
    assert np.max(np.abs(grid.w - grid.w.T)) < 1e-12     # isotropic state


def test_wigner_coherent_state():
    alpha = 1.0 + 0.5j
    amp = liouville.coherent_vector(alpha, 16)
    state = TruncatedState(np.outer(amp, amp.conj()), (16,))
    xs, ps = liouville.wigner_grid_for_state(state)
    grid = liouville.wigner(state, xs, ps)
    assert grid.normalization_residual() < 1e-4
    assert grid.mean_alpha() == pytest.approx(alpha, abs=2e-3)
    peak = np.unravel_index(np.argmax(grid.w), grid.w.shape)
    assert abs(xs[peak[0]] - alpha.real) < 0.1
    assert abs(ps[peak[1]] - alpha.imag) < 0.1
    at_alpha = liouville.wigner(state, np.array([alpha.real]), np.array([alpha.imag]))
    assert at_alpha.w[0, 0] == pytest.approx(2.0 / math.pi, rel=1e-10)


WIDE = np.linspace(-6.0, 6.0, 49)


@pytest.mark.parametrize("n", [20, 40, 60])
def test_wigner_fock_state_is_exact(n):
    # W of |n><n| is (2/pi) (-1)^n exp(-2 r^2) L_n(4 r^2)
    rho = np.zeros((n + 4, n + 4), dtype=complex)
    rho[n, n] = 1.0
    grid = liouville.wigner(TruncatedState(rho, (n + 4,)), WIDE, WIDE)
    r2 = WIDE[:, None] ** 2 + WIDE[None, :] ** 2
    exact = (2.0 / math.pi) * (-1) ** n * np.exp(-2.0 * r2) * eval_laguerre(n, 4.0 * r2)
    assert np.max(np.abs(grid.w - exact)) <= 1e-12


@pytest.mark.parametrize("alpha, dim, center", [
    (4.0 + 2.0j, 80, 0j),
    # |2 alpha|^2 = 400: a recurrence along rows of the element table is off
    # by more than 1e6 here, the recurrence along diagonals is not
    (8.0 + 6.0j, 260, 8.0 + 6.0j),
])
def test_wigner_coherent_state_is_exact(alpha, dim, center):
    amp = liouville.coherent_vector(alpha, dim)
    xs, ps = WIDE + center.real, WIDE + center.imag
    grid = liouville.wigner(TruncatedState(np.outer(amp, amp.conj()), (dim,)), xs, ps)
    beta = xs[:, None] + 1j * ps[None, :]
    exact = (2.0 / math.pi) * np.exp(-2.0 * np.abs(beta - alpha) ** 2)
    assert np.max(np.abs(grid.w - exact)) <= 1e-10


@pytest.mark.parametrize("alpha", [19.5 + 0.0j, 15.0 + 12.0j])
def test_wigner_far_from_the_origin(alpha):
    # f_00 = exp(-2 |alpha|^2) is 0 in double precision at these points;
    # within 0.1 of alpha the truncation at 512 states moves W by < 4e-10
    amp = liouville.coherent_vector(alpha, 512)
    near = np.linspace(-0.1, 0.1, 5)
    xs, ps = alpha.real + near, alpha.imag + near
    grid = liouville.wigner(TruncatedState(np.outer(amp, amp.conj()), (512,)), xs, ps)
    beta = xs[:, None] + 1j * ps[None, :]
    exact = (2.0 / math.pi) * np.exp(-2.0 * np.abs(beta - alpha) ** 2)
    assert np.max(np.abs(grid.w - exact)) <= 1e-9


def test_wigner_jitter_photon_number_from_grid():
    p = _empty(beta=2.0, tau_jitter=1.0)
    _, trunc, _ = liouville.converged_moment_state(
        p, 0.0, SpaceSpec(cavity_cutoff=16, n_atoms=0))
    cav = liouville.reduce_cavity(trunc)
    xs, ps = liouville.wigner_grid_for_state(cav)
    grid = liouville.wigner(cav, xs, ps)
    ratio = grid.photon_number() / abs(grid.mean_alpha()) ** 2
    assert abs(ratio - 2.0) < 1e-2


def test_wigner_requires_single_mode():
    state = TruncatedState(np.eye(4, dtype=complex) / 4.0, (2, 2))
    with pytest.raises(ParameterError, match="cavity"):
        liouville.wigner(state, np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))


# --- probe spectrum ----------------------------------------------------------------

def test_probe_spectrum_pure_coherent_line():
    p = _params(beta=0.2)           # no noise channels
    kappa_p = 0.01
    grid = np.array([-0.05, -0.02, 0.0, 0.02, 0.05])
    space = SpaceSpec(cavity_cutoff=5, n_atoms=1, atom_cutoff=2, probe_enabled=True)
    s = liouville.probe_spectrum(p, 0.0, grid, epsilon=0.01, kappa_p=kappa_p,
                                 space=space)
    coh = abs(analytic.mean_field(p, 0.0)) ** 2
    assert s.coherent_power == pytest.approx(coh, rel=1e-3)   # truncation limited
    rendered = (kappa_p / math.pi) / (kappa_p**2 + grid**2) * coh
    total = s.meta["total_density"]
    assert np.max(np.abs(total - rendered)) < 0.01 * rendered.max()
    assert np.max(np.abs(s.incoherent_density)) < 0.01 * rendered.max()


def test_probe_spectrum_empty_cavity_jitter():
    p = _empty(beta=1.0, tau_jitter=1.0)
    ref_peak_grid = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    kappa_p = p.big_gamma / 100.0
    space = SpaceSpec(cavity_cutoff=9, n_atoms=0, probe_enabled=True)
    s = liouville.probe_spectrum(p, 0.0, ref_peak_grid, epsilon=1e-3,
                                 kappa_p=kappa_p, space=space)
    ref = analytic.emission_spectrum(p, 0.0, ref_peak_grid)
    k = int(np.argmax(ref.incoherent_density))
    rel = abs(s.incoherent_density[k] - ref.incoherent_density[k])
    assert rel / ref.incoherent_density[k] < 0.02


@pytest.mark.parametrize("cutoff", [31, 40])       # dimensions 64 and 82
def test_probe_spectrum_cavity_only_is_exact_at_any_size(monkeypatch, cutoff):
    # without noise the probe reads only the coherent line
    p = _empty(beta=0.05)
    grid = np.array([-4.1, -0.1, 2.1, 4.3])
    kappa_p = 0.01
    solves = _count_calls(monkeypatch, "steady_state")
    s = liouville.probe_spectrum(p, 0.0, grid, epsilon=1e-3, kappa_p=kappa_p,
                                 space=SpaceSpec(cavity_cutoff=cutoff, n_atoms=0,
                                                 probe_enabled=True))
    assert solves == []                       # the bare state is the rho_00 block's
    line = (abs(analytic.mean_field(p, 0.0)) ** 2 * (kappa_p / math.pi)
            / (kappa_p ** 2 + grid ** 2))
    assert np.max(np.abs(s.meta["total_density"] - line) / line) < 1e-8


def test_probe_spectrum_refuses_a_composite_space_above_the_direct_limit(monkeypatch):
    # one hp emitter at cutoff 8: dimension 36 without the probe, 72 with it
    space = SpaceSpec(cavity_cutoff=8, n_atoms=1, atom_cutoff=3, probe_enabled=True)
    direct = _count_calls(monkeypatch, "_direct_steady")
    solves = _count_calls(monkeypatch, "steady_state")
    with pytest.raises(BudgetError, match="limit 32"):
        liouville.probe_spectrum(_params(), 0.0, np.array([0.0]), epsilon=1e-3,
                                 space=space)
    assert direct == [] and solves == []


def test_probe_spectrum_checks_the_budget_with_the_probe_before_any_solve(monkeypatch):
    # cavity only at cutoff 300: dimension 301 without the probe, 602 with it
    monkeypatch.delenv("CAVLAB_BUDGET", raising=False)
    space = SpaceSpec(cavity_cutoff=300, n_atoms=0, probe_enabled=True)
    solves = _count_calls(monkeypatch, "steady_state")
    with pytest.raises(BudgetError, match="dimension 602"):
        liouville.probe_spectrum(_empty(beta=0.05), 0.0, np.array([0.0]),
                                 epsilon=1e-3, space=space)
    assert solves == []


def test_probe_spectrum_rejects_bad_arguments():
    p = _params()
    space = SpaceSpec(cavity_cutoff=4, n_atoms=1, atom_cutoff=2, probe_enabled=True)
    for epsilon in (2.0, math.nan):
        with pytest.raises(ParameterError, match="epsilon"):
            liouville.probe_spectrum(p, 0.0, np.array([0.0]), epsilon=epsilon, space=space)
    for kappa_p in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="kappa_p"):
            liouville.probe_spectrum(p, 0.0, np.array([0.0]), epsilon=1e-3,
                                     kappa_p=kappa_p, space=space)
    space = SpaceSpec(cavity_cutoff=4, n_atoms=1, atom_cutoff=2)
    with pytest.raises(ParameterError, match="probe"):
        liouville.probe_spectrum(p, 0.0, np.array([0.0]), epsilon=1e-3, space=space)


# the collective-emitter probe setup of the spectrum-triple-agreement criterion
CRITERION_SPACE = SpaceSpec(cavity_cutoff=6, n_atoms=1, atom_model="hp",
                            atom_cutoff=3, probe_enabled=True)
CRITERION_GRID = np.arange(-16.0, 16.2, 0.2) + 0.1


@pytest.mark.parametrize("omega_l", [0.0, 8.0])
def test_probe_block_solve_matches_direct_solve(monkeypatch, omega_l):
    # the two edge points and the two nearest the line centre
    nearest = np.argsort(np.abs(CRITERION_GRID - omega_l))[:2]
    grid = CRITERION_GRID[np.sort(np.r_[0, nearest, CRITERION_GRID.size - 1])]
    p = _params(g=2.0 * math.sqrt(5.0), tau_common=1.0 / 3.0)
    kwargs = dict(epsilon=0.01, kappa_p=1e-2 / math.pi, space=CRITERION_SPACE)
    direct = _count_calls(monkeypatch, "_direct_steady")
    block = liouville.probe_spectrum(p, omega_l, grid, **kwargs).meta["total_density"]
    assert direct == []                       # no fallback, and no bare solve
    monkeypatch.setattr(liouville, "_BLOCK_SWEEPS", 0)   # every point direct
    full = liouville.probe_spectrum(p, omega_l, grid, **kwargs).meta["total_density"]
    assert len(direct) == grid.size
    assert np.max(np.abs(block - full) / full) <= 1e-12


def test_probe_strong_coupling_falls_back_to_direct_solve(monkeypatch, caplog):
    # at epsilon 0.9 the block sweeps diverge
    p = _empty(beta=1.0)
    grid = np.linspace(-3.0, 3.0, 5)
    kwargs = dict(epsilon=0.9, kappa_p=1.0,
                  space=SpaceSpec(cavity_cutoff=13, n_atoms=0, probe_enabled=True))
    direct = _count_calls(monkeypatch, "_direct_steady")
    caplog.set_level(logging.DEBUG, logger="cavlab.liouville")
    swept = liouville.probe_spectrum(p, 0.0, grid, **kwargs)
    assert len(direct) == grid.size
    record = caplog.records[-1].probe
    assert record.fallbacks == grid.size
    assert record.factorizations == 2 + 2 * grid.size     # block and direct LU per point
    monkeypatch.setattr(liouville, "_BLOCK_SWEEPS", 0)
    full = liouville.probe_spectrum(p, 0.0, grid, **kwargs)
    assert np.array_equal(swept.meta["total_density"], full.meta["total_density"])


def test_probe_stops_sweeps_that_cannot_converge(monkeypatch):
    # at kappa1 = kappa2 = 1 the sweeps converge, but by only 0.2-0.35 a
    # sweep: too slowly to reach the block tolerance within the sweeps left
    p = _empty(beta=1.0).replace(kappa1=1.0, kappa2=1.0)
    grid = np.linspace(-3.0, 3.0, 21)
    kwargs = dict(epsilon=0.9, kappa_p=1.0,
                  space=SpaceSpec(cavity_cutoff=13, n_atoms=0, probe_enabled=True))
    residuals = _count_calls(monkeypatch, "_residual")
    swept = liouville.probe_spectrum(p, 0.0, grid, **kwargs)
    # each sweep of a point checks the residual on that point's shift, and
    # each direct solve (the bare state's, then every point's fallback) on
    # its own generator
    per_point = Counter(id(args[2]) for args in residuals if len(args) == 3)
    assert len(per_point) == grid.size
    assert max(per_point.values()) <= 3
    assert len(residuals) == sum(per_point.values()) + 1 + grid.size
    monkeypatch.setattr(liouville, "_BLOCK_SWEEPS", 0)
    full = liouville.probe_spectrum(p, 0.0, grid, **kwargs)
    assert np.array_equal(swept.meta["total_density"], full.meta["total_density"])


def test_a_probe_point_whose_sweep_yields_nan_is_solved_directly(monkeypatch, caplog):
    p = _empty(beta=1.0, tau_jitter=1.0)
    grid = np.array([0.1])
    kwargs = dict(epsilon=0.01, kappa_p=1e-2 / math.pi,
                  space=SpaceSpec(cavity_cutoff=9, n_atoms=0, probe_enabled=True))
    exact = liouville.splu
    factored = []

    def splu(a, **kwargs):
        # the third factorization is the point's coherence block
        factored.append(a.shape)
        return _NanLU() if len(factored) == 3 else exact(a, **kwargs)

    monkeypatch.setattr(liouville, "splu", splu)
    caplog.set_level(logging.DEBUG, logger="cavlab.liouville")
    swept = liouville.probe_spectrum(p, 0.0, grid, **kwargs)
    record = caplog.records[-1].probe
    assert len(factored) == 4
    assert record.sweeps == 1 and record.fallbacks == 1
    monkeypatch.setattr(liouville, "splu", exact)
    monkeypatch.setattr(liouville, "_BLOCK_SWEEPS", 0)   # every point direct
    full = liouville.probe_spectrum(p, 0.0, grid, **kwargs)
    assert np.array_equal(swept.meta["total_density"], full.meta["total_density"])


def test_probe_factors_the_populations_once_per_scan(monkeypatch):
    p = _params(tau_common=1.0 / 3.0)
    space = SpaceSpec(cavity_cutoff=2, n_atoms=1, atom_cutoff=1, probe_enabled=True)
    grid = np.linspace(-16.0, 16.0, 161)
    factored = _count_calls(monkeypatch, "splu")
    liouville.probe_spectrum(p, 0.0, grid, epsilon=0.01, kappa_p=1e-2 / math.pi,
                             space=space)
    # the rho_11 and rho_00 blocks of the probe populations once, the latter
    # also giving the bare state, and the coherence block at each point
    assert len(factored) == 2 + grid.size


def test_probe_logs_one_record_and_builds_one_generator(monkeypatch, caplog):
    grid = CRITERION_GRID[::20]
    p = _params(g=2.0 * math.sqrt(5.0), tau_common=1.0 / 3.0)
    solves = _count_calls(monkeypatch, "steady_state")
    factored = _count_calls(monkeypatch, "splu")
    caplog.set_level(logging.DEBUG, logger="cavlab.liouville")
    liouville.probe_spectrum(p, 0.0, grid, epsilon=0.01, kappa_p=1e-2 / math.pi,
                             space=CRITERION_SPACE)
    assert solves == [] and len(caplog.records) == 2
    assert hasattr(caplog.records[0], "build")
    record = caplog.records[1].probe
    assert record.points == grid.size and record.fallbacks == 0
    assert record.factorizations == len(factored) == 2 + grid.size
    assert grid.size <= record.sweeps <= record.most_sweeps * grid.size
    assert record.bare_residual <= liouville._DIRECT_TOL
    assert 0.0 < record.backaction <= 2.0
    assert caplog.records[1].getMessage().startswith(
        f"probe_spectrum: {grid.size} points, {2 + grid.size} LU factorizations, ")


@pytest.mark.parametrize("params, omega_l, space", [
    (_params(g=2.0 * math.sqrt(5.0), tau_common=1.0 / 3.0), 0.0, CRITERION_SPACE),
    (_params(g=2.0 * math.sqrt(5.0), tau_common=1.0 / 3.0), 8.0, CRITERION_SPACE),
    (_empty(beta=1.0, tau_jitter=1.0), 0.0,
     SpaceSpec(cavity_cutoff=9, n_atoms=0, probe_enabled=True)),
], ids=["criterion-w0", "criterion-w8", "cavity-jitter"])
def test_probe_bare_state_is_the_direct_steady_state_bit_for_bit(monkeypatch, params,
                                                                 omega_l, space):
    scans = _count_calls(monkeypatch, "_probe_steady_states")
    s = liouville.probe_spectrum(params, omega_l, np.array([omega_l + 0.1]),
                                 epsilon=0.01, kappa_p=1e-2 / math.pi, space=space)
    base = replace(space, probe_enabled=False)
    bare_gen = liouville.build_liouvillian(params, omega_l, base)
    bare = liouville.steady_state(bare_gen, base.dims)
    a = liouville._lowering(base.dims, 0)
    assert s.coherent_power == abs(liouville.expectation(bare, a)) ** 2
    assert s.meta["photon_number"] == float(
        bare.rho.diagonal().real @ liouville._levels(base.dims)[0])
    # the rho_00 block of the generator with the probe, with the trace
    # constraint or without, is the generator without it
    gen_fixed, dim = scans[0][0], space.dimension
    ket, bra = np.divmod(np.arange(dim * dim), dim)
    ground = np.flatnonzero((ket % 2 == 0) & (bra % 2 == 0))     # probe level 0
    constrained = liouville._constrained(gen_fixed, liouville._trace_row(dim))[0]
    reference = liouville._constrained(bare_gen, liouville._trace_row(base.dimension))[0]
    for full, ref in [(gen_fixed, bare_gen), (constrained, reference)]:
        block = full.tocsr()[ground][:, ground]
        assert block.nnz == ref.nnz and (block != ref).nnz == 0


# --- stochastic dephasing consistency ------------------------------------------------

def _decaying_cavity(dim=10, beta=0.0):
    p = _empty(beta=beta)
    space = SpaceSpec(cavity_cutoff=dim - 1, n_atoms=0)
    gen = liouville.build_liouvillian(p, 0.0, space)
    n_op = np.diag(np.arange(dim, dtype=float))
    amp = liouville.coherent_vector(1.2, dim)
    return gen, n_op, np.outer(amp, amp.conj())


def _bridged_stepwise_distance(gen, operator, diffusion, initial, t_end, dt,
                               n_traj, seed):
    """The check's trace distance by explicit Strang steps: half the
    deterministic propagator, the kick exp(-i sqrt(D) dW O), the other half.
    The increments are the Brownian bridge to the check's W(T), drawn from the
    same generator after W: their exact law given their sum."""
    dim = operator.shape[0]
    lam = np.diag(operator)
    deltas = (lam[:, None] - lam[None, :]).ravel()
    n_steps = int(round(t_end / dt))
    rng = np.random.default_rng(seed)
    wiener = rng.standard_normal(n_traj) * math.sqrt(t_end)
    z = rng.standard_normal((n_traj, n_steps))
    increments = wiener[:, None] / n_steps + (z - z.mean(axis=1, keepdims=True)) * math.sqrt(dt)
    half = expm(gen.toarray() * (0.5 * dt)).T
    states = np.broadcast_to(initial.ravel().astype(complex), (n_traj, dim * dim))
    for k in range(n_steps):
        states = (states @ half) * np.exp(-1j * math.sqrt(diffusion)
                                          * increments[:, k, None] * deltas) @ half
    v_ref = expm_multiply((gen + sp.diags(-0.5 * diffusion * deltas ** 2)) * t_end,
                          initial.ravel().astype(complex))
    diff = (states.mean(axis=0) - v_ref).reshape(dim, dim)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))


def test_stochastic_zero_diffusion_is_exact():
    gen, n_op, rho0 = _decaying_cavity()
    assert liouville.stochastic_dephasing_check(gen, n_op, 0.0, rho0, t_end=0.5,
                                                n_traj=8, seed=5) < 1e-12


def test_stochastic_factored_equals_stepwise():
    # every trajectory of commuting noise is the deterministic evolution times
    # phases set by its summed noise, so the one-draw check and the stepwise
    # bridge to the same W(T) agree for the same seed, not merely statistically
    gen, n_op, rho0 = _decaying_cavity()
    kwargs = dict(diffusion=1.5, initial=rho0, t_end=0.3, n_traj=64, seed=42)
    fast = liouville.stochastic_dephasing_check(gen, n_op, **kwargs)
    slow = _bridged_stepwise_distance(gen, n_op, dt=0.01, **kwargs)
    assert abs(fast - slow) < 1e-12


def test_stochastic_average_converges():
    gen, n_op, rho0 = _decaying_cavity()
    distance = liouville.stochastic_dephasing_check(gen, n_op, 2.0, rho0, t_end=1.0,
                                                    n_traj=1000, seed=11)
    assert distance < 3.0 / math.sqrt(1000)


def test_stochastic_drive_breaks_factoring():
    gen, n_op, rho0 = _decaying_cavity(beta=0.5)
    with pytest.raises(ParameterError, match="commute"):
        liouville.stochastic_dephasing_check(gen, n_op, 0.5, rho0, t_end=0.2,
                                             n_traj=32, seed=9)


def test_stochastic_refuses_a_propagation_beyond_its_budget():
    gen, n_op, rho0 = _decaying_cavity()                      # ||gen||_1 = 36
    start = time.perf_counter()
    for t_end in (1e300, 1.01e4 / 36.0):
        with pytest.raises(BudgetError, match="t_end"):
            liouville.stochastic_dephasing_check(gen, n_op, 1.0, rho0, t_end=t_end,
                                                 n_traj=4, seed=1)
    assert time.perf_counter() - start < 1.0


def test_stochastic_draws_share_one_evolution():
    # several (n_traj, seed) draws in one call give what one call per draw gives
    gen, n_op, rho0 = _decaying_cavity()
    n_traj, seeds = [1, 500, 2000, 500], [3, 0, 77, 2 ** 40]
    batch = liouville.stochastic_dephasing_check(gen, n_op, 2.0, rho0, t_end=1.0,
                                                 n_traj=n_traj, seed=seeds)
    single = [liouville.stochastic_dephasing_check(gen, n_op, 2.0, rho0, t_end=1.0,
                                                   n_traj=n, seed=s)
              for n, s in zip(n_traj, seeds)]
    assert batch.shape == (4,) and all(isinstance(d, float) for d in single)
    assert np.max(np.abs(batch - single)) <= 1e-15


def test_stochastic_checks_every_draw_before_the_evolution(monkeypatch):
    gen, n_op, rho0 = _decaying_cavity()

    def never(*args, **kwargs):
        raise AssertionError("propagated before checking every draw")

    monkeypatch.setattr(liouville, "expm_multiply", never)
    for n_traj, seeds, match in (([100, 0], [1, 2], "n_traj"),
                                 ([100, 100], [1, -1], "seed"),
                                 ([100, 100], [1], "one seed per n_traj"),
                                 ([], [], "n_traj")):
        with pytest.raises(ParameterError, match=match):
            liouville.stochastic_dephasing_check(gen, n_op, 1.0, rho0, t_end=0.1,
                                                 n_traj=n_traj, seed=seeds)


def test_stochastic_rejects_bad_input():
    gen, n_op, rho0 = _decaying_cavity()
    with pytest.raises(ParameterError, match="Hermitian"):
        liouville.stochastic_dephasing_check(gen, 1j * n_op, 1.0, rho0,
                                             t_end=0.1, n_traj=4, seed=1)
    hopping = np.eye(10, k=1) + np.eye(10, k=-1)           # Hermitian, not diagonal
    with pytest.raises(ParameterError, match="Hermitian"):
        liouville.stochastic_dephasing_check(gen, n_op + hopping, 1.0, rho0,
                                             t_end=0.1, n_traj=4, seed=1)
    with pytest.raises(ParameterError, match="diffusion"):
        liouville.stochastic_dephasing_check(gen, n_op, -1.0, rho0,
                                             t_end=0.1, n_traj=4, seed=1)
    with pytest.raises(ParameterError, match="t_end"):
        liouville.stochastic_dephasing_check(gen, n_op, 1.0, rho0,
                                             t_end=0.0, n_traj=4, seed=1)
    with pytest.raises(ParameterError, match="n_traj"):
        liouville.stochastic_dephasing_check(gen, n_op, 1.0, rho0,
                                             t_end=0.1, n_traj=0, seed=1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="diffusion"):
            liouville.stochastic_dephasing_check(gen, n_op, bad, rho0,
                                                 t_end=0.1, n_traj=4, seed=1)
        with pytest.raises(ParameterError, match="t_end"):
            liouville.stochastic_dephasing_check(gen, n_op, 1.0, rho0,
                                                 t_end=bad, n_traj=4, seed=1)
    with pytest.raises(ParameterError, match="seed"):
        liouville.stochastic_dephasing_check(gen, n_op, 1.0, rho0,
                                             t_end=0.1, n_traj=4, seed=-1)
    for op in (np.diag(np.arange(8.0)), np.diag(np.arange(12.0))):
        with pytest.raises(ParameterError, match="sizes disagree"):
            liouville.stochastic_dephasing_check(gen, op, 1.0, rho0,
                                                 t_end=0.1, n_traj=4, seed=1)
    gen_small, _, _ = _decaying_cavity(dim=8)
    with pytest.raises(ParameterError, match="sizes disagree"):
        liouville.stochastic_dephasing_check(gen_small, n_op, 1.0, rho0,
                                             t_end=0.1, n_traj=4, seed=1)
    with pytest.raises(ParameterError, match="sizes disagree"):
        liouville.stochastic_dephasing_check(gen, n_op, 1.0, rho0[:8, :8],
                                             t_end=0.1, n_traj=4, seed=1)
    # nothing dense is formed, so dimension 60 is checked like any other
    gen_big, n_big, rho_big = _decaying_cavity(dim=60)
    assert liouville.stochastic_dephasing_check(gen_big, n_big, 0.0, rho_big, t_end=0.1,
                                                n_traj=4, seed=1) == 0.0
    gen_driven, _, _ = _decaying_cavity(dim=60, beta=0.5)
    with pytest.raises(ParameterError, match="commute"):
        liouville.stochastic_dephasing_check(gen_driven, n_big, 1.0, rho_big,
                                             t_end=0.1, n_traj=4, seed=1)
