"""Truncated-Hilbert-space oracle: generator, steady states, Wigner, probe,
stochastic dephasing consistency."""
import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import eval_laguerre

from cavlab import analytic, liouville, moments
from cavlab.errors import BudgetError, ParameterError
from cavlab.liouville import SpaceSpec, TruncatedState
from cavlab.model import SystemParams


def _params(**overrides):
    base = dict(g=2.0, n_atoms=1, kappa1=0.5, kappa2=0.5, omega_c=0.0,
                omega_a=0.0, gamma_par=2.0, beta=0.05)
    base.update(overrides)
    return SystemParams(**base)


def _empty(**overrides):
    return _params(g=0.0, n_atoms=0, **overrides)


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

def test_generator_preserves_trace():
    p = _params(tau_indiv=0.5, tau_common=2.0, tau_jitter=3.0)
    space = SpaceSpec(cavity_cutoff=3, n_atoms=1, atom_cutoff=2)
    gen = liouville.build_liouvillian(p, 0.3, space)
    dim = space.dimension
    trace_row = np.zeros(dim * dim)
    trace_row[np.arange(dim) * (dim + 1)] = 1.0
    residual = np.max(np.abs(gen.T @ trace_row))
    assert residual < 1e-12 * np.max(np.abs(gen.data))


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
    a_c = liouville.cavity_annihilation(space)
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


# --- steady-state solves --------------------------------------------------------

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


def test_two_level_equals_hp_at_cutoff_one():
    # a two-level emitter is the one-quantum ladder: its dephasing couples
    # through the number operator n, not sigma_z/2 = n - 1/2, which is exact
    # because a constant shift leaves a Hermitian jump's dissipator unchanged
    number = sp.csr_matrix(np.diag([0.0, 1.0]).astype(complex))
    shifted = sp.csr_matrix(np.diag([-0.5, 0.5]).astype(complex))
    gap = liouville._dissipator_superop(shifted) - liouville._dissipator_superop(number)
    assert np.max(np.abs(gap.toarray())) <= 1e-15
    p = _params(n_atoms=2, tau_indiv=0.7, tau_common=1.4, beta=0.3)
    sp_tl = SpaceSpec(cavity_cutoff=4, n_atoms=2, atom_model="two_level")
    sp_hp = SpaceSpec(cavity_cutoff=4, n_atoms=2, atom_model="hp", atom_cutoff=1)
    assert sp_tl.dims == sp_hp.dims
    gen_tl = liouville.build_liouvillian(p, 0.1, sp_tl)
    gen_hp = liouville.build_liouvillian(p, 0.1, sp_hp)
    assert (gen_tl != gen_hp).nnz == 0


def test_marching_agrees_with_direct():
    p = _params(beta=0.4, tau_indiv=0.5)
    space = SpaceSpec(cavity_cutoff=5, n_atoms=1, atom_cutoff=2)
    gen = liouville.build_liouvillian(p, 0.0, space)
    direct = liouville._direct_steady(gen, space.dimension)
    marched = liouville._marching_steady(gen, space.dimension)
    assert np.max(np.abs(direct - marched)) < 1e-9


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


def test_probe_spectrum_rejects_bad_arguments():
    p = _params()
    space = SpaceSpec(cavity_cutoff=4, n_atoms=1, atom_cutoff=2, probe_enabled=True)
    with pytest.raises(ParameterError, match="epsilon"):
        liouville.probe_spectrum(p, 0.0, np.array([0.0]), epsilon=2.0, space=space)
    space = SpaceSpec(cavity_cutoff=4, n_atoms=1, atom_cutoff=2)
    with pytest.raises(ParameterError, match="probe"):
        liouville.probe_spectrum(p, 0.0, np.array([0.0]), space=space)


# the collective-emitter probe setup of the spectrum-triple-agreement criterion
CRITERION_SPACE = SpaceSpec(cavity_cutoff=6, n_atoms=1, atom_model="hp",
                            atom_cutoff=3, probe_enabled=True)
CRITERION_GRID = np.arange(-16.0, 16.2, 0.2) + 0.1


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(liouville, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(liouville, name, counted)
    return calls


@pytest.mark.parametrize("omega_l", [0.0, 8.0])
def test_probe_block_solve_matches_direct_solve(monkeypatch, omega_l):
    # the two edge points and the two nearest the line centre
    nearest = np.argsort(np.abs(CRITERION_GRID - omega_l))[:2]
    grid = CRITERION_GRID[np.sort(np.r_[0, nearest, CRITERION_GRID.size - 1])]
    p = _params(g=2.0 * math.sqrt(5.0), tau_common=1.0 / 3.0)
    kwargs = dict(epsilon=0.01, kappa_p=1e-2 / math.pi, space=CRITERION_SPACE)
    direct = _count_calls(monkeypatch, "_direct_steady")
    block = liouville.probe_spectrum(p, omega_l, grid, **kwargs).meta["total_density"]
    assert len(direct) == 1                   # the bare state only: no fallback
    monkeypatch.setattr(liouville, "_BLOCK_SWEEPS", 0)   # every point direct
    full = liouville.probe_spectrum(p, omega_l, grid, **kwargs).meta["total_density"]
    assert len(direct) == 2 + grid.size
    assert np.max(np.abs(block - full) / full) <= 1e-12


def test_probe_strong_coupling_falls_back_to_direct_solve(monkeypatch):
    # at epsilon 0.9 the block sweeps diverge
    p = _empty(beta=1.0)
    grid = np.linspace(-3.0, 3.0, 5)
    kwargs = dict(epsilon=0.9, kappa_p=1.0,
                  space=SpaceSpec(cavity_cutoff=13, n_atoms=0, probe_enabled=True))
    direct = _count_calls(monkeypatch, "_direct_steady")
    swept = liouville.probe_spectrum(p, 0.0, grid, **kwargs)
    assert len(direct) == 1 + grid.size
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
    per_generator = Counter(id(args[0]) for args in residuals)
    assert len(per_generator) == 1 + grid.size       # the bare state and each point
    assert max(per_generator.values()) <= 4
    monkeypatch.setattr(liouville, "_BLOCK_SWEEPS", 0)
    full = liouville.probe_spectrum(p, 0.0, grid, **kwargs)
    assert np.array_equal(swept.meta["total_density"], full.meta["total_density"])


def test_probe_factors_the_populations_once_per_scan(monkeypatch):
    p = _params(tau_common=1.0 / 3.0)
    space = SpaceSpec(cavity_cutoff=2, n_atoms=1, atom_cutoff=1, probe_enabled=True)
    grid = np.linspace(-16.0, 16.0, 161)
    factored = _count_calls(monkeypatch, "splu")
    liouville.probe_spectrum(p, 0.0, grid, epsilon=0.01, kappa_p=1e-2 / math.pi,
                             space=space)
    # the bare state, the rho_11 and rho_00 blocks of the probe populations
    # once, and the coherence block at each point
    assert len(factored) == 3 + grid.size


# --- stochastic dephasing consistency ------------------------------------------------

def _decaying_cavity(dim=10, beta=0.0):
    p = _empty(beta=beta)
    space = SpaceSpec(cavity_cutoff=dim - 1, n_atoms=0)
    gen = liouville.build_liouvillian(p, 0.0, space)
    n_op = np.diag(np.arange(dim, dtype=float))
    amp = liouville.coherent_vector(1.2, dim)
    return gen, n_op, np.outer(amp, amp.conj())


def test_stochastic_zero_diffusion_is_exact():
    gen, n_op, rho0 = _decaying_cavity()
    rep = liouville.stochastic_dephasing_check(gen, n_op, 0.0, rho0, t_end=0.5,
                                               dt=0.01, n_traj=8, seed=5)
    assert rep.trace_distance < 1e-12


def test_stochastic_factored_equals_stepwise():
    # the factored average regroups the same per-trajectory phases, so the
    # two paths agree for the same seed, not merely statistically
    gen, n_op, rho0 = _decaying_cavity()
    kwargs = dict(diffusion=1.5, initial=rho0, t_end=0.3, dt=0.01,
                  n_traj=64, seed=42)
    fast = liouville.stochastic_dephasing_check(gen, n_op, **kwargs)
    slow = liouville.stochastic_dephasing_check(gen, n_op, force_stepwise=True,
                                                **kwargs)
    assert fast.method == "factored" and slow.method == "stepwise"
    assert abs(fast.trace_distance - slow.trace_distance) < 1e-12


def test_stochastic_average_converges():
    gen, n_op, rho0 = _decaying_cavity()
    rep = liouville.stochastic_dephasing_check(gen, n_op, 2.0, rho0, t_end=1.0,
                                               dt=1e-3, n_traj=1000, seed=11)
    assert rep.trace_distance < 3.0 / math.sqrt(1000)


def test_stochastic_drive_breaks_factoring():
    gen, n_op, rho0 = _decaying_cavity(beta=0.5)
    rep = liouville.stochastic_dephasing_check(gen, n_op, 0.5, rho0, t_end=0.2,
                                               dt=0.01, n_traj=32, seed=9)
    assert rep.method == "stepwise"


def test_stochastic_rejects_bad_input():
    gen, n_op, rho0 = _decaying_cavity()
    with pytest.raises(ParameterError, match="Hermitian"):
        liouville.stochastic_dephasing_check(gen, 1j * n_op, 1.0, rho0,
                                             t_end=0.1, dt=0.01, n_traj=4, seed=1)
    with pytest.raises(ParameterError, match="diffusion"):
        liouville.stochastic_dephasing_check(gen, n_op, -1.0, rho0,
                                             t_end=0.1, dt=0.01, n_traj=4, seed=1)
    big = SpaceSpec(cavity_cutoff=59, n_atoms=0)
    gen_big = liouville.build_liouvillian(_empty(), 0.0, big)
    with pytest.raises(BudgetError):
        liouville.stochastic_dephasing_check(
            gen_big, np.diag(np.arange(60.0)), 1.0, np.eye(60) / 60.0,
            t_end=0.1, dt=0.01, n_traj=4, seed=1)
