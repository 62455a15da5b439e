"""Self-contained validation suite cross-checking every advertised result.

Each check pits the closed forms against one or both numerical oracles (or a
known exact property) at a pinned tolerance and returns whether it passed
and a detail line.  CRITERIA names each check once, with its wall-clock
budget.  run_all times every check against that budget and builds each
:class:`CheckResult`: an overrun fails the check, a check that would exceed
the Hilbert-space dimension budget is skipped rather than silently passing,
and one that raises is a crashed FAIL.  Skipped and crashed results carry
their budget too, so every stderr line of ``cavlab validate`` shows it.
"""
from __future__ import annotations

import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from . import analytic, liouville, moments
from .errors import BudgetError
from .liouville import SpaceSpec
from .model import SystemParams

__all__ = ["CheckResult", "CRITERIA", "run_all", "DEFAULT_SEED"]

DEFAULT_SEED = 20260815


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    budget_seconds: float | None = None
    skipped: bool = False
    reason: str = ""
    crashed: bool = False   # raised instead of returning; ``detail`` says what

    def to_dict(self) -> dict:
        # wall-clock time stays out (cavlab validate reports it under its own
        # key) so results with the same seed compare bit-for-bit; budget
        # overruns still flip `passed` and mark `detail`
        return {
            "name": self.name,
            "passed": self.passed,
            "skipped": self.skipped,
            "reason": self.reason,
            "detail": self.detail,
        }

    def line(self) -> str:
        tag = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        note = self.reason if self.skipped else self.detail
        return f"{tag} {self.name}: {note}"


def _random_params(rng, n_atoms: int) -> SystemParams:
    g, k1, k2, gam = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 4))
    taus = {}
    for key in ("tau_indiv", "tau_common"):
        if rng.random() < 0.75:
            taus[key] = 1.0 / np.exp(rng.uniform(np.log(1e-2), np.log(1e2)))
    beta = complex(rng.normal(), rng.normal())
    return SystemParams(g=g, n_atoms=n_atoms, kappa1=k1, kappa2=k2,
                        omega_c=rng.uniform(-5, 5), omega_a=rng.uniform(-5, 5),
                        gamma_par=gam, beta=beta, **taus)


def _figure_params(**overrides) -> SystemParams:
    base = dict(g=2.0, n_atoms=5, kappa1=0.5, kappa2=0.5, omega_c=0.0,
                omega_a=0.0, gamma_par=2.0, beta=0.05)
    base.update(overrides)
    return SystemParams(**base)


_ATOM_CHOICES = (1, 2, 3, 5, 20)


def check_steady_state_equivalence(seed: int) -> tuple[bool, str]:
    """Closed-form photon number / excitation vs the moment-equation solve."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    omegas = np.linspace(-6.0, 6.0, 11)
    for k in range(100):
        p = _random_params(rng, _ATOM_CHOICES[k % len(_ATOM_CHOICES)])
        ss = moments.steady_state(p, omegas)
        ref = analytic.steady_state_summary(p, omegas)
        worst = max(
            worst,
            np.max(np.abs(ss.s3 - ref.photon_number) / ref.photon_number),
            np.max(np.abs(ss.s5 - ref.p_exc) / np.abs(ref.p_exc)),
            np.max(np.abs(ss.s1 - ref.mean_field) / np.abs(ref.mean_field)),
        )
    ok = worst < 1e-9
    return ok, (f"worst relative deviation {worst:.2e} over 100 draws "
                f"x 11 drive frequencies (tol 1e-9)")


def check_energy_conservation(seed: int) -> tuple[bool, str]:
    """Photon outflow balances drive work; flux identity R+T+loss = 1."""
    rng = np.random.default_rng(seed + 1)
    worst_balance = worst_flux = 0.0
    for k in range(60):
        p = _random_params(rng, _ATOM_CHOICES[k % len(_ATOM_CHOICES)])
        om = rng.uniform(-5, 5)
        ss = moments.steady_state(p, om)
        worst_balance = max(worst_balance, moments.energy_balance_residual(p, ss))
        big_r, big_t = moments.intensity_from_state(p, ss)
        loss = p.n_atoms * p.gamma_par * ss.s5 / abs(p.beta) ** 2
        worst_flux = max(worst_flux, abs(big_r + big_t + loss - 1.0))
    p2 = _figure_params(n_atoms=2, tau_indiv=0.5)
    mstate, _, _ = liouville.converged_moment_state(
        p2, 0.0, SpaceSpec(cavity_cutoff=3, n_atoms=2, atom_cutoff=2))
    liou_balance = moments.energy_balance_residual(p2, mstate)
    big_r, big_t = moments.intensity_from_state(p2, mstate)
    loss = p2.n_atoms * p2.gamma_par * mstate.s5 / abs(p2.beta) ** 2
    liou_flux = abs(big_r + big_t + loss - 1.0)
    ok = (worst_balance < 1e-10 and worst_flux < 1e-10
          and liou_balance < 1e-6 and liou_flux < 1e-6)
    return ok, (f"moment residuals {worst_balance:.2e}/{worst_flux:.2e} "
                f"(tol 1e-10), density-matrix residuals "
                f"{liou_balance:.2e}/{liou_flux:.2e} (tol 1e-6)")


def check_transmission_profile(seed: int) -> tuple[bool, str]:
    """Normal-mode doublet position and the on-resonance incoherent excess."""
    grid = np.linspace(-10.0, 10.0, 401)
    quiet = _figure_params()
    split = quiet.g * math.sqrt(quiet.n_atoms)
    peaks_ok, doublet = _transmission_doublet(
        grid, analytic.intensity_coefficients(quiet, grid)[1], split)

    p_common = _figure_params(tau_common=1.0 / 3.0)
    h_ref = analytic.lorentzian_height(p_common).height
    ss = moments.steady_state(p_common, 0.0)
    _, big_t = moments.intensity_from_state(p_common, ss)
    t2_res = abs(analytic.field_coefficients(p_common, 0.0)[1]) ** 2
    h_moments = big_t / t2_res - 1.0
    mom_dev = abs(h_moments - h_ref) / h_ref

    # same physics at n_atoms = 3 with the coupling rescaled to keep g^2 N
    g3 = p_common.g * math.sqrt(p_common.n_atoms / 3.0)
    p3 = p_common.replace(g=g3, n_atoms=3)
    mstate, _, _ = liouville.converged_moment_state(
        p3, 0.0, SpaceSpec(cavity_cutoff=1, n_atoms=3, atom_cutoff=2))
    h_liou = mstate.s3 / abs(mstate.s1) ** 2 - 1.0
    liou_dev = abs(h_liou - h_ref) / h_ref

    ok = peaks_ok and mom_dev < 1e-9 and liou_dev < 1e-3
    return ok, (f"{doublet} (want +-{split:.3f} within 0.2), incoherent excess dev "
                f"{mom_dev:.2e} (moments, tol 1e-9) / {liou_dev:.2e} "
                f"(density matrix, tol 1e-3)")


def _transmission_doublet(grid: np.ndarray, transmission: np.ndarray,
                          split: float) -> tuple[bool, str]:
    """Whether the interior maxima of a transmission profile are the normal
    modes at +-split (within 0.2), and a description of what was found."""
    inner = (transmission[1:-1] > transmission[:-2]) & (transmission[1:-1] > transmission[2:])
    peaks = grid[1:-1][inner]
    if peaks.size != 2:
        return False, f"no doublet ({peaks.size} transmission peaks)"
    ok = abs(peaks[0] + split) < 0.2 and abs(peaks[1] - split) < 0.2
    return ok, f"doublet at {peaks[0]:+.3f}/{peaks[-1]:+.3f}"


def check_jitter_coherence_ratio(seed: int) -> tuple[bool, str]:
    """Jitter turns a mean field of 2 into ratio 1 + 1/(kappa tau_jit)."""
    worst_ratio = worst_wigner = 0.0
    for x in (0.0, 0.1, 0.3, 1.0):
        tau_j = math.inf if x == 0.0 else 1.0 / x
        p = SystemParams(g=0.0, n_atoms=0, kappa1=0.5, kappa2=0.5, omega_c=0.0,
                         omega_a=0.0, gamma_par=1.0, tau_jitter=tau_j,
                         beta=2.0 * (1.0 + x))
        # start the cutoff scan above the fat tail jitter produces
        n_expect = (1.0 + x) * 4.0
        cutoff0 = int(4 * n_expect) + 8
        mstate, trunc, _ = liouville.converged_moment_state(
            p, 0.0, SpaceSpec(cavity_cutoff=cutoff0, n_atoms=0))
        ratio = mstate.s3 / abs(mstate.s1) ** 2
        worst_ratio = max(worst_ratio, abs(ratio - (1.0 + x)))
        cav = liouville.reduce_cavity(trunc)
        xs, ps = liouville.wigner_grid_for_state(cav)
        grid = liouville.wigner(cav, xs, ps)
        wratio = grid.photon_number() / abs(grid.mean_alpha()) ** 2
        worst_wigner = max(worst_wigner, abs(wratio - (1.0 + x)))
    ok = worst_ratio < 1e-3 and worst_wigner < 1e-2
    return ok, (f"worst ratio deviation {worst_ratio:.2e} (tol 1e-3), "
                f"worst phase-space-moment deviation {worst_wigner:.2e} "
                f"(tol 1e-2) over 1/(kappa tau_jit) in {{0, 0.1, 0.3, 1}}")


def check_spectrum_triple_agreement(seed: int) -> tuple[bool, str]:
    """Closed form, regression and probe readout of the emission spectrum."""
    p = _figure_params(tau_common=1.0 / 3.0)
    # probe runs on the equivalent single collective emitter (g -> g sqrt N),
    # exact here: hp emitters without individual dephasing couple the cavity
    # to the bright mode L / sqrt(N) alone, on which common dephasing acts as
    # on one emitter while the dark modes stay empty
    probe_params = p.replace(g=p.g * math.sqrt(p.n_atoms), n_atoms=1)
    probe_space = SpaceSpec(cavity_cutoff=6, n_atoms=1, atom_model="hp",
                            atom_cutoff=3, probe_enabled=True)
    probe_space.check_budget()
    shared = np.arange(-16.0, 16.2, 0.2) + 0.1    # keep off the coherent line
    kappa_p = 1e-2 / math.pi

    worst_pair = worst_integral = 0.0
    for omega_l in (0.0, 8.0):
        sa = analytic.emission_spectrum(p, omega_l, shared)
        sm = moments.regression_spectrum(p, omega_l, shared)
        sp_ = liouville.probe_spectrum(probe_params, omega_l, shared,
                                       epsilon=0.01, kappa_p=kappa_p,
                                       space=probe_space)
        mask = sa.incoherent_density > 0.01 * sa.incoherent_density.max()
        for a, b in ((sa, sm), (sa, sp_), (sm, sp_)):
            dev = np.max(np.abs(a.incoherent_density[mask] - b.incoherent_density[mask])
                         / np.abs(a.incoherent_density[mask]))
            worst_pair = max(worst_pair, dev)
        wide = analytic.spectrum_grid(p)
        for s in (analytic.emission_spectrum(p, omega_l, wide),
                  moments.regression_spectrum(p, omega_l, wide)):
            total = s.incoherent_power() + s.coherent_power
            worst_integral = max(
                worst_integral,
                abs(total - s.meta["photon_number"]) / s.meta["photon_number"])

    # without noise the probe sees only the coherent line
    quiet = _figure_params()
    quiet_probe = quiet.replace(g=quiet.g * math.sqrt(quiet.n_atoms), n_atoms=1)
    short = np.array([-0.9, -0.5, -0.1, 0.1, 0.5, 0.9])
    sq = liouville.probe_spectrum(quiet_probe, 0.0, short, epsilon=0.01,
                                  kappa_p=kappa_p, space=probe_space)
    line_peak = sq.coherent_power / (math.pi * kappa_p)
    quiet_resid = np.max(np.abs(sq.incoherent_density)) / line_peak

    ok = worst_pair < 0.02 and worst_integral < 1e-3 and quiet_resid < 0.01
    return ok, (f"worst pairwise deviation {worst_pair:.4f} (tol 0.02), "
                f"integral identity {worst_integral:.2e} (tol 1e-3), "
                f"noise-free residual {quiet_resid:.2e} of the line peak")


def check_height_bounds_and_limits(seed: int) -> tuple[bool, str]:
    """Limit cases of the dephasing fraction and bounds on the height."""
    # a channel 1e3 times slower than its partner moves the fraction < 1%
    pi_ = _figure_params(tau_indiv=1.0, tau_common=1e3)
    frac_indiv = abs(analytic.dephasing_fraction(pi_) - 1.0)
    pc = _figure_params(tau_common=1.0, tau_indiv=1e3)
    frac_common = abs(analytic.dephasing_fraction(pc) - 5.0) / 5.0

    rng = np.random.default_rng(seed + 5)
    bound_ok = True
    for k in range(100):
        p = _random_params(rng, _ATOM_CHOICES[k % len(_ATOM_CHOICES)])
        rep = analytic.lorentzian_height(p)
        bound_ok = bound_ok and rep.height <= rep.cooperativity * (1 + 1e-12)

    rep = analytic.lorentzian_height(_figure_params(gamma_par=1e-4, tau_indiv=1.0))
    approach = abs(rep.height - rep.cooperativity) / rep.cooperativity

    times = np.geomspace(1e2, 1e4, 9)
    hs = [analytic.lorentzian_height(_figure_params(tau_common=t)).height
          for t in times]
    slope = float(np.polyfit(np.log(times), np.log(hs), 1)[0])

    ok = (frac_indiv < 0.01 and frac_common < 0.01 and bound_ok
          and approach < 0.01 and abs(slope + 1.0) < 0.05)
    return ok, (f"fraction limits {frac_indiv:.2e}/{frac_common:.2e} "
                f"(tol 0.01), h <= C on 100 draws: {bound_ok}, approach to C "
                f"{approach:.2e} (tol 0.01), slow-dephasing slope {slope:.3f} "
                f"(want -1 within 5%)")


def check_stochastic_dephasing(seed: int) -> tuple[bool, str]:
    """Trajectory average of white-noise phase kicks vs the Lindblad channel."""
    p = SystemParams(g=0.0, n_atoms=0, kappa1=0.5, kappa2=0.5, omega_c=0.0,
                     omega_a=0.0, gamma_par=1.0, beta=0.0)
    space = SpaceSpec(cavity_cutoff=17, n_atoms=0)
    gen = liouville.build_liouvillian(p, 0.0, space)
    n_op = np.diag(np.arange(space.dimension, dtype=float))
    amp = liouville.coherent_vector(2.0, space.dimension)
    rho0 = np.outer(amp, amp.conj())

    # one evolution for every draw: 1e4 trajectories, then 8 seeds per size
    sizes = (1000, 4000, 16000)
    n_traj = [10000] + [n for n in sizes for _ in range(8)]
    seeds = [seed] + [seed + 7 * n + k for n in sizes for k in range(8)]
    distances = liouville.stochastic_dephasing_check(
        gen, n_op, 2.0, rho0, t_end=1.0, n_traj=n_traj, seed=seeds)
    main = float(distances[0])
    means = [float(np.mean(runs)) for runs in distances[1:].reshape(len(sizes), 8)]
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])

    ok = main < 0.03 and abs(slope + 0.5) < 0.15
    return ok, (f"trace distance {main:.4f} at 1e4 "
                f"trajectories (tol 0.03), scaling slope {slope:.3f} "
                f"(want -0.5 within 0.15)")


def check_coherent_state_preservation(seed: int) -> tuple[bool, str]:
    """Population decay alone leaves every mode in a coherent state."""
    p = _figure_params(n_atoms=1, g=2.0, beta=0.2)
    space = SpaceSpec(cavity_cutoff=8, n_atoms=1, atom_cutoff=3)
    gen = liouville.build_liouvillian(p, 0.0, space)
    cav = liouville.reduce_cavity(liouville.steady_state(gen, space.dims))
    purity_gap = 1.0 - cav.purity()

    rng = np.random.default_rng(seed + 8)
    worst_factor = 0.0
    for _ in range(25):
        q = _random_params(rng, int(rng.choice([1, 2, 5])))
        q = q.replace(tau_indiv=None, tau_common=None, tau_jitter=None)
        ss = moments.steady_state(q, rng.uniform(-3, 3))
        # each residual relative to the moment it tests
        n1, n2 = abs(ss.s1), abs(ss.s2)
        worst_factor = max(
            worst_factor,
            abs(ss.s3 - n1 ** 2) / max(n1 ** 2, 1e-300),
            abs(ss.s4 - ss.s1.conjugate() * ss.s2) / max(n1 * n2, 1e-300),
            abs(ss.s5 - n2 ** 2) / max(n2 ** 2, 1e-300),
            abs(ss.s6 - n2 ** 2) / max(n2 ** 2, 1e-300) if q.n_atoms > 1 else 0.0,
        )
    ok = purity_gap < 1e-6 and worst_factor < 1e-12
    return ok, (f"reduced-cavity purity gap {purity_gap:.2e} (tol 1e-6), "
                f"worst moment-factorization residual {worst_factor:.2e} "
                f"(tol 1e-12)")


def check_linear_regime_boundary(seed: int) -> tuple[bool, str]:
    """Two-level and bosonic emitters agree at weak drive and split when
    saturation sets in."""
    p = _figure_params(n_atoms=1, tau_indiv=1.0 / 3.0, beta=0.05)
    sp_tl = SpaceSpec(cavity_cutoff=5, n_atoms=1, atom_model="two_level")
    sp_hp = SpaceSpec(cavity_cutoff=5, n_atoms=1, atom_model="hp", atom_cutoff=3)
    m_tl, _ = liouville.steady_moment_state(p, 0.0, sp_tl)
    m_hp, _ = liouville.steady_moment_state(p, 0.0, sp_hp)
    _, t_tl = moments.intensity_from_state(p, m_tl)
    _, t_hp = moments.intensity_from_state(p, m_hp)
    weak_dev = abs(t_tl - t_hp) / t_hp
    weak_ok = m_tl.s5 < 1e-2 and weak_dev < 5.0 * m_tl.s5

    strong = p.replace(beta=1.25)
    sp_strong = SpaceSpec(cavity_cutoff=14, n_atoms=1, atom_model="two_level")
    m_strong, _ = liouville.steady_moment_state(strong, 0.0, sp_strong)
    _, t_strong = moments.intensity_from_state(strong, m_strong)
    t_linear = analytic.intensity_coefficients(strong, 0.0)[1]
    strong_dev = abs(t_strong - t_linear) / t_linear

    ok = weak_ok and strong_dev > 0.05
    return ok, (f"weak drive (p_exc {m_tl.s5:.1e}) deviation {weak_dev:.2e} "
                f"<= {5.0 * m_tl.s5:.2e}; saturated drive (p_exc "
                f"{m_strong.s5:.2f}) deviates {strong_dev:.1%} from the "
                f"linear prediction (> 5% expected)")


# each criterion once: its name, then its check and wall-clock budget in s (or None);
# name-first pairs keep `for name, _ in CRITERIA` working (perfbench/run.py --full-gate)
CRITERIA: tuple[tuple[str, tuple[object, float | None]], ...] = (
    ("steady-state-equivalence", (check_steady_state_equivalence, 10.0)),
    ("energy-conservation", (check_energy_conservation, None)),
    ("transmission-profile", (check_transmission_profile, 60.0)),
    ("jitter-coherence-ratio", (check_jitter_coherence_ratio, 120.0)),
    ("spectrum-triple-agreement", (check_spectrum_triple_agreement, 300.0)),
    ("height-bounds-and-limits", (check_height_bounds_and_limits, None)),
    ("stochastic-dephasing", (check_stochastic_dephasing, 180.0)),
    ("coherent-state-preservation", (check_coherent_state_preservation, None)),
    ("linear-regime-boundary", (check_linear_regime_boundary, None)),
)


def run_all(seed: int = DEFAULT_SEED, only: list[str] | None = None
            ) -> list[CheckResult]:
    """Run the validation checks, each timed against its budget in CRITERIA:
    an overrun fails the check, a BudgetError skips it and any other
    exception is a crashed FAIL that names it."""
    results = []
    for name, (check, budget) in CRITERIA:
        if only is not None and name not in only:
            continue
        outcome = {}
        start = time.perf_counter()
        try:
            passed, detail = check(seed)
        except BudgetError as exc:
            passed, detail = False, ""
            outcome = {"skipped": True, "reason": f"dimension budget too small: {exc}"}
        except Exception as exc:    # one criterion's crash must not stop the rest
            where = traceback.extract_tb(exc.__traceback__)[-1]
            passed, detail = False, (f"crashed: {type(exc).__name__}: {exc} "
                                     f"(at {os.path.basename(where.filename)}:{where.lineno})")
            outcome = {"crashed": True}
        seconds = time.perf_counter() - start
        if not outcome and budget is not None and seconds >= budget:
            passed, detail = False, f"{detail}; exceeded {budget:.0f}s budget"
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail,
                                   seconds=seconds, budget_seconds=budget, **outcome))
    return results
