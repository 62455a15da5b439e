"""Brute-force oracle on a truncated Hilbert space.

Everything here works on the full density matrix of the composite system
cavity x emitters (x probe).  Every emitter is a ladder truncated at
``SpaceSpec.atom_dim`` levels: population decay jumps through its lowering
operator, and the detuning and both dephasing channels couple through its
number operator.  An ``hp`` emitter (bosonic, the regime of the closed forms)
keeps ``atom_cutoff`` quanta; a ``two_level`` emitter is the same ladder
with one quantum.  A constant shift of H or of a Hermitian jump operator
leaves the generator unchanged, so the number operator of a two-level
emitter gives the same dynamics as sigma_z/2.

Density matrices are vectorized row-major, vec(A rho B) = (A kron B^T) vec(rho).
Steady states come from a sparse LU solve of the generator with one row
replaced by the trace constraint up to Hilbert dimension 64, and from time
marching above it.  The weak-probe spectrum splits that constrained system
into the probe populations, which do not depend on the probe detuning and
are factored once per scan, and the probe coherences, factored per point;
block Gauss-Seidel sweeps between the two solve each point, and a point
whose sweeps do not reach a residual of 1e-14 is solved directly.  The
overall Hilbert-space dimension is capped by a budget, overridable through
the CAVLAB_BUDGET environment variable.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, expm
from scipy.sparse.linalg import expm_multiply, splu

from .analytic import SpectrumResult
from .errors import BudgetError, ParameterError, SingularSystemError
from .model import SystemParams
from .moments import MomentState

__all__ = [
    "SpaceSpec",
    "TruncatedState",
    "WignerGrid",
    "StochasticCheckReport",
    "dimension_budget",
    "build_hamiltonian",
    "jump_operators",
    "build_liouvillian",
    "hamiltonian_superop",
    "steady_state",
    "expectation",
    "reduce_cavity",
    "steady_moment_state",
    "converged_moment_state",
    "coherent_vector",
    "wigner",
    "wigner_grid_for_state",
    "probe_spectrum",
    "stochastic_dephasing_check",
]

DEFAULT_DIMENSION_BUDGET = 512
# Largest Hilbert dimension for the sparse LU path.  Measured on one core:
# at dimension 54 direct took 1.0 s and marching 0.85 s, at 108 direct took
# 84 s (40M fill-in under MMD_AT_PLUS_A) and marching 3.3 s.  Below the limit
# direct stays: the probe at dimension 56 needs its refined 1e-10 residual,
# and marching stops at 1e-9.
_DIRECT_SOLVE_LIMIT = 64
_DIRECT_TOL = 1e-10          # relative residual of a direct steady state
_MARCHING_TOL = 1e-9         # ... and of a marched one
_MARCHING_ROUNDS = 60
_BLOCK_SWEEPS = 10           # most block Gauss-Seidel sweeps per probe point
_BLOCK_TOL = 1e-14           # residual at which a swept probe point is accepted
_POSITIVITY_FLOOR = -1e-8    # most negative eigenvalue a steady state may have
_CUTOFF_REL_TOL = 1e-6       # moment change that ends the cavity-cutoff scan
_CUTOFF_ROUNDS = 4
_WIGNER_RESCALE = 1e100      # largest running value of the Wigner recurrence


def dimension_budget() -> int:
    """Hilbert-space dimension cap; CAVLAB_BUDGET overrides the default."""
    raw = os.environ.get("CAVLAB_BUDGET")
    if raw is None:
        return DEFAULT_DIMENSION_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParameterError(f"CAVLAB_BUDGET must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ParameterError("CAVLAB_BUDGET must be at least 2")
    return value


@dataclass(frozen=True)
class SpaceSpec:
    """Shape of the truncated composite Hilbert space."""

    cavity_cutoff: int
    n_atoms: int
    atom_model: str = "hp"          # "hp" or "two_level"
    atom_cutoff: int = 2            # per-emitter quanta, hp model only
    probe_enabled: bool = False

    def __post_init__(self):
        if self.cavity_cutoff < 1:
            raise ParameterError("SpaceSpec: cavity_cutoff must be >= 1")
        if self.n_atoms < 0:
            raise ParameterError("SpaceSpec: n_atoms must be >= 0")
        if self.atom_model not in ("hp", "two_level"):
            raise ParameterError("SpaceSpec: atom_model must be 'hp' or 'two_level'")
        if self.atom_model == "hp" and self.atom_cutoff < 1:
            raise ParameterError("SpaceSpec: atom_cutoff must be >= 1")

    @property
    def atom_dim(self) -> int:
        return 2 if self.atom_model == "two_level" else self.atom_cutoff + 1

    @property
    def dims(self) -> tuple[int, ...]:
        out = (self.cavity_cutoff + 1,) + (self.atom_dim,) * self.n_atoms
        if self.probe_enabled:
            out = out + (2,)
        return out

    @property
    def dimension(self) -> int:
        return int(np.prod(self.dims))

    def check_budget(self) -> "SpaceSpec":
        budget = dimension_budget()
        if self.dimension > budget:
            raise BudgetError(
                f"Hilbert dimension {self.dimension} exceeds budget {budget} "
                "(set CAVLAB_BUDGET to raise it)"
            )
        return self


def _destroy(dim: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, dim, dtype=float)), 1, format="csr").astype(complex)


def _embed(op: sp.spmatrix, site: int, dims: tuple[int, ...]) -> sp.csr_matrix:
    mat = sp.identity(1, format="csr", dtype=complex)
    for k, d in enumerate(dims):
        blk = op if k == site else sp.identity(d, format="csr", dtype=complex)
        mat = sp.kron(mat, blk, format="csr")
    return mat


def cavity_annihilation(space: SpaceSpec) -> sp.csr_matrix:
    return _embed(_destroy(space.cavity_cutoff + 1), 0, space.dims)


def atom_lowering(space: SpaceSpec, j: int) -> sp.csr_matrix:
    return _embed(_destroy(space.atom_dim), 1 + j, space.dims)


def atom_number(space: SpaceSpec, j: int) -> sp.csr_matrix:
    op = sp.diags(np.arange(space.atom_dim, dtype=float), 0, format="csr").astype(complex)
    return _embed(op, 1 + j, space.dims)


def probe_lowering(space: SpaceSpec) -> sp.csr_matrix:
    if not space.probe_enabled:
        raise ParameterError("probe_lowering: space has no probe mode")
    return _embed(_destroy(2), len(space.dims) - 1, space.dims)


def build_hamiltonian(params: SystemParams, omega_l: float,
                      space: SpaceSpec) -> sp.csr_matrix:
    """System Hamiltonian in the frame rotating at the drive frequency."""
    if space.n_atoms != params.n_atoms:
        raise ParameterError("build_hamiltonian: space.n_atoms != params.n_atoms")
    delta_c = params.omega_c - omega_l
    delta_a = params.omega_a - omega_l
    a_c = cavity_annihilation(space)
    h = delta_c * (a_c.conj().T @ a_c)
    drive = math.sqrt(2.0 * params.kappa1) * params.beta
    h = h + 1j * (drive * a_c.conj().T - np.conj(drive) * a_c)
    for j in range(params.n_atoms):
        low = atom_lowering(space, j)
        h = h + delta_a * (low.conj().T @ low)
        h = h + params.g * (low.conj().T @ a_c + low @ a_c.conj().T)
    return h.tocsr()


def jump_operators(params: SystemParams, space: SpaceSpec) -> list[sp.csr_matrix]:
    """Collapse operators: cavity leak, cavity jitter, per-emitter decay and
    dephasing, collective dephasing (present only when the rate is nonzero)."""
    ops = [math.sqrt(2.0 * params.kappa) * cavity_annihilation(space)]
    if params.inv_tau_jitter > 0.0:
        a_c = cavity_annihilation(space)
        ops.append(math.sqrt(2.0 * params.inv_tau_jitter) * (a_c.conj().T @ a_c))
    for j in range(params.n_atoms):
        ops.append(math.sqrt(params.gamma_par) * atom_lowering(space, j))
    if params.inv_tau_indiv > 0.0:
        for j in range(params.n_atoms):
            ops.append(math.sqrt(2.0 * params.inv_tau_indiv) * atom_number(space, j))
    if params.inv_tau_common > 0.0 and params.n_atoms > 0:
        total = sum(atom_number(space, j) for j in range(params.n_atoms))
        ops.append(math.sqrt(2.0 * params.inv_tau_common) * total)
    return [op.tocsr() for op in ops]


def hamiltonian_superop(h: sp.spmatrix) -> sp.csr_matrix:
    """-i [H, .] in vectorized form."""
    dim = h.shape[0]
    ident = sp.identity(dim, format="csr", dtype=complex)
    return (-1j * (sp.kron(h, ident) - sp.kron(ident, h.T))).tocsr()


def _dissipator_superop(c: sp.spmatrix) -> sp.csr_matrix:
    dim = c.shape[0]
    ident = sp.identity(dim, format="csr", dtype=complex)
    cdc = (c.conj().T @ c).tocsr()
    out = sp.kron(c, c.conj()) - 0.5 * (sp.kron(cdc, ident) + sp.kron(ident, cdc.T))
    return out.tocsr()


def build_liouvillian(params: SystemParams, omega_l: float, space: SpaceSpec,
                      extra_hamiltonian: sp.spmatrix | None = None,
                      extra_jumps: tuple[sp.spmatrix, ...] = ()) -> sp.csr_matrix:
    """Sparse generator of the master equation on the vectorized state."""
    space.check_budget()
    h = build_hamiltonian(params, omega_l, space)
    if extra_hamiltonian is not None:
        h = (h + extra_hamiltonian).tocsr()
    gen = hamiltonian_superop(h)
    for c in list(jump_operators(params, space)) + list(extra_jumps):
        gen = gen + _dissipator_superop(c)
    return gen.tocsr()


@dataclass
class TruncatedState:
    """Density matrix over the composite truncated space."""

    rho: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        dim = int(np.prod(self.dims))
        if self.rho.shape != (dim, dim):
            raise ParameterError("TruncatedState: matrix shape does not match dims")

    def trace(self) -> complex:
        return complex(np.trace(self.rho))

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T))[0])

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def check(self) -> "TruncatedState":
        if abs(self.trace() - 1.0) > 1e-10:
            raise SingularSystemError("state trace deviates from 1")
        if self.hermiticity_residual() > 1e-10:
            raise SingularSystemError("state is not Hermitian")
        if self.min_eigenvalue() < _POSITIVITY_FLOOR:
            raise SingularSystemError("state has a significantly negative eigenvalue")
        return self


def _trace_indices(dim: int) -> np.ndarray:
    return np.arange(dim) * (dim + 1)


def _constrained(gen: sp.spmatrix, dim: int) -> tuple[sp.csc_matrix, np.ndarray]:
    """The generator with its first row replaced by the trace constraint, and
    the right-hand side e_0 that goes with it."""
    coo = gen.tocoo()
    keep = coo.row != 0
    rows = np.concatenate([coo.row[keep], np.zeros(dim, dtype=coo.row.dtype)])
    cols = np.concatenate([coo.col[keep], _trace_indices(dim)])
    data = np.concatenate([coo.data[keep], np.ones(dim, dtype=complex)])
    a = sp.csc_matrix((data, (rows, cols)), shape=gen.shape)
    b = np.zeros(dim * dim, dtype=complex)
    b[0] = 1.0
    return a, b


def _residual(gen: sp.spmatrix, x: np.ndarray) -> float:
    return float(np.max(np.abs(gen @ x)) / max(np.max(np.abs(x)), 1e-300))


def _direct_steady(gen: sp.spmatrix, dim: int) -> np.ndarray:
    a, b = _constrained(gen, dim)
    try:
        lu = splu(a)
        x = lu.solve(b)
        for _ in range(2):
            x = x + lu.solve(b - a @ x)
    except RuntimeError as exc:
        raise SingularSystemError(f"steady_state: sparse LU failed: {exc}") from exc
    residual = _residual(gen, x)
    if residual > _DIRECT_TOL:
        raise SingularSystemError(
            f"steady_state: residual {residual:.3e} above tolerance {_DIRECT_TOL:.3e}"
        )
    return x


def _marching_steady(gen: sp.spmatrix, dim: int) -> np.ndarray:
    x = np.zeros(dim * dim, dtype=complex)
    x[_trace_indices(dim)] = 1.0 / dim
    rate = float(np.max(np.abs(gen.diagonal())))
    horizon = 1.0 / max(rate, 1e-300)
    for _ in range(_MARCHING_ROUNDS):
        x = expm_multiply(gen * horizon, x)
        tr = x[_trace_indices(dim)].sum()
        x = x / tr
        if _residual(gen, x) < _MARCHING_TOL:
            return x
        horizon = min(2.0 * horizon, 1e6 / max(rate, 1e-300))
    raise SingularSystemError("steady_state: time marching did not converge")


def steady_state(gen: sp.spmatrix, dims: tuple[int, ...]) -> TruncatedState:
    """Stationary density matrix of the generator.

    Up to the direct-solve size limit: a sparse solve with the trace
    constraint replacing one row.  Above it the state is relaxed by repeated
    application of the exponential propagator.
    """
    dim = int(np.prod(dims))
    if gen.shape != (dim * dim, dim * dim):
        raise ParameterError("steady_state: generator shape does not match dims")
    if dim <= _DIRECT_SOLVE_LIMIT:
        x = _direct_steady(gen, dim)
    else:
        x = _marching_steady(gen, dim)
    return _state_from_vector(x, dims)


def _state_from_vector(x: np.ndarray, dims: tuple[int, ...]) -> TruncatedState:
    dim = int(np.prod(dims))
    rho = x.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return TruncatedState(rho, dims).check()


def expectation(state: TruncatedState, observable) -> complex:
    ob = observable if sp.issparse(observable) else np.asarray(observable)
    if ob.shape != state.rho.shape:
        raise ParameterError("expectation: dimension mismatch")
    return complex((ob @ state.rho).diagonal().sum())


def reduce_cavity(state: TruncatedState) -> TruncatedState:
    """Partial trace over everything but the cavity mode."""
    d0 = state.dims[0]
    rest = int(np.prod(state.dims[1:])) if len(state.dims) > 1 else 1
    rho = state.rho.reshape(d0, rest, d0, rest)
    return TruncatedState(np.einsum("arbr->ab", rho), (d0,))


def steady_moment_state(params: SystemParams, omega_l: float,
                        space: SpaceSpec) -> tuple[MomentState, TruncatedState]:
    """Steady state plus its first/second moments folded into a MomentState."""
    gen = build_liouvillian(params, omega_l, space)
    state = steady_state(gen, space.dims)
    a_c = cavity_annihilation(space)
    s1 = expectation(state, a_c)
    s3 = expectation(state, a_c.conj().T @ a_c).real
    n = params.n_atoms
    if n == 0:
        return MomentState(s1, 0j, s3, 0j, 0.0, 0.0), state
    lows = [atom_lowering(space, j) for j in range(n)]
    s2 = np.mean([expectation(state, low) for low in lows])
    s4 = np.mean([expectation(state, a_c.conj().T @ low) for low in lows])
    s5 = float(np.mean([expectation(state, low.conj().T @ low).real for low in lows]))
    if n > 1:
        pairs = [expectation(state, lows[k].conj().T @ lows[j])
                 for k in range(n) for j in range(n) if k != j]
        s6 = float(np.mean(pairs).real)
    else:
        s6 = 0.0
    return MomentState(complex(s1), complex(s2), s3, complex(s4), s5, s6), state


def converged_moment_state(params: SystemParams, omega_l: float, space: SpaceSpec
                           ) -> tuple[MomentState, TruncatedState, SpaceSpec]:
    """Raise the cavity cutoff by 2 until the reported moments settle."""
    current = space
    mstate, state = steady_moment_state(params, omega_l, current)
    for _ in range(_CUTOFF_ROUNDS):
        bigger = replace(current, cavity_cutoff=current.cavity_cutoff + 2)
        m2, s2 = steady_moment_state(params, omega_l, bigger)
        ref = np.abs(mstate.packed())
        change = np.max(np.abs(m2.packed() - mstate.packed()) / np.maximum(ref, 1e-300))
        if change < _CUTOFF_REL_TOL:
            return m2, s2, bigger
        current, mstate, state = bigger, m2, s2
    raise SingularSystemError(
        "converged_moment_state: cavity cutoff did not converge within budget"
    )


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Fock-basis amplitudes of |alpha>, truncated at dim levels."""
    amp = np.zeros(dim, dtype=complex)
    amp[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        amp[n] = amp[n - 1] * alpha / math.sqrt(n)
    return amp


# --- Wigner function --------------------------------------------------------

@dataclass
class WignerGrid:
    """Phase-space samples W(x + i p); unit integral, vacuum peak 2/pi."""

    xs: np.ndarray
    ps: np.ndarray
    w: np.ndarray            # shape (len(xs), len(ps))

    def integral(self) -> float:
        return float(np.trapezoid(np.trapezoid(self.w, self.ps, axis=1), self.xs))

    def normalization_residual(self) -> float:
        return abs(self.integral() - 1.0)

    def mean_alpha(self) -> complex:
        alpha = self.xs[:, None] + 1j * self.ps[None, :]
        return complex(np.trapezoid(np.trapezoid(self.w * alpha, self.ps, axis=1), self.xs))

    def photon_number(self) -> float:
        r2 = self.xs[:, None] ** 2 + self.ps[None, :] ** 2
        m2 = float(np.trapezoid(np.trapezoid(self.w * r2, self.ps, axis=1), self.xs))
        return m2 - 0.5


def wigner(state: TruncatedState, xs: np.ndarray, ps: np.ndarray) -> WignerGrid:
    """W(alpha) = (2/pi) tr[rho D(2 alpha) P] on the grid alpha = x + i p.

    With h the Hermitian part of rho (D P is Hermitian, so only h counts),
    W = (2/pi) [sum_m h_mm f_mm + 2 sum_{m<n} Re(h_mn f_mn)], where
    f_mn = <n|D(2 alpha) P|m> is pi/2 times the Wigner function of |m><n|:
    with x = |2 alpha|**2 and k = n - m, f_mn = (-1)^m sqrt(m!/n!)
    (2 alpha)^k exp(-x/2) L_m^(k)(x) (Cahill and Glauber, Phys. Rev. 177,
    1882 (1969)), of modulus at most 1.  Each diagonal k starts from
    f_0k = 2 alpha f_0,k-1 / sqrt(k), f_00 = exp(-x/2), and runs the Laguerre
    recurrence in m, whose coefficients are real:
    f_m+1,n+1 = ((x - m - n - 1) f_mn - sqrt(m n) f_m-1,n-1) / sqrt((m+1)(n+1)).
    Rounding stays at the level of the largest f_mn.  A recurrence along
    the rows of f instead amplifies it where x > n: on a coherent state with
    alpha = 10 in dimension 200 that was off by 2.8e6.

    f_00 underflows beyond |alpha| = 19.3, and f_mn can grow from there by
    more than a double holds, so every grid point carries its own
    log-scale: a diagonal starts from the phase of f_0k times
    exp(log |f_0k|), its real running pair is divided down whenever it
    passes _WIGNER_RESCALE, and exp(scale) enters only the sum.  Along a
    diagonal the running values rise out of the classically forbidden region
    (x outside [(sqrt(n) - sqrt(m))**2, (sqrt(n) + sqrt(m))**2], an interval
    that widens with m) and then only oscillate, so they never need scaling
    up.
    """
    if len(state.dims) != 1:
        raise ParameterError("wigner: reduce to the cavity mode first")
    dim = state.dims[0]
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    two_alpha = 2.0 * (xs[:, None] + 1j * ps[None, :])
    radius = np.abs(two_alpha)
    x = radius ** 2
    unit = np.exp(1j * np.angle(two_alpha))
    with np.errstate(divide="ignore"):
        log_radius = np.log(radius)       # -inf at alpha = 0, where f_0k = 0 for k > 0
    h = 0.5 * (state.rho + state.rho.conj().T)
    corner_scale = -0.5 * x               # log |f_0k| of the current diagonal
    phase = np.ones(x.shape, dtype=complex)
    w = np.zeros(x.shape)
    for k in range(dim):
        if k > 0:
            corner_scale = corner_scale + log_radius - 0.5 * math.log(k)
            phase = phase * unit
        # f_mn = phase * cur * exp(scale), with cur real and kept below
        # _WIGNER_RESCALE
        prev, cur, scale = 0.0, np.ones(x.shape), corner_scale
        weight = np.exp(scale)
        acc = np.zeros(x.shape, dtype=complex)
        for m in range(dim - k):
            n = m + k
            acc += h[m, n] * (cur * weight)
            if n + 1 < dim:
                prev, cur = cur, (((x - (m + n + 1)) * cur - math.sqrt(m * n) * prev)
                                  / math.sqrt((m + 1) * (n + 1)))
                if np.abs(cur).max() > _WIGNER_RESCALE:
                    size = np.maximum(np.abs(cur), 1.0)
                    prev, cur, scale = prev / size, cur / size, scale + np.log(size)
                    weight = np.exp(scale)
        w += (2.0 if k else 1.0) * (phase * acc).real
    return WignerGrid(xs, ps, (2.0 / math.pi) * w)


def wigner_grid_for_state(state: TruncatedState) -> tuple[np.ndarray, np.ndarray]:
    """Square 101 x 101 grid centered on the field amplitude, wide enough for
    the normalization check (about 5 standard deviations per quadrature)."""
    a = _destroy(state.dims[0])
    mean = expectation(state, a)
    n_cav = expectation(state, a.conj().T @ a).real
    spread = math.sqrt(max(n_cav - abs(mean) ** 2, 0.0) + 0.5)
    half = abs(mean) + 5.0 * spread
    xs = np.linspace(-half, half, 101)
    return xs, xs.copy()


# --- Appendix-style probe spectrum ------------------------------------------

def probe_spectrum(params: SystemParams, omega_l: float, grid: np.ndarray,
                   epsilon: float = 1e-3, kappa_p: float | None = None, *,
                   space: SpaceSpec) -> SpectrumResult:
    """Emission spectrum read out by a weakly coupled two-level probe mode.

    For every observation frequency the probe is detuned by omega - omega_l,
    the composite steady state is solved, and the probe occupation divided by
    pi * kappa_p * epsilon**2 estimates the total spectral density; the
    coherent line appears as a Lorentzian of width kappa_p and is subtracted
    to leave the incoherent part.
    """
    grid = np.asarray(grid, dtype=float)
    if epsilon <= 0.0 or epsilon >= 1.0:
        raise ParameterError("probe_spectrum: epsilon must be in (0, 1)")
    if kappa_p is None:
        rates = [params.kappa, params.gamma_par, params.gamma_perp]
        rates += [r for r in (params.inv_tau_jitter,) if r > 0.0]
        kappa_p = min(rates) / 100.0
    if kappa_p <= 0.0:
        raise ParameterError("probe_spectrum: kappa_p must be positive")
    if not space.probe_enabled:
        raise ParameterError("probe_spectrum: space must enable the probe mode")

    base = replace(space, probe_enabled=False)
    gen0 = build_liouvillian(params, omega_l, base)
    bare = steady_state(gen0, base.dims)
    a_bare = cavity_annihilation(base)
    mean_field = expectation(bare, a_bare)
    photon_number = expectation(bare, a_bare.conj().T @ a_bare).real
    coherent_power = abs(mean_field) ** 2

    g_p = epsilon * kappa_p
    a_p = probe_lowering(space)
    a_c = cavity_annihilation(space)
    n_p = (a_p.conj().T @ a_p).tocsr()
    coupling = g_p * (a_c.conj().T @ a_p + a_c @ a_p.conj().T)
    gen_fixed = build_liouvillian(
        params, omega_l, space,
        extra_hamiltonian=coupling,
        extra_jumps=(math.sqrt(2.0 * kappa_p) * a_p,),
    )
    gen_detune = hamiltonian_superop(n_p)

    density = np.empty(grid.size)
    worst_backaction = 0.0
    states = _probe_steady_states(gen_fixed, gen_detune, n_p, grid - omega_l,
                                  space.dims)
    for k, state in enumerate(states):
        occupation = expectation(state, n_p).real
        density[k] = occupation / (math.pi * kappa_p * epsilon ** 2)
        probe_amp = abs(expectation(state, a_p))
        if coherent_power > 0.0:
            worst_backaction = max(
                worst_backaction, probe_amp / (epsilon * math.sqrt(coherent_power)))
    if worst_backaction > 2.0:
        warnings.warn(
            f"probe_spectrum: probe amplitude reached {worst_backaction:.2f}x "
            "the epsilon * cavity-field bound; results may be perturbed",
            RuntimeWarning,
        )
    rendered = (kappa_p / math.pi) / (kappa_p ** 2 + (grid - omega_l) ** 2)
    incoherent = density - rendered * coherent_power
    return SpectrumResult(
        omega_l=omega_l, grid=grid, incoherent_density=incoherent,
        coherent_power=coherent_power, method="probe",
        meta={"epsilon": epsilon, "kappa_p": kappa_p,
              "photon_number": photon_number, "dims": space.dims,
              "total_density": density},
    )


def _probe_steady_states(gen_fixed: sp.spmatrix, gen_detune: sp.spmatrix,
                         n_p: sp.spmatrix, deltas: np.ndarray,
                         dims: tuple[int, ...]):
    """Steady state of gen_fixed + delta * gen_detune for every probe detuning.

    gen_detune, the superoperator of the probe number n_p, is diagonal and
    nonzero exactly on the probe coherences (Q: rho_01 and rho_10); the probe
    populations (P: rho_00, which holds the trace row, and rho_11) do not see
    the detuning.  Only the weak probe coupling links P and Q, so the
    constrained system splits into a detuning-independent block A_PP,
    factored once per call, and A_QQ + delta diag(shift_Q), factored per
    point.  Block Gauss-Seidel sweeps x_P = A_PP^-1 (b_P - A_PQ x_Q),
    x_Q = A_QQ^-1 (-A_QP x_P) run while the true residual of the full
    generator at least halves, at most _BLOCK_SWEEPS times, and stop early
    once that residual, falling at its last rate over the sweeps left, would
    still end above _BLOCK_TOL.  The last sweep is kept, not the one of
    least residual: the residual is set by the O(1) rho_00 and does not see
    the O(epsilon^2) rho_11, which each sweep takes from the coherences of
    the one before.  A point whose residual ends above _BLOCK_TOL is solved
    directly on the full generator.

    Two exact shortcuts halve what is factored.  A_PP is block triangular
    (probe decay takes rho_11 to rho_00, nothing takes rho_00 to rho_11), so
    it is solved through the LUs of its rho_11 and rho_00 blocks, rho_11
    first.  The generator maps rho^dagger to (L rho)^dagger, so only the
    rho_01 half of Q is solved and rho_10 is its mirror.

    Above the direct-solve limit every point is marched by steady_state.
    """
    dim = int(np.prod(dims))
    if dim > _DIRECT_SOLVE_LIMIT:
        for delta in deltas:
            yield steady_state((gen_fixed + delta * gen_detune).tocsr(), dims)
        return
    shift = gen_detune.diagonal()
    excited = np.repeat(n_p.diagonal().real, dim) > 0.5    # probe excited in the row
    blocks = [np.flatnonzero((shift == 0) & excited),
              np.flatnonzero((shift == 0) & ~excited),
              np.flatnonzero(shift.imag > 0)]                    # rho_01
    mirror = np.arange(dim * dim).reshape(dim, dim).T.ravel()[blocks[2]]
    a, b = _constrained(gen_fixed, dim)
    a = a.tocsr()
    rest = [np.setdiff1d(np.arange(dim * dim), idx) for idx in blocks]
    diagonal = [a[idx][:, idx].tocsc() for idx in blocks]
    coupling = [a[idx][:, others] for idx, others in zip(blocks, rest)]
    try:
        lu_p = [splu(diagonal[0]), splu(diagonal[1])]
    except RuntimeError as exc:
        raise SingularSystemError(f"probe_spectrum: sparse LU failed: {exc}") from exc
    for delta in deltas:
        gen = (gen_fixed + delta * gen_detune).tocsr()
        residual = np.inf
        try:
            lu_q = splu((diagonal[2] + sp.diags(delta * shift[blocks[2]])).tocsc())
            x = np.zeros(dim * dim, dtype=complex)
            previous = np.inf
            for sweep in range(1, _BLOCK_SWEEPS + 1):
                for idx, others, c, lu in zip(blocks, rest, coupling, lu_p + [lu_q]):
                    x[idx] = lu.solve(b[idx] - c @ x[others])
                x[mirror] = x[blocks[2]].conj()
                residual = _residual(gen, x)
                slow = residual > 0.5 * previous
                # the residual at this rate after the sweeps left
                reach = residual * (residual / previous) ** (_BLOCK_SWEEPS - sweep)
                if slow or reach > _BLOCK_TOL:
                    break
                previous = residual
        except RuntimeError:
            residual = np.inf
        if residual > _BLOCK_TOL:
            x = _direct_steady(gen, dim)
        yield _state_from_vector(x, dims)


# --- stochastic-Hamiltonian consistency check -------------------------------

@dataclass
class StochasticCheckReport:
    trace_distance: float
    method: str              # "factored" or "stepwise"


def stochastic_dephasing_check(deterministic_gen: sp.spmatrix, operator,
                               diffusion: float, initial: np.ndarray,
                               t_end: float, dt: float, n_traj: int,
                               seed: int, force_stepwise: bool = False
                               ) -> StochasticCheckReport:
    """Monte-Carlo average of trajectories with white-noise phase kicks vs the
    Lindblad evolution with jump sqrt(diffusion) * operator.

    Each step applies half the deterministic propagator, the exact unitary
    kick exp(-i sqrt(diffusion) dW O), and the second deterministic half.
    When the kick commutes with the deterministic generator (true for
    number-operator noise on a driveless cavity), every trajectory is the
    deterministic evolution times one phase per eigenvalue difference of O,
    driven by the summed noise; the trajectory average is then taken over
    those phases instead of stepping explicitly.  The result equals the
    stepwise path for the same seed.
    """
    op = operator.toarray() if sp.issparse(operator) else np.asarray(operator, dtype=complex)
    dim = op.shape[0]
    if np.max(np.abs(op - op.conj().T)) > 1e-12 * max(np.max(np.abs(op)), 1e-300):
        raise ParameterError("stochastic_dephasing_check: operator must be Hermitian")
    if diffusion < 0.0:
        raise ParameterError("stochastic_dephasing_check: diffusion must be >= 0")
    if dt <= 0.0 or t_end < dt:
        raise ParameterError("stochastic_dephasing_check: need 0 < dt <= t_end")
    if diffusion * dt > 1.0:
        raise ParameterError("stochastic_dephasing_check: diffusion * dt too large")
    if dim > 48:
        raise BudgetError("stochastic_dephasing_check: dimension above dense budget")
    n_steps = int(round(t_end / dt))
    t_end = n_steps * dt

    lam, vecs = eigh(op)
    basis = np.kron(vecs.conj().T, vecs.T)
    basis_inv = np.kron(vecs, vecs.conj())
    gen_eig = basis @ deterministic_gen.toarray() @ basis_inv
    deltas = (lam[:, None] - lam[None, :]).ravel()
    rho0 = vecs.conj().T @ np.asarray(initial, dtype=complex) @ vecs
    v0 = rho0.ravel()

    # in this basis the kick is diagonal with entries deltas; it commutes with
    # the generator when no entry of gen_eig links unequal deltas
    scale = np.max(np.abs(gen_eig))
    rows, cols = np.nonzero(np.abs(gen_eig) > 1e-13 * max(scale, 1e-300))
    span = max(np.max(np.abs(deltas)), 1.0)
    commutes = np.all(np.abs(deltas[rows] - deltas[cols]) <= 1e-9 * span)
    rng = np.random.default_rng(seed)
    root_d = math.sqrt(diffusion)

    def wiener_chunks():
        """Noise increments of all trajectories, 2048 trajectories at a time."""
        for start in range(0, n_traj, 2048):
            yield rng.standard_normal((min(2048, n_traj - start), n_steps)) * math.sqrt(dt)

    if commutes and not force_stepwise:
        slopes, labels = np.unique(deltas, return_inverse=True)
        phase_sums = sum(np.exp(-1j * root_d * np.outer(wiener.sum(axis=1), slopes)).sum(axis=0)
                         for wiener in wiener_chunks())
        factors = (phase_sums / n_traj)[labels]
        v_mc = expm_multiply(gen_eig * t_end, v0) * factors
        method = "factored"
    else:
        half_t = expm(gen_eig * (0.5 * dt)).T.copy()
        acc = np.zeros(dim * dim, dtype=complex)
        for wiener in wiener_chunks():
            states = np.broadcast_to(v0, (len(wiener), dim * dim)).copy()
            for k in range(n_steps):
                states = states @ half_t
                states *= np.exp(-1j * root_d * wiener[:, k, None] * deltas[None, :])
                states = states @ half_t
            acc += states.sum(axis=0)
        v_mc = acc / n_traj
        method = "stepwise"

    dissipator = -0.5 * diffusion * deltas ** 2
    v_ref = expm_multiply((gen_eig + np.diag(dissipator)) * t_end, v0)
    diff = (v_mc - v_ref).reshape(dim, dim)
    diff = 0.5 * (diff + diff.conj().T)
    distance = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    return StochasticCheckReport(trace_distance=distance, method=method)
