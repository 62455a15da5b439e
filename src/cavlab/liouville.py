"""Brute-force oracle on a truncated Hilbert space.

Everything here works on the full density matrix of the composite system
cavity x emitters (x probe), one site each.  Every emitter is a ladder
truncated at ``SpaceSpec.atom_dim`` levels: an ``hp`` emitter (bosonic, the
regime of the closed forms) keeps ``atom_cutoff`` quanta, a ``two_level``
emitter one.  A constant shift of H or of a Hermitian jump operator leaves
the generator unchanged, so the number operator of a two-level emitter
gives the same dynamics as sigma_z/2.

Operators.  One table, _levels, holds the level of every site in every
composite basis state.  A number operator is the diagonal of its site's row;
a lowering operator shifts the basis index by the product of the later
dims.  The emitters couple to the cavity through the collective lowering
operator L = sum_j l_j, as g (L^dagger a + L a^dagger).

Build.  Density matrices are vectorized row-major,
vec(A rho B) = (A kron B^T) vec(rho).  The generator is assembled in one pass
from H_eff = H - (i/2) sum_c c^dagger c: one kron per jump c plus two for
H_eff, summed in one conversion to CSR.

Steady states.  The generator with one row replaced by the trace
constraint is solved by sparse LU up to Hilbert dimension 32, and for a
single mode at any size.  The generator maps rho^dagger to (L rho)^dagger
and the trace row is real, so that system is real on the real coordinates y
of a Hermitian matrix x = T y, T the sparse basis of its diagonal and of the
real and imaginary parts of its upper triangle, and the LU is taken in real
arithmetic, with about a third of the bytes of a complex one.  Above the
limit, restarted GMRES solves it on one unknown per orbit of the
permutations of the emitter sites, which the shape of the space gives, kept
when the generator maps an invariant vector to an invariant vector.  It is
preconditioned by a block Gauss-Seidel sweep over excitation sectors (every
term but the cavity drive conserves the ket's minus the bra's quanta), in
complex arithmetic, as a sector k != 0 holds no Hermitian matrix.  The
orbits are laid out sector by sector, so the sweep is a block forward
substitution over contiguous ranges, and the first restart cycle stops once
GMRES's own residual estimate is below 1e-15.  The true residual decides:
a solve is accepted at 1e-14, and one that stalls above it falls back to
the LU.

Probe.  The weak-probe spectrum splits the constrained system into the
probe populations, Hermitian operators on the system and factored once per
scan in real arithmetic, and the probe coherences, which are not Hermitian,
factored per point in complex arithmetic; block Gauss-Seidel sweeps solve
each point, and a point whose sweeps stall above a residual of 1e-14 is
solved directly.  The populations' rho_00 block, the probe in its ground
state, is the constrained generator of the system without the probe, so its
LU also gives the bare steady state that sets the coherent line.  The space
without the probe must pass the LU's size rule.

Wigner.  The exact Fock-basis (Laguerre) recurrence along each diagonal.

Stochastic check.  Trajectories of commuting number-operator noise against
the dephasing channel, on one propagation.

Every generator build, steady_state call, probe scan and rung of the
cavity-cutoff scan logs what it did at DEBUG level on this module's logger.
The Hilbert-space dimension, the exact integer product of the dims, is
capped by a budget, overridable through CAVLAB_BUDGET.
"""
from __future__ import annotations

import contextlib
import functools
import logging
import math
import os
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, expm_multiply, gmres, spilu, splu
from scipy.sparse.linalg import norm as spnorm

from .analytic import SpectrumResult
from .errors import BudgetError, ParameterError, SingularSystemError
from .model import SystemParams, derive, finite_number
from .moments import MomentState

__all__ = [
    "SpaceSpec",
    "TruncatedState",
    "WignerGrid",
    "dimension_budget",
    "build_liouvillian",
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
# Largest Hilbert dimension of a composite space for the plain sparse LU;
# the sector solve runs above it, and the probe spectrum, each of whose blocks
# costs that LU, refuses a system without the probe above it.  Measured on one
# core with the real LU (two two-level emitters at 24 and 32, one hp emitter at
# 32, three or two hp emitters at 54; individual dephasing), LU against sector
# solve: 5 against 9-10 ms at dimension 24, 8-13 against 12-17 ms at 32, and
# 0.11-0.18 against 0.013-0.026 s at 54; a complex LU took 6 ms, 15-34 ms and
# 0.38-0.55 s, and 54-108 s (1.2 GB peak) at 108.  The limit stays at 32 so
# that each space keeps its path.  The LU of a single mode (a generator on a
# 2D grid) stays sparse and takes 0.02-0.03 s at dimension 81, where the
# sector solve of a strongly driven cavity with jitter stalls near a residual
# of 1e-9.
_DIRECT_SOLVE_LIMIT = 32
_DIRECT_TOL = 1e-10          # relative residual of a direct steady state
_BLOCK_SWEEPS = 10           # most block Gauss-Seidel sweeps per probe point
_BLOCK_TOL = 1e-14           # residual at which a block or sector solve is accepted
# Largest deviation of gen x from a vector constant on the emitter orbits,
# for x constant on them, relative to gen's largest entry times max |x| (see
# _permutation_orbits), and largest imaginary part of a diagonal row of the
# real LU, relative to the largest entry (see _HermitianLU).  Sums of the same
# terms in another order differ by a few ulps; a real asymmetry is far larger.
_SYMMETRY_TOL = 1e-13
_GMRES_RESTART = 20          # iterations per restart cycle of the sector solve
# GMRES's own residual estimate (a 2-norm over the reduced, preconditioned
# system) at which the first restart cycle stops; below _BLOCK_TOL, the bar
# on the full generator's residual, which the gate's sector solves then meet
# at 2.4e-15 or less after 7-12 iterations.
_GMRES_ATOL = 1e-15
_GMRES_CYCLES = 5            # most restart cycles before the direct fallback
# Incomplete sector factors.  At transmission-profile's dimension-162 rung
# (5,940 unknowns on the emitter orbits) they hold 108,187 entries and exact
# block LUs 395,468.  Exact factors bought no speed and cost memory: three
# alternating 12-s runs of perfbench's `gate` read run_s 0.597-0.607 s
# against 0.588-0.612 s, and peak_rss_mb 104.6-105.6 MB against 99.8-100.7.
_SECTOR_ILU = dict(drop_tol=1e-3, fill_factor=4)
_SECTOR_ORDERING = "MMD_AT_PLUS_A"   # least fill of SuperLU's orderings here
# Largest ||gen||_1 * t_end the stochastic check propagates: expm_multiply
# takes about that many products with the generator.  The stochastic-dephasing
# criterion needs 68; just below 1e4 a check took 0.2-0.3 s at dimension 4
# and 0.5 s at the criterion's dimension 18 (one BLAS thread).
_PROPAGATION_BUDGET = 1e4
_POSITIVITY_FLOOR = -1e-8    # most negative eigenvalue a steady state may have
_CUTOFF_REL_TOL = 1e-6       # moment change that ends the cavity-cutoff scan
_CUTOFF_ROUNDS = 4
_WIGNER_RESCALE = 1e100      # largest running value of the Wigner recurrence

_log = logging.getLogger(__name__)


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
        return math.prod(self.dims)

    def check_budget(self) -> "SpaceSpec":
        budget = dimension_budget()
        if self.dimension > budget:
            raise BudgetError(
                f"Hilbert dimension {self.dimension} exceeds budget {budget} "
                "(set CAVLAB_BUDGET to raise it)"
            )
        return self


def _levels(dims: tuple[int, ...]) -> np.ndarray:
    """Level of every site in every composite basis state, one row per site:
    the diagonal of that site's number operator.  Float, as sp.diags wants."""
    return np.indices(dims, dtype=float).reshape(len(dims), -1)


def _lowering(dims: tuple[int, ...], site: int) -> sp.csr_matrix:
    """Lowering operator of one site: a basis state holding level n > 0 there
    goes to sqrt(n) times the state whose index is smaller by the product of
    the later dims."""
    stride = math.prod(dims[site + 1:])
    return sp.diags(np.sqrt(_levels(dims)[site, stride:]) + 0j, stride, format="csr")


def _system_operators(params: SystemParams, omega_l: float, space: SpaceSpec
                      ) -> tuple[sp.csr_matrix, list[sp.csr_matrix]]:
    """System Hamiltonian in the frame rotating at the drive frequency, with
    the detunings of model.derive and the drive params.drive, and the collapse
    operators: cavity leak, cavity jitter, per-emitter decay and dephasing,
    collective dephasing (present only when the rate is nonzero)."""
    if space.n_atoms != params.n_atoms:
        raise ParameterError("build_liouvillian: space.n_atoms != params.n_atoms")
    dims, emitters = space.dims, range(1, 1 + params.n_atoms)
    levels = _levels(dims)
    a = _lowering(dims, 0)
    lows = [_lowering(dims, s) for s in emitters]
    collective = sum(lows, sp.csr_matrix(a.shape, dtype=complex))
    excitations = levels[1:1 + params.n_atoms].sum(axis=0)
    d, drive = derive(params, omega_l), params.drive
    h = (sp.diags(d.delta_c * levels[0] + d.delta_a * excitations)
         + 1j * (drive * a.conj().T - np.conj(drive) * a)
         + params.g * (collective.conj().T @ a + collective @ a.conj().T))
    jumps = [math.sqrt(2.0 * params.kappa) * a]
    if params.inv_tau_jitter > 0.0:
        jumps.append(sp.diags(math.sqrt(2.0 * params.inv_tau_jitter) * levels[0]))
    jumps += [math.sqrt(params.gamma_par) * low for low in lows]
    if params.inv_tau_indiv > 0.0:
        jumps += [sp.diags(math.sqrt(2.0 * params.inv_tau_indiv) * levels[s])
                  for s in emitters]
    if params.inv_tau_common > 0.0 and params.n_atoms > 0:
        jumps.append(sp.diags(math.sqrt(2.0 * params.inv_tau_common) * excitations))
    return h.tocsr(), [c.tocsr() for c in jumps]


def build_liouvillian(params: SystemParams, omega_l: float, space: SpaceSpec,
                      extra_hamiltonian: sp.spmatrix | None = None,
                      extra_jumps: tuple[sp.spmatrix, ...] = ()) -> sp.csr_matrix:
    """Sparse generator of the master equation on the vectorized state,
    -i H_eff x 1 + i 1 x conj(H_eff) + sum_c c x conj(c) with
    H_eff = H - (i/2) sum_c c^dagger c, its terms summed in one conversion to
    CSR.  Logs the dimension, jump count, nnz and seconds at DEBUG level."""
    start = time.perf_counter()
    space.check_budget()
    h, jumps = _system_operators(params, omega_l, space)
    if extra_hamiltonian is not None:
        h = h + extra_hamiltonian
    jumps += list(extra_jumps)
    h_eff = h - 0.5j * sum(c.conj().T @ c for c in jumps)
    ident = sp.identity(space.dimension, dtype=complex, format="coo")
    terms = [sp.kron(-1j * h_eff, ident, format="coo"),
             sp.kron(ident, 1j * h_eff.conj(), format="coo")]
    terms += [sp.kron(c, c.conj(), format="coo") for c in jumps]
    data, rows, cols = (np.concatenate([getattr(t, k) for t in terms])
                        for k in ("data", "row", "col"))
    gen = sp.csr_matrix((data, (rows, cols)), shape=terms[0].shape)
    gen.eliminate_zeros()
    build = dict(dimension=space.dimension, jumps=len(jumps), nnz=gen.nnz,
                 seconds=time.perf_counter() - start)
    _log.debug("build_liouvillian: dimension %(dimension)d, %(jumps)d jumps, "
               "nnz %(nnz)d, %(seconds).3f s", build, extra={"build": build})
    return gen


@dataclass
class TruncatedState:
    """Density matrix over the composite truncated space."""

    rho: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.rho.shape != (math.prod(self.dims),) * 2:
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
        if not np.isfinite(self.rho).all():
            raise SingularSystemError("state is not finite")
        if abs(self.trace() - 1.0) > 1e-10:
            raise SingularSystemError("state trace deviates from 1")
        if self.hermiticity_residual() > 1e-10:
            raise SingularSystemError("state is not Hermitian")
        if self.min_eigenvalue() < _POSITIVITY_FLOOR:
            raise SingularSystemError("state has a significantly negative eigenvalue")
        return self


@dataclass
class _SolveRecord:
    """What one steady_state call did."""

    method: str               # "direct", "sector" or "sector→direct"
    dimension: int            # Hilbert dimension
    unknowns: int = 0         # size of the system solved: dimension**2 unreduced
    sectors: int = 1
    largest_block: int = 0    # unknowns in the largest factored block
    fill: int = 0             # entries of every LU factor formed, real ones for a real factor
    iterations: int = 0       # GMRES iterations
    cycles: int = 0           # GMRES restart cycles run
    residual: float = math.nan
    seconds: float = 0.0
    error: str = ""           # text of the error a failed solve raised

    def __str__(self) -> str:
        return (f"steady_state {self.method}: dimension {self.dimension}, "
                f"{self.sectors} sectors, {self.unknowns} unknowns, "
                f"largest block {self.largest_block}, "
                f"fill {self.fill}, {self.iterations} GMRES iterations "
                f"in {self.cycles} cycles, "
                f"residual {self.residual:.2e}, {self.seconds:.3f} s"
                + (f", failed: {self.error}" if self.error else ""))


@contextlib.contextmanager
def _logged(record, key: str, start: float):
    """Log record at DEBUG level, under attribute key, as the block ends:
    with the seconds since start and, if the block raised, the error text."""
    try:
        yield
    except Exception as exc:
        record.error = str(exc)
        raise
    finally:
        record.seconds = time.perf_counter() - start
        _log.debug("%s", record, extra={key: record})


def _trace_row(dim: int) -> np.ndarray:
    """tr(rho) as a row over the vectorized state."""
    row = np.zeros(dim * dim)
    row[::dim + 1] = 1.0
    return row


def _constrained(gen: sp.spmatrix, trace: np.ndarray) -> tuple[sp.csc_matrix, np.ndarray]:
    """The generator with its first row replaced by the trace row, and the
    right-hand side e_0 that goes with it."""
    coo = gen.tocoo()
    keep = coo.row != 0
    cols = np.flatnonzero(trace)
    rows = np.concatenate([coo.row[keep], np.zeros(cols.size, dtype=coo.row.dtype)])
    data = np.concatenate([coo.data[keep], trace[cols]])
    a = sp.csc_matrix((data, (rows, np.concatenate([coo.col[keep], cols]))), shape=gen.shape)
    b = np.zeros(gen.shape[0], dtype=complex)
    b[0] = 1.0
    return a, b


def _residual(gen: sp.spmatrix, x: np.ndarray, diagonal: np.ndarray | None = None) -> float:
    """max |(gen + diag(diagonal)) x| / max |x| without forming the sum, inf if not finite."""
    gx = gen @ x if diagonal is None else gen @ x + diagonal * x
    finite = np.isfinite(x).all() and np.isfinite(gx).all()
    return float(np.max(np.abs(gx)) / max(np.max(np.abs(x)), 1e-300)) if finite else math.inf


def _refined_solve(lu, a: sp.spmatrix, b: np.ndarray, gen: sp.spmatrix,
                   caller: str) -> tuple[np.ndarray, float]:
    """Solve the constrained system a x = b through its LU with two steps of
    iterative refinement, and accept x on the residual of gen, the generator
    without the constraint, within _DIRECT_TOL."""
    x = lu.solve(b)
    for _ in range(2):
        x = x + lu.solve(b - a @ x)
    residual = _residual(gen, x)
    if residual > _DIRECT_TOL:
        raise SingularSystemError(
            f"{caller}: residual {residual:.3e} above tolerance {_DIRECT_TOL:.3e}"
        )
    return x, residual


# cached: a probe scan factors two blocks of one size, and scans and cutoff
# ladders repeat sizes; at n = 28 building T takes about 1 ms, the LU 7 ms
@functools.lru_cache(maxsize=8)
def _hermitian_basis(n: int) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """T, whose columns e_ii, e_ij + e_ji and i (e_ij - e_ji), i < j row by
    row, take the real coordinates y of a Hermitian n x n matrix to its
    vector x = T y, row-major; and the entries of x that hold y: the diagonal
    and upper triangle, whose real parts are the first coordinates, and the
    upper triangle, whose imaginary parts are the rest."""
    diagonal = np.arange(n) * (n + 1)
    i, j = np.triu_indices(n, 1)
    upper, lower = i * n + j, j * n + i
    e = sp.identity(n * n, format="csc")
    e_upper, e_lower = e[:, upper], e[:, lower]
    t = sp.hstack([e[:, diagonal], e_upper + e_lower, 1j * (e_upper - e_lower)])
    return t.tocsr(), np.concatenate([diagonal, upper]), upper


class _HermitianLU:
    """Sparse LU, in real arithmetic, of a constrained generator whose
    unknown is a Hermitian n x n matrix; like scipy's SuperLU it has solve
    and nnz.

    The generator maps rho^dagger to (L rho)^dagger and the trace row is
    real, so on the real coordinates y of x = T y (_hermitian_basis) the
    system is real (the coherence-vector picture of Alicki and Lendi, Lect.
    Notes Phys. 286 (1987)): a T y is the vector of a Hermitian matrix for
    every real y, so the rows of a T for the lower triangle are the
    conjugates of those for the upper one.  The real system is the real
    parts of a T's diagonal and upper-triangle rows stacked on the imaginary
    parts of its upper-triangle rows.  The imaginary parts of its diagonal
    rows are dropped and must be zero to _SYMMETRY_TOL of the largest entry
    of a (SingularSystemError if not).  solve takes a right-hand side
    Hermitian to rounding and returns an exactly Hermitian solution.  Equal
    matrices in canonical form, as every CSC matrix from a conversion is,
    give equal factors bit for bit.
    """

    def __init__(self, a: sp.spmatrix, n: int, caller: str):
        self._basis, self._real_rows, self._imaginary_rows = _hermitian_basis(n)
        rows = a.tocsr()[self._real_rows] @ self._basis
        if abs(rows[:n].imag).max() > _SYMMETRY_TOL * np.abs(a.data).max(initial=0.0):
            raise SingularSystemError(
                f"{caller}: the generator does not map rho^dagger to (L rho)^dagger")
        real = sp.vstack([rows.real, rows[n:].imag]).tocsc()
        del rows                  # before the LU, which keeps the memory peak down
        # the real parts of -i H and the like: about half the entries
        real.eliminate_zeros()
        try:
            self.factor = splu(real)
        except RuntimeError as exc:
            raise SingularSystemError(f"{caller}: sparse LU failed: {exc}") from exc

    @property
    def nnz(self) -> int:
        return self.factor.nnz

    def to_real(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([x.real[self._real_rows], x.imag[self._imaginary_rows]])

    def from_real(self, y: np.ndarray) -> np.ndarray:
        return self._basis @ y

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.from_real(self.factor.solve(self.to_real(b)))


def _direct_steady(gen: sp.spmatrix, dim: int, record: _SolveRecord | None = None,
                   caller: str = "steady_state") -> np.ndarray:
    a, b = _constrained(gen, _trace_row(dim))
    lu = _HermitianLU(a, dim, caller)
    x, residual = _refined_solve(lu, a, b, gen, caller)
    if record is not None:
        record.unknowns = dim * dim
        record.fill += lu.nnz
        record.residual = residual
    return x


def _sector_steady(gen: sp.spmatrix, dims: tuple[int, ...],
                   record: _SolveRecord) -> np.ndarray | None:
    """Steady state by restarted GMRES on the constrained generator over the
    orbits of the emitter permutations, preconditioned by one block
    Gauss-Seidel sweep over excitation sectors; None when the iteration stalls.

    The unknowns are the orbits of the permutations of the emitter sites
    (see _permutation_orbits), x = S y with S the 0/1 expansion of orbit
    values to entries.  When gen maps such an invariant x to an invariant
    vector, gen x = 0 holds on every row once it holds on one row per orbit,
    so the system solved is gen[reps] S, with the trace row weighting each
    diagonal orbit by its size.  When it does not, every entry is its own
    orbit.

    Entry (i, j) of the vectorized state lies in sector k = exc(i) - exc(j),
    exc counting the quanta of cavity, emitters and probe, and so does its
    whole orbit.  Every term of the generator but the cavity drive conserves
    k, and the drive moves it by one, so the constrained generator is block
    tridiagonal in k; the trace row lies in sector 0.  The orbits are laid
    out sector by sector in the sweep's order 0, 1, -1, 2, -2, ..., each -k
    sector as the mirror image of the +k one, so every block is a contiguous
    range.  The first restart cycle stops once GMRES's own residual estimate
    is below _GMRES_ATOL, and every later one runs in full.  The result is
    accepted on the true residual of the full generator, which ends every
    cycle, at _BLOCK_TOL, so a generator that breaks the sector structure
    costs iterations, not accuracy.  The solve gives up after a cycle that
    does not halve that residual, or after _GMRES_CYCLES, or when a sector
    block is singular.
    """
    dim = math.prod(dims)
    gen = gen.tocsr()
    reps, labels = _permutation_orbits(gen, dims)
    exc = _levels(dims).sum(axis=0)
    sector = (exc[:, None] - exc[None, :]).ravel()[reps]
    mirror = labels[np.arange(dim * dim).reshape(dim, dim).T.ravel()[reps]]
    blocks = [np.flatnonzero(sector == k) for k in range(int(exc.max()) + 1)]
    order = np.concatenate([blocks[0]] + [s for idx in blocks[1:] for s in (idx, mirror[idx])])
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    # orbit 0, entry (0, 0), stays first and keeps the trace row
    reps, labels = reps[order], position[labels]
    expand = sp.csr_matrix((np.ones(labels.size), (np.arange(labels.size), labels)))
    a, b = _constrained(gen[reps] @ expand, _trace_row(dim) @ expand)
    a = a.tocsr()
    record.unknowns = reps.size
    record.sectors = 2 * len(blocks) - 1
    record.largest_block = max(idx.size for idx in blocks)

    def count(_):
        record.iterations += 1

    precondition = _sector_preconditioner(a, [idx.size for idx in blocks], record)
    if precondition is None:
        return None
    y = np.zeros(reps.size, dtype=complex)
    residual, atol = np.inf, _GMRES_ATOL
    for _ in range(_GMRES_CYCLES):
        y, _ = gmres(a, b, x0=y, rtol=0.0, atol=atol, restart=_GMRES_RESTART,
                     maxiter=1, M=precondition, callback=count,
                     callback_type="pr_norm")
        record.cycles += 1
        x = y[labels]
        previous, residual = residual, _residual(gen, x)
        record.residual = residual
        if residual <= _BLOCK_TOL:
            return x
        if residual > 0.5 * previous or residual == math.inf:
            break
        # gmres returns at once from a start already below its tolerance,
        # which would read as a stall: later cycles run in full
        atol = 0.0
    return None


def _permutation_orbits(gen: sp.csr_matrix, dims: tuple[int, ...]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Representatives of the orbits of the vectorized indices under the
    permutations of the emitters, and every index's orbit; every index is its
    own orbit unless gen maps vectors constant on the orbits to such vectors.

    The emitters are the sites after the cavity with the first emitter's
    dims.  Entry (i, j) is represented by the entry whose (ket, bra) level
    pairs on those sites are sorted, and the representatives are these
    canonical indices in ascending order, so entry (0, 0), which holds the
    trace row, is orbit 0.  The reduction needs gen to map invariant vectors
    to invariant vectors, as then gen[reps] S y = 0 gives gen S y = 0.  That
    is checked on one generic invariant vector, seeded random values per
    orbit, to _SYMMETRY_TOL of gen's largest entry times its largest value.
    """
    sites, shape = len(dims), dims + dims
    digits = list(_levels(shape).astype(np.intp))
    emitters = [s for s in range(1, sites) if dims[s] == dims[1]]
    pairs = np.sort([digits[s] * dims[s] + digits[s + sites] for s in emitters], axis=0)
    for s, pair in zip(emitters, pairs):
        digits[s], digits[s + sites] = np.divmod(pair, dims[s])
    reps, labels = np.unique(np.ravel_multi_index(digits, shape), return_inverse=True)
    x = np.random.default_rng(0).random(reps.size)[labels]
    gx, scale = gen @ x, np.abs(gen.data).max(initial=0.0) * x.max()
    if np.abs(gx - gx[reps][labels]).max() > _SYMMETRY_TOL * scale:
        return np.arange(labels.size), np.arange(labels.size)
    return reps, labels


def _sector_preconditioner(a: sp.csr_matrix, sizes: list[int],
                           record: _SolveRecord) -> LinearOperator | None:
    """One block Gauss-Seidel sweep over the sectors k = 0, 1, -1, 2, -2, ...
    of the constrained generator a, whose unknowns are laid out in that
    order, sizes[|k|] of them in sector k; None if a block is singular.

    Each block is factored incompletely, which caps the fill, and exactly
    if its incomplete factorization fails.

    Only the blocks of k >= 0 are factored: the generator maps rho^dagger
    to (L rho)^dagger, so with the -k sector laid out as the mirror of the
    +k one its block is the complex conjugate of the block of k, and is
    solved as conj(F_k^-1 conj(r)), which is linear in r.
    """
    steps, lo = [], 0
    for k, size in enumerate(sizes):
        hi = lo + size
        block = a[lo:hi, lo:hi].tocsc()
        try:
            factor = spilu(block, permc_spec=_SECTOR_ORDERING, **_SECTOR_ILU)
        except RuntimeError:
            try:
                factor = splu(block, permc_spec=_SECTOR_ORDERING)
            except RuntimeError:
                return None
        record.fill += factor.nnz
        steps.append((lo, hi, a[lo:hi, :lo], factor.solve))
        if k:
            lo, hi = hi, hi + size
            steps.append((lo, hi, a[lo:hi, :lo],
                          lambda r, solve=factor.solve: np.conj(solve(np.conj(r)))))
        lo = hi

    def sweep(r: np.ndarray) -> np.ndarray:
        z = np.empty(r.size, dtype=complex)
        for lo, hi, lower, solve in steps:
            # block forward substitution: z is not yet set past this block
            z[lo:hi] = solve(r[lo:hi] - lower @ z[:lo])
        return z

    return LinearOperator(a.shape, matvec=sweep, dtype=complex)


def _takes_direct_solve(dims: tuple[int, ...]) -> bool:
    """Whether a space is small enough, or a single mode, for an exact LU."""
    return math.prod(dims) <= _DIRECT_SOLVE_LIMIT or len(dims) == 1


def steady_state(gen: sp.spmatrix, dims: tuple[int, ...]) -> TruncatedState:
    """Stationary density matrix of the generator.

    Up to the direct-solve size limit, and for a single mode at any size: a
    sparse LU solve with the trace constraint replacing one row, in real
    arithmetic (see _HermitianLU).  Above it: GMRES over the orbits of
    identical emitters, preconditioned by the excitation sectors (see
    _sector_steady), and the direct solve if that stalls; if that fails too,
    its error also names the residual and the GMRES iterations at which the
    sector solve stopped.  Each call logs a _SolveRecord at DEBUG level, a
    failed one with the error it raised.
    """
    dim = math.prod(dims)
    if gen.shape != (dim * dim, dim * dim):
        raise ParameterError("steady_state: generator shape does not match dims")
    start = time.perf_counter()
    record = _SolveRecord("direct", dim, largest_block=dim * dim)
    with _logged(record, "solve", start):
        if _takes_direct_solve(dims):
            x = _direct_steady(gen, dim, record)
        else:
            record.method = "sector"
            x = _sector_steady(gen, dims, record)
            if x is None:
                record.method = "sector→direct"
                stalled = (f"the sector solve stopped at residual {record.residual:.2e} "
                           f"after {record.iterations} GMRES iterations")
                try:
                    x = _direct_steady(gen, dim, record)
                except SingularSystemError as exc:
                    raise SingularSystemError(f"{exc}; {stalled}") from exc
    return _state_from_vector(x, dims)


def _state_from_vector(x: np.ndarray, dims: tuple[int, ...]) -> TruncatedState:
    rho = x.reshape(math.prod(dims), -1)
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
    rest = math.prod(state.dims[1:])
    rho = state.rho.reshape(d0, rest, d0, rest)
    return TruncatedState(np.einsum("arbr->ab", rho), (d0,))


def steady_moment_state(params: SystemParams, omega_l: float,
                        space: SpaceSpec) -> tuple[MomentState, TruncatedState]:
    """Steady state plus its first/second moments folded into a MomentState."""
    gen = build_liouvillian(params, omega_l, space)
    state = steady_state(gen, space.dims)
    n, dims = params.n_atoms, space.dims
    numbers = state.rho.diagonal().real @ _levels(dims).T     # <level> per site
    a = _lowering(dims, 0)
    s1 = expectation(state, a)
    s3 = float(numbers[0])
    if n == 0:
        return MomentState(s1, 0j, s3, 0j, 0.0, 0.0), state
    collective = sum(_lowering(dims, s) for s in range(1, 1 + n))
    s2 = expectation(state, collective) / n
    s4 = expectation(state, a.conj().T @ collective) / n
    s5 = float(numbers[1:1 + n].sum()) / n
    # <L^dagger L> = n s5 + n (n - 1) s6
    pairs = expectation(state, collective.conj().T @ collective).real - n * s5
    s6 = pairs / (n * (n - 1)) if n > 1 else 0.0
    return MomentState(s1, s2, s3, s4, s5, s6), state


def converged_moment_state(params: SystemParams, omega_l: float, space: SpaceSpec
                           ) -> tuple[MomentState, TruncatedState, SpaceSpec]:
    """Raise the cavity cutoff by 2 until the reported moments settle, at
    most _CUTOFF_ROUNDS times; SingularSystemError if they have not.  A
    rung's change is the largest change of a moment relative to the largest
    moment, so one that is zero by symmetry, and reads as rounding noise, does
    not hold the scan up.  Each rung logs its cutoff, dimension and relative
    moment change (NaN on the first) at DEBUG level."""
    current = space
    mstate, _ = steady_moment_state(params, omega_l, current)
    _log_rung(current, math.nan)
    for _ in range(_CUTOFF_ROUNDS):
        bigger = replace(current, cavity_cutoff=current.cavity_cutoff + 2)
        m2, s2 = steady_moment_state(params, omega_l, bigger)
        ref = np.max(np.abs(mstate.packed()))
        change = np.max(np.abs(m2.packed() - mstate.packed())) / max(ref, 1e-300)
        _log_rung(bigger, change)
        if change < _CUTOFF_REL_TOL:
            return m2, s2, bigger
        current, mstate = bigger, m2
    raise SingularSystemError(
        f"converged_moment_state: moments still changed by {change:.2e} "
        f"(tolerance {_CUTOFF_REL_TOL:.0e}) after {_CUTOFF_ROUNDS + 1} rungs, "
        f"cavity cutoff {space.cavity_cutoff} to {current.cavity_cutoff} "
        f"(dimension {current.dimension} of budget {dimension_budget()})"
    )


def _log_rung(space: SpaceSpec, change: float) -> None:
    rung = dict(cavity_cutoff=space.cavity_cutoff, dimension=space.dimension, change=change)
    _log.debug("converged_moment_state rung: cavity cutoff %(cavity_cutoff)d, "
               "dimension %(dimension)d, relative moment change %(change).2e",
               rung, extra={"rung": rung})


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

    Only the phase (2 alpha / |2 alpha|)^k of f_mn tells two points of one
    radius apart, so the recurrence runs once per distinct |2 alpha| (a grid
    symmetric about 0 shares each radius among up to eight points) and
    every point takes its radius's sum times its own phase, with each
    point's arithmetic in the order a point-by-point evaluation takes.

    f_00 underflows beyond |alpha| = 19.3, and f_mn can grow from there by
    more than a double holds, so every radius carries its own
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
    if not (np.isfinite(xs).all() and np.isfinite(ps).all()):
        raise ParameterError("wigner: the grid points must be finite")
    two_alpha = 2.0 * (xs[:, None] + 1j * ps[None, :])
    # the recurrence runs on the distinct radii; where indexes each point's
    radius, where = np.unique(np.abs(two_alpha), return_inverse=True)
    where = where.reshape(two_alpha.shape)
    x = radius ** 2
    unit = np.exp(1j * np.angle(two_alpha))
    with np.errstate(divide="ignore"):
        log_radius = np.log(radius)       # -inf at alpha = 0, where f_0k = 0 for k > 0
    h = 0.5 * (state.rho + state.rho.conj().T)
    corner_scale = -0.5 * x               # log |f_0k| of the current diagonal
    phase = np.ones(two_alpha.shape, dtype=complex)
    w = np.zeros(two_alpha.shape)
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
                magnitude = np.abs(cur)
                if magnitude.max() > _WIGNER_RESCALE:
                    # only the radii past the bound, so no radius's
                    # arithmetic depends on the others on the grid
                    size = np.where(magnitude > _WIGNER_RESCALE, magnitude, 1.0)
                    prev, cur, scale = prev / size, cur / size, scale + np.log(size)
                    weight = np.exp(scale)
        w += (2.0 if k else 1.0) * (phase * acc[where]).real
    return WignerGrid(xs, ps, (2.0 / math.pi) * w)


def wigner_grid_for_state(state: TruncatedState) -> tuple[np.ndarray, np.ndarray]:
    """Square 101 x 101 grid centered on the field amplitude, wide enough for
    the normalization check (about 5 standard deviations per quadrature)."""
    mean = expectation(state, _lowering(state.dims, 0))
    n_cav = float(state.rho.diagonal().real @ _levels(state.dims)[0])
    spread = math.sqrt(max(n_cav - abs(mean) ** 2, 0.0) + 0.5)
    half = abs(mean) + 5.0 * spread
    xs = np.linspace(-half, half, 101)
    return xs, xs.copy()


# --- Appendix-style probe spectrum ------------------------------------------

@dataclass
class _ProbeRecord:
    """What one probe_spectrum call did."""

    points: int
    factorizations: int = 0   # sparse LUs formed: rho_11, rho_00, per point, per fallback
    sweeps: int = 0           # block Gauss-Seidel sweeps over every point
    most_sweeps: int = 0      # at one point
    fallbacks: int = 0        # points solved directly on the full generator
    bare_residual: float = math.nan   # of the steady state without the probe
    backaction: float = 0.0   # largest probe amplitude over epsilon * |<a>|
    seconds: float = 0.0
    error: str = ""           # text of the error a failed scan raised

    def __str__(self) -> str:
        return (f"probe_spectrum: {self.points} points, "
                f"{self.factorizations} LU factorizations, {self.sweeps} sweeps "
                f"(at most {self.most_sweeps} at a point), "
                f"{self.fallbacks} direct fallbacks, "
                f"bare residual {self.bare_residual:.2e}, "
                f"worst back-action {self.backaction:.2f}, {self.seconds:.3f} s"
                + (f", failed: {self.error}" if self.error else ""))


def probe_spectrum(params: SystemParams, omega_l: float, grid: np.ndarray,
                   epsilon: float, kappa_p: float | None = None, *,
                   space: SpaceSpec) -> SpectrumResult:
    """Emission spectrum read out by a weakly coupled two-level probe mode.

    For every observation frequency the probe is detuned by omega - omega_l,
    the composite steady state is solved, and the probe occupation divided by
    pi * kappa_p * epsilon**2 estimates the total spectral density; the
    coherent line appears as a Lorentzian of width kappa_p and is subtracted
    to leave the incoherent part.  Its power |<a>|^2, and the photon number,
    come from the steady state without the probe, which is the solve of the
    rho_00 block of the probe populations (see _probe_steady_states): one
    generator is built per call.  Raises BudgetError before any solve when
    the space without the probe, the size of each block of the exact solve,
    fails the direct-solve rule, or the space with the probe exceeds the
    dimension budget.  Each call that builds the generator logs a
    _ProbeRecord at DEBUG level, a failed one with the error it raised.
    """
    start = time.perf_counter()
    grid = np.asarray(grid, dtype=float)
    if not (np.isfinite(omega_l) and np.isfinite(grid).all()):
        raise ParameterError("probe_spectrum: omega_l and the grid must be finite")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("probe_spectrum: epsilon must be in (0, 1)")
    if kappa_p is None:
        rates = [params.kappa, params.gamma_par, params.gamma_perp]
        rates += [r for r in (params.inv_tau_jitter,) if r > 0.0]
        kappa_p = min(rates) / 100.0
    if not 0.0 < kappa_p < math.inf:
        raise ParameterError("probe_spectrum: kappa_p must be positive and finite")
    if not space.probe_enabled:
        raise ParameterError("probe_spectrum: space must enable the probe mode")

    base = replace(space, probe_enabled=False)
    if not _takes_direct_solve(base.check_budget().dims):
        raise BudgetError(f"probe_spectrum: dimension {base.dimension} without the "
                          f"probe is above the direct-solve limit {_DIRECT_SOLVE_LIMIT}")
    space.check_budget()
    g_p = epsilon * kappa_p
    dims = space.dims
    a_p, a_c = _lowering(dims, len(dims) - 1), _lowering(dims, 0)
    coupling = g_p * (a_c.conj().T @ a_p + a_c @ a_p.conj().T)
    gen_fixed = build_liouvillian(
        params, omega_l, space,
        extra_hamiltonian=coupling,
        extra_jumps=(math.sqrt(2.0 * kappa_p) * a_p,),
    )
    record = _ProbeRecord(points=grid.size)
    with _logged(record, "probe", start):
        bare, states = _probe_steady_states(gen_fixed, grid - omega_l, dims, record)
        mean_field = expectation(bare, _lowering(base.dims, 0))
        photon_number = float(bare.rho.diagonal().real @ _levels(base.dims)[0])
        coherent_power = abs(mean_field) ** 2

        density = np.empty(grid.size)
        probe_level = _levels(dims)[-1]
        for k, state in enumerate(states):
            occupation = float(state.rho.diagonal().real @ probe_level)
            density[k] = occupation / (math.pi * kappa_p * epsilon ** 2)
            probe_amp = abs(expectation(state, a_p))
            if coherent_power > 0.0:
                record.backaction = max(
                    record.backaction, probe_amp / (epsilon * math.sqrt(coherent_power)))
    if record.backaction > 2.0:
        warnings.warn(
            f"probe_spectrum: probe amplitude reached {record.backaction:.2f}x "
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


def _probe_steady_states(gen_fixed: sp.spmatrix, deltas: np.ndarray,
                         dims: tuple[int, ...], record: _ProbeRecord):
    """The steady state without the probe, and an iterator over the steady
    states of gen_fixed - i delta [n_p, .] for every probe detuning, n_p the
    number operator of the probe, the last site.  Fills in record.

    -i [n_p, .] is diagonal, -i times the ket's minus the bra's probe level,
    so nonzero exactly on the probe coherences (Q: rho_01 and rho_10); the
    probe populations (P: rho_00, which holds the trace row, and rho_11) do
    not see the detuning.  Only the weak probe coupling links P and Q, so the
    constrained system splits into a detuning-independent block A_PP,
    factored once per call, and A_QQ + delta diag(shift_Q), factored per
    point.  Block Gauss-Seidel sweeps x_P = A_PP^-1 (b_P - A_PQ x_Q),
    x_Q = A_QQ^-1 (-A_QP x_P) run while the true residual of the full
    generator at least halves, at most _BLOCK_SWEEPS times, and stop early
    once that residual, falling at its last rate over the sweeps left, would
    still end above _BLOCK_TOL.  The last sweep is kept, not the one of
    least residual: the residual is set by the O(1) rho_00 and does not see
    the O(epsilon^2) rho_11, which each sweep takes from the coherences of
    the one before.  The residual is taken as gen_fixed x + delta shift x;
    the shifted generator is formed only for a point whose residual ends
    above _BLOCK_TOL, which is solved directly on it.

    Four exact shortcuts cut what is factored.  A_PP is block triangular
    (probe decay takes rho_11 to rho_00, nothing takes rho_00 to rho_11), so
    it is solved through the LUs of its rho_11 and rho_00 blocks, rho_11
    first.  With the probe in its ground state on both sides, its coupling,
    decay and detuning all vanish, so the rho_00 block of gen_fixed is the
    generator of the system without the probe, its entries in the same
    order, and the rho_00 block of A_PP that generator constrained: its LU
    solves the bare steady state as _direct_steady does, on rhs b_00 = e_0.
    The generator maps rho^dagger to (L rho)^dagger, so rho_11 and rho_00
    are Hermitian operators on the system and their blocks are factored in
    real arithmetic (_HermitianLU), and only the rho_01 half of Q, which is
    not Hermitian, is solved in complex arithmetic, rho_10 being its mirror.
    """
    dim = math.prod(dims)
    probe = _levels(dims)[-1]
    ket, bra = np.repeat(probe, dim), np.tile(probe, dim)
    shift = -1j * (ket - bra)
    rho_01 = np.flatnonzero((ket == 0) & (bra == 1))
    # rho_11, rho_00, rho_01 and rho_10, the mirror image of rho_01: every
    # block and coupling of the sweep is then a slice of contiguous ranges
    order = np.concatenate([np.flatnonzero((ket == 1) & (bra == 1)),
                            np.flatnonzero((ket == 0) & (bra == 0)), rho_01,
                            np.arange(dim * dim).reshape(dim, dim).T.ravel()[rho_01]])
    m = rho_01.size
    ranges = [(0, m), (m, 2 * m), (2 * m, 3 * m)]
    a, b = _constrained(gen_fixed, _trace_row(dim))
    # permuted one copy at a time, which keeps the scan's memory peak down
    a = a[:, order]
    a = a.tocsr()
    a, b = a[order], b[order]
    diagonal = [a[lo:hi, lo:hi].tocsc() for lo, hi in ranges]
    # before the coupling slices exist, which keeps the scan's memory peak down
    lu_p = [_HermitianLU(block, dim // 2, "probe_spectrum") for block in diagonal[:2]]
    coupling = [(a[lo:hi, :lo], a[lo:hi, hi:]) for lo, hi in ranges]
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    record.factorizations = 2
    ground = order[m:2 * m]
    x, record.bare_residual = _refined_solve(
        lu_p[1], diagonal[1], b[m:2 * m], gen_fixed.tocsr()[ground][:, ground],
        "probe_spectrum: steady state without the probe")
    bare = _state_from_vector(x, dims[:-1])

    def points():
        for delta in deltas:
            diag = delta * shift
            residual = np.inf
            try:
                lu_q = splu((diagonal[2] + sp.diags(diag[rho_01])).tocsc())
                record.factorizations += 1
                y = np.zeros(dim * dim, dtype=complex)
                previous = np.inf
                for sweep in range(1, _BLOCK_SWEEPS + 1):
                    for (lo, hi), (lower, upper), lu in zip(ranges, coupling, lu_p + [lu_q]):
                        y[lo:hi] = lu.solve(b[lo:hi] - lower @ y[:lo] - upper @ y[hi:])
                    y[3 * m:] = y[2 * m:3 * m].conj()
                    x = y[position]
                    record.sweeps += 1
                    record.most_sweeps = max(record.most_sweeps, sweep)
                    residual = _residual(gen_fixed, x, diag)
                    # the residual at this rate after the sweeps left
                    reach = residual * (residual / previous) ** (_BLOCK_SWEEPS - sweep)
                    if not (residual <= 0.5 * previous and reach <= _BLOCK_TOL):
                        break
                    previous = residual
            except RuntimeError:
                residual = np.inf
            if residual > _BLOCK_TOL:
                x = _direct_steady((gen_fixed + sp.diags(diag)).tocsr(), dim,
                                   caller="probe_spectrum")
                record.factorizations += 1
                record.fallbacks += 1
            yield _state_from_vector(x, dims)

    return bare, points()


# --- stochastic-Hamiltonian consistency check -------------------------------

def stochastic_dephasing_check(deterministic_gen: sp.spmatrix, operator,
                               diffusion: float, initial: np.ndarray,
                               t_end: float, n_traj: int | list[int],
                               seed: int | list[int]) -> float | np.ndarray:
    """Trace distance between the average of trajectories with white-noise
    phase kicks and the Lindblad evolution with jump sqrt(diffusion) * operator.

    The operator is real diagonal (a number operator), and its kick must
    commute with the generator (true for number-operator noise on a driveless
    cavity).  Every trajectory is then the deterministic evolution times
    exp(-i sqrt(diffusion) W delta) for each eigenvalue difference delta of
    the operator, where W ~ N(0, t_end) is the trajectory's summed noise, so
    one draw of W per trajectory averages the kicks exactly, with no time step.
    The phases of the sorted slopes |delta| come as running products of one
    complex exponential per trajectory and distinct slope step: one
    exponential per trajectory for a number operator, never more than one
    per slope for any real spectrum.
    The Lindblad reference is that evolution times exp(-diffusion t_end delta**2 / 2).
    The evolution costs about ||gen||_1 * t_end products with the generator;
    above _PROPAGATION_BUDGET the check raises BudgetError before it.
    n_traj and seed may be equal-length sequences: one draw per pair, all on
    the one evolution, and an array of one trace distance per draw.
    """
    op = operator.toarray() if sp.issparse(operator) else np.asarray(operator)
    gen = sp.csr_matrix(deterministic_gen)
    dim = op.shape[0] if op.ndim == 2 else 0
    if (op.shape != (dim, dim) or gen.shape != (dim * dim, dim * dim)
            or np.size(initial) != dim * dim):
        raise ParameterError(
            "stochastic_dephasing_check: operator, generator and initial sizes disagree")
    lam = np.diag(op).real
    if not np.array_equal(op, np.diag(lam)):
        raise ParameterError(
            "stochastic_dephasing_check: operator must be Hermitian and diagonal")
    if not 0.0 <= diffusion < math.inf:
        raise ParameterError("stochastic_dephasing_check: diffusion must be finite and >= 0")
    # each value as given: a numeric array would turn True beside an int into 1
    n_trajs, seeds = (np.asarray(value, dtype=object).ravel().tolist()
                      for value in (n_traj, seed))
    for name, values in (("n_traj", n_trajs), ("seed", seeds)):
        for value in values:
            finite_number(f"stochastic_dephasing_check: {name}", value, whole=True)
    n_trajs, seeds = [int(n) for n in n_trajs], [int(s) for s in seeds]
    if (not 0.0 < t_end < math.inf or np.shape(n_traj) != np.shape(seed)
            or min(n_trajs, default=0) < 1):
        raise ParameterError("stochastic_dephasing_check: need finite t_end > 0 and "
                             "n_traj >= 1, with one seed per n_traj")
    if min(seeds) < 0:
        raise ParameterError("stochastic_dephasing_check: seed must be >= 0")
    stiffness = spnorm(gen, 1) * t_end
    if stiffness > _PROPAGATION_BUDGET:
        raise BudgetError(
            f"stochastic_dephasing_check: ||gen||_1 * t_end = {stiffness:.3g} exceeds "
            f"the propagation budget {_PROPAGATION_BUDGET:.0e}")

    deltas = (lam[:, None] - lam[None, :]).ravel()
    v0 = np.asarray(initial, dtype=complex).ravel()

    # the kick is diagonal with entries deltas; it commutes with the
    # generator when no entry of gen links unequal deltas
    entries = gen.tocoo()
    magnitude = np.abs(entries.data)
    linked = magnitude > 1e-13 * max(magnitude.max(initial=0.0), 1e-300)
    rows, cols = entries.row[linked], entries.col[linked]
    span = max(np.max(np.abs(deltas)), 1.0)
    if np.any(np.abs(deltas[rows] - deltas[cols]) > 1e-9 * span):
        raise ParameterError(
            "stochastic_dephasing_check: the kick does not commute with the generator")

    u = expm_multiply(gen * t_end, v0)
    lindblad = np.exp(-0.5 * diffusion * t_end * deltas ** 2)
    # slopes[0] = 0 (the populations); exp(-i sqrt(D) W s_j) is the product
    # of the factors of the steps s_i - s_i-1, i <= j
    slopes, labels = np.unique(np.abs(deltas), return_inverse=True)
    steps, step_of = np.unique(np.diff(slopes), return_inverse=True)
    distances = []
    for n, s in zip(n_trajs, seeds):
        wiener = np.random.default_rng(s).standard_normal(n) * math.sqrt(t_end)
        factors = np.exp(-1j * math.sqrt(diffusion) * np.outer(steps, wiener))
        trajectory_phase = np.ones(n, dtype=complex)
        phase = np.ones(len(slopes), dtype=complex)
        for j, step in enumerate(step_of, start=1):
            trajectory_phase *= factors[step]
            phase[j] = trajectory_phase.mean()
        phase = phase[labels]
        kick = np.where(deltas < 0, phase.conj(), phase)      # -delta kicks by the conjugate
        diff = (u * (kick - lindblad)).reshape(dim, dim)
        distances.append(0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))
    return np.array(distances) if np.ndim(n_traj) else float(distances[0])
