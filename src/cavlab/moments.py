"""Oracle based on the closed set of first and second field/emitter moments.

For the linearised (bosonic-emitter) model the Heisenberg equations close on
six moments once permutation symmetry over identical emitters is used:

===== ======================= =======================================
s1    ``<a_c>``               mean cavity field
s2    ``<a_j>``               mean emitter amplitude (any j)
s3    ``<a_c^dag a_c>``       cavity photon number
s4    ``<a_c^dag a_j>``       cavity-emitter cross moment
s5    ``<a_j^dag a_j>``       emitter excitation (p_exc)
s6    ``<a_k^dag a_j>``       emitter-emitter cross moment, k != j
===== ======================= =======================================

Channel bookkeeping follows from the commutation structure of the jump
operators: the common dephasing channel commutes with every emitter-emitter
bilinear, so it damps only the amplitudes (through ``gamma_perp``) and the
cavity-emitter cross moment; the individual channel additionally damps s6 at
twice its rate; cavity jitter damps s1 and s4 but not the photon number.
This module is independent of :mod:`cavlab.analytic` (no closed-form results
are consumed here) and is validated against the full density-matrix oracle.

A non-reduced per-emitter variant (every ``<a_k^dag a_j>`` kept) is retained
for small emitter numbers as a cross-check of the symmetry reduction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import SpectrumResult
from .errors import ParameterError, SingularSystemError
from .model import SystemParams

__all__ = [
    "MomentState",
    "derivative",
    "steady_state",
    "regression_spectrum",
    "per_atom_steady_state",
    "intensity_from_state",
    "energy_balance_residual",
]


@dataclass(frozen=True)
class MomentState:
    """Snapshot of the six symmetry-reduced moments: scalars for one drive
    frequency, arrays of one shape for a grid of them."""

    s1: complex
    s2: complex
    s3: float
    s4: complex
    s5: float
    s6: float

    def packed(self) -> np.ndarray:
        """Real 9-vector [Re s1, Im s1, Re s2, Im s2, s3, Re s4, Im s4, s5, s6],
        along the last axis when the fields are arrays."""
        parts = (self.s1.real, self.s1.imag, self.s2.real, self.s2.imag,
                 self.s3, self.s4.real, self.s4.imag, self.s5, self.s6)
        return np.stack(np.broadcast_arrays(*parts), axis=-1)

    @staticmethod
    def from_packed(x: np.ndarray) -> "MomentState":
        """Inverse of :meth:`packed`; a stack of 9-vectors gives array fields."""
        x = np.asarray(x, dtype=float)
        fields = (x[..., 0] + 1j * x[..., 1], x[..., 2] + 1j * x[..., 3], x[..., 4],
                  x[..., 5] + 1j * x[..., 6], x[..., 7], x[..., 8])
        if x.ndim == 1:
            fields = (value.item() for value in fields)
        return MomentState(*fields)


def derivative(params: SystemParams, omega_l: float | np.ndarray,
               state: MomentState) -> MomentState:
    """Time derivative of the reduced moment set; ``omega_l`` and the
    fields of ``state`` may be arrays, which broadcast."""
    n = params.n_atoms
    kappa = params.kappa
    gp = params.gamma_perp
    g = params.g
    delta_c = params.omega_c - omega_l
    delta_a = params.omega_a - omega_l
    drive = math.sqrt(2.0 * params.kappa1) * params.beta
    gamma_c = kappa + params.inv_tau_jitter       # mean-field cavity damping

    ds1 = -(gamma_c + 1j * delta_c) * state.s1 - 1j * g * n * state.s2 + drive
    ds3 = (
        -2.0 * kappa * state.s3
        + 2.0 * (drive * state.s1.conjugate()).real
        + 2.0 * g * n * state.s4.imag
    )
    if n == 0:
        return MomentState(ds1, 0j, ds3, 0j, 0.0, 0.0)

    ds2 = -(gp + 1j * delta_a) * state.s2 - 1j * g * state.s1
    ds4 = (
        -(gamma_c + gp + 1j * (delta_a - delta_c)) * state.s4
        + drive.conjugate() * state.s2
        - 1j * g * state.s3
        + 1j * g * (state.s5 + (n - 1) * state.s6)
    )
    ds5 = -2.0 * g * state.s4.imag - params.gamma_par * state.s5
    rate6 = 2.0 * params.inv_tau_indiv + params.gamma_par
    if n >= 2:
        ds6 = -2.0 * g * state.s4.imag - rate6 * state.s6
    else:
        ds6 = -rate6 * state.s6   # no emitter pairs: s6 relaxes to zero
    return MomentState(ds1, ds2, ds3, ds4, ds5, ds6)


def _affine_parts(fun, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrices and offsets of a real-affine map, probed in one call.

    ``fun`` maps a ``(dim + 1, dim)`` stack of probe vectors (zero, then each
    basis vector) to a ``(dim + 1, ..., dim)`` stack of images; the result is
    the ``(..., dim, dim)`` matrices and ``(..., dim)`` offsets.
    """
    images = fun(np.vstack([np.zeros(dim), np.eye(dim)]))
    offset = images[0]
    return np.moveaxis(images[1:] - offset, 0, -1), offset


def _solve_equilibrated(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Batched linear solve with power-of-two row/column scaling and one
    refinement step; ``matrix`` is ``(..., m, m)`` and ``rhs`` ``(..., m)``."""

    def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (a @ v[..., None])[..., 0]

    row = np.abs(matrix).max(axis=-1)
    if (row == 0.0).any():
        raise SingularSystemError(f"{what}: structurally singular system")
    rs = np.exp2(np.round(np.log2(row)))
    scaled = matrix / rs[..., :, None]
    col = np.abs(scaled).max(axis=-2)
    col[col == 0.0] = 1.0
    cs = np.exp2(np.round(np.log2(col)))
    scaled = scaled / cs[..., None, :]

    def solve(b: np.ndarray) -> np.ndarray:
        return np.linalg.solve(scaled, (b / rs)[..., None])[..., 0] / cs

    try:
        x = solve(rhs)
        x = x + solve(rhs - matvec(matrix, x))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{what}: {exc}") from exc
    residual = rhs - matvec(matrix, x)
    scale = row.max(axis=-1) * np.maximum(np.abs(x).max(axis=-1), 1e-300)
    if (np.abs(residual).max(axis=-1) > 1e-8 * scale).any():
        raise SingularSystemError(f"{what}: residual check failed")
    return x


def _fluctuation_parts(params: SystemParams, a: np.ndarray, b: np.ndarray,
                       c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factorised second moments and the noise sources of their remainder,
    for first moments ``s1 = a + ib`` and ``s2 = c + id``.

    Write each second moment as its factorised value plus an incoherent part
    ``d``: ``s3 = |s1|**2 + d3``, ``s4 = conj(s1) s2 + d4``, ``s5 = |s2|**2 +
    d5`` and ``s6 = |s2|**2 + d6`` (``s6 = d6`` for one emitter).  Subtracting
    the product rule from :func:`derivative` cancels the drive exactly:
    ``d`` obeys the homogeneous second-moment equations plus sources that
    are noise rates times ``|s1|**2`` or ``|s2|**2``.  Solving for ``d``
    keeps every second moment free of cancellation, which near a
    transmission zero loses more than 7 digits otherwise.  Both arrays are
    packed like entries 4..8 of :meth:`MomentState.packed`.  The factorised
    values are rounded as Python's complex ``abs`` and product round them
    (hypot, no fused multiply-add), so without noise ``s3 == abs(s1) ** 2``
    and ``s4 == s1.conjugate() * s2`` hold exactly.
    """
    n1, n2 = np.hypot(a, b) ** 2, np.hypot(c, d) ** 2
    pairs = params.n_atoms >= 2
    factorised = np.stack([n1, a * c - (-b) * d, a * d + (-b) * c, n2, n2 * pairs], axis=-1)
    zero = np.zeros_like(n1)
    sources = np.stack([
        2.0 * params.inv_tau_jitter * n1, zero, zero,
        2.0 * (params.inv_tau_indiv + params.inv_tau_common) * n2,
        2.0 * params.inv_tau_common * n2 * pairs,
    ], axis=-1)
    return factorised, sources


def _steady_solution(params: SystemParams, omegas: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed steady moments, their incoherent parts (see
    :func:`_fluctuation_parts`) and the homogeneous matrices of
    :func:`derivative`, at a flat array of drive frequencies."""

    def fun(probes: np.ndarray) -> np.ndarray:
        state = MomentState.from_packed(probes[:, None, :])
        return derivative(params, omegas, state).packed()

    matrix, offset = _affine_parts(fun, 9)
    # packed entries 0..3 are the first moments, 4..8 the second; without
    # emitters only Re s1, Im s1 and s3 move
    n1, n2 = (2, 1) if params.n_atoms == 0 else (4, 5)
    first, second = slice(0, n1), slice(4, 4 + n2)
    x = np.zeros(offset.shape)
    # the first moments do not depend on the second ones
    x[:, first] = _solve_equilibrated(matrix[:, first, first], -offset[:, first],
                                      "moments.steady_state")
    factorised, sources = _fluctuation_parts(params, *x[:, :4].T)
    incoherent = np.zeros(factorised.shape)
    incoherent[:, :n2] = _solve_equilibrated(matrix[:, second, second], -sources[:, :n2],
                                             "moments.steady_state")
    x[:, second] = factorised[:, :n2] + incoherent[:, :n2]
    return x, incoherent, matrix


def steady_state(params: SystemParams, omega_l: float | np.ndarray) -> MomentState:
    """Fixed point of :func:`derivative`, found by direct linear solves.

    The first moments are solved first, then the incoherent parts of the
    second moments (see :func:`_fluctuation_parts`).  ``omega_l`` may be an
    array of drive frequencies: the systems of all points are built and
    solved together, and the fields of the returned state are arrays of its
    shape.  A scalar gives scalar fields.
    """
    omegas = np.asarray(omega_l, dtype=float)
    x, _, _ = _steady_solution(params, omegas.reshape(-1))
    return MomentState.from_packed(x.reshape(omegas.shape + (9,)))


# --- correlation spectrum via the regression of the first-moment system ----

def regression_spectrum(params: SystemParams, omega_l: float,
                        grid: np.ndarray) -> SpectrumResult:
    """Emission spectrum from the steady-state two-time field correlation.

    By the quantum regression theorem (Carmichael, *Statistical Methods in
    Quantum Optics 1*, ch. 1) the fluctuation part of the correlation pair
    ``(<a_c^dag(0) a_c(tau)>, <a_c^dag(0) a_j(tau)>)`` obeys the homogeneous
    first-moment system of :func:`derivative`, ``u(tau) = exp(A tau) u0``,
    where ``u0`` holds the incoherent parts ``(d3, d4)`` of the steady-state
    second moments (see :func:`_fluctuation_parts`).  The lag-infinity
    plateau ``|s1|**2`` is the coherent power.  The incoherent density is the
    one-sided Fourier transform of the cavity component of ``u(tau)``, which
    for a decaying ``A`` is the exact resolvent

        S(omega) = Re[-((A + i (omega - omega_l))^-1 u0)_cavity] / pi,

    solved for every grid point at once.  ``A`` and ``u0`` are kept in the
    packed real form (Re, Im pairs), so the cavity component is entry 0
    plus i times entry 1 of the solution.
    """
    grid = np.asarray(grid, dtype=float)
    x, incoherent, matrix = _steady_solution(params, np.array([omega_l], dtype=float))
    n1 = 2 if params.n_atoms == 0 else 4
    block = matrix[0, :n1, :n1]
    if np.min(-np.linalg.eigvals(block).real) <= 0.0:
        raise SingularSystemError("regression_spectrum: correlation system is not decaying")

    u0 = np.array([incoherent[0, 0], 0.0, incoherent[0, 1], incoherent[0, 2]])[:n1]
    shifted = block + 1j * (grid - omega_l)[:, None, None] * np.eye(n1)
    transform = -np.linalg.solve(shifted, u0[:, None])[:, :2, 0] @ np.array([1.0, 1j])
    ss = MomentState.from_packed(x[0])
    return SpectrumResult(
        omega_l=omega_l, grid=grid, incoherent_density=transform.real / math.pi,
        coherent_power=abs(ss.s1) ** 2, method="regression",
        meta={"photon_number": ss.s3},
    )


# --- non-reduced per-emitter cross-check -----------------------------------

def _per_atom_derivative(params: SystemParams, omega_l: float,
                         z: np.ndarray) -> np.ndarray:
    """Derivative of the full per-emitter moment set, complex packed.

    Layout: [a_c, a_1..a_N, n_c, c_1..c_N, m_11..m_NN] where
    ``c_j = <a_c^dag a_j>`` and ``m_kj = <a_k^dag a_j>`` row-major.
    """
    n = params.n_atoms
    kappa = params.kappa
    gp = params.gamma_perp
    g = params.g
    delta_c = params.omega_c - omega_l
    delta_a = params.omega_a - omega_l
    drive = math.sqrt(2.0 * params.kappa1) * params.beta
    gamma_c = kappa + params.inv_tau_jitter

    a_c = z[0]
    a = z[1:1 + n]
    n_c = z[1 + n]
    c = z[2 + n:2 + 2 * n]
    m = z[2 + 2 * n:].reshape(n, n)

    out = np.empty_like(z)
    out[0] = -(gamma_c + 1j * delta_c) * a_c - 1j * g * a.sum() + drive
    out[1:1 + n] = -(gp + 1j * delta_a) * a - 1j * g * a_c
    out[1 + n] = (
        -2.0 * kappa * n_c + drive * np.conj(a_c) + np.conj(drive) * a_c
        - 1j * g * (c.sum() - np.conj(c).sum())
    )
    out[2 + n:2 + 2 * n] = (
        -(gamma_c + gp + 1j * (delta_a - delta_c)) * c
        + np.conj(drive) * a - 1j * g * n_c + 1j * g * m.sum(axis=0)
    )
    dm = 1j * g * (c[None, :] - np.conj(c)[:, None])
    dm = dm - (2.0 * params.inv_tau_indiv + params.gamma_par) * m
    dm[np.diag_indices(n)] += 2.0 * params.inv_tau_indiv * np.diag(m)
    out[2 + 2 * n:] = dm.reshape(-1)
    return out


def per_atom_steady_state(params: SystemParams, omega_l: float) -> MomentState:
    """Steady state of the non-reduced per-emitter system, folded back to
    the symmetry-reduced representation.  Intended for n_atoms <= 3."""
    n = params.n_atoms
    if not 1 <= n <= 3:
        raise ParameterError("per_atom_steady_state: supported for 1 <= n_atoms <= 3")
    dim_c = 2 + 2 * n + n * n

    def fun(probes: np.ndarray) -> np.ndarray:
        return np.array([_per_atom_derivative(params, omega_l, x.view(complex)).view(float)
                         for x in probes])

    matrix, offset = _affine_parts(fun, 2 * dim_c)
    x = _solve_equilibrated(matrix, -offset, "per_atom_steady_state")
    z = x.view(complex)
    a = z[1:1 + n]
    c = z[2 + n:2 + 2 * n]
    m = z[2 + 2 * n:].reshape(n, n)
    off_diag = (m.sum() - np.trace(m)) / (n * (n - 1)) if n > 1 else 0.0
    return MomentState(
        s1=complex(z[0]), s2=complex(a.mean()), s3=float(z[1 + n].real),
        s4=complex(c.mean()), s5=float(np.trace(m).real / n),
        s6=float(np.real(off_diag)),
    )


# --- derived intensities and balance checks --------------------------------

def intensity_from_state(params: SystemParams, state: MomentState) -> tuple[float, float]:
    """(R, T) from steady moments via the input-output relations."""
    flux = abs(params.beta) ** 2
    if flux == 0.0:
        raise ParameterError("intensity_from_state: drive amplitude is zero")
    drive = math.sqrt(2.0 * params.kappa1) * params.beta
    big_r = (
        2.0 * params.kappa1 * state.s3
        - 2.0 * (drive * state.s1.conjugate()).real
        + flux
    ) / flux
    big_t = 2.0 * params.kappa2 * state.s3 / flux
    return big_r, big_t


def energy_balance_residual(params: SystemParams, state: MomentState) -> float:
    """Relative mismatch of photon outflow vs drive work in the steady state."""
    drive = math.sqrt(2.0 * params.kappa1) * params.beta
    inflow = 2.0 * (drive * state.s1.conjugate()).real
    outflow = 2.0 * params.kappa * state.s3 + params.n_atoms * params.gamma_par * state.s5
    scale = max(abs(inflow), abs(outflow), 1e-300)
    return abs(inflow - outflow) / scale
