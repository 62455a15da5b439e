"""The benchmark's workloads: inputs drawn from the seed, operations, checks.

Each workload is built once from ``(seed, scratch directory)`` and hands out
the operations of pass ``k`` on request; pass ``k`` draws its inputs from the
generator seeded with ``[seed, k]``.  Every tolerance below is the
acceptance gate's or ROADMAP's own.
"""
from __future__ import annotations

import io
import json
import math
import re
from pathlib import Path

import numpy as np

import paths
from cavlab import analytic, cli, liouville, model, validation
from cavlab.liouville import SpaceSpec
from cavlab.model import SystemParams
from harness import Op, OpFailed

PROBE_REFERENCE = paths.BENCH_DIR / "data" / "probe_reference.json"

# The collective-emitter probe setup of the spectrum-triple-agreement criterion.
_FIGURE = dict(g=2.0, n_atoms=5, kappa1=0.5, kappa2=0.5, omega_c=0.0,
               omega_a=0.0, gamma_par=2.0, beta=0.05)
PROBE_KWARGS = dict(
    epsilon=0.01, kappa_p=1e-2 / math.pi,
    space=SpaceSpec(cavity_cutoff=6, n_atoms=1, atom_model="hp", atom_cutoff=3,
                    probe_enabled=True),
)
PROBE_GRID = np.arange(-16.0, 16.2, 0.2) + 0.1
QUIET_GRID = np.array([-0.9, -0.5, -0.1, 0.1, 0.5, 0.9])
# The criterion's worst closed-form agreement: the first and last points of
# PROBE_GRID inside its 1% mask.  Scanned every pass, so err_ratio_max does
# not depend on where the seed puts the window.
EDGE_POINTS = (6, 154)

SPECTRUM_TOL = 0.02          # pairwise spectrum agreement
SPECTRUM_MASK = 0.01         # ... where the density exceeds 1% of its peak
INTEGRAL_TOL = 1e-3          # integral identity
MOMENT_TOL = 1e-9            # closed forms against the moment solve
HEIGHT_TOL = 1e-12           # h <= C (1 + 1e-12)
PROBE_REF_TOL = 1e-10        # probe readout against the refined direct solve
QUIET_TOL = 0.01             # noise-free probe residual, share of the line peak


def _collective(params: SystemParams) -> SystemParams:
    return params.replace(g=params.g * math.sqrt(params.n_atoms), n_atoms=1)


def figure_params(**overrides) -> SystemParams:
    return SystemParams(**{**_FIGURE, **overrides})


def probe_reference_scans():
    """(name, probe params, omega_L, grid) of every scan the reference holds."""
    noisy = _collective(figure_params(tau_common=1.0 / 3.0))
    return [
        ("noisy_w0", noisy, 0.0, PROBE_GRID),
        ("noisy_w8", noisy, 8.0, PROBE_GRID),
        ("quiet_w0", _collective(figure_params()), 0.0, QUIET_GRID),
        ("edge_w0", noisy, 0.0, PROBE_GRID[list(EDGE_POINTS)]),
    ]


def _relative(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| / |b|; entries where both are 0 agree exactly."""
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300), initial=0.0))


def _spectrum_checks(what: str, density: np.ndarray, closed: np.ndarray,
                     peak: float) -> list:
    mask = closed > SPECTRUM_MASK * peak
    if not mask.any():
        return []
    return [(f"{what} against the closed form", _relative(density[mask], closed[mask]),
             SPECTRUM_TOL)]


# --- sweeps ------------------------------------------------------------------

SHIPPED = ("atoms_common_dephasing", "atoms_resonant", "empty_jitter")
PROFILE_GRID = "-10:10:1601"
STIFF = dict(g=0.1, n_atoms=1, kappa1=10.0, kappa2=10.0, omega_c=0.0, omega_a=0.0,
             gamma_par=0.2, tau_common=10.0, beta=0.05)
STIFF_GRID = "-30:30:201"
_MOMENT_PAIRS = (("R_mom", "R"), ("T_mom", "T"), ("n_cav_mom", "n_cav"),
                 ("abs_mean_field_sq_mom", "abs_mean_field_sq"), ("p_exc_mom", "p_exc"))


def read_csv(path: Path) -> tuple[dict, dict, np.ndarray]:
    """Header comments, column index and data of a cavlab CSV file."""
    lines = path.read_text().splitlines()
    header, row = {}, 0
    while lines[row].startswith("# "):
        key, _, value = lines[row][2:].partition(": ")
        header[key] = value
        row += 1
    columns = {name: k for k, name in enumerate(lines[row].split(","))}
    data = np.loadtxt(io.StringIO("\n".join(lines[row + 1:])), delimiter=",", ndmin=2)
    return header, columns, data


def _cli_op(name: str, kind: str, argv: list[str], out: Path, check, points: int = 0) -> Op:
    def run():
        try:
            return cli.main(argv + ["--out", str(out)])
        except SystemExit as exc:    # argparse rejects a command line this way
            return exc.code

    def checked(code):
        if code != 0:
            raise OpFailed(f"cavlab {argv[0]} exited with {code}")
        return check(*read_csv(out))

    return Op(name, kind, run, checked, points)


def random_record(rng: np.random.Generator) -> SystemParams:
    """A parameter draw over the gate's own domain: rates 1e-2 .. 1e2."""
    g, k1, k2, gam = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 4))
    taus = {key: 1.0 / math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            for key in ("tau_indiv", "tau_common") if rng.random() < 0.75}
    return SystemParams(g=float(g), n_atoms=int(rng.choice([1, 2, 3, 5, 20])),
                        kappa1=float(k1), kappa2=float(k2),
                        omega_c=float(rng.uniform(-5, 5)), omega_a=float(rng.uniform(-5, 5)),
                        gamma_par=float(gam),
                        beta=complex(rng.normal(), rng.normal()), **taus)


class Sweeps:
    """In-process ``cavlab`` runs over drive and frequency grids."""

    def __init__(self, seed: int, tmp: Path):
        self.seed, self.tmp = seed, tmp
        self.configs = {name: paths.ROOT / "configs" / f"{name}.json" for name in SHIPPED}
        self.configs["stiff"] = self._write("stiff", SystemParams(**STIFF))
        self.params = {name: model.params_from_json(path.read_text())
                       for name, path in self.configs.items()}

    def _write(self, name: str, params: SystemParams) -> Path:
        path = self.tmp / f"{name}.json"
        path.write_text(json.dumps(model.params_to_dict(params)))
        return path

    def _profile(self, name: str) -> Op:
        def check(header, col, data):
            for mom, ref in _MOMENT_PAIRS:
                yield (f"profile {name} {mom}", _relative(data[:, col[mom]], data[:, col[ref]]),
                       MOMENT_TOL)

        argv = ["profile", "--config", str(self.configs[name]), "--method", "moments",
                f"--grid={PROFILE_GRID}"]
        return _cli_op(f"profile:{name}", "profile", argv, self.tmp / f"profile-{name}.csv",
                       check, points=int(PROFILE_GRID.rsplit(":", 1)[1]))

    def _spectrum(self, name: str, omega_l: float, kind: str = "spectrum",
                  grid: str | None = None) -> Op:
        params = self.params[name]

        def check(header, col, data):
            freqs, density = data[:, col["omega"]], data[:, col["s_incoherent"]]
            closed = analytic.emission_spectrum(params, omega_l, freqs).incoherent_density
            out = _spectrum_checks(f"{kind} {name}", density, closed, closed.max())
            if grid is None and params.n_atoms:
                # the default grid covers the emitter spectrum's quartic tails
                out.append((f"{kind} {name} integral identity",
                            float(header["integral_relative_error"]), INTEGRAL_TOL))
            return out

        argv = ["spectrum", "--config", str(self.configs[name]), "--method", "moments",
                "--omega-l", repr(omega_l)] + ([f"--grid={grid}"] if grid else [])
        return _cli_op(f"{kind}:{name}:{omega_l:g}", kind, argv,
                       self.tmp / f"{kind}-{name}-{omega_l:g}.csv", check)

    def _height_scan(self, sweep: str) -> Op:
        def check(header, col, data):
            heights = np.concatenate([data[:, col["h_individual"]], data[:, col["h_common"]]])
            ceiling = np.concatenate([data[:, col["C"]]] * 2)
            return [(f"height-scan {sweep} h <= C",
                     max(0.0, float(np.max(heights / ceiling)) - 1.0), HEIGHT_TOL)]

        argv = ["height-scan", "--config", str(self.configs["atoms_common_dephasing"]),
                "--sweep", sweep]
        return _cli_op(f"height-scan:{sweep}", "height-scan", argv,
                       self.tmp / f"height-{sweep}.csv", check)

    def make_pass(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, k])
        self.configs["random"] = self._write("random", random_record(rng))
        ops = [self._profile(name) for name in SHIPPED + ("random",)]
        ops += [self._spectrum("atoms_common_dephasing", 0.0),
                self._spectrum("atoms_common_dephasing", 8.0),
                self._spectrum("empty_jitter", 0.0),
                self._spectrum("stiff", 0.0, kind="stiff", grid=STIFF_GRID)]
        ops += [self._height_scan("dephasing_time"), self._height_scan("gamma_par")]
        return ops


# --- probe_scan ------------------------------------------------------------------

PROBE_WINDOW = 3             # contiguous grid points per noisy scan


class ProbeScan:
    """Weak-probe spectra: one sparse LU of 3136 unknowns per grid point."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        stored = json.loads(PROBE_REFERENCE.read_text())["scans"]
        self.reference = {scan["name"]: scan for scan in stored}
        self.scans = {name: (params, omega_l, grid)
                      for name, params, omega_l, grid in probe_reference_scans()}
        # closed form of the N = 5 system the probe setup stands in for, and
        # the peak over the criterion's whole grid that sets the 1% mask
        full = figure_params(tau_common=1.0 / 3.0)
        self.closed = {}
        for name, (_, omega_l, grid) in self.scans.items():
            if name != "quiet_w0":
                peak = analytic.emission_spectrum(full, omega_l, PROBE_GRID).incoherent_density.max()
                closed = analytic.emission_spectrum(full, omega_l, grid).incoherent_density
                self.closed[name] = (closed, peak)

    def _op(self, name: str, lo: int, hi: int) -> Op:
        params, omega_l, grid = self.scans[name]
        ref = self.reference[name]

        def run():
            return liouville.probe_spectrum(params, omega_l, grid[lo:hi], **PROBE_KWARGS)

        def check(result):
            total = np.asarray(result.meta["total_density"])
            yield (f"probe {name} against the refined direct solve",
                   _relative(total, np.asarray(ref["total_density"][lo:hi])), PROBE_REF_TOL)
            if name in self.closed:
                closed, peak = self.closed[name]
                yield from _spectrum_checks(f"probe {name}", result.incoherent_density,
                                            closed[lo:hi], peak)
            else:
                line_peak = result.coherent_power / (math.pi * PROBE_KWARGS["kappa_p"])
                yield (f"probe {name} noise-free residual",
                       float(np.max(np.abs(result.incoherent_density))) / line_peak, QUIET_TOL)

        return Op(f"probe:{name}:{lo}-{hi}", "probe", run, check, points=hi - lo)

    def make_pass(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, k])
        lo = int(rng.integers(0, len(PROBE_GRID) - PROBE_WINDOW + 1))
        return [self._op("noisy_w0", lo, lo + PROBE_WINDOW),
                self._op("noisy_w8", lo, lo + PROBE_WINDOW),
                self._op("quiet_w0", 0, len(QUIET_GRID)),
                self._op("edge_w0", 0, 2)]


# --- gate --------------------------------------------------------------------------

# every criterion but spectrum-triple-agreement, which takes minutes
GATE_CRITERIA = ("steady-state-equivalence", "energy-conservation", "transmission-profile",
                 "jitter-coherence-ratio", "height-bounds-and-limits", "stochastic-dephasing",
                 "coherent-state-preservation", "linear-regime-boundary")


_NUMBER = r"[-+]?\d+\.\d*(?:e[-+]?\d+)?"
# "<errors> (tol T)" or "<errors> (what, tol T)"; errors may be "a/b"
_TOL = re.compile(r"([^()]*)\((?:[^()]*, )?tol ([0-9.e+-]+)\)")
_AT_MOST = re.compile(rf"({_NUMBER}) <= ({_NUMBER})")


def stated_errors(name: str, detail: str) -> list:
    """(what, error, tolerance) of every error a criterion states in its detail
    text against a tolerance: "1.2e-13 (tol 1e-9)" or "1.1e-03 <= 2.4e-03".
    Only decimal numbers count as errors, so draw counts such as "100 draws"
    or "1e4 trajectories" are not read as one."""
    out = []
    for match in _TOL.finditer(detail):
        tol = float(match.group(2))
        out += [(f"{name}: {match.group(1).strip(' ,/')}", abs(float(value)), tol)
                for value in re.findall(_NUMBER, match.group(1))]
    out += [(f"{name}: {m.group(0)}", abs(float(m.group(1))), float(m.group(2)))
            for m in _AT_MOST.finditer(detail)]
    return out


def criterion_op(name: str, seed: int) -> Op:
    """One acceptance criterion through ``validation.run_all``."""
    def run():
        return validation.run_all(seed, only=[name])

    def check(results):
        if len(results) != 1:
            raise OpFailed(f"{name}: run_all returned {len(results)} results")
        result = results[0]
        if result.skipped or not result.passed:
            raise OpFailed(result.line())
        return stated_errors(name, result.detail)

    return Op(name, name, run, check)


class Gate:
    """The acceptance criteria but the slow spectrum one, one at a time.

    The criteria run at the gate's pinned seed, ``validation.DEFAULT_SEED``,
    whatever the benchmark seed: the gate is accepted at that seed, and at
    most other seeds coherent-state-preservation fails its 1e-12
    factorization tolerance (``run.py --full-gate --seed N`` shows it).
    """

    def __init__(self, seed: int, tmp: Path):
        pass

    def make_pass(self, k: int) -> list[Op]:
        return [criterion_op(name, validation.DEFAULT_SEED) for name in GATE_CRITERIA]


WORKLOADS = {"sweeps": Sweeps, "probe_scan": ProbeScan, "gate": Gate}
