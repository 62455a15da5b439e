"""Command-line front end producing reproducible data files.

Every table command hands its columns to one writer.  The output embeds the
resolved configuration (a ``# config:`` comment line in CSV, a sibling
``config`` object in JSON): the command, the physics parameters and every
option the command used, defaults included.  A file therefore regenerates
from itself: write that object to a file and pass it as ``--config`` to the
same command; a config naming another command is refused.  Header values,
and CSV rows, are written with 17 significant digits; JSON rows in the
shortest form that reads back to the same double (``json.dumps``).  CSV
rows come from one vectorized routine, ``_format_rows``, 256 rows at a
time, each block written as soon as it is formatted; its bytes are those
of ``"%.16e" % x``, because any number it cannot prove it rounds as ``%``
does (beyond 1e+-280, or within 1e-12 of a rounding tie) goes through
``%`` itself.  The coherent delta line of a spectrum is rendered to a
finite-width Lorentzian only here; the library keeps it as an exact scalar.
The probe method's ``s_incoherent`` is the total probe density minus that
Lorentzian, so on an empty cavity near the drive frequency it keeps about 3
fewer significant digits than the total.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import analytic, liouville, moments, validation
from .errors import BudgetError, ParameterError, SingularSystemError
from .liouville import SpaceSpec
from .model import SystemParams, finite_number, params_from_dict, params_to_dict

# config-file keys that steer a command rather than the physics, by type
_OPTION_TYPES = {
    "omega_l": float, "grid": str, "method": str, "cutoff": int, "sweep": str,
    "render_width": float, "epsilon": float, "kappa_p": float,
}

# one number in a header value or a CSV data row: 17 significant digits
_FLOAT = "%.16e"
# most points of a --grid, checked before any array is made
_MAX_GRID_POINTS = 10**6


def _fmt(value: float) -> str:
    return _FLOAT % value


# --- CSV rows -----------------------------------------------------------------
# _format_rows writes _FLOAT % x for a block of finite doubles at once.  Each
# |x| in [_FAST_MIN, _FAST_MAX] is scaled by 10**(16 - E), E = floor(log10|x|),
# to p + q in [1e16, 1e17): Dekker's exact product of x with the head of a
# two-double 10**k, plus x times its tail, about 5e-15 from the true product.
# Rounding p + q to an integer gives the 17 digits.  A scaled value within
# _TIE_GAP of a half-integer, where % rounds ties to even, and any |x| outside
# the range, where the split can overflow, go through % itself.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE_GAP = 1e-12
_SPLIT = 2.0**27 + 1  # Dekker's splitter for 53-bit doubles
_POW_MIN, _POW_MAX = -270, 300  # every 10**(16 - E) the fast range asks for
_BLOCK_ROWS = 256  # rows formatted at a time, each block written when ready


def _power_table() -> np.ndarray:
    """Rows (head, high, low, tail) for k = _POW_MIN.._POW_MAX: head and tail
    each correctly rounded (Python's int true division is), head = high + low
    split in halves of 26 bits."""
    table = []
    for k in range(_POW_MIN, _POW_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        head = num / den
        n, d = head.as_integer_ratio()
        big = _SPLIT * head
        high = big - (big - head)
        table.append((head, high, head - high, (num * d - n * den) / (den * d)))
    return np.array(table)


_POWERS = _power_table()
_EXP_MIN = -324  # the smallest exponent of a double


def _byte_table(texts, dtype) -> np.ndarray:
    """Each ASCII text, zero-padded to the width of ``dtype``, as one integer."""
    size = np.dtype(dtype).itemsize
    return np.frombuffer(b"".join(t.encode().ljust(size, b"\0") for t in texts), dtype)


# A number is written as four lookups into 32 bytes: sign, leading digit and
# point, at the digit, + 10 if negative; the 16 digits after the point, four
# at a time; e, the exponent's sign and its digits, at E - _EXP_MIN; then the
# separator.  The zero bytes that pad each part are dropped from the line.
_LEADS = _byte_table([sign + digit + "." for sign in ("", "-") for digit in "0123456789"],
                     np.uint64)
_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T
                               + np.uint8(ord("0"))).view(np.uint32).ravel()
_EXPONENTS = _byte_table([f"e{e:+03d}" for e in range(_EXP_MIN, 309)], np.uint64)


def _scaled(a: np.ndarray, a_high: np.ndarray, a_low: np.ndarray,
            e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as p + q, with p = fl(a * head) exactly."""
    head, high, low, tail = _POWERS[16 - e - _POW_MIN].T
    p = a * head
    q = ((a_high * high - p) + a_high * low + a_low * high) + a_low * low + a * tail
    return p, q


def _format_rows(rows: np.ndarray) -> str:
    """Lines of comma-separated _FLOAT numbers, one per row of finite doubles."""
    x = rows.ravel()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    big = _SPLIT * a
    a_high = big - (big - a)
    a_low = a - a_high
    e = np.floor(np.log10(a)).astype(np.int64)
    p, q = _scaled(a, a_high, a_low, e)
    # log10 may round up to E + 1 just below a power of ten; a scaled value
    # that is still out of range gives an n that is refused below
    e -= (p - 1e16) + q < 0
    p, q = _scaled(a, a_high, a_low, e)
    q_floor = np.floor(q)
    frac = q - q_floor
    n = p.astype(np.int64) + q_floor.astype(np.int64) + (frac > 0.5)
    fast &= (abs(frac - 0.5) > _TIE_GAP) & (n >= 10**16) & (n <= 10**17)
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    # zeros read as 0e+00; every other refused number is overwritten below
    n[~fast] = e[~fast] = 0
    out = np.empty((len(x), 4), np.uint64)
    lead, rest = np.divmod(n, 10**16)
    out[:, 0] = _LEADS[lead + 10 * np.signbit(x)]
    high, low = np.divmod(rest, 10**8)
    groups = out[:, 1:3].view(np.uint32)
    for j, part in enumerate(np.divmod(high, 10**4) + np.divmod(low, 10**4)):
        groups[:, j] = _DIGITS[part]
    out[:, 3] = _EXPONENTS[e - _EXP_MIN]
    text = out.view(np.uint8)
    for i in np.flatnonzero(~fast & (x != 0)):
        text[i, :-1] = np.frombuffer((_FLOAT % x[i]).encode().ljust(31, b"\0"), np.uint8)
    text[:, -1] = ord(",")
    text.reshape(rows.shape + (32,))[:, -1, -1] = ord("\n")
    text = text.ravel()
    return text[text != 0].tobytes().decode("ascii")


def _parse_grid(text: str, log_spaced: bool = False) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"grid must be min:max:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParameterError(f"grid must be min:max:n, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and 2 <= n <= _MAX_GRID_POINTS):
        raise ParameterError(f"grid needs finite min < max and 2 <= n <= "
                             f"{_MAX_GRID_POINTS}, got {text!r}")
    if log_spaced:
        if lo <= 0:
            raise ParameterError("log-spaced grid needs min > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _option(key: str, value):
    """A command option as its type: a string, a whole or a finite number."""
    kind = _OPTION_TYPES[key]
    if kind is not str:
        return kind(finite_number(key, value, whole=kind is int))
    if not isinstance(value, str):
        raise ParameterError(f"{key}: expected a string, got {value!r}")
    return value


def _load_config(args) -> tuple[SystemParams, dict]:
    """Split the config file into physics parameters and typed options.

    Command-line flags win over config-file options.  A ``command`` key, as
    in a config copied from an output header, must name this command.
    """
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise ParameterError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParameterError("config must be a JSON object")
    command = raw.pop("command", args.command)
    if command != args.command:
        raise ParameterError(
            f"config was written by command {command!r}, not {args.command!r}")
    options = {key: raw.pop(key) for key in list(raw) if key in _OPTION_TYPES}
    params = params_from_dict(raw)
    for key in _OPTION_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            options[key] = flag
    return params, {key: _option(key, value) for key, value in options.items()}


def _write(args, chunks) -> None:
    """Write each piece of text as it comes, to --out or to stdout."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as stream:
        for chunk in chunks:
            stream.write(chunk)


def _emit(args, params: SystemParams, options: dict, header: dict,
          names: list[str], columns: list) -> int:
    """Write one table: the resolved config, the header, one row per grid point."""
    config = {"command": args.command, **params_to_dict(params),
              **dict(sorted(options.items()))}
    rows = np.column_stack(np.broadcast_arrays(*columns))
    if not np.isfinite(rows).all():
        raise OverflowError("the table has a non-finite entry")
    if args.format == "json":
        doc = {"config": config, "header": header, "columns": names,
               "rows": rows.tolist()}
        _write(args, [json.dumps(doc, indent=2) + "\n"])
        return 0
    lines = [f"# config: {json.dumps(config)}"]
    lines += [f"# {key}: {value}" for key, value in header.items()]
    lines.append(",".join(names))
    blocks = (_format_rows(rows[start:start + _BLOCK_ROWS])
              for start in range(0, len(rows), _BLOCK_ROWS))
    _write(args, itertools.chain(["\n".join(lines) + "\n"], blocks))
    return 0


def _grid_text(grid: np.ndarray) -> str:
    return f"{grid[0]:.17g}:{grid[-1]:.17g}:{len(grid)}"


# --- profile ----------------------------------------------------------------

_PROFILE_COLUMNS = ["omega_L", "re_r", "im_r", "re_t", "im_t", "R", "T",
                    "abs_t_sq", "n_cav", "abs_mean_field_sq", "p_exc"]
_PROFILE_MOM_COLUMNS = ["R_mom", "T_mom", "n_cav_mom",
                        "abs_mean_field_sq_mom", "p_exc_mom"]


def cmd_profile(args) -> int:
    params, options = _load_config(args)
    method = options.setdefault("method", "analytic")
    if method not in ("analytic", "moments"):
        raise ParameterError(f"profile method must be analytic or moments, got {method!r}")
    grid = _parse_grid(options.setdefault("grid", "-10:10:401"))
    r, t = analytic.field_coefficients(params, grid)
    big_r, big_t = analytic.intensity_coefficients(params, grid)
    summary = analytic.steady_state_summary(params, grid)
    columns = [grid, r.real, r.imag, t.real, t.imag, big_r, big_t, abs(t) ** 2,
               summary.photon_number, abs(summary.mean_field) ** 2, summary.p_exc]
    names = list(_PROFILE_COLUMNS)
    if method == "moments":
        state = moments.steady_state(params, grid)
        r_mom, t_mom = moments.intensity_from_state(params, state)
        columns += [r_mom, t_mom, state.s3, abs(state.s1) ** 2, state.s5]
        names += _PROFILE_MOM_COLUMNS
    return _emit(args, params, options, {}, names, columns)


# --- spectrum ----------------------------------------------------------------

def cmd_spectrum(args) -> int:
    params, options = _load_config(args)
    omega_l = options.setdefault("omega_l", 0.0)
    method = options.setdefault("method", "analytic")
    if method not in ("analytic", "moments", "probe"):
        raise ParameterError(
            f"spectrum method must be analytic, moments or probe, got {method!r}")
    if "grid" in options:
        grid = _parse_grid(options["grid"])
    elif method == "probe":
        # one steady-state solve per point: make the cost explicit
        raise ParameterError("probe spectra need an explicit --grid")
    else:
        grid = analytic.spectrum_grid(params)
        options["grid"] = _grid_text(grid)

    if method == "probe":
        epsilon = options.setdefault("epsilon", 1e-3)
        default = _default_cutoff(params, omega_l) if params.n_atoms == 0 else 6
        cutoff = options.setdefault("cutoff", default)
        space = SpaceSpec(cavity_cutoff=cutoff, n_atoms=params.n_atoms,
                          atom_cutoff=3, probe_enabled=True)
        result = liouville.probe_spectrum(params, omega_l, grid, epsilon=epsilon,
                                          kappa_p=options.get("kappa_p"), space=space)
        # the probe's own linewidth renders its coherent line
        width = options["kappa_p"] = result.meta["kappa_p"]
    else:
        solve = (analytic.emission_spectrum if method == "analytic"
                 else moments.regression_spectrum)
        # a grid so wide that products of its frequencies overflow gives
        # non-finite densities, which _emit refuses
        with np.errstate(over="ignore", invalid="ignore"):
            result = solve(params, omega_l, grid)
        width = options.setdefault("render_width", 1e-2 / math.pi)
    # where the square overflows, the line is below 1e-300 of its peak: 0
    with np.errstate(over="ignore"):
        line = width / math.pi / ((grid - omega_l) ** 2 + width ** 2)
    rendered = result.incoherent_density + result.coherent_power * line

    total = result.incoherent_power() + result.coherent_power
    n_cav = float(result.meta["photon_number"])
    header = {
        "method": result.method,
        "coherent_power": _fmt(result.coherent_power),
        "render_width": _fmt(width),
        "photon_number": _fmt(n_cav),
        "integral_relative_error": _fmt(abs(total - n_cav) / n_cav if n_cav else 0.0),
    }
    return _emit(args, params, options, header,
                 ["omega", "s_incoherent", "s_rendered"],
                 [grid, result.incoherent_density, rendered])


# --- wigner -------------------------------------------------------------------

def _default_cutoff(params: SystemParams, omega_l: float) -> int:
    """Starting cavity cutoff from the photon number of the moment oracle,
    which covers every noise channel."""
    return int(4.0 * moments.steady_state(params, omega_l).s3) + 8


def cmd_wigner(args) -> int:
    params, options = _load_config(args)
    omega_l = options.setdefault("omega_l", 0.0)
    cutoff = options.setdefault("cutoff", _default_cutoff(params, omega_l))
    space = SpaceSpec(cavity_cutoff=cutoff, n_atoms=params.n_atoms, atom_cutoff=3)
    _, trunc, space = liouville.converged_moment_state(params, omega_l, space)
    cavity = liouville.reduce_cavity(trunc)
    if "grid" in options:
        xs = ps = _parse_grid(options["grid"])
    else:
        xs, ps = liouville.wigner_grid_for_state(cavity)
        options["grid"] = _grid_text(xs)
    w = liouville.wigner(cavity, xs, ps)
    header = {
        "grid": f"x,p in [{xs[0]:.6g}, {xs[-1]:.6g}] x [{ps[0]:.6g}, {ps[-1]:.6g}], "
                f"{len(xs)}x{len(ps)} points",
        "cavity_cutoff": space.cavity_cutoff,
        "normalization_residual": _fmt(w.normalization_residual()),
        "photon_number": _fmt(w.photon_number()),
    }
    return _emit(args, params, options, header, ["x", "p", "W"],
                 [np.repeat(xs, len(ps)), np.tile(ps, len(xs)), w.w.ravel()])


# --- height scan ---------------------------------------------------------------

def cmd_height_scan(args) -> int:
    params, options = _load_config(args)
    sweep = options.setdefault("sweep", "dephasing_time")
    if sweep not in ("dephasing_time", "gamma_par"):
        raise ParameterError(
            f"sweep must be dephasing_time or gamma_par, got {sweep!r}")
    values = _parse_grid(options.setdefault("grid", "0.01:100:41"), log_spaced=True)
    if sweep == "gamma_par":
        # hold the dephasing time fixed at whichever channel the config set
        t0 = min(params.tau_indiv, params.tau_common)
        if not math.isfinite(t0):
            raise ParameterError("gamma_par sweep needs a finite dephasing time")
    heights = []
    for value in values:
        if sweep == "dephasing_time":
            p_ind = params.replace(tau_indiv=value, tau_common=None)
            p_com = params.replace(tau_common=value, tau_indiv=None)
        else:
            p_ind = params.replace(gamma_par=value, tau_indiv=t0, tau_common=None)
            p_com = params.replace(gamma_par=value, tau_common=t0, tau_indiv=None)
        rep_ind = analytic.lorentzian_height(p_ind)
        rep_com = analytic.lorentzian_height(p_com)
        # gamma_perp is channel-symmetric, so C is shared by both columns
        heights.append((rep_ind.height, rep_com.height, rep_ind.cooperativity))
    return _emit(args, params, options, {},
                 ["swept_value", "h_individual", "h_common", "C"],
                 [values, *zip(*heights)])


# --- validate --------------------------------------------------------------------

def cmd_validate(args) -> int:
    seed = args.seed if args.seed is not None else validation.DEFAULT_SEED
    results = validation.run_all(seed=seed)
    for result in results:
        # wall time goes to stderr and to the report's timings alone
        budget = "" if result.budget_seconds is None else f" of {result.budget_seconds:.0f} s"
        print(f"{result.line()} [{result.seconds:.1f} s{budget}]", file=sys.stderr)
    doc = {
        "seed": seed,
        "all_passed": all(r.passed or r.skipped for r in results),
        "results": [r.to_dict() for r in results],
        # apart from the keys above, which the seed fixes bit for bit
        "timings": [{"name": r.name, "seconds": r.seconds,
                     "budget_seconds": r.budget_seconds} for r in results],
    }
    _write(args, [json.dumps(doc, indent=2) + "\n"])
    if any(r.crashed for r in results):
        return 3
    return 0 if doc["all_passed"] else 1


# --- argument parsing ---------------------------------------------------------------

def _add_io_flags(sub, with_method: bool = True) -> None:
    sub.add_argument("--config", required=True, help="JSON file with system parameters")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--grid", help="grid as min:max:n")
    if with_method:
        sub.add_argument("--method", help="computation backend")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavlab",
        description="Steady-state optics of a driven cavity coupled to "
                    "two-level emitters.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log every solve and cutoff rung to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="reflection/transmission sweep over drive frequency")
    _add_io_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("spectrum", help="emission spectrum of the cavity output")
    _add_io_flags(p)
    p.add_argument("--omega-l", dest="omega_l", type=float, help="drive frequency")
    p.add_argument("--cutoff", type=int, help="cavity cutoff for the probe method: default "
                   "6 with emitters (at most 7 with one), from the photon number without")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wigner", help="steady-state Wigner function of the cavity")
    _add_io_flags(p, with_method=False)
    p.add_argument("--omega-l", dest="omega_l", type=float, help="drive frequency")
    p.add_argument("--cutoff", type=int, help="starting cavity cutoff")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("height-scan", help="incoherent-excess height vs dephasing "
                                           "time or decay rate")
    _add_io_flags(p, with_method=False)
    p.add_argument("--sweep", choices=("dephasing_time", "gamma_par"))
    p.set_defaults(func=cmd_height_scan)

    p = sub.add_parser("validate", help="run the acceptance checks, report JSON")
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument("--seed", type=_seed, help="seed for the random sweeps (>= 0)")
    p.set_defaults(func=cmd_validate)

    return parser


@contextlib.contextmanager
def _debug_records_to_stderr():
    """Send the cavlab loggers' DEBUG records to stderr while the block runs."""
    logger = logging.getLogger("cavlab")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _debug_records_to_stderr() if args.verbose else contextlib.nullcontext():
        try:
            return args.func(args)
        except BrokenPipeError:
            return 0
        except (ParameterError, BudgetError, SingularSystemError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OverflowError as exc:
            print(f"error: the config overflows a double: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
