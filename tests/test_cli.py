"""End-to-end checks of the command line front end."""
import itertools
import json
import logging
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavlab import analytic, cli, moments, validation
from cavlab.errors import BudgetError
from cavlab.model import params_from_dict

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
RESONANT = str(CONFIG_DIR / "atoms_resonant.json")
DEPHASED = str(CONFIG_DIR / "atoms_common_dephasing.json")
JITTER = str(CONFIG_DIR / "empty_jitter.json")


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    header, config, idx = {}, None, 0
    for idx, line in enumerate(lines):
        if not line.startswith("#"):
            break
        key, _, value = line[2:].partition(": ")
        if key == "config":
            config = json.loads(value)
        else:
            header[key] = value
    columns = lines[idx].split(",")
    data = np.array([[float(v) for v in line.split(",")]
                     for line in lines[idx + 1:]])
    return config, header, columns, data


def _run(argv, out):
    rc = cli.main(argv + ["--out", str(out)])
    assert rc == 0
    return _read_csv(out)


def test_profile_columns_and_lossless_rows(tmp_path):
    out = tmp_path / "p.csv"
    config, _, columns, data = _run(
        ["profile", "--config", JITTER, "--grid=-4:4:17"], out)
    assert columns == ["omega_L", "re_r", "im_r", "re_t", "im_t", "R", "T",
                       "abs_t_sq", "n_cav", "abs_mean_field_sq", "p_exc"]
    big_r, big_t = data[:, 5], data[:, 6]
    assert np.max(np.abs(big_r + big_t - 1.0)) < 1e-12
    # resolved config reproduces the physics parameters
    reparsed = params_from_dict(
        {k: v for k, v in config.items()
         if k not in ("command", "grid", "method")})
    assert reparsed.tau_jitter == pytest.approx(10.0 / 3.0)


def test_profile_doublet_positions(tmp_path):
    _, _, _, data = _run(
        ["profile", "--config", RESONANT, "--grid=-10:10:401"],
        tmp_path / "p.csv")
    om, big_t = data[:, 0], data[:, 6]
    inner = (big_t[1:-1] > big_t[:-2]) & (big_t[1:-1] > big_t[2:])
    peaks = om[1:-1][inner]
    split = 2.0 * math.sqrt(5.0)
    assert peaks.size == 2
    assert abs(peaks[0] + split) < 0.2 and abs(peaks[1] - split) < 0.2


def test_profile_moments_columns_cross_check(tmp_path):
    _, _, columns, data = _run(
        ["profile", "--config", DEPHASED, "--grid=-6:6:11",
         "--method", "moments"], tmp_path / "p.csv")
    assert columns[11:] == ["R_mom", "T_mom", "n_cav_mom",
                            "abs_mean_field_sq_mom", "p_exc_mom"]
    for base, mom in ((5, 11), (6, 12), (8, 13), (9, 14), (10, 15)):
        denom = np.maximum(np.abs(data[:, base]), 1e-300)
        assert np.max(np.abs(data[:, base] - data[:, mom]) / denom) < 1e-9
    # incoherent excess shows up in T but not in the field coefficient
    assert np.all(data[:, 6] > data[:, 7])
    gap = data[:, 6] / data[:, 7] - 1.0
    assert np.argmax(gap) == 5    # resonance sits mid-grid


def test_profile_numbers_have_17_significant_digits(tmp_path):
    out = tmp_path / "p.csv"
    _run(["profile", "--config", RESONANT, "--grid=-2:2:3"], out)
    row = Path(out).read_text().splitlines()[-1]
    for field in row.split(","):
        mantissa = field.split("e")[0]
        assert len(mantissa.lstrip("-").replace(".", "")) == 17


def test_profile_json_format(tmp_path):
    out = tmp_path / "p.json"
    rc = cli.main(["profile", "--config", RESONANT, "--grid=-1:1:5",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "header", "columns", "rows"}
    assert doc["config"]["command"] == "profile"
    assert len(doc["rows"]) == 5
    assert len(doc["rows"][0]) == len(doc["columns"])


@pytest.mark.parametrize("grid", ["1:2", "2:1:5", "1:2:1", "a:b:c", "0:1:x",
                                  "0:inf:3", "nan:1:3", "-inf:0:3"])
def test_bad_grid_is_a_config_error(tmp_path, grid):
    assert cli.main(["profile", "--config", RESONANT, f"--grid={grid}"]) == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--omega-l", "nan", "--method", "moments"],
    ["spectrum", "--omega-l", "nan", "--method", "analytic"],
    ["spectrum", "--omega-l=-inf"],
    ["wigner", "--omega-l", "nan"],
])
def test_non_finite_flag_is_a_config_error(tmp_path, argv, capsys):
    out = tmp_path / "out.csv"
    assert cli.main([argv[0], "--config", JITTER, *argv[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: omega_l: expected a finite number")
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, message", [
    ("profile", "tau_indiv", "abc", "tau_indiv: expected a finite number, got 'abc'"),
    ("profile", "beta", [0.05, "x"], "beta: expected a finite number, got 'x'"),
    ("profile", "n_atoms", 2.5, "n_atoms: expected a whole number, got 2.5"),
    ("profile", "grid", 5, "grid: expected a string, got 5"),
    ("wigner", "cutoff", 6.5, "cutoff: expected a whole number, got 6.5"),
])
def test_malformed_config_value_is_a_config_error(tmp_path, capsys, command, key,
                                                  value, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**json.loads(Path(RESONANT).read_text()), key: value}))
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_whole_number_floats_read_as_integers(tmp_path):
    config = json.loads(Path(JITTER).read_text())
    as_float = tmp_path / "float.json"
    as_float.write_text(json.dumps({**config, "n_atoms": 0.0, "cutoff": 12.0}))
    as_int = tmp_path / "int.json"
    as_int.write_text(json.dumps({**config, "cutoff": 12}))
    outputs = []
    for cfg in (as_float, as_int):
        outputs.append(tmp_path / f"{cfg.stem}.csv")
        assert cli.main(["spectrum", "--config", str(cfg), "--method", "probe",
                         "--grid=-1:1:3", "--out", str(outputs[-1])]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def test_bad_method_is_a_config_error():
    assert cli.main(["profile", "--config", RESONANT,
                     "--method", "liouville"]) == 2
    assert cli.main(["spectrum", "--config", RESONANT,
                     "--method", "wigner"]) == 2


def test_spectrum_header_and_rendered_line(tmp_path):
    _, header, columns, data = _run(
        ["spectrum", "--config", DEPHASED, "--omega-l", "0"], tmp_path / "s.csv")
    assert columns == ["omega", "s_incoherent", "s_rendered"]
    assert header["method"] == "analytic"
    assert float(header["integral_relative_error"]) < 1e-3
    coherent = float(header["coherent_power"])
    width = float(header["render_width"])
    om, s_inc, s_rend = data[:, 0], data[:, 1], data[:, 2]
    line = coherent * width / math.pi / (om ** 2 + width ** 2)
    assert np.max(np.abs(s_rend - (s_inc + line))) < 1e-12 * np.max(s_rend)
    assert np.all(s_rend >= s_inc)


def test_spectrum_shape_is_drive_independent_up_to_scale(tmp_path):
    curves = []
    for omega_l in ("0", "8"):
        _, _, _, data = _run(
            ["spectrum", "--config", DEPHASED, "--omega-l", omega_l,
             "--grid=-20:20:81"], tmp_path / f"s{omega_l}.csv")
        curves.append(data[:, 1])
    a, b = curves
    np.testing.assert_allclose(a / a.max(), b / b.max(), rtol=1e-10)


def test_spectrum_without_noise_is_a_single_line(tmp_path):
    _, header, _, data = _run(
        ["spectrum", "--config", RESONANT, "--omega-l", "0"], tmp_path / "s.csv")
    om, s_inc, s_rend = data[:, 0], data[:, 1], data[:, 2]
    assert np.max(s_inc) <= 1e-12 * np.max(s_rend)
    assert om[np.argmax(s_rend)] == pytest.approx(0.0, abs=1e-12)
    # everything the cavity emits is in the coherent line
    n_cav = float(header["photon_number"])
    assert float(header["coherent_power"]) == pytest.approx(n_cav, rel=1e-12)


def test_spectrum_moments_method_reports_regression(tmp_path):
    _, header, _, _ = _run(
        ["spectrum", "--config", DEPHASED, "--omega-l", "0",
         "--method", "moments", "--grid=-4:4:5"], tmp_path / "s.csv")
    assert header["method"] == "regression"


def _one_emitter_config(tmp_path):
    """A single collective emitter carrying the full g^2 N of DEPHASED."""
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({
        "g": 2.0 * math.sqrt(5.0), "n_atoms": 1, "kappa1": 0.5, "kappa2": 0.5,
        "omega_c": 0.0, "omega_a": 0.0, "gamma_par": 2.0,
        "tau_common": 1.0 / 3.0, "beta": 0.05,
        "epsilon": 0.01, "kappa_p": 1e-2 / math.pi}))
    return cfg


def test_spectrum_probe_matches_analytic(tmp_path):
    cfg = _one_emitter_config(tmp_path)
    grid = "--grid=-4.3:4.7:4"
    _, header, _, probe = _run(
        ["spectrum", "--config", str(cfg), "--method", "probe", grid],
        tmp_path / "probe.csv")
    assert header["method"] == "probe"
    _, _, _, ref = _run(
        ["spectrum", "--config", DEPHASED, grid], tmp_path / "ref.csv")
    dev = np.abs(probe[:, 1] - ref[:, 1]) / ref[:, 1]
    assert np.max(dev) < 0.02


@pytest.mark.parametrize("argv", [
    ["profile", "--config", RESONANT],
    ["spectrum", "--config", RESONANT, "--method", "probe", "--grid=-1:1:3"],
    ["wigner", "--config", RESONANT],
    ["height-scan", "--config", RESONANT],
    ["validate"],
], ids=["profile", "spectrum", "wigner", "height-scan", "validate"])
def test_every_command_rejects_workers(argv):
    # no command runs a process pool
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + ["--workers", "2"])
    assert exit_info.value.code == 2


def test_spectrum_probe_requires_explicit_grid():
    assert cli.main(["spectrum", "--config", DEPHASED,
                     "--method", "probe"]) == 2


def test_spectrum_probe_above_budget_is_a_config_error(tmp_path):
    rc = cli.main(["spectrum", "--config", DEPHASED, "--method", "probe",
                   "--grid=-1:1:3", "--out", str(tmp_path / "s.csv")])
    assert rc == 2


def test_spectrum_probe_above_the_direct_solve_limit_is_a_config_error(tmp_path, capsys):
    # one emitter at cutoff 8: dimension 36 without the probe
    rc = cli.main(["spectrum", "--config", str(_one_emitter_config(tmp_path)),
                   "--method", "probe", "--cutoff", "8", "--grid=-1:1:3",
                   "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "limit 32" in capsys.readouterr().err


def test_spectrum_probe_empty_cavity_default_cutoff_holds_the_photons(tmp_path):
    # about 5.2 photons: the cutoff starts from the closed-form photon number
    config, header, _, _ = _run(
        ["spectrum", "--config", JITTER, "--method", "probe", "--grid=-1:1:5"],
        tmp_path / "s.csv")
    assert config["cutoff"] > 6
    assert abs(float(header["coherent_power"]) - 4.0) < 1e-6
    assert abs(float(header["photon_number"]) - 5.2) < 1e-6


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["profile", "--config", DEPHASED, "--method", "moments", "--grid=-4:4:9"],
    ["spectrum", "--config", DEPHASED, "--omega-l", "8"],
    ["spectrum", "--config", JITTER, "--method", "probe", "--grid=-1:1:3"],
    ["wigner", "--config", JITTER],
    ["height-scan", "--config", DEPHASED, "--sweep", "gamma_par", "--grid=0.01:10:7"],
], ids=["profile", "spectrum", "spectrum-probe", "wigner", "height-scan"])
def test_a_file_regenerates_from_its_own_header(tmp_path, argv, fmt):
    first, config, second = tmp_path / "first", tmp_path / "config.json", tmp_path / "second"
    assert cli.main(argv + ["--format", fmt, "--out", str(first)]) == 0
    if fmt == "json":
        header_config = json.loads(first.read_text())["config"]
    else:
        header_config = _read_csv(first)[0]
    config.write_text(json.dumps(header_config))
    assert cli.main([argv[0], "--config", str(config), "--format", fmt,
                     "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


def test_a_config_written_by_another_command_is_refused(tmp_path, capsys):
    cfg = tmp_path / "profile.json"
    cfg.write_text(json.dumps({**json.loads(Path(RESONANT).read_text()),
                               "command": "profile"}))
    assert cli.main(["spectrum", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'profile'" in err and "'spectrum'" in err


@pytest.mark.parametrize("command", ["profile", "spectrum", "wigner", "height-scan"])
def test_config_seed_key_is_rejected(tmp_path, command, capsys):
    # no config-reading command uses a seed, so the key is an unknown field
    cfg = tmp_path / "seeded.json"
    cfg.write_text(json.dumps({**json.loads(Path(RESONANT).read_text()), "seed": 3}))
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err


def test_wigner_vacuum(tmp_path):
    cfg = tmp_path / "vac.json"
    cfg.write_text(json.dumps({
        "g": 0.0, "n_atoms": 0, "kappa1": 0.5, "kappa2": 0.5,
        "omega_c": 0.0, "omega_a": 0.0, "gamma_par": 1.0, "beta": 0.0}))
    _, header, columns, data = _run(
        ["wigner", "--config", str(cfg)], tmp_path / "w.csv")
    assert columns == ["x", "p", "W"]
    assert float(header["normalization_residual"]) < 1e-4
    assert abs(float(header["photon_number"])) < 1e-6
    center = data[(data[:, 0] == 0.0) & (data[:, 1] == 0.0)]
    assert center.shape[0] == 1
    assert center[0, 2] == pytest.approx(2.0 / math.pi, rel=1e-10)


def test_wigner_rows_follow_grid_order(tmp_path):
    _, header, _, data = _run(
        ["wigner", "--config", JITTER, "--grid=-6:6:13"], tmp_path / "w.csv")
    assert data.shape == (169, 3)
    assert np.all(data[:13, 0] == -6.0)
    assert np.all(np.diff(data[:13, 1]) > 0)
    # grid moments see the jitter-broadened photon number
    assert float(header["photon_number"]) == pytest.approx(5.2, abs=5e-2)


def test_wigner_cutoff_scan_that_runs_out_of_rungs_says_where_it_stopped(
        tmp_path, monkeypatch, capsys):
    # from cutoff 12 the moments still move by 2.3e-4 at cutoff 20, far
    # inside the dimension budget
    monkeypatch.delenv("CAVLAB_BUDGET", raising=False)
    rc = cli.main(["wigner", "--config", JITTER, "--cutoff", "12", "--grid=-6:6:13",
                   "--out", str(tmp_path / "w.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: converged_moment_state: moments still changed by 2.32e-04 "
        "(tolerance 1e-06) after 5 rungs, cavity cutoff 12 to 20 "
        "(dimension 21 of budget 512)\n")


ATOMS_JITTER = {"g": 1.0, "n_atoms": 1, "kappa1": 0.5, "kappa2": 0.5, "omega_c": 0.0,
                "omega_a": 0.0, "gamma_par": 2.0, "tau_jitter": 2.0, "beta": 0.5}


def test_wigner_with_emitters_and_jitter_starts_from_the_moment_photon_number(tmp_path):
    # the moment oracle's 0.056 photons give the starting cutoff 8
    cfg = tmp_path / "atoms_jitter.json"
    cfg.write_text(json.dumps(ATOMS_JITTER))
    config, _, _, data = _run(
        ["wigner", "--config", str(cfg), "--grid=-3:3:11"], tmp_path / "w.csv")
    assert config["cutoff"] == 8
    assert data.shape == (121, 3)


def test_closed_forms_cover_emitters_with_jitter(tmp_path):
    cfg = tmp_path / "atoms_jitter.json"
    cfg.write_text(json.dumps(ATOMS_JITTER))
    _, _, columns, data = _run(["profile", "--config", str(cfg), "--grid=-6:6:25",
                                "--method", "moments"], tmp_path / "p.csv")
    for name in ("R", "T", "n_cav", "abs_mean_field_sq", "p_exc"):
        closed, mom = data[:, columns.index(name)], data[:, columns.index(name + "_mom")]
        assert np.max(np.abs(closed - mom) / np.abs(closed)) < 1e-9
    _run(["height-scan", "--config", str(cfg)], tmp_path / "h.csv")
    _run(["spectrum", "--config", str(cfg)], tmp_path / "s.csv")


@pytest.mark.parametrize("omega_l", [-3.0, 0.0, 0.7])
def test_default_cutoff_is_four_moment_photons_plus_eight(omega_l):
    for params in (params_from_dict(ATOMS_JITTER),
                   params_from_dict(json.loads(Path(JITTER).read_text()))):
        s3 = moments.steady_state(params, omega_l).s3
        assert cli._default_cutoff(params, omega_l) == int(4 * s3) + 8


@pytest.mark.parametrize("config", [RESONANT, DEPHASED, JITTER])
def test_default_cutoff_equals_the_closed_form_rule_on_the_shipped_configs(config):
    params = params_from_dict(json.loads(Path(config).read_text()))
    for omega_l in np.linspace(-10.0, 10.0, 201):
        n_cav = analytic.steady_state_summary(params, omega_l).photon_number
        assert cli._default_cutoff(params, omega_l) == int(4.0 * n_cav) + 8


@pytest.mark.parametrize("argv", [
    ["wigner", "--cutoff", "3"],
    ["spectrum", "--method", "probe", "--grid=-1:1:3"],
], ids=["wigner", "spectrum-probe"])
def test_a_dimension_beyond_64_bits_is_a_budget_error(tmp_path, monkeypatch, capsys, argv):
    # 31 emitters of 4 levels and a cavity of 4 or more: the product of the
    # dims wraps to 0 or below in 64-bit integers
    monkeypatch.delenv("CAVLAB_BUDGET", raising=False)
    cfg = tmp_path / "many.json"
    cfg.write_text(json.dumps({**json.loads(Path(DEPHASED).read_text()), "n_atoms": 31}))
    assert cli.main([argv[0], "--config", str(cfg), *argv[1:],
                     "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds budget 512" in err


def test_a_grid_above_the_point_limit_is_refused_before_any_array(
        tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a grid array was made")

    monkeypatch.setattr(cli.np, "linspace", never)
    assert cli.main(["profile", "--config", JITTER, "--grid=0:1:100000000000",
                     "--out", str(tmp_path / "p.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: grid needs finite min < max and 2 <= n <= 1000000, "
        "got '0:1:100000000000'\n")
    monkeypatch.undo()
    assert cli._parse_grid("0:1:1000000").size == 1_000_000


@pytest.mark.parametrize("rate, argv, message", [
    (1e160, ["profile"], "overflows a double"),
    (1e160, ["spectrum"], "overflows a double"),
    (1e308, ["spectrum", "--method", "moments"], "invalid parameter: kappa"),
])
def test_extreme_rates_are_config_errors(tmp_path, capsys, rate, argv, message):
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps({**json.loads(Path(JITTER).read_text()),
                               "kappa1": rate, "kappa2": rate}))
    out = tmp_path / "out.csv"
    assert cli.main([argv[0], "--config", str(cfg), *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def test_moment_spectrum_at_extreme_rates_is_finite_and_quiet(tmp_path):
    # the coherent line's far wings, where the squared frequency overflows,
    # render as 0 without a warning
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps({**json.loads(Path(JITTER).read_text()),
                               "kappa1": 1e160, "kappa2": 1e160}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, _, data = _run(["spectrum", "--config", str(cfg), "--method", "moments"],
                             tmp_path / "s.csv")
    assert data.shape == (2001, 3) and np.isfinite(data).all()


def test_height_scan_stays_below_cooperativity(tmp_path):
    _, _, columns, data = _run(
        ["height-scan", "--config", RESONANT, "--grid=0.01:100:25"],
        tmp_path / "h.csv")
    assert columns == ["swept_value", "h_individual", "h_common", "C"]
    assert np.all(data[:, 1] <= data[:, 3] * (1 + 1e-12))
    assert np.all(data[:, 2] <= data[:, 3] * (1 + 1e-12))
    assert np.all(np.diff(np.log(data[:, 0])) > 0)


def test_height_scan_gamma_sweep_needs_dephasing_time(tmp_path):
    assert cli.main(["height-scan", "--config", RESONANT,
                     "--sweep", "gamma_par"]) == 2
    _, _, _, data = _run(
        ["height-scan", "--config", DEPHASED, "--sweep", "gamma_par",
         "--grid=0.001:10:13"], tmp_path / "h.csv")
    assert np.all(data[:, 1] <= data[:, 3] * (1 + 1e-12))


def _fake_criteria(passing, budget=60.0):
    def runner(seed):
        return passing, f"seed {seed}"
    return (("fake-check", (runner, budget)),)


def test_validate_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(validation, "CRITERIA", _fake_criteria(True))
    # run_all reads the clock once before and once after each check
    clock = itertools.count(0.0, 3.04)
    monkeypatch.setattr(validation.time, "perf_counter", lambda: next(clock))
    out = tmp_path / "ok.json"
    assert cli.main(["validate", "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    assert doc["results"][0]["detail"] == "seed 3"
    # the wall time is on stderr only
    assert "PASS fake-check: seed 3 [3.0 s of 60 s]" in capsys.readouterr().err
    assert "3.0" not in out.read_text()

    monkeypatch.setattr(validation, "CRITERIA", _fake_criteria(False))
    assert cli.main(["validate", "--seed", "3", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is False


@pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
def test_validate_rejects_a_bad_seed_before_any_criterion(seed, monkeypatch, capsys):
    def never(seed):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(validation, "CRITERIA", (("never", (never, None)),))
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cavlab validate")
    assert "seed must be a non-negative integer" in err


def _raise_in_criterion(seed):
    raise ZeroDivisionError("float division by zero")


def test_crashing_criterion_is_a_fail_and_the_rest_still_run(monkeypatch):
    fine = _fake_criteria(True)
    monkeypatch.setattr(validation, "CRITERIA",
                        (("crashing-check", (_raise_in_criterion, None)),) + fine)
    crashed, after = validation.run_all(seed=3)
    assert crashed.crashed and not crashed.passed and not crashed.skipped
    assert crashed.line().startswith("FAIL crashing-check: crashed: ZeroDivisionError")
    assert "float division by zero" in crashed.detail
    assert after.passed and not after.crashed


def test_validate_exits_3_when_a_criterion_crashed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(validation, "CRITERIA",
                        (("crashing-check", (_raise_in_criterion, None)),))
    out = tmp_path / "crash.json"
    assert cli.main(["validate", "--seed", "3", "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is False
    assert set(doc["results"][0]) == {"name", "passed", "skipped", "reason", "detail"}
    assert "ZeroDivisionError" in doc["results"][0]["detail"]
    err = capsys.readouterr().err
    assert "FAIL crashing-check" in err and err.rstrip().endswith(" s]")


def test_a_criterion_over_its_budget_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(validation, "CRITERIA", _fake_criteria(True, budget=0.0))
    [result] = validation.run_all(seed=3)
    assert not result.passed and result.detail == "seed 3; exceeded 0s budget"
    assert cli.main(["validate", "--seed", "3", "--out", str(tmp_path / "r.json")]) == 1


def test_skipped_and_crashed_criteria_show_their_budget(tmp_path, monkeypatch, capsys):
    def too_big(seed):
        raise BudgetError("Hilbert dimension 18 exceeds budget 16")

    monkeypatch.setattr(validation, "CRITERIA", (
        ("skipped-check", (too_big, 180.0)),
        ("crashing-check", (_raise_in_criterion, 60.0))))
    out = tmp_path / "r.json"
    assert cli.main(["validate", "--seed", "3", "--out", str(out)]) == 3
    skipped, crashed = capsys.readouterr().err.splitlines()
    assert skipped.startswith("SKIP skipped-check: dimension budget too small: Hilbert")
    assert skipped.endswith(" s of 180 s]")
    assert crashed.startswith("FAIL crashing-check: crashed: ZeroDivisionError")
    assert crashed.endswith(" s of 60 s]")
    for result in json.loads(out.read_text())["results"]:
        assert set(result) == {"name", "passed", "skipped", "reason", "detail"}


def test_missing_transmission_doublet_is_a_fail_not_an_error():
    grid = np.linspace(-10.0, 10.0, 401)
    for profile in (np.zeros_like(grid), np.exp(-grid ** 2)):
        ok, text = validation._transmission_doublet(grid, profile, 4.47)
        assert not ok and "no doublet" in text
    two = np.exp(-(grid - 4.45) ** 2) + np.exp(-(grid + 4.45) ** 2)
    assert validation._transmission_doublet(grid, two, 4.47) == (
        True, "doublet at -4.450/+4.450")


def test_validate_budget_skip_and_reproducibility(tmp_path, monkeypatch):
    monkeypatch.setenv("CAVLAB_BUDGET", "16")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["validate", "--seed", "11", "--out", str(first)]) == 0
    assert cli.main(["validate", "--seed", "11", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    skipped = [r for r in doc["results"] if r["skipped"]]
    assert skipped and all("budget" in r["reason"] for r in skipped)
    for entry in doc["results"]:
        assert set(entry) == {"name", "passed", "skipped", "reason", "detail"}


def test_verbose_logs_every_solve_to_stderr_and_leaves_stdout_alone(tmp_path, capsys):
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps({
        "g": 1.0, "n_atoms": 2, "kappa1": 0.5, "kappa2": 0.5, "omega_c": 0.0,
        "omega_a": 0.0, "gamma_par": 2.0, "tau_indiv": 0.5, "beta": 0.05}))
    argv = ["wigner", "--config", str(cfg), "--cutoff", "2", "--grid=-1:1:3"]
    assert cli.main(argv) == 0
    quiet = capsys.readouterr()
    assert cli.main(["-v"] + argv) == 0
    verbose = capsys.readouterr()
    assert verbose.out == quiet.out and quiet.err == ""
    lines = verbose.err.splitlines()
    # cavity leak, two emitter decays and two individual dephasings
    assert lines[0].startswith("cavlab.liouville: build_liouvillian: dimension 48, "
                               "5 jumps, nnz 21279, ")
    # dimension 48: 3**2 cavity entries times 136 multisets of two emitter level pairs
    assert lines[1].startswith("cavlab.liouville: steady_state sector: dimension 48, "
                               "17 sectors, 1224 unknowns, ")
    assert lines[2].startswith("cavlab.liouville: converged_moment_state rung: "
                               "cavity cutoff 2, dimension 48")
    assert logging.getLogger("cavlab").handlers == []
    assert cli.main(argv) == 0 and capsys.readouterr().err == ""


def test_verbose_probe_spectrum_logs_one_build_and_one_probe_record(tmp_path, capsys):
    argv = ["spectrum", "--config", JITTER, "--method", "probe", "--grid=-1:1:3",
            "--out", str(tmp_path / "s.csv")]
    assert cli.main(["-v"] + argv) == 0
    build, probe = capsys.readouterr().err.splitlines()
    assert build.startswith("cavlab.liouville: build_liouvillian: dimension 58, ")
    assert probe.startswith("cavlab.liouville: probe_spectrum: 3 points, "
                            "5 LU factorizations, ")
    assert " 0 direct fallbacks, bare residual " in probe


def test_module_runs_as_subprocess(tmp_path):
    out = tmp_path / "p.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cavlab.cli", "profile", "--config", RESONANT,
         "--grid=-1:1:3", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
