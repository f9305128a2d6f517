import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import relayarq.cli as cli
from relayarq.channel import SystemConfig
from relayarq.outage import arq_outage, outage_interference_n3, outage_single_user
from relayarq.simulate import simulate_direct


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# output and exit codes
# ---------------------------------------------------------------------------

def test_analytic_stdout_matches_library(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--snr-db", "0:20:10", "--rate", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["SNR_dB", "single_user", "interference",
                      "single_user_arq", "interference_arq"]
    assert [float(r[0]) for r in rows] == [0.0, 10.0, 20.0]
    cfg = SystemConfig(N=3, M=3, P=10.0 ** (10.0 / 10.0), noise_var=1.0,
                       var_direct=2.0, var_cross=1.0, var_relay=4.0,
                       rate=2.0, retx=2)
    want_su = outage_single_user(cfg)
    want_int = outage_interference_n3(cfg)
    assert float(rows[1][1]) == pytest.approx(want_su, rel=1e-15)
    assert float(rows[1][2]) == pytest.approx(want_int, rel=1e-15)
    assert float(rows[1][4]) == pytest.approx(arq_outage(want_int, 2), rel=1e-15)


def test_single_point_grid(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--snr-db", "7.5")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1 and float(rows[0][0]) == 7.5


def test_output_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "analytic", "--snr-db", "5", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("SNR_dB,")


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "analytic", "--bogus-flag")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_bad_snr_grid_exits_2(capsys):
    for grid in ("abc", "0:10", "10:0:5", "0:10:-1", "0:10:0"):
        code, _, err = run_cli(capsys, "analytic", "--snr-db", grid)
        assert code == 2, grid
        assert "SNR grid" in err


def test_non_finite_parameters_exit_2(capsys):
    for flags in (("--rate", "nan"), ("--snr-db", "inf"),
                  ("--var-relay", "nan"), ("--noise-var", "inf")):
        code, _, err = run_cli(capsys, "analytic", *flags)
        assert code == 2, flags
        assert "finite" in err


def test_trials_floor_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate-direct", "--trials", "99")
    assert code == 2
    assert "at least 100" in err


def test_computation_error_exits_2(capsys):
    # the relay protocol needs an antenna to null with; the library raises
    code, out, err = run_cli(capsys, "simulate-relay", "--m", "1",
                             "--trials", "100")
    assert code == 2
    assert out == ""
    assert "relay needs at least 2 antennas" in err


@pytest.mark.parametrize("rate, want", [("2", 1.0), ("0", 0.0)])
def test_zero_own_cell_channel_is_an_outcome(capsys, rate, want):
    # no own-cell signal: every message is lost at a positive rate, none at
    # rate 0, in the closed forms and in the simulation alike
    code, out, _ = run_cli(capsys, "analytic", "--var-direct", "0",
                           "--rate", rate, "--snr-db", "0:40:20")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3
    assert all(float(x) == want for row in rows for x in row[1:])
    code, out, _ = run_cli(capsys, "simulate-direct", "--var-direct", "0",
                           "--rate", rate, "--trials", "100")
    assert code == 0
    assert float(parse_csv(out)[1][0][1]) == want


@pytest.mark.parametrize("command", ["analytic", "simulate-direct"])
@pytest.mark.parametrize("flag", ["--n", "--m"])
def test_antenna_ceiling_exits_2_before_any_draw(capsys, monkeypatch,
                                                 command, flag):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew channels past the antenna ceiling")
    for name in ("simulate_direct", "outage_single_user",
                 "outage_interference_n3"):
        monkeypatch.setattr(cli, name, no_draw)
    code, out, err = run_cli(capsys, command, flag, "5001")
    assert code == 2
    assert out == ""
    assert "at most 5000" in err


def test_antenna_ceiling_is_inclusive(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--n", "5000")
    assert code == 0
    _, rows = parse_csv(out)
    assert 0.0 <= float(rows[0][2]) <= 1.0


def _forbid_library_calls(monkeypatch):
    def no_call(*args, **kwargs):
        raise AssertionError("library called before the run was validated")
    for name in ("simulate_direct", "outage_single_user",
                 "outage_interference_n3", "solve_single_user_beamformer",
                 "max_min_sinr"):
        monkeypatch.setattr(cli, name, no_call)


@pytest.mark.parametrize("command", ["analytic", "simulate-direct"])
@pytest.mark.parametrize("flag", ["-o", "--dump-config"])
def test_unusable_output_path_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, command, flag):
    _forbid_library_calls(monkeypatch)
    for target in (tmp_path / "missing_dir" / "x.out", tmp_path):
        code, out, err = run_cli(capsys, command, flag, str(target))
        assert code == 2
        assert out == ""
        assert f"cannot write {target}" in err
    assert not (tmp_path / "missing_dir").exists()


def test_failed_write_exits_2(tmp_path, capsys):
    # the directory exists, but the file name is longer than any file
    # system allows, so only the write itself can fail
    target = tmp_path / ("x" * 300)
    code, out, err = run_cli(capsys, "analytic", "-o", str(target))
    assert code == 2
    assert out == ""
    assert f"cannot write {target}" in err


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_analytic_any_antenna_count(capsys, n):
    code, out, _ = run_cli(capsys, "analytic", "--n", str(n),
                           "--snr-db", "0:40:10")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    for row in rows:
        cfg = SystemConfig(N=n, M=3, P=10.0 ** (float(row[0]) / 10.0),
                           noise_var=1.0, var_direct=2.0, var_cross=1.0,
                           var_relay=4.0, rate=2.0, retx=2)
        assert float(row[2]) == pytest.approx(outage_interference_n3(cfg),
                                              rel=1e-15)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_file_applies(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("rate = 3.0\nsnr_db = 0:10:5  # grid\n")
    code, out, _ = run_cli(capsys, "analytic", "--config", str(conf))
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3
    cfg = SystemConfig(N=3, M=3, P=1.0, noise_var=1.0, var_direct=2.0,
                       var_cross=1.0, var_relay=4.0, rate=3.0, retx=2)
    assert float(rows[0][1]) == pytest.approx(outage_single_user(cfg), rel=1e-15)


def test_flags_override_config(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("rate = 3.0\nsnr_db = 0\n")
    _, with_flag, _ = run_cli(capsys, "analytic", "--config", str(conf),
                              "--rate", "2")
    _, plain, _ = run_cli(capsys, "analytic", "--snr-db", "0", "--rate", "2")
    assert with_flag == plain


def test_config_round_trip(tmp_path, capsys):
    dump = tmp_path / "dumped.conf"
    code, first, _ = run_cli(capsys, "analytic", "--snr-db", "0:10:5",
                             "--rate", "3", "--dump-config", str(dump))
    assert code == 0
    code, second, _ = run_cli(capsys, "analytic", "--config", str(dump))
    assert code == 0
    assert first == second


@pytest.mark.parametrize("body,needle", [
    ("bogus = 1\n", "unknown key"),
    ("rate\n", "expected key = value"),
    ("rate = abc\n", "bad value"),
    ("preset = fig1\n", "unknown key"),
])
def test_config_errors_exit_2(tmp_path, capsys, body, needle):
    conf = tmp_path / "bad.conf"
    conf.write_text(body)
    code, _, err = run_cli(capsys, "analytic", "--config", str(conf))
    assert code == 2
    assert needle in err


# a non-default value for every run parameter, as text
SAMPLE = {"seed": "7", "trials": "500", "threads": "2", "n": "4", "m": "5",
          "rate": "3.5", "retx": "3", "noise_var": "0.5", "var_direct": "1.5",
          "var_cross": "0.25", "var_relay": "2.5", "snr_db": "0:10:5",
          "output": "table.csv"}


@pytest.mark.parametrize("key", list(cli.PARAMS))
def test_flag_and_config_key_agree(tmp_path, capsys, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    value = SAMPLE[key]
    assert cli.PARAMS[key][0](value) != cli.PARAMS[key][1]
    flag = "-o" if key == "output" else "--" + key.replace("_", "-")
    (tmp_path / "run.conf").write_text(f"{key} = {value}\n")
    code, by_flag, _ = run_cli(capsys, "analytic", flag, value,
                               "--dump-config", "flag.conf")
    assert code == 0
    code, by_file, _ = run_cli(capsys, "analytic", "--config", "run.conf",
                               "--dump-config", "file.conf")
    assert code == 0
    assert by_flag == by_file
    dumped = (tmp_path / "flag.conf").read_text()
    assert dumped == (tmp_path / "file.conf").read_text()
    assert f"{key} = {cli.PARAMS[key][0](value)}\n" in dumped


def test_missing_config_exits_2(capsys):
    code, _, err = run_cli(capsys, "analytic", "--config", "/nonexistent.conf")
    assert code == 2
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# simulation commands
# ---------------------------------------------------------------------------

def test_simulate_direct_matches_library(capsys):
    code, out, _ = run_cli(capsys, "simulate-direct", "--snr-db", "10",
                           "--trials", "500", "--seed", "9")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["SNR_dB", "p", "ci", "messages", "failures"]
    cfg = SystemConfig(N=3, M=3, P=10.0, noise_var=1.0, var_direct=2.0,
                       var_cross=1.0, var_relay=4.0, rate=2.0, retx=2)
    est = simulate_direct(cfg, trials=500, seed=9)
    assert int(rows[0][3]) == est.trials
    assert int(rows[0][4]) == est.failures
    assert float(rows[0][1]) == pytest.approx(est.p_hat, rel=1e-15)


def test_repeat_runs_byte_identical(capsys):
    args = ("simulate-direct", "--snr-db", "0:10:5", "--trials", "300",
            "--seed", "3", "--threads", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_simulate_relay_csv(capsys):
    code, out, _ = run_cli(capsys, "simulate-relay", "--snr-db", "40",
                           "--trials", "100", "--seed", "5", "--rate", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["SNR_dB", "pooled_p", "pooled_ci", "user1_p", "user1_ci",
                      "user2_p", "user2_ci"]
    assert len(rows) == 1 and len(rows[0]) == 7


# ---------------------------------------------------------------------------
# beamformer commands
# ---------------------------------------------------------------------------

def test_beamform_single_self_consistent(capsys):
    code, out, _ = run_cli(capsys, "beamform-single", "--m", "4", "--seed", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "gain", "predicted_gain", "null_residual", "power"]
    gain, predicted = float(rows[0][1]), float(rows[0][2])
    assert gain == pytest.approx(predicted, rel=1e-12)
    assert float(rows[0][3]) < 1e-10
    # deterministic in the seed
    _, again, _ = run_cli(capsys, "beamform-single", "--m", "4", "--seed", "5")
    assert out == again


def test_beamform_multi_self_consistent(capsys):
    code, out, _ = run_cli(capsys, "beamform-multi", "--m", "3", "--seed", "11",
                           "--snr-db", "20")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "t_star", "sinr1", "sinr2", "rank1", "rank2", "power"]
    t_star = float(rows[0][1])
    assert min(float(rows[0][2]), float(rows[0][3])) >= t_star * (1 - 1e-3)
    assert rows[0][4] == "1" and rows[0][5] == "1"


def test_beamform_single_zero_relay_channel(capsys):
    # a zero relay channel is an outcome: nothing to null, nothing to reach
    code, out, _ = run_cli(capsys, "beamform-single", "--var-relay", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][:4] == ["3", "0", "0", "0"]
    assert float(rows[0][4]) == pytest.approx(10.0, rel=1e-15)
    code, out, _ = run_cli(capsys, "beamform-multi", "--var-relay", "0")
    assert code == 0
    assert parse_csv(out)[1][0] == ["3", "0", "0", "0", "0", "0", "0"]


@pytest.mark.parametrize("command", ["beamform-single", "beamform-multi"])
@pytest.mark.parametrize("flag, value, needle", [
    ("--snr-db", "0:40:10", "beamform commands take one SNR"),
    ("--var-relay", "-1", "variances must be nonnegative"),
])
def test_beamform_bad_input_exits_2_before_any_draw(
        capsys, monkeypatch, command, flag, value, needle):
    _forbid_library_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # no draw at a negative variance
        code, out, err = run_cli(capsys, command, flag, value)
    assert code == 2
    assert out == ""
    assert needle in err


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def test_figure_1_table(capsys):
    code, out, _ = run_cli(capsys, "figure", "1", "--trials", "200", "--seed", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["SNR_dB", "L", "analytic", "mc", "ci"]
    assert len(rows) == 36


def test_figure_requires_valid_index(capsys):
    assert run_cli(capsys, "figure", "4")[0] == 2


# ---------------------------------------------------------------------------
# import path
# ---------------------------------------------------------------------------

def test_cli_import_leaves_heavy_scipy_unloaded():
    # every CLI call pays for what importing the package loads; quadrature
    # and its oracles belong to the tests, and only scipy.special is needed
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = ("import sys, relayarq.cli; "
             f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == ""
