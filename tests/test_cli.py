import contextlib
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relayarq.cli as cli
import relayarq.simulate as simulate
from relayarq.channel import (MAX_ATTEMPTS, MAX_FINITE, MAX_SNR_DB,
                              MIN_POSITIVE, SystemConfig)
from relayarq.outage import arq_outage, outage_interference_n3, outage_single_user
from relayarq.simulate import simulate_direct

# the CLI's contract holds with every warning an error, as the installed
# entry point's smoke run has it (PYTHONWARNINGS=error)
pytestmark = pytest.mark.filterwarnings("error")


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


# the grids README, CI and the tests run, with their point counts
@pytest.mark.parametrize("text, count", [
    ("0:40:5", 9), ("0:40:10", 5), ("0:40:0.1", 401), ("-5:5:5", 3),
    ("0:0.9:0.3", 4), ("0:0.7:0.1", 8), ("0:3e-9:2e-9", 2),
])
def test_snr_grid_of_the_documented_runs(capsys, text, count):
    # one table row per point
    a, _, step = map(float, text.split(":"))
    grid = [a + k * step for k in range(count)]
    assert cli._parse_snr_grid(text) == grid
    code, out, _ = run_cli(capsys, "analytic", "--snr-db", text)
    assert code == 0
    assert [float(row[0]) for row in parse_csv(out)[1]] == grid


def test_snr_grid_is_every_step_up_to_its_bound():
    # A:B:STEP is every A + k*STEP up to B: the last point lies at B or
    # below, up to the rounding of its sum, and the next one past B. A B
    # that is itself a computed point is the last point.
    rng = random.Random(34)
    cases = [(0.0, 1e-10, 6e-11), (0.0, 3e-9, 2e-9)]
    for _ in range(2000):
        a = rng.uniform(-100, 100)
        step = 10 ** rng.uniform(-12, math.log10(30))
        k = rng.randint(0, 2000)
        cases += [(a, a + k * step, step),
                  (a, a + rng.uniform(0, k + 1) * step, step)]
    for a, b, step in cases:
        grid = cli._parse_snr_grid(f"{a!r}:{b!r}:{step!r}")
        rounding = 4 * sys.float_info.epsilon * max(abs(a), abs(b))
        assert grid == [a + k * step for k in range(len(grid))]
        assert grid[-1] <= b + rounding, (a, b, step)
        assert a + len(grid) * step > b, (a, b, step)


def test_bad_snr_grid_exits_2(capsys):
    for grid in ("abc", "0:10", "10:0:5", "0:10:-1", "0:10:0", "0:inf:1"):
        code, _, err = run_cli(capsys, "analytic", "--snr-db", grid)
        assert code == 2, grid
        assert "SNR grid" in err


def test_snr_grid_that_repeats_a_point_exits_2(capsys, monkeypatch):
    # a STEP below the spacing of the floats near A rounds A + k*STEP to
    # one float for runs of k: this grid's 112 points hold 6 values, so
    # its table would repeat rows. A grid whose points do not strictly
    # rise is refused before any work, naming the grid.
    grid = "1:1.000000000000001:1e-17"
    _forbid_library_calls(monkeypatch)
    for command in ("analytic", "simulate-direct", "simulate-relay",
                    "figure 1"):
        code, out, err = run_cli(capsys, *command.split(), "--trials",
                                 "100", "--snr-db", grid)
        assert (code, out) == (2, ""), command
        assert f"relayarq: SNR grid {grid!r} repeats a point" in err
    # steps well above the spacing keep every point
    assert len(cli._parse_snr_grid("0:40:0.1")) == 401
    assert cli._parse_snr_grid("0:3e-9:2e-9") == [0.0, 2e-9]


def test_non_finite_parameters_exit_2(capsys):
    # NaN is not a real number; an infinite SNR lies past the SNR ceiling,
    # and an infinite noise is refused before the P formed from it
    for flags, message in (
            (("--rate", "nan"), "rate must be a real number"),
            (("--snr-db", "inf"), f"snr_db must be at most {MAX_SNR_DB!r}"),
            (("--var-relay", "nan"), "var_relay must be a real number"),
            (("--var-relay", "inf"),
             f"var_relay must be at most {MAX_FINITE!r}"),
            (("--noise-var", "inf"),
             f"noise_var must be at most {MAX_FINITE!r}")):
        code, _, err = run_cli(capsys, "analytic", *flags)
        assert code == 2, flags
        assert err == f"relayarq: {message}\n"


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
    assert err == "relayarq: M must be at least 2\n"


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


@pytest.mark.parametrize("command", ["simulate-direct", "simulate-relay"])
@pytest.mark.parametrize("rate, want", [("2", 1.0), ("0", 0.0)])
def test_subnormal_power_is_an_outcome(capsys, command, rate, want):
    # P = 2e-323 is subnormal and P/N underflowed to 0, so the direct
    # floor divided by zero; every message fails at rate 2, none at rate 0
    code, out, _ = run_cli(capsys, command, "--trials", "100", "--n", "64",
                           "--noise-var", "1e-300", "--snr-db", "-227",
                           "--rate", rate)
    assert code == 0
    assert float(parse_csv(out)[1][0][1]) == want


@pytest.mark.parametrize("flags", [
    ("--noise-var", "1e-200", "--var-direct", "1e-200"),   # P var_direct = 0
    ("--var-direct", "1e-320"),                  # 1 / var_direct = inf
])
def test_vanishing_own_cell_variance_loses_everything(capsys, flags):
    code, out, _ = run_cli(capsys, "analytic", *flags)
    assert code == 0
    _, rows = parse_csv(out)
    assert all(float(x) == pytest.approx(1.0, abs=1e-12) for x in rows[0][1:])


def test_vanishing_interference_is_single_user(capsys):
    # gamma var_cross = 6.7e-16 * 1e-320 underflowed to 0
    code, out, _ = run_cli(capsys, "analytic", "--rate", "1e-15",
                           "--var-cross", "1e-320")
    assert code == 0
    _, rows = parse_csv(out)
    for single, interference in ((1, 2), (3, 4)):
        assert float(rows[0][interference]) == pytest.approx(
            float(rows[0][single]), rel=1e-12, abs=0.0)
    # at var_cross = 0 the interference law is the single-user law: equal
    # cells on every row, compared as strings
    code, out, _ = run_cli(capsys, "analytic", "--var-cross", "0",
                           "--snr-db", "0:40:10")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    for row in rows:
        assert (row[2], row[4]) == (row[1], row[3]), row


@pytest.mark.parametrize("command", ["analytic", "simulate-direct",
                                     "simulate-relay"])
@pytest.mark.parametrize("flag", ["--n", "--m"])
def test_antenna_ceiling_exits_2_before_any_draw(capsys, monkeypatch,
                                                 command, flag):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew channels past the antenna ceiling")
    for name in ("simulate_direct", "simulate_relay", "outage_single_user",
                 "outage_interference_n3"):
        monkeypatch.setattr(cli, name, no_draw)
    code, out, err = run_cli(capsys, command, flag, "5001")
    assert code == 2
    assert out == ""
    assert "at most 5000" in err


@pytest.mark.parametrize("command", ["simulate-direct", "simulate-relay",
                                     "beamform-multi", "analytic",
                                     "beamform-single", "figure 1"])
def test_seed_outside_64_bits_exits_2_before_any_draw(capsys, monkeypatch,
                                                      command):
    # every command checks the seed, read or not, before any library call
    _forbid_library_calls(monkeypatch)
    for seed, message in ((-1, "seed must be at least 0"),
                          (2 ** 64, "seed must be at most "
                                    "18446744073709551615")):
        code, out, err = run_cli(capsys, *command.split(), "--trials", "100",
                                 "--seed", str(seed))
        assert code == 2
        assert out == ""
        assert message in err
    monkeypatch.undo()
    assert run_cli(capsys, *command.split(), "--trials", "100",
                   "--seed", str(2 ** 64 - 1))[0] == 0


def test_antenna_ceiling_is_inclusive(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--n", "5000",
                           "--snr-db", "0:40:10")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)


def _forbid_library_calls(monkeypatch):
    def no_call(*args, **kwargs):
        raise AssertionError("library called before the run was validated")
    for name in ("simulate_direct", "simulate_relay", "outage_single_user",
                 "outage_interference_n3", "solve_single_user_beamformer",
                 "max_min_sinr", "optimal_gain", "substream", "cn",
                 "run_experiment"):
        monkeypatch.setattr(cli, name, no_call)


# the one line a refused run writes to standard error, by the rule it
# breaks: 2^R must be finite, so R < 1024; 10^(SNR/10) must be finite, so
# the SNR is at most MAX_SNR_DB; P is positive and at most half the float
# range, so the multiuser relay power 2P is finite; the channel variances
# are nonnegative and the noise positive; the parameters finite
REFUSALS = {
    "rate must be below 1024": "rate must be at most 1023.9999999999999",
    "overflows the transmit power": f"snr_db must be at most {MAX_SNR_DB!r}",
    "relay power 2P overflows": f"P must be at most {MAX_FINITE / 2!r}",
    "power underflows to 0": f"P must be at least {MIN_POSITIVE!r}",
    "variances must be nonnegative": "var_relay must be at least 0",
    "noise must be positive": f"noise_var must be at least {MIN_POSITIVE!r}",
    "parameters must be finite": f"snr_db must be at most {MAX_SNR_DB!r}",
    "more than 100000 points": "SNR grid '0:1e12:1' points must be at most "
                               "100000",
    "beamform commands take one SNR": "beamform commands take one SNR",
    "N must be at least 1": "N must be at least 1",
}


@pytest.mark.parametrize("argv, rule", [
    (("analytic", "--rate", "2000"), "rate must be below 1024"),
    (("simulate-direct", "--rate", "2000", "--trials", "100"),
     "rate must be below 1024"),
    (("analytic", "--snr-db", "4000"), "overflows the transmit power"),
    (("simulate-relay", "--snr-db", "4000", "--trials", "100"),
     "overflows the transmit power"),
    (("analytic", "--snr-db", "3080"), "relay power 2P overflows"),
    (("simulate-direct", "--snr-db", "3080", "--trials", "100"),
     "relay power 2P overflows"),
    (("figure", "1", "--rate", "2000"), "rate must be below 1024"),
])
def test_overflowing_threshold_or_power_exits_2(capsys, monkeypatch, argv,
                                                rule):
    # 2^R, 10^(SNR/10) and the multiuser relay power 2P past the double range
    # are config errors, caught when the config is built
    _forbid_library_calls(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"relayarq: {REFUSALS[rule]}\n"


def test_attempt_ceiling_exits_2_before_any_draw(capsys, monkeypatch):
    _forbid_library_calls(monkeypatch)
    code, out, err = run_cli(capsys, "simulate-direct", "--trials", "100",
                             "--retx", str(MAX_ATTEMPTS + 1))
    assert code == 2
    assert out == ""
    assert f"retx must be at most {MAX_ATTEMPTS}" in err


def test_attempt_ceiling_is_inclusive(capsys):
    code, out, _ = run_cli(capsys, "simulate-direct", "--trials", "100",
                           "--retx", str(MAX_ATTEMPTS))
    assert code == 0
    _, rows = parse_csv(out)
    assert 0.0 <= float(rows[0][1]) <= 1.0


@pytest.mark.parametrize("argv, needle", [
    (("simulate-relay", "--trials", str(cli.MAX_TRIALS + 1)),
     f"trials must be at most {cli.MAX_TRIALS}"),
    (("simulate-direct", "--trials", "100", "--snr-db", "0:inf:1"),
     "bad SNR grid"),
    (("analytic", "--snr-db", f"0:{cli.MAX_GRID_POINTS}:1"),
     f"points must be at most {cli.MAX_GRID_POINTS}"),
    (("simulate-relay", "--trials", "100", "--snr-db",
      f"0:{10 * cli.MAX_GRID_POINTS}:1"),
     f"points must be at most {cli.MAX_GRID_POINTS}"),
    (("simulate-direct", "--trials", "100", "--threads", "0"),
     "threads must be at least 1"),
])
def test_run_ceilings_exit_2_before_any_allocation(capsys, monkeypatch,
                                                   argv, needle):
    # a grid is counted before it is built, and a run past the trial
    # ceiling never reaches the engine's memos
    _forbid_library_calls(monkeypatch)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert needle in err
    assert peak < 1 << 20


def test_run_ceilings_are_inclusive(capsys, monkeypatch):
    assert len(cli._parse_snr_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")) \
        == cli.MAX_GRID_POINTS
    # the largest trial count passes validation and reaches the engine;
    # it is 1 GiB over the 104 B per trial of the engine's memos
    assert cli.MAX_TRIALS == 10_324_440 == 2 ** 30 // 104
    _forbid_library_calls(monkeypatch)
    with pytest.raises(AssertionError, match="before the run was validated"):
        cli.main(["simulate-relay", "--trials", str(cli.MAX_TRIALS)])


@pytest.mark.parametrize("command", ["analytic", "simulate-direct"])
@pytest.mark.parametrize("flag", ["-o", "--dump-config"])
def test_unusable_output_path_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, command, flag):
    # main(argv) in process can still pass a NUL byte, which no file name holds
    _forbid_library_calls(monkeypatch)
    for target in (tmp_path / "missing_dir" / "x.out", tmp_path,
                   tmp_path / "a\0b.csv"):
        code, out, err = run_cli(capsys, command, flag, str(target))
        assert code == 2
        assert out == ""
        assert f"cannot write {target}" in err
    assert not (tmp_path / "missing_dir").exists()


@pytest.mark.parametrize("argv", [
    ("-o", "same.txt", "--dump-config", "same.txt"),
    ("-o", "./same.txt", "--dump-config", "same.txt"),
    ("--config", "run.conf", "-o", "run.conf"),
])
def test_output_may_not_name_a_config_file(tmp_path, capsys, monkeypatch,
                                           argv):
    # the table would overwrite the config file read or dumped
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text("snr_db = 10\n")
    _forbid_library_calls(monkeypatch)
    code, out, err = run_cli(capsys, "analytic", *argv)
    assert code == 2
    assert out == ""
    assert "it is a config file" in err
    assert os.listdir(tmp_path) == ["run.conf"]
    assert (tmp_path / "run.conf").read_text() == "snr_db = 10\n"


@pytest.mark.parametrize("argv, rule", [
    (("analytic", "--snr-db", "0:1e12:1"), "more than 100000 points"),
    (("beamform-multi", "--snr-db", "0:10:5"),
     "beamform commands take one SNR"),
    (("analytic", "--snr-db", "4000"), "overflows the transmit power"),
    (("figure", "1", "--n", "0"), "N must be at least 1"),
    (("figure", "1", "--var-relay", "-1"), "variances must be nonnegative"),
    (("figure", "2", "--snr-db", "1e400"), "parameters must be finite"),
    (("analytic", "--noise-var", "-1"), "noise must be positive"),
    (("analytic", "--snr-db", "-4000"), "power underflows to 0"),
])
def test_refused_run_dumps_no_config(tmp_path, capsys, monkeypatch, argv,
                                     rule):
    # the config file records a run that happened, never a refused one
    _forbid_library_calls(monkeypatch)
    dump = tmp_path / "run.conf"
    code, out, err = run_cli(capsys, *argv, "--dump-config", str(dump))
    assert code == 2
    assert out == ""
    assert err == f"relayarq: {REFUSALS[rule]}\n"
    assert not dump.exists()
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
def test_failed_table_write_dumps_no_config(tmp_path, capsys):
    # every write to /dev/full fails for want of space, so the run's table
    # is lost and no config file may record the run
    dump = tmp_path / "d.conf"
    code, out, err = run_cli(capsys, "analytic", "--snr-db", "10", "-o",
                             "/dev/full", "--dump-config", str(dump))
    assert code == 2
    assert out == ""
    assert "No space left on device" in err
    assert not dump.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
def test_failed_dump_leaves_standard_output_empty(capsys):
    # files are written before standard output, so a run that exits 2 for
    # want of its dump has printed no table
    code, out, err = run_cli(capsys, "analytic", "--snr-db", "10",
                             "--dump-config", "/dev/full")
    assert code == 2
    assert out == ""
    assert "cannot write /dev/full: [Errno 28] No space left on device" in err


def cli_process(argv, unbuffered, redirect, cwd=None):
    """Run ``relayarq.cli`` on ``argv`` in a fresh interpreter whose
    streams the shell redirection ``redirect`` sets (``2>/dev/full`` fills
    standard error, ``>&-`` closes standard output), with every warning an
    error and PYTHONUNBUFFERED removed from its environment or set to 1;
    the streams it leaves are captured as text."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONWARNINGS="error", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, "-m", "relayarq.cli", *argv]
    proc = subprocess.run(["/bin/sh", "-c", f'exec "$@" {redirect}', "sh",
                           *cmd], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    for text in (proc.stdout, proc.stderr):
        assert "Traceback" not in text and "Exception ignored" not in text
    return proc


# a real process, as only one can find a standard stream full or closed;
# each broken-stream test runs buffered, as by default, and unbuffered
broken_streams = pytest.mark.skipif(
    not os.path.exists("/dev/full"),
    reason="needs a POSIX shell and the /dev/full device")
both_buffers = pytest.mark.parametrize("unbuffered", [False, True],
                                       ids=["buffered", "unbuffered"])


@broken_streams
@pytest.mark.parametrize("argv", [("analytic", "--snr-db", "10"), ("--help",)],
                         ids=["table", "help"])
@both_buffers
def test_failed_write_to_standard_output_exits_2(argv, unbuffered):
    # a buffered standard output keeps what it failed to write, and the
    # flush at exit must not fail on it again: no "Exception ignored", and
    # the exit code is main's
    proc = cli_process(argv, unbuffered, ">/dev/full")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("relayarq: cannot write standard output: "
                           "[Errno 28] No space left on device\n")


@broken_streams
@both_buffers
def test_closed_standard_output_exits_2(tmp_path, unbuffered):
    proc = cli_process(["analytic"], unbuffered, ">&-")
    assert proc.returncode == 2
    assert proc.stderr == ("relayarq: cannot write standard output: "
                           "it is closed\n")
    # a run that writes its table to -o does not need standard output
    proc = cli_process(["analytic", "-o", "y.csv"], unbuffered, ">&-",
                       cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert cli.main(["analytic", "-o", str(tmp_path / "want.csv")]) == 0
    assert (tmp_path / "y.csv").read_bytes() \
        == (tmp_path / "want.csv").read_bytes()


@broken_streams
@pytest.mark.parametrize("argv, want", [
    (("figure", "1", "--trials", "300", "--seed", "3"), "fig1-t300-s3.csv"),
    (("simulate-direct", "--trials", "100"), None),
], ids=["figure-1", "simulate-direct"])
@both_buffers
def test_full_standard_error_changes_nothing(tmp_path, capsys, argv, want,
                                             unbuffered):
    # standard error carries only progress: the run completes, and its
    # file is the one a working standard error gets
    proc = cli_process([*argv, "-o", "x.csv"], unbuffered, "2>/dev/full",
                       cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "")
    if want is None:
        want = tmp_path / "want.csv"
        assert run_cli(capsys, *argv, "-o", str(want))[0] == 0
    else:
        want = Path(__file__).resolve().parent / "data" / want
    assert (tmp_path / "x.csv").read_bytes() == want.read_bytes()


@broken_streams
@pytest.mark.parametrize("argv", [("figure", "9"), ("analytic", "--rate", "2000")],
                         ids=["usage", "run"])
@both_buffers
def test_errors_on_full_standard_error_exit_2(argv, unbuffered):
    # the message is lost, its exit code is not
    proc = cli_process(argv, unbuffered, "2>/dev/full")
    assert (proc.returncode, proc.stdout) == (2, "")


@broken_streams
@pytest.mark.parametrize("argv, code", [
    (("simulate-direct", "--trials", "100", "--snr-db", "0:10:10"), 0),
    (("figure", "9"), 2),
], ids=["run", "usage"])
@both_buffers
def test_closed_standard_error_changes_nothing(capsys, argv, code, unbuffered):
    # no line meant for standard error lands on standard output: it holds
    # the table a working standard error gets, or nothing on a usage error
    proc = cli_process(argv, unbuffered, "2>&-")
    assert (proc.returncode, proc.stdout) == (code, run_cli(capsys, *argv)[1])


@pytest.mark.parametrize("argv, needle", [
    (("-o", ""), "cannot write : not a file in an existing directory"),
    (("--dump-config=",), "cannot write : not a file in an existing directory"),
    (("--config", ""), "cannot read config file"),
], ids=["-o", "--dump-config", "--config"])
def test_empty_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                            argv, needle):
    # an empty path is given, not absent: it names no file to write or read
    monkeypatch.chdir(tmp_path)
    _forbid_library_calls(monkeypatch)
    code, out, err = run_cli(capsys, "analytic", *argv)
    assert code == 2
    assert out == ""
    assert needle in err
    assert os.listdir(tmp_path) == []


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
    # a "#" anywhere starts a comment that runs to the end of its line,
    # inside a value too
    conf = tmp_path / "run.conf"
    conf.write_text("# rate = 9\n  # snr_db = 40\n\nrate = 3.0#bits\n"
                    "snr_db = 0:10:5#0:40:10  # grid\n")
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


@pytest.mark.parametrize("body,needle", [
    ("bogus = 1\n", "unknown key"),
    ("rate\n", "expected key = value"),
    ("rate = abc\n", "bad value"),
    ("preset = fig1\n", "unknown key"),
    ("rate = 3  # \udcff\n", "cannot read config file"),   # not UTF-8
    ("output = t.csv\n", "unknown key"),       # -o is not a run parameter
    ("output = a\0b.csv\n", "unknown key"),    # nor a path no file holds
])
def test_config_errors_exit_2(tmp_path, capsys, body, needle):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(body.encode("utf-8", "surrogateescape"))
    code, _, err = run_cli(capsys, "analytic", "--config", str(conf))
    assert code == 2
    assert needle in err


# a non-default value for every run parameter, as text
SAMPLE = {"seed": "7", "trials": "500", "threads": "2", "n": "4", "m": "5",
          "rate": "3.5", "retx": "3", "noise_var": "0.5", "var_direct": "1.5",
          "var_cross": "0.25", "var_relay": "2.5", "snr_db": "0:10:5"}


@pytest.mark.parametrize("key", list(cli.PARAMS))
def test_flag_and_config_key_agree(tmp_path, capsys, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    value = SAMPLE[key]
    assert cli.PARAMS[key][0](value) != cli.PARAMS[key][1]
    (tmp_path / "run.conf").write_text(f"{key} = {value}\n")
    code, by_flag, _ = run_cli(capsys, "analytic", cli._flag(key), value,
                               "--dump-config", "flag.conf")
    assert code == 0
    code, by_file, _ = run_cli(capsys, "analytic", "--config", "run.conf",
                               "--dump-config", "file.conf")
    assert code == 0
    assert by_flag == by_file
    dumped = (tmp_path / "flag.conf").read_text()
    assert dumped == (tmp_path / "file.conf").read_text()
    assert f"{key} = {cli.PARAMS[key][0](value)}\n" in dumped


def test_config_round_trip(tmp_path, capsys, monkeypatch):
    # every run parameter away from its default survives a dump and a load
    monkeypatch.chdir(tmp_path)
    argv = ["analytic", "--dump-config", "first.conf"]
    for key, value in SAMPLE.items():
        argv += [cli._flag(key), value]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert cli._load_config("first.conf") == {
        key: cli.PARAMS[key][0](value) for key, value in SAMPLE.items()}
    code, second, _ = run_cli(capsys, "analytic", "--config", "first.conf",
                              "--dump-config", "second.conf")
    assert code == 0
    assert second == first
    assert sorted(os.listdir(tmp_path)) == ["first.conf", "second.conf"]
    assert (tmp_path / "second.conf").read_text() \
        == (tmp_path / "first.conf").read_text()
    # a figure rerun from its dump writes the same table
    code, out, _ = run_cli(capsys, "figure", "1", "--trials", "100", "-o",
                           "a.csv", "--dump-config", "f1.conf")
    assert (code, out) == (0, "")
    code, out, _ = run_cli(capsys, "figure", "1", "--config", "f1.conf",
                           "-o", "b.csv")
    assert (code, out) == (0, "")
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


@pytest.mark.parametrize("output", [" lead.csv", "a\nb.csv",
                                    os.fsdecode(b"\xff.csv")])
def test_dump_config_records_no_output(tmp_path, capsys, monkeypatch,
                                       output):
    # -o belongs to the invocation, so any path goes with a dump, even one
    # no config line could hold, and the rerun names it again
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "analytic", "--snr-db", "0:20:10", "-o",
                           output, "--dump-config", "run.conf")
    assert code == 0
    assert out == ""
    table = (tmp_path / output).read_bytes()
    assert table.startswith(b"SNR_dB,")
    dumped = (tmp_path / "run.conf").read_text()
    assert "output" not in dumped
    (tmp_path / output).unlink()
    code, _, _ = run_cli(capsys, "analytic", "--config", "run.conf",
                         "-o", output)
    assert code == 0
    assert (tmp_path / output).read_bytes() == table
    assert sorted(os.listdir(tmp_path)) == sorted([output, "run.conf"])


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


# every flag the command takes but does not read, as the README lists them
_NOT_FOR_FIGURE = ("--snr-db", "0:20:10", "--n", "4", "--m", "5", "--rate",
                   "5", "--retx", "3", "--noise-var", "2", "--var-direct",
                   "1", "--var-cross", "3", "--var-relay", "1")
_NOT_FOR_BEAMFORM = ("--n", "7", "--rate", "5", "--retx", "4", "--trials",
                     "500", "--var-direct", "0.5", "--var-cross", "3")


@pytest.mark.parametrize("base, ignored", [
    *[(("figure", which, "--trials", "100"), _NOT_FOR_FIGURE)
      for which in "123"],
    (("simulate-relay", "--snr-db", "0:20:10", "--trials", "500"),
     ("--retx", "1")),
    (("simulate-relay", "--snr-db", "0:20:10", "--trials", "500"),
     ("--retx", "5")),
    (("analytic", "--snr-db", "0:20:10"),
     ("--m", "7", "--var-relay", "0", "--trials", "500", "--seed", "4")),
    (("simulate-direct", "--snr-db", "0:20:10", "--trials", "500"),
     ("--m", "7", "--var-relay", "0")),
    (("beamform-single", "--m", "4", "--seed", "5"), _NOT_FOR_BEAMFORM),
    (("beamform-multi", "--m", "4", "--seed", "5"), _NOT_FOR_BEAMFORM),
])
def test_a_command_ignores_the_flags_it_does_not_read(capsys, base, ignored):
    # simulate-relay is one direct round plus one relay round, so --retx
    # does not apply; the direct commands have no relay
    code, want, _ = run_cli(capsys, *base)
    assert code == 0
    assert run_cli(capsys, *base, *ignored)[:2] == (0, want)


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


def test_beamform_single_serves_a_weak_target(capsys):
    # an absolute threshold once sent this servable target the fallback
    # beam, 47 % short of its gain
    code, out, _ = run_cli(capsys, "beamform-single", "--var-relay", "1e-13")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(float(rows[0][2]), rel=1e-12)


def test_beamform_single_refuses_an_overflowing_gain(capsys, monkeypatch):
    # Pr ||g_t||^2 lies far beyond the float range: refused with exit 2
    # before a beam or any vdot is formed, and without a warning
    def no_beam(*args, **kwargs):
        raise AssertionError("formed a beam whose gain overflows")
    monkeypatch.setattr(cli, "solve_single_user_beamformer", no_beam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "beamform-single", "--var-relay",
                                 "1e300", "--snr-db", "100")
    assert code == 2
    assert out == ""
    assert "overflows" in err


def test_beamform_single_refuses_a_one_antenna_relay(capsys):
    # zero-forcing toward one user has nothing to null with: bad input,
    # exit 2 with the design's own message
    code, out, err = run_cli(capsys, "beamform-single", "--m", "1")
    assert code == 2
    assert out == ""
    assert err == "relayarq: relay antennas must be at least 2\n"


@pytest.mark.parametrize("flags", [
    ("--snr-db", "1600"),          # the filters and power system cancelled
    ("--var-relay", "1e-170"),     # the Gram term underflowed
    ("--snr-db", "3000", "--var-relay", "1e-300"),     # both at once
    ("--var-relay", "1e-310"),     # a subnormal optimum
])
def test_beamform_multi_reaches_t_star_at_extremes(capsys, flags):
    code, out, _ = run_cli(capsys, "beamform-multi", *flags)
    assert code == 0
    assert "nan" not in out
    _, rows = parse_csv(out)
    t_star, s1, s2 = (float(x) for x in rows[0][1:4])
    assert t_star > 0
    assert min(s1, s2) >= t_star * (1 - 1e-9)
    snr_db = float(dict(zip(flags[::2], flags[1::2])).get("--snr-db", 10))
    budget = 2 * 10.0 ** (snr_db / 10)       # Pr_multi = 2P, noise 1
    assert float(rows[0][6]) == pytest.approx(budget, rel=1e-12)


@pytest.mark.parametrize("command", ["beamform-single", "beamform-multi"])
@pytest.mark.parametrize("flag, value, rule", [
    ("--snr-db", "0:40:10", "beamform commands take one SNR"),
    ("--var-relay", "-1", "variances must be nonnegative"),
])
def test_beamform_bad_input_exits_2_before_any_draw(
        capsys, monkeypatch, command, flag, value, rule):
    _forbid_library_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # no draw at a negative variance
        code, out, err = run_cli(capsys, command, flag, value)
    assert code == 2
    assert out == ""
    assert err == f"relayarq: {REFUSALS[rule]}\n"


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def test_figure_1_table(capsys):
    code, out, _ = run_cli(capsys, "figure", "1", "--trials", "200", "--seed", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["SNR_dB", "L", "analytic", "mc", "ci"]
    assert len(rows) == 36


# perfbench/run.py's WORKLOADS: (figure, threads, trials, direct calls,
# relay calls), copied here so the suite does not import the benchmark
@pytest.mark.parametrize("figure, threads, trials, direct, relay", [
    pytest.param("1", 1, 1000, 36, 0, id="fig1-direct"),
    pytest.param("2", 1, 100, 7, 7, id="fig2-relay-rates"),
    pytest.param("3", 2, 100, 0, 5, id="fig3-relay-antennas-t2"),
])
def test_figure_calls_the_engines_as_the_benchmark_traces_them(
        tmp_path, monkeypatch, figure, threads, trials, direct, relay):
    # the benchmark wraps both engines on the module run_experiment looks
    # them up in, reads the trial count from their second positional
    # argument, and tallies each relay estimate's aborted trials and modes
    seen = {"simulate_direct": [], "simulate_relay": []}
    for name, calls in seen.items():
        def traced(*args, _fn=getattr(simulate, name), _calls=calls,
                   **kwargs):
            est = _fn(*args, **kwargs)
            _calls.append((args, est))
            return est
        monkeypatch.setattr(simulate, name, traced)
    code = cli.main(["figure", figure, "--threads", str(threads),
                     "--trials", str(trials), "--seed", "0",
                     "-o", str(tmp_path / "fig.csv")])
    assert code == 0
    assert len(seen["simulate_direct"]) == direct
    assert len(seen["simulate_relay"]) == relay
    for name, calls in seen.items():
        assert all(args[1] == trials for args, _ in calls), name
    for _, est in seen["simulate_relay"]:
        assert est.aborted == 0
        assert sum(est.mode_counts) == trials


def test_figure_requires_valid_index(capsys):
    for argv in (("figure", "4"), ("figure",), ("analytic", "1"),
                 ("simulate-relay", "--trials", "100", "2"),
                 ("figure", "1", "2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("usage: relayarq")


def test_figure_index_before_or_after_the_options(capsys):
    outs = []
    for argv in (("figure", "--trials", "100", "--seed", "2", "2"),
                 ("figure", "2", "--trials", "100", "--seed", "2"),
                 ("figure", "--trials", "100", "2", "--seed", "2")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert parse_csv(outs[0])[0] == ["R", "series", "p", "ci"]


def test_help_names_every_command_and_flag(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    for name in cli.COMMANDS:
        assert name in out
    for key in cli.PARAMS:
        assert f"{cli._flag(key)} " in out
    for flag in ("-o ", "--config ", "--dump-config "):
        assert flag in out


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_flag_with_its_default(capsys, flag):
    code, out, err = run_cli(capsys, "figure", flag)
    assert code == 0
    assert err == ""
    for name in cli.COMMANDS:
        assert f"  {name} " in out
    lines = out.splitlines()
    for key, (_, default) in cli.PARAMS.items():
        line, = [ln for ln in lines if ln.startswith(f"  {cli._flag(key)} ")]
        assert line.endswith(f"default: {default}"), line
    line, = [ln for ln in lines if ln.startswith("  -o ")]
    assert line.endswith("default: standard output"), line


# ---------------------------------------------------------------------------
# the command-line grammar
# ---------------------------------------------------------------------------

def test_flag_value_may_start_with_a_dash(capsys):
    # the value is the next token whatever it looks like
    code, out, err = run_cli(capsys, "simulate-direct", "--trials", "100",
                             "--snr-db", "-5:5:5")
    assert code == 0, err
    assert [float(r[0]) for r in parse_csv(out)[1]] == [-5.0, 0.0, 5.0]


def test_flag_value_after_an_equals_sign(capsys):
    code, joined, _ = run_cli(capsys, "simulate-direct", "--trials=100",
                              "--snr-db=-5:5:5")
    assert code == 0
    _, spaced, _ = run_cli(capsys, "simulate-direct", "--trials", "100",
                           "--snr-db", "-5:5:5")
    assert joined == spaced


def test_output_flag_takes_an_attached_value(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for flag in ("-oa.csv", "-o=b.csv"):
        assert run_cli(capsys, "analytic", flag)[:2] == (0, "")
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_double_dash_ends_the_flags(capsys):
    code, out, _ = run_cli(capsys, "figure", "--trials", "100", "--", "2")
    assert code == 0
    assert parse_csv(out)[0] == ["R", "series", "p", "ci"]


def test_unique_prefix_names_a_flag(capsys):
    code, short, _ = run_cli(capsys, "simulate-direct", "--tri", "100",
                             "--retx", "3")
    assert code == 0
    _, full, _ = run_cli(capsys, "simulate-direct", "--trials", "100",
                         "--retx", "3")
    assert short == full


@pytest.mark.parametrize("argv", [
    ("analytic", "--var", "1"),                 # ambiguous prefix
    ("analytic", "--bogus", "1"),               # unknown flag
    ("analytic", "--snr-db", "0", "--rate"),    # a flag with no value
    ("simulate-direct", "--trials", "1.5"),     # not an int
    ("figure", "4"),
    ("analytic", "-x"),                         # unknown short flag
])
def test_usage_error_prints_usage_and_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: relayarq")
    if "-x" in argv:
        assert "unrecognized argument: -x" in err


def test_repeated_flag_keeps_its_last_value(capsys):
    code, twice, _ = run_cli(capsys, "analytic", "--rate", "5", "--snr-db",
                             "0:20:10", "--rate", "3")
    assert code == 0
    _, once, _ = run_cli(capsys, "analytic", "--snr-db", "0:20:10",
                         "--rate", "3")
    assert twice == once


# ---------------------------------------------------------------------------
# import path
# ---------------------------------------------------------------------------

def loaded_after(imports: str, prefix: str) -> list:
    """The modules named ``prefix`` or ``prefix.*`` that a fresh
    interpreter holds after running the statement ``imports``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = (f"import sys; {imports}; print(' '.join(m for m in sys.modules "
             f"if m == {prefix!r} or m.startswith({prefix + '.'!r})))")
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=120).stdout.split()


def test_cli_import_leaves_heavy_scipy_unloaded():
    # every CLI call pays for what importing the package loads; quadrature
    # and its oracles belong to the tests, and only scipy.special is needed
    heavy = {"scipy.integrate", "scipy.optimize", "scipy.linalg",
             "scipy.sparse"}
    assert heavy.isdisjoint(loaded_after("import relayarq.cli", "scipy"))


def test_channel_and_relay_designs_import_without_scipy():
    # the package root imports nothing, so the modules that need only
    # numpy load no scipy: only the outage laws need scipy.special
    assert loaded_after("import relayarq.channel, relayarq.relay_single, "
                        "relayarq.relay_multi", "scipy") == []


# ---------------------------------------------------------------------------
# scale pairs: one system at two scales gives one table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["analytic", "simulate-direct",
                                     "simulate-relay"])
def test_noise_times_a_power_of_two_gives_the_same_table(capsys, command):
    # P = noise 10^(SNR/10) follows a noise times 2^k exactly, so every
    # ratio the laws and verdicts read keeps its bits: the whole CSV of
    # each outage command must match
    argv = [command, "--trials", "2000", "--snr-db", "0:40:0.5"]
    code, want, _ = run_cli(capsys, *argv, "--noise-var", "1")
    assert code == 0
    assert len(parse_csv(want)[1]) == 81
    for noise in (2.0 ** -600, 2.0 ** 600):
        assert run_cli(capsys, *argv, f"--noise-var={noise!r}")[:2] \
            == (0, want), noise


def test_relay_table_does_not_depend_on_the_noise_scale(capsys):
    # a noise of 1e-200 rounds P, but the relay engine's counts hold: the
    # same bytes as at noise 1
    argv = ("simulate-relay", "--snr-db", "40", "--rate", "4", "--trials",
            "1000")
    code, want, _ = run_cli(capsys, *argv, "--noise-var", "1")
    assert code == 0
    assert run_cli(capsys, *argv, "--noise-var", "1e-200")[:2] == (0, want)


@pytest.mark.parametrize("command", ["simulate-direct", "simulate-relay"])
def test_every_variance_and_the_noise_times_1e_300_gives_the_same_counts(
        capsys, command):
    # the same system at the same P, 10: every column but the SNR, which
    # is taken against the new noise, must match
    tiny = ("--var-direct", "2e-300", "--var-cross", "1e-300", "--var-relay",
            "4e-300", "--noise-var", "1e-300", "--snr-db", "3010")
    tables = [run_cli(capsys, command, "--trials", "2000", *flags)
              for flags in (("--snr-db", "10"), tiny)]
    assert [code for code, _, _ in tables] == [0, 0]
    unit, scaled = ([line.split(",", 1)[1] for line in out.splitlines()]
                    for _, out, _ in tables)
    assert len(unit) == 2
    assert scaled == unit


# ---------------------------------------------------------------------------
# the whole accepted input range
# ---------------------------------------------------------------------------

# columns that hold a probability, per command
_PROBABILITIES = {
    "analytic": (1, 2, 3, 4),
    "simulate-direct": (1,),
    "simulate-relay": (1, 3, 5),
    "beamform-single": (),
    "beamform-multi": (),
}
# subnormal, tiny, ordinary and near-max values all come up
_VARIANCE = st.floats(0.0, sys.float_info.max)
_NOISE = st.floats(5e-324, sys.float_info.max)


@pytest.mark.parametrize("command", list(_PROBABILITIES))
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 64),
       m=st.integers(1, 64), rate=st.floats(0.0, 1030.0),
       retx=st.integers(1, 4), noise_var=_NOISE, var_direct=_VARIANCE,
       var_cross=_VARIANCE, var_relay=_VARIANCE,
       snr_db=st.floats(-3300.0, 3100.0))
def test_every_accepted_input_gives_an_outcome_or_exit_2(command, **params):
    # each run parameter of cli.PARAMS over its whole range at 100 trials:
    # the CLI answers with a table free of NaN whose probabilities lie in
    # [0, 1], or refuses with exit 2; it never raises, and no step of it
    # over- or underflows into a RuntimeWarning
    argv = [command, "--trials", "100"]
    for key, value in params.items():
        argv.append(f"--{key.replace('_', '-')}={value!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    assert code in (0, 2), err.getvalue()
    if code:
        return
    text = out.getvalue()
    assert "nan" not in text
    _, rows = parse_csv(text)
    for row in rows:
        assert all(0.0 <= float(row[c]) <= 1.0
                   for c in _PROBABILITIES[command]), row
    if command == "beamform-single":
        # a gain beyond the float range is refused, never written as inf
        gain, predicted = float(rows[0][1]), float(rows[0][2])
        assert math.isfinite(gain), rows[0]
        # a gain below the normal range cannot carry 1e-12
        assert gain == pytest.approx(predicted, rel=1e-12,
                                     abs=sys.float_info.min)
