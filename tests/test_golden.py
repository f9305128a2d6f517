"""The three figure tables against stored reference files.

``tests/data/fig<k>-t300-s3.csv`` hold ``relayarq figure <k> --trials 300
--seed 3``. A refactor that keeps the engine's arithmetic must reproduce
every Monte Carlo value as the same string; the closed-form columns may
move in the last digits when a law is re-summed, so they match to 1e-12
relative. Regenerate a file only when a change is meant to alter the
numbers, and say so with the change.

A figure reads its points from its run's shared draws; a fresh
``simulate-direct`` or ``simulate-relay`` run of one point's system draws
them afresh, and its Monte Carlo cells must equal the table's as strings.
"""

from pathlib import Path

import pytest

import relayarq.cli as cli

DATA = Path(__file__).resolve().parent / "data"
ANALYTIC_REL = 1e-12
# each figure's system, as flags of the commands that run one point of it
FIG1_SYSTEM = ("--n", "3", "--noise-var", "1e-3", "--var-direct", "2",
               "--var-cross", "1", "--rate", "2")
FIG23_SYSTEM = ("--n", "3", "--noise-var", "1", "--var-direct", "2",
                "--var-cross", "1", "--var-relay", "4", "--retx", "2")

# the tables hold with every warning an error, as the installed entry
# point's smoke run has it (PYTHONWARNINGS=error)
pytestmark = pytest.mark.filterwarnings("error")


def _table(text):
    lines = text.splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _monte_carlo_columns(header, row):
    """Indices of the row's Monte Carlo values, which must match exactly."""
    if header[:2] == ["SNR_dB", "L"]:            # figure 1: analytic, mc, ci
        return {3, 4}
    if row[1] in ("direct-arq", "relay-arq"):    # figures 2 and 3
        return {2, 3}
    return set()


@pytest.mark.parametrize("which", ["1", "2", "3"])
def test_figure_matches_reference(which, tmp_path, capsys):
    out = tmp_path / "fig.csv"
    assert cli.main(["figure", which, "--trials", "300", "--seed", "3",
                     "-o", str(out)]) == 0
    capsys.readouterr()
    header, rows = _table(out.read_text())
    want_header, want_rows = _table(
        (DATA / f"fig{which}-t300-s3.csv").read_text())
    assert header == want_header
    assert len(rows) == len(want_rows)
    for got, want in zip(rows, want_rows):
        assert got[:2] == want[:2]               # the sweep point and series
        exact = _monte_carlo_columns(header, want)
        for col in range(2, len(header)):
            if col in exact:
                assert got[col] == want[col], (header[col], want)
            else:
                assert float(got[col]) == pytest.approx(
                    float(want[col]), rel=ANALYTIC_REL, abs=0.0), \
                    (header[col], want)


def _fresh_rows(capsys, command, *flags):
    """The data rows of a fresh ``command`` run at the tables' trials and
    seed."""
    assert cli.main([command, "--trials", "300", "--seed", "3", *flags]) == 0
    return _table(capsys.readouterr().out)[1]


def test_figure_1_cells_equal_fresh_point_runs(capsys):
    # figure 1 reaches L = 3 and 10 by extending a smaller L's margins;
    # each curve's mc cells are a fresh run's p cells
    _, want = _table((DATA / "fig1-t300-s3.csv").read_text())
    for budget in ("3", "10"):
        rows = _fresh_rows(capsys, "simulate-direct", *FIG1_SYSTEM,
                           "--retx", budget, "--snr-db", "0:40:5")
        assert [row[:2] for row in rows] \
            == [[row[0], row[3]] for row in want if row[1] == budget], budget


@pytest.mark.parametrize("which, point", [
    ("2", lambda x: ("--m", "3", "--rate", x, "--snr-db", "40")),
    ("3", lambda x: ("--m", x, "--rate", "6", "--snr-db", "20")),
], ids=["2", "3"])
def test_figure_cells_equal_fresh_point_runs(capsys, which, point):
    # every direct-arq and relay-arq row's p and ci cells are those of a
    # fresh run of its point: 14 cells of figure 2's rates, 5 of figure
    # 3's relay sizes
    _, want = _table((DATA / f"fig{which}-t300-s3.csv").read_text())
    checked = 0
    for x, series, p, ci in want:
        if series in ("direct-arq", "relay-arq"):
            command = "simulate-" + series.removesuffix("-arq")
            row, = _fresh_rows(capsys, command, *FIG23_SYSTEM, *point(x))
            assert row[1:3] == [p, ci], (x, series)
            checked += 1
    assert checked == {"2": 14, "3": 5}[which]
