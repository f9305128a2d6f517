"""The three figure tables against stored reference files.

``tests/data/fig<k>-t300-s3.csv`` hold ``relayarq figure <k> --trials 300
--seed 3``. A refactor that keeps the engine's arithmetic must reproduce
every Monte Carlo value as the same string; the closed-form columns may
move in the last digits when a law is re-summed, so they match to 1e-12
relative. Regenerate a file only when a change is meant to alter the
numbers, and say so with the change.
"""

from pathlib import Path

import pytest

import relayarq.cli as cli

DATA = Path(__file__).resolve().parent / "data"
ANALYTIC_REL = 1e-12


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
