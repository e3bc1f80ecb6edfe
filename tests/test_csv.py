"""Column-wise CSV output against the per-cell writer in `csv_oracle`: the
same bytes for every table command over the three fixtures, and the same
cell text from `_column` as from `fmt` on edge values."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import csv_oracle
from conftest import fixture_path
from nfbounds import cli

# radius and norm cap per fixture
FIXTURES = {"qsqrt5.json": (30, 400), "quartic725.json": (6, 600), "cyclo32real.json": (3, 300)}
COMMANDS = {"zeta-coeffs": "--max 5000",
            "counts": "--radius {0}",
            "estimate": "--radius {0} --max-norm {1}",
            "pep": "--radius {0} --snr=-10:40:101"}


def run_both(capsys, monkeypatch, tmp_path, argv):
    """(stdout, profile bytes) from the command line, then from the oracle."""
    outputs = []
    for side in ("column", "oracle"):
        profile = tmp_path / f"{side}.profile.csv"
        extra = ["--profile-out", str(profile)] if argv[0] == "estimate" else []
        with monkeypatch.context() as patch:
            if side == "oracle":
                patch.setattr(cli, "_cells", csv_oracle.raw_rows)
                patch.setattr(cli, "_write_csv", csv_oracle.write_csv)
            assert cli.main(argv + extra) == 0
        outputs.append((capsys.readouterr().out, profile.read_bytes() if extra else None))
    return outputs


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_table_commands_match_per_cell_oracle(capsys, monkeypatch, tmp_path, fixture, command):
    argv = [command, fixture_path(fixture), *COMMANDS[command].format(*FIXTURES[fixture]).split()]
    column, oracle = run_both(capsys, monkeypatch, tmp_path, argv)
    assert column == oracle
    assert column[0].count("\n") > 3
    if command == "estimate":
        assert column[1].count(b"\n") > 1


def test_write_csv_spans_blocks(capsys, tmp_path):
    """Rows past one block, to stdout and to a file, as the oracle writes them."""
    n = 2 * cli._CSV_BLOCK + 3
    ks, xs = np.arange(n), np.linspace(-1, 1, n) ** 3
    csv_oracle.write_csv(["k", "x"], csv_oracle.raw_rows(ks, xs), None, "# pre")
    want = capsys.readouterr().out
    assert len(want.splitlines()) == n + 2
    cli._write_csv(["k", "x"], cli._cells(ks, xs), None, "# pre")
    assert capsys.readouterr().out == want
    cli._write_csv(["k", "x"], cli._cells(ks, xs), str(tmp_path / "t.csv"), "# pre")
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == want


INT64_EDGE = st.one_of(st.integers(-2 ** 63, -2 ** 63 + 1000),
                       st.integers(2 ** 63 - 1001, 2 ** 63 - 1),
                       st.integers(-2 ** 63, 2 ** 63 - 1))
BIG_INTS = st.one_of(st.integers(2 ** 63, 2 ** 200), st.integers(-2 ** 200, -2 ** 63 - 1),
                     st.integers(-10, 10))
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                               2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308,
                               0.1, 1 / 3, 123456789012345.0, 1234567890123456.7])
# 15 to 17 significant digits at any exponent
DIGIT_FLOATS = st.builds(lambda m, e: float(f"{m}e{e}"),
                         st.integers(10 ** 14, 10 ** 17 - 1), st.integers(-330, 290))
FLOATS = st.one_of(EDGE_FLOATS, DIGIT_FLOATS, st.floats(allow_nan=True, allow_infinity=True))


def same_as_fmt(values):
    assert cli._column(values) == [csv_oracle.fmt(x) for x in values]


@given(st.lists(INT64_EDGE))
def test_column_int64_near_the_ends(values):
    same_as_fmt(np.array(values, dtype=np.int64))


@given(st.lists(BIG_INTS))
def test_column_python_integers_past_int64(values):
    same_as_fmt(np.array(values, dtype=object))


@given(st.lists(FLOATS))
def test_column_floats(values):
    same_as_fmt(np.array(values, dtype=float))
    same_as_fmt(values)
