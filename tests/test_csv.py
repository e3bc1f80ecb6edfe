"""Block-built CSV output against the per-cell writer in `csv_oracle`:
the same bytes for every table command over the three fixtures, for empty
and one-row tables, and from `_lines` and `_write_csv` on edge values."""

from __future__ import annotations

import contextlib
import inspect
import io

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
                patch.setattr(cli, "_lines", csv_oracle.raw_rows)
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
    cli._write_csv(["k", "x"], cli._lines(ks, xs), None, "# pre")
    assert capsys.readouterr().out == want
    cli._write_csv(["k", "x"], cli._lines(ks, xs), str(tmp_path / "t.csv"), "# pre")
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


def written(write, *columns) -> str:
    """The CSV text of the columns under a header, as one writer gives it."""
    rows = (cli._lines if write is cli._write_csv else csv_oracle.raw_rows)(*columns)
    with contextlib.redirect_stdout(io.StringIO()) as text:
        write([f"c{i}" for i in range(len(columns))], rows, None, "# pre")
    return text.getvalue()


def same_as_oracle(*columns):
    got = written(cli._write_csv, *columns)
    assert got == written(csv_oracle.write_csv, *columns)
    assert len(got.splitlines()) == len(columns[0]) + 2


@given(st.lists(INT64_EDGE))
def test_write_csv_int64_near_the_ends(values):
    same_as_oracle(np.array(values, dtype=np.int64))


@given(st.lists(BIG_INTS))
def test_write_csv_python_integers_past_int64(values):
    same_as_oracle(np.array(values, dtype=object))


@given(st.lists(FLOATS))
def test_write_csv_floats(values):
    same_as_oracle(np.array(values, dtype=float))
    same_as_oracle(values)


@given(st.lists(st.tuples(BIG_INTS, FLOATS)))
def test_write_csv_mixes_object_integers_and_floats(pairs):
    """One block holding an `object` integer column next to a float one."""
    ints, floats = zip(*pairs) if pairs else ((), ())
    same_as_oracle(np.array(ints, dtype=object), np.array(floats, dtype=float))


def test_float_cells_are_the_float64_columns():
    """A float64 column takes 15 significant digits even where its values
    are integral; an int64 or `object` column takes `str`."""
    ints, floats, big = np.array([1, -2 ** 63]), np.array([1.0, -0.0]), np.array(
        [2 ** 70, -1], dtype=object)
    assert list(cli._lines(ints, floats, big)) == [f"1,1,{2 ** 70}", f"{-2 ** 63},-0,-1"]
    assert written(cli._write_csv, ints, floats, big) == (
        f"# pre\nc0,c1,c2\n1,1,{2 ** 70}\n{-2 ** 63},-0,-1\n")
    assert list(cli._lines(np.array([1e20, 2 ** 53 + 1.0]))) == ["1e+20", "9.00719925474099e+15"]


def test_int64_cells_of_every_length_in_one_block():
    """One block whose digit pass runs 19 places: values of 1 to 19 digits
    of both signs, zero, ±(2^63 - 1) and -2^63 next to a one-digit column."""
    values = [0, 2 ** 63 - 1, -2 ** 63 + 1, -2 ** 63]
    for d in range(1, 20):  # the least and the largest d-digit magnitude
        top = min(10 ** d - 1, 2 ** 63 - 1)
        values += [10 ** (d - 1), -10 ** (d - 1), top, -top]
    values = np.array(values, dtype=np.int64)
    same_as_oracle(values, np.arange(len(values)) % 10, -values[::-1])


def test_all_zero_and_all_negative_columns():
    zeros = np.zeros(37, dtype=np.int64)
    same_as_oracle(zeros, -np.arange(1, 38) ** 3, zeros)
    same_as_oracle(np.full(37, -7), zeros)


@pytest.mark.parametrize("extra", [0, 1])
def test_blocks_of_exactly_and_one_past_csv_block_rows(extra):
    n = cli._CSV_BLOCK + extra
    ks = np.arange(1, n + 1) * 7919
    same_as_oracle(ks, -ks, np.linspace(-3, 3, n) ** 5)


def test_estimate_column_order():
    """int, int, int, float, int, int: the integer cells come from one
    digit pass and are put back around the float column."""
    rng = np.random.default_rng(3)
    n = 1000
    ks = np.sort(rng.choice(10 ** 6, n, replace=False)) + 1
    raw = rng.random(n) * 10.0 ** rng.integers(-3, 9, n)
    same_as_oracle(ks, rng.integers(0, 9, n), rng.integers(0, 10 ** 6, n), raw,
                   np.floor(raw).astype(np.int64), rng.integers(0, 10 ** 12, n))


def test_object_column_between_int64_columns():
    big = np.array([2 ** 64, -2 ** 90, 5, -(2 ** 63) - 1], dtype=object)
    same_as_oracle(np.array([1, -22, 333, -4444]), big, np.array([-2 ** 63, 0, 9, 2 ** 63 - 1]))


def test_write_csv_draws_one_row_per_line():
    """The benchmark counts written rows by wrapping `lines`: one item per
    data line, across blocks, and `_lines` does no work before it is drawn."""
    class Counting:
        def __init__(self, rows):
            self.rows, self.count = iter(rows), 0

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self.rows)
            self.count += 1
            return row

    class Untouched:
        def __len__(self):
            raise AssertionError("a column was read before the first row was drawn")

    assert inspect.isgenerator(lines := cli._lines(Untouched()))
    lines.close()
    n = 2 * cli._CSV_BLOCK + 3
    rows = Counting(cli._lines(np.arange(n), np.linspace(-1, 1, n)))
    with contextlib.redirect_stdout(io.StringIO()) as text:
        cli._write_csv(["k", "x"], rows, None)
    assert rows.count == n == len(text.getvalue().splitlines()) - 1


@pytest.mark.parametrize("max_norm,lines", [(0, 2), (1, 3)])
def test_empty_and_one_row_tables(capsys, monkeypatch, tmp_path, max_norm, lines):
    """A norm cap of 0 leaves only the preamble and the header; a cap of 1
    leaves the one row of the units."""
    argv = ["counts", fixture_path("qsqrt5.json"), "--radius", "10", "--max-norm", str(max_norm)]
    (column, _), (oracle, _) = run_both(capsys, monkeypatch, tmp_path, argv)
    assert column == oracle
    assert len(column.splitlines()) == lines
    assert column.splitlines()[1] == "k,a_k,b_k"
