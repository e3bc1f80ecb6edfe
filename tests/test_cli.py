from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import OrderedDict
from pathlib import Path

import pytest

import nfbounds
from conftest import fixture_path
from nfbounds import _memo
from nfbounds.cli import main
from nfbounds.numberfield import NumberField

Q5 = fixture_path("qsqrt5.json")
QUARTIC = fixture_path("quartic725.json")
COUNTS_HEAD = ("# nfbounds-counts label=Q(sqrt5) degree=2 R=3 cap=9 max_norm=1 total=2\n"
               "k,a_k,b_k\n")
Q5_ROWS_R3 = "1,1,10\n4,1,2\n5,1,2\n9,1,2\n"
# what `counts qsqrt5.json --radius 3` writes: a valid file
Q5_COUNTS_R3 = ("# nfbounds-counts label=qsqrt5 degree=2 R=3 cap=9 max_norm=9 total=16\n"
                "k,a_k,b_k\n" + Q5_ROWS_R3)
OCTIC_TEXT = Path(fixture_path("cyclo32real.json")).read_text(encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_info_regulator(capsys):
    code, out, _ = run(capsys, "field-info", Q5)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["regulator"] - 0.481211825059603) < 1e-9
    assert payload["poly_discriminant"] == 5
    assert payload["fundamental_units"] == [[0, 1]]


def test_zeta_coeffs_csv(capsys):
    code, out, _ = run(capsys, "zeta-coeffs", Q5, "--max", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,a_k"
    assert lines[1] == "1,1"
    assert lines[11] == "11,2"


def test_counts_radius_one(capsys):
    code, out, _ = run(capsys, "counts", Q5, "--radius", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "k,a_k,b_k"
    assert lines[2:] == ["1,1,2"]


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", Q5, "--radius", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c0,c1,norm,height"
    assert lines[1].startswith("-1,0,1,") and lines[2].startswith("1,0,1,")


def test_estimate_and_round_trip(tmp_path, capsys):
    counts_path = tmp_path / "counts.csv"
    code, _, _ = run(capsys, "counts", Q5, "--radius", "10", "--out", str(counts_path))
    assert code == 0
    est1 = tmp_path / "est1.csv"
    est2 = tmp_path / "est2.csv"
    prof = tmp_path / "prof.csv"
    code, _, _ = run(capsys, "estimate", Q5, "--radius", "10",
                     "--out", str(est1), "--profile-out", str(prof))
    assert code == 0
    code, _, _ = run(capsys, "estimate", Q5, "--from-counts", str(counts_path),
                     "--out", str(est2))
    assert code == 0
    cols1 = [ln.split(",")[:3] for ln in est1.read_text().splitlines()[1:]]
    cols2 = [ln.split(",")[:3] for ln in est2.read_text().splitlines()[1:]]
    assert cols1 == cols2  # byte-identical k, a_k, b_k columns
    header, first = est1.read_text().splitlines()[1:3]
    assert header == "k,a_k,b_k,n_k_raw,n_k,f_k"
    assert first.split(",")[:3] == ["1", "1", "18"]
    prof_lines = prof.read_text().splitlines()
    assert prof_lines[0] == "f,count,cumulative_fraction"
    assert prof_lines[-1].split(",")[2] == "1"


@pytest.mark.parametrize("label", [None, "a b=c degree=9 R=1 ", "Q(sqrt5), golden"],
                         ids=["default-label", "label-with-fields", "label-with-comma"])
def test_counts_round_trip_with_any_one_line_label(tmp_path, capsys, label):
    """A counts CSV reads back whatever one-line label its preamble holds:
    the default label of a document without one is x^2 - x - 1, spaces
    and all.  Re-ingested, it gives the estimate of the box itself."""
    payload = json.loads(open(Q5, encoding="utf-8").read())
    if label is None:
        del payload["label"]
    else:
        payload["label"] = label
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(payload))
    counts, direct, again = (tmp_path / name for name in ("c.csv", "d.csv", "e.csv"))
    assert run(capsys, "counts", str(doc), "--radius", "5", "--out", str(counts))[0] == 0
    want = label or "x^2 - x - 1"
    assert counts.read_text().startswith(f"# nfbounds-counts label={want} degree=2 ")
    assert run(capsys, "estimate", str(doc), "--radius", "5", "--out", str(direct))[0] == 0
    code, _, err = run(capsys, "estimate", str(doc), "--from-counts", str(counts),
                       "--out", str(again))
    assert (code, err) == (0, "")
    assert again.read_bytes() == direct.read_bytes()


def test_refused_profile_writes_no_estimate(tmp_path, capsys):
    """An empty table has no error profile: estimate exits 2 before it
    writes the --out file."""
    out, prof = tmp_path / "e.csv", tmp_path / "p.csv"
    code, _, err = run(capsys, "estimate", Q5, "--radius", "0.5",
                       "--out", str(out), "--profile-out", str(prof))
    assert code == 2 and "ValidationError" in err
    assert not out.exists() and not prof.exists()


def test_estimate_max_error_small(tmp_path, capsys):
    prof = tmp_path / "prof.csv"
    code, _, _ = run(capsys, "estimate", Q5, "--radius", "10",
                     "--out", str(tmp_path / "t.csv"), "--profile-out", str(prof))
    assert code == 0
    fs = [int(ln.split(",")[0]) for ln in prof.read_text().splitlines()[1:]]
    assert max(fs) <= 2


def test_bounds_height_mode(monkeypatch, capsys):
    """The height report reads no a_k, so it runs with the sieve disabled."""
    monkeypatch.setattr(_memo, "_entries", OrderedDict())
    monkeypatch.setattr("nfbounds.zeta._primes_upto",
                        lambda N: pytest.fail("the height report sieved"))
    code, out, _ = run(capsys, "bounds", QUARTIC, "--s", "3", "--height", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["norm_sum"] > payload["zeta_truncated"] > 1
    assert payload["coefficient_upper_bound"] >= payload["norm_sum"]


def test_bounds_height_mode_at_large_s(capsys):
    """1/k^s past the float range is a float, not an OverflowError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "bounds", Q5, "--s", "400", "--height", "3")
    assert code == 0 and err == ""
    payload = json.loads(out)
    values = [payload[key] for key in ("norm_sum", "zeta_truncated", "lower_bound",
                                       "coefficient_upper_bound")]
    assert all(math.isfinite(v) for v in values)
    # only the units' terms are left: ten units of norm 1 in the box
    assert payload["zeta_truncated"] == 1.0 and payload["norm_sum"] == 10.0


def test_bounds_radius_mode_at_large_s(capsys):
    """A k^s past the float range leaves its term 0.0 without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "bounds", QUARTIC, "--s", "400", "--radius", "3")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert math.isfinite(payload["geometric_bound"])
    assert payload["geometric_bound"] >= payload["estimator_sum"] > 0


def test_bounds_radius_mode(capsys):
    code, out, _ = run(capsys, "bounds", Q5, "--s", "2", "--radius", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["K1"] == pytest.approx(4.1562, abs=1e-3)
    assert payload["geometric_bound"] >= payload["estimator_sum"]
    assert len(payload["geometric_bound_terms"]) == 2
    code, out, _ = run(capsys, "bounds", Q5, "--s", "2", "--radius", "5", "--cutoff", "20000")
    assert code == 0 and json.loads(out)["zeta_cutoff"] == 20000


@pytest.mark.parametrize("command, rest", [
    ("counts", ["--radius", "3"]), ("estimate", ["--radius", "3"]),
    ("pep", ["--radius", "3", "--snr", "0:40:3"]), ("eve", ["--radius", "3", "--gamma", "10"])],
    ids=["counts", "estimate", "pep", "eve"])
def test_cutoff_only_for_the_geometric_bound(capsys, command, rest):
    """A table's series is sized to its cap, so the table commands take no --cutoff."""
    with pytest.raises(SystemExit) as exc:
        main([command, Q5, *rest, "--cutoff", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cutoff 5" in capsys.readouterr().err


def test_bounds_mode_exclusive(capsys):
    code, _, err = run(capsys, "bounds", Q5, "--s", "2")
    assert code == 2 and "ValidationError" in err


def test_bounds_height_reads_no_unit_system(tmp_path, capsys):
    """`bounds --height` takes its orbits from the box alone: a document one
    fundamental unit short gives the same report, and only `--radius`,
    which reads the regulator, refuses it by name."""
    doc = json.loads(Path(QUARTIC).read_text(encoding="utf-8"))
    doc["fundamental_units"] = doc["fundamental_units"][1:]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(doc), encoding="utf-8")
    want = run(capsys, "bounds", QUARTIC, "--s", "3", "--height", "5")
    assert want[0] == 0
    assert run(capsys, "bounds", str(short), "--s", "3", "--height", "5") == want
    code, out, err = run(capsys, "bounds", str(short), "--s", "2", "--radius", "4")
    assert code == 2 and out == "" and "WrongRank" in err


def test_pep_csv(capsys):
    code, out, _ = run(capsys, "pep", QUARTIC, "--radius", "10",
                       "--snr", "0:40:5")
    assert code == 0
    lines = out.strip().splitlines()
    ratio = float(lines[0].split("ratio=")[1])
    assert 0.95 <= ratio <= 1.05
    assert lines[1] == "snr_db,gamma,pe_estimate,pe_exact"
    assert len(lines) == 7


def test_negative_snr_start_takes_the_equals_form(capsys):
    """argparse reads a value that starts with `-` after `--snr ` as an
    option, so a grid from below 0 dB is given as `--snr=START:STOP:POINTS`,
    the form the help names."""
    code, out, _ = run(capsys, "pep", Q5, "--radius", "3", "--snr=-400:0:3")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "snr_db,gamma,pe_estimate,pe_exact"
    assert [line.split(",")[0] for line in lines[2:]] == ["-400", "-200", "0"]
    with pytest.raises(SystemExit) as exc:
        main(["pep", Q5, "--radius", "3", "--snr", "-400:0:3"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["pep", "--help"])
    assert exc.value.code == 0 and "--snr=START:STOP:POINTS" in capsys.readouterr().out


def test_eve_json(capsys):
    code, out, _ = run(capsys, "eve", Q5, "--radius", "1", "--gamma", "1", "--vol", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["probability_bound"] == pytest.approx(0.5)
    assert payload["eve_sum"] == pytest.approx(2.0)


def test_eve_bound_below_the_float_range_is_zero(capsys):
    """gamma_e^2 overflows; the bound itself, about 1e-601, underflows to 0.0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "eve", Q5, "--radius", "5", "--gamma", "1e300")
    assert code == 0 and err == ""
    payload = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in the JSON"))
    assert payload["probability_bound"] == 0.0


def test_q5_r3_counts_file_is_valid(tmp_path, capsys):
    """The bad-input cases edit this file, so each edit is its only defect."""
    code, out, _ = run(capsys, "counts", Q5, "--radius", "3")
    assert code == 0 and out == Q5_COUNTS_R3
    path = tmp_path / "counts.csv"
    path.write_text(Q5_COUNTS_R3)
    code, out, _ = run(capsys, "estimate", Q5, "--from-counts", str(path))
    assert code == 0
    assert [ln.split(",")[:3] for ln in out.splitlines()[2:]] == [
        ln.split(",") for ln in Q5_ROWS_R3.splitlines()]


def test_exit_code_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "label": "complex", "min_poly": [1, 0, 1], "assume_maximal_order": True,
    }))
    code, _, err = run(capsys, "field-info", str(bad))
    assert code == 2
    assert "NotTotallyReal" in err


@pytest.mark.parametrize("command, doc_change, rest", [
    ("bounds", None, ["--s", "2", "--radius", "0.5"]),
    ("counts", None, ["--radius", "inf"]),
    ("bounds", None, ["--s", "2", "--radius", "inf"]),
    ("pep", None, ["--radius", "5", "--snr", "0:nan:3"]),
    ("field-info", {"min_poly": None}, []),
    ("field-info", {"min_poly": 5}, []),
    ("field-info", {"min_poly": "x^2-5"}, []),
    ("field-info", {"fundamental_units": ["ab"]}, []),
    ("field-info", {"roots_of_unity": "two"}, []),
    ("field-info", {"expected_regulator": "0.48"}, []),
    ("field-info", "{not json", []),
    ("counts", None, ["--radius", "3", "--max-norm", "-5"]),
    ("estimate", None, ["--from-counts", (COUNTS_HEAD.replace(" R=3", "") + "1,1,2\n",)]),
    ("estimate", None, ["--from-counts", (COUNTS_HEAD.replace("R=3", "R=three") + "1,1,2\n",)]),
    ("estimate", None, ["--from-counts", (COUNTS_HEAD.replace("R=3", "R=nan") + "1,1,2\n",)]),
    ("estimate", None, ["--from-counts", (COUNTS_HEAD + "1,1\n",)]),
    ("pep", None, ["--radius", "3", "--max-norm", "0", "--snr", "0:10:2"]),
    ("estimate", None, ["--from-counts",
                        (COUNTS_HEAD.replace("degree=2", "degree=8") + "1,1,2\n",)]),
    ("eve", None, ["--radius", "10", "--gamma", "nan"]),
    ("eve", None, ["--radius", "10", "--gamma", "1", "--vol", "inf"]),
    ("bounds", None, ["--s", "2", "--height", "3", "--cutoff", "5"]),
    ("bounds", None, ["--s", "2", "--radius", "10", "--cutoff", "0"]),
    ("estimate", None, ["--from-counts", (Q5_COUNTS_R3,), "--radius", "3"]),
    ("estimate", None, ["--from-counts", (Q5_COUNTS_R3,), "--max-norm", "5"]),
    ("counts", None, ["--radius", "3", "--budget", "-1"]),
    ("estimate", None, ["--from-counts", (Q5_COUNTS_R3,), "--budget", "10"]),
    ("estimate", None, ["--from-counts", (Q5_COUNTS_R3,), "--tol", "0.1"]),
    ("estimate", None, ["--from-counts", (Q5_COUNTS_R3,), "--budget", "-1", "--tol", "-5"]),
    ("field-info", {"label": 5}, []),
    ("counts", {"label": "two\nlines"}, ["--radius", "3"]),
    ("counts", {"label": "carriage\rreturn"}, ["--radius", "3"]),
    ("field-info", {"expected_regulator": math.nan}, []),
    ("field-info", {"expected_regulator": math.inf}, []),
    ("field-info", {"expected_regulator": True}, []),
    ("field-info", {"fundamental_units": [[0, 1, 0]]}, []),
    ("field-info", {"roots_of_unity": 4}, []),
    ("eve", None, ["--radius", "5", "--gamma", "1e-300"]),
    ("eve", None, ["--radius", "5", "--gamma", "1e-160"]),
    ("eve", OCTIC_TEXT, ["--radius", "3", "--max-norm", "100", "--gamma", "1e-40"]),
    ("pep", None, ["--radius", "5", "--snr", "1e308:1e308:2"]),
    ("pep", None, ["--radius", "5", "--snr=-4000:-3000:2"]),
    ("estimate", None, ["--from-counts", (Q5_COUNTS_R3.replace("total=16", "total=12")
                                          .replace("4,1,2", "4,1,-2"),)]),
    ("estimate", None, ["--from-counts", (Q5_COUNTS_R3.replace("4,1,2", "4,1,1\n4,1,1"),)]),
    ("estimate", None, ["--from-counts", (Q5_COUNTS_R3.replace("1,1,10\n4,1,2",
                                                               "4,1,2\n1,1,10"),)]),
], ids=["radius-below-one", "counts-radius-inf", "bounds-radius-inf", "snr-nan",
        "no-min-poly", "min-poly-number", "min-poly-text", "unit-text",
        "roots-of-unity-text", "regulator-text", "not-json",
        "max-norm-negative", "counts-no-R", "counts-R-text", "counts-R-nan",
        "counts-short-row", "pep-empty-table", "counts-other-degree", "eve-gamma-nan",
        "eve-vol-inf", "height-with-cutoff",
        "radius-cutoff-zero", "from-counts-with-radius", "from-counts-with-max-norm",
        "budget-negative", "from-counts-with-budget", "from-counts-with-tol",
        "from-counts-with-invalid-budget-and-tol", "label-not-text", "label-newline",
        "label-carriage-return", "regulator-nan", "regulator-inf", "regulator-bool",
        "unit-wrong-length", "roots-of-unity-4", "eve-gamma-1e-300", "eve-gamma-1e-160",
        "octic-eve-gamma-1e-40", "pep-snr-1e308", "pep-snr-minus-4000",
        "counts-negative-b", "counts-k-twice", "counts-k-out-of-order"])
def test_bad_input_is_a_named_error(tmp_path, capsys, command, doc_change, rest):
    """doc_change edits the Q(sqrt5) document (None drops a key) or replaces its
    text; a one-item tuple in rest is written to a file and passed by path."""
    doc = Q5
    if doc_change is not None:
        if isinstance(doc_change, str):
            text = doc_change
        else:
            payload = json.loads(open(Q5, encoding="utf-8").read())
            for key, value in doc_change.items():
                if value is None:
                    del payload[key]
                else:
                    payload[key] = value
            text = json.dumps(payload)
        doc = tmp_path / "doc.json"
        doc.write_text(text)
    argv = []
    for i, item in enumerate(rest):
        if isinstance(item, tuple):
            path = tmp_path / f"arg{i}.csv"
            path.write_text(item[0])
            item = str(path)
        argv.append(item)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, str(doc), *argv)
    assert code == 2
    assert err.startswith("error:") and "ValidationError" in err
    assert "Traceback" not in err and "nan" not in out


@pytest.mark.parametrize("snr", ["0:nan:3", "0:40:0"])
def test_snr_grid_is_checked_before_the_table(monkeypatch, capsys, snr):
    def no_table(*args, **kwargs):
        pytest.fail("the count table was built before the SNR grid was checked")

    monkeypatch.setattr("nfbounds.cli.count_table", no_table)
    code, _, err = run(capsys, "pep", Q5, "--radius", "5", "--snr", snr)
    assert code == 2 and err.startswith("error:")


def test_negative_budget_is_refused_before_the_sieve(monkeypatch, capsys):
    def no_sieve(*args, **kwargs):
        pytest.fail("the sieve ran before the budget was checked")

    monkeypatch.setattr("nfbounds.enumeration.dirichlet_coeffs", no_sieve)
    code, _, err = run(capsys, "counts", Q5, "--radius", "3", "--budget", "-1")
    assert code == 2 and "ValidationError" in err


def test_exit_code_budget_and_cutoff(capsys):
    code, _, err = run(capsys, "enumerate", Q5, "--radius", "50", "--budget", "10")
    assert code == 3 and "BoxTooLarge" in err
    code, _, err = run(capsys, "counts", Q5, "--radius", "3", "--budget", "0")
    assert code == 3 and "BoxTooLarge" in err and "raise --budget" in err
    with pytest.raises(SystemExit) as exc:
        main(["counts", Q5, "--radius", "10", "--cutoff", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eve", Q5, "--radius", "1e300", "--gamma", "10"],
    ["counts", Q5, "--radius", "3", "--tol", "1e300"],
], ids=["eve-radius-1e300", "counts-tol-1e300"])
def test_norm_cap_overflow_is_box_too_large(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error:") and "BoxTooLarge" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv", [
    ["counts", Q5, "--radius", "1e100"],
    ["counts", Q5, "--radius", "20000"],
], ids=["counts-radius-1e100", "counts-radius-20000"])
def test_sieve_past_its_ceiling_is_a_named_error(monkeypatch, capsys, argv):
    """4e8 to 1e200 coefficients: refused before the sieve array exists."""
    def no_allocation(*args, **kwargs):
        pytest.fail("the sieve allocated past its ceiling")

    monkeypatch.setattr("nfbounds.zeta._primes_upto", no_allocation)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error:") and "SieveTooLarge" in err
    assert "Traceback" not in err and out == ""


def test_height_past_the_scan_budget_is_box_too_large(monkeypatch, capsys):
    """The height report sieves nothing: height 10^6 stops at the scan budget."""
    monkeypatch.setattr("nfbounds.zeta._primes_upto",
                        lambda N: pytest.fail("the height report sieved"))
    code, out, err = run(capsys, "bounds", Q5, "--s", "2", "--height", "1e6")
    assert code == 3
    assert err.startswith("error:") and "BoxTooLarge" in err and "--height" in err
    assert "Traceback" not in err and out == ""


BUDGET = ["--radius", "--budget"]


@pytest.mark.parametrize("argv,want", [
    (["enumerate", Q5, "--radius", "50", "--budget", "10"], BUDGET),
    (["counts", Q5, "--radius", "50", "--budget", "10"], BUDGET),
    (["estimate", Q5, "--radius", "50", "--budget", "10"], BUDGET),
    (["pep", Q5, "--radius", "50", "--budget", "10", "--snr", "0:10:3"], BUDGET),
    (["eve", Q5, "--radius", "1e300", "--gamma", "10"], ["--radius", "--tol"]),
    (["bounds", Q5, "--s", "2", "--height", "1e6"], ["--height"]),
    (["bounds", Q5, "--s", "2", "--radius", "1e300"], ["--radius"]),
    (["counts", Q5, "--radius", "3", "--tol", "1e300"], ["--radius", "--tol"]),
], ids=["enumerate", "counts", "estimate", "pep", "eve", "bounds-height", "bounds-radius",
        "counts-tol"])
def test_box_too_large_hint_names_options_of_its_command(capsys, argv, want):
    """A budget overrun hints --budget; a norm cap (R + tol)^n past any
    float hints --tol where the command takes it, and never --budget."""
    code, _, err = run(capsys, *argv)
    assert code == 3 and "BoxTooLarge" in err
    hinted = re.findall(r"--[a-z-]+", err[err.rindex("("):])
    assert hinted == want
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    usage = capsys.readouterr().out
    assert all(option in usage for option in hinted)


def test_snr_grid_past_its_ceiling_is_a_named_error(monkeypatch, capsys):
    """10^9 points are refused before the grid is allocated."""
    monkeypatch.setattr("numpy.linspace", lambda *a, **k: pytest.fail("grid allocated"))
    code, out, err = run(capsys, "pep", Q5, "--radius", "3", "--snr", "0:40:1000000000")
    assert code == 3
    assert err.startswith("error:") and "GridTooLarge" in err and "--snr" in err
    assert "Traceback" not in err and out == ""


def test_undecided_embedding_is_a_named_error(monkeypatch, capsys):
    """A boundary point that 4,096 bits cannot place exits 3 and names the
    options that move the boundary."""
    monkeypatch.setattr("nfbounds.enumeration._closed_box",
                        lambda bound: lambda C, E, bits: [None] * len(C))
    code, out, err = run(capsys, "enumerate", Q5, "--radius", "3", "--tol", "0")
    assert code == 3
    assert err.startswith("error:") and "PrecisionTooHigh" in err
    assert "(move --radius or --tol off a boundary point)" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("command, rest", [
    ("field-info", []), ("zeta-coeffs", ["--max", "10"]), ("bounds", ["--s", "2", "--height", "3"])],
    ids=["field-info", "zeta-coeffs", "bounds"])
@pytest.mark.parametrize("flag", [["--tol", "0.1"], ["--budget", "10"]], ids=["tol", "budget"])
def test_box_flags_only_where_a_box_is_scanned(capsys, command, rest, flag):
    """--tol and --budget would be ignored here, so argparse refuses them."""
    with pytest.raises(SystemExit) as exc:
        main([command, Q5, *rest, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bounds", QUARTIC, "--s", "3", "--height", "5"],
    ["enumerate", fixture_path("cyclo32real.json"), "--radius", "3"],
], ids=["bounds-quartic-height-5", "enumerate-octic-3"])
def test_no_per_point_elimination(tmp_path, monkeypatch, capsys, argv):
    """Norms, orbits and units come from batched `norm_rows` calls (the
    float front, and the kernel for the rows it leaves open): the CLI
    never takes one element's norm or quotient, and gives the same output."""
    want = tmp_path / "want.out"
    assert run(capsys, *argv, "--out", str(want))[0] == 0

    def per_point(*args):
        pytest.fail("a norm or a quotient was taken one element at a time")

    monkeypatch.setattr(NumberField, "norm_coords", per_point)
    monkeypatch.setattr(NumberField, "divide_exact", per_point)
    monkeypatch.setattr(_memo, "_entries", OrderedDict())  # no result from the first run
    got = tmp_path / "got.out"
    assert run(capsys, *argv, "--out", str(got))[0] == 0
    assert got.read_bytes() == want.read_bytes()


def test_counts_of_another_field_are_rejected(tmp_path, capsys):
    """Same degree, other field: x^2 - 2 must not relabel Q(sqrt5) counts."""
    counts = tmp_path / "counts.csv"
    assert run(capsys, "counts", Q5, "--radius", "10", "--out", str(counts))[0] == 0
    qsqrt2 = tmp_path / "qsqrt2.json"
    qsqrt2.write_text(json.dumps({"label": "qsqrt2", "min_poly": [-2, 0, 1],
                                  "assume_maximal_order": True, "roots_of_unity": 2}))
    code, out, err = run(capsys, "estimate", str(qsqrt2), "--from-counts", str(counts))
    assert code == 2
    assert err.startswith("error:") and "ValidationError" in err and "qsqrt2" in err
    assert out == ""
    # a row with a nonzero a_k left out is caught too (k = 4: a_4 = 1)
    lines = counts.read_text().splitlines()
    assert lines[3].startswith("4,1,")
    gap = tmp_path / "gap.csv"
    gap.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
    code, _, err = run(capsys, "estimate", Q5, "--from-counts", str(gap))
    assert code == 2 and "k=4" in err


@pytest.mark.parametrize("edit", [{"total": "7"}, {"max_norm": "3"},
                                  {"total": "7", "max_norm": "3"}],
                         ids=["total", "max-norm", "both"])
def test_counts_preamble_must_agree_with_its_rows(tmp_path, capsys, edit):
    """The R = 10 counts hold 180 points up to norm 100: a preamble that
    says otherwise is refused, not echoed into the estimate's preamble."""
    counts = tmp_path / "counts.csv"
    assert run(capsys, "counts", Q5, "--radius", "10", "--out", str(counts))[0] == 0
    lines = counts.read_text().splitlines()
    assert lines[0].endswith(" max_norm=100 total=180")
    fields = dict(tok.split("=", 1) for tok in lines[0].rsplit(" ", 2)[1:])
    fields.update(edit)
    lines[0] = " ".join([lines[0].rsplit(" ", 2)[0]] + [f"{k}={v}" for k, v in fields.items()])
    counts.write_text("\n".join(lines) + "\n")
    out = tmp_path / "est.csv"
    code, _, err = run(capsys, "estimate", Q5, "--from-counts", str(counts), "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and "ValidationError" in err
    assert f"says {next(iter(edit))}=" in err and not out.exists()


def test_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "counts", Q5, "--radius", "7", "--out", str(a))
    run(capsys, "counts", Q5, "--radius", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_float_formatting_15_digits(capsys):
    code, out, _ = run(capsys, "estimate", Q5, "--radius", "10")
    row1 = out.splitlines()[2]
    raw = row1.split(",")[3]
    assert raw == f"{4 * math.log(10) / 0.48121182505960347:.15g}"


def test_octic_estimate_smoke(tmp_path, capsys):
    """End-to-end degree-8 run at a small radius with a norm cap."""
    octic = fixture_path("cyclo32real.json")
    out = tmp_path / "octic.csv"
    code, _, _ = run(capsys, "estimate", octic, "--radius", "2.5",
                     "--max-norm", "1000", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "k,a_k,b_k,n_k_raw,n_k,f_k"
    first = lines[2].split(",")
    assert first[0] == "1" and int(first[2]) >= 2  # unit row present


def test_cli_import_leaves_mpmath_out():
    """Embeddings are decided in integers, so mpmath is only a test
    dependency: a fresh `import nfbounds.cli` must not load it."""
    src = str(Path(nfbounds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, nfbounds.cli; print(sorted(m for m in sys.modules if 'mpmath' in m))"
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.strip() == "[]"


def test_unit_past_the_precision_ceiling_is_a_named_error(tmp_path):
    """x^2 - 1000000000039 has a continued-fraction period of 532,572
    steps, its unit far past the 4,096 bits `enclose` can take: field-info
    exits 3 at once.  Run under a 2 GB address-space limit in a fresh
    process, since a table of every convergent would fill memory."""
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"min_poly": [-1000000000039, 0, 1],
                               "assume_maximal_order": True}))
    src = str(Path(nfbounds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from nfbounds.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", code, "field-info", str(doc)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("error: ResourceLimitError:") and "4096 bits" in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
