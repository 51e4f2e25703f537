import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cubic7 import checks, counting, expsums, oracles
from cubic7.cli import DEFAULT_FORM, _export_histogram, main
from cubic7.counting import BlockHistogram, count_representations
from cubic7.forms import CubicForm, form_to_dict
from cubic7.oracles import block_values_brute, representation_counts_brute


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify")
    assert code == 0
    payload = json.loads(out)
    assert payload["content"] == 1
    assert payload["block1"]["delta"] == 0
    assert len(payload["spaces"]) == 1


def test_count_and_zeros(capsys):
    code, out, _ = run_cli(capsys, "count", "--N", "5", "--P", "1")
    assert code == 0 and json.loads(out)["count"] == 4
    code, out, _ = run_cli(capsys, "zeros", "--P", "1")
    assert code == 0 and json.loads(out)["zeros"] == 537


def test_histogram_export(capsys, tmp_path):
    path = tmp_path / "hist.csv"
    code, out, _ = run_cli(
        capsys, "count", "--N", "0", "--P", "1", "--histogram", str(path)
    )
    assert code == 0
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["n", "count"]
    data = {int(n): int(c) for n, c in rows[1:]}
    assert sum(data.values()) == 27
    assert data[0] == 15
    ns = sorted(data)
    assert ns == [int(n) for n, _ in rows[1:]]  # sorted by n, no duplicates
    # zeros exports the same block histogram.
    zpath = tmp_path / "zeros.csv"
    code, _, _ = run_cli(capsys, "zeros", "--P", "1", "--histogram", str(zpath))
    assert code == 0
    assert zpath.read_bytes() == path.read_bytes()
    # A full (pos box) histogram with negative values, block 2: the rows
    # are the enumerated histogram in ascending order.
    form = CubicForm((1, 0, 0, -1, 2, 0, 1), (0, 0, 1, 0, 0, 1), (0, 1, -1, 1, 0, 2), "pos")
    fpath = tmp_path / "pos.json"
    fpath.write_text(json.dumps(form_to_dict(form)))
    ppath = tmp_path / "pos.csv"
    code, _, _ = run_cli(capsys, "--form", str(fpath), "count", "--N", "0", "--P", "4",
                         "--histogram", str(ppath), "--block", "2")
    assert code == 0
    rows = list(csv.reader(ppath.read_text().splitlines()))
    assert rows[0] == ["n", "count"]
    data = [(int(n), int(c)) for n, c in rows[1:]]
    assert data == sorted(block_values_brute(*form.blocks()[1], "pos", 4).items())
    assert data[0][0] < 0 < data[-1][0]


def test_histogram_export_memory(tmp_path):
    # The export streams the rows of the cached sym histogram at P = 64
    # (191,855 rows): about 57 bytes per row under tracemalloc, the signed
    # arrays and their lists.  Sorting the rows first held them all as
    # tuples, about 112 bytes per row.
    import tracemalloc

    l, q = DEFAULT_FORM.blocks()[0]
    rows = len(counting.value_histogram(l, q, "sym", 64).vals)
    tracemalloc.start()
    try:
        _export_histogram(DEFAULT_FORM, 64, 1, str(tmp_path / "h.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * rows


def test_spaces_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "spaces")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][:2] == ["covectors", "tag"] or "tag" in rows[0]
    assert len(rows) == 2


def test_series_payload(capsys):
    code, out, _ = run_cli(capsys, "series", "--N", "1", "--Qmax", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 1 and payload["Qmax"] == 40
    assert len(payload["tail"]) == 3
    assert any(row["p"] == 2 for row in payload["per_prime"])
    code, out, _ = run_cli(capsys, "series", "--N", "1", "--zero", "--Qmax", "40")
    assert json.loads(out)["N"] == 0


def test_series_one_terms_pass(capsys, monkeypatch):
    # The value, the tails and per_prime all come from one terms list.
    real = expsums.singular_series_terms
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(expsums, "singular_series_terms", spy)
    code, out, _ = run_cli(capsys, "series", "--N", "5", "--Qmax", "60")
    assert code == 0
    assert calls == [(DEFAULT_FORM, 5, 60)]
    fresh = expsums.prime_power_profile(real(DEFAULT_FORM, 5, 60))
    assert json.loads(out)["per_prime"] == fresh


def test_integral_deterministic(capsys):
    args = ("integral", "--samples", "20000", "--seed", "3")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args, "--threads", "2")
    assert code == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["target"] == "zero" and payload["samples"] == 20000


def test_local_payload(capsys):
    code, out, _ = run_cli(capsys, "local", "--N", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "solvable-everywhere"
    assert payload["local"]["modulus"] == 1


def test_audit_formats(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "surface", "--sizes", "10", "20", "40", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["size", "count"]
    assert [r[0] for r in rows[1:]] == ["10", "20", "40"]
    code, out, _ = run_cli(capsys, "audit", "power", "--qmax", "60")
    assert code == 0
    payload = json.loads(out)
    assert payload["claimed_exponent"] == 0.5
    code, out, _ = run_cli(
        capsys, "audit", "moment", "--sizes", "4", "8", "16", "--format", "text"
    )
    assert code == 0 and "fitted_exponent:" in out


def test_predict_zeros_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "predict", "--mode", "zeros", "--P-list", "2", "4",
        "--qmax", "20", "--samples", "20000",
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["P"] for r in payload["rows"]] == [2, 4]
    assert payload["series_value"] is not None


def test_predict_deterministic_across_threads(capsys):
    base = (
        "predict", "--mode", "zeros", "--P-list", "2", "3",
        "--qmax", "20", "--samples", "20000",
    )
    _, out1, _ = run_cli(capsys, *base, "--threads", "1")
    _, out2, _ = run_cli(capsys, *base, "--threads", "2")
    assert out1 == out2


def test_verify_cli(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0 and payload["passed"] >= 20


def test_verify_names_a_crashed_check(monkeypatch, f_star):
    # box_range is read only by the histogram-mass check; its crash must be
    # reported under that check's usual name, and the next check still runs.
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(checks, "box_range", boom)
    kept = ("histogram-mass", "form-json-roundtrip")
    monkeypatch.setattr(checks, "_CHECKS",
                        tuple(c for c in checks._CHECKS if c[0] in kept))
    assert [r.to_dict() for r in checks.verify(f_star)] == [
        {"name": "histogram-mass", "passed": False, "detail": "RuntimeError: boom"},
        {"name": "form-json-roundtrip", "passed": True,
         "detail": "form survives a JSON round trip"},
    ]


def test_verify_convolution_checks_one_target(monkeypatch, f_fac1):
    # One target on f_fac1's distinct blocks scans block 1, and several
    # targets read its histogram.  A scan whose bulk pair weighs |G| in
    # place of |G|/2 leaves every several-target count exact, and must
    # still fail verify's convolution row.
    kept = ("convolution-vs-enumeration",)
    monkeypatch.setattr(checks, "_CHECKS", tuple(c for c in checks._CHECKS if c[0] in kept))
    assert [r.passed for r in checks.verify(f_fac1)] == [True]
    # With both block histograms cached, the mutant reaches only the scan.
    for l, q in f_fac1.blocks():
        counting.value_histogram(l, q, "sym", 2)
    pieces = counting._sign_pieces

    def heavy_bulk(r, group):
        (axes, weight), *zeros = pieces(r, group)
        return [(axes, 2 * weight), *zeros]

    monkeypatch.setattr(counting, "_sign_pieces", heavy_bulk)
    table = representation_counts_brute(f_fac1, 2)
    Ns = range(-6, 7)
    assert counting.representation_counts(f_fac1, Ns, 2) == [table.get(N, 0) for N in Ns]
    (row,) = checks.verify(f_fac1)
    assert not row.passed and row.detail.startswith("N=-6: ")


def test_verify_prime_law_by_point_count(monkeypatch, f_star, f_fac1, f_fac2, f_iii,
                                         f_content2):
    # S(p, a) = p (M_p - p - 1), M_p the projective zeros of L*Q over F_p:
    # the row holds on every fixture form and a pos-box form, though
    # f_fac1's x4 x5 x6 (three lines, M_p = 3p) has S(3, 1) = 15, not p^2.
    # Off by 2p (the mutant p (M_p - p + 1)) it fails on each, and so it
    # does with S(13, 2) moved off its cube class {2, 3, 10, 11}.
    kept = ("block-sum-prime-law",)
    monkeypatch.setattr(checks, "_CHECKS", tuple(c for c in checks._CHECKS if c[0] in kept))
    pos = CubicForm((1, 2, -1, 2, 1, 1, 3), (1, -1, 2, 0, 1, 3), (2, 1, 0, -1, 1, 1), "pos")
    forms = (f_star, f_fac1, f_fac2, f_iii, f_content2, pos)
    assert [oracles.projective_zeros_brute(f_fac1.l2, f_fac1.q2, p) for p in (3, 5, 7)] == [
        9, 15, 21]
    for form in forms:
        (row,) = checks.verify(form)
        assert row.passed, (form, row.detail)
    zeros = checks.projective_zeros_brute
    monkeypatch.setattr(checks, "projective_zeros_brute", lambda l, q, p: zeros(l, q, p) + 2)
    for form in forms:
        (row,) = checks.verify(form)
        assert not row.passed and row.detail.startswith("p=3: mean ")
    monkeypatch.setattr(checks, "projective_zeros_brute", zeros)
    s_block = checks.s_block
    monkeypatch.setattr(checks, "s_block",
                        lambda l, q, p, a: s_block(l, q, p, a) + ((p, a) == (13, 2)))
    for form in forms:
        (row,) = checks.verify(form)
        assert not row.passed and row.detail.startswith("p=13: S(p, 2) = ")


def test_histogram_check_reads_the_enumeration(monkeypatch, f_star):
    # The sym histogram is stored by its half, so a parity clause on it
    # alone always holds: the check compares each block with the
    # enumeration.  Dropping the zero pieces of the sign-group scan (those
    # of weight 1 on the sym box: x1 = 0, and x3 = 0 with x1 != 0), not
    # halving the counts at u > 0, or moving one count between two values
    # (mass and parity kept) must each fail it.
    assert checks._check_histogram(f_star) == (
        True, "block mass = 13^3 and sym parity hold at P = 6")
    build = counting.value_histogram.__wrapped__
    pieces = counting._sign_pieces

    def doubled(l, q, box, P):
        h = build(l, q, box, P)
        c = h._cnts
        return BlockHistogram(h._vals, np.concatenate((c[:1], 2 * c[1:])), even=True)

    def moved(l, q, box, P):
        h = build(l, q, box, P)
        c = h._cnts.copy()
        c[1] -= 1
        c[2] += 1
        return BlockHistogram(h._vals, c, even=True)

    monkeypatch.setattr(checks, "value_histogram", build)
    with monkeypatch.context() as m:
        m.setattr(counting, "_sign_pieces", lambda r, group: pieces(r, group)[:1])
        assert checks._check_histogram(f_star)[1] == "mass 1872 != 2197"
    monkeypatch.setattr(checks, "value_histogram", doubled)
    assert not checks._check_histogram(f_star)[0]
    monkeypatch.setattr(checks, "value_histogram", moved)
    ok, detail = checks._check_histogram(f_star)
    assert not ok and detail.endswith(" enumerated")


def test_form_file_and_global_flag_positions(capsys, tmp_path, f_fac1):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form_to_dict(f_fac1)))
    code, out, _ = run_cli(capsys, "--form", str(path), "spaces")
    assert code == 0 and json.loads(out)["count"] == 3
    code, out2, _ = run_cli(capsys, "spaces", "--form", str(path))
    assert code == 0 and out2 == out


def test_error_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"a": [1, 0, 0, 1, 0, 0, 0],
                               "Q1": {"A": [0, 0, 1], "B": [0, 0, 1]},
                               "Q2": {"A": [0, 0, 1], "B": [0, 0, 1]}}))
    code, _, err = run_cli(capsys, "classify", "--form", str(bad))
    assert code == 2 and "a7" in err
    code, _, err = run_cli(capsys, "classify", "--form", str(tmp_path / "no.json"))
    assert code == 2
    code, _, err = run_cli(capsys, "zeros", "--P", "600")
    assert code == 3 and "resource" in err
    code, _, err = run_cli(capsys, "count", "--N", "1", "--P", "0")
    assert code == 2
    code, out, err = run_cli(capsys, "audit", "power", "--k", "0")
    assert code == 2 and out == "" and "k must be at least 2" in err
    for threads in ("0", "-3"):
        for argv in (("integral", "--samples", "10000"),
                     ("count", "--N", "1", "--P", "2"),
                     ("local", "--N", "5")):
            code, out, err = run_cli(capsys, "--threads", threads, *argv)
            assert code == 2 and out == ""
            assert err == "error: threads must be at least 1\n"
    # 1e-323 and 5e-324 are positive, but a lower rung of the ladder is 0.
    for eps in ("nan", "inf", "0", "1e-323", "5e-324"):
        code, out, err = run_cli(capsys, "integral", "--eps", eps,
                                 "--samples", "20000")
        assert code == 2 and out == "" and "eps" in err


@pytest.mark.parametrize("data", [
    b'\xff\xfe{"a": [1, 0, 0, 1, 0, 0, 1]}',
    b'{"a": [1, 0, 0, 1, 0, ' + b"1" * 4301 + b', 1]}',  # past Python's int-digit limit
], ids=["not-utf8", "long-int"])
def test_unreadable_form_file(capsys, tmp_path, data):
    path = tmp_path / "form.json"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "--form", str(path), "classify")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("text", ["1.5", "true", '"1"', "1e0"])
def test_form_file_coefficients_must_be_integers(capsys, tmp_path, text):
    path = tmp_path / "form.json"
    path.write_text('{"a": [1, 0, 0, 1, 0, %s, 1], '
                    '"Q1": {"A": [0, 0, 1], "B": [0, 0, 1]}, '
                    '"Q2": {"A": [0, 0, 1], "B": [0, 0, 1]}}' % text)
    code, out, err = run_cli(capsys, "--form", str(path), "classify")
    assert code == 2 and out == ""
    assert "coefficient a[5]" in err and "not an integer" in err


@pytest.mark.parametrize("block", [1, 2])
def test_zero_quadratic_is_degenerate(capsys, tmp_path, block):
    # A block whose quadratic vanishes has no content-1 form: local must
    # refuse it exactly as classify does, not divide by its zero content.
    zero = {"A": [0, 0, 0], "B": [0, 0, 0]}
    live = {"A": [0, 0, 1], "B": [1, 0, 0]}
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"a": [1, 0, 0, 1, 0, 0, 1],
                                "Q1": zero if block == 1 else live,
                                "Q2": live if block == 1 else zero}))
    for cmd in (["classify"], ["local", "--N", "1"]):
        code, out, err = run_cli(capsys, "--form", str(path), *cmd)
        assert code == 2 and out == ""
        assert err == f"error: block {block} is degenerate\n"


def test_predict_representations_two_radii(capsys):
    # N = 27, 30 sit at P = 3 and N = 9, 8 at P = 2, interleaved and with a
    # repeat: each radius shares one fold, and rows keep the input order.
    Ns = ["27", "9", "30", "8", "9"]
    code, out, _ = run_cli(capsys, "predict", "--mode", "representations",
                           "--qmax", "20", "--samples", "20000",
                           "--N-list", *Ns)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["N"] for r in rows] == [int(n) for n in Ns]
    assert [r["P"] for r in rows] == [3, 2, 3, 2, 2]
    for r in rows:
        assert r["actual"] == count_representations(DEFAULT_FORM, r["N"], r["P"])


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "cubic7.cli", "count", "--N", "5", "--P", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 4
    if shutil.which("cubic7") is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        ["cubic7", "count", "--N", "5", "--P", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 4


# Stdouts recorded in cli_pins.json.  These subcommands print integers and
# strings only, so the pins are exact on any machine; they fix the csv and
# text renderings, whose columns follow payload key order.
_CLI_PINS = json.loads(Path(__file__).with_name("cli_pins.json").read_text())
_PINNED_COMMANDS = {
    "classify": ("classify",),
    "spaces": ("spaces",),
    "count": ("count", "--N", "5", "--P", "3"),
    "zeros": ("zeros", "--P", "6"),
    "local": ("local", "--N", "7"),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("cmd", list(_PINNED_COMMANDS))
@pytest.mark.parametrize("form", ["example", "f_iii"])
def test_stdout_pinned(capsys, tmp_path, request, form, cmd, fmt):
    argv = ["--format", fmt]
    if form != "example":
        path = tmp_path / "form.json"
        path.write_text(json.dumps(form_to_dict(request.getfixturevalue(form))))
        argv += ["--form", str(path)]
    code, out, _ = run_cli(capsys, *argv, *_PINNED_COMMANDS[cmd])
    assert code == 0
    assert out == _CLI_PINS[form][cmd][fmt]
