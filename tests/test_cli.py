import csv
import json
import shutil
import subprocess
import sys

import pytest

from cubic7 import checks
from cubic7.cli import DEFAULT_FORM, main
from cubic7.counting import count_representations
from cubic7.forms import form_to_dict


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
    for threads in ("0", "-3"):
        code, out, err = run_cli(capsys, "--threads", threads, "integral",
                                 "--samples", "10000")
        assert code == 2 and out == "" and "threads" in err


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
