import pytest

from cubic7.checks import verify
from cubic7.counting import count_representations, count_zeros, value_histogram
from cubic7.errors import DomainError
from cubic7.experiment import (
    block_zero_counts,
    predict,
    predict_representations,
    predict_zeros,
)
from cubic7.forms import CubicForm


def test_block_zero_counts(f_star):
    n1, n2 = block_zero_counts(f_star, 3)
    assert n1 == n2 == 67
    assert n1 == value_histogram(f_star.l1, f_star.q1, "sym", 3).zero_count()


def test_predict_zeros_rows(f_star):
    rep = predict_zeros(f_star, probes=(2, 4), qmax=30, samples=20_000)
    assert rep.mode == "zeros" and rep.qmax == 30
    assert rep.series_value is not None and rep.integral is not None
    assert [r["P"] for r in rep.rows] == [2, 4]
    for r in rep.rows:
        assert r["actual"] == count_zeros(f_star, r["P"])
        # The lattice points are genuine zeros, so they never overshoot.
        assert r["lattice"] <= r["actual"]
        assert r["prediction"] == r["lattice"] + r["circle"]
        assert r["residual"] == r["actual"] - r["prediction"]
    # The csv and text emitters take their header from the first row's keys.
    assert next(iter(rep.rows[0])) == "P"


def test_predict_zeros_requires_sym(f_star):
    form = CubicForm(f_star.a, f_star.q1, f_star.q2, "pos")
    with pytest.raises(DomainError):
        predict_zeros(form, probes=(2,), samples=20_000)


def test_predict_representations_rows(f_star):
    rep = predict_representations(f_star, (8, 9), qmax=30, samples=20_000)
    assert rep.mode == "representations"
    assert rep.series_value is None and rep.integral is None
    by_n = {r["N"]: r for r in rep.rows}
    assert by_n[8]["P"] == 2 and by_n[9]["P"] == 2
    assert by_n[8]["chi"] == 1  # 8 = 2^3
    assert by_n[9]["chi"] == 0
    assert by_n[9]["lattice"] == 0
    for r in rep.rows:
        assert r["actual"] == count_representations(f_star, r["N"], r["P"])
        assert r["lattice"] <= r["actual"]
    with pytest.raises(DomainError):
        predict_representations(f_star, ())
    with pytest.raises(DomainError):
        predict_representations(f_star, (0,))


def test_predict_dispatch(f_star):
    rep = predict(f_star, "zeros", (2,), qmax=20, samples=20_000)
    assert rep.mode == "zeros"
    rep = predict(f_star, "representations", (8,), qmax=20, samples=20_000)
    assert rep.mode == "representations"
    with pytest.raises(DomainError):
        predict(f_star, "everything", (2,))


def test_report_to_dict(f_star):
    rep = predict_zeros(f_star, probes=(2,), qmax=20, samples=20_000)
    d = rep.to_dict()
    assert set(d) == {"mode", "qmax", "rows", "series_value", "integral"}
    assert d["rows"][0]["P"] == 2


def test_invariant_suite_passes(f_star):
    results = verify(f_star)
    failed = [r for r in results if not r.passed]
    assert failed == [], [f"{r.name}: {r.detail}" for r in failed]
    assert len(results) >= 20
    names = [r.name for r in results]
    assert len(names) == len(set(names))
