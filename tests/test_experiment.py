import math

import pytest

from cubic7 import experiment
from cubic7.checks import verify
from cubic7.counting import chi, count_representations, count_zeros, value_histogram
from cubic7.errors import DomainError, ResourceLimitError
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
    assert n1 == value_histogram(f_star.l1, f_star.q1, "sym", 3).count_of(0)


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


def test_predict_zeros_refuses_before_series(f_star, monkeypatch):
    """Every probe radius passes the histogram guards of both blocks before
    the singular series and the integral are computed."""
    def expensive(*args, **kwargs):
        raise AssertionError("series or integral reached")

    monkeypatch.setattr(experiment, "singular_series", expensive)
    monkeypatch.setattr(experiment, "singular_integral", expensive)
    with pytest.raises(ResourceLimitError, match="block grid 1201"):
        predict_zeros(f_star, probes=(8, 600))
    with pytest.raises(DomainError, match="P must be at least 1"):
        predict_zeros(f_star, probes=(0,))
    # Only block 2 is too large for the int64 path at P = 170.
    big = 1 << 20
    form = CubicForm((1, 0, 0, big, 0, 0, 1), (0, 0, 1, 0, 0, 1),
                     (big, 0, 0, 0, 0, 0))
    with pytest.raises(ResourceLimitError, match="too large for the int64 path"):
        predict_zeros(form, probes=(8, 170))


def _patch_stages(monkeypatch):
    def expensive(*args, **kwargs):
        raise AssertionError("an expensive stage was reached")

    for name in ("linear_spaces", "singular_series", "singular_integral",
                 "count_zeros", "union_space_count", "representation_counts",
                 "block_zero_counts", "density_ladders"):
        monkeypatch.setattr(experiment, name, expensive)


def test_predict_zeros_refuses_integral_arguments_first(f_star, monkeypatch):
    """Bad Monte Carlo arguments are refused right after the radius guards,
    before the series, the integral and the counts."""
    _patch_stages(monkeypatch)
    for kwargs, match in (({"eps0": 0.0}, "eps"), ({"eps0": 1e-323}, "eps"),
                          ({"eps0": math.nan}, "eps"),
                          ({"samples": 5}, "10\\^4 samples"),
                          ({"threads": 0}, "threads")):
        with pytest.raises(DomainError, match=match):
            predict_zeros(f_star, probes=(8,), **kwargs)
    # The radius guard still comes first.
    with pytest.raises(ResourceLimitError, match="block grid 1201"):
        predict_zeros(f_star, probes=(600,), eps0=0.0)


def test_predict_representations_refuses_before_counts(f_star, monkeypatch):
    """Bad Monte Carlo and series arguments are refused before the
    histograms, the fold, the counts, the integral and the series."""
    _patch_stages(monkeypatch)
    Ns = (8_000_000, 8_100_000)
    for kwargs, exc, match in (
            ({"samples": 5}, DomainError, "10\\^4 samples"),
            ({"eps0": 5e-324}, DomainError, "eps"),
            ({"eps0": math.inf}, DomainError, "eps"),
            ({"threads": 0}, DomainError, "threads"),
            ({"qmax": 0}, DomainError, "Qmax must be at least 1"),
            ({"qmax": 5000}, ResourceLimitError, "Qmax 5000 exceeds the cap")):
        with pytest.raises(exc, match=match):
            predict_representations(f_star, Ns, **kwargs)
    # The integral's arguments are refused before the series' cap, as they
    # were when the integral ran first.
    with pytest.raises(DomainError, match="10\\^4 samples"):
        predict(f_star, "representations", Ns, qmax=5000, samples=5)


def test_predict_zeros_refuses_no_probes(f_star, monkeypatch):
    """An empty probe list is refused before the series and the integral,
    as representations mode refuses an empty N list; only None runs the
    default schedule."""
    def expensive(*args, **kwargs):
        raise AssertionError("series or integral reached")

    monkeypatch.setattr(experiment, "singular_series", expensive)
    monkeypatch.setattr(experiment, "singular_integral", expensive)
    for probes in ([], ()):
        with pytest.raises(DomainError, match="at least one probe radius"):
            predict_zeros(f_star, probes)
        with pytest.raises(DomainError, match="at least one probe radius"):
            predict(f_star, "zeros", probes)


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


def test_predict_representations_zero_counts_per_radius(f_fac1):
    # N at interleaved radii 10 and 31: the counts and the block zero counts
    # of each radius come from its two histograms, built once each.
    Ns = (1000, 30000, 1001, 29999)
    value_histogram.cache_clear()
    rep = predict_representations(f_fac1, Ns, qmax=20, samples=20_000)
    assert value_histogram.cache_info().misses == 4
    assert [r["P"] for r in rep.rows] == [10, 31, 10, 31]
    for r in rep.rows:
        n1, n2 = block_zero_counts(f_fac1, r["P"])
        assert r["actual"] == count_representations(f_fac1, r["N"], r["P"])
        assert r["lattice"] == chi(r["N"], f_fac1.a7, f_fac1.box, r["P"]) * n1 * n2


def test_predict_representations_zero_counts_only_for_cubes(f_fac1):
    # The lattice term chi(N) N1 N2 needs the block zero counts only at a
    # radius with a cube target.  One target on f_fac1's distinct blocks
    # folds one block and scans the other, so 900001 (P = 96, chi = 0)
    # builds one histogram; 884736 = 96^3 (chi = 1) builds both and keeps
    # its lattice term.
    try:
        for N, misses in ((900_001, 1), (96 ** 3, 2)):
            value_histogram.cache_clear()
            (row,) = predict_representations(f_fac1, (N,), qmax=20, samples=20_000).rows
            assert value_histogram.cache_info().misses == misses
            assert row["P"] == 96 and row["chi"] == misses - 1
            n1, n2 = block_zero_counts(f_fac1, 96)
            assert row["lattice"] == row["chi"] * n1 * n2
            assert row["actual"] == count_representations(f_fac1, N, 96)
        assert row["lattice"] > 0
    finally:
        value_histogram.cache_clear()


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
