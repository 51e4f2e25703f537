import random

import pytest

from cubic7.counting import (
    chi,
    count_representations,
    count_zeros,
    delta_constants,
    lattice_space_count,
    union_space_count,
    value_histogram,
)
from cubic7.errors import DomainError, ResourceLimitError
from cubic7.forms import COEFF_CAP, CubicForm, linear_spaces
from cubic7.oracles import (
    block_values_brute,
    representation_counts_brute,
    union_membership_brute,
)


def test_value_histogram_vs_brute(f_star):
    rng = random.Random(31)
    blocks = [(f_star.l1, f_star.q1)]
    for _ in range(6):
        l = tuple(rng.randint(-3, 3) for _ in range(3))
        if l == (0, 0, 0):
            l = (0, 1, 0)
        q = tuple(rng.randint(-3, 3) for _ in range(6))
        blocks.append((l, q))
    for box in ("sym", "pos", "nonneg"):
        for l, q in blocks:
            h = value_histogram(l, q, box, 2)
            brute = block_values_brute(l, q, box, 2)
            assert dict(h.items()) == brute
            assert h.total() == sum(brute.values())
            assert h.zero_count() == brute.get(0, 0)


def test_histogram_views(f_star):
    h = value_histogram(f_star.l1, f_star.q1, "sym", 3)
    assert h.total() == 7 ** 3
    assert h.zero_count() == 67
    assert h.count_of(10 ** 9) == 0
    nz = list(h.nonzero_items())
    assert all(n != 0 for n, _ in nz)
    assert nz == sorted(nz)
    assert sum(c for _, c in nz) + h.zero_count() == h.total()
    assert h.max_count() == max(c for _, c in h.items())


def test_histogram_sym_parity(f_star):
    # Negating a point negates the block value: the histogram is even.
    h = value_histogram(f_star.l1, f_star.q1, "sym", 5)
    for n, c in h.items():
        assert h.count_of(-n) == c


def test_histogram_guards(f_star):
    with pytest.raises(DomainError):
        value_histogram(f_star.l1, f_star.q1, "sym", 0)
    with pytest.raises(ResourceLimitError, match=r"1083206683 cells .* P <= 203"):
        value_histogram(f_star.l1, f_star.q1, "sym", 513)


def test_histogram_big_integer_path():
    # Coefficients at the cap overflow the int64 certification bound at
    # this radius, forcing the exact big-integer fallback.
    c = COEFF_CAP
    l = (c, c, c)
    q = (c, c, c, c, c, c)
    h = value_histogram(l, q, "pos", 100)
    assert h.is_big
    assert h.total() == 100 ** 3
    # On the positive box the block value is strictly increasing in every
    # coordinate, so the corners give the unique extremes.
    assert h.count_of(3 * c * 6 * c) == 1
    assert h.count_of(300 * c * 60000 * c) == 1
    assert min(v for v, _ in h.items()) == 18 * c * c


def test_count_representations_vs_oracle(f_star, f_fac1, f_iii):
    for form in (f_star, f_fac1, f_iii):
        for P in (1, 2):
            table = representation_counts_brute(form, P)
            for N in range(-8, 9):
                assert count_representations(form, N, P) == table.get(N, 0)


def test_count_representations_other_boxes(f_star):
    for box in ("pos", "nonneg"):
        form = CubicForm(f_star.a, f_star.q1, f_star.q2, box)
        table = representation_counts_brute(form, 2)
        for N in (0, 1, 2, 5, 12):
            assert count_representations(form, N, 2) == table.get(N, 0)


def test_fixed_counts(f_star):
    assert count_representations(f_star, 0, 1) == 537
    assert count_representations(f_star, 5, 1) == 4
    assert count_representations(f_star, 100, 1) == 0
    assert count_zeros(f_star, 1) == 537


def test_count_zeros_requires_sym(f_star):
    form = CubicForm(f_star.a, f_star.q1, f_star.q2, "pos")
    with pytest.raises(DomainError):
        count_zeros(form, 2)


def test_lattice_space_count(f_star):
    sp = linear_spaces(f_star)[0]
    # Rank-4 kernel with the free coordinates x2, x3, x5, x6.
    assert lattice_space_count(sp, "sym", 2) == 5 ** 4
    assert lattice_space_count(sp, "nonneg", 2) == 3 ** 4


def test_union_counts_vs_membership(f_star, f_fac1, f_fac2):
    for form in (f_star, f_fac1, f_fac2):
        spaces = linear_spaces(form)
        got = union_space_count(spaces, "sym", 2)
        brute = union_membership_brute(form, [sp.covectors for sp in spaces], 2)
        assert got == brute
    assert union_space_count(linear_spaces(f_star), "sym", 2) == 625
    assert union_space_count(linear_spaces(f_fac1), "sym", 2) == 1525
    assert union_space_count(linear_spaces(f_fac2), "sym", 2) == 1525


def test_chi():
    assert chi(8, 1, "sym", 2) == 1
    assert chi(8, 1, "sym", 1) == 0
    assert chi(-8, 1, "sym", 2) == 1
    assert chi(-8, 1, "pos", 2) == 0
    assert chi(5, 1, "sym", 2) == 0
    assert chi(16, 2, "sym", 2) == 1
    assert chi(15, 2, "sym", 2) == 0
    assert chi(0, 1, "pos", 2) == 0
    assert chi(0, 1, "nonneg", 2) == 1


def test_delta_constants(f_star):
    rep = delta_constants(f_star, (8, 16, 32))
    for row in rep.rows:
        assert row["delta1"] == row["delta3"] * row["delta4"]
        assert row["delta2"] == row["delta0"] - row["delta1"]
    # Both ratios drift toward the common limit 16 as 1/P -> 0.
    assert abs(rep.delta0 - 16.0) < 1.0
    assert abs(rep.delta1 - 16.0) < 1.0
    with pytest.raises(DomainError):
        delta_constants(f_star, (8,))
    with pytest.raises(DomainError):
        delta_constants(f_star, (16, 8))
