import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubic7 import counting
from cubic7.counting import (
    _DENSE_CAP,
    _GRID_CAP,
    _INT64_SAFE,
    BlockHistogram,
    _cube_fold,
    _fold,
    _fold_count,
    _pair_count_sparse,
    chi,
    count_representations,
    count_zeros,
    delta_constants,
    lattice_space_count,
    representation_counts,
    union_space_count,
    value_histogram,
)
from cubic7.errors import DomainError, ResourceLimitError
from cubic7.forms import BOX_KINDS, COEFF_CAP, CubicForm, box_interval, box_range, linear_spaces
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


def test_big_int_counts_vs_brute():
    # A block at the cap first overflows the int64 bound on the pos box at
    # P = 62.  With block 2 = x4 x5^2 the pair is mixed (object and int64
    # values), and N = +-10^30 does not fit int64 at all.
    c, P = COEFF_CAP, 62
    l1, q1 = (c, c, c), (c, c, c, c, c, c)
    l2, q2 = (1, 0, 0), (0, 1, 0, 0, 0, 0)
    assert not value_histogram(l1, q1, "pos", P - 1).is_big
    assert value_histogram(l1, q1, "pos", P).is_big
    assert not value_histogram(l2, q2, "pos", P).is_big
    d1 = block_values_brute(l1, q1, "pos", P)
    d2 = block_values_brute(l2, q2, "pos", P)
    cubes = [3 * t ** 3 for t in box_range("pos", P)]

    def pair_sum(da, db, N):
        small, other = (da, db) if len(da) <= len(db) else (db, da)
        return sum(n * other.get(N - t - v, 0) for t in cubes for v, n in small.items())

    rng = random.Random(17)
    mixed = CubicForm(l1 + l2 + (3,), q1, q2, "pos")
    swapped = CubicForm(l2 + l1 + (3,), q2, q1, "pos")
    Ns = [mixed.value([rng.randint(1, P) for _ in range(7)]) for _ in range(4)]
    Ns += [0, 10 ** 30, -10 ** 30]
    want = [pair_sum(d1, d2, N) for N in Ns]
    assert min(want[:4]) > 0 and want[4:] == [0, 0, 0]
    assert representation_counts(mixed, Ns, P) == want
    assert representation_counts(swapped, Ns, P) == want
    # Both blocks big.
    both = CubicForm(l1 + l1 + (3,), q1, q1, "pos")
    N = both.value([rng.randint(1, P) for _ in range(7)])
    want = pair_sum(d1, d1, N)
    assert want > 0
    assert representation_counts(both, [N, 10 ** 30], P) == [want, 0]


def test_mixed_pair_counts_vs_brute(monkeypatch):
    # Lowering the int64 bound makes block 1 an object-dtype histogram at a
    # radius the full 7-grid brute force reaches, beside an int64 block 2.
    # Every sparse pair count must then see Python-int values on both sides.
    form = CubicForm((2, -1, 3, 1, 0, 0, 2), (1, 2, -1, 0, 3, 1),
                     (0, 1, 0, 0, 0, 0), "sym")
    swapped = CubicForm(form.l2 + form.l1 + (2,), form.q2, form.q1, "sym")
    P = 2
    dtypes = set()

    def spy(h1, h2, t):
        dtypes.update((h1.vals.dtype, h2.vals.dtype))
        return _pair_count_sparse(h1, h2, t)

    monkeypatch.setattr(counting, "_INT64_SAFE", 100)
    monkeypatch.setattr(counting, "_pair_count_sparse", spy)
    value_histogram.cache_clear()
    try:
        assert value_histogram(form.l1, form.q1, "sym", P).is_big
        assert not value_histogram(form.l2, form.q2, "sym", P).is_big
        table = representation_counts_brute(form, P)
        Ns = sorted(table) + [min(table) - 1, max(table) + 1, 10 ** 30]
        want = [table.get(N, 0) for N in Ns]
        assert representation_counts(form, Ns, P) == want
        assert representation_counts(swapped, Ns, P) == want
    finally:
        value_histogram.cache_clear()
    assert dtypes == {np.dtype(object)}


@settings(max_examples=80, deadline=None)
@given(
    l=st.tuples(*[st.integers(-9, 9)] * 3).filter(any),
    q=st.tuples(*[st.integers(-9, 9)] * 6).filter(any),
    box=st.sampled_from(BOX_KINDS),
    P=st.integers(1, 2),
    above=st.booleans(),
)
def test_histogram_int64_boundary(l, q, box, P, above):
    # Scale q so the a priori bound sum|l| * sum|q| * R^3 sits just below
    # _INT64_SAFE (int64 path) or at the first value not below it (big-int
    # path); either way the histogram must be the exact one.
    lo, hi = box_interval(box, P)
    unit = sum(map(abs, l)) * max(abs(lo), abs(hi)) ** 3
    target = -(-_INT64_SAFE // unit) if above else (_INT64_SAFE - 1) // unit
    k, rest = divmod(target, sum(map(abs, q)))
    q = [k * c for c in q]
    i = max(range(6), key=lambda j: abs(q[j]))
    q[i] += rest if q[i] > 0 else -rest
    q = tuple(q)
    bound = unit * sum(map(abs, q))
    assert (bound >= _INT64_SAFE) == above and abs(bound - _INT64_SAFE) <= unit
    h = value_histogram(l, q, box, P)
    assert h.is_big == above
    assert dict(h.items()) == block_values_brute(l, q, box, P)


def test_fold_vs_sparse(f_star, f_fac1, f_iii):
    # Targets at both edges of the value-sum window and just outside it,
    # and Ns at both edges of the fold's own range and just outside it; the
    # non-sym boxes make the histograms asymmetric, so a slip in an offset
    # cannot cancel out.
    rng = random.Random(5)
    for form in (f_star, f_fac1, f_iii):
        for box in ("sym", "pos", "nonneg"):
            form_b = CubicForm(form.a, form.q1, form.q2, box)
            for P in (6, 12):
                h1 = value_histogram(form.l1, form.q1, box, P)
                h2 = value_histogram(form.l2, form.q2, box, P)
                e_lo = int(h1.vals[0]) + int(h2.vals[0])
                e_hi = int(h1.vals[-1]) + int(h2.vals[-1])
                xs = box_range(box, P)
                cubes = [form.a7 * x ** 3 for x in xs]
                fold = _fold(h1, h2, cubes)
                assert fold is not None
                other, gmin, g = fold
                assert g.dtype == np.int32
                narrow = h2 if other is h1 else h1
                gmax = gmin + len(g) - 1
                assert g[0] > 0 and g[-1] > 0
                for w in [gmin, gmin + 1, gmax - 1, gmax] + [
                        rng.randint(gmin, gmax) for _ in range(5)]:
                    assert g[w - gmin] == sum(narrow.count_of(w - c) for c in cubes)
                n_lo = int(other.vals[0]) + gmin
                n_hi = int(other.vals[-1]) + gmax
                Ns = [e_lo + cubes[0], e_lo + cubes[-1], e_hi + cubes[0],
                      e_hi + cubes[-1], rng.randint(e_lo, e_hi),
                      n_lo - 1, n_lo, n_hi, n_hi + 1]
                seen = set()
                for N in Ns:
                    targets = [N - c for c in cubes]
                    sparse = [_pair_count_sparse(h1, h2, t) for t in targets]
                    assert _fold_count(*fold, N) == sum(sparse)
                    assert count_representations(form_b, N, P) == sum(sparse)
                    for t, c in zip(targets, sparse):
                        if t < e_lo or t > e_hi:
                            assert c == 0
                            seen.add("out")
                        elif t in (e_lo, e_hi):
                            assert c > 0
                            seen.add(t)
                assert seen == {"out", e_lo, e_hi}
                assert _fold_count(*fold, n_lo) > 0 and _fold_count(*fold, n_hi) > 0
                assert _fold_count(*fold, n_lo - 1) == _fold_count(*fold, n_hi + 1) == 0
                assert representation_counts(form_b, Ns, P) == [
                    count_representations(form_b, N, P) for N in Ns]


def _point_histogram(v: int, c: int) -> BlockHistogram:
    return BlockHistogram(vals=np.array([v], dtype=np.int64),
                          cnts=np.array([c], dtype=np.int64))


def test_int64_certificate(monkeypatch, f_fac1):
    # Block histograms within the grid cap always give an int32 fold and an
    # exact int64 dot.
    assert _GRID_CAP < 2 ** 31
    assert _GRID_CAP ** 2 < 2 ** 63
    cases = [
        (7 ** 2 * 73 * 127 * 337, 92737 * 649657, True),  # product 2^63 - 1
        (2 ** 32, 2 ** 31, False),  # product 2^63
        (2 ** 32 + 1, 2 ** 31 + 1, False),  # odd product above 2^63
    ]
    cubes = [-1, 0, 1]
    for c1, c2, folds in cases:
        h1 = _point_histogram(5, c1)
        h2 = _point_histogram(-3, c2)
        assert (_fold(h1, h2, cubes) is not None) == folds
        # Drive the public path with these histograms (the blocks of f_fac1
        # differ, so each gets its own).
        monkeypatch.setattr(counting, "value_histogram",
                            lambda l, q, box, P: h1 if q == f_fac1.q1 else h2)
        got = representation_counts(f_fac1, [1, 2, 3, 4, -2], 1)
        assert got == [c1 * c2] * 3 + [0, 0]
        assert all(type(c) is int for c in got)
    # The first case folds its second histogram, whose total needs int64.
    c1, c2, _ = cases[0]
    assert _fold(_point_histogram(5, c1), _point_histogram(-3, c2), cubes)[2].dtype == np.int64
    # A folded total of 2^31 needs int64; one below it fits int32.
    assert _cube_fold(_point_histogram(0, 2 ** 31), cubes)[1].dtype == np.int64
    assert _cube_fold(_point_histogram(0, 2 ** 31 - 1), cubes)[1].dtype == np.int32
    # The int64 dot of the last pair would wrap.
    c1, c2, _ = cases[-1]
    assert int(np.dot(np.array([c1]), np.array([c2]))) != c1 * c2


def test_count_representations_sparse_path():
    # Coefficients near the cap make the value windows far wider than
    # _DENSE_CAP, so count_representations takes the sparse int64 path.
    c = COEFF_CAP
    form = CubicForm((c, 1 - c, c - 2, c - 1, c, 3 - c, c - 5),
                     (c, c - 1, 1 - c, c - 3, -c, c), (1 - c, c, c - 2, c, c - 1, -c))
    rng = random.Random(11)
    for P in (1, 2):
        h1 = value_histogram(form.l1, form.q1, form.box, P)
        h2 = value_histogram(form.l2, form.q2, form.box, P)
        assert not (h1.is_big or h2.is_big)
        assert int(h1.vals[-1] - h1.vals[0]) + 1 > _DENSE_CAP
        assert int(h2.vals[-1] - h2.vals[0]) + 1 > _DENSE_CAP
        cubes = [form.a7 * t ** 3 for t in box_range(form.box, P)]
        assert _fold(h1, h2, cubes) is None
        table = representation_counts_brute(form, P)
        common = sorted(table, key=lambda n: (-table[n], n))[:20]
        Ns = common + rng.sample(sorted(table), 20) + [0, common[0] + 1]
        for N in Ns:
            assert count_representations(form, N, P) == table.get(N, 0)
        assert representation_counts(form, Ns, P) == [table.get(N, 0) for N in Ns]


def test_cube_term_alone_refuses_the_fold(f_star):
    # Both blocks stay narrow, but a7 = COEFF_CAP stretches the fold window
    # by 2 * a7 * P^3, past _DENSE_CAP first at P = 5.
    form = CubicForm(f_star.a[:6] + (COEFF_CAP,), f_star.q1, f_star.q2)

    def window(P):
        h = value_histogram(form.l2, form.q2, form.box, P)
        return int(h.vals[-1] - h.vals[0]) + 1 + 2 * COEFF_CAP * P ** 3

    assert window(4) <= _DENSE_CAP < window(5)
    P = 5
    h1 = value_histogram(form.l1, form.q1, form.box, P)
    h2 = value_histogram(form.l2, form.q2, form.box, P)
    assert int(h1.vals[-1] - h1.vals[0]) < 2000
    cubes = [form.a7 * t ** 3 for t in box_range(form.box, P)]
    assert _fold(h1, h2, cubes) is None
    rng = random.Random(13)
    Ns = [0, 1, -1, cubes[0] - 1, cubes[-1] + 1]
    for _ in range(12):
        Ns.append(rng.choice(h1.vals.tolist()) + rng.choice(h2.vals.tolist())
                  + rng.choice(cubes))
    want = [sum(_pair_count_sparse(h1, h2, N - c) for c in cubes) for N in Ns]
    assert min(want[5:]) > 0
    assert representation_counts(form, Ns, P) == want
    # At P <= 2 the fold fits and must match full enumeration.
    for P in (1, 2):
        table = representation_counts_brute(form, P)
        Ns = sorted(table)[::7] + [0, 1, -1, COEFF_CAP, COEFF_CAP * 8 + 1]
        assert representation_counts(form, Ns, P) == [table.get(N, 0) for N in Ns]


@settings(max_examples=40, deadline=None)
@given(
    a=st.tuples(*[st.integers(-6, 6)] * 7).filter(
        lambda a: any(a[:3]) and any(a[3:6]) and a[6]),
    q1=st.tuples(*[st.integers(-6, 6)] * 6),
    q2=st.tuples(*[st.integers(-6, 6)] * 6),
    box=st.sampled_from(BOX_KINDS),
    P=st.integers(1, 2),
    picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=10),
    extra=st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=3),
)
def test_representation_counts_vs_brute(a, q1, q2, box, P, picks, extra):
    form = CubicForm(a, q1, q2, box)
    table = representation_counts_brute(form, P)
    keys = sorted(table)
    Ns = [keys[i % len(keys)] for i in picks]
    # Repeats, negatives, values just outside the range and far outside it.
    Ns += Ns[:2] + [-n for n in Ns[:3]] + [keys[0] - 1, keys[-1] + 1] + extra
    assert representation_counts(form, Ns, P) == [table.get(N, 0) for N in Ns]


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
    # x1, x4, x7 vanish on the space, and the pos box excludes 0.
    assert lattice_space_count(sp, "pos", 2) == 0


def test_union_counts_vs_membership(f_star, f_fac1, f_fac2):
    for form in (f_star, f_fac1, f_fac2):
        spaces = linear_spaces(form)
        got = union_space_count(spaces, "sym", 2)
        brute = union_membership_brute(form, [sp.covectors for sp in spaces], 2)
        assert got == brute
    assert union_space_count(linear_spaces(f_star), "sym", 2) == 625
    assert union_space_count(linear_spaces(f_fac1), "sym", 2) == 1525
    assert union_space_count(linear_spaces(f_fac2), "sym", 2) == 1525
    # Large-P counts of f_fac1, recorded by the unfactorised descent; the
    # three coordinate 4-spaces meet pairwise in 3-spaces and all in a plane.
    spaces = linear_spaces(f_fac1)
    for P, pinned in ((64, 824345217), (96, 4140934081), (128, 13036553473)):
        m = 2 * P + 1
        assert pinned == 3 * m ** 4 - 3 * m ** 3 + m ** 2
        assert union_space_count(spaces, "sym", P) == pinned


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
