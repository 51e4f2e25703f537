import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubic7 import counting, lattice
from cubic7.counting import (
    _DENSE_CAP,
    _GRID_CAP,
    _INT32_LIMIT,
    _INT64_LIMIT,
    _INT64_SAFE,
    BlockHistogram,
    _cube_fold,
    _histogram_scan,
    _merge_unique,
    _pair_count_sparse,
    _sign_group,
    _sign_pieces,
    chi,
    count_representations,
    count_zeros,
    delta_constants,
    representation_counts,
    union_space_count,
    value_histogram,
)
from cubic7.errors import DomainError, ResourceLimitError
from cubic7.forms import (
    BOX_KINDS,
    COEFF_CAP,
    CubicForm,
    block_value,
    box_interval,
    box_range,
    linear_spaces,
)
from cubic7.lattice import count_lattice_points_in_box
from cubic7.oracles import (
    _block,
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
            assert h.count_of(0) == brute.get(0, 0)
    # Blocks whose block_value is a scalar, a column (x, y only), a row
    # (x, z only) or zero on each x-plane: _scan_slabs broadcasts it.
    planes = [((2, 0, 0), (3, 0, 0, 0, 0, 0)), ((1, 0, 0), (0, 1, 0, 0, 0, 0)),
              ((0, 0, 1), (0, 0, 0, 0, 1, 0)), ((0, 1, 0), (0,) * 6)]
    for box in ("sym", "pos", "nonneg"):
        for P in (1, 2, 5):
            for l, q in planes:
                h = value_histogram(l, q, box, P)
                assert dict(h.items()) == block_values_brute(l, q, box, P)


def test_histogram_views(f_star):
    h = value_histogram(f_star.l1, f_star.q1, "sym", 3)
    assert h.total() == 7 ** 3
    assert h.count_of(0) == 67
    assert h.count_of(10 ** 9) == 0
    items = list(h.items())
    assert [n for n, _ in items] == sorted({n for n, _ in items})
    assert dict(items)[0] == 67
    assert sum(c for n, c in items if n != 0) + h.count_of(0) == h.total()


def test_histogram_sym_parity(f_star):
    # The sym histogram stores only the values u >= 0; count_of must read
    # every signed value of a plain enumeration from that half, and give 0
    # at the values next to them that the enumeration lacks.
    dense = ((-1, 2, 7), (-9, 5, -2, -8, -4, -6))
    for l, q in ((f_star.l1, f_star.q1), dense):
        for P in (1, 2, 5):
            h = value_histogram(l, q, "sym", P)
            brute = block_values_brute(l, q, "sym", P)
            assert min(brute) < 0
            for n, c in brute.items():
                assert h.count_of(n) == c
            absent = {n + d for n in brute for d in (-1, 1)} - brute.keys()
            assert absent
            for n in absent:
                assert h.count_of(n) == 0


def test_histogram_guards(f_star):
    with pytest.raises(DomainError):
        value_histogram(f_star.l1, f_star.q1, "sym", 0)
    with pytest.raises(ResourceLimitError, match=r"1083206683 cells .* P <= 203"):
        value_histogram(f_star.l1, f_star.q1, "sym", 513)


_C = COEFF_CAP


@pytest.mark.parametrize("l, q, box, P, pmax", [
    # The first radius whose grid (126^3 or 127^3 cells) passes the
    # 2,000,000-cell cap of the big-integer path, for a block at COEFF_CAP.
    ((_C, _C, _C), (_C,) * 6, "pos", 126, 125),
    ((_C, _C, _C), (_C,) * 6, "sym", 63, 62),
    # Here the value bound 2^40 P^3 stays below 2^62 up to P = 161.
    ((_C, 0, 0), (_C, 0, 0, 0, 0, 0), "sym", 170, 161),
], ids=["pos-126", "sym-63", "sym-170"])
def test_histogram_big_integer_grid_cap(l, q, box, P, pmax):
    m = len(box_range(box, P))
    with pytest.raises(ResourceLimitError, match=(
            rf"too large for the int64 path .* {m}\^3 = {m ** 3} cells exceeds "
            rf"the cap 2000000; the {box} box allows P <= {pmax} ")):
        value_histogram(l, q, box, P)
    assert len(_histogram_scan(l, q, box, pmax)) == len(box_range(box, pmax))
    with pytest.raises(ResourceLimitError, match=f"allows P <= {pmax} "):
        _histogram_scan(l, q, box, pmax + 1)


def test_histogram_int64_block_skips_big_integer_cap():
    h = value_histogram((1, 0, 0), (0, 1, 0, 0, 0, 0), "pos", 126)
    assert h.total() == 126 ** 3


def test_histogram_big_integer_path():
    # Coefficients at the cap pass 2^63 in the a priori bound at this
    # radius, so the slabs are Python ints, and the values pass 2^62.
    c = COEFF_CAP
    l = (c, c, c)
    q = (c, c, c, c, c, c)
    assert _histogram_scan(l, q, "pos", 100).dtype == object
    h = value_histogram(l, q, "pos", 100)
    assert h.is_big
    assert h.total() == 100 ** 3
    # On the positive box the block value is strictly increasing in every
    # coordinate, so the corners give the unique extremes.
    assert h.count_of(3 * c * 6 * c) == 1
    assert h.count_of(300 * c * 60000 * c) == 1
    assert min(v for v, _ in h.items()) == 18 * c * c


def _pair_sum(da, db, cubes, N):
    """R(N) from two brute-force block histograms and the cube values."""
    small, other = (da, db) if len(da) <= len(db) else (db, da)
    return sum(n * other.get(N - t - v, 0) for t in cubes for v, n in small.items())


def test_big_int_counts_vs_brute():
    # A block at the cap first has a value at or above 2^62 on the pos box
    # at P = 62: its top value, at the far corner, is the a priori bound.
    # With block 2 = x4 x5^2 the pair is mixed (object and int64 values),
    # and N = +-10^30 does not fit int64 at all.
    c, P = COEFF_CAP, 62
    l1, q1 = (c, c, c), (c, c, c, c, c, c)
    l2, q2 = (1, 0, 0), (0, 1, 0, 0, 0, 0)
    assert not value_histogram(l1, q1, "pos", P - 1).is_big
    assert value_histogram(l1, q1, "pos", P).is_big
    assert not value_histogram(l2, q2, "pos", P).is_big
    d1 = block_values_brute(l1, q1, "pos", P)
    d2 = block_values_brute(l2, q2, "pos", P)
    assert max(d1) == 18 * c * c * P ** 3 >= _INT64_SAFE
    cubes = [3 * t ** 3 for t in box_range("pos", P)]
    rng = random.Random(17)
    mixed = CubicForm(l1 + l2 + (3,), q1, q2, "pos")
    swapped = CubicForm(l2 + l1 + (3,), q2, q1, "pos")
    Ns = [mixed.value([rng.randint(1, P) for _ in range(7)]) for _ in range(4)]
    Ns += [0, 10 ** 30, -10 ** 30]
    want = [_pair_sum(d1, d2, cubes, N) for N in Ns]
    assert min(want[:4]) > 0 and want[4:] == [0, 0, 0]
    assert representation_counts(mixed, Ns, P) == want
    assert representation_counts(swapped, Ns, P) == want
    # Both blocks big.
    both = CubicForm(l1 + l1 + (3,), q1, q1, "pos")
    N = both.value([rng.randint(1, P) for _ in range(7)])
    want = _pair_sum(d1, d1, cubes, N)
    assert want > 0
    assert representation_counts(both, [N, 10 ** 30], P) == [want, 0]


def test_big_bound_int64_values_take_the_fold(monkeypatch):
    # sum|l| sum|q| R^3 passes 2^62 at the cap on the pos box at P = 62, but
    # with mixed signs every value lies in (-2^62, 2^62): the block is
    # stored as int64, and its counts take the int64 fold, several targets
    # and one target alike: the block's bound keeps one target from
    # scanning it, so it is read from its histogram.
    c, P = COEFF_CAP, 62
    l1, q1 = (c, -c, c), (c, -c, c, -c, c, -c)
    l2, q2 = (1, 0, 0), (1, 0, 0, 0, 0, 0)
    assert 18 * c * c * P ** 3 >= _INT64_SAFE
    d1 = block_values_brute(l1, q1, "pos", P)
    d2 = block_values_brute(l2, q2, "pos", P)
    assert max(map(abs, d1)) < _INT64_SAFE
    h1 = value_histogram(l1, q1, "pos", P)
    assert h1.vals.dtype == np.int64 and dict(h1.items()) == d1
    cubes = [3 * t ** 3 for t in box_range("pos", P)]

    def refuse(*args):
        raise AssertionError("sparse path taken")

    monkeypatch.setattr(counting, "_pair_count_sparse", refuse)
    folds = _spy(monkeypatch, "_cube_fold")
    rng = random.Random(20)
    form = CubicForm(l1 + l2 + (3,), q1, q2, "pos")
    Ns = [form.value([rng.randint(1, P) for _ in range(7)]) for _ in range(4)]
    Ns += [0, 10 ** 30, -10 ** 30]
    want = [_pair_sum(d1, d2, cubes, N) for N in Ns]
    assert min(want[:4]) > 0
    assert representation_counts(form, Ns, P) == want
    assert [count_representations(form, N, P) for N in Ns] == want
    assert len(folds) == 1 + len(Ns) and all(fold is not None for _, fold in folds)


def test_mixed_pair_counts_vs_brute(monkeypatch):
    # Lowering the int64 limits makes block 1 an object-dtype scan and
    # histogram at a radius the full 7-grid brute force reaches, beside an
    # int64 block 2.
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
    monkeypatch.setattr(counting, "_INT64_LIMIT", 100)
    monkeypatch.setattr(counting, "_pair_count_sparse", spy)
    value_histogram.cache_clear()
    try:
        assert _histogram_scan(form.l1, form.q1, "sym", P).dtype == object
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


def _scale_to(c, unit, limit, above):
    """c scaled so that sum|c| * unit is the largest value below limit, or
    the first value not below it when above."""
    target = -(-limit // unit) if above else (limit - 1) // unit
    k, rest = divmod(target, sum(map(abs, c)))
    c = [k * v for v in c]
    i = max(range(len(c)), key=lambda j: abs(c[j]))
    c[i] += rest if c[i] > 0 else -rest
    return tuple(c)


def _check_dtype_boundary(l, q, zero, box, P, limit, above):
    # With B = max(sum|l| R, sum|q| R^2, sum|l| sum|q| R^3), the slabs are
    # int32 below 2^31, int64 below 2^63 and Python ints otherwise, and B at
    # or above 2^62 meets the big-integer grid cap.  For L, Q != 0 the
    # product term is the largest and q is scaled; for L = 0 the Q term
    # bounds, for Q = 0 the L term, and the nonzero factor is scaled to just
    # below the limit or the first value not below it.  The stored values
    # are objects exactly when one of them leaves (-2^62, 2^62), and the
    # histogram is the exact one either way.
    R = max(map(abs, box_interval(box, P)))
    if zero == "L":
        unit = R * R
        l, q = (0, 0, 0), _scale_to(q, unit, limit, above)
    elif zero == "Q":
        unit = R
        l, q = _scale_to(l, unit, limit, above), (0,) * 6
    else:
        unit = sum(map(abs, l)) * R ** 3
        q = _scale_to(q, unit, limit, above)
    sl, sq = sum(map(abs, l)), sum(map(abs, q))
    bound = max(sl * R, sq * R * R, sl * sq * R ** 3)
    assert (bound >= limit) == above and abs(bound - limit) <= unit
    r = _histogram_scan(l, q, box, P)
    if bound >= _INT64_LIMIT:
        assert r.dtype == object
    else:
        assert r.dtype == (np.int64 if bound >= _INT32_LIMIT else np.int32)
    with mock.patch.object(counting, "_GRID_CAP_BIG", len(r) ** 3 - 1):
        if bound >= _INT64_SAFE:
            with pytest.raises(ResourceLimitError, match="coefficients too large"):
                _histogram_scan(l, q, box, P)
        else:
            assert np.array_equal(_histogram_scan(l, q, box, P), r)
    brute = block_values_brute(l, q, box, P)
    h = value_histogram.__wrapped__(l, q, box, P)
    big = not all(-_INT64_SAFE < v < _INT64_SAFE for v in brute)
    assert h.vals.dtype == (object if big else np.int64)
    assert dict(h.items()) == brute


_BOUNDARY_BLOCKS = dict(
    l=st.tuples(*[st.integers(-9, 9)] * 3).filter(any),
    q=st.tuples(*[st.integers(-9, 9)] * 6).filter(any),
    zero=st.sampled_from(("neither", "L", "Q")),
    box=st.sampled_from(BOX_KINDS),
    P=st.integers(1, 2),
    above=st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(**_BOUNDARY_BLOCKS)
def test_histogram_int32_boundary(l, q, zero, box, P, above):
    _check_dtype_boundary(l, q, zero, box, P, _INT32_LIMIT, above)


@settings(max_examples=80, deadline=None)
@given(limit=st.sampled_from((_INT64_SAFE, _INT64_LIMIT)), **_BOUNDARY_BLOCKS)
# The top value of an all-positive block on the pos box is the bound itself,
# so at or above 2^62 it is stored as objects; with mixed signs the values
# stay far inside and are stored as int64.
@example((1, 1, 1), (1,) * 6, "neither", "pos", 2, _INT64_SAFE, True)
@example((1, -1, 1), (1, -1, 1, -1, 1, -1), "neither", "sym", 2, _INT64_SAFE, True)
def test_histogram_int64_boundary(l, q, zero, box, P, limit, above):
    _check_dtype_boundary(l, q, zero, box, P, limit, above)


@pytest.mark.parametrize("l, q, slab", [
    ((0, 0, 0), (COEFF_CAP,) * 6, np.int64),
    ((COEFF_CAP,) * 3, (0,) * 6, np.int32),
    ((0, 0, 0), (-COEFF_CAP, 0, 0, 0, 0, 0), np.int64),
])
def test_histogram_degenerate_block_at_grid_cap(l, q, slab):
    # L*Q vanishes, so the product bound is 0, but a factor alone passes
    # 2^31 when L = 0: a product-only check would pick int32 and overflow.
    P = 203  # the largest sym radius the grid cap allows
    assert _histogram_scan(l, q, "sym", P).dtype == slab
    h = value_histogram.__wrapped__(l, q, "sym", P)
    assert h.vals.dtype == np.int64
    assert dict(h.items()) == {0: (2 * P + 1) ** 3}


def _sorted_arrays(hist):
    vals = sorted(hist)
    return np.array(vals, dtype=object), np.array([hist[v] for v in vals])


def _full_scan(l, q, P):
    """The sym histogram by np.unique over groups of x-planes of the whole grid."""
    r = np.arange(-P, P + 1, dtype=np.int64)
    n = len(r)
    parts = []
    v = np.empty((64, n, n), dtype=np.int64)
    for s in range(0, n, 64):
        xs = r[s : s + 64].tolist()
        for plane, x in zip(v, xs):
            plane[...] = block_value(l, q, x, r[:, None], r)
        parts.append(np.unique(v[: len(xs)], return_counts=True))
    vals, inv = np.unique(np.concatenate([u for u, _ in parts]), return_inverse=True)
    cnts = np.zeros(len(vals), dtype=np.int64)
    np.add.at(cnts, inv, np.concatenate([c for _, c in parts]))
    return vals, cnts


def _assert_hist(h, vals, cnts):
    assert np.array_equal(h.vals, vals) and np.array_equal(h.cnts, cnts)


def test_sym_histogram_half_scan(monkeypatch, f_fac1):
    # The sym histogram scans a fundamental domain of its sign group (a
    # half, a quarter or an octant of the box, and the zero pieces) and keeps
    # the half; its signed arrays must equal the full scan value for value
    # and count for count.
    rng = random.Random(14)
    blocks = [((0, 1, 0), (1, -2, 0, 3, 0, 1)), ((0, 0, 1), (2, 0, -1, 0, 1, 0))]
    for a1 in (0, 0, 1, -2, 3):
        l = (a1, rng.randint(-3, 3), rng.randint(1, 3))
        blocks.append((l, tuple(rng.randint(-3, 3) for _ in range(6))))
    for P in range(1, 7):
        for l, q in blocks:
            h = value_histogram.__wrapped__(l, q, "sym", P)
            assert not h.is_big
            _assert_hist(h, *_sorted_arrays(block_values_brute(l, q, "sym", P)))
    # Several slabs of _scan_slabs, of equal plane count, at P = 128.
    dense = (tuple(rng.choice((-1, 1)) for _ in range(3)),
             tuple(rng.choice((-1, 1)) for _ in range(6)))
    for P in (64, 128):
        for l, q in (*f_fac1.blocks(), dense):
            _assert_hist(value_histogram.__wrapped__(l, q, "sym", P), *_full_scan(l, q, P))
    # The object scan reads the same pieces.
    monkeypatch.setattr(counting, "_INT64_SAFE", 100)
    monkeypatch.setattr(counting, "_INT64_LIMIT", 100)
    for l, q in blocks[-3:]:
        assert _histogram_scan(l, q, "sym", 4).dtype == object
        h = value_histogram.__wrapped__(l, q, "sym", 4)
        assert h.is_big
        _assert_hist(h, *_sorted_arrays(block_values_brute(l, q, "sym", 4)))


@pytest.mark.parametrize("l, q", [
    ((1, 0, 0), (1, -2, 0, 3, 0, 1)),  # L = x1: the plane x1 = 0 holds only zeros
    ((1, 0, 0), (1, 1, 1, 0, 0, 0)),  # |v| >= 1 on x1 > 0, 0 on the plane: disjoint
    ((0, 0, 0), (1, -2, 0, 3, 0, 1)),  # L = 0
    ((2, -1, 3), (0,) * 6),  # Q = 0
    ((0, 1, -1), (1, 0, 2, -1, 0, 3)),  # L free of x1
])
def test_sym_histogram_abs_edge_cases(monkeypatch, l, q):
    # The sym histogram counts |L*Q| on the bulk piece (x1 > 0 and any other
    # pivots positive) and on the zero pieces, the first of which is the
    # plane x1 = 0, and keeps the half; zero-only planes, L = 0, Q = 0 and
    # disjoint |v| sets on the bulk and the plane must give the full scan.
    for P in (1, 2, 5):
        brute = _sorted_arrays(block_values_brute(l, q, "sym", P))
        h = value_histogram.__wrapped__(l, q, "sym", P)
        assert h.vals.dtype == np.int64 and h.cnts.dtype == np.int64
        _assert_hist(h, *brute)
        _assert_hist(h, *_full_scan(l, q, P))
    # The same through object slabs; with _INT64_SAFE = 1 only 0 fits int64,
    # so the values are stored as objects unless every one is 0.
    monkeypatch.setattr(counting, "_INT64_SAFE", 1)
    monkeypatch.setattr(counting, "_INT64_LIMIT", 1)
    for P in (1, 3):
        assert _histogram_scan(l, q, "sym", P).dtype == object
        brute = block_values_brute(l, q, "sym", P)
        h = value_histogram.__wrapped__(l, q, "sym", P)
        assert h.is_big == any(brute)
        _assert_hist(h, *_sorted_arrays(brute))


def _permuted(l, q, perm):
    """The block B' with B'(x') = B(x) where x[perm[k]] = x'[k]: Q's cross
    term at index 3 + k is the one free of coordinate k."""
    return (tuple(l[p] for p in perm),
            tuple(q[p] for p in perm) + tuple(q[3 + p] for p in perm))


def _sign_blocks():
    """(l, q, |G| on the sym box): x*x*y and x*y*z (one monomial: order 8),
    x(xy + z^2) and x(x^2 + yz) (order 4), L = 0 and Q = 0 (order 8), each
    with its coordinates in every order, and dense random blocks (order 2)."""
    base = [((1, 0, 0), (0, 0, 0, 0, 0, 1), 8), ((1, 0, 0), (0, 0, 0, 1, 0, 0), 8),
            ((1, 0, 0), (0, 0, 1, 0, 0, 1), 4), ((-2, 0, 0), (3, 0, 0, -1, 0, 0), 4),
            ((0, 0, 0), (1, -2, 0, 3, 0, 1), 8), ((2, -1, 3), (0,) * 6, 8)]
    blocks = {(*_permuted(l, q, perm), order)
              for l, q, order in base for perm in itertools.permutations(range(3))}
    rng = random.Random(37)
    for _ in range(3):
        blocks.add((tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)),
                    tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(6)), 2))
    return sorted(blocks)


def _sign_group_brute(l, q):
    """The s in {+-1}^3 with B(s.x) = B(x) or B(s.x) = -B(x) at 40 random
    integer points, in the order of itertools.product((1, -1), repeat=3)."""
    rng = random.Random(7)
    pts = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(40)]
    return [s for s in itertools.product((1, -1), repeat=3)
            if any(all(_block(l, q, *(a * b for a, b in zip(s, x))) == e * _block(l, q, *x)
                       for x in pts) for e in (1, -1))]


def test_sign_group_vs_brute():
    # G is decided from L*Q's cubic coefficients; the brute sign test reads
    # it off values.  The pivots (the coordinates the bulk keeps positive)
    # land on x1 alone, x1 and x2, x1 and x3, and all three.
    pivots = set()
    for l, q, order in _sign_blocks():
        r = _histogram_scan(l, q, "sym", 3)
        group = _sign_group(l, q, r)
        assert group == _sign_group_brute(l, q) and len(group) == order, (l, q)
        bulk, *zeros = _sign_pieces(r, group)
        assert bulk[1] == order and len(zeros) == order.bit_length() - 1
        pivots.add(tuple(i for i, axis in enumerate(bulk[0]) if axis[0] > 0))
        for box in ("pos", "nonneg"):
            assert _sign_group(l, q, _histogram_scan(l, q, box, 3)) == [(1, 1, 1)]
    assert pivots == {(0,), (0, 1), (0, 2), (0, 1, 2)}


def test_sign_group_scan_vs_brute(monkeypatch):
    # Every block of order 2, 4 and 8, its coordinates in every order, on
    # every box and P = 1..6, equals the enumeration; the same on the object
    # path for P = 1..3.
    blocks = _sign_blocks()
    for l, q, _ in blocks:
        for box in ("sym", "pos", "nonneg"):
            for P in range(1, 7):
                h = value_histogram.__wrapped__(l, q, box, P)
                assert h._even == (box == "sym") and not h.is_big
                _assert_hist(h, *_sorted_arrays(block_values_brute(l, q, box, P)))
    monkeypatch.setattr(counting, "_INT64_SAFE", 1)
    monkeypatch.setattr(counting, "_INT64_LIMIT", 1)
    for l, q, _ in blocks:
        for box in ("sym", "pos", "nonneg"):
            for P in range(1, 4):
                assert _histogram_scan(l, q, box, P).dtype == object
                brute = block_values_brute(l, q, box, P)
                h = value_histogram.__wrapped__(l, q, box, P)
                assert h.is_big == any(brute)
                _assert_hist(h, *_sorted_arrays(brute))


def test_sign_group_scan_mutants(monkeypatch):
    # A bulk weight of |G|/2, or any one zero piece dropped, must move the
    # histogram off the enumeration for every block on the sym box.
    pieces = counting._sign_pieces

    def half_bulk(r, group):
        (axes, weight), *zeros = pieces(r, group)
        return [(axes, weight // 2), *zeros]

    def drop(j):
        return lambda r, group: [p for i, p in enumerate(pieces(r, group)) if i != j]

    for l, q, order in _sign_blocks():
        want = _sorted_arrays(block_values_brute(l, q, "sym", 3))
        for mutant in (half_bulk, *map(drop, range(1, order.bit_length()))):
            monkeypatch.setattr(counting, "_sign_pieces", mutant)
            with pytest.raises(AssertionError):
                _assert_hist(value_histogram.__wrapped__(l, q, "sym", 3), *want)


def test_sign_group_scan_reads_a_fundamental_domain(monkeypatch, f_star):
    # At P = 128 x*y*z reads an octant and f_star's block x1(x1 x2 + x3^2) a
    # quarter of the 257^3 box, besides the zero pieces (at most 257^2 cells
    # each): the half scan would read 128 * 257^2 + 257^2 cells.
    cells = []

    def counted(l, q, *args):
        cells.append(np.broadcast(*args).size)
        return block_value(l, q, *args)

    monkeypatch.setattr(counting, "block_value", counted)
    for (l, q), bound in ((((1, 0, 0), (0, 0, 0, 1, 0, 0)), 128 ** 3 + 3 * 257 ** 2),
                          ((f_star.l1, f_star.q1), 128 * 257 * 128 + 2 * 257 ** 2)):
        cells.clear()
        value_histogram.__wrapped__(l, q, "sym", 128)
        assert sum(cells) <= bound, (l, q)


def _merge_part(draw, values, dtype):
    vals = sorted(draw(st.sets(values)))
    cnts = draw(st.lists(st.integers(1, 10 ** 6), min_size=len(vals), max_size=len(vals)))
    return np.array(vals, dtype=dtype), np.array(cnts, dtype=np.int64)


@st.composite
def _merge_parts(draw):
    dtype = draw(st.sampled_from((np.int32, np.int64, object)))
    bound = {np.int32: 2 ** 31 - 1, np.int64: 2 ** 63 - 1, object: 10 ** 30}[dtype]
    # A narrow pool makes overlaps likely, a wide one disjoint parts.
    lo = draw(st.integers(-bound, bound - 40))
    values = draw(st.sampled_from((st.integers(lo, lo + 40), st.integers(-bound, bound))))
    a = _merge_part(draw, values, dtype)
    mode = draw(st.sampled_from(("drawn", "same", "empty")))
    if mode == "same":
        b = a[0].copy(), a[1][::-1].copy()
    elif mode == "empty":
        b = a[0][:0], a[1][:0]
    else:
        b = _merge_part(draw, values, dtype)
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300, deadline=None)
@given(_merge_parts())
@example(((np.array([1, 3], dtype=np.int32), np.array([1, 1])),
          (np.array([0, 2, 4], dtype=np.int32), np.array([2, 2, 2]))))
@example(((np.array([], dtype=object), np.array([], dtype=np.int64)),
          (np.array([2 ** 70], dtype=object), np.array([5]))))
def test_merge_unique_vs_unique(parts):
    # Disjoint, interleaved, fully overlapping and empty parts of every slab
    # dtype merge to the sorted distinct values with summed counts, in the
    # inputs' dtype, and leave the inputs as they were.
    a, b = parts
    kept = [x.copy() for x in (*a, *b)]
    vals, cnts = _merge_unique(a, b)
    want, inv = np.unique(np.concatenate((a[0], b[0])), return_inverse=True)
    sums = np.zeros(len(want), dtype=np.int64)
    np.add.at(sums, inv, np.concatenate((a[1], b[1])))
    assert vals.dtype == a[0].dtype and cnts.dtype == np.int64
    assert vals.tolist() == want.tolist() and np.array_equal(cnts, sums)
    assert all(np.array_equal(x, y) for x, y in zip(kept, (*a, *b)))


def test_histogram_build_memory():
    # A cold sym histogram sorts half-grid slab buffers in place, merges
    # their runs by search and keeps its half: about 9.9 MB under
    # tracemalloc (10.8 MB with the argsort merge and the signed arrays);
    # the full scan through np.unique peaked at about 58 MB here.
    import tracemalloc

    tracemalloc.start()
    try:
        value_histogram.__wrapped__((1, 0, 0), (0, 0, 1, 0, 0, 1), "sym", 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_count_memory(f_fac1):
    # Cold histograms of f_fac1 at P = 128 and their fold: the |L*Q| scan
    # with slab merges linear in their output, both histograms kept by
    # their half and the even fold stored for w >= 0 from a half-width
    # dense copy peak at about 53.4 MB under tracemalloc.  The argsort
    # merges and the signed arrays peaked at about 68 MB, in block 1's slab
    # merges, and the signed half scan with its mirror merge and the fold
    # mirrored in full at about 94 MB.
    import tracemalloc

    value_histogram.cache_clear()
    tracemalloc.start()
    try:
        count_representations(f_fac1, 0, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        value_histogram.cache_clear()
    assert peak < 62e6


def test_fold_vs_sparse(monkeypatch, f_star, f_fac1, f_iii):
    # Targets at both edges of the value-sum window and just outside it,
    # Ns at both edges of the fold's own range and just outside it, where a
    # read at the other block's extreme lands on a zero end of g, and
    # +-10^30; the non-sym boxes make the histograms asymmetric, so a slip
    # in an offset cannot cancel out.  The fold is the route's, of the
    # block of the smaller value bound, read from the other block's
    # histogram (several targets) and from its scan (one target, f_fac1's
    # distinct blocks).
    folds = _spy(monkeypatch, "_cube_fold")
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
                b1, b2 = (counting._value_bound(l, q, box, P) for l, q in form.blocks())
                narrow, other = (h2, h1) if b2 <= b1 else (h1, h2)
                n_lo = int(other.vals[0]) + int(narrow.vals[0]) + cubes[0]
                n_hi = int(other.vals[-1]) + int(narrow.vals[-1]) + cubes[-1]
                Ns = [e_lo + cubes[0], e_lo + cubes[-1], e_hi + cubes[0],
                      e_hi + cubes[-1], rng.randint(e_lo, e_hi),
                      n_lo - 1, n_lo, n_hi, n_hi + 1, 10 ** 30, -10 ** 30]
                folds.clear()
                counts = representation_counts(form_b, Ns, P)
                (((folded, fold_cubes), fold),) = folds
                assert folded is narrow and fold_cubes == cubes
                gmin, g = fold
                # Only the sym box gives an even fold, stored for w >= 0
                # with a zero end past its top; the checks below read it
                # over its whole window and both zero ends.
                assert (gmin is None) == (box == "sym")
                assert g[-1] == 0 and (gmin is None or g[0] == 0)
                if gmin is None:
                    gmin, g = 1 - len(g), np.concatenate((g[:0:-1], g))
                assert g.dtype == np.int32
                gmax = gmin + len(g) - 1
                assert (n_lo, n_hi) == (int(other.vals[0]) + gmin + 1,
                                        int(other.vals[-1]) + gmax - 1)
                assert g[0] == g[-1] == 0 and g[1] > 0 and g[-2] > 0
                for w in [gmin, gmin + 1, gmax - 1, gmax] + [
                        rng.randint(gmin, gmax) for _ in range(5)]:
                    assert g[w - gmin] == sum(narrow.count_of(w - c) for c in cubes)
                seen = set()
                for N, count in zip(Ns, counts):
                    targets = [N - c for c in cubes]
                    sparse = [_pair_count_sparse(h1, h2, t) for t in targets]
                    assert count == sum(sparse)
                    assert count_representations(form_b, N, P) == sum(sparse)
                    for t, c in zip(targets, sparse):
                        if t < e_lo or t > e_hi:
                            assert c == 0
                            seen.add("out")
                        elif t in (e_lo, e_hi):
                            assert c > 0
                            seen.add(t)
                assert seen == {"out", e_lo, e_hi}
                assert counts[5] == counts[8] == 0 and counts[6] > 0 and counts[7] > 0
                assert counts[9:] == [0, 0]


def _counts_with(monkeypatch, form, Ns, P, other, fold):
    """representation_counts(form, Ns, P) reading the histogram `other`
    against the fold (gmin, g), whichever blocks they stand for."""
    with monkeypatch.context() as m:
        m.setattr(counting, "value_histogram", lambda *args: other)
        m.setattr(counting, "_cube_fold", lambda h, cubes: fold)
        return representation_counts(form, Ns, P)


@pytest.fixture(scope="module")
def sym_histograms(f_star, f_fac1, f_iii):
    """{(form, P): (h1, h2)}: the sym box block histograms of f_star,
    f_fac1 and f_iii at P = 1, 2, 5 and 64, built once for every a7."""
    return {(form, P): tuple(value_histogram(l, q, "sym", P) for l, q in form.blocks())
            for form in (f_star, f_fac1, f_iii) for P in (1, 2, 5, 64)}


@pytest.mark.parametrize("a7", [1, -1, 2, -7])
def test_sym_cube_fold_is_the_full_fold(monkeypatch, a7, sym_histograms, f_star, f_fac1, f_iii):
    # On the sym box the fold is even: the half window holds the full
    # fold's entries for w >= 0, entry for entry, and its zero end past the
    # top is the full fold's, and a count that reads g[|w|] is the count
    # over the full window, on both sides of N = 0 and just outside the
    # window, in the three layouts that read no pair +-u against a full g:
    # the even g against the other histogram stored by its half or in
    # full, and the full g against the full other.
    rng = random.Random(a7)
    for (form, P), (h1, h2) in sym_histograms.items():
        form_a = CubicForm(form.a[:6] + (a7,), form.q1, form.q2)
        cubes = [a7 * t ** 3 for t in box_range("sym", P)]
        folds = {}  # identical blocks (f_star, f_iii) are folded once
        for h, other in ((h1, h2), (h2, h1)):
            if h not in folds:
                # The same histogram stored full is even only by its
                # values, so it folds to the full window: the reference.
                full = BlockHistogram(h.vals, h.cnts)
                assert h._even and not full._even
                gmin, g = _cube_fold(full, cubes)
                assert gmin == -(len(g) // 2) and np.array_equal(g, g[::-1])
                half_gmin, half = _cube_fold(h, cubes)
                assert half_gmin is None and half.dtype == g.dtype
                assert np.array_equal(half, g[-gmin:]) and g[0] == half[-1] == 0
                # Without the cube t = -P the half dense copy still fills
                # the full window.
                cut_gmin, cut = _cube_fold(h, cubes[1:])
                full_gmin, ref = _cube_fold(full, cubes[1:])
                assert cut_gmin == full_gmin and np.array_equal(cut, ref)
                folds[h] = gmin, g, half
            gmin, g, half = folds[h]
            n_lo, n_hi = int(other.vals[0]) + gmin + 1, int(other.vals[-1]) - gmin - 1
            Ns = [n_lo - 1, n_lo, rng.randint(n_lo, -1), 0,
                  rng.randint(1, n_hi), n_hi, n_hi + 1]
            other_full = BlockHistogram(other.vals, other.cnts)
            counts = _counts_with(monkeypatch, form_a, Ns, P, other, (None, half))
            for read, fold in ((other_full, (None, half)), (other_full, (gmin, g))):
                assert _counts_with(monkeypatch, form_a, Ns, P, read, fold) == counts
            assert counts[0] == counts[-1] == 0 and counts[1] > 0 and counts[-2] > 0
    # The pos and nonneg boxes keep the full fold, and their counts are
    # still the enumerated ones.
    for form in (f_star, f_fac1, f_iii):
        for box in ("pos", "nonneg"):
            form_b = CubicForm(form.a[:6] + (a7,), form.q1, form.q2, box)
            table = representation_counts_brute(form_b, 2)
            Ns = sorted(table) + [min(table) - 1, max(table) + 1]
            assert representation_counts(form_b, Ns, 2) == [table.get(N, 0) for N in Ns]


def test_cube_fold_half_window_needs_symmetry():
    # The half window needs a histogram stored by its half and symmetric
    # cubes; a full histogram keeps the full window, symmetric or not.
    # Either way every entry over the whole window is the direct sum, and
    # the zero ends just past it, one past the top of a half window and
    # one past each end of a full one, hold 0.
    cases = [([-1, 1], [1, 1], [-1, 0, 1], False, False),
             ([-1, 2], [1, 1], [-1, 0, 1], False, False),
             ([-1, 1], [1, 2], [-1, 0, 1], False, False),
             ([-1, 1], [1, 1], [-1, 0, 2], False, False),
             ([0, 1], [0, 1], [-1, 0, 1], True, True),
             ([0, 2, 3], [3, 1, 2], [-8, -1, 0, 1, 8], True, True),
             ([0, 1], [0, 1], [-1, 0, 2], True, False),
             ([0, 2, 3], [3, 1, 2], [-8, -1, 1, 8, 27], True, False)]
    for vals, cnts, cubes, stored_half, even in cases:
        h = BlockHistogram(np.array(vals, dtype=np.int64), np.array(cnts, dtype=np.int64),
                           even=stored_half)
        gmin, g = _cube_fold(h, cubes)
        assert (gmin is None) == even
        assert g[-1] == 0 and (even or g[0] == 0)
        if even:
            gmin, g = 1 - len(g), np.concatenate((g[:0:-1], g))
        vmin, vmax = h._range()
        assert gmin == vmin + min(cubes) - 1 and len(g) == vmax + max(cubes) - gmin + 2
        assert g.tolist() == [sum(h.count_of(w - c) for c in cubes)
                              for w in range(gmin, gmin + len(g))]


def _point_histogram(v: int, c: int) -> BlockHistogram:
    return BlockHistogram(vals=np.array([v], dtype=np.int64),
                          cnts=np.array([c], dtype=np.int64))


def _spy(monkeypatch, name):
    """The list of (args, result) of counting.<name>'s calls, filled as
    they are made."""
    calls = []
    fn = getattr(counting, name)

    def spy(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(counting, name, spy)
    return calls


def _spy_reads(monkeypatch):
    """The list of (scanned, even, k, len(v)) of counting._read_fold's
    calls: scanned when w is None, a slab of the other block's scan, not
    its histogram."""
    reads = []
    read = counting._read_fold

    def spy(g, even, k, v, w, bound):
        reads.append((w is None, even, k, len(v)))
        return read(g, even, k, v, w, bound)

    monkeypatch.setattr(counting, "_read_fold", spy)
    return reads


def test_int64_certificate(monkeypatch, f_fac1):
    # Block histograms within the grid cap always give an int32 fold and an
    # exact int64 dot.  Several targets read the other block's histogram,
    # so the certificate is total1 * total2 < 2^63 (for one target, which
    # scans the other block, see test_single_target_scan_declines).
    sparse = _spy(monkeypatch, "_pair_count_sparse")
    folds = _spy(monkeypatch, "_cube_fold")
    assert _GRID_CAP < 2 ** 31
    assert _GRID_CAP ** 2 < 2 ** 63
    cases = [
        (7 ** 2 * 73 * 127 * 337, 92737 * 649657, True),  # product 2^63 - 1
        (2 ** 32, 2 ** 31, False),  # product 2^63
        (2 ** 32 + 1, 2 ** 31 + 1, False),  # odd product above 2^63
    ]
    for c1, c2, fold in cases:
        h1 = _point_histogram(5, c1)
        h2 = _point_histogram(-3, c2)
        # Drive the public path with these histograms (the blocks of f_fac1
        # differ, so each gets its own).
        monkeypatch.setattr(counting, "value_histogram",
                            lambda l, q, box, P: h1 if q == f_fac1.q1 else h2)
        sparse.clear()
        folds.clear()
        got = representation_counts(f_fac1, [1, 2, 3, 4, -2], 1)
        assert got == [c1 * c2] * 3 + [0, 0]
        assert bool(sparse) != fold and bool(folds) == fold
        assert all(type(c) is int for c in got)
        if fold:
            # The first case folds its second histogram, whose total needs
            # int64.
            (((folded, _), (_, g)),) = folds
            assert folded is h2 and g.dtype == np.int64
    cubes = [-1, 0, 1]
    # A folded total of 2^31 needs int64; one below it fits int32.
    assert _cube_fold(_point_histogram(0, 2 ** 31), cubes)[1].dtype == np.int64
    assert _cube_fold(_point_histogram(0, 2 ** 31 - 1), cubes)[1].dtype == np.int32
    # The int64 dot of the last pair would wrap.
    c1, c2, _ = cases[-1]
    assert int(np.dot(np.array([c1]), np.array([c2]))) != c1 * c2


def test_count_representations_sparse_path(monkeypatch):
    # Coefficients near the cap make the value windows far wider than
    # _DENSE_CAP, so _cube_fold refuses the fold and count_representations
    # takes the sparse int64 path, one target as well as several.
    sparse = _spy(monkeypatch, "_pair_count_sparse")
    folds = _spy(monkeypatch, "_cube_fold")
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
        table = representation_counts_brute(form, P)
        common = sorted(table, key=lambda n: (-table[n], n))[:20]
        Ns = common + rng.sample(sorted(table), 20) + [0, common[0] + 1]
        folds.clear()
        for N in Ns:
            sparse.clear()
            assert count_representations(form, N, P) == table.get(N, 0)
            assert sparse
        sparse.clear()
        assert representation_counts(form, Ns, P) == [table.get(N, 0) for N in Ns]
        assert sparse
        assert len(folds) == len(Ns) + 1 and all(fold is None for _, fold in folds)


def test_cube_term_alone_refuses_the_fold(monkeypatch, f_star):
    # Both blocks stay narrow, but a7 = COEFF_CAP stretches the fold window
    # by 2 * a7 * P^3, past _DENSE_CAP first at P = 5.
    sparse = _spy(monkeypatch, "_pair_count_sparse")
    folds = _spy(monkeypatch, "_cube_fold")
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
    rng = random.Random(13)
    Ns = [0, 1, -1, cubes[0] - 1, cubes[-1] + 1]
    for _ in range(12):
        Ns.append(rng.choice(h1.vals.tolist()) + rng.choice(h2.vals.tolist())
                  + rng.choice(cubes))
    want = [sum(_pair_count_sparse(h1, h2, N - c) for c in cubes) for N in Ns]
    assert min(want[5:]) > 0
    sparse.clear()
    folds.clear()
    assert representation_counts(form, Ns, P) == want
    assert sparse
    assert [fold for _, fold in folds] == [None]
    # At P <= 2 the fold fits and must match full enumeration.
    for P in (1, 2):
        table = representation_counts_brute(form, P)
        Ns = sorted(table)[::7] + [0, 1, -1, COEFF_CAP, COEFF_CAP * 8 + 1]
        sparse.clear()
        folds.clear()
        assert representation_counts(form, Ns, P) == [table.get(N, 0) for N in Ns]
        assert not sparse
        assert len(folds) == 1 and folds[0][1] is not None


def _distinct_block_forms(a7, box):
    """Forms whose blocks differ: f_fac1's (groups of order 4 and 8 on the
    sym box), a block at the coefficient cap, whose int64 slabs are
    scanned, beside f_star's block in both orders, seeded pairs of
    _sign_blocks (orders 2, 4 and 8) and two dense random pairs."""
    signed = [(l, q) for l, q, _ in _sign_blocks() if any(l) and any(q)]
    rng = random.Random(38 + a7)
    c = COEFF_CAP
    wide = ((c, 1 - c, c - 2), (c, 1 - c, c, -c, c - 3, c))
    narrow = ((1, 0, 0), (0, 0, 1, 0, 0, 1))
    pairs = [(((1, 0, 0), (0, 0, 1, 0, 0, 1)), ((1, 0, 0), (0, 0, 0, 1, 0, 0))),
             (wide, narrow), (narrow, wide)]
    pairs += [tuple(rng.sample(signed, 2)) for _ in range(3)]
    for _ in range(2):
        pairs.append(tuple((tuple(rng.choice((-3, -1, 1, 2)) for _ in range(3)),
                            tuple(rng.randint(-3, 3) for _ in range(6))) for _ in range(2)))
    return [CubicForm(l1 + l2 + (a7,), q1, q2, box) for (l1, q1), (l2, q2) in pairs]


def _window_edge_targets(form, P, rng):
    """N at which a read of the fold g lands on an edge of g's window or
    just outside it, whichever block is folded: v + gmin + e and
    v + gmax + e for e in {-1, 0, 1}, v the other block's extremes and two
    of its values, [gmin, gmax] the folded block's range plus the cubes'."""
    cubes = [form.a7 * t ** 3 for t in box_range(form.box, P)]
    values = [sorted(block_values_brute(l, q, form.box, P)) for l, q in form.blocks()]
    Ns = set()
    for scanned, folded in (values, values[::-1]):
        edges = (folded[0] + min(cubes), folded[-1] + max(cubes))
        for v in (scanned[0], scanned[-1], *rng.sample(scanned, min(2, len(scanned)))):
            Ns.update(v + m + e for m in edges for e in (-1, 0, 1))
    return sorted(Ns)


@pytest.mark.parametrize("a7", [1, -1, 2, -7])
def test_single_target_scan_vs_brute(monkeypatch, a7):
    # One target on a form with distinct blocks folds one block and scans
    # the other's fundamental domain; every such count, at g's window
    # edges, just outside them, at 0, -7, a few attained values and
    # +-10^30, equals the enumeration, on every box, and the scan answers
    # each of them: the other block's histogram is never read and no
    # sparse sum is taken.
    reads = _spy_reads(monkeypatch)
    sparse = _spy(monkeypatch, "_pair_count_sparse")
    rng = random.Random(a7)
    for box in BOX_KINDS:
        for form in _distinct_block_forms(a7, box):
            for P in (1, 2, 3) if box == "pos" else (1, 2):
                table = representation_counts_brute(form, P)
                Ns = _window_edge_targets(form, P, rng)
                Ns += [0, -7, 10 ** 30, -10 ** 30, *rng.sample(sorted(table), min(4, len(table)))]
                assert min(table) - 1 in Ns and max(table) + 1 in Ns
                for N in Ns:
                    assert count_representations(form, N, P) == table.get(N, 0), (form, P, N)
    assert {scanned for scanned, *_ in reads} == {True} and not sparse


@pytest.mark.parametrize("box", BOX_KINDS)
def test_one_folded_block_per_form(monkeypatch, box):
    # A = x^3 + y^3 + z^3 - 3xyz has the larger a priori value bound
    # (18 R^3 against 5 R^3) beside B = 5xyz, though not the wider range
    # of values on the sym box: one target and several targets both fold
    # B, the block that _value_bound picks, and every count is the
    # enumerated one.
    folds = _spy(monkeypatch, "_cube_fold")
    A = ((1, 1, 1), (1, 1, 1, -1, -1, -1))
    B = ((5, 0, 0), (0, 0, 0, 1, 0, 0))
    form = CubicForm(A[0] + B[0] + (1,), A[1], B[1], box)
    rng = random.Random(39)
    for P in (2, 3, 6):
        da, db = (block_values_brute(l, q, box, P) for l, q in (A, B))
        assert da != db
        cubes = [t ** 3 for t in box_range(box, P)]
        Ns = _window_edge_targets(form, P, rng) + [0, -7]
        Ns += [form.value([rng.choice(box_range(box, P)) for _ in range(7)]) for _ in range(4)]
        want = [_pair_sum(da, db, cubes, N) for N in Ns]
        folds.clear()
        assert representation_counts(form, Ns, P) == want
        assert [count_representations(form, N, P) for N in Ns] == want
        assert len(folds) == 1 + len(Ns)
        assert all(dict(h.items()) == db for (h, _), _ in folds)


def test_single_target_builds_one_histogram(monkeypatch, f_fac1):
    # count-lattice's form at one target, P = 64, 96, 128: one histogram per
    # radius (block 2, x4 x5 x6, whose value bound is the smaller), folded
    # once, the other block never read from a histogram, and the counts
    # the histogram source recorded for these radii.  The fold is even, so
    # at N = 0 a bulk point's reads g(-B) and g(B) are the one read
    # g[|0 - B|] of weight 2.
    built = []
    scan = counting._scan_slabs

    def scan_spy(l, q, *args):
        built.append((l, q))
        return scan(l, q, *args)

    monkeypatch.setattr(counting, "_scan_slabs", scan_spy)
    folds = _spy(monkeypatch, "_cube_fold")
    reads = _spy_reads(monkeypatch)
    value_histogram.cache_clear()
    try:
        got = []
        for P in (64, 96, 128):
            misses = value_histogram.cache_info().misses
            got.append(count_zeros(f_fac1, P))
            assert value_histogram.cache_info().misses == misses + 1
    finally:
        value_histogram.cache_clear()
    assert got == [4036716489, 20182289729, 64434539621]
    assert {(tuple(l), tuple(q)) for l, q in built} == {(f_fac1.l2, f_fac1.q2)}
    assert len(folds) == 3
    assert {(scanned, even, k) for scanned, even, k, _ in reads} == {(True, True, 0)}


def test_histogram_route_kept(monkeypatch, f_star, f_fac1):
    # Identical blocks (f_star: the second histogram is a cache hit) and any
    # call with two or more targets read the other block from its
    # histogram: no block is scanned for a count, and one histogram is
    # folded per call.
    reads = _spy_reads(monkeypatch)
    folds = _spy(monkeypatch, "_cube_fold")
    value_histogram.cache_clear()
    try:
        zeros = count_zeros(f_star, 6)
        assert value_histogram.cache_info().misses == 1
        assert [zeros] * 2 == representation_counts(f_star, [0, 0], 6)
        for form in (f_star, f_fac1):
            for Ns in ([0, 1], [5, 5, -3]):
                folds.clear()
                table = representation_counts_brute(form, 1)
                assert representation_counts(form, Ns, 1) == [table.get(N, 0) for N in Ns]
                assert len(folds) == 1
    finally:
        value_histogram.cache_clear()
    assert {scanned for scanned, *_ in reads} == {False}


@pytest.mark.parametrize("box", BOX_KINDS)
def test_histogram_reads_gather_only_the_window(monkeypatch, box):
    # Several targets read the other block's sorted histogram only over
    # each target's window, found by search: a block at the coefficient
    # cap beside a narrow folded block is never gathered whole, so every
    # gathered index lies in g and none is clipped onto a zero end.  On
    # the distinct-block forms the counts at g's window edges, just outside
    # them, at 0 and +-10^30 equal the enumeration, whichever block folds.
    rng = random.Random(41)
    cases = []
    for form in _distinct_block_forms(1, box):
        for P in (1, 2):
            Ns = _window_edge_targets(form, P, rng) + [0, 10 ** 30, -10 ** 30]
            cases.append((form, P, Ns, representation_counts_brute(form, P)))
    gathers = []
    take = np.take

    def spy(a, i, **kw):
        gathers.append((len(a), int(i.min()), int(i.max())))
        return take(a, i, **kw)

    monkeypatch.setattr(np, "take", spy)
    reads = _spy_reads(monkeypatch)
    for form, P, Ns, table in cases:
        assert representation_counts(form, Ns, P) == [table.get(N, 0) for N in Ns], (form, P)
    assert {scanned for scanned, *_ in reads} == {False}
    assert gathers and all(0 <= lo and hi < n for n, lo, hi in gathers)


def test_single_target_scan_declines(monkeypatch, f_fac1):
    # One target on distinct blocks reads the other block from its
    # histogram where that block's value bound reaches 2^62, so that every
    # scanned index is int64, and takes the sparse sums where the fold
    # declines (a big-int histogram, the 2^63 certificate, a fold window
    # above _DENSE_CAP); test_big_int_counts_vs_brute and the sparse-path
    # tests check those counts against enumeration.
    reads = _spy_reads(monkeypatch)
    sparse = _spy(monkeypatch, "_pair_count_sparse")
    c, P = COEFF_CAP, 62
    mixed = CubicForm((c, c, c, 1, 0, 0, 3), (c,) * 6, (0, 1, 0, 0, 0, 0), "pos")
    assert counting._value_bound(mixed.l1, mixed.q1, "pos", P) >= _INT64_SAFE
    N = mixed.value([1] * 7)
    assert count_representations(mixed, N, P) == representation_counts(mixed, [N, 0], P)[0] > 0
    assert not reads and sparse
    wide = CubicForm((c, 1 - c, c - 2, c - 1, c, 3 - c, c - 5),
                     (c, c - 1, 1 - c, c - 3, -c, c), (1 - c, c, c - 2, c, c - 1, -c))
    sparse.clear()
    assert count_representations(wide, 0, 1) == representation_counts_brute(wide, 1).get(0, 0)
    assert not reads and sparse
    # f_fac1's folded block at P = 1, faked, against its scanned 27 cells;
    # the fake stands for both blocks once the sparse sums need the other.
    # The fake with a fold is stored by its half, as every histogram on
    # the sym box is: u = 0 and the pair +-5, m + 1 points in all.
    big = BlockHistogram(np.array([2 ** 70], dtype=object), np.array([1]))
    m = 2 ** 63 // 27

    def half(total):
        return BlockHistogram(np.array([0, 5]), np.array([total - 2, 1]), even=True)

    assert half(m + 1).total() == m + 1 and (m + 1) * 27 >= 2 ** 63
    for h, N, want in ((big, 2 ** 71, 1), (half(m + 1), 0, (m - 1) ** 2 + 2)):
        monkeypatch.setattr(counting, "value_histogram", lambda l, q, box, P, h=h: h)
        sparse.clear()
        assert count_representations(f_fac1, N, 1) == want
        assert not reads and sparse
    # At one count less the certificate holds, and the scan answers; its
    # fold is even, so a bulk point of value B reads g[|N - B|] and
    # g[|N + B|], one read of weight 2 at N = 0.
    monkeypatch.setattr(counting, "value_histogram", lambda l, q, box, P: half(m))
    sparse.clear()
    values = block_values_brute(f_fac1.l1, f_fac1.q1, "sym", 1)
    fake = dict(half(m).items())
    for N in range(-9, 10):
        want = sum(n * c for v, n in values.items() for u, c in fake.items()
                   for t in (-1, 0, 1) if v + u + t ** 3 == N)
        assert count_representations(f_fac1, N, 1) == want
    assert {scanned for scanned, *_ in reads} == {True} and not sparse


def test_reads_at_the_int64_edge(monkeypatch):
    # Block 1's values reach +-B, B = 2^62 - 9192496, its a priori bound
    # (every coefficient is positive, so the corners attain it): one target
    # scans it and several read its histogram, each against the even fold
    # of x4 x5 x6 with 100 t^3, about 2.4e7 entries.  At N = 2^63 - B the
    # read -N of the pair +-B has the index |-N - B| = 2^63, which int64
    # cannot hold (unclipped, it read g(0) and gave 50965), and at the
    # attained N = B + 101 P^3 the index -N - B leaves int64 too.  Every
    # count is the sparse sums' in Python ints.
    c, P = COEFF_CAP, 62
    l1, q1 = (c, c, 3125754 - 2 * c), (c, c, c, c, c, 6190559 - 5 * c)
    form = CubicForm(l1 + (1, 0, 0, 100), q1, (0, 0, 0, 1, 0, 0))
    B = counting._value_bound(l1, q1, "sym", P)
    assert _INT64_SAFE - B == 9192496
    h1, h2 = (value_histogram(l, q, "sym", P) for l, q in form.blocks())
    assert h1._range() == (-B, B) and not h1.is_big
    cubes = [100 * t ** 3 for t in box_range("sym", P)]
    big = [BlockHistogram(h.vals.astype(object), h.cnts) for h in (h1, h2)]
    Ns = [2 ** 63 - B + e for e in (-1, 0, 1)] + [B - 2 ** 63, B + 101 * P ** 3]
    want = [sum(_pair_count_sparse(*big, N - t) for t in cubes) for N in Ns]
    assert want[-1] > 0
    reads = _spy_reads(monkeypatch)
    assert representation_counts(form, Ns, P) == want
    assert [count_representations(form, N, P) for N in Ns] == want
    assert {scanned for scanned, *_ in reads} == {False, True}


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


@pytest.mark.parametrize("box", BOX_KINDS)
def test_zero_quadratic_block_counts(monkeypatch, box):
    # A block with Q = 0 has L*Q = 0 at every point: on the sym box its
    # half-stored histogram is u = 0 alone, and read against the fold it
    # has no pair u > 0 to read.  Q2 = 0 (folded, the smaller bound), Q1 = 0
    # read against block 2's fold (l1 wide enough to have the larger bound),
    # and Q1 = Q2 = 0 with equal and with distinct L: every count, with one
    # target and with several, is the enumerated one.
    reads = _spy_reads(monkeypatch)
    zero = (0,) * 6
    forms = [CubicForm((1, 0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1), zero, box),
             CubicForm((5, 5, 5, 1, 0, 0, -2), zero, (0, 0, 0, 1, 0, 0), box),
             CubicForm((1, 0, 0, 1, 0, 0, 1), zero, zero, box),
             CubicForm((1, 2, 0, 0, 1, -1, 3), zero, zero, box)]
    for form in forms:
        for P in (1, 2):
            table = representation_counts_brute(form, P)
            Ns = sorted(set(range(-6, 7)) | set(table) | {min(table) - 1, max(table) + 1})
            assert representation_counts(form, Ns, P) == [table.get(N, 0) for N in Ns]
            assert [count_representations(form, N, P) for N in Ns] == [table.get(N, 0) for N in Ns]
    # The sym box reads an empty pair part of a Q = 0 block's histogram.
    assert any(not scanned and not n for scanned, _, _, n in reads) == (box == "sym")


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

    def count(box):
        return count_lattice_points_in_box(sp.kernel_basis(),
                                           *box_interval(box, 2))

    # Rank-4 kernel with the free coordinates x2, x3, x5, x6.
    assert count("sym") == 5 ** 4
    assert count("nonneg") == 3 ** 4
    # x1, x4, x7 vanish on the space, and the pos box excludes 0.
    assert count("pos") == 0


def test_union_counts_vs_membership(monkeypatch, f_star, f_fac1, f_fac2):
    # L1 and L2 are not coordinate forms here, so the kernels split into
    # components of rank 2 and the descent runs over two levels.
    rank2 = CubicForm((1, 2, 3, 1, 1, 1, 1), (0, 0, 1, 0, 0, 1), (0, 3, -1, 2, 0, 0))
    ranks = []
    descent = lattice._descent_count

    def spy(b, lo, hi):
        ranks.append(len(b))
        return descent(b, lo, hi)

    monkeypatch.setattr(lattice, "_descent_count", spy)
    for form in (f_star, f_fac1, f_fac2, rank2):
        spaces = linear_spaces(form)
        got = union_space_count(spaces, "sym", 2)
        brute = union_membership_brute(form, [sp.covectors for sp in spaces], 2)
        assert got == brute
    assert max(ranks) == 2
    spaces = linear_spaces(rank2)
    assert [sp.tag for sp in spaces] == ["1", "2", "3"]
    assert union_space_count(spaces, "sym", 2) == 351
    nonneg = CubicForm(rank2.a, rank2.q1, rank2.q2, "nonneg")
    covs = [sp.covectors for sp in spaces]
    assert union_space_count(spaces, "nonneg", 2) == 3
    assert union_membership_brute(nonneg, covs, 2) == 3
    # Sym-box counts recorded by the descent with an int64 bottom pair.
    for P, pinned in ((64, 190700313), (128, 3013092501), (203, 18990064989)):
        assert union_space_count(spaces, "sym", P) == pinned
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
