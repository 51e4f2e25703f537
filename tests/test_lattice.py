import itertools
import random
from fractions import Fraction

import pytest

from cubic7 import lattice
from cubic7.forms import COEFF_CAP
from cubic7.lattice import (
    count_lattice_points_in_box,
    echelon_lattice_basis,
    integer_kernel,
)

# Boxes with and without 0, including a single point.
BOXES = ((-4, 4), (1, 5), (0, 6), (-6, -1), (2, 2))


def _splits(basis) -> bool:
    b = echelon_lattice_basis(basis)
    parts = lattice._split_supports(b)
    return len(parts) > 1 or sum(len(s) for s, _ in parts) < len(b[0])


def test_integer_kernel_rank():
    rows = [(1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)]
    basis = echelon_lattice_basis(integer_kernel(rows))
    assert len(basis) == 4
    for b in basis:
        for r in rows:
            assert sum(c * t for c, t in zip(r, b)) == 0


def _column_reduce_two_matrices(rows):
    """Reference column reduction on two matrices, a and u, each column
    operation applied by a closure to one and then to the other."""
    n = len(rows[0])
    m = len(rows)
    a = [list(r) for r in rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_sub(k, k0, q):
        for t in range(m):
            a[t][k] -= q * a[t][k0]
        for t in range(n):
            u[t][k] -= q * u[t][k0]

    def col_swap(k, k0):
        for t in range(m):
            a[t][k], a[t][k0] = a[t][k0], a[t][k]
        for t in range(n):
            u[t][k], u[t][k0] = u[t][k0], u[t][k]

    col = 0
    for i in range(m):
        while True:
            nz = [k for k in range(col, n) if a[i][k]]
            if len(nz) <= 1:
                break
            k0 = min(nz, key=lambda k: abs(a[i][k]))
            for k in nz:
                if k != k0:
                    q = a[i][k] // a[i][k0]
                    if q:
                        col_sub(k, k0, q)
        nz = [k for k in range(col, n) if a[i][k]]
        if nz:
            col_swap(nz[0], col)
            col += 1
    return a, u, col


def _det(mat):
    """Determinant of a square integer matrix, by Bareiss elimination."""
    a = [list(r) for r in mat]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def test_column_reduce_matches_two_matrix_reduction():
    """One matrix with the identity rows under the covectors gives the same
    (a, u, rank) as reducing a and u side by side, with a = rows * u and u
    unimodular."""
    assert _det([[2, 1], [7, 4]]) == 1 and _det([[0, 1], [1, 0]]) == -1
    assert _det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    rng = random.Random(59)

    def entry(kind):
        if kind == 0:
            return rng.randint(-6, 6)
        if kind == 1:
            return rng.randint(-COEFF_CAP, COEFF_CAP)
        return rng.choice((-1, 1)) * (COEFF_CAP - rng.randint(0, 6)) * rng.randint(0, 1)

    for _ in range(5000):
        n, m, kind = rng.randint(1, 7), rng.randint(1, 5), rng.randrange(3)
        rows = [tuple(entry(kind) for _ in range(n)) for _ in range(m)]
        a, u, rank = lattice._column_reduce(rows)
        assert (a, u, rank) == _column_reduce_two_matrices(rows), rows
        assert a == [[sum(r[t] * u[t][k] for t in range(n)) for k in range(n)]
                     for r in rows]
        assert abs(_det(u)) == 1
        assert all(not row[k] for row in a for k in range(rank, n))


def test_echelon_basis_is_canonical():
    """Generating sets of one lattice give one basis, in reduced echelon form."""
    assert echelon_lattice_basis([(-2, 2, 2), (3, -2, 0), (-2, 5, -2)]) == [
        (13, 0, 0), (5, 1, 0), (1, 0, 2)]
    assert echelon_lattice_basis([]) == []
    rng = random.Random(29)
    for _ in range(400):
        n = rng.randint(1, 7)
        gens = [[rng.randint(-5, 5) for _ in range(n)]
                for _ in range(rng.randint(1, min(4, n)))]
        want = echelon_lattice_basis([tuple(v) for v in gens])
        levels = [max(i for i, c in enumerate(v) if c) for v in want]
        assert levels == sorted(set(levels))
        for i, lev in enumerate(levels):
            assert want[i][lev] > 0
            assert all(0 <= want[j][lev] < want[i][lev]
                       for j in range(i + 1, len(want)))
        # Unimodular row operations, one redundant generator, a shuffle and
        # sign flips leave the lattice, and so its basis, unchanged.
        other = [list(v) for v in gens]
        for _ in range(6):
            i, j = rng.randrange(len(other)), rng.randrange(len(other))
            if i != j:
                c = rng.randint(-3, 3)
                other[i] = [a + c * b for a, b in zip(other[i], other[j])]
        coef = [rng.randint(-2, 2) for _ in gens]
        other.append([sum(c * v[k] for c, v in zip(coef, gens))
                      for k in range(n)])
        rng.shuffle(other)
        other = [tuple(-c for c in v) if rng.random() < 0.5 else tuple(v)
                 for v in other]
        assert echelon_lattice_basis(other) == want, (gens, other)


def _coordinates(gens, e):
    """Rational c with sum c_j gens[j] = e, for independent gens, exactly."""
    k = len(gens)
    rows = [[Fraction(g[i]) for g in gens] + [Fraction(e[i])]
            for i in range(len(e))]
    for c in range(k):
        p = next(r for r in range(c, len(rows)) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    assert all(not row[k] for row in rows[k:]), "e is outside the span"
    return [rows[c][k] / rows[c][c] for c in range(k)]


def test_echelon_basis_spans_the_generated_lattice():
    """E = echelon(B) and B generate one lattice: each side lies in the other."""
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 7)
        bits = rng.choice((3, 12, 40))
        gens = [tuple(rng.randint(-(1 << bits), 1 << bits) for _ in range(n))
                for _ in range(rng.randint(1, n))]
        basis = echelon_lattice_basis(gens)
        assert len(basis) == len(gens)  # independent generators, same rank
        levels = [max(i for i, c in enumerate(v) if c) for v in basis]
        for b in gens:
            # Exact elimination from the top level down leaves nothing.
            r = list(b)
            for v, lev in zip(reversed(basis), reversed(levels)):
                q, rem = divmod(r[lev], v[lev])
                assert rem == 0, (gens, b)
                r = [x - q * y for x, y in zip(r, v)]
            assert not any(r), (gens, b)
        for e in basis:
            assert all(c.denominator == 1 for c in _coordinates(gens, e)), (gens, e)


def test_lattice_count_vs_brute():
    rng = random.Random(3)
    systems = [[tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(2)]
               for _ in range(20)]
    # Rows on one or two coordinates leave kernels that split.
    for _ in range(20):
        rows = []
        for _ in range(rng.randint(1, 3)):
            row = [0] * 5
            for i in rng.sample(range(5), rng.randint(1, 2)):
                row[i] = rng.choice((-2, -1, 1, 2))
            rows.append(tuple(row))
        systems.append(rows)
    points = list(itertools.product(range(-3, 4), repeat=5))
    # Scaling is exact, #{y in sL : s*lo <= y <= s*hi} = #{x in L : lo <= x <= hi},
    # and puts every entry and bound above 2^63.
    s = (1 << 70) + 1
    split = 0
    for rows in systems:
        basis = echelon_lattice_basis(integer_kernel(rows))
        if basis and _splits(basis):
            split += 1
        big = [tuple(s * c for c in v) for v in basis]
        on = [x for x in points
              if all(sum(c * t for c, t in zip(r, x)) == 0 for r in rows)]
        for lo, hi in ((-3, 3), (1, 3), (-3, -1)):
            got = count_lattice_points_in_box(basis, lo, hi)
            brute = sum(1 for x in on if all(lo <= t <= hi for t in x))
            assert got == brute
            assert count_lattice_points_in_box(big, s * lo, s * hi) == got
        assert count_lattice_points_in_box(basis, 3, -3) == 0  # lo > hi
    assert split >= 10
    # The zero lattice holds only the origin.
    for lo, hi in ((-3, 3), (0, 0), (1, 3), (-3, -1)):
        assert count_lattice_points_in_box([], lo, hi) == (1 if lo <= 0 <= hi else 0)


def test_factorised_count_vs_descent():
    """The factorised count equals the plain descent on all n coordinates."""
    rng = random.Random(11)
    split = 0
    for it in range(320):
        n = rng.randint(1, 7)
        k = rng.randint(1, min(4, n))
        basis = []
        for _ in range(k):
            v = [0] * n
            if it % 2 == 0:
                for i in rng.sample(range(n), rng.randint(1, min(2, n))):
                    v[i] = rng.choice((-3, -2, -1, 1, 2, 3))
            else:
                v = [rng.randint(-2, 2) for _ in range(n)]
                v[rng.randrange(n)] = rng.choice((-1, 1))
            basis.append(tuple(v))
        b = echelon_lattice_basis(basis)
        split += _splits(b)
        for lo, hi in BOXES:
            assert count_lattice_points_in_box(basis, lo, hi) == \
                lattice._descent_count(b, lo, hi), (basis, lo, hi)
    assert 100 <= split <= 220


def test_coordinate_kernel_takes_split_path(monkeypatch):
    """A coordinate kernel is counted one unit vector at a time."""
    descent = lattice._descent_count

    def rank_one_only(b, lo, hi):
        if len(b) > 1:
            raise AssertionError("descent reached with rank > 1")
        return descent(b, lo, hi)

    monkeypatch.setattr(lattice, "_descent_count", rank_one_only)
    P = 10 ** 6
    basis = echelon_lattice_basis(integer_kernel(
        [(1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)]))
    assert count_lattice_points_in_box(basis, -P, P) == (2 * P + 1) ** 4
    assert count_lattice_points_in_box(basis, 1, P) == 0


@pytest.mark.parametrize("basis", [
    [(0, 1), (1, 0)],  # levels out of order
    [(1, 1), (0, 1)],  # equal levels: level 1 would own no coordinate
])
def test_descent_refuses_levels_not_strictly_ascending(basis):
    """The descent takes echelon bases only; the box count takes any basis."""
    with pytest.raises(AssertionError):
        lattice._descent_count(basis, -1, 1)
    assert count_lattice_points_in_box(basis, -1, 1) == 9
