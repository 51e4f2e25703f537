"""Integer lattices: kernels of covector systems and exact box point counts.

One column reduction, _column_reduce, serves the kernel bases, the block
frames of forms.block_frame and the canonical echelon bases; it reduces
the covectors and the identity rows under them as one matrix.  A box count
splits the echelon basis into components with pairwise disjoint coordinate
supports.  The lattice is their direct sum and the box is a product over
coordinates, so each component is projected onto its own support and
counted there by the descent over echelon levels; the descent sees all n
coordinates only for a basis that does not split.  The descent is one loop
in Python integers, exact for any entries and any box.

Union counts (counting.union_space_count) meet only components of rank at
most 2.  Each space of forms.linear_spaces is a 4-space cut out by L1 on
x1..x3 and two independent covectors on x4..x7, so every intersection of
spaces is the direct sum of a rank-2 part of ker L1 and a part of rank at
most 2 on x4..x7, and its echelon basis splits along that sum.  Coordinate
subspaces split further into unit vectors, each one closed-form interval
count.
"""

from __future__ import annotations


def integer_kernel(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Basis of the lattice {x integer : r.x = 0 for every covector r}.

    Column reduction by a unimodular matrix, so the result spans *all*
    integer solutions (the kernel lattice is saturated by construction).
    """
    _, u, rank = _column_reduce(rows)
    n = len(u)
    return [tuple(u[t][k] for t in range(n)) for k in range(rank, n)]


def _column_reduce(rows):
    """(a, u, rank) with a = rows * u and u an integer n x n matrix of det +-1.

    u is the n identity rows, carried under the m covectors through every
    column subtraction and swap.  Only the first `rank` columns of a are
    nonzero, so the last n - rank columns of u span the integer kernel.  For
    a single nonzero row L the first column w of u has L.w = +-content(L).
    """
    if not rows:
        raise ValueError("need at least one covector")
    n = len(rows[0])
    m = len(rows)
    a = [list(r) for r in rows] + [[int(i == j) for j in range(n)] for i in range(n)]
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
                        for r in a:
                            r[k] -= q * r[k0]
        nz = [k for k in range(col, n) if a[i][k]]
        if nz:
            for r in a:
                r[nz[0]], r[col] = r[col], r[nz[0]]
            col += 1
    return a[:m], a[m:], col


def echelon_lattice_basis(basis: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Canonical echelon basis of the lattice spanned by the given vectors.

    Each output vector has a distinct level (index of its last nonzero
    entry), the entry at the level is positive, and entries of the other
    basis vectors at that position are reduced modulo it.  This is the
    lattice's Hermite normal form, unique whatever generates the lattice.
    """
    if not basis or not basis[0]:
        return []
    # Column c of the reduction of the generators, coordinates taken last
    # first, is a lattice vector whose level lies strictly below that of
    # column c - 1: read in reverse, the first `rank` columns ascend.
    a, _, rank = _column_reduce(list(zip(*basis))[::-1])
    out = [[row[c] for row in reversed(a)] for c in reversed(range(rank))]
    levels = [max(i for i, x in enumerate(v) if x) for v in out]
    out = [v if v[lev] > 0 else [-x for x in v] for v, lev in zip(out, levels)]
    # Reduce entries sitting above lower pivots for a canonical result,
    # highest pivot first: a row is zero past its level, so reducing by a
    # lower pivot later never disturbs an entry reduced at a higher one.
    for i in reversed(range(rank)):
        lev = levels[i]
        p = out[i][lev]
        for j in range(i + 1, rank):
            q = out[j][lev] // p
            if q:
                out[j] = [x - q * y for x, y in zip(out[j], out[i])]
    return [tuple(v) for v in out]


def _ceildiv(a: int, b: int) -> int:
    return -((-a) // b)


def count_lattice_points_in_box(basis, lo: int, hi: int) -> int:
    """Number of lattice points with every coordinate in [lo, hi], exactly.

    When the echelon basis splits into components with disjoint coordinate
    supports, or misses a coordinate, the count is the product of the
    component counts, each taken by the descent on the component's own
    support coordinates (the other coordinates are 0 on the component).  A
    missed coordinate is 0 on the whole lattice, so the count is then 0
    unless 0 is in [lo, hi].  A basis forming one component over all n
    coordinates is counted by the descent on all of them.
    """
    if lo > hi:
        return 0
    b = echelon_lattice_basis(list(basis))
    if not b:
        return 1 if lo <= 0 <= hi else 0
    n = len(b[0])
    parts = _split_supports(b)
    covered = sum(len(sup) for sup, _ in parts)
    if covered < n and not lo <= 0 <= hi:
        return 0
    total = 1
    for sup, rows in parts:
        cols = sorted(sup)
        total *= _descent_count([tuple(b[j][i] for i in cols) for j in rows], lo, hi)
    return total


def _split_supports(b) -> list[tuple[set[int], list[int]]]:
    """Group basis vectors into components with pairwise disjoint supports.

    Returns (support coordinates, ascending basis indices) per component.
    """
    parts: list[tuple[set[int], list[int]]] = []
    for j, v in enumerate(b):
        sup = {i for i, x in enumerate(v) if x}
        rows = [j]
        rest = []
        for s, r in parts:
            if s & sup:
                sup |= s
                rows += r
            else:
                rest.append((s, r))
        parts = rest + [(sup, sorted(rows))]
    return parts


def _descent_count(b, lo: int, hi: int) -> int:
    """Box count for an echelon basis b (levels strictly ascending), by descent.

    Fixes the coefficients from the top level down; each coordinate owned
    by a level bounds that level's coefficient to an interval, and at the
    bottom level the interval's length is the count.
    """
    n = len(b[0])
    levels = [max(i for i in range(n) if v[i]) for v in b]
    if any(s >= t for s, t in zip(levels, levels[1:])):
        raise AssertionError("echelon basis levels not strictly ascending")
    # Coordinates above the top level are identically zero on the lattice.
    if levels[-1] < n - 1 and not lo <= 0 <= hi:
        return 0
    owned = [range(prev + 1, lev + 1) for prev, lev in zip([-1] + levels, levels)]

    def descend(c: int, partial: list[int]) -> int:
        tlo, thi = None, None
        for i in owned[c]:
            a = b[c][i]
            base = partial[i]
            if a == 0:
                if not lo <= base <= hi:
                    return 0
                continue
            if a > 0:
                l, h = _ceildiv(lo - base, a), (hi - base) // a
            else:
                l, h = _ceildiv(base - hi, -a), (base - lo) // (-a)
            tlo = l if tlo is None else max(tlo, l)
            thi = h if thi is None else min(thi, h)
        if tlo is None or tlo > thi:
            return 0
        if c == 0:
            return thi - tlo + 1
        vec = b[c]
        return sum(descend(c - 1, [p + t * v for p, v in zip(partial, vec)])
                   for t in range(tlo, thi + 1))

    return descend(len(b) - 1, [0] * n)
