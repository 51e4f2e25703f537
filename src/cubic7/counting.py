"""Exact representation counts R(N; P) by block-histogram convolution.

Each ternary block contributes a value histogram over the box; the count of
f = N is a convolution of the two histograms against the cube term.  All
arithmetic is exact.  A histogram is a sorted array of distinct values with
int64 multiplicities.  One scan builds it for every box and every integer
width.  The sign changes s in {+-1}^3 that map the box onto itself and
L*Q to +-L*Q form a group G, decided from L*Q's cubic coefficients, and
the scan reads a fundamental domain of G: |G| times the counts of |L*Q|
over a bulk piece, where the pivot coordinates (those on which G projects
one-to-one) are positive, and once each the pieces where a pivot is 0.
x*y*z reads an octant, every Delta = 0 normal form X1(X1 X3 + X2^2) a
quarter, a dense block on the sym box a half and every block on the pos
and nonneg boxes, where G = {I}, the whole box, with L*Q signed.  Each
piece is cut into planes across its shortest axis and into slabs of equal
plane count, computed, sorted in place and counted by run lengths in the
narrowest of int32, int64 and object (Python ints) that an a priori bound
proves holds every intermediate of L*Q.  The values are then stored as
int64 when every one lies in (-2^62, 2^62), so that every sum and
difference of two values fits int64, and as Python ints otherwise.  On the
sym box G holds x -> -x, L*Q being odd, so the histogram is even: it is
stored and read by its half u >= 0, the counts at u and -u together; the
signed values are only built for the cold paths that list them.  Each
slab's runs are merged into the running histogram by a search, in memory
linear in the output.  Both grid caps still apply to the full box.

The cube term is folded once into the histogram of the block of the
smaller a priori value bound, g = h * {a7 t^3}, by 2P+1 dense slice adds
from one dense copy of h's stored arrays.  When h is stored by its half
(the sym box, whose cubes are symmetric too), g is even, and only its
half w >= 0 is added up and stored.  g has a zero entry past each end
of its window, past the top only when even.  Each N reads the other
block's values v in one gather with no mask (_read_fold): g(N - v) for a
value and g(N - v) + g(-N - v) for a pair +-v, which only the sym box
stores and so only beside an even g.  The values are those of its sorted
histogram in the target's window, found by search, for every target of a
call and for identical blocks, or, for one target on distinct blocks
whose every index fits int64, the slabs of a scan of its fundamental
domain (_plane_slabs), whose indices are clipped onto g's zero ends, so
that block is never histogrammed.  Every total is a cell count within
_GRID_CAP < 2^31, and an entry of g is at most the folded total (v and w
fix t), so g is int32 and every partial sum of a count is at most
total1 * total2 <= _GRID_CAP^2 < 2^63.  A big-int histogram to read, or
a fold window above _DENSE_CAP, which every big-int histogram has, falls
back to sparse pair sums per cube target, one int64 dot each.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fit, lattice
from .arith import icbrt, icbrt_exact
from .errors import DomainError, ResourceLimitError
from .forms import (
    _SLAB, CubicForm, _quad_terms, block_value, box_interval, box_range, linear_spaces,
)
from .payload import Payload

_GRID_CAP = 68_000_000  # lattice points per block enumeration
_GRID_CAP_BIG = 2_000_000  # same, when the value bound reaches _INT64_SAFE
_DENSE_CAP = 200_000_000  # cube-fold window width
_FOLD_TILE = 1 << 17  # fold entries, or gathered values, per cache tile
_INT64_SAFE = 1 << 62  # stored values strictly inside +-this are int64
_INT32_LIMIT = 1 << 31  # slab value bounds below this are int32
_INT64_LIMIT = 1 << 63  # slab value bounds below this are int64


class BlockHistogram:
    """Multiset of one block's values over the box, value -> multiplicity.

    A full histogram stores vals, a sorted array of distinct values, int64
    when every value lies in (-2^62, 2^62) and object dtype (Python ints)
    otherwise, whatever the dtype of the slabs it was scanned from, and
    cnts, int64.  An even histogram, h(-u) = h(u) (the sym box), is built
    with even=True and stores only its half: the sorted distinct values
    u >= 0, which start at 0, int64 when u[-1] < 2^62 and object
    otherwise, and c[i] = h(u[i]).  Its vals and cnts are the signed
    arrays, built on each access for the cold paths that ask for them.
    A histogram is even only when it is stored by its half.
    """

    __slots__ = ("_vals", "_cnts", "_even")

    def __init__(self, vals, cnts, even: bool = False):
        self._vals, self._cnts, self._even = vals, cnts, even

    @property
    def vals(self):
        if not self._even:
            return self._vals
        u = self._vals
        vals = np.empty(2 * len(u) - 1, dtype=u.dtype)
        vals[len(u) - 1 :] = u
        np.negative(u[:0:-1], out=vals[: len(u) - 1])
        return vals

    @property
    def cnts(self):
        c = self._cnts
        return np.concatenate((c[:0:-1], c)) if self._even else c

    def _range(self) -> tuple[int, int]:
        """The smallest and the largest value."""
        if self._even:
            return -int(self._vals[-1]), int(self._vals[-1])
        return int(self._vals[0]), int(self._vals[-1])

    @property
    def is_big(self) -> bool:
        return self._vals.dtype == object

    def total(self) -> int:
        if self._even:
            return 2 * int(self._cnts.sum()) - int(self._cnts[0])
        return int(self._cnts.sum())

    def count_of(self, v: int) -> int:
        if self._even:
            v = abs(v)
        i = int(np.searchsorted(self._vals, v))
        if i < len(self._vals) and int(self._vals[i]) == v:
            return int(self._cnts[i])
        return 0

    def items(self):
        return zip(self.vals.tolist(), self.cnts.tolist())


def _runs(v):
    """Starts of the runs of equal values in the sorted array v."""
    edge = np.empty(len(v), dtype=bool)
    edge[:1] = True
    np.not_equal(v[1:], v[:-1], out=edge[1:])
    return np.flatnonzero(edge)


def _merge_unique(a, b):
    """One histogram from two sorted, duplicate-free (vals, cnts) parts,
    adding the counts of equal values, in the dtypes of a and in memory
    linear in the output: each value of b is either found in a, and its
    count added there, or inserted at its search position, shifted by the
    values of b inserted before it."""
    av, ac = a
    bv, bc = b
    pos = np.searchsorted(av, bv)
    # pos is nondecreasing: only its prefix below len(av) can find a value.
    j = int(np.searchsorted(pos, len(av)))
    found = np.zeros(len(bv), dtype=bool)
    found[:j] = av[pos[:j]] == bv[:j]
    ac = ac.copy()
    ac[pos[found]] += bc[found]
    new = ~found
    ins = pos[new]
    ins += np.arange(len(ins))
    vals = np.empty(len(av) + len(ins), dtype=av.dtype)
    cnts = np.empty(len(vals), dtype=ac.dtype)
    old = np.ones(len(vals), dtype=bool)
    old[ins] = False
    vals[ins] = bv[new]
    vals[old] = av
    cnts[ins] = bc[new]
    cnts[old] = ac
    return vals, cnts


def _plane_slabs(l, q, axes):
    """The values of L*Q over the grid axes[0] x axes[1] x axes[2], in the
    dtype of the axes, as flat slabs of one reused buffer that a consumer
    may overwrite.  The grid is cut into planes across its shortest axis;
    each plane is block_value(l, q, ...) with the plane's coordinate a
    scalar and the other two axes a column and a row, broadcast if a
    scalar, row or column.  The planes are split into slabs of equal plane
    count, as few as keep each slab within forms._SLAB cells."""
    l, q = tuple(map(int, l)), tuple(map(int, q))
    a = min(range(3), key=lambda i: len(axes[i]))
    b, c = (i for i in range(3) if i != a)
    args = [None] * 3
    args[b], args[c] = axes[b][:, None], axes[c][None, :]
    per_slab = max(1, _SLAB // (len(axes[b]) * len(axes[c])))
    slabs = np.array_split(axes[a], -(-len(axes[a]) // per_slab))
    vbuf = np.empty((len(slabs[0]), len(axes[b]), len(axes[c])), dtype=axes[a].dtype)
    for xb in slabs:
        # One plane at a time: besides the slab, only plane-size arrays exist.
        for plane, x in zip(vbuf, xb.tolist()):
            args[a] = x
            plane[...] = block_value(l, q, *args)
        yield vbuf[: len(xb)].ravel()


def _sign_group(l, q, r) -> list[tuple[int, int, int]]:
    """G: the sign changes s in {+-1}^3, identity first, that map the grid
    r^3 onto itself and L*Q to +-L*Q.  When r is symmetric, s is in G
    exactly when every monomial x^a y^b z^c of L*Q with a nonzero
    coefficient takes the same sign s1^a s2^b s3^c, so -I always is (L*Q
    is odd); when r is not, G = {I}."""
    if r[0] != -r[-1]:
        return [(1, 1, 1)]
    coef = collections.Counter()
    for (a, x), (b, u, v) in itertools.product(zip(l, "xyz"), _quad_terms(q, *"xyz")):
        coef["".join(sorted(x + u + v))] += a * b
    group = []
    for s in itertools.product((1, -1), repeat=3):
        sign = dict(zip("xyz", s))
        if len({math.prod(map(sign.get, m)) for m, c in coef.items() if c}) <= 1:
            group.append(s)
    return group


def _sign_pieces(r, group):
    """[(axes, weight)]: a fundamental domain of the sign group on the grid
    r^3, so that the counts over the grid are the weighted counts over the
    pieces.  The pivots S are the first coordinates on which G projects
    one-to-one, |S| = log2 |G|.  Every orbit of G on the points whose pivots
    are all nonzero has |G| points, one of them with every pivot positive:
    the bulk piece (pivots in r > 0, the rest full), first, has weight |G|.
    The points whose j-th pivot is the first one at 0 form the j-th zero
    piece (that pivot 0, the earlier ones nonzero, the rest full), of
    weight 1.  For G = {I} the bulk is the grid."""
    k = len(group).bit_length() - 1
    pivots = next(S for S in itertools.combinations(range(3), k)
                  if len({tuple(s[i] for i in S) for s in group}) == len(group))
    pieces = [(tuple(r[r > 0] if i in pivots else r for i in range(3)), len(group))]
    for j, p in enumerate(pivots):
        axes = [r] * 3
        for e in pivots[:j]:
            axes[e] = r[r != 0]
        axes[p] = r[r == 0]
        pieces.append((tuple(axes), 1))
    return pieces


def _value_bound(l, q, box: str, P: int) -> int:
    """Bound on every intermediate of block_value over the box of radius P,
    in any term order: sum|l| R for L, sum|q| R^2 for Q and each c*u*v,
    and their product for L*Q (R = max |x|)."""
    R = max(map(abs, box_interval(box, P)))
    sl, sq = sum(map(abs, l)), sum(map(abs, q))
    return max(sl * R, sq * R * R, sl * sq * R ** 3)


def _histogram_scan(l, q, box: str, P: int):
    """The coordinate range r of value_histogram's scan, after the guards
    that refuse the histogram before anything is allocated: P >= 1, the
    grid cap, and the big-integer grid cap when the value bound reaches
    2^62.  r is in the narrowest of int32, int64 and object (Python ints)
    that holds every intermediate of block_value on _plane_slabs' planes."""
    if P < 1:
        raise DomainError("P must be at least 1")
    lo, hi = box_interval(box, P)
    m = hi - lo + 1
    if m ** 3 > _GRID_CAP:
        side = icbrt(_GRID_CAP)
        pmax = max(p for p in range(1, side + 1) if len(box_range(box, p)) <= side)
        raise ResourceLimitError(
            f"block grid {m}^3 = {m ** 3} cells exceeds the cap {_GRID_CAP}; "
            f"the {box} box allows P <= {pmax}"
        )
    bound = _value_bound(l, q, box, P)
    if bound >= _INT64_SAFE and m ** 3 > _GRID_CAP_BIG:
        # Cells and bound grow with P, so the radii that pass are 1..pmax.
        pmax = max((p for p in range(1, P) if _value_bound(l, q, box, p) < _INT64_SAFE
                    or len(box_range(box, p)) ** 3 <= _GRID_CAP_BIG), default=0)
        raise ResourceLimitError(
            f"coefficients too large for the int64 path at this P: value bound {bound} >= "
            f"2^62 and block grid {m}^3 = {m ** 3} cells exceeds the cap {_GRID_CAP_BIG}; "
            f"the {box} box allows P <= {pmax} for these coefficients"
        )
    dtype = object if bound >= _INT64_LIMIT else np.int64 if bound >= _INT32_LIMIT else np.int32
    return np.arange(lo, hi + 1, dtype=dtype)


@functools.lru_cache(maxsize=2)
def value_histogram(l, q, box: str, P: int) -> BlockHistogram:
    """Histogram of L*Q over the box of radius P (exact multiplicities).

    One loop over the slabs of the pieces of _sign_pieces, a fundamental
    domain of the sign group G of _sign_group, gives H(u), the count of
    |L*Q| = u over the box: |G| times the bulk piece's count plus the zero
    pieces' counts.
    Off the sym box G = {I}, the bulk is the box and L*Q is counted signed.
    On the sym box G holds -I, since L*Q is odd, so the histogram is even,
    h(-u) = h(u), and it is stored by its half u >= 0: u[0] = 0, since the
    origin lies in the first zero piece, with h(0) = H(0), and
    h(u) = H(u) / 2 after it.  The values are stored as int64 when all of
    them lie in (-2^62, 2^62), and as Python ints otherwise.  The cache
    holds two histograms: the two blocks of one radius, which
    representation_counts and block_zero_counts build and reuse.  One
    target on a form whose blocks differ builds only the block it folds,
    and scans the other.
    """
    r = _histogram_scan(l, q, box, P)
    group = _sign_group(l, q, r)
    even = len(group) > 1
    # Object slabs sort stably: timsort finds their runs.
    kind = "stable" if r.dtype == object else None
    hist = None
    for axes, weight in _sign_pieces(r, group):
        for v in _plane_slabs(l, q, axes):
            if even:
                np.abs(v, out=v)
            v.sort(kind=kind)
            starts = _runs(v)
            cnts = np.diff(starts, append=len(v))
            cnts *= weight
            runs = v[starts], cnts
            hist = runs if hist is None else _merge_unique(hist, runs)
    vals, cnts = hist
    if even:
        cnts[1:] //= 2
    fits = -_INT64_SAFE < int(vals[0]) and int(vals[-1]) < _INT64_SAFE
    return BlockHistogram(vals.astype(np.int64 if fits else object, copy=False), cnts, even=even)


def _cube_fold(h: BlockHistogram, cubes):
    """(gmin, g) with g[w - gmin] = #{(v, t) : v + a7 t^3 = w}, v counted
    with its multiplicity in h and a7 t^3 running over the list `cubes`;
    None when the fold window is wider than _DENSE_CAP.  g[0] and g[-1] are
    zero ends just past the window, so gmin is one below its least w.

    Given w and v, the cube a7 t^3 = w - v fixes t, so no entry of g
    exceeds h.total() <= _GRID_CAP < 2^31: g is int32.  The dense
    copy spreads the stored arrays from a base, dense[v - base] = h(v) for
    base <= v <= vmax: base = vmin for a full histogram, and base = 0 for
    one stored by its half, whose slice adds read v < 0 at |v|.  A half is
    stored only on the sym box, whose cubes are symmetric too, and the fold
    requires them to be: then g is even, only its half w >= 0 is added up
    and stored, with a zero end past its top only, gmin is None, and
    g(w) = g[|w|].
    """
    vmin, vmax = h._range()
    width = vmax - vmin + 1
    cmin = min(cubes)
    span = max(cubes) - cmin
    if width + span > _DENSE_CAP:
        return None
    even = h._even
    base = 0 if even else vmin
    # w = 0 sits at the middle of an even fold's odd-length window.
    mid = (width + span) // 2 if even else 0
    # g before the temporary dense copy: the returned g then takes a free
    # block of the heap, and dense, freed on return, sits at its top.
    g = np.zeros(width + span - mid + 2 - even, dtype=np.int32)
    window = g[1 - even : -1]
    dense = np.zeros(vmax - base + 1, dtype=np.int32)
    # A half is indexed by its own values: a shifted copy of u would cost
    # 8 MB at P = 128.
    dense[h._vals - base if base else h._vals] = h._cnts
    # A read of v < 0 runs forward through dense into `back`, which holds
    # the tile reversed, back[e - 1 - i] for window index i, and back is
    # added to the tile once: an add from a reversed view of 2^17 int32
    # entries costs about 3.7 forward ones.
    back = np.empty(_FOLD_TILE, dtype=np.int32) if even else None
    # The same 2P+1 slice adds, tiled so each tile of g stays in cache.
    # Window index i holds w = i + vmin + cmin; the add at offset o reads
    # v - base = i - o over a <= i < b, forward for i >= o and through
    # back at dense[o - i] for i < o.
    offsets = [c - cmin - vmin + base for c in cubes]
    for s in range(mid, width + span, _FOLD_TILE):
        e = min(s + _FOLD_TILE, width + span)
        tile = window[s - mid : e - mid]
        if back is not None:
            back[: e - s] = 0
        for o in offsets:
            a, b = max(s, o + vmin - base), min(e, o + vmax - base + 1)
            p, q = max(a, o), min(b, o)
            if p < b:
                tile[p - s : b - s] += dense[p - o : b - o]
            if a < q:
                back[e - q : e - a] += dense[o - q + 1 : o - a + 1]
        if back is not None:
            tile += back[: e - s][::-1]
    return (None if even else vmin + cmin - 1), g


def _read_fold(g, even: bool, k: int, v, w, bound: int) -> int:
    """Sum of w[i] * g[k - v[i]], or of w[i] * g[|k - v[i]|] when g is
    even, over values v in [-bound, bound]: a sorted histogram's, of counts
    w, or a scanned slab's, w None and each of weight 1.  Only v in [lo, hi]
    index g; a histogram gathers those alone, found by search, and a slab's
    others are clipped onto a zero end of g, so they read 0 with no mask.
    A slab's every k - v must fit int64, which representation_counts
    ensures by its choice of the scan."""
    n = len(g)
    lo, hi = k - n + 1, k + n - 1 if even else k
    if lo > bound or hi < -bound:
        return 0
    if w is not None:
        i0, i1 = np.searchsorted(v, lo), np.searchsorted(v, hi, side="right")
        v, w = v[i0:i1], w[i0:i1]
    total = 0
    # Tiles keep the gather in cache; each gathered tile, left unbound, dies before the next.
    for s in range(0, len(v), _FOLD_TILE):
        i = np.subtract(k, v[s : s + _FOLD_TILE], dtype=np.int64)
        if even:
            np.abs(i, out=i)
        total += int(np.take(g, i, mode="clip").sum(dtype=np.int64) if w is None
                     else np.dot(w[s : s + _FOLD_TILE], np.take(g, i, mode="clip")))
    return total


def _pair_count_sparse(h1: BlockHistogram, h2: BlockHistogram, t: int) -> int:
    """#{(v, w) : v + w = t} with v from h1 and w from h2, of one dtype."""
    if len(h1.vals) > len(h2.vals):
        h1, h2 = h2, h1  # shift the shorter histogram, search the longer
    # Only v with t - v in h2's range can pair.  So t and every t - v lie
    # within sums of two values, which int64 holds for int64 histograms.
    lo = max(t - int(h2.vals[-1]), int(h1.vals[0]))
    hi = min(t - int(h2.vals[0]), int(h1.vals[-1]))
    if lo > hi:
        return 0
    i0 = int(np.searchsorted(h1.vals, lo, side="left"))
    i1 = int(np.searchsorted(h1.vals, hi, side="right"))
    w = t - h1.vals[i0:i1]
    idx = np.searchsorted(h2.vals, w)
    mask = h2.vals[idx] == w
    # Counts are int64 for every value dtype, and the sum is at most
    # total1 * total2 <= _GRID_CAP^2 < 2^63.
    return int(h1.cnts[i0:i1][mask] @ h2.cnts[idx[mask]])


def representation_counts(form: CubicForm, Ns, P: int) -> list[int]:
    """Exact number of box points with f(x) = N, for each N in Ns.

    The block of the smaller a priori value bound, block 2 on a tie, is
    folded with the cubes: the one rule that can run before either
    histogram exists.  The other block's values are read against the fold
    by _read_fold, from one list of sources for every N: its histogram
    (several targets, identical blocks), an even one's u = 0 once and each
    u > 0 as the pair +-u, or for one target on distinct blocks the slabs
    of its fundamental domain (_sign_group, _sign_pieces), where every
    index of the scan fits int64: a bulk point of a group holding -I stands for
    |G|/2 points of value B and as many of -B, any other point for itself.
    Where the fold declines (a big-int histogram to read, a window refused
    by _cube_fold), each N sums sparse pair counts over its 2P+1 cube
    targets.
    """
    box, blocks = form.box, form.blocks()
    # The grid guards of both blocks, in block order, before any scan.
    grids = [_histogram_scan(l, q, box, P) for l, q in blocks]
    bounds = [_value_bound(l, q, box, P) for l, q in blocks]
    f, o = (1, 0) if bounds[1] <= bounds[0] else (0, 1)
    (l, q), r, bound = blocks[o], grids[o], bounds[o]
    h = value_histogram(*blocks[f], box, P)
    cubes = [form.a7 * t ** 3 for t in box_range(box, P)]
    # A read that passes _read_fold's window test has |k| <= bound + len(g)
    # and len(g) <= _DENSE_CAP + 2, so every scanned index |k - v| <=
    # 2 bound + len(g) fits int64 below this bound.
    scan = len(Ns) == 1 and blocks[0] != blocks[1] and bound < _INT64_SAFE - _DENSE_CAP
    other = None if scan else value_histogram(l, q, box, P)
    # _cube_fold refuses a big-int h: every box holds the origin or (1, 1, 1),
    # where |L*Q| < 2^45, so h's window is wider than _DENSE_CAP.
    folded = None if other is not None and other.is_big else _cube_fold(h, cubes)
    if folded is None:
        other = other or value_histogram(l, q, box, P)
        # The signed arrays once, not per cube target, with Python-int
        # values on both sides when either histogram is big.
        big = h.is_big or other.is_big
        h1, h2 = (BlockHistogram(x.vals.astype(object, copy=False) if big else x.vals, x.cnts)
                  for x in (h, other))
        return [sum(_pair_count_sparse(h1, h2, N - c) for c in cubes) for N in Ns]
    gmin, g = folded
    even = gmin is None
    # A source (v, w, m, pair) is values v of counts w (None: 1) times m,
    # with reads {k: weight}: a single value reads k = N - gmin, or N for
    # an even g.  A pair +-v is read only against an even fold, as the sym
    # box, the one box whose values come in pairs, always folds one:
    # g(N - v) + g(-N - v) is the reads N and -N, one of weight 2 at N = 0.
    if scan:
        group = _sign_group(l, q, r)
        (bulk, weight), *zeros = _sign_pieces(r, group)
        pieces = [(bulk, weight // 2, True) if len(group) > 1 else (bulk, weight, False)]
        pieces += [(axes, m, False) for axes, m in zeros]
        sources = ((v, None, m, pair) for axes, m, pair in pieces
                   for v in _plane_slabs(l, q, axes))
    else:
        u, n = other._vals, other._cnts
        bound = max(map(abs, other._range()))
        sources = ([(u[:1], n[:1], 1, False), (u[1:], n[1:], 1, True)] if other._even
                   else [(u, n, 1, False)])
    reads = [({N if even else N - gmin: 1}, collections.Counter((N, -N))) for N in Ns]
    # Every N reads a source before the next: a scanned slab is a view of
    # a buffer that the next slab overwrites.
    parts = [[m * sum(c * _read_fold(g, even, k, v, w, bound) for k, c in rs[pair].items())
              for rs in reads] for v, w, m, pair in sources]
    return [sum(col) for col in zip(*parts)]


def count_representations(form: CubicForm, N: int, P: int) -> int:
    """Exact number of box points with f(x) = N."""
    return representation_counts(form, [N], P)[0]


def count_zeros(form: CubicForm, P: int) -> int:
    """R(0; P); defined for the symmetric box only."""
    if form.box != "sym":
        raise DomainError("zero counting is defined for the sym box")
    return count_representations(form, 0, P)


def union_space_count(spaces, box: str, P: int) -> int:
    """Box points on the union of the spaces, by inclusion-exclusion.

    Each subset intersection is the integer kernel of the stacked covectors,
    counted directly in the box; no point set is ever materialized.
    """
    lo, hi = box_interval(box, P)
    total = 0
    for r in range(1, len(spaces) + 1):
        for subset in itertools.combinations(spaces, r):
            rows = [c for sp in subset for c in sp.covectors]
            cnt = lattice.count_lattice_points_in_box(lattice.integer_kernel(rows), lo, hi)
            total += cnt if r % 2 == 1 else -cnt
    return total


def chi(N: int, a7: int, box: str, P: int) -> int:
    """1 exactly when N = a7 * x^3 for some x in the box interval."""
    if a7 == 0 or N % a7 != 0:
        return 0
    x = icbrt_exact(N // a7)
    if x is None:
        return 0
    lo, hi = box_interval(box, P)
    return int(lo <= x <= hi)


@dataclass(frozen=True)
class MainTermReport(Payload):
    """Per-probe delta ratios and their fitted 1/P-extrapolated limits.

    delta1 = delta3 * delta4 holds exactly per probe (same N1, N2), and
    delta2 is defined as delta0 - delta1.
    """

    P_list: tuple[int, ...]
    rows: tuple[dict, ...]
    delta0: float
    delta1: float
    delta2: float
    delta3: float
    delta4: float


def block_zero_counts(form: CubicForm, P: int) -> tuple[int, int]:
    """N1, N2: exact per-block counts of box points where L*Q vanishes."""
    h1, h2 = (value_histogram(l, q, form.box, P) for l, q in form.blocks())
    return h1.count_of(0), h2.count_of(0)


def delta_constants(form: CubicForm, P_list) -> MainTermReport:
    """Lattice main-term constants from exact counts at each probe P."""
    P_list = tuple(int(P) for P in P_list)
    if len(P_list) < 2 or any(b <= a for a, b in zip(P_list, P_list[1:])):
        raise DomainError("need at least two strictly increasing probe radii")
    spaces = linear_spaces(form)
    rows = []
    for P in P_list:
        n1, n2 = block_zero_counts(form, P)
        union = union_space_count(spaces, form.box, P)
        r3 = n1 / P ** 2
        r4 = n2 / P ** 2
        r1 = n1 * n2 / P ** 4
        r0 = union / P ** 4
        rows.append({
            "P": P, "N1": n1, "N2": n2, "union": union,
            "delta3": r3, "delta4": r4, "delta1": r1,
            "delta0": r0, "delta2": r0 - r1,
        })
    d3, _ = fit.fit_offset_inverse(P_list, [r["delta3"] for r in rows])
    d4, _ = fit.fit_offset_inverse(P_list, [r["delta4"] for r in rows])
    d1, _ = fit.fit_offset_inverse(P_list, [r["delta1"] for r in rows])
    d0, _ = fit.fit_offset_inverse(P_list, [r["delta0"] for r in rows])
    return MainTermReport(P_list, tuple(rows), d0, d1, d0 - d1, d3, d4)
