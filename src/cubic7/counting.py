"""Exact representation counts R(N; P) by block-histogram convolution.

Each ternary block contributes a value histogram over the box; the count of
f = N is a convolution of the two histograms against the cube term.  All
arithmetic is exact.  A histogram is a sorted array of distinct values with
int64 multiplicities; the values are int64 when the a priori bound proves
they fit and Python integers (object dtype) otherwise.  The cube term is
folded once into the narrower histogram, g = h * {a7 t^3}, by 2P+1 dense
slice adds; every N is then one int64 dot of the other histogram's counts
against g.  An entry of g is at most the folded total (v and w fix t), so g
is int32 below 2^31, and every partial sum of a dot is at most total1 *
total2 <= _GRID_CAP^2 < 2^63.  Big-int histograms, a failed 2^63 bound or a
fold window above _DENSE_CAP fall back to sparse Python-int sums per cube
target.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import lattice
from .arith import icbrt, icbrt_exact
from .errors import DomainError, ResourceLimitError
from .forms import CubicForm, block_slabs, block_value, box_interval, box_range

_GRID_CAP = 68_000_000  # lattice points per block enumeration
_GRID_CAP_BIG = 2_000_000  # same, on the exact big-integer fallback path
_DENSE_CAP = 200_000_000  # cube-fold window width
_FOLD_TILE = 1 << 17  # fold entries per cache tile
_INT64_SAFE = 1 << 62
_INT32_LIMIT = 1 << 31  # fold entries below this are int32
_INT64_LIMIT = 1 << 63  # counts below this are exact int64 dots


class BlockHistogram:
    """Multiset of one block's values over the box, value -> multiplicity.

    vals is a sorted array of distinct values, int64 when the a priori bound
    certifies it and object dtype (Python ints) otherwise; cnts is int64.
    """

    __slots__ = ("vals", "cnts")

    def __init__(self, vals, cnts):
        self.vals = vals
        self.cnts = cnts

    @property
    def is_big(self) -> bool:
        return self.vals.dtype == object

    def total(self) -> int:
        return int(self.cnts.sum())

    def count_of(self, v: int) -> int:
        i = int(np.searchsorted(self.vals, v))
        if i < len(self.vals) and int(self.vals[i]) == v:
            return int(self.cnts[i])
        return 0

    def items(self):
        return zip(self.vals.tolist(), self.cnts.tolist())

    def zero_count(self) -> int:
        """N_i: the number of triples where the block vanishes."""
        return self.count_of(0)

    def nonzero_items(self):
        """(n, count) pairs with the n = 0 mass left out, sorted by n."""
        return ((v, c) for v, c in self.items() if v != 0)


def _merge_unique(v1, c1, v2, c2):
    v = np.concatenate([v1, v2])
    c = np.concatenate([c1, c2])
    order = np.argsort(v, kind="stable")
    v = v[order]
    c = c[order]
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    return v[starts], np.add.reduceat(c, starts)


@functools.lru_cache(maxsize=16)
def value_histogram(l, q, box: str, P: int) -> BlockHistogram:
    """Histogram of L*Q over the box of radius P (exact multiplicities)."""
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
    # |L*Q| <= sum|l| * R * sum|q| * R^2 with R the largest |coordinate|.
    R = max(abs(lo), abs(hi))
    if sum(map(abs, l)) * sum(map(abs, q)) * R ** 3 >= _INT64_SAFE:
        if m ** 3 > _GRID_CAP_BIG:
            raise ResourceLimitError(
                "coefficients too large for the int64 path at this P"
            )
        pts = itertools.product(range(lo, hi + 1), repeat=3)
        hist = Counter(itertools.starmap(functools.partial(block_value, l, q), pts))
        vals = sorted(hist)
        return BlockHistogram(np.array(vals, dtype=object),
                              np.array([hist[v] for v in vals], dtype=np.int64))
    vals = np.empty(0, dtype=np.int64)
    cnts = np.empty(0, dtype=np.int64)
    for _, v in block_slabs(l, q, np.arange(lo, hi + 1, dtype=np.int64)):
        u, c = np.unique(v, return_counts=True)
        vals, cnts = _merge_unique(vals, cnts, u, c)
    return BlockHistogram(vals, cnts)


def _cube_fold(h: BlockHistogram, cubes):
    """(gmin, g) with g[w - gmin] = #{(v, t) : v + a7 t^3 = w}, v counted
    with its multiplicity in h and a7 t^3 running over `cubes`; None when
    the fold window is wider than _DENSE_CAP.

    Given w and v, the cube a7 t^3 = w - v fixes t, so no entry of g
    exceeds h.total(): g is int32 below 2^31 and int64 otherwise.
    """
    vmin = int(h.vals[0])
    width = int(h.vals[-1]) - vmin + 1
    cmin = min(cubes)
    span = max(cubes) - cmin
    if width + span > _DENSE_CAP:
        return None
    dtype = np.int32 if h.total() < _INT32_LIMIT else np.int64
    dense = np.zeros(width, dtype=dtype)
    dense[h.vals - vmin] = h.cnts
    g = np.zeros(width + span, dtype=dtype)
    starts = [c - cmin for c in cubes]
    # The same 2P+1 slice adds, tiled so each tile of g stays in cache.
    for s in range(0, len(g), _FOLD_TILE):
        e = min(s + _FOLD_TILE, len(g))
        tile = g[s:e]
        for o in starts:
            a, b = max(s, o), min(e, o + width)
            if a < b:
                tile[a - s : b - s] += dense[a - o : b - o]
    return vmin + cmin, g


def _fold(h1: BlockHistogram, h2: BlockHistogram, cubes):
    """(other, gmin, g): the cube term folded into the narrower histogram,
    or None when an int64 count is not certified exact or the fold is
    refused by _cube_fold.

    A count sums nonnegative terms to R(N; P) <= total1 * total2, so every
    product and partial sum of its dot is exact below 2^63.
    """
    if h1.is_big or h2.is_big or h1.total() * h2.total() >= _INT64_LIMIT:
        return None
    if h2.vals[-1] - h2.vals[0] <= h1.vals[-1] - h1.vals[0]:
        narrow, other = h2, h1
    else:
        narrow, other = h1, h2
    folded = _cube_fold(narrow, cubes)
    if folded is None:
        return None
    return (other, *folded)


def _fold_count(other: BlockHistogram, gmin: int, g, N: int) -> int:
    """#{(v, w) : v + w = N} with v from `other` and w from the fold g."""
    lo = max(N - (gmin + len(g) - 1), int(other.vals[0]))
    hi = min(N - gmin, int(other.vals[-1]))
    if lo > hi:
        return 0
    i0 = int(np.searchsorted(other.vals, lo, side="left"))
    i1 = int(np.searchsorted(other.vals, hi, side="right"))
    return int(np.dot(other.cnts[i0:i1], g[(N - gmin) - other.vals[i0:i1]]))


def _pair_count_sparse(h1: BlockHistogram, h2: BlockHistogram, t: int) -> int:
    if t < int(h1.vals[0]) + int(h2.vals[0]) or t > int(h1.vals[-1]) + int(h2.vals[-1]):
        return 0
    if len(h1.vals) > len(h2.vals):
        h1, h2 = h2, h1  # shift the shorter histogram, search the longer
    # Object dtype as soon as either block is big, so t - v stays exact.
    w = np.subtract(t, h1.vals, dtype=np.result_type(h1.vals, h2.vals))
    idx = np.searchsorted(h2.vals, w)
    idx[idx >= len(h2.vals)] = 0
    mask = h2.vals[idx] == w
    # Python-int accumulation: this path runs exactly when the int64 fold
    # is refused.
    c1 = h1.cnts[mask].tolist()
    c2 = h2.cnts[idx[mask]].tolist()
    return sum(a * b for a, b in zip(c1, c2))


def representation_counts(form: CubicForm, Ns, P: int) -> list[int]:
    """Exact number of box points with f(x) = N, for each N in Ns.

    The cube term is folded once into a block histogram and every N is one
    int64 dot against the fold; when the fold is refused, each N sums
    sparse pair counts over its 2P+1 cube targets.
    """
    h1 = value_histogram(form.l1, form.q1, form.box, P)
    h2 = value_histogram(form.l2, form.q2, form.box, P)
    cubes = [form.a7 * t ** 3 for t in box_range(form.box, P)]
    fold = _fold(h1, h2, cubes)
    if fold is None:
        if h1.is_big != h2.is_big:
            # Python-int values on both sides once, not per cube target.
            h1, h2 = (h if h.is_big else BlockHistogram(h.vals.astype(object), h.cnts)
                      for h in (h1, h2))
        return [sum(_pair_count_sparse(h1, h2, N - c) for c in cubes) for N in Ns]
    return [_fold_count(*fold, N) for N in Ns]


def count_representations(form: CubicForm, N: int, P: int) -> int:
    """Exact number of box points with f(x) = N."""
    return representation_counts(form, [N], P)[0]


def count_zeros(form: CubicForm, P: int) -> int:
    """R(0; P); defined for the symmetric box only."""
    if form.box != "sym":
        raise DomainError("zero counting is defined for the sym box")
    return count_representations(form, 0, P)


def lattice_space_count(space, box: str, P: int) -> int:
    """Exact number of box points on one linear space."""
    lo, hi = box_interval(box, P)
    return lattice.count_lattice_points_in_box(space.kernel_basis(), lo, hi)


def union_kernel_count(cov_sets, box: str, P: int) -> int:
    """Box points on a union of covector kernels, by inclusion-exclusion.

    Each subset intersection is the integer kernel of the stacked covectors,
    counted directly in the box; no point set is ever materialized.
    """
    lo, hi = box_interval(box, P)
    total = 0
    n = len(cov_sets)
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            rows = []
            for i in subset:
                rows.extend(cov_sets[i])
            kernel = lattice.integer_kernel(rows)
            cnt = lattice.count_lattice_points_in_box(kernel, lo, hi)
            total += cnt if r % 2 == 1 else -cnt
    return total


def union_space_count(spaces, box: str, P: int) -> int:
    return union_kernel_count([sp.covectors for sp in spaces], box, P)


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
class MainTermReport:
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

    def to_dict(self) -> dict:
        return {
            "P_list": list(self.P_list),
            "rows": [dict(r) for r in self.rows],
            "delta0": self.delta0,
            "delta1": self.delta1,
            "delta2": self.delta2,
            "delta3": self.delta3,
            "delta4": self.delta4,
        }


def delta_constants(form: CubicForm, P_list) -> MainTermReport:
    """Lattice main-term constants from exact counts at each probe P."""
    from . import fit
    from .forms import linear_spaces

    P_list = tuple(int(P) for P in P_list)
    if len(P_list) < 2 or any(b <= a for a, b in zip(P_list, P_list[1:])):
        raise DomainError("need at least two strictly increasing probe radii")
    spaces = linear_spaces(form)
    rows = []
    for P in P_list:
        n1 = value_histogram(form.l1, form.q1, form.box, P).count_of(0)
        n2 = value_histogram(form.l2, form.q2, form.box, P).count_of(0)
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
