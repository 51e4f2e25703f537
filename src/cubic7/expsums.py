"""Complete exponential sums over residues and the singular series.

S_block(q, a) sums e(a * L*Q / q) over a full residue cube; the cube-term
sum runs over one residue line.  Both are read off exact int64 residue
histograms.  The block histogram comes from a unimodular frame in which
L*Q = g*X1*Q'(X): homogeneity of degree 3 reduces the q^3 cube to one
plane per divisor of q, O(q^2) work in all (see mod_histogram), with
counts identical to a full scan.  The normalized term

    S(q; N) = q^-7 * sum_{gcd(a,q)=1} S1 S2 S3 e(-aN/q)

is multiplicative in q, so partial series sums are assembled from prime
powers: each q splits off the power of its smallest prime, found by trial
division (arith.factorize).  S1, S2 and S3 at a unit a
depend only on the class of a in (Z/q)^* modulo cubes (x -> cx permutes
residues and scales every residue histogram's argument by c^3), so each
product is computed once per class, which is one class or three for a
prime power; see _unit_products for why the reuse is exact bit for bit.
Everything here is single threaded and summed with math.fsum, so results
are bit-stable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import content, factorize, primes_up_to
from .errors import DomainError, ResourceLimitError
from .forms import _SLAB, CubicForm, block_frame, block_value, cube_residues

MOD_CAP = 4096


@functools.lru_cache(maxsize=64)
def _phase_table(m: int):
    ang = np.arange(m, dtype=np.float64) * (2.0 * math.pi / m)
    return np.cos(ang), np.sin(ang)


@functools.lru_cache(maxsize=256)
def mod_histogram(l, q, m: int) -> np.ndarray:
    """Counts of L*Q mod m over the full residue cube (x, y, z mod m).

    Exact int64 counts from a unimodular frame, without visiting the m^3
    cells.  x -> Vx (V from forms.block_frame) permutes the cube and turns
    the block into B(X) = g*X1*Q'(X1, X2, X3), homogeneous of degree 3.
    Each X1 = t is d*u with d = gcd(t, m) and u a unit mod m, and X -> uX
    gives B(t, u*Y2, u*Y3) = u^3 * B(d, Y2, Y3): the slice X1 = t is the
    histogram H_d of the plane B(d, Y) pushed forward by v -> u^3 v.
    B(d, Y) mod m is a multiple of d and depends on Y mod n = m/d only, so
    H_d is counted on the n x n plane (each cell d^2 times) and u matters
    mod n only: H_d is pushed once per distinct cube of a unit mod n.
    Work: sum over d | m of (m/d)^2 plane cells and at most phi(m/d) * m/d
    pushed cells, under 3 m^2 in all, in row chunks of at most
    forms._SLAB cells.  For L = 0 every cell lands on residue 0.
    """
    if m < 1:
        raise DomainError("modulus must be positive")
    if m > MOD_CAP:
        raise ResourceLimitError(f"modulus {m} exceeds the cap {MOD_CAP}")
    _, lv, qv = block_frame(l, q)
    # Reduced coefficients keep |B(d, Y)| below 2 m^5 <= 2^61 in int64.
    lv = tuple(c % m for c in lv)
    qv = tuple(c % m for c in qv)
    counts = np.zeros(m, dtype=np.int64)
    for d in range(1, m + 1):
        if m % d:
            continue
        n = m // d
        y = np.arange(n, dtype=np.int64)
        plane = np.zeros(m, dtype=np.int64)
        step = max(1, _SLAB // n)
        for s in range(0, n, step):
            v = block_value(lv, qv, d, y[s : s + step, None], y) % m
            plane += np.bincount(v.ravel(), minlength=m)
        units = y[np.gcd(y, n) == 1]
        cubes, mult = np.unique(units * units % n * units % n, return_counts=True)
        vals = np.flatnonzero(plane)
        weights = plane[vals] * (d * d)
        step = max(1, _SLAB // len(vals))
        for s in range(0, len(cubes), step):
            idx = cubes[s : s + step, None] * vals % m
            np.add.at(counts, idx, mult[s : s + step, None] * weights)
    return counts


def _gather(hist: np.ndarray, m: int, mult: int) -> complex:
    idx = (mult % m) * np.arange(m, dtype=np.int64) % m
    cos_t, sin_t = _phase_table(m)
    h = hist.astype(np.float64)
    re = math.fsum((h * cos_t[idx]).tolist())
    im = math.fsum((h * sin_t[idx]).tolist())
    return complex(re, im)


def block_sum_any(l, q, modulus: int, mult: int) -> complex:
    """Sum of e(mult * L*Q / modulus) over the full residue cube.

    The block content g is pulled out first: with c0 = gcd(g, modulus) the
    sum collapses to c0^3 copies of the primitive-block sum at modulus/c0.
    No coprimality is required of mult (inner reduced sums need that).
    """
    l = tuple(int(v) for v in l)
    q = tuple(int(v) for v in q)
    cl = content(l)
    cq = content(q)
    g = cl * cq
    c0 = math.gcd(g, modulus)
    mp = modulus // c0
    if mp == 1:
        return complex(modulus ** 3, 0.0)
    lp = tuple(v // cl for v in l)
    qp = tuple(v // cq for v in q)
    hist = mod_histogram(lp, qp, mp)
    mult2 = (mult * (g // c0)) % mp
    return (c0 ** 3) * _gather(hist, mp, mult2)


def s_block(l, q, modulus: int, a: int) -> complex:
    """S_i(q, a) for one block; a must be a unit mod q."""
    if math.gcd(a, modulus) != 1:
        raise DomainError("a must be coprime to the modulus")
    return block_sum_any(l, q, modulus, a)


def s_cube(a7: int, modulus: int, mult: int) -> complex:
    """Sum of e(mult * a7 * x^3 / modulus) over one residue line."""
    if modulus < 1:
        raise DomainError("modulus must be positive")
    if modulus == 1:
        return complex(1.0, 0.0)
    if modulus > MOD_CAP:
        raise ResourceLimitError(f"modulus {modulus} exceeds the cap {MOD_CAP}")
    counts = np.bincount(cube_residues(a7, modulus), minlength=modulus)
    return _gather(counts, modulus, mult)


def s3(q: int, a: int, a7: int) -> complex:
    """S_3(q, a) for the cube term; a must be a unit mod q."""
    if math.gcd(a, q) != 1:
        raise DomainError("a must be coprime to the modulus")
    return s_cube(a7, q, a)


@functools.lru_cache(maxsize=4096)
def _unit_products(a, q1, q2, q: int):
    """[(a_unit, S1*S2*S3 / q^7)] for one modulus, reused across all N.

    The product is computed once per class of units modulo cubes, at the
    class's smallest unit, and shared by every unit u*c^3 of the class.
    This is exact bit for bit: for a unit c, x -> cx permutes residues and
    multiplies L*Q and a7*x^3 by c^3, so each residue histogram is
    invariant under v -> c^3 v.  The gather at u*c^3 (content pull-out
    included, since c stays a unit mod modulus/c0) then sums the same
    multiset of float products as the gather at u, and fsum is correctly
    rounded.  A prime power q has one class when 3 does not divide phi(q)
    and three otherwise.
    """
    l1, l2, a7 = a[0:3], a[3:6], a[6]
    scale = float(q) ** -7
    units = [u for u in range(1, q + 1) if math.gcd(u, q) == 1]
    cubes = {u * u * u % q for u in units}
    by_residue = {}
    for u in units:
        if u % q in by_residue:
            continue
        t = (
            block_sum_any(l1, q1, q, u)
            * block_sum_any(l2, q2, q, u)
            * s_cube(a7, q, u)
            * scale
        )
        for c in cubes:
            by_residue[u * c % q] = t
    return tuple((u, by_residue[u % q]) for u in units)


def singular_term(form: CubicForm, q: int, N: int) -> float:
    """S(q; N): one normalized term of the singular series (real part)."""
    if q == 1:
        return 1.0
    cos_t, sin_t = _phase_table(q)
    nq = N % q
    re = []
    for u, t in _unit_products(form.a, form.q1, form.q2, q):
        k = (-u * nq) % q
        re.append(t.real * cos_t[k] - t.imag * sin_t[k])
    return math.fsum(re)


@dataclass(frozen=True)
class SeriesEstimate:
    """Truncated singular series with per-q terms and tail indicators."""

    value: float
    Q: int
    terms: tuple[float, ...]  # terms[q] = S(q; N); terms[0] unused
    tail_indicator: tuple[tuple[int, float], ...]


def singular_series(form: CubicForm, N: int, Qmax: int) -> SeriesEstimate:
    """Partial singular series over q <= Qmax, with internal tail markers.

    Tail indicators report |series(Q') - series(Q'/2)| at Q' = Qmax/4,
    Qmax/2, Qmax, a direct view of how fast the partial sums settle.
    """
    terms = singular_series_terms(form, N, Qmax)
    tails = []
    for qp in (Qmax // 4, Qmax // 2, Qmax):
        if qp >= 2:
            tails.append((qp, abs(_prefix(terms, qp) - _prefix(terms, qp // 2))))
    return SeriesEstimate(_prefix(terms, Qmax), Qmax, tuple(terms), tuple(tails))


def _prefix(terms, Q: int) -> float:
    """fsum(terms[1..Q]), correctly rounded."""
    return math.fsum(terms[1 : Q + 1])


def singular_series_terms(form: CubicForm, N: int, Qmax: int) -> list[float]:
    """terms[q] = S(q; N), with terms[0] unused; multiplicative assembly."""
    if Qmax < 1:
        raise DomainError("Qmax must be at least 1")
    if Qmax > MOD_CAP:
        raise ResourceLimitError(f"Qmax {Qmax} exceeds the cap {MOD_CAP}")
    terms = [0.0] * (Qmax + 1)
    terms[1] = 1.0
    for q in range(2, Qmax + 1):
        p, k = factorize(q)[0]  # smallest prime factor first
        pk = p ** k
        if pk == q:
            terms[q] = singular_term(form, q, N)
        else:
            terms[q] = terms[q // pk] * terms[pk]
    return terms


def prime_power_profile(form: CubicForm, N: int, Qmax: int) -> list[dict]:
    """Per-prime view: the S(p^k; N) terms actually entering the series."""
    terms = singular_series_terms(form, N, Qmax)
    out = []
    for p in primes_up_to(Qmax):
        row = []
        pk = p
        while pk <= Qmax:
            row.append(terms[pk])
            pk *= p
        out.append({"p": p, "terms": row})
    return out


def series_tail_profile(form: CubicForm, N: int, q_points) -> list[tuple[int, float]]:
    """[(Q, |series(2Q) - series(Q)|)] for the requested checkpoints."""
    terms = singular_series_terms(form, N, 2 * max(q_points))
    return [(Q, abs(_prefix(terms, 2 * Q) - _prefix(terms, Q))) for Q in q_points]
