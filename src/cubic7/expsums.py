"""Complete exponential sums over residues and the singular series.

S_block(q, a) sums e(a * L*Q / q) over a full residue cube; the cube-term
sum runs over one residue line.  Both are read off exact int64 residue
histograms.  The block histogram comes from a unimodular frame in which
L*Q = g*X1*Q'(X), by one of two routes with counts identical to a full
scan (see mod_histogram).  At a prime p >= 5 with g a unit mod p, the
point counts of the conics Q'(1, Y) = w, closed forms in quadratic
character sums, give it in O(p) work.  Every other modulus takes the frame
method: homogeneity of degree 3 reduces the q^3 cube to one plane per
divisor of q, O(q^2) work in all.  The normalized term

    S(q; N) = q^-7 * sum_{gcd(a,q)=1} S1 S2 S3 e(-aN/q)

is multiplicative in q, so partial series sums are assembled from prime
powers: each q splits off the power of its smallest prime, found by trial
division (arith.factorize).  S1, S2 and S3 at a unit a
depend only on the class of a in (Z/q)^* modulo cubes (x -> cx permutes
residues and scales every residue histogram's argument by c^3), so each
product is computed once per class, which is one class or three for a
prime power; see _unit_products for why the reuse is exact bit for bit.
The products are kept as arrays over the units.  One terms list serves a
series' value, tails and per-prime rows.  Everything here is single
threaded and summed with math.fsum, so results are bit-stable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import factorize, inverse_mod, is_prime, power_residues, primes_up_to
from .errors import DomainError, ResourceLimitError
from .forms import (
    _SLAB, CubicForm, _block_content, adjoint_matrix, block_frame, block_value,
    cube_residues,
)

MOD_CAP = 4096


def _check_positive(m: int) -> None:
    if m < 1:
        raise DomainError("modulus must be positive")


def _check_modulus(m: int) -> None:
    _check_positive(m)
    if m > MOD_CAP:
        raise ResourceLimitError(f"modulus {m} exceeds the cap {MOD_CAP}")


def _check_qmax(Qmax: int) -> None:
    if Qmax < 1:
        raise DomainError("Qmax must be at least 1")
    if Qmax > MOD_CAP:
        raise ResourceLimitError(f"Qmax {Qmax} exceeds the cap {MOD_CAP}")


@functools.lru_cache(maxsize=64)
def _phase_table(m: int):
    ang = np.arange(m, dtype=np.float64) * (2.0 * math.pi / m)
    return np.cos(ang), np.sin(ang)


@functools.lru_cache(maxsize=256)
def mod_histogram(l, q, m: int) -> np.ndarray:
    """Counts of L*Q mod m over the full residue cube (x, y, z mod m).

    Exact int64 counts, equal to a full scan, without visiting the m^3
    cells.  x -> Vx (V from forms.block_frame) permutes the cube and turns
    the block into B(X) = g*X1*Q'(X1, X2, X3), homogeneous of degree 3.
    Two routes read the histogram off that frame:

    - a prime m = p >= 5 with g a unit mod p: the closed form of
      _prime_histogram, O(p) work from conic point counts;
    - every other modulus (2, 3, prime powers, composites, and p | g):
      the frame method of _frame_histogram, O(m^2) work.
    """
    _check_modulus(m)
    _, lv, qv = block_frame(l, q)
    if m >= 5 and lv[0] % m and is_prime(m):
        return _prime_histogram(lv[0], qv, m)
    return _frame_histogram(lv, qv, m)


def _frame_histogram(lv, qv, m: int) -> np.ndarray:
    """mod_histogram by the frame method, for any modulus m.

    lv, qv are the frame coefficients of forms.block_frame.  Each X1 = t is
    d*u with d = gcd(t, m) and u a unit mod m, and X -> uX gives
    B(t, u*Y2, u*Y3) = u^3 * B(d, Y2, Y3): the slice X1 = t is the
    histogram H_d of the plane B(d, Y) pushed forward by v -> u^3 v.
    B(d, Y) mod m is a multiple of d and depends on Y mod n = m/d only, so
    H_d is counted on the n x n plane (each cell d^2 times) and u matters
    mod n only: H_d is pushed once per distinct cube of a unit mod n.
    Work: sum over d | m of (m/d)^2 plane cells and at most phi(m/d) * m/d
    pushed cells, under 3 m^2 in all, in row chunks of at most
    forms._SLAB cells.  For L = 0 every cell lands on residue 0.
    block_value skips the frame's zero coefficients, so a chunk's value can be
    a scalar (Q' = c*X1^2 or 0 mod m) or one row; it is broadcast to the chunk.
    """
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
            rows = y[s : s + step, None]
            v = np.broadcast_to(block_value(lv, qv, d, rows, y) % m, (len(rows), n))
            plane += np.bincount(v.ravel(), minlength=m)
        units = y[np.gcd(y, n) == 1]
        cubes, mult = np.unique(power_residues(3, n)[units], return_counts=True)
        vals = np.flatnonzero(plane)
        weights = plane[vals] * (d * d)
        step = max(1, _SLAB // len(vals))
        for s in range(0, len(cubes), step):
            idx = cubes[s : s + step, None] * vals % m
            np.add.at(counts, idx, mult[s : s + step, None] * weights)
    return counts


def _prime_histogram(g: int, qv, p: int) -> np.ndarray:
    """mod_histogram at a prime p >= 5 with g a unit mod p, in O(p).

    The plane X1 = 0 puts p^2 cells on residue 0.  For a unit t, Y -> tY
    turns the slice X1 = t into g*t^3*Q'(1, Y), so it is the plane count
    N(w) = #{Y in F_p^2 : Q'(1, Y) = w} of _plane_counts pushed forward by
    w -> g t^3 w.  Residue 0 gets p^2 + (p - 1) N(0).  For p = 2 mod 3,
    t^3 runs once over the units, so every v != 0 gets the sum of N over
    the units, p^2 - N(0).  For p = 1 mod 3, t^3 runs three times over the
    cubes, so v != 0 gets 3 times the sum of N over the coset of v/g in
    the units modulo cubes.
    """
    n = _plane_counts(qv, p)
    counts = np.zeros(p, dtype=np.int64)
    counts[0] = p * p + (p - 1) * n[0]
    if p % 3 == 2:
        counts[1:] = p * p - n[0]
        return counts
    # Coset labels 0, 1, 2 on the cubes, r * cubes and r^2 * cubes for a
    # non-cube r; the label of x/y is label(x) - label(y) mod 3.
    cubes = power_residues(3, p)[1:]
    r = int(np.flatnonzero(np.bincount(cubes, minlength=p)[1:] == 0)[0]) + 1
    label = np.zeros(p, dtype=np.int64)
    label[r * cubes % p] = 1
    label[r * r * cubes % p] = 2
    sums = np.zeros(3, dtype=np.int64)
    np.add.at(sums, label[1:], n[1:])
    counts[1:] = 3 * sums[(label[1:] - label[g % p]) % 3]
    return counts


def _plane_counts(qv, p: int) -> np.ndarray:
    """N(w) = #{(y, z) mod p : Q'(1, y, z) = w} for w mod p, p >= 5 prime.

    Q'(1, y, z) = A1 + A2 y^2 + A3 z^2 + B1 yz + B2 z + B3 y.  With A3 a
    unit (y and z swapped if only A2 is), each y has 1 + chi(D) roots z,
    D = alpha y^2 + beta y + gamma + 4 A3 w, so N(w) = p + sum_y chi(D):
    -chi(alpha) off the one w where D has a double root and (p - 1)
    chi(alpha) there; 0 when only alpha vanishes; p chi(gamma + 4 A3 w)
    when alpha and beta do.  With A2 = A3 = 0 the plane is a hyperbola
    B1 (y + B2/B1)(z + B3/B1) + const, a linear plane, or a constant.
    With M = forms.adjoint_matrix(Q') and j = 1 (j = 2 after the swap),
    alpha = M[0][0], beta = -2 M[0][j] and gamma = M[j][j].  For the frame
    block g*X1*Q', g^2 alpha = Delta(L, Q) (forms.delta), so with g a unit
    alpha vanishes mod p exactly when p | Delta: the alpha = 0 branches
    hold the Delta = 0 blocks of paper II at every p.
    """
    A1, A2, A3, B1, B2, B3 = (c % p for c in qv)
    j = 1
    if A3 == 0:
        A2, A3, B2, B3 = A3, A2, B3, B2
        j = 2
    n = np.zeros(p, dtype=np.int64)
    if A3:
        chi = np.bincount(power_residues(2, p), minlength=p) - 1  # chi[w] = (w / p)
        m = adjoint_matrix(qv)
        alpha = m[0][0] % p
        beta = -2 * m[0][j] % p
        gamma = m[j][j] % p
        if alpha:
            n += p - chi[alpha]
            kappa = (beta * beta - 4 * alpha * gamma) * inverse_mod(16 * alpha * A3, p)
            n[kappa % p] = p + (p - 1) * chi[alpha]
        elif beta:
            n += p
        else:
            n += p + p * chi[(gamma + 4 * A3 * np.arange(p, dtype=np.int64)) % p]
    elif B1:
        n += p - 1
        n[(A1 - B2 * B3 * inverse_mod(B1, p)) % p] = 2 * p - 1
    elif B2 or B3:
        n += p
    else:
        n[A1] = p * p
    return n


def _gather(hist: np.ndarray, m: int, mult: int) -> complex:
    idx = (mult % m) * np.arange(m, dtype=np.int64) % m
    cos_t, sin_t = _phase_table(m)
    h = hist.astype(np.float64)
    re = math.fsum((h * cos_t[idx]).tolist())
    im = math.fsum((h * sin_t[idx]).tolist())
    return complex(re, im)


def block_sum_any(l, q, modulus: int, mult: int) -> complex:
    """Sum of e(mult * L*Q / modulus) over the full residue cube.

    The block content g is pulled out first (forms._block_content): with c0 =
    gcd(g, modulus) the sum is c0^3 copies of the primitive-block sum at
    modulus/c0, or modulus^3 for g = 0.  No coprimality is required of mult
    (inner reduced sums need that).  A modulus above MOD_CAP is accepted
    when c0 brings modulus/c0 under it.
    """
    _check_positive(modulus)
    g, lp, qp = _block_content(tuple(int(v) for v in l), tuple(int(v) for v in q))
    c0 = math.gcd(g, modulus)
    mp = modulus // c0
    if mp == 1:
        return complex(modulus ** 3, 0.0)
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
    _check_modulus(modulus)
    counts = np.bincount(cube_residues(a7, modulus), minlength=modulus)
    return _gather(counts, modulus, mult)


def s3(q: int, a: int, a7: int) -> complex:
    """S_3(q, a) for the cube term; a must be a unit mod q."""
    if math.gcd(a, q) != 1:
        raise DomainError("a must be coprime to the modulus")
    return s_cube(a7, q, a)


@functools.lru_cache(maxsize=4096)
def _unit_products(a, q1, q2, q: int):
    """(units, t) for one modulus q >= 2, reused across all N: the units of
    Z/q in increasing order (int64) and S1*S2*S3 / q^7 at each (complex128).

    The product is computed once per class of units modulo cubes, at the
    class's smallest unit, and shared by every unit u*c^3 of the class.
    This is exact bit for bit: for a unit c, x -> cx permutes residues and
    multiplies L*Q and a7*x^3 by c^3, so each residue histogram is
    invariant under v -> c^3 v.  The gather at u*c^3 (content pull-out
    included, since c stays a unit mod modulus/c0) then sums the same
    multiset of float products as the gather at u, and fsum is correctly
    rounded.  A prime power q has one class when 3 does not divide phi(q)
    and three otherwise.  Both arrays are read-only: the cache shares them.
    """
    l1, l2, a7 = a[0:3], a[3:6], a[6]
    scale = float(q) ** -7
    todo = np.gcd(np.arange(q, dtype=np.int64), q) == 1
    units = np.flatnonzero(todo).astype(np.int64)
    cubes = np.flatnonzero(np.bincount(power_residues(3, q)[units], minlength=q))
    t = np.empty(q, dtype=np.complex128)
    while todo.any():
        u = int(np.argmax(todo))  # the smallest unit of a class not yet done
        k = u * cubes % q
        t[k] = (block_sum_any(l1, q1, q, u) * block_sum_any(l2, q2, q, u)
                * s_cube(a7, q, u) * scale)
        todo[k] = False
    t = t[units]
    units.flags.writeable = t.flags.writeable = False
    return units, t


def singular_term(form: CubicForm, q: int, N: int) -> float:
    """S(q; N): one normalized term of the singular series, the fsum over
    the units u of the real part of t(u) e(-uN/q), one float per unit."""
    _check_modulus(q)
    if q == 1:
        return 1.0
    cos_t, sin_t = _phase_table(q)
    units, t = _unit_products(form.a, form.q1, form.q2, q)
    k = -units * (N % q) % q
    return math.fsum((t.real * cos_t[k] - t.imag * sin_t[k]).tolist())


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
    tails = tuple((qp, _tail(terms, qp)) for qp in (Qmax // 4, Qmax // 2, Qmax)
                  if qp >= 2)
    return SeriesEstimate(_prefix(terms, Qmax), Qmax, tuple(terms), tails)


def _prefix(terms, Q: int) -> float:
    """fsum(terms[1..Q]), correctly rounded."""
    return math.fsum(terms[1 : Q + 1])


def _tail(terms, Q: int) -> float:
    """|series(Q) - series(Q // 2)|, the settling of the partial sums."""
    return abs(_prefix(terms, Q) - _prefix(terms, Q // 2))


def singular_series_terms(form: CubicForm, N: int, Qmax: int) -> list[float]:
    """terms[q] = S(q; N), with terms[0] unused; multiplicative assembly."""
    _check_qmax(Qmax)
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


def prime_power_profile(terms) -> list[dict]:
    """Per-prime view of a terms list (Qmax = len(terms) - 1): the
    S(p^k; N) terms actually entering the series."""
    Qmax = len(terms) - 1
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
    return [(Q, _tail(terms, 2 * Q)) for Q in q_points]
