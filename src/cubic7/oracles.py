"""Independent reference implementations behind `verify` and the tests.

Everything here recomputes from raw coefficients with the dumbest correct
method available (full enumeration, direct triple sums, textbook minors).
Nothing here imports the kernels it checks: only the CubicForm container
and the box interval come from the package, and L*Q is evaluated by the
private `_block` below.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .forms import CubicForm, box_interval


def _quad(q, x, y, z):
    A1, A2, A3, B1, B2, B3 = q
    return A1 * x * x + A2 * y * y + A3 * z * z + B1 * y * z + B2 * z * x + B3 * x * y


def _block(l, q, x, y, z):
    return (l[0] * x + l[1] * y + l[2] * z) * _quad(q, x, y, z)


def _form_value(form: CubicForm, x):
    return (
        _block(form.l1, form.q1, x[0], x[1], x[2])
        + _block(form.l2, form.q2, x[3], x[4], x[5])
        + form.a7 * x[6] * x[6] * x[6]
    )


def block_values_brute(l, q, box: str, P: int) -> dict:
    """Histogram of L(x,y,z) * Q(x,y,z) by a plain triple loop."""
    lo, hi = box_interval(box, P)
    rng = range(lo, hi + 1)
    hist: dict = {}
    for x, y, z in itertools.product(rng, rng, rng):
        v = _block(l, q, x, y, z)
        hist[v] = hist.get(v, 0) + 1
    return hist


def representation_counts_brute(form: CubicForm, P: int) -> dict:
    """All counts {N: #solutions of f = N} by full 7-grid enumeration."""
    lo, hi = box_interval(form.box, P)
    r = np.arange(lo, hi + 1, dtype=np.int64)
    g = np.meshgrid(r, r, r, r, r, r, r, indexing="ij")
    vals = _form_value(form, [c.ravel() for c in g])
    uniq, counts = np.unique(vals, return_counts=True)
    return dict(zip(uniq.tolist(), counts.tolist()))


def union_membership_brute(form: CubicForm, cov_sets, P: int) -> int:
    """Box points killed by at least one covector triple, by full scan."""
    lo, hi = box_interval(form.box, P)
    count = 0
    for x in itertools.product(range(lo, hi + 1), repeat=7):
        for covs in cov_sets:
            if all(sum(c * t for c, t in zip(cov, x)) == 0 for cov in covs):
                count += 1
                break
    return count


def block_sum_brute(l, q, modulus: int, mult: int) -> complex:
    """Direct triple sum of e(mult * L*Q / modulus) over residues."""
    total = 0j
    w = 2j * cmath.pi / modulus
    for x, y, z in itertools.product(range(modulus), repeat=3):
        total += cmath.exp(w * (mult * _block(l, q, x, y, z) % modulus))
    return total


def projective_zeros_brute(l, q, p: int) -> int:
    """M_p: the points of the projective plane over F_p where L*Q vanishes,
    counted over the representatives (1, y, z), (0, 1, z) and (0, 0, 1)."""
    points = [(1, y, z) for y in range(p) for z in range(p)]
    points += [(0, 1, z) for z in range(p)] + [(0, 0, 1)]
    return sum(_block(l, q, *x) % p == 0 for x in points)


def cube_sum_brute(a7: int, modulus: int, mult: int) -> complex:
    total = 0j
    w = 2j * cmath.pi / modulus
    for x in range(modulus):
        total += cmath.exp(w * (mult * a7 * x ** 3 % modulus))
    return total


def singular_term_brute(form: CubicForm, q: int, N: int) -> float:
    """S(q; N) from the three brute sums, no multiplicative shortcuts."""
    if q == 1:
        return 1.0
    total = 0j
    w = 2j * cmath.pi / q
    for a in range(1, q + 1):
        if math.gcd(a, q) != 1:
            continue
        total += (
            block_sum_brute(form.l1, form.q1, q, a)
            * block_sum_brute(form.l2, form.q2, q, a)
            * cube_sum_brute(form.a7, q, a)
            * cmath.exp(-w * (a * N % q))
        )
    return (total / q ** 7).real


def adjugate_brute(m) -> list:
    """Classical adjugate of a 3x3 integer matrix via cofactor minors."""
    def minor(i, j):
        rows = [r for k, r in enumerate(m) if k != i]
        cols = [[v for k, v in enumerate(r) if k != j] for r in rows]
        return cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]

    return [[(-1) ** (i + j) * minor(j, i) for j in range(3)] for i in range(3)]


def det3(u) -> int:
    """Determinant of a 3x3 integer matrix by cofactor expansion."""
    return (
        u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
        - u[0][1] * (u[1][0] * u[2][2] - u[1][2] * u[2][0])
        + u[0][2] * (u[1][0] * u[2][1] - u[1][1] * u[2][0])
    )


def random_unimodular(rng):
    """A random 3x3 integer matrix with entries in [-2, 2] and det +-1."""
    while True:
        u = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if det3(u) in (1, -1):
            return u


def apply_unimodular(l, q, u):
    """Coefficients of (L o U) and (Q o U) for the change x -> U x."""
    cols = [tuple(u[i][j] for i in range(3)) for j in range(3)]
    lu = tuple(sum(l[i] * c[i] for i in range(3)) for c in cols)
    nA = [_quad(q, *c) for c in cols]
    # Polarization: for columns u1, u2, u3 of U, the y*z coefficient of
    # Q(Ux) is Q(u2 + u3) - Q(u2) - Q(u3), and likewise for zx and xy.
    nB = [
        _quad(q, *(a + b for a, b in zip(cols[j], cols[k]))) - nA[j] - nA[k]
        for j, k in ((1, 2), (2, 0), (0, 1))
    ]
    return lu, (*nA, *nB)


# Degree-3 monomials in the fixed order of product_cubic_coeffs.
_MONOMIALS = (
    (3, 0, 0), (0, 3, 0), (0, 0, 3),
    (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2),
    (1, 1, 1),
)


def product_cubic_coeffs(l, q, p: int) -> tuple:
    """Coefficients of L*Q mod p in the _MONOMIALS order."""
    a1, a2, a3 = l
    A1, A2, A3, B1, B2, B3 = q
    raw = (
        a1 * A1, a2 * A2, a3 * A3,
        a1 * B3 + a2 * A1, a1 * B2 + a3 * A1, a1 * A2 + a2 * B3,
        a2 * B1 + a3 * A2, a1 * A3 + a3 * B2, a2 * A3 + a3 * B1,
        a1 * B1 + a2 * B2 + a3 * B3,
    )
    return tuple(c % p for c in raw)


def special_orbit_brute(p: int) -> frozenset:
    """GL3(F_p) orbit of the model block of local case ii (p = 2) or iii (p = 3).

    The models are x * (y^2 + x y) and x * (x^2 + 2 y^2); the orbit holds the
    cubic coefficients mod p of the model composed with every U of nonzero
    determinant mod p.
    """
    l, q = {2: ((1, 0, 0), (0, 1, 0, 0, 0, 1)), 3: ((1, 0, 0), (1, 2, 0, 0, 0, 0))}[p]
    rows = list(itertools.product(range(p), repeat=3))
    return frozenset(
        product_cubic_coeffs(*apply_unimodular(l, q, u), p)
        for u in itertools.product(rows, repeat=3)
        if det3(u) % p != 0
    )


def power_count_brute(k: int, q: int, m: int) -> int:
    return sum(1 for x in range(1, q + 1) if pow(x, k, q) == m % q)


def surface_count_brute(A: int, N: int, P: int) -> int:
    """x(xy + z^2) + A w^3 = N with the block nonzero, by full 4-loop."""
    count = 0
    rng = range(-P, P + 1)
    for x, y, z, w in itertools.product(rng, rng, rng, rng):
        b = x * (x * y + z * z)
        if b != 0 and b + A * w ** 3 == N:
            count += 1
    return count


def achievable_residues_brute(form: CubicForm, m: int) -> set:
    """All residues of f mod m, by scanning the full residue grid."""
    return {
        _form_value(form, x) % m for x in itertools.product(range(m), repeat=7)
    }
