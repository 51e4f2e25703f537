"""Local solvability: block case analysis, gamma exponents, congruences.

Each primitive block falls into one of four cases at a prime p:

  i    Q is proportional to L^2 mod p (lambda = 0 allowed);
  ii   p = 2 and L*Q is equivalent to x^2 y + x y^2 = x y (x + y) over F_2;
  iii  p = 3 and L*Q is equivalent to x^3 + 2 x y^2 = x (x - y)(x + y)
       over F_3;
  iv   everything else (no local obstruction from this block).

The orbits of cases ii and iii are the products of three pairwise
non-proportional linear forms of one pencil: over F_2 a pencil holds
exactly three forms, and over F_3 PGL2 is 3-transitive on its four,
with the scalar +-1 taken into a factor.  L is one of the three by unique
factorisation, so both cases are the test Q = M * (L + b*M) (mod p) with
b != 0 and M independent of L.

The per-prime exponents gamma / gamma' combine the block exponents with
the valuations of the content multipliers (c1, c2, c3).  The product
M  = c * prod p^gamma(p)   controls the congruence test f = N (mod M);
M' = c * prod p^gamma'(p)  is the sufficiency modulus: M' | N forces
solvability.  Congruence decisions are exact: exhaustive residue search
for small moduli, Newton lifting for large prime powers, and an honest
resource error when neither can decide.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arith import crt_pair, factorize, inverse_mod, is_prime, v_p
from .errors import DegenerateBlockError, DomainError, ResourceLimitError
from .forms import (
    CubicForm, _permute_block, _primed, block_slabs, content_decomposition,
    cube_residues,
)

_EXHAUSTIVE_CAP = 360  # prime powers up to this are decided by full search
_MODULUS_CAP = 10 ** 8


def _pencil_product(l, q, p: int) -> bool:
    """Whether Q = M * (L + b*M) (mod p) for some b != 0 and M independent of L.

    Then L*Q is the product of three pairwise non-proportional linear forms
    of the pencil spanned by L and M.  With L = 0 (mod p) it never holds.
    """
    pairs = ((1, 2), (2, 0), (0, 1))  # also the order of B1, B2, B3
    for b in range(1, p):
        # The squares fix each m[i] to a root of m * (l[i] + b*m) = q[i].
        roots = [[c for c in range(p) if (c * (l[i] + b * c) - q[i]) % p == 0]
                 for i in range(3)]
        for m in itertools.product(*roots):
            if not any((l[j] * m[k] - l[k] * m[j]) % p for j, k in pairs):
                continue  # M = 0 or M proportional to L
            u = [l[i] + b * m[i] for i in range(3)]
            if all((m[j] * u[k] + m[k] * u[j] - q[3 + n]) % p == 0
                   for n, (j, k) in enumerate(pairs)):
                return True
    return False


@dataclass(frozen=True)
class BlockLocalData:
    prime: int
    case: str  # "i" | "ii" | "iii" | "iv"
    alpha: int | None
    beta: int | None
    gamma: int
    gamma_prime: int

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "case": self.case,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "gamma_prime": self.gamma_prime,
        }


def _is_scaled_square(l, q, p: int) -> bool:
    """Whether Q = lambda * L^2 (mod p) for some residue lambda (0 allowed)."""
    a1, a2, a3 = (v % p for v in l)
    piv, apiv = next((i, v) for i, v in enumerate((a1, a2, a3)) if v % p)
    lam = q[piv] * inverse_mod(apiv * apiv % p, p) % p
    sq = (
        a1 * a1, a2 * a2, a3 * a3,
        2 * a2 * a3, 2 * a1 * a3, 2 * a1 * a2,
    )
    return all((q[i] - lam * sq[i]) % p == 0 for i in range(6))


def block_local_case(l, q, p: int) -> BlockLocalData:
    """Case classification and exponents for one primitive block at p."""
    l = tuple(int(v) for v in l)
    q = tuple(int(v) for v in q)
    if all(v % p == 0 for v in l):
        raise DomainError("block linear form vanishes mod p; content not 1")
    if _is_scaled_square(l, q, p):
        pivot = next(i for i in range(3) if l[i] % p)
        a, A, B, _ = _permute_block(l, q, pivot)
        Ap, Bp, Cp, Fp, Gp = _primed(a, A, B)
        g = math.gcd(math.gcd(abs(Ap), abs(Bp)), abs(Cp))
        if g == 0:
            raise DegenerateBlockError(0, "primed quadratic part vanishes")
        alpha = v_p(g, p)
        if Fp == 0 and Gp == 0:
            beta = 0
            gp = -(-(5 * alpha + 1) // 3)
        else:
            beta = v_p(math.gcd(abs(Fp), abs(Gp)), p)
            gp = max(
                -(-(5 * alpha + 1) // 3),
                -(-(4 * alpha + 1 - beta) // 2),
            )
        gamma = 2 * gp + 1 if p == 3 else 2 * gp - 1
        return BlockLocalData(p, "i", alpha, beta, gamma, gp)
    if p == 2 and _pencil_product(l, q, 2):
        return BlockLocalData(p, "ii", None, None, 1, 1)
    if p == 3 and _pencil_product(l, q, 3):
        return BlockLocalData(p, "iii", None, None, 3, 1)
    return BlockLocalData(p, "iv", None, None, 0, 0)


@dataclass(frozen=True)
class PrimeLocalData:
    prime: int
    j: tuple[int, int, int]
    nu0: int
    blocks: tuple[BlockLocalData, BlockLocalData]
    gamma: int
    gamma_prime: int

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "j": list(self.j),
            "nu0": self.nu0,
            "blocks": [b.to_dict() for b in self.blocks],
            "gamma": self.gamma,
            "gamma_prime": self.gamma_prime,
        }


@dataclass(frozen=True)
class LocalData:
    content: int
    multipliers: tuple[int, int, int]
    primes: tuple[PrimeLocalData, ...]
    modulus: int  # M: congruence level that certifies local solvability
    sufficiency_modulus: int  # M': M' | N forces solvability

    def to_dict(self) -> dict:
        return {
            "content": self.content,
            "multipliers": list(self.multipliers),
            "primes": [p.to_dict() for p in self.primes],
            "modulus": self.modulus,
            "sufficiency_modulus": self.sufficiency_modulus,
        }


def gamma_report(form: CubicForm, p: int) -> PrimeLocalData:
    """Exponent data at one prime; case (iv) by convention off the support.

    Primes not dividing 3*c1*c2*c3 get gamma = gamma' = 0 without any block
    analysis.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    c, (c1, c2, c3), b1, b2 = content_decomposition(form)
    j = (v_p(c1, p), v_p(c2, p), v_p(abs(c3), p))
    nu0 = max(j)
    if (3 * c1 * c2 * c3) % p != 0:
        off = BlockLocalData(p, "iv", None, None, 0, 0)
        return PrimeLocalData(p, j, nu0, (off, off), 0, 0)
    d1 = block_local_case(*b1, p)
    d2 = block_local_case(*b2, p)
    gp = min(d1.gamma_prime + j[0], d2.gamma_prime + j[1])
    cross = 2 * gp + 1 if p == 3 else 2 * gp - 1
    g = max(0, min(d1.gamma + nu0, d2.gamma + nu0, cross))
    return PrimeLocalData(p, j, nu0, (d1, d2), g, gp)


def local_data(form: CubicForm) -> LocalData:
    """Full local profile: per-prime cases, exponents, and both moduli."""
    c, (c1, c2, c3), _, _ = content_decomposition(form)
    support = 3 * c1 * c2 * abs(c3)
    primes = sorted({p for p, _ in factorize(support)})
    rows = []
    modulus = c
    suff = c
    for p in primes:
        row = gamma_report(form, p)
        rows.append(row)
        modulus *= p ** row.gamma
        suff *= p ** row.gamma_prime
    return LocalData(c, (c1, c2, c3), tuple(rows), modulus, suff)


def gammas(form: CubicForm) -> dict[int, tuple[int, int]]:
    return {row.prime: (row.gamma, row.gamma_prime) for row in local_data(form).primes}


# --- congruence solving ---------------------------------------------------


@functools.lru_cache(maxsize=64)
def _block_reach(l, q, m: int):
    """(achievable bool array, witness flat index) for L*Q mod m."""
    # Reduced l, q and residues: |L*Q| <= 18 (m - 1)^5 < 2^63 for m <= 360.
    l = [v % m for v in l]
    q = [v % m for v in q]
    wit = np.full(m, m ** 3, dtype=np.int64)
    for first, v in block_slabs(l, q, np.arange(m, dtype=np.int64)):
        np.remainder(v, m, out=v)
        np.minimum.at(wit, v, np.arange(first, first + len(v)))
    return wit < m ** 3, wit


def _decode(idx: int, m: int) -> tuple[int, int, int]:
    return (int(idx) // (m * m), (int(idx) // m) % m, int(idx) % m)


def _exhaustive_points(form: CubicForm, N: int, m: int, limit: int):
    """Up to `limit` solutions of f = N (mod m), in (x7, block-1 residue) order."""
    can1, wit1 = _block_reach(form.l1, form.q1, m)
    can2, wit2 = _block_reach(form.l2, form.q2, m)
    cube = cube_residues(form.a7, m)
    nm = N % m
    out = []
    for x7 in range(m):
        s = int((nm - cube[x7]) % m)
        # both[r1]: block 1 reaches r1 and block 2 reaches s - r1.
        both = can1 & np.roll(can2[::-1], (s + 1) % m)
        for r1 in np.flatnonzero(both)[: limit - len(out)].tolist():
            r2 = (s - r1) % m
            out.append((*_decode(wit1[r1], m), *_decode(wit2[r2], m), x7))
        if len(out) >= limit:
            break
    return out


def _f_mod_p_batch(form: CubicForm, xs: np.ndarray, p: int) -> np.ndarray:
    """f(x) mod p for each row of xs, reducing after every product.

    Not block_slabs: p goes up to _MODULUS_CAP = 10^8, and unreduced terms
    such as A1 * x * x overflow int64 once p passes about 1.2 * 10^6.
    """
    a = [v % p for v in form.a]
    q1 = [v % p for v in form.q1]
    q2 = [v % p for v in form.q2]
    c = [xs[:, i] for i in range(7)]

    def block(l, q, i0):
        x, y, z = c[i0], c[i0 + 1], c[i0 + 2]
        lin = (l[0] * x + l[1] * y + l[2] * z) % p
        quad = (
            q[0] * (x * x % p) + q[1] * (y * y % p) + q[2] * (z * z % p)
            + q[3] * (y * z % p) + q[4] * (z * x % p) + q[5] * (x * y % p)
        ) % p
        return lin * quad % p

    cube = a[6] * ((c[6] * c[6] % p) * c[6] % p) % p
    return (block(a[0:3], q1, 0) + block(a[3:6], q2, 3) + cube) % p


def _base_points_mod_p(form: CubicForm, N: int, p: int, limit: int):
    """Up to `limit` solutions of f = N (mod p), exact for small p."""
    if p <= _EXHAUSTIVE_CAP:
        return _exhaustive_points(form, N, p, limit)
    out = []
    rng = np.random.Generator(np.random.Philox(key=[20240, p]))
    nm = N % p
    for _ in range(128):
        xs = rng.integers(0, p, size=(1 << 16, 7), dtype=np.int64)
        hits = np.flatnonzero(_f_mod_p_batch(form, xs, p) == nm)
        for h in hits[: limit - len(out)]:
            out.append(tuple(int(v) for v in xs[h]))
        if len(out) >= limit:
            return out
    return out


def gradient(form: CubicForm, x) -> list[int]:
    """Exact integer gradient of f at an integer point."""
    a1, a2, a3 = form.l1
    a4, a5, a6 = form.l2
    A1, A2, A3, B1, B2, B3 = form.q1
    C1, C2, C3, D1, D2, D3 = form.q2
    x1, x2, x3, x4, x5, x6, x7 = x
    L1 = a1 * x1 + a2 * x2 + a3 * x3
    L2 = a4 * x4 + a5 * x5 + a6 * x6
    Q1 = A1 * x1 * x1 + A2 * x2 * x2 + A3 * x3 * x3 + B1 * x2 * x3 + B2 * x3 * x1 + B3 * x1 * x2
    Q2 = C1 * x4 * x4 + C2 * x5 * x5 + C3 * x6 * x6 + D1 * x5 * x6 + D2 * x6 * x4 + D3 * x4 * x5
    return [
        a1 * Q1 + L1 * (2 * A1 * x1 + B2 * x3 + B3 * x2),
        a2 * Q1 + L1 * (2 * A2 * x2 + B1 * x3 + B3 * x1),
        a3 * Q1 + L1 * (2 * A3 * x3 + B1 * x2 + B2 * x1),
        a4 * Q2 + L2 * (2 * C1 * x4 + D2 * x6 + D3 * x5),
        a5 * Q2 + L2 * (2 * C2 * x5 + D1 * x6 + D3 * x4),
        a6 * Q2 + L2 * (2 * C3 * x6 + D1 * x5 + D2 * x4),
        3 * form.a7 * x7 * x7,
    ]


def _lift_to_prime_power(form: CubicForm, x0, N: int, p: int, k: int):
    """Newton-lift a base point mod p to mod p^k; None when the path dies."""
    x = list(x0)
    pj = p
    for _ in range(k - 1):
        grad = [g % p for g in gradient(form, x)]
        residue = (N - form.value(x)) // pj % p
        i = next((i for i, g in enumerate(grad) if g), None)
        if i is None:
            if (form.value(x) - N) % (pj * p) != 0:
                return None
        else:
            t = residue * inverse_mod(grad[i], p) % p
            x[i] += pj * t
        pj *= p
    return tuple(v % pj for v in x)


def _solve_prime_power(form: CubicForm, N: int, p: int, k: int):
    """(decided, witness) for f = N mod p^k; raises when undecidable."""
    m = p ** k
    if m <= _EXHAUSTIVE_CAP:
        pts = _exhaustive_points(form, N, m, 1)
        return (True, pts[0]) if pts else (False, None)
    base = _base_points_mod_p(form, N, p, limit=500)
    if not base:
        if p <= _EXHAUSTIVE_CAP:
            return False, None  # exhaustive base scan found nothing
        raise ResourceLimitError(
            f"no base point found mod {p}; cannot certify either way"
        )
    if k == 1:
        return True, base[0]
    # Nonsingular points first: those lift unconditionally.
    base.sort(key=lambda x: all(g % p == 0 for g in gradient(form, x)))
    for x0 in base:
        lifted = _lift_to_prime_power(form, x0, N, p, k)
        if lifted is not None:
            return True, lifted
    raise ResourceLimitError(
        f"no collected base point lifts to mod {p}^{k}; undecided"
    )


def congruence_solvable(form: CubicForm, N: int, modulus: int | None = None):
    """Decide f = N (mod M), with a verified witness on success.

    Returns (solvable, witness_or_None).  A True answer always carries a
    witness that has been re-checked exactly; False is only returned when
    the search for some prime power part was provably complete.
    """
    if modulus is None:
        modulus = local_data(form).modulus
    if modulus < 1:
        raise DomainError("modulus must be positive")
    if modulus > _MODULUS_CAP:
        raise ResourceLimitError(f"modulus {modulus} exceeds {_MODULUS_CAP}")
    if modulus == 1:
        return True, (0,) * 7
    parts = []
    for p, k in factorize(modulus):
        ok, w = _solve_prime_power(form, N, p, k)
        if not ok:
            return False, None
        parts.append((p ** k, w))
    m, w = parts[0]
    for m2, w2 in parts[1:]:
        w = tuple(crt_pair(w[i], m, w2[i], m2)[0] for i in range(7))
        m *= m2
    assert (form.value(w) - N) % modulus == 0
    return True, w


def local_report(form: CubicForm, N: int) -> dict:
    """Local profile plus the congruence verdict at level M for this N.

    The verdict is "solvable-everywhere" exactly when f = N (mod M) has a
    solution; M' | N is reported as the sufficient condition.
    """
    data = local_data(form)
    sufficient = N % data.sufficiency_modulus == 0
    solvable, witness = congruence_solvable(form, N, data.modulus)
    return {
        "N": N,
        "local": data.to_dict(),
        "sufficient": sufficient,
        "congruence_solvable": solvable,
        "verdict": "solvable-everywhere" if solvable else "congruence-obstruction",
        "witness": list(witness) if witness is not None else None,
    }
