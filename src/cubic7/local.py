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
for small moduli (one witness table per block, read as one (x7, r1)
table), Newton lifting for large prime powers, and an honest resource
error when neither can decide.

The residue searches build numpy arrays and import numpy on first use, so
the block analysis and the local modulus run without it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .arith import crt_pair, factorize, inverse_mod, is_prime, v_p
from .errors import DegenerateBlockError, DomainError, ResourceLimitError
from .forms import (
    CubicForm, _block_content, _block_factors, _gram_matrix, _permute_block, _primed,
    _product_coefficients, _quad_terms, block_value, content_decomposition, cube_residues,
)
from .payload import Payload

if TYPE_CHECKING:
    import numpy as np

_EXHAUSTIVE_CAP = 360  # prime powers up to this are decided by full search
_MODULUS_CAP = 10 ** 8


def _pencil_product(l, q, p: int) -> bool:
    """Whether Q = M * (L + b*M) (mod p) for some b != 0 and M independent of L.

    Then L*Q is the product of three pairwise non-proportional linear forms
    of the pencil spanned by L and M; L must be nonzero mod p.  By unique
    factorisation M * (L + b*M) is a multiple of L^2 exactly when M is a
    multiple of L, so once such Q are refused, any match will do.
    """
    if _is_scaled_square(l, q, p):
        return False
    for b in range(1, p):
        # The squares fix each m[i] to a root of m * (l[i] + b*m) = q[i].
        roots = [[c for c in range(p) if (c * (l[i] + b * c) - q[i]) % p == 0]
                 for i in range(3)]
        for m in itertools.product(*roots):
            pm = _product_coefficients(m, [li + b * mi for li, mi in zip(l, m)])
            if all((c - d) % p == 0 for c, d in zip(q, pm)):
                return True
    return False


@dataclass(frozen=True)
class BlockLocalData(Payload):
    prime: int
    case: str  # "i" | "ii" | "iii" | "iv"
    alpha: int | None
    beta: int | None
    gamma: int
    gamma_prime: int


def _is_scaled_square(l, q, p: int) -> bool:
    """Whether Q = lambda * L^2 (mod p) for a residue lambda (0 allowed); L != 0."""
    a = [v % p for v in l]
    piv = next(i for i, v in enumerate(a) if v)
    lam = q[piv] * inverse_mod(a[piv] * a[piv], p) % p
    return all((c - lam * s) % p == 0 for c, s in zip(q, _product_coefficients(a, a)))


def block_local_case(l, q, p: int) -> BlockLocalData:
    """Case classification and exponents for one primitive block at p."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
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
class PrimeLocalData(Payload):
    prime: int
    j: tuple[int, int, int]
    nu0: int
    blocks: tuple[BlockLocalData, BlockLocalData]
    gamma: int
    gamma_prime: int


@dataclass(frozen=True)
class LocalData(Payload):
    content: int
    multipliers: tuple[int, int, int]
    primes: tuple[PrimeLocalData, ...]
    modulus: int  # M: congruence level that certifies local solvability
    sufficiency_modulus: int  # M': M' | N forces solvability


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
    """Witness table of L*Q mod m: wit[r] is the least flat index
    (x * m + y) * m + z of a residue point with L*Q = r, and m^3 where
    no point reaches r."""
    import numpy as np

    # Reduced l, q and residues: |L*Q| <= 18 (m - 1)^5 < 2^63 for m <= 360.
    l = [v % m for v in l]
    q = [v % m for v in q]
    r = np.arange(m, dtype=np.int64)
    idx = np.arange(m * m)
    wit = np.full(m, m ** 3, dtype=np.int64)
    for x in range(m):
        v = np.broadcast_to(block_value(l, q, x, r[:, None], r) % m, (m, m))
        np.minimum.at(wit, v.ravel(), x * m * m + idx)
    return wit


def _exhaustive_points(form: CubicForm, N: int, m: int, limit: int):
    """Up to `limit` solutions of f = N (mod m), in (x7, block-1 residue) order.

    One (x7, r1) table: block 1 must reach r1 and block 2 the rest
    N - a7 x7^3 - r1; its row-major hits are that order.
    """
    import numpy as np

    wit1 = _block_reach(form.l1, form.q1, m)
    wit2 = _block_reach(form.l2, form.q2, m)
    # N is reduced first: it may be far beyond int64.
    r2 = (N % m - cube_residues(form.a7, m)[:, None] - np.arange(m)) % m
    hits = np.flatnonzero((wit1 < m ** 3) & (wit2[r2] < m ** 3))[:limit]
    x7, r1 = np.divmod(hits, m)
    w1 = np.unravel_index(wit1[r1], (m, m, m))
    w2 = np.unravel_index(wit2[r2[x7, r1]], (m, m, m))
    # Python ints: witnesses reach payloads and exact big-int checks.
    return list(zip(*(c.tolist() for c in (*w1, *w2, x7))))


def _f_mod_p_batch(form: CubicForm, xs: np.ndarray, p: int) -> np.ndarray:
    """f(x) mod p for each row of xs, reducing after every product.

    Not block_value: p goes up to _MODULUS_CAP = 10^8, and unreduced terms
    such as A1 * x * x overflow int64 once p passes about 1.2 * 10^6.
    """
    c = [xs[:, i] for i in range(7)]
    f = form.a7 % p * ((c[6] * c[6] % p) * c[6] % p) % p
    for (l, q), (x, y, z) in zip(form.blocks(), (c[0:3], c[3:6])):
        lin = sum(a % p * t for a, t in zip(l, (x, y, z))) % p
        quad = sum(k % p * (u * v % p) for k, u, v in _quad_terms(q, x, y, z)) % p
        f += lin * quad % p
    return f % p


def _search_points_mod_p(form: CubicForm, N: int, p: int, limit: int):
    """Up to `limit` solutions of f = N (mod p) among 2^23 Philox draws."""
    import numpy as np

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
    """Exact integer gradient of f at an integer point: each block L*Q adds
    l_i * Q + L * (G.v)_i at v, G the Gram matrix of 2Q (so G.v = grad Q)."""
    out = []
    for (l, q), v in zip(form.blocks(), (x[:3], x[3:6])):
        L, Q = _block_factors(l, q, *v)
        out += [li * Q + L * sum(g * t for g, t in zip(row, v))
                for li, row in zip(l, _gram_matrix(q))]
    return out + [3 * form.a7 * x[6] * x[6]]


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
    if p <= _EXHAUSTIVE_CAP:
        base = _exhaustive_points(form, N, p, 500)
        if not base:
            return False, None  # exhaustive base scan found nothing
    else:
        base = _search_points_mod_p(form, N, p, 500)
        if not base:
            raise ResourceLimitError(f"no base point found mod {p}; cannot certify either way")
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
    the content rules N out or the search for some prime power part was
    provably complete.
    """
    if modulus is None:
        modulus = local_data(form).modulus
    if modulus < 1:
        raise DomainError("modulus must be positive")
    if modulus > _MODULUS_CAP:
        raise ResourceLimitError(f"modulus {modulus} exceeds {_MODULUS_CAP}")
    # f vanishes identically mod its content c, so gcd(c, M) must divide N.
    # A zero Q contributes content 0, which the gcd ignores.
    c = math.gcd(*(_block_content(l, q)[0] for l, q in form.blocks()), form.a7)
    if N % math.gcd(c, modulus):
        return False, None
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
