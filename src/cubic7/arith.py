"""Exact integer helpers: roots, factorization, built-in inverses and CRT, power residues."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np


def isqrt_exact(n: int) -> int | None:
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def icbrt(n: int) -> int:
    """Floor of the real cube root, correct for negative n."""
    if n < 0:
        return -icbrt_ceil(-n)
    if n == 0:
        return 0
    # Newton iteration from an overestimate; floats would overflow for big n.
    r = 1 << ((n.bit_length() + 2) // 3)
    while True:
        nr = (2 * r + n // (r * r)) // 3
        if nr >= r:
            break
        r = nr
    while r * r * r > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def icbrt_ceil(n: int) -> int:
    r = icbrt(n)
    return r if r * r * r == n else r + 1


def icbrt_exact(n: int) -> int | None:
    """Signed integer cube root of n if n is a perfect cube, else None."""
    r = icbrt(n)
    return r if r * r * r == n else None


def v_p(n: int, p: int) -> int:
    """Exponent of p in n; n must be nonzero."""
    if n == 0:
        raise ValueError("v_p(0) is undefined")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def content(coeffs) -> int:
    """gcd of a coefficient list (0 for the all-zero list)."""
    return math.gcd(*coeffs)


@lru_cache(maxsize=None)
def primes_up_to(n: int) -> tuple[int, ...]:
    if n < 2:
        return ()
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i, b in enumerate(sieve) if b)


def is_prime(n: int) -> bool:
    return factorize(n) == [(n, 1)]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| as (p, exponent) pairs, trial division."""
    n = abs(n)
    if n <= 1:
        return []
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Combine x = r1 (mod m1), x = r2 (mod m2) for coprime moduli."""
    if math.gcd(m1, m2) != 1:
        raise DomainError("moduli not coprime")
    m = m1 * m2
    return ((r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % m, m)


def inverse_mod(a: int, m: int) -> int:
    if math.gcd(a, m) != 1:
        raise DomainError(f"{a} not invertible mod {m}")
    return pow(a, -1, m)


def power_residues(k: int, n: int) -> np.ndarray:
    """x^k mod n for x = 0, ..., n - 1 as int64, by repeated squaring on the
    residues: every product is below n^2, so it is exact for n < 2^31."""
    import numpy as np

    x = np.arange(n, dtype=np.int64)
    acc = np.full(n, 1 % n, dtype=np.int64)
    while k:
        if k & 1:
            acc = acc * x % n
        k >>= 1
        if k:
            x = x * x % n
    return acc
