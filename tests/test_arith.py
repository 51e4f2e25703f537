import math
import random

import numpy as np
import pytest

from cubic7.arith import (
    content,
    crt_pair,
    factorize,
    icbrt,
    icbrt_ceil,
    icbrt_exact,
    inverse_mod,
    is_prime,
    isqrt_exact,
    power_residues,
    primes_up_to,
    v_p,
)
from cubic7.errors import DomainError
from cubic7.fit import fit_loglog, fit_offset_inverse


def test_isqrt_exact():
    assert isqrt_exact(49) == 7
    assert isqrt_exact(0) == 0
    assert isqrt_exact(50) is None
    assert isqrt_exact(-4) is None


def test_icbrt_family():
    assert icbrt(26) == 2
    assert icbrt(27) == 3
    assert icbrt(-27) == -3
    assert icbrt(-26) == -3  # floor, not truncation
    assert icbrt_ceil(26) == 3
    assert icbrt_exact(64) == 4
    assert icbrt_exact(-64) == -4
    assert icbrt_exact(65) is None
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(-10 ** 12, 10 ** 12)
        r = icbrt(n)
        assert r ** 3 <= n < (r + 1) ** 3


def test_vp_and_content():
    assert v_p(24, 2) == 3
    assert v_p(24, 3) == 1
    assert v_p(-9, 3) == 2
    assert content((4, -6, 8)) == 2
    assert content((0, 0, 5)) == 5
    assert content((0, 0, 0)) == 0
    assert content(()) == 0
    assert content((-4, 6)) == content((-4, -6)) == 2


def test_primes_and_factorize():
    assert primes_up_to(20) == (2, 3, 5, 7, 11, 13, 17, 19)
    assert is_prime(2) and is_prime(97) and not is_prime(1) and not is_prime(91)
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(1) == []


def test_crt_pair():
    v, m = crt_pair(2, 3, 3, 5)
    assert m == 15 and v % 3 == 2 and v % 5 == 3
    rng = random.Random(1)
    for _ in range(100):
        m1, m2 = rng.choice([(4, 9), (5, 8), (7, 27), (3, 25)])
        r1, r2 = rng.randrange(m1), rng.randrange(m2)
        v, m = crt_pair(r1, m1, r2, m2)
        assert m == m1 * m2 and v % m1 == r1 and v % m2 == r2
    # A modulus 1, negative residues and residues = 0 all give the
    # representative in [0, m1 m2).
    assert crt_pair(0, 1, 3, 5) == (3, 5)
    assert crt_pair(2, 3, 7, 1) == (2, 3)
    assert crt_pair(0, 1, 0, 1) == (0, 1)
    assert crt_pair(-1, 3, -1, 5) == (14, 15)
    assert crt_pair(-7, 4, 12, 9) == (21, 36)
    assert crt_pair(8, 4, 0, 9) == (0, 36)
    for m1, m2 in ((4, 6), (9, 3), (5, 5)):
        with pytest.raises(DomainError, match="^moduli not coprime$"):
            crt_pair(1, m1, 1, m2)


def test_inverse_mod():
    assert inverse_mod(3, 7) * 3 % 7 == 1
    assert inverse_mod(5, 1) == inverse_mod(0, 1) == inverse_mod(-4, 1) == 0
    assert inverse_mod(-3, 7) == 2
    assert inverse_mod(10, 7) == inverse_mod(3, 7) == 5
    for m in (2, 9, 100, 1009):
        for a in range(-2 * m, 2 * m):
            if math.gcd(a, m) == 1:
                x = inverse_mod(a, m)
                assert 0 <= x < m and a * x % m == 1
    for a, m in ((6, 9), (0, 7), (14, 7), (-9, 6)):
        with pytest.raises(DomainError, match=f"^{a} not invertible mod {m}$"):
            inverse_mod(a, m)


def test_power_residues():
    for k in (0, 1, 2, 3, 4, 7, 10 ** 12 + 1):
        for n in range(1, 400):
            r = power_residues(k, n)
            assert r.dtype == np.int64
            assert r.tolist() == [pow(x, k, n) for x in range(n)]


def test_fit_recovers_planted_parameters():
    sizes = [10, 20, 40, 80]
    offset, slope = fit_offset_inverse(sizes, [5.0 + 3.0 / s for s in sizes])
    assert abs(offset - 5.0) < 1e-9 and abs(slope - 3.0) < 1e-9
    expo, _ = fit_loglog(sizes, [2.0 * s ** 1.7 for s in sizes])
    assert abs(expo - 1.7) < 1e-9
    # Probes with count <= 0 are dropped; fewer than two left fit nothing.
    assert fit_loglog(sizes, [0, 5, 0, -1]) == (0.0, 0.0)
    assert fit_loglog(sizes, [0] * 4) == (0.0, 0.0)
