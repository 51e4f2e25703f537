"""Exact counting audits for the growth bounds used by the analysis.

Each audit produces a GrowthAudit: exact probe counts, the log-log fitted
exponent, and the largest constant observed against a claimed power.  The
bounds themselves hide constants, so the audits assert trends with slack
and record the constants instead of asserting them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fit
from .arith import factorize
from .counting import value_histogram
from .errors import DomainError, ResourceLimitError

_POWER_CAP = 10 ** 6
_POWER_SPLIT = 10 ** 4
_SURFACE_CAP = 200


@dataclass(frozen=True)
class GrowthAudit:
    probes: tuple[tuple[int, int], ...]  # (size, exact count)
    fitted_exponent: float
    max_constant: float  # max count / size^claimed
    claimed_exponent: float

    def __post_init__(self):
        sizes = [s for s, _ in self.probes]
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise DomainError("probe sizes must be nonempty and increasing")

    def to_dict(self) -> dict:
        return {
            "probes": [[s, c] for s, c in self.probes],
            "fitted_exponent": self.fitted_exponent,
            "max_constant": self.max_constant,
            "claimed_exponent": self.claimed_exponent,
        }


def growth_audit(counter, sizes, claimed_exponent: float) -> GrowthAudit:
    """Run an exact counter over increasing sizes and fit its growth."""
    sizes = [int(s) for s in sizes]
    if len(sizes) < 3:
        raise DomainError("need at least three probe sizes")
    probes = tuple((s, int(counter(s))) for s in sizes)
    slope, _ = fit.fit_loglog([s for s, _ in probes], [c for _, c in probes])
    const = max(c / s ** claimed_exponent for s, c in probes)
    return GrowthAudit(probes, slope, const, claimed_exponent)


def _power_residue_counts(k: int, q: int) -> np.ndarray:
    """counts[m] = #{1 <= x <= q : x^k = m (mod q)}."""
    x = np.arange(1, q + 1, dtype=np.int64) % q
    acc = np.ones(q, dtype=np.int64)
    for _ in range(k):
        acc = acc * x % q
    return np.bincount(acc, minlength=q)


def power_congruence_count(k: int, q: int, m: int) -> int:
    """Exact number of 1 <= x <= q with x^k = m (mod q)."""
    if k < 2:
        raise DomainError("k must be at least 2")
    if q < 1:
        raise DomainError("q must be positive")
    if q > _POWER_CAP:
        raise ResourceLimitError(f"q={q} exceeds the cap {_POWER_CAP}")
    if q <= _POWER_SPLIT:
        return int(_power_residue_counts(k, q)[m % q])
    # Multiplicative splitting: the count over Z/q is the product over the
    # prime-power parts (CRT preserves x^k = m).
    total = 1
    for p, e in factorize(q):
        total *= int(_power_residue_counts(k, p ** e)[m % p ** e])
    return total


def power_congruence_audit(k: int, qmax: int) -> GrowthAudit:
    """Worst count over all m, probed at every q, against q^(1 - 1/k)."""
    if qmax < 4:
        raise DomainError("qmax too small to audit")
    if qmax > _POWER_SPLIT:
        raise ResourceLimitError(f"sweep above {_POWER_SPLIT} not supported")
    return growth_audit(lambda q: int(_power_residue_counts(k, q).max()),
                        range(2, qmax + 1), 1.0 - 1.0 / k)


def special_surface_count(A: int, N: int, P: int) -> int:
    """Solutions of x(xy + z^2) + A w^3 = N, |x|,|y|,|z|,|w| <= P, block != 0.

    O(P^3): for each (w, x, z) the remaining y is pinned by two divisibility
    checks.
    """
    if A == 0:
        raise DomainError("A must be nonzero")
    if P < 1:
        raise DomainError("P must be at least 1")
    if P > _SURFACE_CAP:
        raise ResourceLimitError(f"P={P} exceeds the cap {_SURFACE_CAP}")
    count = 0
    for w in range(-P, P + 1):
        rem = N - A * w ** 3
        if rem == 0:
            continue  # the block value must be nonzero
        count += sum(divisor_slice_count(rem, x, P) for x in range(-P, P + 1))
    return count


def surface_audit(A: int, N: int, sizes) -> GrowthAudit:
    """special_surface_count probed over sizes against P^(11/6)."""
    return growth_audit(lambda P: special_surface_count(A, N, P), sizes, 11.0 / 6.0)


def second_moment(l, q, P: int) -> int:
    """Sum of c(n)^2 over n != 0 for one block on the Sym box."""
    h = value_histogram(tuple(l), tuple(q), "sym", P)
    return sum(c * c for n, c in h.items() if n != 0)


def second_moment_audit(l, q, P_list) -> GrowthAudit:
    """Block second moment probed over P, against the P^3 growth claim."""
    return growth_audit(lambda P: second_moment(l, q, P), P_list, 3.0)


def divisor_slice_count(n: int, x: int, P: int) -> int:
    """R(n, x): pairs (y, z), |y|,|z| <= P, with x(xy + z^2) = n."""
    if x == 0 or n % x:
        return 0
    m = n // x
    count = 0
    for z in range(-P, P + 1):
        t = m - z * z
        if t % x == 0 and abs(t) <= abs(x) * P:
            count += 1
    return count
