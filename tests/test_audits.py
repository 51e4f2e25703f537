import pytest

from cubic7.audits import (
    GrowthAudit,
    divisor_slice_count,
    growth_audit,
    power_congruence_audit,
    power_congruence_count,
    second_moment,
    second_moment_audit,
    special_surface_count,
    surface_audit,
)
from cubic7.counting import value_histogram
from cubic7.errors import DomainError, ResourceLimitError
from cubic7.oracles import power_count_brute, surface_count_brute


def test_power_congruence_count_vs_brute():
    # x^k by repeated squaring: about 40 squarings at k = 10^12 + 1.
    for k in (2, 3, 10 ** 12 + 1):
        for q in (1, 4, 7, 8, 9, 12, 30):
            for m in range(q):
                assert power_congruence_count(k, q, m) == power_count_brute(k, q, m)


def test_power_congruence_fixed_values():
    assert power_congruence_count(2, 8, 1) == 4
    assert power_congruence_count(3, 9, 0) == 3
    assert power_congruence_count(2, 7, 3) == 0


def test_power_congruence_multiplicative_path():
    # The count is assembled from the prime-power parts; check a modulus
    # with six of them against a direct scan oracle.
    q = 30030  # 2 * 3 * 5 * 7 * 11 * 13
    for m in (0, 1, 4, 12167):
        assert power_congruence_count(3, q, m) == power_count_brute(3, q, m)


def test_power_congruence_guards():
    for k in (1, 0, -2):
        with pytest.raises(DomainError, match="k must be at least 2"):
            power_congruence_count(k, 8, 1)
        with pytest.raises(DomainError, match="k must be at least 2"):
            power_congruence_audit(k, 60)
    with pytest.raises(DomainError):
        power_congruence_count(2, 0, 1)
    with pytest.raises(ResourceLimitError):
        power_congruence_count(2, 10 ** 6 + 1, 1)
    with pytest.raises(ResourceLimitError):
        power_congruence_audit(2, 10 ** 5)
    with pytest.raises(DomainError):
        power_congruence_audit(2, 3)


def test_power_congruence_audit_small():
    audit = power_congruence_audit(2, 200)
    assert audit.claimed_exponent == 0.5
    assert audit.max_constant <= 8.0
    assert audit.probes[0] == (2, power_count_brute(2, 2, 1))


def test_surface_count_vs_brute():
    for A in (1, 2):
        for N in (0, 1, 5):
            for P in (2, 4, 6):
                assert special_surface_count(A, N, P) == surface_count_brute(A, N, P)


def test_surface_fixed_values():
    assert special_surface_count(1, 10, 1) == 0
    assert special_surface_count(1, 1, 1) == 6
    assert special_surface_count(1, 0, 1) == 8


def test_surface_sign_flip():
    for A in (1, 2):
        for N in (1, 5, 9):
            for P in (3, 6):
                assert special_surface_count(A, N, P) == special_surface_count(
                    A, -N, P
                )


def test_surface_guards():
    with pytest.raises(DomainError):
        special_surface_count(0, 1, 4)
    with pytest.raises(DomainError):
        special_surface_count(1, 1, 0)
    with pytest.raises(ResourceLimitError):
        special_surface_count(1, 1, 500)


def test_surface_audit_shape():
    audit = surface_audit(1, 1, (10, 20, 40))
    assert audit.claimed_exponent == pytest.approx(11.0 / 6.0)
    assert len(audit.probes) == 3


def test_second_moment(f_star):
    h = value_histogram(f_star.l1, f_star.q1, "sym", 4)
    want = sum(c * c for n, c in h.items() if n != 0)
    assert second_moment(f_star.l1, f_star.q1, 4) == want
    assert second_moment(f_star.l1, f_star.q1, 1) == 40
    assert second_moment(f_star.l1, f_star.q1, 20) == 1404208


def test_second_moment_vs_item_loop(f_star, f_fac1, f_iii):
    # The int64 dot minus c(0)^2 equals the loop over the nonzero values, on
    # int32 and int64 slabs (the last block's values pass 2^31 at P = 20).
    big = 1 << 20
    blocks = (*f_star.blocks(), *f_fac1.blocks(), *f_iii.blocks(),
              ((big, 3, -big), (big, -1, 7, big, 0, -big)))
    for l, q in blocks:
        for P in (1, 2, 7, 20, 40):
            h = value_histogram(l, q, "sym", P)
            want = sum(c * c for n, c in h.items() if n != 0)
            assert second_moment(l, q, P) == want, (l, q, P)


def test_second_moment_audit(f_star):
    audit = second_moment_audit(f_star.l1, f_star.q1, (4, 8, 16))
    assert audit.claimed_exponent == 3.0
    assert [s for s, _ in audit.probes] == [4, 8, 16]


def test_divisor_slice_identity(f_star):
    # Summing the per-divisor slices rebuilds the histogram count of n.
    P = 8
    h = value_histogram(f_star.l1, f_star.q1, "sym", P)
    for n in (1, 2, 3, 4, 6, 8, -5, -12):
        total = 0
        for x in range(-P, P + 1):
            if x != 0 and n % x == 0:
                total += divisor_slice_count(n, x, P)
        assert total == h.count_of(n)
    assert divisor_slice_count(5, 2, 8) == 0
    assert divisor_slice_count(5, 0, 8) == 0


def test_growth_audit_validation():
    with pytest.raises(DomainError):
        growth_audit(lambda s: s, (10, 20), 1.0)
    with pytest.raises(DomainError):
        GrowthAudit(((10, 1), (10, 2), (20, 3)), 1.0, 1.0, 1.0)

    def never(size):
        raise AssertionError("counter ran before the sizes were checked")

    for sizes in ((160, 20, 40), (20, 20, 40)):
        with pytest.raises(DomainError, match="nonempty and increasing"):
            growth_audit(never, sizes, 3.0)
    for sizes in ((0, 1, 2), (-2, -1, 1)):
        with pytest.raises(DomainError, match="at least 1"):
            growth_audit(never, sizes, 3.0)
    audit = growth_audit(lambda s: 2 * s * s, (5, 10, 20), 2.0)
    assert audit.fitted_exponent == pytest.approx(2.0)
    assert audit.max_constant == pytest.approx(2.0)
    d = audit.to_dict()
    assert d["probes"] == [[5, 50], [10, 200], [20, 800]]
