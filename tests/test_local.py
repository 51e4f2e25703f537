import itertools
import random

import numpy as np
import pytest

from cubic7.errors import DomainError, ResourceLimitError
from cubic7.expsums import mod_histogram
from cubic7.forms import COEFF_CAP, CubicForm, block_value
from cubic7.local import (
    _block_reach,
    _exhaustive_points,
    block_local_case,
    congruence_solvable,
    gamma_report,
    gammas,
    gradient,
    local_data,
    local_report,
    _f_mod_p_batch,
    _pencil_product,
)
from cubic7.oracles import (
    achievable_residues_brute,
    apply_unimodular,
    product_cubic_coeffs,
    random_unimodular,
    special_orbit_brute,
    _MONOMIALS,
    _block,
)


def test_product_cubic_coeffs_reproduce_values():
    rng = random.Random(51)
    for p in (2, 3, 5):
        for _ in range(20):
            l = tuple(rng.randint(-4, 4) for _ in range(3))
            if all(v % p == 0 for v in l):
                l = (1, 0, 0)
            q = tuple(rng.randint(-4, 4) for _ in range(6))
            coeffs = product_cubic_coeffs(l, q, p)
            for x, y, z in itertools.product(range(p), repeat=3):
                via_coeffs = sum(
                    c * x ** e[0] * y ** e[1] * z ** e[2]
                    for c, e in zip(coeffs, _MONOMIALS)
                )
                assert via_coeffs % p == block_value(l, q, x, y, z) % p


@pytest.mark.parametrize("p, case, size, hits", [(2, "ii", 7, 21), (3, "iii", 104, 624)])
def test_pencil_product_equals_orbit_membership(p, case, size, hits):
    # Every block mod p with L != 0: the factor test against the GL3(F_p)
    # orbit of the model block, and block_local_case on the orbit.
    orbit = special_orbit_brute(p)
    assert len(orbit) == size
    found = 0
    for l in itertools.product(range(p), repeat=3):
        if not any(l):
            continue
        for q in itertools.product(range(p), repeat=6):
            member = product_cubic_coeffs(l, q, p) in orbit
            assert _pencil_product(l, q, p) == member, (l, q)
            if member:
                assert block_local_case(l, q, p).case == case, (l, q)
                found += 1
    assert found == hits


def test_block_case_worked_examples():
    d = block_local_case((1, 0, 0), (0, 1, 4, 4, 0, 1), 2)
    assert (d.case, d.gamma, d.gamma_prime) == ("ii", 1, 1)
    d = block_local_case((1, 0, 0), (2, 0, 1, 0, 0, 6), 3)
    assert (d.case, d.gamma, d.gamma_prime) == ("iii", 3, 1)
    d = block_local_case((1, 0, 0), (1, 5, 0, 5, 0, 0), 5)
    assert (d.case, d.alpha, d.beta, d.gamma, d.gamma_prime) == ("i", 1, 0, 3, 2)
    # Case (i) with F' or G' nonzero.  Each Q is x^2 = L^2 mod p, and with
    # pivot x and a = (1, 0, 0): A' = A2, B' = B1, C' = A3, F' = B2, G' = B3.
    # p = 2, Q = x^2 + 2z^2 + 2xy: A' = B' = 0, C' = 2, so alpha = 1; F' = 0,
    # G' = 2, so beta = 1; gamma' = max(ceil(6/3), ceil(4/2)) = 2 and
    # gamma = 2 gamma' - 1 = 3.
    d = block_local_case((1, 0, 0), (1, 0, 2, 0, 0, 2), 2)
    assert (d.case, d.alpha, d.beta, d.gamma, d.gamma_prime) == ("i", 1, 1, 3, 2)
    # p = 3, Q = x^2 + 3z^2 + 3xy: C' = 3, so alpha = 1; G' = 3, so beta = 1;
    # gamma' = max(ceil(6/3), ceil(4/2)) = 2 and gamma = 2 gamma' + 1 = 5.
    d = block_local_case((1, 0, 0), (1, 0, 3, 0, 0, 3), 3)
    assert (d.case, d.alpha, d.beta, d.gamma, d.gamma_prime) == ("i", 1, 1, 5, 2)
    # p = 3, Q = x^2 + 81z^2 + 3xy: C' = 81, so alpha = 4; G' = 3, so beta = 1;
    # the beta term sets gamma': ceil(16/2) = 8 > ceil(21/3) = 7, gamma = 17.
    d = block_local_case((1, 0, 0), (1, 0, 81, 0, 0, 3), 3)
    assert (d.case, d.alpha, d.beta, d.gamma, d.gamma_prime) == ("i", 4, 1, 17, 8)
    # Assembly at p = 3 on a nondegenerate form with two zero-c blocks: c = 1
    # and (c1, c2, c3) = (1, 1, 3), so j = (0, 0, 1) and nu0 = 1.  Block 1 is
    # the (i, gamma 5, gamma' 2) block above.  Block 2, x(xy + z^2), is case
    # (iv), gamma = gamma' = 0: xy + z^2 is not lambda x^2 mod 3, and as a
    # nondegenerate conic mod 3 it is no product M(L + bM).  Then gamma' =
    # min(2 + 0, 0 + 0) = 0, the cross term is 2*0 + 1 = 1, and
    # gamma = max(0, min(5 + 1, 0 + 1, 1)) = 1.
    form = CubicForm((1, 0, 0, 1, 0, 0, 3), (1, 0, 3, 0, 0, 3), (0, 0, 1, 0, 0, 1))
    row = gamma_report(form, 3)
    assert (row.j, row.gamma, row.gamma_prime) == ((0, 0, 1), 1, 0)
    assert [b.case for b in row.blocks] == ["i", "iv"]


def test_block_case_default(f_star):
    for p in (2, 3, 5):
        d = block_local_case(f_star.l1, f_star.q1, p)
        assert d.case == "iv" and d.gamma == 0 and d.gamma_prime == 0


def test_block_case_rejects_imprimitive():
    with pytest.raises(DomainError):
        block_local_case((3, 0, 3), (1, 0, 0, 0, 0, 0), 3)


def test_block_case_rejects_nonprime(f_star):
    for p in (0, 1, 4, 6, 9, -3):
        with pytest.raises(DomainError, match=f"{p} is not prime"):
            block_local_case(f_star.l1, f_star.q1, p)


def test_case_invariance_under_unimodular_changes():
    # The case and exponents live on the GL3(Z)-orbit of the block.
    rng = random.Random(61)
    cases = [
        (2, (1, 0, 0), (0, 1, 4, 4, 0, 1)),
        (3, (1, 0, 0), (2, 0, 1, 0, 0, 6)),
    ]
    for p, l, q in cases:
        ref = block_local_case(l, q, p)
        for _ in range(10):
            u = random_unimodular(rng)
            l2, q2 = apply_unimodular(l, q, u)
            d = block_local_case(l2, q2, p)
            assert (d.case, d.gamma, d.gamma_prime) == (
                ref.case,
                ref.gamma,
                ref.gamma_prime,
            )


def test_gammas_and_moduli(f_star, f_content2, f_iii):
    assert gammas(f_star) == {3: (0, 0)}
    data = local_data(f_star)
    assert data.modulus == 1 and data.sufficiency_modulus == 1

    assert gammas(f_content2) == {2: (0, 0), 3: (1, 0)}
    data = local_data(f_content2)
    assert data.content == 2
    assert data.modulus == 6 and data.sufficiency_modulus == 2

    assert gammas(f_iii) == {3: (3, 1)}
    data = local_data(f_iii)
    assert data.modulus == 27 and data.sufficiency_modulus == 3


def test_gamma_report_off_support(f_star):
    row = gamma_report(f_star, 7)
    assert row.gamma == 0 and row.gamma_prime == 0
    assert all(b.case == "iv" for b in row.blocks)
    with pytest.raises(DomainError):
        gamma_report(f_star, 6)


def test_gamma_assembly_consistency(f_iii):
    data = local_data(f_iii)
    for row in data.primes:
        p = row.prime
        d1, d2 = row.blocks
        gp = min(d1.gamma_prime + row.j[0], d2.gamma_prime + row.j[1])
        cross = 2 * gp + 1 if p == 3 else 2 * gp - 1
        g = max(0, min(d1.gamma + row.nu0, d2.gamma + row.nu0, cross))
        assert (row.gamma, row.gamma_prime) == (g, gp)


def test_congruence_solvable_small_moduli(f_star):
    # Exhaustive small-modulus decisions against a full residue-grid scan.
    for m in (2, 3, 4):
        reach = achievable_residues_brute(f_star, m)
        for N in range(m):
            ok, w = congruence_solvable(f_star, N, m)
            assert ok == (N in reach)
            if ok:
                assert (f_star.value(w) - N) % m == 0


def test_block_reach_vs_residue_scan():
    # Reachable residues and first-hit witnesses against a plain scan of the
    # residue cube in flat-index order, on unreduced random coefficients and
    # on blocks whose block_value is a column (x*y^2), a scalar (x^3) or zero
    # (Q = 0) on each x-plane.
    rng = random.Random(29)
    planes = [((1, 0, 0), (0, 1, 0, 0, 0, 0)), ((1, 0, 0), (1, 0, 0, 0, 0, 0)),
              ((0, 1, 0), (0,) * 6)]
    for m in range(1, 31):
        l = tuple(rng.randint(-COEFF_CAP, COEFF_CAP) for _ in range(3))
        q = tuple(rng.randint(-COEFF_CAP, COEFF_CAP) for _ in range(6))
        for l, q in ((l, q), *planes):
            first = {}
            for i, x in enumerate(itertools.product(range(m), repeat=3)):
                first.setdefault(_block(l, q, *x) % m, i)
            wit = _block_reach(l, q, m)
            assert set(np.flatnonzero(wit < m ** 3).tolist()) == set(first)
            assert all(wit[r] == i for r, i in first.items())


def test_block_reach_large_moduli():
    # Near the coefficient cap the unreduced block overflows int64 at these
    # moduli; the frame-method residue counts are an independent reference.
    rng = random.Random(31)
    for m in (243, 343, 360):
        l = tuple(rng.choice((1, -1)) * (COEFF_CAP - rng.randint(0, 40))
                  for _ in range(3))
        q = tuple(rng.choice((1, -1)) * (COEFF_CAP - rng.randint(0, 40))
                  for _ in range(6))
        wit = _block_reach(l, q, m)
        reach = wit < m ** 3
        assert (reach == (mod_histogram(l, q, m) > 0)).all()
        for r in np.flatnonzero(reach).tolist():
            x = map(int, np.unravel_index(wit[r], (m, m, m)))
            assert _block(l, q, *x) % m == r


def test_exhaustive_points_order_and_witnesses(f_star, f_fac1, f_iii, f_content2):
    # Which solutions the search returns, and in what order, against a plain
    # scan: x7 ascending, then block 1's residue r1 ascending, each block's
    # witness the first residue point in product order, cut at the limit.
    rng = random.Random(44)
    forms = [f_star, f_fac1, f_iii, f_content2]
    while len(forms) < 7:
        try:
            forms.append(CubicForm(*(tuple(rng.randint(-COEFF_CAP, COEFF_CAP)
                                           for _ in range(n)) for n in (7, 6, 6))))
        except DomainError:
            continue
    for form in forms:
        for m in (*range(1, 10), 12):
            first = []
            for l, q in form.blocks():
                hit = {}
                for x in itertools.product(range(m), repeat=3):
                    hit.setdefault(_block(l, q, *x) % m, x)
                first.append(hit)
            for N in (0, 1, -7, 10 ** 30 + 3):
                want = [(*first[0][r1], *first[1][s], x7)
                        for x7 in range(m) for r1 in range(m)
                        if r1 in first[0]
                        and (s := (N - form.a7 * x7 ** 3 - r1) % m) in first[1]]
                for limit in (1, 7, 500):
                    got = _exhaustive_points(form, N, m, limit)
                    assert got == want[:limit], (form, m, N, limit)
                    assert all(type(c) is int for x in got for c in x)


def test_congruence_witness_mod_nine(f_star):
    ok, w = congruence_solvable(f_star, 2, 9)
    assert ok and (f_star.value(w) - 2) % 9 == 0


def test_congruence_crt_combination(f_star):
    ok, w = congruence_solvable(f_star, 7, 36)
    assert ok and (f_star.value(w) - 7) % 36 == 0


def test_congruence_obstruction():
    # Every coefficient is divisible by 3, so f = 1 (mod 3) has no solution.
    form = CubicForm((3, 0, 0, 3, 0, 0, 3), (3, 0, 3, 0, 0, 3), (3, 0, 3, 0, 0, 3))
    ok, w = congruence_solvable(form, 1, 3)
    assert not ok and w is None
    # f_k = k*x1(x1x2 + x3^2) + k*x4(x4x5 + x6^2) + x7^3 has content 1 and is
    # x7^3 mod k, so only a search can refuse an N that is no cube mod k.
    f9, f7 = (CubicForm((k, 0, 0, k, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1))
              for k in (9, 7))
    # Modulus 9 is searched exhaustively; the cubes mod 9 are 0, 1 and 8.
    assert local_data(f9).modulus == 9
    for N in (2, 3, 4):
        assert congruence_solvable(f9, N) == (False, None)
        assert local_report(f9, N)["verdict"] == "congruence-obstruction"
    assert congruence_solvable(f9, 1) == (True, (0, 0, 0, 0, 0, 0, 1))
    assert congruence_solvable(f9, 9) == (True, (0,) * 7)
    # 7^4 is above the exhaustive cap, so the base points mod 7 come from a
    # full scan; the cubes mod 7 are 0, 1 and 6, so N = 2 has none, and the
    # base point of N = 1 lifts (its x7-partial is 3, a unit mod 7).
    assert congruence_solvable(f7, 2, 7 ** 4) == (False, None)
    assert congruence_solvable(f7, 1, 7 ** 4) == (True, (0, 0, 0, 0, 0, 0, 1))


def test_content_decides_before_search():
    # The example form scaled by the prime 401 > _EXHAUSTIVE_CAP vanishes
    # identically mod 401, so N = 1, 2 are refused without a base-point search.
    form = CubicForm((401, 0, 0, 401, 0, 0, 401), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1))
    for N in (1, 2):
        assert congruence_solvable(form, N) == (False, None)
        assert local_report(form, N)["verdict"] == "congruence-obstruction"
    rep = local_report(form, 401)
    assert rep["local"]["modulus"] == 401
    assert rep["witness"] == [379, 357, 204, 200, 77, 18, 288]


def test_congruence_guards(f_star):
    with pytest.raises(DomainError):
        congruence_solvable(f_star, 1, 0)
    with pytest.raises(ResourceLimitError):
        congruence_solvable(f_star, 1, 10 ** 9)


def test_newton_lifting_large_power(f_star):
    # 3^7 = 2187 is far above the exhaustive cap, so this goes through the
    # base-point collection and Newton lifting path.
    ok, w = congruence_solvable(f_star, 10, 3 ** 7)
    assert ok and (f_star.value(w) - 10) % 3 ** 7 == 0


def test_lifting_never_answers_unsolvable_with_a_solution():
    # f3(1, 1, 0, ..., 0) = 3, yet no collected base point mod 3 lifts to
    # 3^6 or 3^7 (singular paths die): the answer must not be (False, None).
    f3 = CubicForm((3, 0, 0, 3, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1))
    assert f3.value((1, 1, 0, 0, 0, 0, 0)) == 3
    for m in (3 ** 6, 3 ** 7):
        try:
            ok, w = congruence_solvable(f3, 3, m)
        except ResourceLimitError as e:
            assert "undecided" in str(e)
        else:
            assert ok and (f3.value(w) - 3) % m == 0


def test_congruence_large_prime_random_base_points(f_iii):
    # 1300021 is prime and above 1.2 * 10^6, where unreduced int64 block
    # values overflow: base points come from the random search, whose
    # batch evaluator must reduce every product mod p.
    p = 1_300_021
    ok, w = congruence_solvable(f_iii, 10, p)
    assert ok and (f_iii.value(w) - 10) % p == 0
    xs = np.random.default_rng(0).integers(0, p, size=(200, 7))
    want = [f_iii.value(x) % p for x in xs.tolist()]
    assert _f_mod_p_batch(f_iii, xs, p).tolist() == want


def test_gradient_euler_identity(f_iii):
    rng = random.Random(71)
    for _ in range(50):
        x = [rng.randint(-6, 6) for _ in range(7)]
        g = gradient(f_iii, x)
        assert sum(xi * gi for xi, gi in zip(x, g)) == 3 * f_iii.value(x)


def test_gradient_central_difference():
    # Any homogeneous cubic has f(x + e) - f(x - e) = 2 e.grad f(x) + 2 f(e),
    # so each partial is pinned exactly; a swapped pair of partials fails.
    rng = random.Random(72)
    forms = 0
    while forms < 30:
        coeffs = [tuple(rng.randint(-5, 5) for _ in range(n)) for n in (7, 6, 6)]
        try:
            form = CubicForm(*coeffs)
        except DomainError:
            continue
        forms += 1
        for _ in range(70):
            x = [rng.randint(-9, 9) for _ in range(7)]
            g = gradient(form, x)
            for i in range(7):
                e = [int(j == i) for j in range(7)]
                step = form.value([a + b for a, b in zip(x, e)]) - form.value(
                    [a - b for a, b in zip(x, e)])
                assert 2 * g[i] == step - form.value(e) + form.value(
                    [-v for v in e]), (coeffs, x, i)


def test_local_report(f_star, f_content2):
    rep = local_report(f_star, 2)
    assert rep["verdict"] == "solvable-everywhere"
    assert rep["congruence_solvable"] is True
    assert rep["sufficient"]  # M' = 1 divides everything
    rep = local_report(f_content2, 3)
    assert rep["N"] == 3 and not rep["sufficient"]
    rep = local_report(f_content2, 4)
    assert rep["sufficient"]
