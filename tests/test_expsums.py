import math
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubic7 import expsums
from cubic7.arith import content, factorize, primes_up_to
from cubic7.errors import DomainError, ResourceLimitError
from cubic7.expsums import (
    MOD_CAP,
    _frame_histogram,
    _prime_histogram,
    _unit_products,
    block_sum_any,
    mod_histogram,
    prime_power_profile,
    s3,
    s_block,
    s_cube,
    series_tail_profile,
    singular_series,
    singular_series_terms,
    singular_term,
)
from cubic7.forms import CubicForm, block_frame
from cubic7.oracles import (
    apply_unimodular,
    block_sum_brute,
    block_values_brute,
    cube_sum_brute,
    det3,
    random_unimodular,
    singular_term_brute,
)


def _residue_counts(l, q, m):
    """Counts of L*Q mod m over the residue cube, from the brute histogram."""
    counts = [0] * m
    for v, c in block_values_brute(l, q, "nonneg", m - 1).items():
        counts[v % m] += c
    return counts


def test_mod_histogram_vs_brute(f_star):
    rng = random.Random(41)
    blocks = [(f_star.l1, f_star.q1)]
    for _ in range(4):
        l = tuple(rng.randint(-4, 4) for _ in range(3))
        if l == (0, 0, 0):
            l = (1, 1, 0)
        q = tuple(rng.randint(-4, 4) for _ in range(6))
        blocks.append((l, q))
    # L content sharing a factor with m exercises the g*d*u^3 multiplier.
    blocks += [((2, 0, 4), (1, -3, 2, 0, 5, 1)), ((3, -6, 0), (2, 2, 1, -1, 0, 3))]
    # 5, 7, 11 and 13 take the closed form, the other moduli the frame.
    for m in (2, 3, 5, 6, 7, 8, 9, 11, 12, 13, 16, 24, 25, 27, 32):
        for l, q in blocks:
            h = mod_histogram(l, q, m)
            assert h.dtype == np.int64
            assert h.tolist() == _residue_counts(l, q, m)


def _routes(l, q, p):
    """(closed form, frame method) histograms of one block at a prime p."""
    _, lv, qv = block_frame(l, q)
    return _prime_histogram(lv[0], qv, p), _frame_histogram(lv, qv, p)


def test_prime_histogram_on_fixture_forms(f_star, f_fac1, f_iii):
    # f_star is the example form of the CLI.
    blocks = {b for form in (f_star, f_fac1, f_iii) for b in form.blocks()}
    assert len(blocks) == 3
    for p in primes_up_to(599)[2:]:
        for l, q in blocks:
            closed, frame = _routes(l, q, p)
            assert closed.dtype == np.int64
            assert (closed == frame).all(), (l, q, p)


def _branch(qv, p):
    """Which case of expsums._plane_counts the frame coefficients take."""
    A1, A2, A3, B1, B2, B3 = (c % p for c in qv)
    if A2 or A3:
        if not A3:
            A2, A3, B2, B3 = A3, A2, B3, B2
        if (B1 * B1 - 4 * A2 * A3) % p:
            return "nondegenerate"
        if (2 * B1 * B2 - 4 * A3 * B3) % p:
            return "square, linear part across"
        return "square, linear part along"
    if B1:
        return "hyperbola"
    return "linear plane" if B2 or B3 else "constant plane"


def _frame_block(rng, p, branch):
    """Frame coefficients mod p (then shifted by multiples of p) in a branch."""
    def unit():
        return rng.randrange(1, p)

    def inv(x):
        return pow(x, -1, p)

    A1, B2, B3 = (rng.randrange(p) for _ in range(3))
    if branch == "nondegenerate":
        A3, A2, B1 = unit(), rng.randrange(p), rng.randrange(p)
        while (B1 * B1 - 4 * A2 * A3) % p == 0:
            B1 = rng.randrange(p)
    elif branch.startswith("square"):
        # alpha = B1^2 - 4 A2 A3 = 0; beta = 2 B1 B2 - 4 A3 B3 = 0 or not.
        A3, B1 = unit(), rng.randrange(p)
        A2 = B1 * B1 * inv(4 * A3) % p
        along = B1 * B2 * inv(2 * A3) % p
        if branch.endswith("along"):
            B3 = along
        elif B3 == along:
            B3 = (B3 + 1) % p
    else:
        A2 = A3 = 0
        B1 = unit() if branch == "hyperbola" else 0
        if branch == "linear plane" and B2 == B3 == 0:
            B3 = unit()
        if branch == "constant plane":
            B2 = B3 = 0
    qv = [A1, A2, A3, B1, B2, B3]
    if rng.random() < 0.5:  # the A3 = 0 < A2 cases, y and z swapped
        qv = [A1, A3, A2, B1, B3, B2]
    return tuple(c + p * rng.randint(-3, 3) for c in qv)


_BRANCHES = (
    "nondegenerate",
    "square, linear part across",
    "square, linear part along",
    "hyperbola",
    "linear plane",
    "constant plane",
)


def test_prime_histogram_every_branch():
    # L = (c, 0, 0) is its own frame, so Q is chosen in frame coordinates;
    # fully random blocks add frames that block_frame computes itself.
    rng = random.Random(2024)
    seen = set()
    zero_q = 0
    for p in (5, 7, 11, 13, 17, 19, 29, 31):
        cases = []
        for branch in _BRANCHES:
            for _ in range(4):
                c = rng.choice((1, -1)) * rng.randrange(1, p) + p * rng.randint(-2, 2)
                cases.append(((c, 0, 0), _frame_block(rng, p, branch)))
        cases.append(((1, 0, 0), (p, 0, -2 * p, 0, 3 * p, 0)))  # Q = 0 mod p
        for _ in range(12):
            l = tuple(rng.randint(-9, 9) for _ in range(3))
            q = tuple(rng.choice((0, 0, 1, -1, p, 2, -3, 5)) for _ in range(6))
            cases.append((l, q))
        for l, q in cases:
            _, lv, qv = block_frame(l, q)
            if lv[0] % p == 0:
                continue
            seen.add((_branch(qv, p), p % 3))
            zero_q += all(c % p == 0 for c in qv)
            closed, frame = _routes(l, q, p)
            assert (closed == frame).all(), (l, q, p)
    assert seen == {(b, r) for b in _BRANCHES for r in (1, 2)}
    assert zero_q >= 8


@pytest.mark.parametrize("p", [4091, 4093])
def test_prime_histogram_near_cap(p):
    assert p % 3 == (2 if p == 4091 else 1)
    closed, frame = _routes((3, -5, 7), (1, -2, 3, 4, -5, 6), p)
    assert (closed == frame).all()
    assert int(closed.sum()) == p ** 3


def test_mod_histogram_routes(monkeypatch):
    def refuse(*args):
        raise AssertionError("wrong route")

    l, q = (3, -5, 7), (1, -2, 3, 4, -5, 6)
    build = mod_histogram.__wrapped__  # uncached
    monkeypatch.setattr(expsums, "_prime_histogram", refuse)
    _, lv, qv = block_frame(l, q)
    for m in (2, 3, 25, 27, 121, 6):
        assert (build(l, q, m) == _frame_histogram(lv, qv, m)).all()
    # p | content(L): g = 7 is not a unit mod 7.
    assert build((7, 14, 0), q, 7).tolist() == _residue_counts((7, 14, 0), q, 7)
    monkeypatch.undo()
    monkeypatch.setattr(expsums, "_frame_histogram", refuse)
    for p in (5, 7, 11, 13, 4093):
        assert int(build(l, q, p).sum()) == p ** 3
    assert int(build((7, 14, 0), q, 11).sum()) == 11 ** 3


@pytest.mark.parametrize("m, p", [(4096, 2), (1024, 2), (729, 3), (625, 5)])
def test_mod_histogram_folding_law(f_star, m, p):
    # Beyond brute-force reach: reducing mod m/p folds p^3 cube cells onto
    # each cell mod m/p.  m = 4096 is MOD_CAP, where the row chunks engage.
    n = m // p
    for l, q in ((f_star.l1, f_star.q1), ((2, 0, 4), (1, -3, 2, 0, 5, 1))):
        h = mod_histogram(l, q, m)
        assert int(h.sum()) == m ** 3
        assert (h.reshape(p, n).sum(0) == p ** 3 * mod_histogram(l, q, n)).all()


def test_mod_histogram_memory_at_cap():
    # VmHWM is the child's own peak; its ru_maxrss can carry over the high-
    # water mark of the process that started it.
    code = (
        "from cubic7.expsums import mod_histogram\n"
        "mod_histogram((3, 5, 7), (1, -2, 3, 4, -5, 6), 4096)\n"
        "with open('/proc/self/status') as f:\n"
        "    print(next(ln.split()[1] for ln in f if ln.startswith('VmHWM:')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert int(out.stdout) < 600 * 1024  # VmHWM is in kB


_frame_coeff = st.integers(-50, 50)


@settings(max_examples=200, deadline=None)
@given(l=st.tuples(*[_frame_coeff] * 3), q=st.tuples(*[_frame_coeff] * 6))
def test_block_frame(l, q):
    v, lv, qv = block_frame(l, q)
    assert det3(v) in (1, -1)
    assert abs(lv[0]) == content(l) and lv[1:] == (0, 0)
    assert apply_unimodular(l, q, v) == (lv, qv)


_coeff = st.integers(-6, 6)


@settings(max_examples=60, deadline=None)
@given(
    l=st.tuples(*[_coeff] * 3),
    q=st.tuples(*[_coeff] * 6),
    m=st.integers(1, 12),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_mod_histogram_unimodular_invariance(l, q, m, seed):
    # x -> U x permutes the residue cube when det U = +-1, so the residue
    # histogram of L*Q cannot change.
    l2, q2 = apply_unimodular(l, q, random_unimodular(random.Random(seed)))
    h = mod_histogram(l, q, m).tolist()
    assert h == _residue_counts(l, q, m)
    assert mod_histogram(l2, q2, m).tolist() == h


def test_block_sum_vs_brute(f_star):
    for m in (2, 3, 4, 5, 7, 9):
        for mult in (1, 2, m - 1):
            got = block_sum_any(f_star.l1, f_star.q1, m, mult)
            want = block_sum_brute(f_star.l1, f_star.q1, m, mult)
            assert abs(got - want) < 1e-9 * m ** 3


def test_block_sum_content_pullout():
    # Scaling L by 2 and Q by 3 must match the direct sum, content and all.
    l, q = (2, 0, 4), (3, 0, 3, 0, 0, 6)
    for m in (4, 6, 9):
        for mult in (1, 5):
            got = block_sum_any(l, q, m, mult)
            want = block_sum_brute(l, q, m, mult)
            assert abs(got - want) < 1e-9 * m ** 3


def test_s_block_unit_law(f_star):
    for p in (3, 5):
        for a in range(1, p):
            v = s_block(f_star.l1, f_star.q1, p, a)
            assert abs(v - p * p) < 1e-6 * p * p
    with pytest.raises(DomainError):
        s_block(f_star.l1, f_star.q1, 9, 3)


def test_block_sums_refuse_nonpositive_modulus():
    # A zero content (L = 0 or Q = 0) reaches no histogram, so the rule is
    # asked before gcd(0, modulus) and the division by it.
    for l, q in (((0, 0, 0), (1, 0, 0, 0, 0, 0)), ((1, 0, 0), (0,) * 6)):
        for m in (0, -3):
            with pytest.raises(DomainError, match="modulus must be positive"):
                block_sum_any(l, q, m, 1)
            with pytest.raises(DomainError, match="modulus must be positive"):
                s_block(l, q, m, 1)
        # The content brings any positive modulus under the cap.
        m = 10 * MOD_CAP + 1
        assert block_sum_any(l, q, m, 1) == m ** 3


def test_s_cube_vs_brute():
    for a7 in (1, 2, 7):
        for m in (2, 3, 7, 9):
            for mult in (1, m - 1):
                got = s_cube(a7, m, mult)
                want = cube_sum_brute(a7, m, mult)
                assert abs(got - want) < 1e-9 * m
        assert s_cube(a7, 1, 1) == 1  # one residue line of one point


def test_s3_values(f_star):
    assert abs(s3(3, 1, 1)) < 1e-9
    assert abs(s3(9, 1, 1) - 7.596266658713867) < 1e-9
    with pytest.raises(DomainError):
        s3(9, 3, 1)
    with pytest.raises(DomainError):
        s3(0, 1, 1)


def _cube_class_reps(q):
    """{unit u: smallest unit of u's class in (Z/q)^* / cubes}."""
    units = [u for u in range(1, q) if math.gcd(u, q) == 1]
    cubes = {u ** 3 % q for u in units}
    rep = {}
    for u in units:
        for c in cubes:
            rep.setdefault(u * c % q, u)
    return rep


# The example form, f_fac1 (bench/forms/f_fac1.json), and blocks of content
# 2 and 6 with a7 = 3, which share factors with the powers of 2 and 3.
_CLASS_FORMS = (
    CubicForm((1, 0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1)),
    CubicForm((1, 0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 0, 0)),
    CubicForm((2, 0, 0, 0, 3, 0, 3), (0, 0, 1, 1, 0, 1), (2, 0, 2, 0, 0, 4)),
)


def test_expsums_constant_on_cube_classes():
    # S1, S2, S3 at every unit equal, with ==, their value at the class
    # representative; _unit_products gives the units in order and the
    # product at each of them.
    blocks = {b for form in _CLASS_FORMS for b in form.blocks()}
    cube_coeffs = {form.a7 for form in _CLASS_FORMS}
    qs = [q for q in range(2, 401) if len(factorize(q)) == 1]
    assert {5, 7, 9, 11, 13, 27, 343, 256} <= set(qs)
    for q in qs:
        rep = _cube_class_reps(q)
        assert len(set(rep.values())) == (3 if len(rep) % 3 == 0 else 1)
        s_blk = {b: {u: block_sum_any(*b, q, u) for u in rep} for b in blocks}
        s_cub = {a7: {u: s_cube(a7, q, u) for u in rep} for a7 in cube_coeffs}
        for val in (*s_blk.values(), *s_cub.values()):
            assert all(val[u] == val[r] for u, r in rep.items())
        for form in _CLASS_FORMS:
            s1, s2 = (s_blk[b] for b in form.blocks())
            s3v = s_cub[form.a7]
            units, t = _unit_products(form.a, form.q1, form.q2, q)
            assert units.tolist() == sorted(rep)
            assert all(t[i] == s1[u] * s2[u] * s3v[u] * float(q) ** -7
                       for i, u in enumerate(units.tolist()))


def _per_unit_term(form, q, Ns):
    """{N: S(q; N)} by a per-unit Python loop: the product at each class's
    smallest unit copied to every unit of the class, then the list of real
    parts t.real cos - t.imag sin in unit order, summed by one fsum."""
    l1, l2, a7 = form.a[0:3], form.a[3:6], form.a[6]
    units = [u for u in range(1, q + 1) if math.gcd(u, q) == 1]
    cubes = {u * u * u % q for u in units}
    by_residue = {}
    for u in units:
        if u % q in by_residue:
            continue
        t = (block_sum_any(l1, form.q1, q, u) * block_sum_any(l2, form.q2, q, u)
             * s_cube(a7, q, u) * float(q) ** -7)
        for c in cubes:
            by_residue[u * c % q] = t
    cos_t, sin_t = expsums._phase_table(q)
    out = {}
    for N in Ns:
        re = []
        for u in units:
            t = by_residue[u % q]
            k = (-u * (N % q)) % q
            re.append(t.real * cos_t[k] - t.imag * sin_t[k])
        out[N] = math.fsum(re)
    return out


def test_singular_term_matches_per_unit_loop(f_star, f_fac1, f_iii):
    # The array path sums the same float list as the per-unit loop, so the
    # terms agree with ==, also where the class products repeat (p = 1 mod 3
    # and the powers of 3) and at N beyond the modulus.
    Ns = (0, 1, 5, 96 ** 3 + 17)
    qs = [q for q in range(2, 601) if len(factorize(q)) == 1]
    for form in (f_star, f_fac1, f_iii):
        for q in qs:
            want = _per_unit_term(form, q, Ns)
            for N in Ns:
                assert singular_term(form, q, N) == want[N], (form, q, N)


def test_singular_term_vs_brute(f_star, f_iii):
    for form in (f_star, f_iii):
        for q in (2, 3, 4, 5, 6):
            for N in (0, 1, 2):
                got = singular_term(form, q, N)
                want = singular_term_brute(form, q, N)
                assert abs(got - want) < 1e-9


def test_singular_term_multiplicative(f_star):
    for q1m, q2m in ((3, 4), (4, 5), (5, 9), (7, 8)):
        for N in (0, 1, 2):
            lhs = singular_term(f_star, q1m * q2m, N)
            rhs = singular_term(f_star, q1m, N) * singular_term(f_star, q2m, N)
            assert abs(lhs - rhs) < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    a=st.tuples(*[_coeff] * 7).filter(lambda a: any(a[:3]) and any(a[3:6]) and a[6]),
    q1=st.tuples(*[_coeff] * 6),
    q2=st.tuples(*[_coeff] * 6),
    m1=st.integers(2, 16),
    m2=st.integers(2, 16),
    N=st.integers(-30, 30),
)
def test_singular_term_multiplicative_random(a, q1, q2, m1, m2, N):
    assume(math.gcd(m1, m2) == 1)
    form = CubicForm(a, q1, q2)
    lhs = singular_term(form, m1 * m2, N)
    rhs = singular_term(form, m1, N) * singular_term(form, m2, N)
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


def test_series_assembly_vs_direct_terms(f_star):
    # The sieve assembles composite terms from prime powers; check against
    # the direct unit-sum evaluation at every modulus.
    terms = singular_series_terms(f_star, 1, 40)
    for q in range(1, 41):
        assert abs(terms[q] - singular_term(f_star, q, 1)) < 1e-10


def test_singular_series_reporting(f_star):
    est = singular_series(f_star, 0, 60)
    assert est.Q == 60
    assert abs(est.value - math.fsum(est.terms[1:])) < 1e-12
    assert [q for q, _ in est.tail_indicator] == [15, 30, 60]
    assert est.terms[0] == 0.0


def test_series_zero_value(f_star):
    # Frozen from this implementation; fsum makes the value bit-stable, so
    # any change of rounding (say, in the cube-class reuse) must fail here.
    est = singular_series(f_star, 0, 400)
    assert est.value == 1.1731923779853206


def test_prime_power_profile(f_star):
    terms = singular_series_terms(f_star, 0, 30)
    prof = prime_power_profile(terms)
    rows = {r["p"]: r["terms"] for r in prof}
    assert tuple(rows) == tuple(primes_up_to(30))
    assert rows[2] == [terms[2], terms[4], terms[8], terms[16]]
    assert rows[5] == [terms[5], terms[25]]
    assert rows[29] == [terms[29]]
    # A SeriesEstimate's terms tuple reads the same.
    assert prime_power_profile(singular_series(f_star, 0, 30).terms) == prof
    assert prime_power_profile([0.0, 1.0]) == []


def test_series_tail_profile(f_star):
    prof = series_tail_profile(f_star, 0, (10, 20))
    terms = singular_series_terms(f_star, 0, 40)
    for Q, d in prof:
        want = abs(math.fsum(terms[1 : 2 * Q + 1]) - math.fsum(terms[1 : Q + 1]))
        assert abs(d - want) < 1e-12


def test_expsum_guards(f_star):
    with pytest.raises(DomainError):
        singular_series_terms(f_star, 0, 0)
    with pytest.raises(ResourceLimitError):
        singular_series_terms(f_star, 0, MOD_CAP + 1)
    with pytest.raises(ResourceLimitError):
        mod_histogram(f_star.l1, f_star.q1, MOD_CAP + 1)
    with pytest.raises(DomainError):
        mod_histogram(f_star.l1, f_star.q1, 0)
    with pytest.raises(ResourceLimitError):
        s_cube(1, MOD_CAP + 1, 1)
    with pytest.raises(DomainError):
        s_cube(1, 0, 1)
    with pytest.raises(DomainError):
        s_cube(1, -3, 1)


def test_singular_term_refuses_modulus_before_work(f_star):
    import tracemalloc

    for q in (0, -3):
        with pytest.raises(DomainError, match="modulus must be positive"):
            singular_term(f_star, q, 0)
    # Its phase table and unit arrays would take tens of MB at this q.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            singular_term(f_star, 1_000_003, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
