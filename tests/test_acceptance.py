"""Acceptance gate: ten end-to-end checks, one PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
complete.  Each check recomputes its expected values from first principles
(the brute-force oracles in cubic7.oracles) or pins published tolerances;
nothing here trusts the library's own fast paths.  Known-red checks are
asserted anyway: the printed line carries the measured numbers, and the
"Tests" section of README.md records the analysis.
"""

import math
import random
import time

from cubic7.arith import factorize
from cubic7.audits import (
    power_congruence_audit,
    second_moment_audit,
    surface_audit,
)
from cubic7.counting import count_representations, count_zeros, union_space_count
from cubic7.density import singular_integral
from cubic7.experiment import P_SCHEDULE
from cubic7.expsums import (
    block_sum_any,
    series_tail_profile,
    singular_series,
    singular_term,
)
from cubic7.fit import fit_loglog, fit_offset_inverse
from cubic7.forms import block_invariants, linear_spaces
from cubic7.local import block_local_case, congruence_solvable, local_data
from cubic7.oracles import representation_counts_brute, union_membership_brute


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_discriminant_identity():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    for _ in range(1000):
        l = tuple(rng.randint(-9, 9) for _ in range(3))
        if l == (0, 0, 0):
            l = (1, 0, 0)
        q = tuple(rng.randint(-9, 9) for _ in range(6))
        inv = block_invariants(l, q)
        Ap, Bp, Cp, _, _ = inv.primed
        assert Bp * Bp - 4 * Ap * Cp == l[inv.pivot - 1] ** 2 * inv.delta
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 1.0,
            f"1000 random blocks, exact identity, {elapsed:.3f} s")


def test_criterion_02_prime_exponential_sum_law(f_star):
    t0 = time.perf_counter()
    worst = 0.0
    for l, q in f_star.blocks():
        for p in (3, 5, 7, 11, 13):
            for a in range(1, p):
                v = block_sum_any(l, q, p, a)
                worst = max(worst, abs(v - p * p) / p ** 2)
        for p in (3, 5):
            for k in range(1, 5):
                m = p ** k
                want = p ** (2 * k + k // 4)
                for a in range(1, m):
                    if math.gcd(a, m) != 1:
                        continue
                    v = block_sum_any(l, q, m, a)
                    worst = max(worst, abs(v - want) / want)
    elapsed = time.perf_counter() - t0
    _report(2, worst < 1e-6 and elapsed < 10.0,
            f"max relative error {worst:.2e}, {elapsed:.1f} s")


def test_criterion_03_multiplicativity(f_star):
    worst = 0.0
    for q in range(2, 61):
        parts = factorize(q)
        if len(parts) < 2:
            continue
        for N in (0, 1, 2):
            direct = singular_term(f_star, q, N)
            assembled = 1.0
            for p, k in parts:
                assembled *= singular_term(f_star, p ** k, N)
            worst = max(worst, abs(direct - assembled))
    _report(3, worst < 1e-8, f"q <= 60, N in {{0,1,2}}, max gap {worst:.2e}")


def test_criterion_04_convolution_vs_oracle(f_star, f_fac1, f_fac2):
    t0 = time.perf_counter()
    checked = 0
    for form in (f_star, f_fac1, f_fac2):
        for P in (1, 2, 3):
            table = representation_counts_brute(form, P)
            for N in range(-5, 6):
                assert count_representations(form, N, P) == table.get(N, 0)
                checked += 1
    star1 = representation_counts_brute(f_star, 1)
    assert star1[0] == 537 and star1[5] == 4
    assert count_representations(f_star, 0, 1) == 537
    assert count_representations(f_star, 5, 1) == 4
    elapsed = time.perf_counter() - t0
    _report(4, elapsed < 5.0,
            f"{checked} exact matches incl. R(0;1)=537, R(5;1)=4, {elapsed:.1f} s")


def test_criterion_05_linear_space_census(f_star, f_fac1, f_fac2):
    for form in (f_star, f_fac1, f_fac2):
        spaces = linear_spaces(form)
        got = union_space_count(spaces, "sym", 2)
        brute = union_membership_brute(form, [sp.covectors for sp in spaces], 2)
        assert got == brute
    spaces = linear_spaces(f_star)
    ratios = [union_space_count(spaces, "sym", P) / P ** 4 for P in P_SCHEDULE]
    delta0, _ = fit_offset_inverse(P_SCHEDULE, ratios)
    rel = abs(delta0 - 16.0) / 16.0
    _report(5, rel <= 0.02,
            f"membership scans match; fitted delta0 = {delta0:.4f} "
            f"({100 * rel:.2f}% from 16)")


def test_criterion_06_series_truncation(f_star):
    t0 = time.perf_counter()
    lines = []
    ok = True
    for N in (0, 1, 5):
        prof = series_tail_profile(f_star, N, (50, 100, 200))
        d = [v for _, v in prof]
        decreasing = d[0] >= d[1] >= d[2]
        slope, _ = fit_loglog((50, 100, 200), d)
        ok = ok and decreasing and slope <= -0.2
        lines.append(
            f"N={N}: d=({d[0]:.2e},{d[1]:.2e},{d[2]:.2e}) "
            f"decreasing={decreasing} slope={slope:.3f}"
        )
    elapsed = time.perf_counter() - t0
    _report(6, ok and elapsed < 60.0,
            "; ".join(lines) + f"; {elapsed:.1f} s")


def test_criterion_07_end_to_end_trend(f_star):
    series = singular_series(f_star, 0, 400)
    integ = singular_integral(f_star, "zero", samples=2_000_000, seed=0)
    sj = series.value * integ.value
    sj_err = series.value * integ.stderr
    probes = (8, 16, 32, 64)
    errs = []
    for P in probes:
        r = count_zeros(f_star, P)
        u = union_space_count(linear_spaces(f_star), "sym", P)
        errs.append(abs(r / P ** 4 - (u / P ** 4 + sj)))
    inversions = sum(1 for a, b in zip(errs, errs[1:]) if b > a + sj_err)
    soft = sum(1 for a, b in zip(errs, errs[1:]) if b > a)
    positive = sj > 3.0 * sj_err
    ok = inversions == 0 and soft <= 1 and positive
    _report(7, ok,
            f"errors {['%.3f' % e for e in errs]}, inversions beyond "
            f"stderr {inversions}, SJ = {sj:.2f} +- {sj_err:.2f}")


def test_criterion_08_local_solvability(f_star, f_content2, f_iii):
    d2 = block_local_case((1, 0, 0), (0, 1, 4, 4, 0, 1), 2)
    d3 = block_local_case((1, 0, 0), (2, 0, 1, 0, 0, 6), 3)
    assert (d2.case, d2.gamma, d2.gamma_prime) == ("ii", 1, 1)
    assert (d3.case, d3.gamma, d3.gamma_prime) == ("iii", 3, 1)
    swept = 0
    for form in (f_star, f_content2, f_iii):
        data = local_data(form)
        for N in range(1, 1001):
            if N % data.sufficiency_modulus:
                continue
            ok, _ = congruence_solvable(form, N, data.modulus)
            assert ok, (form.a, N)
            swept += 1
    _report(8, True,
            f"worked examples reproduced; {swept} sufficient N all solvable")


def test_criterion_09_lemma_audits(f_star):
    power = power_congruence_audit(2, 500)
    surface = surface_audit(1, 1, (10, 20, 40, 80))
    moment = second_moment_audit(f_star.l1, f_star.q1, (20, 40, 80))
    p_ok = power.max_constant <= 8.0
    s_ok = surface.fitted_exponent <= 11.0 / 6.0 + 0.2
    m_ok = moment.fitted_exponent <= 3.3
    _report(9, p_ok and s_ok and m_ok,
            f"power constant {power.max_constant:.3f} (<= 8: {p_ok}); "
            f"surface exponent {surface.fitted_exponent:.3f} "
            f"(<= {11 / 6 + 0.2:.3f}: {s_ok}); "
            f"moment exponent {moment.fitted_exponent:.7f} (<= 3.3: {m_ok})")


def test_criterion_10_determinism(f_star):
    import json

    from cubic7.experiment import predict

    a = predict(f_star, "zeros", (2, 4), qmax=30, samples=100_000, seed=9,
                threads=1)
    b = predict(f_star, "zeros", (2, 4), qmax=30, samples=100_000, seed=9,
                threads=4)
    pred_same = json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )
    i1 = singular_integral(f_star, "zero", samples=100_000, seed=9, threads=1)
    i2 = singular_integral(f_star, "zero", samples=100_000, seed=9, threads=4)
    int_same = json.dumps(i1.to_dict(), sort_keys=True) == json.dumps(
        i2.to_dict(), sort_keys=True
    )
    _report(10, pred_same and int_same,
            f"predict byte-identical: {pred_same}; "
            f"integral byte-identical: {int_same}")
