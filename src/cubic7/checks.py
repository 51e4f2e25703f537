"""Self-contained invariant suite behind the `verify` command.

Every check runs at desk scale (a few seconds at most) and returns
(passed, detail) instead of raising: a failed invariant is a result, not
an error.  `verify` names each row from `_CHECKS`, so a check that
raises is reported under its usual name, with the exception as detail.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .counting import representation_counts, union_space_count, value_histogram
from .density import box_volume, density_ladder, slab_volume
from .errors import DegenerateBlockError, InvalidFormError
from .expsums import s_block, series_tail_profile, singular_series
from .forms import (
    CubicForm,
    adjoint_matrix,
    block_invariants,
    box_range,
    form_from_dict,
    form_to_dict,
    linear_spaces,
    transform_block,
)
from .local import block_local_case, local_report
from .oracles import (
    adjugate_brute,
    apply_unimodular,
    block_sum_brute,
    random_unimodular,
    representation_counts_brute,
    union_membership_brute,
)
from .audits import (
    divisor_slice_count,
    power_congruence_count,
    special_surface_count,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _rand_block(rng: random.Random, bound: int = 6):
    l = tuple(rng.randint(-bound, bound) for _ in range(3))
    q = tuple(rng.randint(-bound, bound) for _ in range(6))
    return l, q


def _check_rejects_invalid(form: CubicForm) -> tuple[bool, str]:
    """Structured errors for a7 = 0 and for a degenerate block."""
    try:
        CubicForm((1, 0, 0, 1, 0, 0, 0), form.q1, form.q2, "sym")
        return False, "a7 = 0 accepted"
    except InvalidFormError:
        pass
    # L = x1, Q = x1*x2 has Delta = 0 and vanishing primed data: degenerate.
    try:
        transform_block((1, 0, 0), (0, 0, 0, 0, 0, 1))
        return False, "degenerate block transformed"
    except DegenerateBlockError as exc:
        return (True,
                f"a7=0 and degenerate block both rejected "
                f"(block index {exc.block_index})")


def _check_discriminant_identity(form: CubicForm) -> tuple[bool, str]:
    rng = random.Random(11)
    for _ in range(200):
        l, q = _rand_block(rng)
        if all(c == 0 for c in l):
            continue
        inv = block_invariants(l, q)
        Ap, Bp, Cp, _, _ = inv.primed
        piv = l[inv.order[0]]
        lhs = Bp * Bp - 4 * Ap * Cp
        rhs = piv * piv * inv.delta
        if lhs != rhs:
            return False, f"B'^2-4A'C'={lhs} vs a^2*Delta={rhs}"
    return True, "200 random blocks, exact equality"


def _check_adjoint_adjugate(form: CubicForm) -> tuple[bool, str]:
    rng = random.Random(13)
    for _ in range(100):
        _, q = _rand_block(rng)
        A1, A2, A3, B1, B2, B3 = q
        gram = [[2 * A1, B3, B2], [B3, 2 * A2, B1], [B2, B1, 2 * A3]]
        want = [[-v for v in row] for row in adjugate_brute(gram)]
        got = [list(row) for row in adjoint_matrix(q)]
        if got != want:
            return False, f"Q = {q}: {got} vs {want}"
    return (True,
            "matches negated adjugate of the Gram matrix, "
            "100 random blocks")


def _check_normal_form(form: CubicForm) -> tuple[bool, str]:
    rng = random.Random(17)
    done = 0
    branches = set()
    while done < 60:
        l, q = _rand_block(rng)
        if all(c == 0 for c in l):
            continue
        try:
            nf = transform_block(l, q)
        except DegenerateBlockError:
            continue
        if nf.scale == 0:
            return False, "zero scale"
        branches.add(nf.branch)
        done += 1
    # transform_block self-checks the polynomial identity on a grid.
    return True, f"60 random blocks, branches seen: {sorted(branches)}"


def _check_spaces(form: CubicForm) -> tuple[bool, str]:
    spaces = linear_spaces(form)
    rng = random.Random(19)
    for sp in spaces:
        basis = sp.kernel_basis()
        if len(basis) != 4:
            return False, f"space {sp.tag}: rank {len(basis)} != 4"
        for _ in range(25):
            c = [rng.randint(-4, 4) for _ in range(4)]
            x = tuple(sum(c[i] * basis[i][k] for i in range(4))
                      for k in range(7))
            if form.value(x) != 0:
                return False, f"space {sp.tag}: f(x) != 0 at {x}"
    return True, f"{len(spaces)} spaces, rank 4, f vanishes on each"


def _check_histogram(form: CubicForm) -> tuple[bool, str]:
    P = 6
    m = len(box_range(form.box, P))
    for l, q in form.blocks():
        h = value_histogram(l, q, form.box, P)
        if h.total() != m ** 3:
            return False, f"mass {h.total()} != {m ** 3}"
        if form.box == "sym":
            for v, c in h.items():
                if h.count_of(-v) != c:
                    return (False,
                            f"parity broken at value {v}: {c} vs {h.count_of(-v)}")
    return True, f"block mass = {m}^3 and sym parity hold at P = {P}"


def _check_convolution(form: CubicForm) -> tuple[bool, str]:
    P = 2
    table = representation_counts_brute(form, P)
    Ns = range(-6, 7)
    for N, got in zip(Ns, representation_counts(form, Ns, P)):
        want = table.get(N, 0)
        if got != want:
            return False, f"N={N}: {got} vs {want}"
    return True, "P = 2, N in [-6, 6], exact agreement"


def _check_union_membership(form: CubicForm) -> tuple[bool, str]:
    base = dataclasses.replace(form, box="sym")
    P = 2
    spaces = linear_spaces(base)
    got = union_space_count(spaces, "sym", P)
    want = union_membership_brute(base, [sp.covectors for sp in spaces], P)
    if got != want:
        return False, f"{got} vs brute {want}"
    return True, f"P = 2 membership scan agrees: {want} points"


def _check_block_sum_naive(form: CubicForm) -> tuple[bool, str]:
    worst = 0.0
    for modulus in (2, 3, 4, 5, 7, 9):
        for l, q in form.blocks():
            for a in range(1, modulus):
                if math.gcd(a, modulus) != 1:
                    continue
                got = s_block(l, q, modulus, a)
                want = block_sum_brute(l, q, modulus, a)
                worst = max(worst, abs(got - want) / modulus ** 3)
    if worst > 1e-10:
        return False, f"scaled error {worst:.2e}"
    return True, f"moduli up to 9, scaled error {worst:.2e}"


def _check_prime_law(form: CubicForm) -> tuple[bool, str]:
    checked = []
    for l, q in form.blocks():
        inv = block_invariants(l, q)
        for p in (3, 5, 7):
            if inv.frakD % p == 0:
                continue
            for a in range(1, p):
                val = s_block(l, q, p, a)
                if abs(val - p * p) > 1e-6 * p * p:
                    return False, f"p={p}, a={a}: {val} != p^2"
            checked.append(p)
    if not checked:
        return (True,
                "no odd prime coprime to the block invariants "
                "in range; nothing to test")
    return True, f"S(p, a) = p^2 for p in {sorted(set(checked))}"


def _check_multiplicativity(form: CubicForm) -> tuple[bool, str]:
    from .expsums import singular_term
    worst = 0.0
    pairs = [(3, 4), (4, 5), (3, 5), (5, 8), (7, 9)]
    for N in (0, 1, 2):
        for q1, q2 in pairs:
            lhs = singular_term(form, q1 * q2, N)
            rhs = singular_term(form, q1, N) * singular_term(form, q2, N)
            worst = max(worst, abs(lhs - rhs))
    if worst > 1e-8:
        return False, f"max |S(q1 q2) - S(q1) S(q2)| = {worst:.2e}"
    return True, f"coprime pairs, max deviation {worst:.2e}"


def _check_series_tail(form: CubicForm) -> tuple[bool, str]:
    prof = series_tail_profile(form, 0, (25, 50, 100))
    qs = [p[0] for p in prof]
    tails = [max(p[1], 1e-15) for p in prof]
    slope = np.polyfit(np.log(qs), np.log(tails), 1)[0]
    if not (slope <= -0.2 or tails[-1] < 1e-12):
        return False, f"fitted decay {slope:.3f} > -0.2, tails {tails}"
    return True, f"fitted tail decay {slope:.3f}"


def _check_gamma_invariance(form: CubicForm) -> tuple[bool, str]:
    rng = random.Random(23)
    # Known representatives of the two special residue classes.
    cases = [
        (2, (1, 0, 0), (0, 1, 4, 4, 0, 1)),   # class of x^2 y + x y^2
        (3, (1, 0, 0), (2, 0, 1, 0, 0, 6)),   # class of x^3 + 2 x y^2
    ]
    for p, l, q in cases:
        base = block_local_case(l, q, p)
        for _ in range(20):
            U = random_unimodular(rng)
            lU, qU = apply_unimodular(l, q, U)
            got = block_local_case(lU, qU, p)
            if (got.case, got.gamma, got.gamma_prime) != (
                    base.case, base.gamma, base.gamma_prime):
                return (False,
                        f"p={p}: case {base.case} -> {got.case} under {U}")
    return (True,
            "cases ii and iii stable under 20 random unimodular "
            "changes each")


def _check_gamma_assembly(form: CubicForm) -> tuple[bool, str]:
    from .local import local_data
    data = local_data(form)
    for row in data.primes:
        g1 = [b.gamma for b in row.blocks]
        g1p = [b.gamma_prime for b in row.blocks]
        j = row.j
        gp = min(g1p[0] + j[0], g1p[1] + j[1])
        bump = 2 * gp + (1 if row.prime == 3 else -1)
        g = max(0, min(g1[0] + row.nu0, g1[1] + row.nu0, bump))
        if (row.gamma, row.gamma_prime) != (g, gp):
            return (False,
                    f"p={row.prime}: ({row.gamma},{row.gamma_prime})"
                    f" != ({g},{gp})")
    return (True,
            f"{len(data.primes)} primes recombine consistently "
            f"(modulus {data.modulus})")


def _check_solvable_series(form: CubicForm) -> tuple[bool, str]:
    rep = local_report(form, 1)
    if rep["verdict"] != "solvable-everywhere":
        return True, "N = 1 not solvable everywhere; floor not claimed"
    val = singular_series(form, 1, 120).value
    if val < 0.05:
        return False, f"S(1, 120) = {val:.4f} < 0.05 despite solvability"
    return True, f"S(1, 120) = {val:.4f} >= 0.05"


def _check_integral_exact(form: CubicForm) -> tuple[bool, str]:
    # With a slab wide enough to contain every sampled value the estimate
    # collapses to vol / (2 eps) exactly, with zero standard error.
    probe = density_ladder(form, 0.0, 1.0, 10_000, seed=5)
    span = max(abs(probe.f_min), abs(probe.f_max), 1.0) * 1.25
    est = slab_volume(form, 0.0, span, 10_000, seed=5)
    want = box_volume(form.box) / (2.0 * span)
    if est.stderr != 0.0 or abs(est.value - want) > 1e-12 * want:
        return False, f"value {est.value} vs {want}, stderr {est.stderr}"
    return True, "slab covering all samples gives vol/(2 eps) exactly"


def _check_density_determinism(form: CubicForm) -> tuple[bool, str]:
    a = density_ladder(form, 1.0, 0.5, 20_000, seed=9, threads=1)
    b = density_ladder(form, 1.0, 0.5, 20_000, seed=9, threads=2)
    ja = json.dumps(a.to_dict(), sort_keys=True)
    jb = json.dumps(b.to_dict(), sort_keys=True)
    if ja != jb:
        return False, "1-thread and 2-thread runs differ"
    return True, "byte-identical across thread counts"


def _check_power_partition(form: CubicForm) -> tuple[bool, str]:
    for k, q in ((2, 8), (2, 12), (3, 30)):
        tot = sum(power_congruence_count(k, q, m) for m in range(q))
        if tot != q:
            return False, f"k={k}, q={q}: sum {tot} != q"
    return True, "residue counts partition Z/q for sample (k, q)"


def _check_surface_flip(form: CubicForm) -> tuple[bool, str]:
    for A in (1, 2):
        for N in (0, 1, 5, 9):
            for P in (3, 6):
                a = special_surface_count(A, N, P)
                b = special_surface_count(A, -N, P)
                if a != b:
                    return False, f"A={A}, N={N}, P={P}: {a} vs {b}"
    return True, "count invariant under N -> -N (sign flip bijection)"


def _check_divisor_identity(form: CubicForm) -> tuple[bool, str]:
    l, q = (1, 0, 0), (0, 0, 1, 0, 0, 1)  # x (x y + z^2)
    P = 8
    h = value_histogram(l, q, "sym", P)
    for n in (1, 2, 3, 4, 6, 8, -5, -12):
        direct = h.count_of(n)
        acc = 0
        for x in range(1, P + 1):
            if n % x == 0:
                acc += divisor_slice_count(n, x, P)
                acc += divisor_slice_count(n, -x, P)
        if acc != direct:
            return False, f"n={n}: sliced {acc} vs counted {direct}"
    return True, "c(n) equals the divisor-sliced count at P = 8"


def _check_roundtrip(form: CubicForm) -> tuple[bool, str]:
    d = form_to_dict(form)
    back = form_from_dict(json.loads(json.dumps(d)))
    if back != form:
        return False, "roundtrip changed form"
    return True, "form survives a JSON round trip"


_CHECKS = (
    ("rejects-invalid-input", _check_rejects_invalid),
    ("discriminant-identity", _check_discriminant_identity),
    ("adjoint-vs-adjugate", _check_adjoint_adjugate),
    ("normal-form-identity", _check_normal_form),
    ("spaces-vanish", _check_spaces),
    ("histogram-mass", _check_histogram),
    ("convolution-vs-enumeration", _check_convolution),
    ("union-count-vs-membership", _check_union_membership),
    ("block-sum-vs-naive", _check_block_sum_naive),
    ("block-sum-prime-law", _check_prime_law),
    ("singular-term-multiplicative", _check_multiplicativity),
    ("series-tail-decay", _check_series_tail),
    ("local-case-unimodular-invariance", _check_gamma_invariance),
    ("gamma-assembly", _check_gamma_assembly),
    ("solvable-series-floor", _check_solvable_series),
    ("integral-full-slab", _check_integral_exact),
    ("density-thread-determinism", _check_density_determinism),
    ("power-count-partition", _check_power_partition),
    ("surface-flip-symmetry", _check_surface_flip),
    ("divisor-slice-identity", _check_divisor_identity),
    ("form-json-roundtrip", _check_roundtrip),
)


def verify(form: CubicForm) -> list[CheckResult]:
    """Run every desk-scale invariant check; failures are results."""
    out = []
    for name, fn in _CHECKS:
        try:
            passed, detail = fn(form)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        out.append(CheckResult(name, passed, detail))
    return out
