import decimal
import fractions
import functools
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubic7.errors import DegenerateBlockError, DomainError, InvalidFormError
from cubic7.forms import (
    _CUBIC_NODES,
    COEFF_CAP,
    CubicForm,
    adjoint_matrix,
    block_invariants,
    block_value,
    box_interval,
    box_range,
    classify,
    content_decomposition,
    cube_residues,
    delta,
    form_from_dict,
    form_to_dict,
    is_rational_cube,
    linear_spaces,
    load_form,
    _vanishes_on,
    transform_block,
)
from cubic7.oracles import _block, _form_value, adjugate_brute, apply_unimodular, random_unimodular


def _rand_block(rng):
    l = tuple(rng.randint(-5, 5) for _ in range(3))
    if l == (0, 0, 0):
        l = (1, 0, 0)
    q = tuple(rng.randint(-5, 5) for _ in range(6))
    return l, q


def test_box_kinds():
    assert box_interval("sym", 3) == (-3, 3)
    assert box_interval("pos", 3) == (1, 3)
    assert box_interval("nonneg", 3) == (0, 3)
    assert list(box_range("pos", 2)) == [1, 2]
    with pytest.raises(DomainError):
        box_interval("cube", 3)


def test_block_value_hand_case():
    # L = x + 2z, Q = y^2 + 3xy at (1, 2, -1): L = -1, Q = 4 + 6 = 10.
    assert block_value((1, 0, 2), (0, 1, 0, 0, 0, 3), 1, 2, -1) == -10
    # Skipping zero and unit coefficients is exact: Python ints give the
    # oracle's int, float64 arrays its floats, and an all-zero Q gives 0.
    rng = random.Random(26)
    pool = (0, 0, 1, -1, 2, -2, COEFF_CAP, -COEFF_CAP)
    u = 2.0 * np.random.default_rng(26).random((3, 500)) - 1.0
    for _ in range(400):
        l = tuple(rng.choice(pool) for _ in range(3))
        q = tuple(rng.choice(pool) for _ in range(6))
        x, y, z = (rng.choice((0, 1, -1, rng.randint(-10 ** 6, 10 ** 6)))
                   for _ in range(3))
        got = block_value(l, q, x, y, z)
        assert type(got) is int and got == _block(l, q, x, y, z)
        assert np.all(block_value(l, q, *u) == _block(l, q, *u))
        zero = block_value(l, (0,) * 6, x, y, z)
        assert type(zero) is int and zero == 0
        assert np.all(block_value(l, (0,) * 6, *u) == 0)


def test_cube_residues():
    for a7, m in ((1, 1), (1, 7), (-3, 9), (COEFF_CAP, 360), (-COEFF_CAP - 7, 4096)):
        got = cube_residues(a7, m)
        assert got.dtype.name == "int64"
        assert got.tolist() == [a7 * x ** 3 % m for x in range(m)]


def test_form_validation():
    good = CubicForm((1, 0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1))
    assert good.a7 == 1 and good.l1 == (1, 0, 0) and good.l2 == (1, 0, 0)
    with pytest.raises(InvalidFormError):
        CubicForm((1, 0, 0, 1, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1))
    with pytest.raises(InvalidFormError):
        CubicForm((0, 0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1))
    with pytest.raises(InvalidFormError):
        CubicForm((1, 0, 0, 0, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1))
    with pytest.raises(InvalidFormError):
        CubicForm((1, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1))
    with pytest.raises(InvalidFormError):
        CubicForm(
            (1, 0, 0, 1, 0, 0, COEFF_CAP + 1), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1)
        )
    with pytest.raises(DomainError):
        CubicForm((1, 0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1), "ball")


def test_form_value_matches_blocks(f_star):
    x = (1, 2, -1, 0, 3, 1, -2)
    v = (
        block_value(f_star.l1, f_star.q1, 1, 2, -1)
        + block_value(f_star.l2, f_star.q2, 0, 3, 1)
        + (-2) ** 3
    )
    assert f_star.value(x) == v
    with pytest.raises(DomainError):
        f_star.value((1, 2, 3))


def test_adjoint_matrix_vs_adjugate_oracle():
    rng = random.Random(11)
    for _ in range(200):
        q = tuple(rng.randint(-6, 6) for _ in range(6))
        A1, A2, A3, B1, B2, B3 = q
        gram = [[2 * A1, B3, B2], [B3, 2 * A2, B1], [B2, B1, 2 * A3]]
        want = [[-v for v in row] for row in adjugate_brute(gram)]
        assert [list(row) for row in adjoint_matrix(q)] == want


def test_delta_zero_for_running_example(f_star):
    assert delta(f_star.l1, f_star.q1) == 0
    assert delta(f_star.l2, f_star.q2) == 0
    with pytest.raises(InvalidFormError):
        delta((0, 0, 0), (1, 0, 0, 0, 0, 0))


def test_block_invariants_running_example(f_star):
    inv = block_invariants(f_star.l1, f_star.q1)
    assert inv.delta == 0
    assert inv.pivot == 1
    assert inv.primed == (0, 0, 1, 0, 1)
    assert inv.frakD == 2
    assert inv.dpp is None
    assert not inv.degenerate


def test_primed_discriminant_identity_random():
    rng = random.Random(5)
    for _ in range(400):
        l, q = _rand_block(rng)
        inv = block_invariants(l, q)
        Ap, Bp, Cp, _, _ = inv.primed
        assert Bp * Bp - 4 * Ap * Cp == l[inv.pivot - 1] ** 2 * inv.delta


def test_degenerate_block_detected():
    # L = x, Q = xy: the block is x^2 y, a cubic in two variables.
    inv = block_invariants((1, 0, 0), (0, 0, 0, 0, 0, 1))
    assert inv.degenerate and inv.frakD == 0
    with pytest.raises(DegenerateBlockError):
        transform_block((1, 0, 0), (0, 0, 0, 0, 0, 1))


def test_transform_block_identity_random():
    rng = random.Random(17)
    branches = set()
    for _ in range(80):
        l, q = _rand_block(rng)
        try:
            nf = transform_block(l, q)
        except DegenerateBlockError:
            continue
        branches.add(nf.branch)
        for x, y, z in itertools.product(range(-2, 3), repeat=3):
            assert nf.scale * block_value(l, q, x, y, z) == nf.rhs(x, y, z)
    assert {"nonzero-a", "nonzero-c"} <= branches


_c = st.integers(-6, 6)
_random_block = st.tuples(st.tuples(_c, _c, _c).filter(any), st.tuples(*[_c] * 6))
# L*Q in x and y only is degenerate; a unimodular change hides the fact.
_binary_block = st.builds(
    lambda l, q, seed: apply_unimodular(
        (*l, 0), (q[0], q[1], 0, 0, 0, q[2]), random_unimodular(random.Random(seed))
    ),
    st.tuples(_c, _c).filter(any),
    st.tuples(_c, _c, _c),
    st.integers(0, 2 ** 32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(block=st.one_of(_random_block, _binary_block))
def test_normal_form_identity_hypothesis(block):
    # transform_block raises exactly on degenerate blocks; otherwise the
    # identity holds on {-3..3}^3, beyond its own {-2..2}^3 self-check.
    l, q = block
    degenerate = block_invariants(l, q).degenerate
    try:
        nf = transform_block(l, q)
    except DegenerateBlockError:
        assert degenerate
        return
    assert not degenerate
    for x, y, z in itertools.product(range(-3, 4), repeat=3):
        assert nf.scale * block_value(l, q, x, y, z) == nf.rhs(x, y, z)


def test_transform_block_branches_targeted():
    # One block per branch; the identity self-check runs inside the call.
    cases = {
        "zero-a": ((1, 0, 0), (0, 1, 0, 0, 1, 0)),  # x(y^2 + xz)
        "zero-c": ((1, 0, 0), (0, 0, 1, 0, 0, 1)),  # x(z^2 + xy)
        "split": ((1, 0, 0), (0, 0, 0, 1, 0, 0)),  # x * yz
        "nonzero-c": ((1, 0, 0), (0, 0, 1, 1, 0, 0)),  # x(z^2 + yz)
        "nonzero-a": ((1, 0, 0), (0, 1, 1, 0, 0, 0)),  # x(y^2 + z^2)
    }
    for branch, (l, q) in cases.items():
        assert transform_block(l, q).branch == branch


def test_linear_spaces_running_example(f_star):
    spaces = linear_spaces(f_star)
    assert len(spaces) == 1
    assert spaces[0].tag == "1"
    assert spaces[0].covectors == (
        (1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1),
    )
    assert len(spaces[0].kernel_basis()) == 4


def test_linear_spaces_factorizing(f_fac1):
    spaces = linear_spaces(f_fac1)
    assert [sp.tag for sp in spaces] == ["1", "2", "3"]
    assert {sp.subcase for sp in spaces} == {None, "iii"}


def test_linear_spaces_cube_branch(f_fac2):
    spaces = linear_spaces(f_fac2)
    assert [sp.tag for sp in spaces] == ["1", "2'", "3'"]
    # The third covector ties L2 to the cube variable: x4 + x7.
    third = spaces[1].covectors[2]
    assert third == (0, 0, 0, 1, 0, 0, 1)


# Block 1 = x1(x1 x2 + x3^2), L2 = x4, a7 = 1; one Q2 per (tag, subcase).
# Every space has first covector e1 and basis vectors e2, e3 first; each
# row lists the rest on (x4, x5, x6, x7): tag, subcase, the second and
# third covectors, the last two basis vectors, and the note if any.
_PINNED_SPACES = {
    (-1, 1, 0, -1, -1, 0): [
        ("1", None, (1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)),
        ("2", "i", (1, 1, 0, 0), (0, 0, 0, 1), (-1, 1, 0, 0), (0, 0, 1, 0)),
        ("3", "i", (1, -1, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (-1, 0, 1, 0)),
    ],
    (-1, 0, 1, -1, 0, -1): [
        ("1", None, (1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)),
        ("2", "ii", (1, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (-1, 0, 1, 0)),
        ("3", "ii", (1, 1, -1, 0), (0, 0, 0, 1), (-1, 1, 0, 0), (1, 0, 1, 0)),
    ],
    (-1, 0, 0, -1, -1, -1): [
        ("1", None, (1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)),
        ("2", "iii", (1, 1, 0, 0), (0, 0, 0, 1), (-1, 1, 0, 0), (0, 0, 1, 0)),
        ("3", "iii", (1, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (-1, 0, 1, 0)),
    ],
    (-1, -1, 0, -1, -1, -1): [
        ("1", None, (1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)),
        ("2'", "i", (1, 1, 0, 0), (-1, 0, 0, 1), (0, 0, 1, 0), (1, -1, 0, 1)),
        ("3'", "i", (0, 1, 1, 0), (-1, 0, 0, 1), (0, -1, 1, 0), (1, 0, 0, 1)),
    ],
    (-1, 0, -1, -1, -1, -1): [
        ("1", None, (1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)),
        ("2'", "ii", (1, 0, 1, 0), (-1, 0, 0, 1), (0, 1, 0, 0), (1, 0, -1, 1)),
        ("3'", "ii", (0, 1, 1, 0), (-1, 0, 0, 1), (0, -1, 1, 0), (1, 0, 0, 1),
         "second space taken symmetric to the first"),
    ],
    (-1, 0, 0, -1, -1, 0): [
        ("1", None, (1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)),
        ("2'", "iii", (1, 1, 0, 0), (-1, 0, 0, 1), (0, 0, 1, 0), (1, -1, 0, 1)),
        ("3'", "iii", (0, 0, 1, 0), (-1, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 1)),
    ],
}


@pytest.mark.parametrize("q2", list(_PINNED_SPACES))
def test_linear_spaces_pinned_subcases(q2):
    form = CubicForm((1, 0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 1), q2)

    def full(tail):
        return [0, 0, 0, *tail]

    want = []
    for tag, subcase, c2, c3, b3, b4, *note in _PINNED_SPACES[q2]:
        d = {
            "covectors": [[1, 0, 0, 0, 0, 0, 0], full(c2), full(c3)],
            "tag": tag,
            "subcase": subcase,
            "basis": [[0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0],
                      full(b3), full(b4)],
        }
        if note:
            d["note"] = note[0]
        want.append(d)
    assert [sp.to_dict() for sp in linear_spaces(form)] == want


def test_spaces_vanish_on_form(f_star, f_fac1, f_fac2):
    rng = random.Random(23)
    for form in (f_star, f_fac1, f_fac2):
        for sp in linear_spaces(form):
            basis = sp.kernel_basis()
            assert len(basis) == 4
            for _ in range(25):
                t = [rng.randint(-4, 4) for _ in range(4)]
                x = [sum(t[j] * basis[j][i] for j in range(4)) for i in range(7)]
                assert form.value(x) == 0


def test_content_decomposition(f_content2, f_star):
    c, mult, b1, b2 = content_decomposition(f_content2)
    assert c == 2 and mult == (1, 2, 3)
    assert b1 == ((1, 0, 0), (0, 0, 1, 0, 0, 1))
    assert b2 == ((1, 0, 0), (0, 0, 1, 0, 0, 1))
    c, mult, _, _ = content_decomposition(f_star)
    assert c == 1 and mult == (1, 1, 1)


def test_classify(f_star, f_fac1, f_fac2):
    assert not classify(f_star).q2_factorizes
    assert classify(f_fac1).q2_factorizes
    assert not classify(f_fac2).q2_factorizes  # D'' = 1, not a split case
    d = classify(f_star).to_dict()
    assert d["content"] == 1 and len(d["spaces"]) == 1


@functools.cache
def _census_sweep():
    """[(form, classify(form))] for the nondegenerate forms among 2,000
    seeded ones: small coefficients with many zeros reach all three tag
    sets."""
    rng = random.Random(36)

    def draw(n):
        return tuple(rng.choice((0, 0, 1, -1)) for _ in range(n))

    def linear():
        l = draw(3)
        return l if any(l) else (1, 0, 0)

    sweep = []
    for _ in range(2000):
        form = CubicForm(linear() + linear() + (rng.choice((1, -1, 8)),), draw(6), draw(6))
        try:
            sweep.append((form, classify(form)))
        except DegenerateBlockError:
            continue
    return sweep


def test_census_sweep_distinct_spaces_and_q2_factorizes():
    # Q2 factorizes over Q exactly when Delta2 is a nonzero square and
    # D'' = 0.
    tag_sets = set()
    for form, c in _census_sweep():
        tags = tuple(sp.tag for sp in c.spaces)
        tag_sets.add(tags)
        bases = [tuple(sp.kernel_basis()) for sp in c.spaces]
        assert len(set(bases)) == len(bases), form
        d = c.block2.delta
        assert c.q2_factorizes == (d > 0 and math.isqrt(d) ** 2 == d and c.block2.dpp == 0)
        assert c.q2_factorizes == ("2" in tags)
    assert tag_sets == {("1",), ("1", "2", "3"), ("1", "2'", "3'")}


_GRID4 = np.array(list(itertools.product(range(4), repeat=4)), dtype=np.int64)


def _vanishes_on_grid(form, space):
    """f = 0 at all 256 points of {0..3}^4 in the space's kernel basis,
    each parameter of degree <= 3: the reference for forms._vanishes_on."""
    x = _GRID4 @ np.array(space.kernel_basis(), dtype=np.int64)
    return not np.any(_form_value(form, x.T))


def test_vanishing_nodes_agree_with_the_grid():
    # The 20 nodes t >= 0, sum t = 3 decide vanishing exactly as the
    # 256-point grid does: on every space of the census sweep, and there on
    # the form with one of a1..a7 raised by 2 (never to 0), in turn, which
    # mostly does not vanish on it.
    assert len(_CUBIC_NODES) == 20
    vanish = {True: 0, False: 0}
    spaces = ((form, sp) for form, census in _census_sweep() for sp in census.spaces)
    for k, (form, sp) in enumerate(spaces):
        assert _vanishes_on_grid(form, sp) and _vanishes_on(form, sp)
        i = k % 7
        bumped = CubicForm(form.a[:i] + (form.a[i] + 2,) + form.a[i + 1 :], form.q1, form.q2)
        want = _vanishes_on_grid(bumped, sp)
        assert _vanishes_on(bumped, sp) == want, (bumped, sp)
        vanish[want] += 1
    assert vanish[False] > vanish[True] > 0


_PINS = json.loads(Path(__file__).with_name("forms_pins.json").read_text())


def test_payloads_pinned(f_star, f_fac1, f_fac2, f_content2, f_iii):
    """classify and transform_block payloads equal their recorded integers."""
    forms = {"f_star": f_star, "f_fac1": f_fac1, "f_fac2": f_fac2,
             "f_content2": f_content2, "f_iii": f_iii}
    assert set(_PINS["classify"]) == set(forms)
    for name, form in forms.items():
        assert classify(form).to_dict() == _PINS["classify"][name], name
    bench_fac1 = Path(__file__).parents[1] / "bench" / "forms" / "f_fac1.json"
    assert classify(load_form(str(bench_fac1))).to_dict() == _PINS["classify"]["f_fac1"]
    assert set(_PINS["transform_block"]) == {
        "nonzero-a", "nonzero-c", "split", "zero-a", "zero-c"}
    for branch, pin in _PINS["transform_block"].items():
        assert block_invariants(pin["l"], pin["q"]).to_dict() == pin["inv"]
        nf = transform_block(pin["l"], pin["q"]).to_dict()
        assert nf["branch"] == branch and nf == pin["nf"]


def test_is_rational_cube():
    assert is_rational_cube(8, 27) == (2, 3)
    assert is_rational_cube(-8, 27) == (-2, 3)
    assert is_rational_cube(16, 54) == (2, 3)  # reduces to 8/27
    assert is_rational_cube(-8, -27) == (2, 3)
    assert is_rational_cube(8, -27) == (-2, 3)
    assert is_rational_cube(250, -16) == (-5, 2)  # reduces to -125/8
    big = 3 ** 45  # (3^15)^3 > 2^63
    assert is_rational_cube(10 * big, -10 * 2 ** 66) == (-3 ** 15, 2 ** 22)
    assert is_rational_cube(big + 1, 2 ** 66) is None
    assert is_rational_cube(2, 1) is None
    assert is_rational_cube(0, 5) is None
    with pytest.raises(DomainError):
        is_rational_cube(1, 0)


def test_coefficients_must_be_integers(f_star):
    """Python and numpy integers construct a form; nothing else is coerced.

    The rule is numbers.Integral less bool: numpy registers its integer
    types there, and not np.bool_; Fraction and Decimal are not Integral
    even when their value is whole."""
    for cast in (np.int64, np.int32, np.uint8, np.uint64):
        got = CubicForm(tuple(cast(v) for v in f_star.a), f_star.q1, f_star.q2)
        assert got == f_star
        assert all(type(v) is int for v in got.a)
    for bad in (1.5, 1.0, True, False, "1", np.float64(1.0), np.bool_(True),
                fractions.Fraction(1), decimal.Decimal(1)):
        with pytest.raises(InvalidFormError, match=r"coefficient a\[2\]"):
            CubicForm((1, 0, bad, 1, 0, 0, 1), f_star.q1, f_star.q2)
        with pytest.raises(InvalidFormError, match=r"coefficient q2\[5\]"):
            CubicForm(f_star.a, f_star.q1, (*f_star.q2[:5], bad))
        d = form_to_dict(f_star)
        d["Q1"]["B"][1] = bad
        with pytest.raises(InvalidFormError, match=r"coefficient Q1\.B\[1\]"):
            form_from_dict(d)


def test_form_json_roundtrip(f_fac2, tmp_path):
    d = form_to_dict(f_fac2)
    assert form_from_dict(d) == f_fac2
    path = tmp_path / "form.json"
    path.write_text(json.dumps(d))
    assert load_form(str(path)) == f_fac2
    with pytest.raises(InvalidFormError):
        form_from_dict({"a": [1, 2]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidFormError):
        load_form(str(bad))
