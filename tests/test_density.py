import math
import random

import numpy as np
import pytest

from cubic7.density import (
    BLOCK,
    box_volume,
    density_ladder,
    density_ladders,
    singular_integral,
    slab_volume,
)
from cubic7.errors import DomainError
from cubic7.forms import COEFF_CAP, CubicForm
from cubic7.oracles import _form_value


def test_box_volume():
    assert box_volume("sym") == 128.0
    assert box_volume("pos") == 1.0


def test_slab_full_width_is_exact(f_star):
    # A slab wide enough to catch every sample turns the Monte Carlo
    # estimate into the deterministic value vol / (2 eps), stderr 0.
    span = 8.0  # |f| <= 7 everywhere on the unit sym box for this form
    est = slab_volume(f_star, 0.0, span, 10 ** 4, seed=5)
    assert est.value == 128.0 / (2.0 * span)
    assert est.stderr == 0.0
    assert est.hits == est.samples == 10 ** 4


def test_slab_guards(f_star):
    with pytest.raises(DomainError):
        slab_volume(f_star, 0.0, 0.0, 10 ** 4)
    with pytest.raises(DomainError):
        slab_volume(f_star, 0.0, 0.1, 100)


def test_ladder_extrapolation_identity(f_star):
    res = density_ladder(f_star, 0.0, eps0=0.2, samples=50_000, seed=1)
    assert res.eps == (0.2, 0.1, 0.05)
    assert res.value == 2.0 * res.densities[2] - res.densities[1]
    coarse = 2.0 * res.densities[1] - res.densities[0]
    assert res.residual == abs(res.value - coarse)
    assert res.hits[0] >= res.hits[1] >= res.hits[2]
    d = res.to_dict()
    assert d["value"] == res.value and d["hits"] == list(res.hits)


def test_ladder_hits_pinned(f_fac1):
    # Pinned hit counts: a change in float evaluation order shows here.
    res = density_ladder(f_fac1, 1.0, samples=100_000, seed=9)
    assert res.hits == (2791, 1420, 692)


def test_determinism_across_threads_and_runs(f_star):
    # Three blocks, so threads=3 runs them at once; the last ends mid-chunk.
    samples = 2 * BLOCK + 4321
    a = density_ladder(f_star, 0.0, samples=samples, seed=7, threads=1)
    b = density_ladder(f_star, 0.0, samples=samples, seed=7, threads=3)
    c = density_ladder(f_star, 0.0, samples=samples, seed=7, threads=1)
    assert a.to_dict() == b.to_dict() == c.to_dict()
    other = density_ladder(f_star, 0.0, samples=samples, seed=8)
    assert other.hits != a.hits


def test_zero_density_value_band(f_star):
    res = singular_integral(f_star, "zero", samples=200_000)
    assert 90.0 < res.value < 125.0
    assert res.stderr < 5.0
    assert not res.flagged_zero


def test_never_positive_form_flags_zero():
    # f = -(x1^3 + x4^3 + x7^3) stays negative on the positive box, so the
    # level-1 density is exactly 0 and the result says so.
    form = CubicForm(
        (-1, 0, 0, -1, 0, 0, -1), (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), "pos"
    )
    res = singular_integral(form, "n", samples=20_000)
    assert res.flagged_zero and res.value == 0.0 and res.residual == 0.0
    assert res.f_max <= 0.0


def test_integral_guards(f_star):
    with pytest.raises(DomainError):
        singular_integral(f_star, "mass")
    form = CubicForm(f_star.a, f_star.q1, f_star.q2, "pos")
    with pytest.raises(DomainError):
        singular_integral(form, "zero")
    with pytest.raises(DomainError):
        density_ladder(f_star, 0.0, eps0=-0.1, samples=20_000)
    for threads in (0, -3):
        with pytest.raises(DomainError, match="threads"):
            density_ladder(f_star, 0.0, samples=20_000, threads=threads)
        with pytest.raises(DomainError, match="threads"):
            slab_volume(f_star, 0.0, 0.1, 20_000, threads=threads)


def test_ladders_match_single_ladders(f_star, f_fac1):
    # Each theta of one shared pass equals its own one-theta ladder, for
    # duplicate thetas, thetas at 0 and at the f_min / f_max edges, a
    # sample count that ends mid-block and mid-chunk, and 1 to 3 threads.
    never_positive = CubicForm(
        (-1, 0, 0, -1, 0, 0, -1), (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), "pos"
    )
    samples = BLOCK + 4321
    for form, target in ((f_star, "zero"), (f_fac1, "n"), (never_positive, "n")):
        probe = density_ladder(form, 0.5, samples=samples, seed=4, target=target)
        thetas = (1.0, 0.0, probe.f_max, 1.0, probe.f_min, 0.3, 0.0)
        single = [density_ladder(form, t, samples=samples, seed=4,
                                 target=target).to_dict() for t in thetas]
        assert len({tuple(d["hits"]) for d in single}) >= 4
        assert all(d["flagged_zero"] == (form is never_positive) for d in single)
        for threads in (1, 2, 3):
            shared = density_ladders(form, thetas, samples=samples, seed=4,
                                     threads=threads, target=target)
            assert [r.to_dict() for r in shared] == single


def test_ladders_guards(f_star):
    with pytest.raises(DomainError, match="theta"):
        density_ladders(f_star, [], samples=20_000)
    with pytest.raises(DomainError, match="threads"):
        density_ladders(f_star, [0.0, 1.0], samples=20_000, threads=0)
    with pytest.raises(DomainError, match="eps"):
        density_ladders(f_star, [0.0, 1.0], eps0=0.0, samples=20_000)
    with pytest.raises(DomainError, match="samples"):
        density_ladders(f_star, [0.0, 1.0], samples=9_999)


def test_non_finite_eps_rejected(f_star):
    # NaN passes a plain eps <= 0 test and would print NaN densities; an
    # infinite eps would count every point and report a density of 0.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="eps"):
            density_ladder(f_star, 0.0, eps0=bad, samples=20_000)
        with pytest.raises(DomainError, match="eps"):
            density_ladders(f_star, [0.0, 1.0], eps0=bad, samples=20_000)
        with pytest.raises(DomainError, match="eps"):
            singular_integral(f_star, "zero", eps0=bad, samples=20_000)
        with pytest.raises(DomainError, match="eps"):
            slab_volume(f_star, 0.0, bad, 20_000)


def test_every_rung_must_be_positive(f_star):
    # eps0 / 4 rounds to 0 at eps0 = 1e-323 (and eps0 / 2 at 5e-324): every
    # rung of the ladder is refused like eps0 itself, before any sampling.
    for bad in (5e-324, 1e-323):
        with pytest.raises(DomainError, match="eps"):
            density_ladder(f_star, 0.0, eps0=bad, samples=20_000)
        with pytest.raises(DomainError, match="eps"):
            density_ladders(f_star, [0.0, 1.0], eps0=bad, samples=20_000)
        with pytest.raises(DomainError, match="eps"):
            singular_integral(f_star, "zero", eps0=bad, samples=20_000)
    # All three rungs of 1.5e-323 are positive, and a slab has one rung.
    res = density_ladder(f_star, 0.0, eps0=1.5e-323, samples=20_000)
    assert res.eps[2] > 0.0
    est = slab_volume(f_star, 0.0, 5e-324, 20_000)
    assert est.epsilon == 5e-324 and math.isfinite(est.value)


def test_non_finite_theta_rejected(f_star):
    # A NaN or infinite level would match no point and report density 0.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="theta must be finite"):
            density_ladder(f_star, bad, samples=20_000)
        with pytest.raises(DomainError, match="theta must be finite"):
            density_ladders(f_star, [0.0, bad], samples=20_000)
        with pytest.raises(DomainError, match="theta must be finite"):
            slab_volume(f_star, bad, 0.1, 20_000)


def test_huge_finite_eps_keeps_its_density(f_star):
    # 2 * eps overflows to inf above DBL_MAX / 2; the density must not.
    est = slab_volume(f_star, 0.0, 1.7e308, 20_000)
    assert est.hits == est.samples
    assert est.value == 128.0 / 2.0 / 1.7e308 > 0.0
    assert est.stderr == 0.0
    res = density_ladder(f_star, 0.0, eps0=1.7e308, samples=20_000)
    assert res.densities == tuple(128.0 / 2.0 / e for e in res.eps)
    assert res.densities[0] > 0.0


def test_block_chunks_match_one_draw(f_star):
    # Chunked evaluation equals evaluating the block's points in one draw.
    # tracemalloc does not see the draw buffer, which is mapped outside the
    # Python allocator; what it sees of a whole block (the theta test row
    # and CubicForm.value's temporaries, about 49 bytes a point) stays below
    # one (7, chunk) float buffer, 56 bytes a point, so a column copy of
    # the draw would fail here.  A single draw of the block needs ~60 MB.
    import tracemalloc

    from cubic7.density import _CHUNK, _block_stats

    count, eps = 2 * _CHUNK + 12345, (0.1, 0.05, 0.025)
    u = np.random.Generator(np.random.Philox(key=[3, 5])).random((count, 7))
    f = _form_value(f_star, list((2.0 * u - 1.0).T))
    hits = [[int((np.abs(f - t) <= e).sum()) for e in eps] for t in (0.0, 0.5)]
    assert _block_stats(f_star, (0.0, 0.5), eps, 3, 5, count) == (
        hits, float(f.min()), float(f.max()))
    tracemalloc.start()
    try:
        _block_stats(f_star, (0.0,), eps, 0, 0, 1 << 19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 8 * _CHUNK


def _random_form(rng, box):
    """A form whose coefficients are mostly 0, +-1 and +-COEFF_CAP."""
    pool = (0, 0, 0, 1, -1, COEFF_CAP, -COEFF_CAP, 2, -5)
    while True:
        a = [rng.choice(pool) for _ in range(7)]
        if a[6] and any(a[0:3]) and any(a[3:6]):
            return CubicForm(a, [rng.choice(pool) for _ in range(6)],
                             [rng.choice(pool) for _ in range(6)], box)


def test_block_stats_match_brute_values(monkeypatch):
    # The chunked evaluator (CubicForm.value on the draw buffer's transposed
    # view, zero coefficients dropped and unit coefficients skipped, nested
    # eps counts) gives exactly the hits, f_min and f_max of the oracle's
    # full expression on the same points, for any chunk size.  The counts
    # end mid-chunk, fall below one chunk, fill whole chunks exactly, and
    # include 38,528, the last block of a 10M-point pass.
    import cubic7.density as density

    rng = random.Random(2024)
    forms = [_random_form(rng, box) for box in ("sym", "pos", "nonneg") * 4]
    forms.append(CubicForm((1, 0, 0, -1, 1, 0, 1), (0,) * 6,
                           (0, 1, 0, 0, 0, 1), "sym"))  # Q1 = 0
    forms.append(CubicForm((0, 1, 0, 0, 0, -1, -1), (0,) * 6, (0,) * 6,
                           "pos"))  # f = a7 x7^3 alone
    eps = (0.5, 0.25, 0.125)
    chunk0 = density._CHUNK
    assert 10_000_000 % BLOCK == 38_528
    for i, form in enumerate(forms):
        for count in (3 * chunk0 + 1000 * i + 77, chunk0 // 2 + 37 * i,
                      2 * chunk0, 38_528):
            gen = np.random.Generator(np.random.Philox(key=[i, 2]))
            u = gen.random((count, 7))
            if form.box == "sym":
                u = 2.0 * u - 1.0
            f = _form_value(form, list(u.T))
            thetas = (0.0, float(np.median(f)), float(f[0]))
            hits = [[int((np.abs(f - t) <= e).sum()) for e in eps]
                    for t in thetas]
            expected = (hits, float(f.min()), float(f.max()))
            for chunk in (chunk0, 1000, 1 << 16):
                monkeypatch.setattr(density, "_CHUNK", chunk)
                got = density._block_stats(form, thetas, eps, i, 2, count)
                assert got == expected
