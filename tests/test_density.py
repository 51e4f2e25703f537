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
from cubic7.forms import CubicForm


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
    a = density_ladder(f_star, 0.0, samples=120_000, seed=7, threads=1)
    b = density_ladder(f_star, 0.0, samples=120_000, seed=7, threads=3)
    c = density_ladder(f_star, 0.0, samples=120_000, seed=7, threads=1)
    assert a.to_dict() == b.to_dict() == c.to_dict()
    other = density_ladder(f_star, 0.0, samples=120_000, seed=8)
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


def test_block_chunks_match_one_draw(f_star):
    # Chunked evaluation equals evaluating the block's points in one draw,
    # and a whole block stays far below the ~60 MB a single draw needs.
    import tracemalloc

    import numpy as np

    from cubic7.density import _CHUNK, _block_stats

    count, eps = 2 * _CHUNK + 12345, (0.1, 0.05, 0.025)
    u = np.random.Generator(np.random.Philox(key=[3, 5])).random((count, 7))
    f = f_star.value(list((2.0 * u - 1.0).T))
    hits = [[int((np.abs(f - t) <= e).sum()) for e in eps] for t in (0.0, 0.5)]
    assert _block_stats(f_star, (0.0, 0.5), eps, 3, 5, count) == (
        hits, float(f.min()), float(f.max()))
    tracemalloc.start()
    try:
        _block_stats(f_star, (0.0,), eps, 0, 0, 1 << 19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
