"""Monte Carlo estimates of the real solution density (singular integral).

The oscillatory double integral is evaluated in its density form: the value
at level theta is lim_{eps -> 0} vol{x in B : |f(x) - theta| <= eps} /
(2 eps) over the unit-scaled box B.  slab_volume estimates one slab;
singular_integral runs the nested ladder (eps, eps/2, eps/4) in a single
sampling pass and Richardson-extrapolates, which is the J_1 / J_2 (theta=1)
or J_0 (theta=0) estimate.

Determinism: samples are drawn in fixed blocks of 2^19 points from Philox
keyed by (seed, block index), and each block is evaluated in chunks of
_CHUNK points drawn consecutively from its stream.  Blocks contribute
integer hit counts that are combined in block order, so results are
bit-identical for any thread count and any run.  The chunk size does not
change results either: consecutive draws continue one stream, so the chunks
of a block hold the points of one draw of the whole block, and each point's
value and comparisons involve that point alone.

Evaluation: each block allocates its draw and theta test buffers once and
reuses them for every chunk.  A chunk is drawn into a (chunk, 7) buffer and
mapped to the sym box there in place (x * 2 - 1).  f is then CubicForm.value
on the buffer's transposed view, whose rows are the seven coordinates as
strided columns, so nothing is copied; CubicForm.value is the evaluator of f
for ints and floats alike.  Its block_value skips zero coefficients and the
product by a coefficient 1, which is exact (x + (+-0.0) == x for nonzero
finite x, and 1*x == x): f can differ from the full expression only in the
sign of an exact zero, so no hit changes, and f_min or f_max only in the
sign of a zero.

One pass serves every theta: density_ladders draws and evaluates each chunk
once and applies the test |f(x) - theta| <= eps to the same float array for
each theta in turn.  The points, the f values and the comparison are those
of a one-theta pass, so every theta gets the hits, f_min and f_max it would
get alone.  The eps levels of a pass do not increase, so each level counts
its hits among those of the level before (af = af[af <= eps]): the counts
equal separate comparisons, and the smaller levels scan only the points
that passed the first.

Argument rules have one owner, _check_pass, which _sample_pass (so
slab_volume and the ladders) and experiment.predict call before any work;
it checks every rung of a ladder, _rungs(eps0), not only eps0.
"""

from __future__ import annotations

import math
import mmap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .forms import CubicForm
from .payload import Payload

BLOCK = 1 << 19
# Points evaluated at once.  A chunk costs about 30 small numpy calls, each
# a hand-off of the GIL between workers, so small chunks leave the second
# thread little to do: a 10M-point ladder took 0.43 s on two threads at
# 1 << 12 (with a column copy) and 0.34 s at 1 << 14, against 0.68 and
# 0.67 s on one (medians of 11 interleaved runs, 2-vCPU VM).  A worker's
# draw buffer (917 KB) still fits a core's 2 MB L2, and past it a block
# peaks near 0.8 MB (tracemalloc), against 60 MB for a whole block in one
# draw.  The size changes no result.  From malloc, a buffer this size would
# be mmapped, and freeing it would raise glibc's dynamic mmap threshold to
# its size, so that later phases keep more freed heap resident
# (circle-zeros peaked 2.2 MB higher, representations 0.7 MB); the draw
# buffer is therefore mapped with the mmap module, whose unmapping leaves
# the threshold alone.
_CHUNK = 1 << 14
_MASK64 = (1 << 64) - 1


def box_volume(box: str) -> float:
    return 128.0 if box == "sym" else 1.0


def _block_stats(form, thetas, eps_levels, seed: int, index: int, count: int):
    """Per-theta hit lists, f_min and f_max of one block of count points.

    eps_levels must not increase: each level counts among the last one's hits.
    """
    gen = np.random.Generator(np.random.Philox(key=[seed & _MASK64, index]))
    m = min(_CHUNK, count)
    # Mapped outside malloc, to leave glibc's mmap threshold alone (_CHUNK).
    draw = np.frombuffer(mmap.mmap(-1, m * 7 * 8)).reshape(m, 7)
    tmp = np.empty(m)
    hits = [[0] * len(eps_levels) for _ in thetas]
    f_min = math.inf
    f_max = -math.inf
    for s in range(0, count, _CHUNK):
        n = min(_CHUNK, count - s)
        # Consecutive draws continue one stream: the points equal one draw.
        d = draw[:n]
        gen.random(out=d)
        if form.box == "sym":
            d *= 2.0
            d -= 1.0
        f = form.value(d.T)
        for h, theta in zip(hits, thetas):
            af = np.subtract(f, theta, out=tmp[:n])
            np.abs(af, out=af)
            for k, e in enumerate(eps_levels):
                af = af[af <= e]
                h[k] += af.size
        f_min = min(f_min, float(f.min()))
        f_max = max(f_max, float(f.max()))
    return hits, f_min, f_max


def _rungs(eps0: float) -> tuple[float, float, float]:
    return eps0, eps0 / 2.0, eps0 / 4.0


def _check_pass(thetas, eps_levels, samples: int, threads: int) -> None:
    """Refuse a pass's arguments before any work.  Every rung is checked:
    eps0 / 4 rounds to 0 below about 2e-323, and _slab divides by it."""
    if not thetas:
        raise DomainError("need at least one theta")
    if not all(math.isfinite(e) and e > 0 for e in eps_levels):
        raise DomainError("eps must be positive and finite")
    if not all(math.isfinite(t) for t in thetas):
        raise DomainError("theta must be finite")
    if samples < 10 ** 4:
        raise DomainError("need at least 10^4 samples")
    if threads < 1:
        raise DomainError("threads must be at least 1")


def _sample_pass(form: CubicForm, thetas, eps_levels, samples: int,
                 seed: int, threads: int):
    """Per-theta hit lists (one count per eps level), f_min and f_max, from
    the blocks run on threads workers and combined in block order."""
    _check_pass(thetas, eps_levels, samples, threads)
    nblocks = (samples + BLOCK - 1) // BLOCK
    sizes = [BLOCK] * (nblocks - 1) + [samples - BLOCK * (nblocks - 1)]

    def run(i: int):
        return _block_stats(form, thetas, eps_levels, seed, i, sizes[i])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        hits, lows, highs = zip(*pool.map(run, range(nblocks)))
    return np.sum(hits, axis=0).tolist(), min(lows), max(highs)


@dataclass(frozen=True)
class SlabEstimate(Payload):
    """One slab density vol{|f - theta| <= eps} / (2 eps) with its stderr."""

    value: float
    epsilon: float
    samples: int
    stderr: float
    seed: int
    theta: float
    hits: int


def _slab(vol: float, hits: int, samples: int, eps: float) -> tuple[float, float]:
    """(density, stderr) of one slab of half-width eps from its hit count."""
    p = hits / samples
    # Halving first keeps a finite eps above DBL_MAX / 2 from overflowing
    # 2 * eps to inf; where 2 * eps is finite the quotients are the same,
    # since halving is exact.
    return (vol * p / 2.0 / eps,
            vol * math.sqrt(p * (1.0 - p) / samples) / 2.0 / eps)


def slab_volume(form: CubicForm, theta: float, epsilon: float, samples: int,
                seed: int = 0, threads: int = 1) -> SlabEstimate:
    """Monte Carlo slab density at a single half-width."""
    hits, _, _ = _sample_pass(form, (theta,), (epsilon,), samples, seed,
                              threads)
    value, stderr = _slab(box_volume(form.box), hits[0][0], samples, epsilon)
    return SlabEstimate(
        value=value,
        epsilon=epsilon,
        samples=samples,
        stderr=stderr,
        seed=seed,
        theta=theta,
        hits=hits[0][0],
    )


@dataclass(frozen=True)
class DensityResult(Payload):
    """Richardson-extrapolated density over the nested epsilon ladder."""

    target: str  # "zero" or "n"
    theta: float
    eps: tuple[float, float, float]
    samples: int
    seed: int
    hits: tuple[int, int, int]
    volume: float
    densities: tuple[float, float, float]
    value: float
    residual: float  # gap between the two extrapolation levels
    stderr: float
    f_min: float
    f_max: float
    flagged_zero: bool  # positivity rule forced the value to 0


def _ladders(form: CubicForm, thetas, eps0: float, samples: int, seed: int,
             threads: int, target: str) -> tuple[DensityResult, ...]:
    """Three nested slabs per theta from one pass, extrapolated linearly
    in epsilon."""
    eps_levels = _rungs(eps0)
    all_hits, f_min, f_max = _sample_pass(form, thetas, eps_levels, samples,
                                          seed, threads)
    vol = box_volume(form.box)
    # J_1 vanishes when f is never positive on the closed orthant box.
    flagged = target == "n" and form.box in ("pos", "nonneg") and f_max <= 0.0
    results = []
    for theta, hits in zip(thetas, all_hits):
        dens, errs = zip(*(_slab(vol, h, samples, eps)
                           for h, eps in zip(hits, eps_levels)))
        value = 0.0 if flagged else 2.0 * dens[2] - dens[1]
        coarse = 2.0 * dens[1] - dens[0]
        results.append(DensityResult(
            target=target,
            theta=theta,
            eps=eps_levels,
            samples=samples,
            seed=seed,
            hits=tuple(hits),
            volume=vol,
            densities=dens,
            value=value,
            residual=abs(value - coarse) if not flagged else 0.0,
            stderr=math.sqrt(4.0 * errs[2] ** 2 + errs[1] ** 2),
            f_min=f_min,
            f_max=f_max,
            flagged_zero=flagged,
        ))
    return tuple(results)


def density_ladder(form: CubicForm, theta: float, eps0: float = 0.1,
                   samples: int = 10_000_000, seed: int = 0,
                   threads: int = 1, target: str = "n") -> DensityResult:
    """Three nested slabs in one pass, extrapolated linearly in epsilon."""
    return _ladders(form, (theta,), eps0, samples, seed, threads, target)[0]


def density_ladders(form: CubicForm, thetas, eps0: float = 0.1,
                    samples: int = 10_000_000, seed: int = 0,
                    threads: int = 1, target: str = "n"
                    ) -> tuple[DensityResult, ...]:
    """density_ladder at every theta, in theta order, from one shared pass."""
    return _ladders(form, tuple(thetas), eps0, samples, seed, threads, target)


def singular_integral(form: CubicForm, target: str = "zero", eps0: float = 0.1,
                      samples: int = 10_000_000, seed: int = 0,
                      threads: int = 1) -> DensityResult:
    """J_0 (target "zero", theta 0, Sym box) or J_1/J_2 (target "n", theta 1)."""
    if target not in ("zero", "n"):
        raise DomainError(f"unknown target {target!r}")
    if target == "zero" and form.box != "sym":
        raise DomainError("the zero-density integral is defined on the sym box")
    theta = 0.0 if target == "zero" else 1.0
    return density_ladder(form, theta, eps0, samples, seed, threads, target)
