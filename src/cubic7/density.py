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
bit-identical for any thread count and any run.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .forms import CubicForm, block_value

BLOCK = 1 << 19
# Points evaluated at once: about 9 MB of arrays per thread, against 60 MB
# for a whole block, so the peak memory of concurrent threads no longer
# hinges on how their blocks interleave.
_CHUNK = 1 << 16
_MASK64 = (1 << 64) - 1


def box_volume(box: str) -> float:
    return 128.0 if box == "sym" else 1.0


def _evaluate(form: CubicForm, u: np.ndarray) -> np.ndarray:
    a = [float(v) for v in form.a]
    q1 = [float(v) for v in form.q1]
    q2 = [float(v) for v in form.q2]
    x = [u[:, i] for i in range(7)]
    return (
        block_value(a[0:3], q1, x[0], x[1], x[2])
        + block_value(a[3:6], q2, x[3], x[4], x[5])
        + a[6] * x[6] * x[6] * x[6]
    )


def _block_stats(form: CubicForm, theta: float, eps_levels, seed: int,
                 index: int, count: int):
    gen = np.random.Generator(np.random.Philox(key=[seed & _MASK64, index]))
    hits = [0] * len(eps_levels)
    f_min = math.inf
    f_max = -math.inf
    for s in range(0, count, _CHUNK):
        # Consecutive draws continue one stream: the points equal one draw.
        u = gen.random((min(_CHUNK, count - s), 7))
        if form.box == "sym":
            u = 2.0 * u - 1.0
        f = _evaluate(form, u)
        af = np.abs(f - theta)
        for k, e in enumerate(eps_levels):
            hits[k] += int((af <= e).sum())
        f_min = min(f_min, float(f.min()))
        f_max = max(f_max, float(f.max()))
    return tuple(hits), f_min, f_max


def _sample_pass(form: CubicForm, theta: float, eps_levels, samples: int,
                 seed: int, threads: int):
    nblocks = (samples + BLOCK - 1) // BLOCK
    sizes = [BLOCK] * (nblocks - 1) + [samples - BLOCK * (nblocks - 1)]

    def run(i: int):
        return _block_stats(form, theta, eps_levels, seed, i, sizes[i])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, range(nblocks)))
    else:
        results = [run(i) for i in range(nblocks)]

    hits = [0] * len(eps_levels)
    f_min = math.inf
    f_max = -math.inf
    for h, lo, hi in results:  # block order: deterministic combination
        for k in range(len(eps_levels)):
            hits[k] += h[k]
        f_min = min(f_min, lo)
        f_max = max(f_max, hi)
    return hits, f_min, f_max


@dataclass(frozen=True)
class SlabEstimate:
    """One slab density vol{|f - theta| <= eps} / (2 eps) with its stderr."""

    value: float
    epsilon: float
    samples: int
    stderr: float
    seed: int
    theta: float
    hits: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "epsilon": self.epsilon,
            "samples": self.samples,
            "stderr": self.stderr,
            "seed": self.seed,
            "theta": self.theta,
            "hits": self.hits,
        }


def slab_volume(form: CubicForm, theta: float, epsilon: float, samples: int,
                seed: int = 0, threads: int = 1) -> SlabEstimate:
    """Monte Carlo slab density at a single half-width."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if samples < 10 ** 4:
        raise DomainError("need at least 10^4 samples")
    hits, _, _ = _sample_pass(form, theta, (epsilon,), samples, seed, threads)
    vol = box_volume(form.box)
    p = hits[0] / samples
    return SlabEstimate(
        value=vol * p / (2.0 * epsilon),
        epsilon=epsilon,
        samples=samples,
        stderr=vol * math.sqrt(p * (1.0 - p) / samples) / (2.0 * epsilon),
        seed=seed,
        theta=theta,
        hits=hits[0],
    )


@dataclass(frozen=True)
class DensityResult:
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

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "theta": self.theta,
            "eps": list(self.eps),
            "samples": self.samples,
            "seed": self.seed,
            "hits": list(self.hits),
            "volume": self.volume,
            "densities": list(self.densities),
            "value": self.value,
            "residual": self.residual,
            "stderr": self.stderr,
            "f_min": self.f_min,
            "f_max": self.f_max,
            "flagged_zero": self.flagged_zero,
        }


def density_ladder(form: CubicForm, theta: float, eps0: float = 0.1,
                   samples: int = 10_000_000, seed: int = 0,
                   threads: int = 1, target: str = "n") -> DensityResult:
    """Three nested slabs in one pass, extrapolated linearly in epsilon."""
    if eps0 <= 0:
        raise DomainError("eps must be positive")
    if samples < 10 ** 4:
        raise DomainError("need at least 10^4 samples")
    eps_levels = (eps0, eps0 / 2.0, eps0 / 4.0)
    hits, f_min, f_max = _sample_pass(form, theta, eps_levels, samples, seed, threads)
    vol = box_volume(form.box)
    dens = []
    errs = []
    for k in range(3):
        p = hits[k] / samples
        dens.append(vol * p / (2.0 * eps_levels[k]))
        errs.append(vol * math.sqrt(p * (1.0 - p) / samples) / (2.0 * eps_levels[k]))
    value = 2.0 * dens[2] - dens[1]
    coarse = 2.0 * dens[1] - dens[0]
    stderr = math.sqrt(4.0 * errs[2] ** 2 + errs[1] ** 2)
    flagged = False
    if target == "n" and form.box in ("pos", "nonneg") and f_max <= 0.0:
        # J_1 vanishes when f is never positive on the closed orthant box.
        value = 0.0
        flagged = True
    return DensityResult(
        target=target,
        theta=theta,
        eps=eps_levels,
        samples=samples,
        seed=seed,
        hits=tuple(hits),
        volume=vol,
        densities=tuple(dens),
        value=value,
        residual=abs(value - coarse) if not flagged else 0.0,
        stderr=stderr,
        f_min=f_min,
        f_max=f_max,
        flagged_zero=flagged,
    )


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
