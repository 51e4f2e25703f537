"""End-to-end prediction experiment: lattice term + circle term vs. exact.

Zeros mode compares R(0; P) against U(P) + P^4 * S * J0, where U(P) is the
exact number of box points on the union of the linear spaces, S is the
truncated singular series at N = 0 and J0 the zero-density integral.

Representations mode probes N >= 1 at the natural radius P = floor(N^(1/3)):
the lattice term is chi(N) times the exact number of points where both
blocks vanish (x7 is then pinned to the cube root of N / a7), and the
circle term is N^(4/3) * S(N) * J at theta = N / P^3.

Lattice terms are exact subset counts, so actual >= lattice always holds
exactly; residuals measure the circle-method part only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import icbrt
from .counting import (
    chi,
    count_zeros,
    representation_counts,
    union_space_count,
    value_histogram,
)
from .density import density_ladders, singular_integral
from .errors import DomainError
from .expsums import singular_series
from .forms import CubicForm, linear_spaces

P_SCHEDULE = (8, 12, 16, 24, 32, 48, 64)


@dataclass(frozen=True)
class PredictionReport:
    mode: str
    qmax: int
    rows: tuple[dict, ...]
    series_value: float | None  # zeros mode: the shared S(0, qmax)
    integral: dict | None  # zeros mode: the shared J0 estimate

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "qmax": self.qmax,
            "rows": [dict(r) for r in self.rows],
            "series_value": self.series_value,
            "integral": self.integral,
        }


def block_zero_counts(form: CubicForm, P: int) -> tuple[int, int]:
    """Exact per-block counts of box points where L*Q vanishes."""
    h1 = value_histogram(*form.blocks()[0], form.box, P)
    h2 = value_histogram(*form.blocks()[1], form.box, P)
    return h1.zero_count(), h2.zero_count()


def predict_zeros(form: CubicForm, probes=None, qmax: int = 400,
                  samples: int = 10_000_000, eps0: float = 0.1,
                  seed: int = 0, threads: int = 1) -> PredictionReport:
    if form.box != "sym":
        raise DomainError("zeros mode requires the sym box")
    Ps = tuple(int(P) for P in (probes or P_SCHEDULE))
    spaces = linear_spaces(form)
    series = singular_series(form, 0, qmax)
    integ = singular_integral(form, "zero", eps0, samples, seed, threads)
    sj = series.value * integ.value
    rows = []
    for P in Ps:
        actual = count_zeros(form, P)
        latt = union_space_count(spaces, "sym", P)
        circle = sj * P ** 4
        pred = latt + circle
        rows.append({
            "P": P,
            "actual": actual,
            "lattice": latt,
            "circle": circle,
            "prediction": pred,
            "residual": actual - pred,
            "residual_per_P4": (actual - pred) / P ** 4,
            "relative_residual": abs(actual - pred) / max(abs(actual), 1),
        })
    return PredictionReport("zeros", qmax, tuple(rows), series.value,
                            integ.to_dict())


def predict_representations(form: CubicForm, Ns, qmax: int = 400,
                            samples: int = 10_000_000, eps0: float = 0.1,
                            seed: int = 0, threads: int = 1) -> PredictionReport:
    if not Ns:
        raise DomainError("representations mode needs at least one N")
    Ns = [int(N) for N in Ns]
    if min(Ns) < 1:
        raise DomainError("representation targets must be positive")
    Ps = [max(1, icbrt(N)) for N in Ns]
    # One cube fold per natural radius serves every N at that radius.
    by_radius: dict[int, list[int]] = {}
    for N, P in zip(Ns, Ps):
        by_radius.setdefault(P, []).append(N)
    actuals = {}
    for P, group in by_radius.items():
        actuals.update(zip(group, representation_counts(form, group, P)))
    # One sampling pass serves every theta = N / P^3.
    integrals = density_ladders(form, [N / P ** 3 for N, P in zip(Ns, Ps)],
                                eps0, samples, seed, threads, target="n")
    rows = []
    for N, P, integ in zip(Ns, Ps, integrals):
        actual = actuals[N]
        ch = chi(N, form.a7, form.box, P)
        n1, n2 = block_zero_counts(form, P)
        latt = ch * n1 * n2
        series = singular_series(form, N, qmax)
        circle = N ** (4.0 / 3.0) * series.value * integ.value
        pred = latt + circle
        rows.append({
            "N": N,
            "P": P,
            "chi": ch,
            "actual": actual,
            "lattice": latt,
            "circle": circle,
            "prediction": pred,
            "residual": actual - pred,
            "relative_residual": abs(actual - pred) / max(abs(actual), 1),
            "series_value": series.value,
            "integral_value": integ.value,
            "integral_flagged_zero": integ.flagged_zero,
        })
    return PredictionReport("representations", qmax, tuple(rows), None, None)


def predict(form: CubicForm, mode: str, probes=None, qmax: int = 400,
            samples: int = 10_000_000, eps0: float = 0.1, seed: int = 0,
            threads: int = 1) -> PredictionReport:
    if mode == "zeros":
        return predict_zeros(form, probes, qmax, samples, eps0, seed, threads)
    if mode == "representations":
        return predict_representations(form, probes, qmax, samples, eps0,
                                       seed, threads)
    raise DomainError(f"unknown mode {mode!r}")
