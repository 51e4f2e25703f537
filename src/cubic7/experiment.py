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
    _histogram_scan,
    block_zero_counts,
    chi,
    count_zeros,
    representation_counts,
    union_space_count,
)
from .density import _check_pass, _rungs, density_ladders, singular_integral
from .errors import DomainError
from .expsums import _check_qmax, singular_series
from .forms import CubicForm, linear_spaces
from .payload import Payload

P_SCHEDULE = (8, 12, 16, 24, 32, 48, 64)


@dataclass(frozen=True)
class PredictionReport(Payload):
    mode: str
    qmax: int
    rows: tuple[dict, ...]
    series_value: float | None  # zeros mode: the shared S(0, qmax)
    integral: dict | None  # zeros mode: the shared J0 estimate


def predict_zeros(form: CubicForm, probes=None, qmax: int = 400,
                  samples: int = 10_000_000, eps0: float = 0.1,
                  seed: int = 0, threads: int = 1) -> PredictionReport:
    if form.box != "sym":
        raise DomainError("zeros mode requires the sym box")
    Ps = P_SCHEDULE if probes is None else tuple(int(P) for P in probes)
    if not Ps:
        raise DomainError("zeros mode needs at least one probe radius")
    # Refuse an oversized or invalid radius, and then the integral's
    # arguments, before the series and the integral.  The counts still run
    # after those, which keeps the order of the large allocations, and with
    # it the peak RSS, as it was.
    for P in Ps:
        for l, q in form.blocks():
            _histogram_scan(l, q, "sym", P)
    _check_pass((0.0,), _rungs(eps0), samples, threads)
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
    thetas = [N / P ** 3 for N, P in zip(Ns, Ps)]
    # Refuse the integral's and the series' arguments before the counts.
    _check_pass(thetas, _rungs(eps0), samples, threads)
    _check_qmax(qmax)
    # One cube fold per natural radius serves every N at that radius, and
    # one pair of block zero counts every N there with chi(N) = 1: the
    # lattice term chi(N) N1 N2 of any other N is 0.
    by_radius: dict[int, list[int]] = {}
    for N, P in zip(Ns, Ps):
        by_radius.setdefault(P, []).append(N)
    actuals = {}
    zeros = {}
    for P, group in by_radius.items():
        actuals.update(zip(group, representation_counts(form, group, P)))
        if any(chi(N, form.a7, form.box, P) for N in group):
            zeros[P] = block_zero_counts(form, P)
    # One sampling pass serves every theta = N / P^3.
    integrals = density_ladders(form, thetas, eps0, samples, seed, threads,
                                target="n")
    rows = []
    for N, P, integ in zip(Ns, Ps, integrals):
        actual = actuals[N]
        ch = chi(N, form.a7, form.box, P)
        n1, n2 = zeros[P] if ch else (0, 0)
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
