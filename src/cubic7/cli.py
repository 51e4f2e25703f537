"""Command-line front end.

Subcommands: classify, spaces, count, zeros, series, integral, local,
audit, predict, verify.  Global flags pick the form file, output format,
seed, and thread count.  Exit codes: 0 success, 2 domain errors, 3
resource-guard errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

# numpy's OpenBLAS starts a worker thread on import that cubic7 never uses:
# its integer products are not BLAS, and its one LAPACK call (fit's lstsq)
# solves systems of a few rows.  On 2 CPUs, `import numpy` took 0.241 s in
# a fresh process with the worker and 0.156 s without (median of 10); the
# idle worker spun 60 ms of CPU during the import and 130 ms more after a
# BLAS call.  Set here, before any subcommand's import reaches numpy, and
# not in the package, whose callers keep their own BLAS; a value already in
# the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each subcommand imports its own modules in _run, so a process loads only
# what it uses; errors and forms load no numpy.
from .errors import DomainError, ResourceLimitError  # noqa: E402
from .forms import CubicForm, classify, form_to_dict, load_form  # noqa: E402

# The running example form: x1(x1 x2 + x3^2) + x4(x4 x5 + x6^2) + x7^3.
DEFAULT_FORM = CubicForm(
    (1, 0, 0, 1, 0, 0, 1),
    (0, 0, 1, 0, 0, 1),
    (0, 0, 1, 0, 0, 1),
    "sym",
)


def _read_form(path: str | None) -> CubicForm:
    if path is None:
        return DEFAULT_FORM
    return load_form(path)


def _emit(payload: dict, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return
    rows = payload.get("rows")
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        if rows:
            header = list(rows[0].keys())
            w.writerow(header)
            for r in rows:
                w.writerow([r[k] for k in header])
        else:
            w.writerow(["key", "value"])
            for k in sorted(payload):
                v = payload[k]
                if isinstance(v, (dict, list, tuple)):
                    v = json.dumps(v, sort_keys=True)
                w.writerow([k, v])
        return
    # text
    for k in sorted(payload):
        if k == "rows":
            continue
        v = payload[k]
        if isinstance(v, (dict, list, tuple)):
            v = json.dumps(v, sort_keys=True)
        out.write(f"{k}: {v}\n")
    if rows:
        header = list(rows[0].keys())
        cells = [[str(r[k]) for k in header] for r in rows]
        widths = [max(len(h), *(len(c[i]) for c in cells))
                  for i, h in enumerate(header)]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
        for c in cells:
            out.write("  ".join(s.ljust(w) for s, w in zip(c, widths)) + "\n")


def _export_histogram(form: CubicForm, P: int, block: int, path: str) -> None:
    from .counting import value_histogram

    l, q = form.blocks()[block - 1]
    h = value_histogram(l, q, form.box, P)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "count"])
        # items() ascends: the values are sorted and distinct in both layouts.
        w.writerows(h.items())


def _global_flags(p, top: bool) -> None:
    # On subparsers the defaults are suppressed so values given before the
    # subcommand survive; values given after it override them.
    kw = {} if top else {"default": argparse.SUPPRESS}
    p.add_argument("--form", help="form file (JSON); omit for the built-in "
                                  "example form", **kw)
    p.add_argument("--format", choices=("json", "csv", "text"),
                   **(kw if not top else {"default": "json"}))
    p.add_argument("--seed", type=int, **(kw if not top else {"default": 0}))
    p.add_argument("--threads", type=int,
                   **(kw if not top else {"default": 1}))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cubic7",
        description="Counting, local solvability and circle-method audits "
                    "for cubic forms L1 Q1 + L2 Q2 + a7 x7^3.")
    _global_flags(ap, top=True)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _global_flags(p, top=False)
        return p

    add("classify", help="block invariants, spaces, content")
    add("spaces", help="linear spaces in the zero locus")

    p = add("count", help="exact R(N; P)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--histogram", metavar="PATH",
                   help="also export a block value histogram as CSV")
    p.add_argument("--block", type=int, choices=(1, 2), default=1,
                   help="which block the histogram export uses")

    p = add("zeros", help="exact R(0; P) over the Sym box")
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--histogram", metavar="PATH")
    p.add_argument("--block", type=int, choices=(1, 2), default=1)

    p = add("series", help="truncated singular series")
    p.add_argument("--N", type=int, default=0)
    p.add_argument("--Qmax", type=int, default=400)
    p.add_argument("--zero", action="store_true", help="force N = 0")

    p = add("integral", help="Monte Carlo density integral")
    p.add_argument("--target", choices=("n", "zero"), default="zero")
    p.add_argument("--samples", type=int, default=10_000_000)
    p.add_argument("--eps", type=float, default=0.1)

    p = add("local", help="congruence solvability report")
    p.add_argument("--N", type=int, required=True)

    p = add("audit", help="growth audits")
    p.add_argument("kind", choices=("moment", "power", "surface"))
    p.add_argument("--sizes", type=int, nargs="+")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--qmax", type=int, default=500)
    p.add_argument("--A", type=int, default=1)
    p.add_argument("--N", type=int, default=1)

    p = add("predict", help="lattice + circle prediction vs exact")
    p.add_argument("--mode", choices=("zeros", "representations"),
                   default="zeros")
    p.add_argument("--P-list", type=int, nargs="+", dest="P_list")
    p.add_argument("--N-list", type=int, nargs="+", dest="N_list")
    p.add_argument("--qmax", type=int, default=400)
    p.add_argument("--samples", type=int, default=10_000_000)
    p.add_argument("--eps", type=float, default=0.1)

    add("verify", help="run the invariant suite "
                                  "(failures are results, exit 0)")
    return ap


def _run(args) -> dict:
    if args.threads < 1:
        raise DomainError("threads must be at least 1")
    form = _read_form(args.form)
    cmd = args.command
    if cmd == "classify":
        payload = classify(form).to_dict()
        payload["form"] = form_to_dict(form)
        return payload
    if cmd == "spaces":
        spaces = classify(form).spaces
        return {"count": len(spaces),
                "rows": [sp.to_dict() for sp in spaces]}
    if cmd == "count":
        from .counting import count_representations

        val = count_representations(form, args.N, args.P)
        if args.histogram:
            _export_histogram(form, args.P, args.block, args.histogram)
        return {"N": args.N, "P": args.P, "count": val}
    if cmd == "zeros":
        from .counting import count_zeros

        val = count_zeros(form, args.P)
        if args.histogram:
            _export_histogram(form, args.P, args.block, args.histogram)
        return {"P": args.P, "zeros": val}
    if cmd == "series":
        from .expsums import prime_power_profile, singular_series

        N = 0 if args.zero else args.N
        est = singular_series(form, N, args.Qmax)
        return {"N": N, "value": est.value, "Qmax": est.Q,
                "tail": list(est.tail_indicator),
                "per_prime": prime_power_profile(est.terms)}
    if cmd == "integral":
        from .density import singular_integral

        res = singular_integral(form, args.target, eps0=args.eps,
                                samples=args.samples, seed=args.seed,
                                threads=args.threads)
        return res.to_dict()
    if cmd == "local":
        from .local import local_report

        return local_report(form, args.N)
    if cmd == "audit":
        from .audits import (power_congruence_audit, second_moment_audit,
                             surface_audit)

        if args.kind == "moment":
            l, q = form.blocks()[0]
            audit = second_moment_audit(l, q, args.sizes or [20, 40, 80])
        elif args.kind == "power":
            audit = power_congruence_audit(args.k, args.qmax)
        else:
            audit = surface_audit(args.A, args.N,
                                  args.sizes or [10, 20, 40, 80])
        d = audit.to_dict()
        d["rows"] = [{"size": s, "count": c} for s, c in audit.probes]
        return d
    if cmd == "predict":
        from .experiment import predict

        probes = args.P_list if args.mode == "zeros" else args.N_list
        rep = predict(form, args.mode, probes, qmax=args.qmax,
                      samples=args.samples, eps0=args.eps, seed=args.seed,
                      threads=args.threads)
        return rep.to_dict()
    if cmd == "verify":
        from .checks import verify

        results = verify(form)
        return {"passed": sum(r.passed for r in results),
                "failed": sum(not r.passed for r in results),
                "rows": [r.to_dict() for r in results]}
    raise DomainError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = _run(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    buf = io.StringIO()
    _emit(payload, args.format, buf)
    sys.stdout.write(buf.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
