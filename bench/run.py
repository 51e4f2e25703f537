#!/usr/bin/env python3
"""The cubic7 benchmark: fixed CLI workloads, each job a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record

Every job is `python -m cubic7.cli ...` with `src` on PYTHONPATH, started
as a new process so the lru caches start cold, as they do for a CLI user.
Jobs run one at a time (a closed loop with one client), and no job uses
more than two threads.  A run repeats the workload's job list, at least
once, while another pass of the same length still ends within --seconds,
and reports the median over passes.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  setup_s is the
median over probe processes, run before the first pass and after every
pass, that import cubic7 and load the form; the timed jobs themselves run
unmodified.

--trace 1 prints the per-layer metrics.  Each job runs once plainly and
once under bench/tracer.py; the two stdouts must be byte-identical.  The
density_ladder calls of the traced jobs are then repeated here at one and
at two threads, which gives density.speedup_2t and checks that the result
does not depend on the thread count.

The seed picks one of INPUT_SETS input sets (seed mod INPUT_SETS): the
Monte Carlo --seed and, for representations, the N values.  The outputs of
every set were recorded at a known-good commit by --record into
bench/refs/.  A job fails when its exit code is nonzero or its output
differs from the record: integers must match exactly and floats within
1e-9 of the largest float magnitude in their row.  The last line of
stdout is the JSON result; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(SRC))

INPUT_SETS = 8
FLOAT_RTOL = 1e-9
SETUP_PROBES = 4  # before the first pass and after every pass
DEADLINE_S = 170.0  # a run must end within 180 s
FAC1 = "bench/forms/f_fac1.json"  # Q2 = x5 x6: distinct blocks, three spaces


# --- workloads --------------------------------------------------------------
# Each returns (form file or None, list of CLI argument lists).


def circle_zeros(rng: random.Random):
    """The paper's headline experiment: R(0; P) against lattice + circle.

    A cold Qmax = 400 singular series dominates (mod_histogram), then the
    10M-sample density at two threads; counting and lattice are small.
    """
    seed = str(rng.randrange(1 << 31))
    return None, [[
        "--seed", seed, "--threads", "2", "predict", "--mode", "zeros",
        "--qmax", "400", "--samples", "10000000",
        "--P-list", "8", "12", "16", "24", "32", "48", "64"]]


def count_lattice(rng: random.Random):
    """Large exact counts on a form with distinct blocks and three spaces.

    Each P needs two cold histograms of up to 16.9M cells, a 7-subset
    inclusion-exclusion and the convolution; expsums and density are tiny.
    This workload also has the highest memory use.
    """
    seed = str(rng.randrange(1 << 31))
    return FAC1, [[
        "--form", FAC1, "--seed", seed, "predict", "--mode", "zeros",
        "--P-list", "64", "96", "128", "--qmax", "24", "--samples", "200000"]]


def representations(rng: random.Random):
    """32 targets N in [96^3, 97^3), all at P = 96, then one local report.

    One histogram pair serves every N, so the convolution repeats 32 times
    on the same P; the series is cold once and warm 31 times.
    """
    seed = str(rng.randrange(1 << 31))
    Ns = [str(n) for n in rng.sample(range(96 ** 3, 97 ** 3), 32)]
    return None, [
        ["--seed", seed, "predict", "--mode", "representations",
         "--qmax", "100", "--samples", "200000", "--N-list", *Ns],
        ["local", "--N", Ns[0]],
    ]


WORKLOADS = {
    "circle-zeros": circle_zeros,
    "count-lattice": count_lattice,
    "representations": representations,
}


def workload_inputs(name: str, seed: int):
    index = seed % INPUT_SETS
    form, jobs = WORKLOADS[name](random.Random(f"{name}/{index}"))
    return index, form, jobs


# --- processes --------------------------------------------------------------


@dataclass
class Job:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: bytes


class Deadline(Exception):
    pass


def spawn(cmd: list[str], stem: str, deadline: float) -> Job:
    """Run one process to completion; rusage comes from wait4."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline(stem)
    out_path = WORK / f"{stem}.out"
    with open(out_path, "wb") as out, open(WORK / f"{stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=out, stderr=err)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / 1e6,
               proc.returncode, out_path.read_bytes())


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def cli_cmd(args: list[str]) -> list[str]:
    return [PY, "-m", "cubic7.cli", *args]


PROBE = (
    "import sys, time\n"
    "from cubic7 import cli\n"
    "if len(sys.argv) > 1:\n"
    "    cli.load_form(sys.argv[1])\n"
    "print(repr(time.monotonic()))\n"
)


def setup_time(form: str | None) -> float:
    """Seconds from spawn until cubic7 is imported and the form is loaded."""
    t0 = time.monotonic()
    done = subprocess.run([PY, "-c", PROBE, *([form] if form else [])],
                          cwd=ROOT, env=ENV, capture_output=True, check=True,
                          timeout=60)
    return float(done.stdout) - t0


# --- reference outputs -------------------------------------------------------


def _row_scale(row: dict) -> float:
    """Largest finite float magnitude in a row, nested dicts excluded."""
    stack = [v for v in row.values() if not isinstance(v, dict)]
    scale = 0.0
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(x for x in v if not isinstance(x, dict))
        elif isinstance(v, float) and math.isfinite(v):
            scale = max(scale, abs(v))
    return scale


def matches(ref, out, tol: float = 0.0) -> bool:
    if isinstance(ref, dict):
        if not isinstance(out, dict) or ref.keys() != out.keys():
            return False
        tol = FLOAT_RTOL * _row_scale(ref)
        return all(matches(ref[k], out[k], tol) for k in ref)
    if isinstance(ref, list):
        return (isinstance(out, list) and len(ref) == len(out)
                and all(matches(a, b, tol) for a, b in zip(ref, out)))
    if isinstance(ref, float) and type(out) is float:
        return ref == out or abs(ref - out) <= tol
    return type(ref) is type(out) and ref == out


def refs_path(name: str) -> Path:
    return BENCH / "refs" / f"{name}.json"


def output_ok(job: Job, ref: dict) -> bool:
    if job.code != 0:
        return False
    try:
        payload = json.loads(job.out)
    except ValueError:
        return False
    return matches(ref["payload"], payload)


def record() -> None:
    """Run every input set of every workload and store the outputs."""
    for name in WORKLOADS:
        sets = {}
        for index in range(INPUT_SETS):
            _, _, jobs = workload_inputs(name, index)
            sets[str(index)] = []
            for j, args in enumerate(jobs):
                job = spawn(cli_cmd(args), f"record-{name}-{j}",
                            time.monotonic() + 600)
                if job.code != 0:
                    raise SystemExit(f"{name} set {index} job {j} exited "
                                     f"with {job.code}")
                sets[str(index)].append({"args": args,
                                         "payload": json.loads(job.out)})
                log(f"recorded {name} set {index} job {j} ({job.wall:.1f} s)")
        refs_path(name).write_text(json.dumps(sets, indent=1) + "\n")


# --- runs ---------------------------------------------------------------------


def another_pass(start: float, pass_start: float, seconds: float) -> bool:
    """Whether a pass as long as the last one still ends within the run."""
    now = time.perf_counter()
    return now - start + (now - pass_start) <= seconds


def run_plain(name, form, jobs, refs, seconds, deadline):
    setups = [setup_time(form) for _ in range(SETUP_PROBES)]
    walls, cpus, rsss = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done = [spawn(cli_cmd(a), f"{name}-{j}", deadline)
                for j, a in enumerate(jobs)]
        walls.append(time.perf_counter() - t0)
        cpus.append(sum(d.cpu for d in done))
        rsss.append(max(d.rss_mb for d in done))
        attempted += len(done)
        failed += sum(not output_ok(d, r) for d, r in zip(done, refs))
        log(f"{name}: pass {len(walls)} wall {walls[-1]:.2f} s "
            f"cpu {cpus[-1]:.2f} s rss {rsss[-1]:.0f} MB")
        setups += [setup_time(form) for _ in range(SETUP_PROBES)]
        if not another_pass(start, t0, seconds):
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rsss),
    }
    return metrics, attempted, failed


# Layers whose self time is reported by name; every other wrapped function
# is summed into trace.other_self_s, so the self times, the other time and
# cli.unattributed_s add up to trace.wall_s.
NAMED = (
    "counting.value_histogram",
    "counting.count_representations",
    "counting.union_space_count",
    "lattice.count_lattice_points_in_box",
    "expsums.mod_histogram",
    "expsums.block_sum_any",
    "expsums.singular_term",
    "density.density_ladder",
    "local.local_data",
    "local.congruence_solvable",
    "forms.linear_spaces",
)


class LayerTotals:
    """Per-function sums over the spans of one or more traced jobs."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.hits = defaultdict(int)
        self.misses = defaultdict(int)
        self.top_s = 0.0
        self.spans = 0
        self.density_calls = []

    def add(self, trace: dict) -> None:
        names = trace["names"]
        child = defaultdict(float)
        for _, _, t0, t1, parent, _ in trace["spans"]:
            child[parent] += t1 - t0
        for sid, ni, t0, t1, parent, work in trace["spans"]:
            name = names[ni]
            self.self_s[name] += (t1 - t0) - child[sid]
            self.calls[name] += 1
            self.work[name] += work
        self.top_s += child[-1]
        self.spans += len(trace["spans"])
        for name, c in trace["caches"].items():
            self.hits[name] += c["hits"]
            self.misses[name] += c["misses"]
        self.density_calls.extend(trace["density_calls"])

    def hit_ratio(self, name: str) -> float:
        total = self.hits[name] + self.misses[name]
        return self.hits[name] / total if total else 0.0


def density_speedup(calls: list[dict]) -> tuple[float, bool]:
    """Time each recorded density_ladder call at one and at two threads.

    Returns (t1 / t2, whether every rerun reproduced the recorded result).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cubic7.density import density_ladder
    from cubic7.forms import form_from_dict

    t = {1: 0.0, 2: 0.0}
    same = True
    for call in calls:
        kw = {k: v for k, v in call.items() if k not in ("form", "result")}
        form = form_from_dict(call["form"])
        for threads in (1, 2):
            kw["threads"] = threads
            t0 = time.perf_counter()
            res = density_ladder(form, **kw)
            t[threads] += time.perf_counter() - t0
            same &= json.loads(json.dumps(res.to_dict())) == call["result"]
    return (t[1] / t[2] if t[2] else 0.0), same


def run_traced(name, form, jobs, refs, seconds, deadline):
    passes = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        n = len(passes)
        totals = LayerTotals()
        plain_wall = traced_wall = 0.0
        for j, args in enumerate(jobs):
            stem = f"{name}-{j}"
            spans_path = WORK / f"{stem}.spans.json"
            spans_path.unlink(missing_ok=True)
            plain = spawn(cli_cmd(args), stem, deadline)
            traced = spawn([PY, str(BENCH / "tracer.py"), str(spans_path),
                            f"{name}/{n}/{j}", *args], stem + ".traced",
                           deadline)
            plain_wall += plain.wall
            traced_wall += traced.wall
            attempted += 2
            failed += not output_ok(plain, refs[j])
            failed += traced.code != plain.code or traced.out != plain.out
            if spans_path.exists():
                totals.add(json.loads(spans_path.read_text()))
        speedup, same = density_speedup(totals.density_calls)
        attempted += 1
        failed += not same
        passes.append(layer_metrics(totals, plain_wall, traced_wall, speedup))
        log(f"{name}: traced pass {len(passes)} wall {traced_wall:.2f} s "
            f"(plain {plain_wall:.2f} s), {totals.spans} spans")
        if not another_pass(start, t0, seconds):
            break
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    return metrics, attempted, failed


def layer_metrics(t: LayerTotals, plain_wall, traced_wall, speedup) -> dict:
    m = {f"{n}.self_s": t.self_s[n] for n in NAMED}
    dens = t.self_s["density.density_ladder"]
    m.update({
        "counting.value_histogram.cells": t.work["counting.value_histogram"],
        "counting.value_histogram.hit_ratio":
            t.hit_ratio("counting.value_histogram"),
        "counting.count_representations.targets":
            t.work["counting.count_representations"],
        "counting.union_space_count.subsets":
            t.work["counting.union_space_count"],
        "lattice.count_lattice_points_in_box.calls":
            t.calls["lattice.count_lattice_points_in_box"],
        "expsums.mod_histogram.cells": t.work["expsums.mod_histogram"],
        "expsums.mod_histogram.hit_ratio": t.hit_ratio("expsums.mod_histogram"),
        "expsums.block_sum_any.calls": t.calls["expsums.block_sum_any"],
        "density.samples_per_s":
            t.work["density.density_ladder"] / dens if dens else 0.0,
        "density.speedup_2t": speedup,
        "local.modulus": t.work["local.local_data"],
        "trace.other_self_s":
            sum(s for n, s in t.self_s.items() if n not in NAMED),
        "cli.unattributed_s": traced_wall - t.top_s,
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / plain_wall - 1.0,
        "trace.spans": t.spans,
    })
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record bench/refs/ from the current program")
    args = ap.parse_args()
    if not (SRC / "cubic7" / "cli.py").is_file():
        log(f"error: no cubic7 sources under {SRC}")
        return 2
    WORK.mkdir(exist_ok=True)
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    index, form, jobs = workload_inputs(args.workload, args.seed)
    path = refs_path(args.workload)
    if not path.is_file():
        log(f"error: no reference outputs at {path}; run with --record")
        return 2
    refs = json.loads(path.read_text()).get(str(index), [])
    if [r["args"] for r in refs] != jobs:
        log(f"error: {path} was recorded for other inputs; run with --record")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run = run_traced if args.trace else run_plain
    try:
        metrics, attempted, failed = run(args.workload, form, jobs, refs,
                                         args.seconds, deadline)
    except Deadline as exc:
        log(f"error: the {DEADLINE_S:.0f} s deadline passed before {exc}")
        return 3
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
