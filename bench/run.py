"""Benchmark of cyclosc's four user paths: sweep, sga-ladder, measure, verify.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs the workload's fixed operation list in whole rounds until S seconds
have passed (and the tail percentile has enough operations), checks every
output against an independent reference, and prints as its last line one
JSON object: correct, attempted, failed and metrics.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``--workload all`` runs each workload in its own interpreter.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads; child processes inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def import_program():
    """Import cyclosc from this checkout's src/ and nowhere else."""
    if not (SRC / "cyclosc" / "__init__.py").is_file():
        raise SystemExit(f"error: no cyclosc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import cyclosc
    if Path(cyclosc.__file__).resolve().parent != SRC / "cyclosc":
        raise SystemExit(f"error: imported cyclosc from {cyclosc.__file__}, not {SRC}")
    return cyclosc


# ---------------------------------------------------------------------------
# statistics

def tail_percentile(samples, pct):
    """Nearest-rank pct-th percentile; None when fewer than forty samples, or
    fewer than ten beyond the percentile."""
    n = len(samples)
    if n < 40 or n * (1.0 - pct / 100.0) < 10.0 - 1e-9:
        return None
    return sorted(samples)[max(0, math.ceil(pct / 100.0 * n) - 1)]


# ---------------------------------------------------------------------------
# running rounds

def run_round(ops):
    """One round: pass p calls every op whose ``repeat`` exceeds p, so the
    repeats of a cheap op are spread over the round.  Returns (round
    seconds, [(op index, result, seconds)]); an op that raises yields its
    exception as the result."""
    out = []
    start = time.perf_counter()
    for rep in range(max(op.repeat for op in ops)):
        for i, op in enumerate(ops):
            if rep >= op.repeat:
                continue
            t = time.perf_counter()
            try:
                res = op.call()
            except Exception as exc:  # the op failed; the run goes on
                res = exc
            out.append((i, res, time.perf_counter() - t))
    return time.perf_counter() - start, out


def settle(ops, results, faults):
    """Outcome of each call in a round: (failed, items, note).  note is None
    for a pass or a failure by the op's named fault, else what went wrong."""
    by_label = {ops[i].label: res for i, res, _ in results}
    outcomes = []
    for i, res, _ in results:
        op = ops[i]
        if isinstance(res, Exception) or getattr(res, "rc", 0) != 0:
            known = op.fault is not None and faults[op.fault](res)
            outcomes.append((True, 0, None if known else f"unexpected failure: {_brief(res)}"))
            continue
        try:
            items = op.check(res, by_label)
        except Exception as exc:  # a wrong output, or one the check cannot read
            outcomes.append((True, 0, f"wrong output: {exc!r}"))
            continue
        outcomes.append((False, items, None))
    return outcomes


def _brief(res) -> str:
    if isinstance(res, Exception):
        return repr(res)
    return f"exit {res.rc}: {res.err.strip()[:200]}"


class Tally:
    """Outcomes and timings of the rounds of one run."""

    def __init__(self, ops, faults):
        self.ops, self.faults = ops, faults
        self.walls = []
        self.attempted = self.failed = 0
        self.problems = {}
        self.op_times = [[] for _ in ops]
        self.op_items = [None] * len(ops)   # fewest items of any call; 0 once a call failed
        self.op_failed = [False] * len(ops)

    def add(self, wall, results):
        self.walls.append(wall)
        for (i, _, dt), (failed, items, note) in zip(results, settle(self.ops, results, self.faults)):
            self.attempted += 1
            self.failed += failed
            self.op_times[i].append(dt)
            self.op_items[i] = items if self.op_items[i] is None else min(self.op_items[i], items)
            self.op_failed[i] = self.op_failed[i] or failed
            if note:
                self.problems.setdefault(self.ops[i].label, note)

    @property
    def correct(self) -> bool:
        return not self.problems


def run_rounds(seconds, min_rounds, on_round):
    """Whole rounds until they have taken `seconds` and min_rounds have run;
    on_round(n) runs round n and returns its seconds."""
    spent, n = 0.0, 0
    while True:
        spent += on_round(n)
        n += 1
        if spent >= seconds and n >= min_rounds:
            return n


# ---------------------------------------------------------------------------
# child interpreters

def _child(argv):
    return subprocess.run([sys.executable] + argv, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)


def setup_probe(workload, seed):
    """Wall time of a fresh interpreter that imports cyclosc, builds the
    workload's inputs and exits."""
    t = time.perf_counter()
    _child([str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
            "--probe-setup"])
    return time.perf_counter() - t


def import_seconds():
    """Median cumulative import times of cyclosc and scipy.integrate from
    ``python -X importtime``."""
    found = {"import.cyclosc_s": [], "import.scipy_integrate_s": []}
    names = {"cyclosc": "import.cyclosc_s", "scipy.integrate": "import.scipy_integrate_s"}
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import cyclosc"
    for _ in range(IMPORT_PROBES):
        err = _child(["-X", "importtime", "-c", code]).stderr
        for line in err.splitlines():
            m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(2) in names:
                found[names[m.group(2)]].append(int(m.group(1)) * 1e-6)
    return {k: statistics.median(v) if v else 0.0 for k, v in found.items()}


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    sha = "unknown"  # a checkout without .git has no SHA
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except OSError:
            pass
    task_dir = Path("/proc/self/task")
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "process_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
    }


# ---------------------------------------------------------------------------
# the two kinds of run

def measured_run(workload, ops, seconds, seed):
    import workloads
    tally = Tally(ops, workloads.FAULTS)
    setup_times = []

    def one_round(n):
        # set-up probes go between the first rounds, to sample the machine
        # at several moments of the run
        if n < SETUP_PROBES:
            setup_times.append(setup_probe(workload, seed))
        wall, results = run_round(ops)
        tally.add(wall, results)
        return wall

    run_rounds(seconds, 1, one_round)
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(workload, seed))
    # Other tenants of a shared machine contend for the core through most of
    # a run.  An op's fastest call is then an extreme value that moves from
    # run to run, while the median of its calls repeats; so each op's latency
    # is its median call, and wall_s, the time to run the op list once, is
    # the sum of those.
    latencies = [statistics.median(times) for times in tally.op_times]
    tail = tail_percentile(latencies, workloads.TAIL_PCT[workload])
    if tail is None:
        raise SystemExit("error: too few operations for a tail percentile")
    wall_s = sum(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall_s,
        "items_per_s": sum(tally.op_items) / wall_s,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def traced_run(workload, ops, seconds):
    """Alternate untraced and traced rounds; per-layer figures come from the
    traced ones.  The overhead is wall_s, the sum of each op's median call,
    over the traced rounds minus the same over the untraced ones."""
    import spans
    import workloads
    tally = Tally(ops, workloads.FAULTS)
    tracer = spans.Tracer()
    times = {False: [[] for _ in ops], True: [[] for _ in ops]}

    def one_round(n):
        traced = n % 2 == 1
        if traced:
            with tracer:
                wall, results = run_round(ops)
        else:
            wall, results = run_round(ops)
        for i, _, dt in results:
            times[traced][i].append(dt)
        tally.add(wall, results)
        return wall

    rounds = run_rounds(seconds, 2, one_round)
    if rounds % 2:
        one_round(rounds)
    overhead = (sum(map(statistics.median, times[True]))
                - sum(map(statistics.median, times[False])))
    metrics = tracer.layer_metrics((rounds + 1) // 2, import_seconds(), overhead)
    return tally, metrics, tracer


def write_out(name, payload):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def run_all(args):
    """Each workload in a fresh interpreter; a summary line per metric."""
    import workloads
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {w} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            print(f"{w:<10} {name:<30} {m['value']:>14.6g} {m['unit']}")
            total["metrics"][f"{w}.{name}"] = m
        print(f"{w:<10} ops attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "sga-ladder", "measure", "verify", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    if args.workload == "all":
        return run_all(args)
    ops = workloads.build(args.workload, args.seed)
    if args.probe_setup:
        return 0

    env = environment()
    if args.trace:
        tally, metrics, tracer = traced_run(args.workload, ops, args.seconds)
        calls, incl, own = tracer.totals()
        extra = {"spans": {name: {"calls": calls[name], "incl_s": incl[name], "self_s": own[name]}
                           for name in calls}}
    else:
        tally, metrics = measured_run(args.workload, ops, args.seconds, args.seed)
        extra = {}
    per_op = [
        {"label": op.label, **op.info, "median_ms": 1e3 * statistics.median(times),
         "best_ms": 1e3 * min(times), "failed": failed}
        for op, times, failed in zip(ops, tally.op_times, tally.op_failed)
    ]
    tail_pct = workloads.TAIL_PCT[args.workload]
    path = write_out(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "rounds": len(tally.walls), "tail_pct": tail_pct,
        "metrics": metrics, "problems": tally.problems, "ops": per_op, **extra,
    })

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {tally.attempted} ops in {len(tally.walls)} rounds, "
          f"{tally.failed} failed, tail = p{tail_pct:g}; "
          f"threads {env['process_threads']}, sha {env['git_sha'][:12]}; details in {path}")
    for label, note in tally.problems.items():
        print(f"problem: {label}: {note}", file=sys.stderr)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
