"""Seeded end-to-end and per-layer benchmark of deltaforest.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke      # tiny sizes

The program is the checkout's own ``src/deltaforest``; nothing needs to be
installed.  With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a separate, traced run reports the
per-layer ones.  Every output is checked against a reference computed
outside timing.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
says how the tail was taken and which items failed.

Set-up time (``setup_s``) is the median wall time of fresh interpreters,
started one at a time, that import ``deltaforest.cli`` and evaluate
``n=3; 1``.  The measured loop runs in its own process (``worker.py``);
its times are divided by the run's machine slowdown (``speed.py``).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed
import workloads
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
COLD_STARTS = 7
WORKER_TIMEOUT_S = 160
SETUP_CODE = "import sys; from deltaforest.cli import main; sys.exit(main(['eval', 'n=3; 1']))"
SETUP_OUTPUT = '{"input": "n=3; 1", "classification": "Clever", "value": "1", "sign": 1}\n'


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds() -> float:
    """Median wall time of cold starts, after one start that fills the
    bytecode cache (installed packages ship theirs).

    Not scaled by the speed kernel: a cold start is mostly process creation
    and file reads, which the kernel does not exercise.
    """
    times = []
    for i in range(COLD_STARTS + 1):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        elapsed = perf_counter() - t0
        if proc.returncode != 0 or proc.stdout != SETUP_OUTPUT:
            raise RuntimeError(f"cold start printed {proc.stdout!r} {proc.stderr!r}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    rank = pct / 100 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def check(kind: str, item, output, error) -> tuple[bool, bool]:
    """(failed, wrong): failed if it raised, gave no answer or a wrong
    value; wrong only for a wrong value."""
    if error is not None:
        return True, False
    if kind in (workloads.BATCH, workloads.TEXT):
        expected = list(item.expect().items())
        try:
            got = list(json.loads(output).items())
        except ValueError:
            return True, True
        ok = got == expected and output.count("\n") <= 1
    elif kind == workloads.TREE:
        ok = int(output, 16) == item.expect()
    else:
        ok = output[0] == output[1]
    return not ok, not ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one round")
    args = p.parse_args()

    if not (SRC / "deltaforest" / "__init__.py").is_file():
        print(f"error: {SRC / 'deltaforest'} not found; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(0)  # references only; the program runs elsewhere
    import deltaforest

    if Path(deltaforest.__file__).resolve().parent != (SRC / "deltaforest").resolve():
        print(f"error: imported {deltaforest.__file__}, not the checkout's", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    seconds = 0 if args.smoke else args.seconds

    setup_s = setup_seconds() if not args.trace else None
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}.jsonl"
    spans_file = OUT / f"spans-{args.workload}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(args.trace), "--out", str(out_file), "--spans", str(spans_file),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    with open(out_file, encoding="utf-8") as fh:
        *lines, summary = [json.loads(line) for line in fh]

    records = [
        (line["round"], pos, *outcome)
        for line in lines
        for pos, outcome in enumerate(line["results"])
    ]
    slowdown = speed.slowdown([k for line in lines for k in line["kernel"]])

    # Check every output, outside timing.
    known = workloads.KNOWN_FAILURES.get(args.workload, {})
    rounds = {}
    failures: Counter = Counter()
    correct = True
    for rnd, pos, output, error, _ in records:
        if rnd not in rounds:
            rounds[rnd] = spec.rounds(args.seed, rnd, args.smoke)
        item = rounds[rnd][pos]
        failed, wrong = check(spec.kind, item, output, error)
        if failed:
            failures[item.name] += 1
            if wrong or item.name not in known:
                correct = False
                print(f"FAIL {item.name} round {rnd}: {error or 'wrong output'}", file=sys.stderr)
    attempted = len(records)
    failed = sum(failures.values())

    if args.trace:
        with open(spans_file, encoding="utf-8") as fh:
            traced = json.load(fh)
        metrics = layer_metrics(traced["spans"], traced["counts"], attempted, slowdown)
        untraced = summary["untraced"]
        overhead = (
            sum(r[4] for r in records) / slowdown
            - sum(e for e, _ in untraced) / speed.slowdown([k for _, k in untraced])
        ) / attempted
        metrics["trace.overhead_s"] = (overhead, "s/item")
    else:
        items_per_s, p50, tail = _end_to_end(records, attempted - failed, spec.tail_pct)
        metrics = {
            "items_per_s": (items_per_s * slowdown, "1/s"),
            "latency_p50_ms": (p50 / slowdown, "ms"),
            "latency_tail_ms": (tail / slowdown, "ms"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
            "setup_s": (setup_s, "s"),
        }
        tail_beyond = attempted * (1 - spec.tail_pct / 100)
        print(json.dumps({
            "workload": args.workload,
            "samples": attempted,
            "rounds": summary["rounds"],
            "timed_s": sum(r[4] for r in records),
            "slowdown": slowdown,
            "raw": {"items_per_s": items_per_s, "latency_p50_ms": p50, "latency_tail_ms": tail},
            "tail": f"p{spec.tail_pct:g}",
            "samples_beyond_tail": int(tail_beyond),
            "tail_has_10_beyond": tail_beyond >= 10,
            "failed_share": failed / attempted,
            "failures": dict(failures),
        }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


def _end_to_end(records: list, ok: int, tail_pct: float) -> tuple:
    """Raw (items per second, p50 ms, tail ms) of a run.

    Every round has the same mix, so the median round time is a throughput
    measure that a single slow round cannot move.
    """
    round_s: Counter = Counter()
    for rnd, _, _, _, elapsed in records:
        round_s[rnd] += elapsed
    latencies = [rec[4] for rec in records]
    return (
        ok / len(round_s) / statistics.median(round_s.values()),
        percentile(latencies, 50) * 1e3,
        percentile(latencies, tail_pct) * 1e3,
    )


if __name__ == "__main__":
    sys.exit(main())
