"""Measuring process: feeds one workload to deltaforest in a closed loop.

Started by ``run.py`` in a fresh interpreter per run, so its peak resident
set belongs to this workload alone.  One thread, one item at a time: the
next item starts when the previous one has returned.  Inputs are drawn
item by item outside the timed region; ``gc.collect()`` runs before each
timed call and the collector stays on inside it, as it does for users.

It measures whole rounds until the timed calls add up to ``--seconds``,
writing each item's raw output, error and latency, and the speed kernel's
time before each timed call (``speed.py``), to ``--out``: one JSON line
per round, then a summary line.  It checks nothing: the parent process
compares outputs with references.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S
       --trace 0|1 --out FILE [--spans FILE] [--smoke]
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import workloads  # noqa: E402
from deltaforest import cli, forest, oracle  # noqa: E402
from tracing import Tracer  # noqa: E402


class LineClock(io.TextIOBase):
    """Stdout stand-in that timestamps every completed line."""

    def __init__(self, tracer: Tracer | None):
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self._pending = ""
        self._tracer = tracer

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if "\n" in s:
            *done, self._pending = (self._pending + s).split("\n")
            now = perf_counter()
            for line in done:
                self.lines.append(line)
                self.stamps.append(now)
                if self._tracer is not None:
                    self._tracer.item += 1
        else:
            self._pending += s
        return len(s)


def _error(err: BaseException) -> str:
    return f"{type(err).__name__}: {str(err)[:200]}"


def _call_cli(argv: list[str], stdin: str = "", stdout=None):
    """cli.main in-process with stdin, stdout and stderr swapped; returns
    (exit code or None, captured stderr, error text or None)."""
    err = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue(), None
    except Exception as exc:  # the program crashed: record it, keep measuring
        return None, err.getvalue(), _error(exc)
    finally:
        sys.stdin = old_stdin


def _calibrate() -> float:
    """The speed kernel's time on a clean heap, just before a timed call."""
    gc.collect()
    kernel = speed.kernel_seconds()
    gc.collect()
    return kernel


def _run_batch(items, tracer) -> tuple[list, float]:
    """One cli.main call over the round's lines: per-line results and the
    kernel time taken before the call."""
    texts = [item.build() for item in items]
    clock = LineClock(tracer)
    kernel = _calibrate()
    root = tracer.begin("bench.batch") if tracer else None
    t0 = perf_counter()
    code, stderr, error = _call_cli(["eval", "--stdin"], "\n".join(texts) + "\n", clock)
    if root:
        tracer.end(root)
    if error is None and code != 0:
        error = f"exit {code}: {stderr.strip()[:200]}"
    out = []
    prev = t0
    for i in range(len(items)):
        if i < len(clock.lines):
            out.append((clock.lines[i], None, clock.stamps[i] - prev))
            prev = clock.stamps[i]
        else:  # no answer: the call stopped before this line
            out.append((None, error or "no output", 0.0))
    return out, kernel


def _run_one(kind: str, item, tracer) -> tuple:
    """(output, error, seconds) of one timed call, and the kernel time
    taken before it."""
    payload = item.build()
    if kind != workloads.TEXT:
        payload = workloads.to_loaded(payload)
        if tracer:
            tracer.count_tree(payload)
    buf = io.StringIO()
    kernel = _calibrate()
    root = tracer.begin("bench.item") if tracer else None
    t0 = perf_counter()
    output = error = None
    if kind == workloads.TEXT:
        code, stderr, error = _call_cli(["eval", payload], stdout=buf)
        if error is None and code != 0:
            error = f"exit {code}: {stderr.strip()[:200]}"
    else:
        try:
            value = forest.eval_loaded_tree(payload)
            if kind == workloads.ORACLE:
                output = [hex(value), hex(oracle.oracle_eval(payload))]
            else:
                output = hex(value)
        except Exception as exc:  # the program crashed: record it, keep measuring
            error = _error(exc)
    elapsed = perf_counter() - t0
    if root:
        tracer.end(root)
        tracer.item += 1
    if kind == workloads.TEXT and error is None:
        output = buf.getvalue()
    return (output, error, elapsed), kernel


def measure(workload: str, seed: int, seconds: float, smoke: bool,
            tracer: Tracer | None, out=None, rounds: int | None = None) -> tuple[int, list]:
    """Run whole rounds until ``seconds`` of timed calls (or ``rounds``
    rounds); returns the rounds run and ``[seconds, kernel seconds]`` of
    every timed call.

    Each round's results go to ``out`` as one JSON line as soon as the
    round ends, so the process does not grow with the number of items.
    """
    spec = workloads.WORKLOADS[workload]
    calls, rnd, timed = [], 0, 0.0
    while rnd < rounds if rounds is not None else (rnd == 0 or timed < seconds):
        items = spec.rounds(seed, rnd, smoke)
        if spec.kind == workloads.BATCH:
            results, kernel = _run_batch(items, tracer)
            kernels = [kernel]
            calls.append([sum(r[2] for r in results), kernel])
        else:
            results, kernels = zip(*(_run_one(spec.kind, item, tracer) for item in items))
            calls.extend([r[2], k] for r, k in zip(results, kernels))
        if out is not None:
            out.write(json.dumps({"round": rnd, "kernel": kernels, "results": results}) + "\n")
        timed += sum(r[2] for r in results)
        rnd += 1
    return rnd, calls


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    for _ in range(3):  # the first runs of the kernel are slow
        speed.kernel_seconds()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    with open(args.out, "w", encoding="utf-8") as out:
        rounds, calls = measure(args.workload, args.seed, args.seconds, args.smoke, tracer, out)
        summary = {"rounds": rounds}
        if tracer:
            # Same rounds again without spans: the difference is the overhead.
            tracer.uninstall()
            summary["untraced"] = measure(
                args.workload, args.seed, 0, args.smoke, None, rounds=rounds
            )[1]
            tracer.dump(args.spans)
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
