"""Machine-speed calibration for the timed metrics.

The machines this benchmark runs on are shared: the same Python work runs
up to 1.7 times slower for tens of seconds at a time while neighbours are
busy, which moves a 15-second run as a whole.  So before every timed call
the worker runs a fixed kernel of the benchmark's own (render a monomial,
split and parse its labels: set, string and int work like the program's),
and a run's times are divided by its slowdown: the median kernel time over
``REFERENCE_S``.  The kernel never calls deltaforest, so a change to the
program cannot move it.  Raw times are reported beside the scaled ones.
"""
from __future__ import annotations

import random
import statistics
from time import perf_counter

import gen

REFERENCE_S = 0.005  # about the kernel on an idle 2-vCPU host of the kind used here

_TREE = gen.balanced_tree(300, 50, random.Random(0))


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = perf_counter()
    text = gen.render(_TREE.n, gen.cuts_of(_TREE))
    body = text[text.index(";") + 1 :]
    for sep in "d()|^*":
        body = body.replace(sep, ",")
    sum(int(x) for x in body.split(",") if x.strip())
    return perf_counter() - t0


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference the machine ran during a run:
    the median of its kernel times over ``REFERENCE_S``."""
    return statistics.median(samples) / REFERENCE_S
