"""Spans around the public calls of each deltaforest module.

The traced run replaces, for its duration, the module attributes through
which ``cli._report``, ``eval_loaded_tree`` and the benchmark's own
worker call into each layer.  Nothing in ``src/`` changes: the program's
code looks those names up at call time, so it calls the wrappers.

A span is ``[name, start, end, parent, item]``; ``parent`` is the index
of the enclosing span (-1 for none) and ``item`` the input it belongs to.
Spans stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import builtins
import json
from collections import defaultdict
from time import perf_counter

# Per-layer metric -> the span names whose self time it sums.
TIMES = {
    "expressions.parse_s": ("expressions.parse",),
    "expressions.render_s": ("expressions.render",),
    "model.classify_s": ("model.classify",),
    "trees.build_s": ("trees.build",),
    "forest.weight_s": ("forest.weight", "forest.sign"),
    "forest.subdivide_s": ("forest.subdivide",),
    "forest.prune_s": ("forest.prune",),
    "forest.eliminate_s": ("forest.eliminate",),
    "oracle.eval_s": ("oracle.eval",),
    "cli.emit_s": ("cli.emit", "cli.decimal"),
}
COUNTS = {
    "expressions.bytes": "bytes/item",
    "model.factors": "count/item",
    "model.early_zero": "count/item",
    "trees.vertices": "count/item",
    "trees.edges": "count/item",
    "forest.components": "count/item",
    "forest.kept_vertices": "count/item",
    "forest.value_bits": "bits/item",
    "oracle.failed": "count/item",
}
ROOTS = ("bench.item", "bench.batch")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.item = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def begin(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def end(self, rec: list):
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None, on_error: str | None = None):
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.end(rec)
                if on_error:
                    self.counts[on_error] += 1
                raise
            self.end(rec)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def count_tree(self, tree):
        self.counts["trees.vertices"] += len(tree.labels)
        self.counts["trees.edges"] += len(tree.multiplicity)

    def patch(self, module, attr: str, name: str, count=None, on_error=None):
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, count, on_error))

    def install(self):
        """Wrap every layer entry point the value path uses."""
        from deltaforest import cli, forest, oracle
        from deltaforest.model import Classification

        zero = (Classification.ZERO_BY_KEEL, Classification.DEGREE_MISMATCH)

        def parsed(c, args, m):
            c["expressions.bytes"] += len(args[0])

        def classified(c, args, kind):
            c["model.factors"] += len(args[0].factors)
            c["model.early_zero"] += kind in zero

        def built(c, args, tree):
            self.count_tree(tree)

        def pruned(c, args, rf):
            c["forest.components"] += len(rf.trees)
            c["forest.kept_vertices"] += sum(len(t.weight) for t in rf.trees)

        def valued(c, args, value):
            c["forest.value_bits"] += abs(value).bit_length()

        self.patch(cli, "parse_monomial", "expressions.parse", parsed)
        self.patch(cli, "render_monomial", "expressions.render")
        self.patch(cli, "classify", "model.classify", classified)
        self.patch(cli, "monomial_to_tree", "trees.build", built)
        for module in (cli, forest):
            self.patch(module, "to_weighted", "forest.weight")
            self.patch(module, "sign_of", "forest.sign")
            self.patch(module, "eval_loaded_tree", "forest.eval", valued)
        self.patch(forest, "to_redundancy", "forest.subdivide")
        self.patch(forest, "prune", "forest.prune", pruned)
        self.patch(forest, "eval_forest", "forest.eliminate")
        for module in (cli, oracle):
            self.patch(module, "oracle_eval", "oracle.eval", on_error="oracle.failed")
        self.patch(cli, "_emit", "cli.emit")
        # cli._report turns the value into its decimal string with the
        # builtin str; a module global of that name takes precedence.
        cli.str = self.wrap(builtins.str, "cli.decimal")
        self._undo.append((cli, "str", None))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            if original is None:
                delattr(module, attr)
            else:
                setattr(module, attr, original)
        self._undo.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_metrics(spans: list[list], counts: dict, items: int, slowdown: float) -> dict[str, tuple]:
    """Per-item means of each layer's self time and counts, plus coverage,
    as ``{metric: (value, unit)}``; times are divided by the run's mean
    ``slowdown`` against the reference speed (``speed.py``).

    Self time is a span's duration minus the time its child spans cover.
    Coverage is the share of the root spans' time (one per item, or per
    ``--stdin`` batch) that the layer spans directly below them account for.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    root_time = covered = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_time[name] += end - start - child_time[i]
        if name in ROOTS:
            root_time += end - start
            covered += child_time[i]
    out = {
        metric: (sum(self_time[n] for n in names) / items / slowdown, "s/item")
        for metric, names in TIMES.items()
    }
    out.update({name: (counts.get(name, 0) / items, unit) for name, unit in COUNTS.items()})
    out["trace.coverage"] = (covered / root_time if root_time else 0.0, "ratio")
    return out
