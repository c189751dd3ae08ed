"""Shared fixtures: worked-example structures and a brute-force evaluator."""
from __future__ import annotations

import itertools
import os
from math import comb
from pathlib import Path

import pytest

import deltaforest
from deltaforest import LoadedTree, RedundancyTree

# Four-factor monomial over nine labels whose tree has five vertices.
EXAMPLE9_TEXT = (
    "n=9; d(1,2,3|4,5,6,7,8,9)^3 * d(1,2,3,4,5|6,7,8,9)"
    " * d(1,2,3,4,5,8,9|6,7) * d(1,2,3,4,5,6,7|8,9)"
)

KEEL_TEXT = "n=5; d(1,2|3,4,5) * d(1,4|2,3,5)"
CLEVER5_TEXT = "n=5; d(1,2|3,4,5) * d(1,2,3|4,5)"


def example9_tree() -> LoadedTree:
    """Expected tree of the nine-label example (ids arbitrary)."""
    return LoadedTree(
        9,
        {0: {1, 2, 3}, 1: {4, 5}, 2: frozenset(), 3: {6, 7}, 4: {8, 9}},
        {(0, 1): 3, (1, 2): 1, (2, 3): 1, (2, 4): 1},
    )


def fixture14_tree() -> LoadedTree:
    """Path on five vertices, 14 labels, total multiplicity 11.

    Weighted form: vertex weights (1, 4, 1, 1, 0) and edge weights
    (4, 2, 0, 1) along the path, so the value is -32.
    """
    return LoadedTree(
        14,
        {0: {1, 2, 3}, 1: {4, 5, 6, 7, 8}, 2: {9, 10}, 3: {11, 12}, 4: {13, 14}},
        {(0, 1): 5, (1, 2): 3, (2, 3): 1, (3, 4): 2},
    )


def path_redundancy(*weights: int) -> RedundancyTree:
    """Path-shaped redundancy tree with the given vertex weights."""
    edges = {(i, i + 1) for i in range(len(weights) - 1)}
    return RedundancyTree(dict(enumerate(weights)), edges)


def brute_forest_tree_value(weight: dict, edges: set) -> int:
    """Reference value by trying *every* leaf elimination order.

    Exponential; only for small trees.  Asserts that all orders agree and
    returns the common value, so it doubles as a confluence check.
    """
    results = set()

    def rec(w: dict, adj: dict, acc: int):
        if len(w) == 1:
            (v,) = w
            results.add(acc if w[v] == 0 else 0)
            return
        for leaf in [v for v in w if len(adj[v]) == 1]:
            (parent,) = adj[leaf]
            if w[leaf] > w[parent]:
                results.add(0)
                continue
            w2 = dict(w)
            w2[parent] -= w2.pop(leaf)
            adj2 = {v: nb - {leaf} for v, nb in adj.items() if v != leaf}
            rec(w2, adj2, acc * comb(w[parent], w[leaf]))

    adj = {v: set() for v in weight}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    rec(dict(weight), adj, 1)
    # orders that return 0 early coexist only with a 0 outcome
    assert len(results) == 1, f"elimination orders disagree: {results}"
    return results.pop()


@pytest.fixture
def example9_monomial():
    from deltaforest import parse_monomial

    return parse_monomial(EXAMPLE9_TEXT)


def all_cuts(n: int):
    """Every cut of {1..n}, canonically oriented."""
    from deltaforest import canonicalize_cut

    full = set(range(1, n + 1))
    seen = set()
    out = []
    for size in range(2, n - 1):
        for part in itertools.combinations(sorted(full), size):
            cut = canonicalize_cut(set(part), full - set(part), n)
            if cut not in seen:
                seen.add(cut)
                out.append(cut)
    return out


def child_env() -> dict:
    """The environment with this ``deltaforest`` on PYTHONPATH, so a child
    interpreter imports it even when the package is not installed."""
    src = str(Path(deltaforest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
