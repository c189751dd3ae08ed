"""Seeded input generators for the benchmark.

Everything here is plain data built from ``random.Random``: a tree is a
``Tree`` (label lists per vertex, edges with multiplicities) and a
monomial is its canonical text.  Nothing imports ``deltaforest``, so the
program under test only ever sees the finished inputs.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass


@dataclass
class Tree:
    n: int
    labels: list  # labels[v] is the sorted label list of vertex v
    edges: list  # (u, v, multiplicity)


def _pruefer_edges(n_vertices: int, rng: random.Random) -> list[tuple[int, int]]:
    if n_vertices == 2:
        return [(0, 1)]
    seq = [rng.randrange(n_vertices) for _ in range(n_vertices - 2)]
    degree = [1] * n_vertices
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n_vertices) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _load(n: int, edges: list, rng: random.Random, min_mult: int = 1) -> Tree | None:
    """Spread labels and multiplicities over a topology; None if they do not fit.

    Every vertex gets at least the labels its degree requires (3 - deg) and
    every edge at least ``min_mult``; the rest is spread uniformly, so the
    tree is proper: total multiplicity n - 3.
    """
    n_vertices = len(edges) + 1
    deg = [0] * n_vertices
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    sizes = [max(0, 3 - d) for d in deg]
    spare_mult = (n - 3) - min_mult * len(edges)
    if sum(sizes) > n or spare_mult < 0:
        return None
    for _ in range(n - sum(sizes)):
        sizes[rng.randrange(n_vertices)] += 1
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    labels, at = [], 0
    for size in sizes:
        labels.append(sorted(perm[at : at + size]))
        at += size
    mult = [min_mult] * len(edges)
    for _ in range(spare_mult):
        mult[rng.randrange(len(edges))] += 1
    return Tree(n, labels, [(u, v, m) for (u, v), m in zip(edges, mult)])


def _load_balanced(edges: list, n: int, rng: random.Random, min_extra: int = 0) -> Tree:
    """Load a topology so that the value is nonzero.

    Start from the weight-zero loading (3 - deg labels per vertex, every
    multiplicity 1), give each vertex of degree d > 3 d - 3 extra
    multiplicity on its edges, then add units (at least ``min_extra`` per
    edge) until there are n labels, each unit raising one edge
    multiplicity and the label count of one of its endpoints.  Every unit pairs a vertex weight
    with an edge weight beside it, so leaf elimination never meets a leaf
    heavier than its parent.
    """
    n_vertices = len(edges) + 1
    deg = [0] * n_vertices
    incident = [[] for _ in range(n_vertices)]
    for i, (u, v) in enumerate(edges):
        deg[u] += 1
        deg[v] += 1
        incident[u].append(i)
        incident[v].append(i)
    sizes = [max(0, 3 - d) for d in deg]
    mult = [1] * len(edges)
    for v in range(n_vertices):
        for _ in range(deg[v] - 3):
            mult[rng.choice(incident[v])] += 1
    units = [i for i in range(len(edges)) for _ in range(min_extra)]
    extra = n - sum(sizes)
    if extra < len(units):
        raise ValueError(f"{n} labels are too few for this topology")
    units += [rng.randrange(len(edges)) for _ in range(extra - len(units))]
    for i in units:
        mult[i] += 1
        sizes[edges[i][rng.randrange(2)]] += 1
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    labels, at = [], 0
    for size in sizes:
        labels.append(sorted(perm[at : at + size]))
        at += size
    return Tree(n, labels, [(u, v, m) for (u, v), m in zip(edges, mult)])


def random_tree(n: int, rng: random.Random) -> Tree:
    """Random proper tree with n labels, drawn as ``deltaforest random`` does.

    The vertex count is uniform in [2, n-2] (redrawn until the labels fit)
    and labels and multiplicities are spread uniformly, so most large
    draws are worth 0.
    """
    while True:
        tree = _load(n, _pruefer_edges(rng.randint(2, n - 2), rng), rng)
        if tree is not None:
            return tree


def balanced_tree(n: int, n_vertices: int, rng: random.Random) -> Tree:
    """Random topology on n_vertices with n labels and a nonzero value.

    Redraws the topology in the rare case its high-degree vertices need
    more than n labels.
    """
    while True:
        edges = _pruefer_edges(n_vertices, rng)
        try:
            return _load_balanced(edges, n, rng)
        except ValueError:
            continue


def path(n: int, n_vertices: int, rng: random.Random) -> Tree:
    """Path with n labels, a nonzero value and every multiplicity >= 2."""
    edges = [(i, i + 1) for i in range(n_vertices - 1)]
    return _load_balanced(edges, n, rng, min_extra=1)


def _shuffled(n: int, rng: random.Random) -> list[int]:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return labels


def caterpillar(distinct_edges: int, rng: random.Random) -> Tree:
    """Spine with a doubled pendant per spine vertex; value (-1)^pendants.

    Same shape as acceptance criterion 10's caterpillar: the forest is one
    two-vertex component per pendant, so elimination does work linear in
    the edge count while the value stays +-1.  Labels are shuffled.
    """
    k = (distinct_edges + 1) // 2
    n = 3 * k + 2
    pool = _shuffled(n, rng)
    labels, edges, at = [], [], 0
    for i in range(k):
        spine_count = 2 if k == 1 else (1 if i in (0, k - 1) else 0)
        labels.append(sorted(pool[at : at + spine_count]))
        labels.append(sorted(pool[at + spine_count : at + spine_count + 3]))
        at += spine_count + 3
        edges.append((2 * i, 2 * i + 1, 2))
        if i:
            edges.append((2 * (i - 1), 2 * i, 1))
    return Tree(n, labels, edges)


def two_vertex(n: int, side: int, rng: random.Random) -> Tree:
    """One edge of multiplicity n-3 between label sets of sizes side, n-side."""
    labels = _shuffled(n, rng)
    return Tree(n, [sorted(labels[:side]), sorted(labels[side:])], [(0, 1, n - 3)])


def star(leaf_mults: list[int], centre_labels: int, rng: random.Random) -> Tree:
    """Star whose leaves carry two labels each (weight 0).

    The centre takes whatever labels make the tree proper: its weight is
    then the edge weight sum and the value the multinomial over it.
    """
    k = len(leaf_mults)
    n = sum(leaf_mults) + 3
    if n != 2 * k + centre_labels:
        raise ValueError("leaf multiplicities do not fit the label count")
    pool = _shuffled(n, rng)
    labels = [sorted(pool[:centre_labels])]
    labels += [sorted(pool[centre_labels + 2 * i : centre_labels + 2 * i + 2]) for i in range(k)]
    return Tree(n, labels, [(0, i + 1, m) for i, m in enumerate(leaf_mults)])


def edge_sides(tree: Tree) -> list[frozenset]:
    """For each edge (in order), the labels on its far side from vertex 0."""
    adj = [[] for _ in tree.labels]
    for i, (u, v, _) in enumerate(tree.edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    parent_edge = [None] * len(tree.labels)
    order, seen, stack = [], {0}, [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for w, i in adj[v]:
            if w not in seen:
                seen.add(w)
                parent_edge[w] = i
                stack.append(w)
    below = [set(ls) for ls in tree.labels]
    side = [None] * len(tree.edges)
    for v in reversed(order):
        i = parent_edge[v]
        if i is not None:
            side[i] = frozenset(below[v])
            u, w, _ = tree.edges[i]
            below[u if w == v else w] |= below[v]
    return side


def cuts_of(tree: Tree) -> dict[frozenset, int]:
    """Exponent per cut, each cut keyed by its side that avoids label 1."""
    full = frozenset(range(1, tree.n + 1))
    out: dict[frozenset, int] = {}
    for part, (_, _, m) in zip(edge_sides(tree), tree.edges):
        key = full - part if 1 in part else part
        out[key] = out.get(key, 0) + m
    return out


def render(n: int, cuts: dict[frozenset, int]) -> str:
    """Canonical monomial text, byte-identical to the program's renderer."""
    if not cuts:
        return f"n={n}; 1"
    full = frozenset(range(1, n + 1))
    keyed = []
    for second, exp in cuts.items():
        first = tuple(sorted(full - second))
        keyed.append(((first, tuple(sorted(second))), exp))
    keyed.sort()
    factors = []
    for (first, second), exp in keyed:
        f = "d(" + ",".join(map(str, first)) + "|" + ",".join(map(str, second)) + ")"
        factors.append(f if exp == 1 else f"{f}^{exp}")
    return f"n={n}; " + " * ".join(factors)


def crossing_cut(n: int, cut: frozenset, rng: random.Random) -> frozenset:
    """A cut that crosses ``cut`` (Keel's relation), keyed like ``cuts_of``."""
    other = [x for x in range(1, n + 1) if x not in cut]
    pair = frozenset((rng.choice(sorted(cut)), rng.choice(other)))
    full = frozenset(range(1, n + 1))
    return full - pair if 1 in pair else pair
