"""Loaded trees and the correspondence with tree monomials.

A loaded tree is a tree whose vertices carry (possibly empty) label sets
partitioning {1..n} and whose edges carry positive multiplicities, subject
to deg(v) + |h(v)| >= 3 at every vertex.  Each edge determines a cut: the
label sets of the two components obtained by removing it.  Tree monomials
(no crossing pair of factors) correspond one-to-one with loaded trees; a
tree is *proper* when its total edge multiplicity equals n - 3.

``monomial_to_tree`` reads the tree off :func:`~deltaforest.model.nest`:
orienting every cut by its side away from label 1, the sides of a tree
monomial form a laminar family, and its containment tree is the loaded
tree.  ``tree_to_monomial`` is the straightforward inverse.
"""
from __future__ import annotations

import random
from typing import Iterable, Mapping

from .model import CrossingFactorsError, Cut, Monomial, nest  # noqa: F401 (re-export)

Edge = tuple  # (u, v) with u < v


class EmptyNonTrivialError(ValueError):
    """An edgeless tree (or factorless monomial) requires exactly 3 labels."""


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class LoadedTree:
    """Tree with vertex label sets and edge multiplicities.

    ``labels`` maps every vertex id to a frozenset of labels (possibly
    empty); ``multiplicity`` maps normalized edges (u, v), u < v, to
    positive integers.  The constructor normalizes but does not validate;
    use :func:`validate` to check the structural invariants.
    """

    __slots__ = ("n", "labels", "multiplicity")

    def __init__(
        self,
        n: int,
        labels: Mapping[int, Iterable[int]],
        multiplicity: Mapping[Edge, int] = (),
    ):
        self.n = n
        self.labels = {v: frozenset(s) for v, s in labels.items()}
        items = (
            multiplicity.items() if isinstance(multiplicity, Mapping) else multiplicity
        )
        self.multiplicity = {_edge(u, v): m for (u, v), m in items}

    @property
    def vertices(self) -> list[int]:
        return sorted(self.labels)

    @property
    def edges(self) -> list[Edge]:
        return sorted(self.multiplicity)

    @property
    def total_multiplicity(self) -> int:
        return sum(self.multiplicity.values())

    @property
    def is_proper(self) -> bool:
        return self.total_multiplicity == self.n - 3

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in self.labels}
        for u, v in self.multiplicity:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degree(self, v: int) -> int:
        return sum(1 for e in self.multiplicity if v in e)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoadedTree):
            return NotImplemented
        return (
            self.n == other.n
            and self.labels == other.labels
            and self.multiplicity == other.multiplicity
        )

    def __repr__(self) -> str:
        return (
            f"LoadedTree(n={self.n}, labels={ {v: sorted(s) for v, s in sorted(self.labels.items())} }, "
            f"multiplicity={ {e: m for e, m in sorted(self.multiplicity.items())} })"
        )

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"id": v, "labels": sorted(self.labels[v])} for v in self.vertices
            ],
            "edges": [
                {"u": u, "v": v, "multiplicity": self.multiplicity[(u, v)]}
                for u, v in self.edges
            ],
        }


def validate(t: LoadedTree) -> list[str]:
    """Return a list of invariant violations; empty means the tree is valid."""
    problems: list[str] = []
    verts = set(t.labels)
    if not verts:
        return ["tree has no vertices"]

    for (u, v), m in t.multiplicity.items():
        if u not in verts or v not in verts:
            problems.append(f"edge ({u},{v}) references an unknown vertex")
        if u == v:
            problems.append(f"edge ({u},{v}) is a self-loop")
        if m < 1:
            problems.append(f"edge ({u},{v}) has nonpositive multiplicity {m}")
    if problems:
        return problems

    # connected and acyclic: |E| = |V| - 1 plus reachability
    if len(t.multiplicity) != len(verts) - 1:
        problems.append(
            f"not a tree: {len(verts)} vertices but {len(t.multiplicity)} edges"
        )
    adj = t.adjacency()
    seen = set()
    stack = [min(verts)]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(w for w in adj[v] if w not in seen)
    if seen != verts:
        problems.append(f"not connected: vertices {sorted(verts - seen)} unreachable")
    if problems:
        return problems

    # label sets partition {1..n}
    full = set(range(1, t.n + 1))
    union: set[int] = set()
    for v in t.vertices:
        s = t.labels[v]
        if overlap := (union & s):
            problems.append(f"label(s) {sorted(overlap)} appear on several vertices")
        union |= s
    if union != full:
        missing = sorted(full - union)
        extra = sorted(union - full)
        if missing:
            problems.append(f"labels {missing} missing from the tree")
        if extra:
            problems.append(f"labels {extra} outside 1..{t.n}")

    for v in t.vertices:
        if len(adj[v]) + len(t.labels[v]) < 3:
            problems.append(
                f"vertex {v}: deg + labels = {len(adj[v])} + {len(t.labels[v])} < 3"
            )
    return problems


def monomial_to_tree(m: Monomial) -> LoadedTree:
    """Build the loaded tree corresponding to a tree monomial.

    Vertex 0 holds label 1; each factor, in :func:`~deltaforest.model.nest`
    order, adds a vertex holding its side minus the sides nested in it,
    joined to its parent's vertex by an edge whose multiplicity is the
    factor's exponent.  Raises :class:`CrossingFactorsError` when two
    factors cross.
    """
    n = m.n
    if m.degree == 0:
        if n == 3:
            return LoadedTree(3, {0: frozenset({1, 2, 3})}, {})
        raise EmptyNonTrivialError(
            f"the empty monomial corresponds to a tree only for n=3, got n={n}"
        )

    vertex: dict[Cut | None, int] = {None: 0}
    labels = {0: set(range(1, n + 1))}
    mult: dict[Edge, int] = {}
    for v, (cut, parent) in enumerate(nest(m), 1):
        vertex[cut] = v
        labels[v] = set(cut.second)
        labels[vertex[parent]] -= cut.second
        mult[(vertex[parent], v)] = m.factors[cut]
    return LoadedTree(n, labels, mult)


def _edge_side_labels(t: LoadedTree) -> dict[Edge, frozenset]:
    """For each edge, the labels of the component on its child side.

    Computed by rooting the tree at the smallest vertex and accumulating
    subtree label unions bottom-up.
    """
    root = min(t.labels)
    adj = t.adjacency()
    parent: dict[int, int] = {root: root}
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)

    sub = {v: set(t.labels[v]) for v in t.labels}
    for v in reversed(order):
        if v != root:
            sub[parent[v]] |= sub[v]
    return {
        _edge(v, parent[v]): frozenset(sub[v]) for v in order if v != root
    }


def tree_to_monomial(t: LoadedTree) -> Monomial:
    """Read back the monomial: one cut per edge, exponent = multiplicity."""
    if not t.multiplicity:
        if t.n == 3:
            return Monomial(3)
        raise EmptyNonTrivialError(
            f"an edgeless tree has a monomial only for n=3, got n={t.n}"
        )
    side = _edge_side_labels(t)
    factors: dict[Cut, int] = {}
    for e, m in t.multiplicity.items():
        cut = Cut.from_part(side[e], t.n)
        factors[cut] = factors.get(cut, 0) + m
    return Monomial(t.n, factors)


def canonical_form(t: LoadedTree):
    """Hashable form invariant under vertex renaming.

    Label sets anchor the vertices, so the multiset of per-edge cuts plus
    the label partition pins the tree down up to isomorphism.
    """
    side = _edge_side_labels(t) if t.multiplicity else {}
    edge_records = sorted(
        (Cut.from_part(side[e], t.n).sort_key, m) for e, m in t.multiplicity.items()
    )
    partition = sorted(tuple(sorted(s)) for s in t.labels.values())
    return (t.n, tuple(edge_records), tuple(partition))


def isomorphic(a: LoadedTree, b: LoadedTree) -> bool:
    return canonical_form(a) == canonical_form(b)


def _tree_from_pruefer(seq: list[int], n_vertices: int) -> list[Edge]:
    """Decode a Pruefer sequence over vertices 0..n_vertices-1."""
    import heapq

    degree = [1] * n_vertices
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n_vertices) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append(_edge(leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append(_edge(u, v))
    return edges


def random_proper_tree(n: int, seed) -> LoadedTree:
    """Deterministic pseudo-random proper loaded tree with n labels."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return _random_proper_tree(n, random.Random(seed))


def _random_proper_tree(n: int, rng: random.Random) -> LoadedTree:
    """Draw topology, labels, and multiplicities from a shared rng.

    Resamples the topology until the per-vertex label minimums (leaves need
    two labels, degree-2 vertices one) fit within n.
    """
    if n == 3:
        return LoadedTree(3, {0: frozenset({1, 2, 3})}, {})

    while True:
        n_vertices = rng.randint(2, n - 2)
        if n_vertices == 2:
            edges = [(0, 1)]
        else:
            seq = [rng.randrange(n_vertices) for _ in range(n_vertices - 2)]
            edges = _tree_from_pruefer(seq, n_vertices)
        deg = [0] * n_vertices
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        minimum = [max(0, 3 - d) for d in deg]
        if sum(minimum) <= n:
            break

    sizes = list(minimum)
    for _ in range(n - sum(minimum)):
        sizes[rng.randrange(n_vertices)] += 1

    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    labels = {}
    at = 0
    for v in range(n_vertices):
        labels[v] = frozenset(perm[at : at + sizes[v]])
        at += sizes[v]

    mult = {e: 1 for e in edges}
    for _ in range((n - 3) - len(edges)):
        mult[edges[rng.randrange(len(edges))]] += 1
    return LoadedTree(n, labels, mult)
