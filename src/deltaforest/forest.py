"""Forest algorithm: weighted tree, redundancy forest, leaf elimination.

The value of a proper loaded tree is computed in four linear passes:

1. weight it: w(v) = deg(v) + |h(v)| - 3 and w(e) = m(e) - 1;
2. read the sign: (-1) to the edge weight sum (for proper trees the
   vertex and edge weight sums agree, the *weight identity*);
3. subdivide every edge by a middle vertex inheriting the edge weight
   (the redundancy tree), then delete all zero-weight vertices, leaving
   the redundancy forest;
4. eliminate leaves: each leaf l with parent p contributes the binomial
   C(w(p), w(l)) and decrements w(p) by w(l); a leaf heavier than its
   parent kills the whole product.  A lone vertex is worth 1 if its
   weight is zero and 0 otherwise; the empty forest is worth 1.

The binomial identity C(c,a)*C(c-a,b) = C(c,b)*C(c-b,a) makes the result
independent of the elimination order.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from math import comb

from .model import Classification, Monomial, classify
from .trees import Edge, LoadedTree, monomial_to_tree, _edge


class WeightIdentityError(ValueError):
    """Vertex and edge weight sums differ: the source tree was not proper."""


@dataclass
class WeightedTree:
    """Same topology as the source loaded tree, labels folded into weights."""

    vertex_weight: dict
    edge_weight: dict

    @property
    def vertices(self) -> list[int]:
        return sorted(self.vertex_weight)

    @property
    def edges(self) -> list[Edge]:
        return sorted(self.edge_weight)

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"id": v, "weight": self.vertex_weight[v]} for v in self.vertices
            ],
            "edges": [
                {"u": u, "v": v, "weight": self.edge_weight[(u, v)]}
                for u, v in self.edges
            ],
        }


@dataclass
class RedundancyTree:
    """Tree with nonnegative vertex weights."""

    weight: dict
    edges: set

    @property
    def vertices(self) -> list[int]:
        return sorted(self.weight)

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"id": v, "weight": self.weight[v]} for v in self.vertices
            ],
            "edges": [{"u": u, "v": v} for u, v in sorted(self.edges)],
        }


@dataclass
class RedundancyForest:
    trees: list

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"id": v, "weight": t.weight[v]}
                for t in self.trees
                for v in t.vertices
            ],
            "edges": [
                {"u": u, "v": v} for t in self.trees for u, v in sorted(t.edges)
            ],
        }


def to_weighted(t: LoadedTree) -> WeightedTree:
    """Weight function of a loaded tree; nonnegative by the vertex condition."""
    adj = t.adjacency()
    vertex_weight = {
        v: len(adj[v]) + len(t.labels[v]) - 3 for v in t.labels
    }
    edge_weight = {e: m - 1 for e, m in t.multiplicity.items()}
    return WeightedTree(vertex_weight, edge_weight)


def sign_of(wt: WeightedTree) -> int:
    """(-1) to the edge weight sum; requires the weight identity."""
    edge_sum = sum(wt.edge_weight.values())
    vertex_sum = sum(wt.vertex_weight.values())
    if edge_sum != vertex_sum:
        raise WeightIdentityError(
            f"edge weight sum {edge_sum} != vertex weight sum {vertex_sum}; "
            "the source tree is not proper"
        )
    return -1 if edge_sum % 2 else 1


def to_redundancy(wt: WeightedTree) -> RedundancyTree:
    """Subdivide every edge once; the middle vertex inherits the edge weight."""
    weight = dict(wt.vertex_weight)
    edges = set()
    next_id = max(wt.vertex_weight) + 1 if wt.vertex_weight else 0
    for u, v in wt.edges:
        mid = next_id
        next_id += 1
        weight[mid] = wt.edge_weight[(u, v)]
        edges.add(_edge(u, mid))
        edges.add(_edge(mid, v))
    return RedundancyTree(weight, edges)


def prune(rt: RedundancyTree) -> RedundancyForest:
    """Drop all zero-weight vertices; the survivors split into components."""
    keep = {v for v, w in rt.weight.items() if w > 0}
    adj: dict[int, list[int]] = {v: [] for v in keep}
    kept_edges = []
    for u, v in rt.edges:
        if u in keep and v in keep:
            adj[u].append(v)
            adj[v].append(u)
            kept_edges.append((u, v))

    component_of: dict[int, int] = {}
    members: list[list[int]] = []
    for start in sorted(keep):
        if start in component_of:
            continue
        component_of[start] = len(members)
        group = [start]
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in component_of:
                    component_of[w] = len(members)
                    group.append(w)
                    stack.append(w)
        members.append(group)

    edges_by_component: list[list] = [[] for _ in members]
    for u, v in kept_edges:
        edges_by_component[component_of[u]].append((u, v))

    trees = [
        RedundancyTree(
            weight={v: rt.weight[v] for v in group},
            edges=set(edges_by_component[cid]),
        )
        for cid, group in enumerate(members)
    ]
    return RedundancyForest(trees)


def _snapshot(weight: dict, adj: dict) -> dict:
    """The remaining component: adjacency restricted to vertices in ``weight``."""
    return {
        "vertices": [{"id": v, "weight": weight[v]} for v in sorted(weight)],
        "edges": [
            {"u": u, "v": v} for u in sorted(weight) for v in sorted(adj[u]) if u < v
        ],
    }


def eval_redundancy_tree(
    rt: RedundancyTree, *, rng: random.Random | None = None, trace: list | None = None
) -> int:
    """Nonnegative value of one redundancy tree by leaf elimination.

    Leaves are taken smallest-id-first for reproducible traces, or in a
    random order when ``rng`` is supplied; confluence of the binomial
    recursion makes the value order-independent.  Returns 0 immediately
    when a leaf outweighs its parent.
    """
    weight = dict(rt.weight)
    if len(weight) == 1:
        (v,) = weight
        return 1 if weight[v] == 0 else 0

    adj: dict[int, set] = {v: set() for v in weight}
    for u, v in rt.edges:
        adj[u].add(v)
        adj[v].add(u)

    leaves = [v for v in weight if len(adj[v]) == 1]
    if rng is None:
        heapq.heapify(leaves)
    value = 1
    remaining = len(weight)
    while remaining > 1:
        if rng is None:
            leaf = heapq.heappop(leaves)
        else:
            leaf = leaves.pop(rng.randrange(len(leaves)))
        (parent,) = adj[leaf]
        if weight[leaf] > weight[parent]:
            return 0
        value *= comb(weight[parent], weight[leaf])
        weight[parent] -= weight[leaf]
        adj[parent].discard(leaf)
        w_leaf = weight.pop(leaf)
        remaining -= 1
        if trace is not None:
            trace.append(
                {
                    "stage": "eliminate_leaf",
                    "structure": _snapshot(weight, adj),
                    "binomial": [weight[parent] + w_leaf, w_leaf],
                }
            )
        if len(adj[parent]) == 1 and remaining > 1:
            if rng is None:
                heapq.heappush(leaves, parent)
            else:
                leaves.append(parent)
    (last,) = weight
    return value if weight[last] == 0 else 0


def eval_forest(
    rf: RedundancyForest, *, rng: random.Random | None = None, trace: list | None = None
) -> int:
    """Product over the component trees; the empty forest is worth 1."""
    value = 1
    for t in rf.trees:
        value *= eval_redundancy_tree(t, rng=rng, trace=trace)
        if value == 0:
            return 0
    return value


def eval_loaded_tree(t: LoadedTree, *, trace: list | None = None) -> int:
    """Signed value of a loaded tree; 0 unless the tree is proper."""
    if not t.is_proper:
        return 0
    wt = to_weighted(t)
    sign = sign_of(wt)
    rt = to_redundancy(wt)
    rf = prune(rt)
    if trace is not None:
        trace.append({"stage": "loaded_tree", "structure": t.to_json()})
        trace.append({"stage": "weighted_tree", "structure": wt.to_json()})
        trace.append({"stage": "redundancy_tree", "structure": rt.to_json()})
        trace.append({"stage": "redundancy_forest", "structure": rf.to_json()})
    return sign * eval_forest(rf, trace=trace)


def eval_monomial(m: Monomial, *, trace: list | None = None) -> int:
    """Exact integer value of a monomial.

    Wrong degree or a crossing pair short-circuits to 0; everything else
    runs through the tree and forest pipeline (clever monomials prune to
    the empty forest and come out as 1).
    """
    kind = classify(m)
    if kind in (Classification.DEGREE_MISMATCH, Classification.ZERO_BY_KEEL):
        return 0
    return eval_loaded_tree(monomial_to_tree(m), trace=trace)
