"""Independent evaluator by edge cutting from a work stack.

Cross-validates the forest algorithm.  A proper loaded tree is reduced by
three operations, each justified by an exact identity between the value
of the tree and the values of the two smaller trees an edge cut leaves
behind:

* a multiplicity-1 edge splits the tree into two independent factors,
  each endpoint absorbing a fresh label in place of the lost edge;
* cutting an edge of multiplicity r >= 1 between label sides I1 and I2
  (carrying s1 and s2 edge multiplicity) contributes the binomial
  C(r-1, |I1|-s1-2) and replaces each side's lost edge by a pendant
  two-label vertex of multiplicity |Ii|-si-1;
* stars whose leaves all have weight zero are scored directly by the
  multinomial of the center weight over the edge weights.

Every tree with at least three vertices admits a star cut (an edge cut
producing a star component), so the reduction always bottoms out.
Out-of-range binomial indices mean some side cannot carry a proper tree
and the value is zero.  ``oracle_eval`` pops one tree at a time from an
explicit stack and pushes its sides, so depth costs no interpreter
frames, and live memory is bounded by the pending side trees rather than
by depth times tree size.
"""
from __future__ import annotations

from math import comb

from .trees import Edge, LoadedTree, _edge


class NotSingleEdgeError(ValueError):
    """single_edge_cut was applied to an edge of multiplicity > 1."""


class NotSunLikeError(ValueError):
    """sun_like_value needs a star whose non-center vertices weigh zero."""


class StarCutTooSmallError(ValueError):
    """Star cuts need at least three vertices."""


def _vertex_weight(t: LoadedTree, v: int, adj) -> int:
    return len(adj[v]) + len(t.labels[v]) - 3


def _split_vertices(t: LoadedTree, e: Edge) -> tuple[set, set]:
    """Vertex sets of the two components of t minus e; e[0]'s side first."""
    adj = t.adjacency()
    u, v = e
    side = set()
    stack = [u]
    while stack:
        w = stack.pop()
        if w in side:
            continue
        side.add(w)
        for x in adj[w]:
            if not (w == u and x == v) and x not in side:
                stack.append(x)
    return side, set(t.labels) - side


def _cut(
    t: LoadedTree, e: Edge, pendant: bool
) -> tuple[tuple[int, int], LoadedTree | None, LoadedTree | None]:
    """Split t once at e: ((top, bottom), side1, side2), e[0]'s side first.

    With ``pendant``, each side gains a pendant vertex with two fresh
    labels, joined to the cut endpoint by the multiplicity that makes the
    side proper, and (top, bottom) = (r-1, |I1|-s1-2) indexes the cut
    binomial; both sides are None when bottom is out of range.  Without,
    each cut endpoint gains one fresh label and (top, bottom) = (0, 0).
    Labels in use are then renamed onto a contiguous 1..n', preserving
    order, so fresh labels (allocated above the old n) stay the largest.
    """
    sides = []
    for endpoint, verts in zip(e, _split_vertices(t, e)):
        labels = {v: set(t.labels[v]) for v in verts}
        mult = {
            edge: m for edge, m in t.multiplicity.items() if edge[0] in verts and edge[1] in verts
        }
        # the pendant multiplicity |Ii|-si-1 that makes the side proper
        slack = sum(map(len, labels.values())) - sum(mult.values()) - 1
        sides.append((endpoint, labels, mult, slack))
    binomial = (t.multiplicity[e] - 1, sides[0][3] - 1) if pendant else (0, 0)
    if not 0 <= binomial[1] <= binomial[0]:
        return binomial, None, None

    out = []
    for endpoint, labels, mult, slack in sides:
        if pendant:
            vertex = max(t.labels) + 1
            labels[vertex] = {t.n + 1, t.n + 2}
            mult[_edge(endpoint, vertex)] = slack
        else:
            labels[endpoint].add(t.n + 1)
        used = sorted(set().union(*labels.values()))
        rename = {old: i + 1 for i, old in enumerate(used)}
        labels = {v: [rename[x] for x in s] for v, s in labels.items()}
        out.append(LoadedTree(len(used), labels, mult))
    return binomial, out[0], out[1]


def single_edge_cut(t: LoadedTree, e: Edge) -> tuple[LoadedTree, LoadedTree]:
    """Split at a multiplicity-1 edge; each endpoint gains a fresh label.

    Endpoint weights are unchanged, and the absolute value of the input is
    the product of the absolute values of the two outputs.
    """
    e = _edge(*e)
    if t.multiplicity[e] != 1:
        raise NotSingleEdgeError(f"edge {e} has multiplicity {t.multiplicity[e]}")
    _, left, right = _cut(t, e, pendant=False)
    return left, right


def multi_edge_cut(
    t: LoadedTree, e: Edge
) -> tuple[int, LoadedTree | None, LoadedTree | None]:
    """Cut any edge of a proper tree; returns (binomial, side1, side2).

    Each side keeps its vertices and gains a pendant vertex with two fresh
    labels, attached where the cut edge ended, with multiplicity chosen to
    make the side proper.  The value contract is

        value(t) = binomial * value(side1) * value(side2),

    with binomial = C(r-1, |I1|-s1-2) for r the cut edge's multiplicity.
    A degenerate index yields binomial 0 and no side trees: the value of t
    is zero and no proper side trees exist.
    """
    binomial, left, right = _cut(t, _edge(*e), pendant=True)
    return (comb(*binomial) if left is not None else 0), left, right


def _is_star(adj) -> bool:
    return len(adj) >= 3 and any(len(nb) == len(adj) - 1 for nb in adj.values())


def find_star_cut(t: LoadedTree) -> Edge:
    """An edge whose cut produces a star component.

    If the tree already is a star any edge works; otherwise strip all
    leaves and pick an edge joining a degree-1 vertex of the stripped tree
    to its stripped neighbor.  The cut-off component is then that vertex
    together with its leaf neighbors.
    """
    adj = t.adjacency()
    if len(adj) < 3:
        raise StarCutTooSmallError(f"need >= 3 vertices, got {len(adj)}")
    if _is_star(adj):
        return t.edges[0]
    leaves = {v for v, nb in adj.items() if len(nb) == 1}
    stripped = {
        v: [w for w in nb if w not in leaves]
        for v, nb in adj.items()
        if v not in leaves
    }
    u = min(v for v, nb in stripped.items() if len(nb) == 1)
    return _edge(u, stripped[u][0])


def sun_like_value(t: LoadedTree) -> int:
    """Multinomial value of a star whose non-center vertices weigh zero.

    C(k; m_1, ..., m_q) for center weight k and edge weights m_i when the
    tree is proper (k equals the edge weight sum), 0 otherwise.
    """
    adj = t.adjacency()
    if len(adj) < 2:
        raise NotSunLikeError("sun-like trees have at least two vertices")
    weights = {v: _vertex_weight(t, v, adj) for v in adj}
    centers = [v for v, nb in adj.items() if len(nb) == len(adj) - 1]
    center = None
    for v in sorted(centers, key=lambda v: (-weights[v], v)):
        if all(weights[w] == 0 for w in adj if w != v):
            center = v
            break
    if center is None:
        raise NotSunLikeError("no center with all other vertices of weight zero")

    k = weights[center]
    edge_weights = [m - 1 for m in t.multiplicity.values()]
    if k != sum(edge_weights):
        return 0
    value = 1
    remaining = k
    for m in edge_weights:
        value *= comb(remaining, m)
        remaining -= m
    return value


def _next_cut(t: LoadedTree) -> tuple[str, Edge | None]:
    """Stage and edge of the rule that reduces a proper tree with edges.

    The edge is None for a sun-like star, which is scored directly.
    """
    single = next((e for e in t.edges if t.multiplicity[e] == 1), None)
    if single is not None:
        return "single_edge_cut", single
    adj = t.adjacency()
    if len(adj) == 2:
        return "multi_edge_cut", t.edges[0]  # both sides are sun-like
    for v in t.vertices:
        if len(adj[v]) == 1 and _vertex_weight(t, v, adj) > 0:
            return "multi_edge_cut", _edge(v, adj[v][0])
    # all leaves weigh zero from here on
    if _is_star(adj):
        return "sun_like_tree", None
    return "star_cut", find_star_cut(t)


def oracle_eval(t: LoadedTree, *, trace: list | None = None) -> int:
    """Signed value of a proper loaded tree by the cut recursion.

    The work stack holds the side trees still to be reduced; the absolute
    value is the product of every step's factor, and the sign is (-1) to
    the edge weight sum.  Trace records come in pre-order: a tree's own
    record precedes those of its first side, then its second.
    """
    if not t.is_proper:
        raise ValueError(
            f"oracle_eval needs a proper tree: total multiplicity "
            f"{t.total_multiplicity} != n - 3 = {t.n - 3}"
        )
    edge_weight_sum = sum(m - 1 for m in t.multiplicity.values())
    value = -1 if edge_weight_sum % 2 else 1
    stack = [t]
    while stack:
        t = stack.pop()
        if t.total_multiplicity != t.n - 3:
            value = 0
            continue
        if not t.multiplicity:
            continue  # proper and edgeless: exactly three labels, worth 1
        stage, e = _next_cut(t)
        if e is None:
            _record(trace, stage, t)
            value *= sun_like_value(t)
            continue
        pendant = stage != "single_edge_cut"
        binomial, left, right = _cut(t, e, pendant)
        _record(trace, stage, t, binomial)
        if left is None:
            value = 0
        elif pendant and len(t.labels) == 2:
            value *= comb(*binomial) * sun_like_value(left) * sun_like_value(right)
        else:
            value *= comb(*binomial)
            stack += (right, left)
    return value


def _record(trace, stage, t, binomial=None):
    if trace is not None:
        rec = {"stage": stage, "structure": t.to_json()}
        if binomial is not None:
            rec["binomial"] = list(binomial)
        trace.append(rec)
