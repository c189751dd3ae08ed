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
and the value is zero.

``single_edge_cut`` and ``multi_edge_cut`` build their sides as new
``LoadedTree``s.  ``oracle_eval`` instead reads only label counts and
multiplicities, so it builds one count-only forest from its input and
cuts it in place: per vertex a neighbour -> multiplicity map and a label
count, per component its vertex set, its totals and lazy heaps that give
each rule's candidate in the order the rules ask for.  A cut walks both
sides one edge at a time in turn until the smaller is exhausted, moves
that side to a new component and finds the other's totals by
subtraction, so each cut costs the smaller side, not the tree.  It pops
one component at a time from an explicit stack and pushes the sides, so
depth costs no interpreter frames.  Pendant vertices take ids above
every id in use, which keeps the order of the ids in each component, and
so the cuts, those of the ``LoadedTree`` cuts.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
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





class _Component:
    """One tree of the forest: its vertices, its label and multiplicity
    totals, and lazy heaps of the candidates for the first three cut rules
    (multiplicity-1 edges, leaves of positive weight, star-cut centers)."""

    __slots__ = ("vertices", "labels", "mult", "singles", "leaves", "stars")

    def __init__(self, vertices: set, labels: int, mult: int):
        self.vertices, self.labels, self.mult = vertices, labels, mult
        self.singles, self.leaves, self.stars = [], [], []


def _top(heap: list, valid):
    """The smallest entry of a lazy heap that is still valid, or None."""
    while heap and not valid(heap[0]):
        heappop(heap)
    return heap[0] if heap else None


class _Forest:
    """Count-only forest that ``oracle_eval`` cuts in place.

    Per vertex it keeps a neighbour -> multiplicity map, a label count and
    the number of neighbours of degree >= 2.  Heap entries are checked when
    they reach the top, so a vertex is pushed again whenever it may have
    become a candidate, and stale entries are dropped on the way.
    """

    def __init__(self, t: LoadedTree):
        self.nbr = {v: {} for v in t.labels}
        for (u, v), m in t.multiplicity.items():
            self.nbr[u][v] = self.nbr[v][u] = m
        self.count = {v: len(s) for v, s in t.labels.items()}
        self.big = {v: sum(len(self.nbr[w]) >= 2 for w in nb) for v, nb in self.nbr.items()}
        self.fresh = max(t.labels, default=-1) + 1  # pendant ids, above every id in use

    def component(self, vertices: set, labels: int, mult: int) -> _Component:
        """A component of the given vertices and totals, its heaps filled."""
        c = _Component(vertices, labels, mult)
        for v in vertices:
            self.push(c, v)
            c.singles += ((v, w) for w, m in self.nbr[v].items() if m == 1 and v < w)
        heapify(c.singles)
        return c

    def heavy_leaf(self, v: int) -> bool:
        return len(self.nbr[v]) == 1 and self.count[v] >= 3

    def star_center(self, v: int) -> bool:
        """Whether cutting v off its one neighbour of degree >= 2 leaves a
        star: v and its leaves."""
        return len(self.nbr[v]) >= 2 and self.big[v] == 1

    def push(self, c: _Component, v: int):
        """Queue v in c's heaps for the rules whose condition it meets."""
        if self.heavy_leaf(v):
            heappush(c.leaves, v)
        elif self.star_center(v):
            heappush(c.stars, v)

    def next_cut(self, c: _Component) -> tuple[str, Edge | None]:
        """Stage and edge of the rule that reduces c, a proper tree with
        edges; the edge is None for a sun-like star, which is scored
        directly."""
        nbr, inside = self.nbr, c.vertices
        single = _top(c.singles, lambda e: e[0] in inside and nbr[e[0]].get(e[1]) == 1)
        if single is not None:
            return "single_edge_cut", single
        if len(inside) == 2:
            return "multi_edge_cut", tuple(sorted(inside))  # both sides are sun-like
        leaf = _top(c.leaves, lambda v: v in inside and self.heavy_leaf(v))
        if leaf is not None:
            return "multi_edge_cut", _edge(leaf, *nbr[leaf])
        # all leaves weigh zero from here on, and only a star has no center
        center = _top(c.stars, lambda v: v in inside and self.star_center(v))
        if center is None:
            return "sun_like_tree", None
        return "star_cut", _edge(center, next(w for w in nbr[center] if len(nbr[w]) >= 2))

    def sun_like_value(self, c: _Component) -> int:
        """Multinomial of the center weight over the edge weights of a star
        whose leaves weigh zero; in a proper star the two sums agree."""
        value, total = 1, 0
        for v in c.vertices:
            if len(self.nbr[v]) == 1:
                (m,) = self.nbr[v].values()
                total += m - 1
                value *= comb(total, m - 1)
        return value

    def _smaller_side(self, a: int, b: int) -> tuple[set, bool]:
        """The vertex set of the side of the removed edge (a, b) that a walk
        of both sides, one edge of each in turn, exhausts first, and
        whether it is a's side."""
        nbr = self.nbr
        walks = [({a}, [iter(nbr[a])]), ({b}, [iter(nbr[b])])]
        while True:
            for seen, stack in walks:
                for w in stack[-1]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(iter(nbr[w]))
                    break
                else:
                    stack.pop()
                    if not stack:
                        return seen, a in seen

    def cut(self, c: _Component, a: int, b: int, pendant: bool):
        """Cut c at the edge (a, b), a < b, as ``_cut`` does: ((top, bottom),
        sides), a's component first.

        ``sides`` is empty when bottom is out of range, and when c has two
        vertices, whose sides are sun-like and worth 1.  The smaller side
        moves to a new component; the other keeps c, with its totals
        found by subtraction.
        """
        nbr, count, big = self.nbr, self.count, self.big
        r = nbr[a][b]
        if pendant and len(c.vertices) == 2:
            return (r - 1, count[a] - 2), ()
        del nbr[a][b], nbr[b][a]
        small, small_is_a = self._smaller_side(a, b)
        moved = (sum(count[v] for v in small), sum(sum(nbr[v].values()) for v in small) // 2)
        kept = (c.labels - moved[0], c.mult - r - moved[1])
        totals = (moved, kept) if small_is_a else (kept, moved)
        # the pendant multiplicity |Ii|-si-1 that makes each side proper
        slack = [labels - mult - 1 for labels, mult in totals]
        binomial = (r - 1, slack[0] - 1) if pendant else (0, 0)
        if not 0 <= binomial[1] <= binomial[0]:
            return binomial, ()

        c.vertices -= small
        degree = (len(nbr[a]) + 1, len(nbr[b]) + 1)
        sides = []
        for i, u in enumerate((a, b)):
            vertices = small if (i == 0) == small_is_a else c.vertices
            labels, mult = totals[i]
            big[u] -= degree[1 - i] >= 2
            touched = [u]
            if pendant:
                p = self.fresh
                self.fresh += 1
                nbr[u][p] = slack[i]
                nbr[p] = {u: slack[i]}
                count[p] = 2
                big[p] = int(degree[i] >= 2)
                vertices.add(p)
                labels, mult = labels + 2, mult + slack[i]
            else:
                count[u] += 1
                labels += 1
                if degree[i] == 2:  # u became a leaf
                    (x,) = nbr[u]
                    big[x] -= 1
                    touched.append(x)
            if vertices is small:
                sides.append(self.component(small, labels, mult))
                continue
            c.labels, c.mult = labels, mult
            for v in touched:
                self.push(c, v)
            if pendant and slack[i] == 1:
                heappush(c.singles, (u, p))
            sides.append(c)
        return binomial, sides


def oracle_eval(t: LoadedTree, *, trace: list | None = None) -> int:
    """Signed value of a proper loaded tree by the cut recursion.

    The work stack holds the components still to be reduced; the absolute
    value is the product of every step's factor, and the sign is (-1) to
    the edge weight sum.  Trace records come in pre-order: a tree's own
    record precedes those of its first side, then its second.  Each is
    ``{"stage", "vertices", "labels", "binomial"}``, with the counts of
    the tree reduced and the binomial's (top, bottom) on cuts only.
    """
    if not t.is_proper:
        raise ValueError(
            f"oracle_eval needs a proper tree: total multiplicity "
            f"{t.total_multiplicity} != n - 3 = {t.n - 3}"
        )
    edge_weight_sum = sum(m - 1 for m in t.multiplicity.values())
    value = -1 if edge_weight_sum % 2 else 1
    forest = _Forest(t)
    stack = [forest.component(set(t.labels), t.n, t.total_multiplicity)]
    while stack:
        c = stack.pop()
        if c.mult != c.labels - 3:
            value = 0
            continue
        if len(c.vertices) < 2:
            continue  # proper and edgeless: exactly three labels, worth 1
        stage, e = forest.next_cut(c)
        if trace is not None:
            trace.append({"stage": stage, "vertices": len(c.vertices), "labels": c.labels})
        if e is None:
            value *= forest.sun_like_value(c)
            continue
        binomial, sides = forest.cut(c, *e, pendant=stage != "single_edge_cut")
        if trace is not None:
            trace[-1]["binomial"] = list(binomial)
        if 0 <= binomial[1] <= binomial[0]:
            value *= comb(*binomial)
            stack += reversed(sides)
        else:
            value = 0
    return value
