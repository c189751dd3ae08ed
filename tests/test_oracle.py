"""Cut recursion: cuts, star cuts, sun-like values, and cross-validation."""
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaforest import (
    LoadedTree,
    NotSingleEdgeError,
    NotSunLikeError,
    StarCutTooSmallError,
    eval_loaded_tree,
    eval_monomial,
    find_star_cut,
    monomial_to_tree,
    multi_edge_cut,
    oracle_eval,
    parse_monomial,
    single_edge_cut,
    sun_like_value,
    to_weighted,
    tree_to_monomial,
    validate,
)
from deltaforest.oracle import _cut
from deltaforest.trees import _edge, _random_proper_tree, _tree_from_pruefer
from conftest import EXAMPLE9_TEXT, child_env, fixture14_tree


def _double_path(k: int) -> LoadedTree:
    """k vertices of two labels each, one more on vertex 0, every
    multiplicity 2."""
    labels = {v: {2 * v + 1, 2 * v + 2} for v in range(k)}
    labels[0].add(2 * k + 1)
    return LoadedTree(2 * k + 1, labels, {(v, v + 1): 2 for v in range(k - 1)})


def _copying_oracle(t: LoadedTree, trace: list) -> int:
    """The cut recursion on ``LoadedTree`` copies: every side is a new tree
    and every rule scans the whole tree.  ``oracle_eval`` must choose the
    same cuts in the same order and so write the same trace."""
    value = -1 if sum(m - 1 for m in t.multiplicity.values()) % 2 else 1
    stack = [t]
    while stack:
        t = stack.pop()
        if not t.is_proper:
            value = 0
            continue
        if not t.multiplicity:
            continue
        adj = t.adjacency()
        single = next((e for e in t.edges if t.multiplicity[e] == 1), None)
        heavy = [v for v in t.vertices if len(adj[v]) == 1 and len(t.labels[v]) >= 3]
        if single is not None:
            stage, e = "single_edge_cut", single
        elif len(adj) == 2:
            stage, e = "multi_edge_cut", t.edges[0]
        elif heavy:
            stage, e = "multi_edge_cut", _edge(heavy[0], adj[heavy[0]][0])
        elif any(len(nb) == len(adj) - 1 for nb in adj.values()):
            stage, e = "sun_like_tree", None
        else:
            stage, e = "star_cut", find_star_cut(t)
        trace.append({"stage": stage, "vertices": len(adj), "labels": t.n})
        if e is None:
            value *= sun_like_value(t)
            continue
        binomial, left, right = _cut(t, e, pendant=stage != "single_edge_cut")
        trace[-1]["binomial"] = list(binomial)
        if left is None:
            value = 0
        elif stage != "single_edge_cut" and len(adj) == 2:
            value *= comb(*binomial) * sun_like_value(left) * sun_like_value(right)
        else:
            value *= comb(*binomial)
            stack += (right, left)
    return value


def _check(t: LoadedTree):
    """oracle_eval agrees with the forest, and with the copying recursion
    cut for cut."""
    trace, expected = [], []
    assert oracle_eval(t, trace=trace) == _copying_oracle(t, expected) == eval_loaded_tree(t)
    assert trace == expected


@st.composite
def _loaded(draw, edges: list, mins: list, label_vertex=None) -> LoadedTree:
    """A proper loaded tree on ``edges`` over vertices 0..len(edges).

    Every vertex starts with the labels its degree requires, edge i with
    multiplicity 1, and a vertex of degree d > 3 adds d - 3 to its first
    edge.  Edge i then takes mins[i] - 1 plus up to two more units, each
    one multiplicity on the edge and one label on one of its ends, which
    keeps the value nonzero, or else on a vertex drawn from
    ``label_vertex``; by default, on any vertex in half the trees.
    """
    n_vertices = len(edges) + 1
    deg = [0] * n_vertices
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    count = [max(0, 3 - d) for d in deg]
    mult = [1] * len(edges)
    for v, d in enumerate(deg):
        if d > 3:
            mult[next(i for i, e in enumerate(edges) if v in e)] += d - 3
    if label_vertex is None and draw(st.booleans()):
        label_vertex = st.integers(0, n_vertices - 1)
    for i, e in enumerate(edges):
        for _ in range(mins[i] - 1 + draw(st.integers(0, 2))):
            mult[i] += 1
            end = st.sampled_from(e)
            count[draw(end if label_vertex is None else end | label_vertex)] += 1
    labels, at = {}, 1
    for v, c in enumerate(count):
        labels[v] = range(at, at + c)
        at += c
    t = LoadedTree(at - 1, labels, dict(zip(edges, mult)))
    assert t.is_proper and validate(t) == []
    return t


class TestSingleEdgeCut:
    def test_path_cut(self):
        # {1,2} -[1]- {3} -[1]- {4,5}
        t = LoadedTree(
            5,
            {0: {1, 2}, 1: {3}, 2: {4, 5}},
            {(0, 1): 1, (1, 2): 1},
        )
        left, right = single_edge_cut(t, (0, 1))
        assert validate(left) == [] and validate(right) == []
        # left side collapses to a single 3-label vertex
        assert left.labels == {0: frozenset({1, 2, 3})}
        assert left.n == 3
        # right side keeps its edge, fresh label lands on the cut endpoint
        assert right.n == 4
        assert right.multiplicity == {(1, 2): 1}
        assert len(right.labels[1]) == 2  # {3} plus the fresh label

    def test_value_product(self):
        t = monomial_to_tree(parse_monomial("n=5; d(1,2|3,4,5) * d(1,2,3|4,5)"))
        for e in t.edges:
            left, right = single_edge_cut(t, e)
            assert abs(eval_loaded_tree(t)) == abs(eval_loaded_tree(left)) * abs(
                eval_loaded_tree(right)
            )

    def test_rejects_multiplicity_above_one(self):
        t = LoadedTree(6, {0: {1, 2, 3}, 1: {4, 5, 6}}, {(0, 1): 2})
        with pytest.raises(NotSingleEdgeError):
            single_edge_cut(t, (0, 1))

    def test_endpoint_weights_unchanged(self):
        rng = random.Random(5)
        for _ in range(100):
            t = _random_proper_tree(rng.randint(4, 12), rng)
            singles = [e for e in t.edges if t.multiplicity[e] == 1]
            if not singles:
                continue
            e = singles[rng.randrange(len(singles))]
            wt = to_weighted(t)
            for side in single_edge_cut(t, e):
                assert validate(side) == []
                side_wt = to_weighted(side)
                # endpoint ids are preserved, so weights can be compared
                for v, w in side_wt.vertex_weight.items():
                    assert wt.vertex_weight[v] == w


class TestMultiEdgeCut:
    def test_nine_label_triple_edge(self):
        t = monomial_to_tree(parse_monomial(EXAMPLE9_TEXT))
        e = next(e for e in t.edges if t.multiplicity[e] == 3)
        binomial, left, right = multi_edge_cut(t, e)
        # r = 3, labels on the small side 3, no inner edges there
        assert binomial == comb(2, 1) == 2
        small, big = sorted((left, right), key=lambda s: s.n)
        assert small.n == 5
        assert sorted(len(s) for s in small.labels.values()) == [2, 3]
        assert list(small.multiplicity.values()) == [2]
        assert big.n == 8
        assert validate(small) == [] and validate(big) == []
        assert (
            eval_loaded_tree(t)
            == binomial * eval_loaded_tree(left) * eval_loaded_tree(right)
        )

    def test_two_vertex_binomial(self):
        t = LoadedTree(
            10,
            {0: {1, 2, 3, 4}, 1: {5, 6, 7, 8, 9, 10}},
            {(0, 1): 7},
        )
        binomial, left, right = multi_edge_cut(t, (0, 1))
        assert binomial == comb(6, 2)
        assert left is not None and right is not None
        assert eval_loaded_tree(t) == binomial * eval_loaded_tree(
            left
        ) * eval_loaded_tree(right)

    def test_out_of_range_binomial(self):
        # heavy single-vertex side across an r = 1 edge: index 2 > r-1 = 0
        t = LoadedTree(
            8,
            {0: {1, 2, 3, 4}, 1: {5, 6}, 2: {7, 8}},
            {(0, 1): 1, (1, 2): 4},
        )
        assert t.is_proper
        binomial, left, right = multi_edge_cut(t, (0, 1))
        assert binomial == 0 and left is None and right is None
        assert eval_loaded_tree(t) == 0

    def test_multiplicity_one_consistency(self):
        # r = 1 cut has binomial 1 iff both sides stay proper; the signed
        # contract then matches the single-edge product
        rng = random.Random(6)
        checked = 0
        for _ in range(200):
            t = _random_proper_tree(rng.randint(4, 12), rng)
            singles = [e for e in t.edges if t.multiplicity[e] == 1]
            if not singles:
                continue
            e = singles[rng.randrange(len(singles))]
            binomial, left, right = multi_edge_cut(t, e)
            assert binomial in (0, 1)
            lhs = eval_loaded_tree(t)
            if binomial == 0:
                assert lhs == 0
            else:
                assert lhs == eval_loaded_tree(left) * eval_loaded_tree(right)
            checked += 1
        assert checked > 100

    def test_contract_on_every_edge(self):
        rng = random.Random(7)
        for _ in range(300):
            t = _random_proper_tree(rng.randint(4, 12), rng)
            for e in t.edges:
                binomial, left, right = multi_edge_cut(t, e)
                rhs = (
                    binomial * eval_loaded_tree(left) * eval_loaded_tree(right)
                    if binomial
                    else 0
                )
                assert eval_loaded_tree(t) == rhs


class TestFindStarCut:
    def test_star_returns_any_edge(self):
        t = LoadedTree(
            8,
            {0: frozenset(), 1: {1, 2}, 2: {3, 4}, 3: {5, 6, 7, 8}},
            {(0, 1): 1, (0, 2): 1, (0, 3): 3},
        )
        assert find_star_cut(t) in t.multiplicity

    def test_four_vertex_path(self):
        t = LoadedTree(
            10,
            {0: {1, 2}, 1: {3, 4}, 2: {5, 6}, 3: {7, 8, 9, 10}},
            {(0, 1): 1, (1, 2): 1, (2, 3): 1},
        )
        assert find_star_cut(t) == (1, 2)

    def test_too_small(self):
        t = LoadedTree(6, {0: {1, 2, 3}, 1: {4, 5, 6}}, {(0, 1): 3})
        with pytest.raises(StarCutTooSmallError):
            find_star_cut(t)

    def test_cut_component_is_a_star(self):
        # one side of the cut, plus the pendant the cut attaches to its
        # endpoint, must form a star centered at that endpoint
        from deltaforest.oracle import _split_vertices

        rng = random.Random(11)
        checked = 0
        for _ in range(200):
            t = _random_proper_tree(rng.randint(5, 14), rng)
            if len(t.labels) < 3:
                continue
            e = find_star_cut(t)
            adj = t.adjacency()
            sides = _split_vertices(t, e)
            star_side = any(
                len(side) >= 2 and all(v == end or v in adj[end] for v in side)
                for end, side in zip(e, sides)
            )
            assert star_side, (t, e)
            checked += 1
        assert checked > 100


class TestSunLikeValue:
    def test_clever_star(self):
        t = LoadedTree(
            6,
            {0: frozenset(), 1: {1, 2}, 2: {3, 4}, 3: {5, 6}},
            {(0, 1): 1, (0, 2): 1, (0, 3): 1},
        )
        assert sun_like_value(t) == 1

    def test_two_vertex_tree(self):
        # center weight w, single edge weight w: value C(w, w) = 1
        for w in (1, 2, 3):
            t = LoadedTree(
                w + 4,
                {0: set(range(1, w + 3)), 1: set(range(w + 3, w + 5))},
                {(0, 1): w + 1},
            )
            assert t.is_proper
            assert sun_like_value(t) == 1

    def test_multinomial(self):
        # center weight 3, edge weights 2 and 1
        t = LoadedTree(
            8, {0: {1, 2, 3, 4}, 1: {5, 6}, 2: {7, 8}}, {(0, 1): 3, (0, 2): 2}
        )
        assert t.is_proper
        assert sun_like_value(t) == 3
        assert abs(eval_loaded_tree(t)) == 3

    def test_improper_star_is_zero(self):
        t = LoadedTree(
            8, {0: {1, 2, 3, 4}, 1: {5, 6}, 2: {7, 8}}, {(0, 1): 2, (0, 2): 2}
        )
        assert not t.is_proper
        assert sun_like_value(t) == 0

    def test_heavy_leaf_rejected(self):
        t = LoadedTree(
            9, {0: {1, 2, 3, 4}, 1: {5, 6, 7}, 2: {8, 9}}, {(0, 1): 3, (0, 2): 3}
        )
        with pytest.raises(NotSunLikeError):
            sun_like_value(t)

    def test_matches_forest_on_random_stars(self):
        rng = random.Random(21)
        for _ in range(100):
            q = rng.randint(2, 5)
            mults = [rng.randint(1, 4) for _ in range(q)]
            center_labels = sum(mults) - q + 3 - q
            if center_labels < 0:
                continue
            sizes = [center_labels] + [2] * q
            labels = {}
            at = 1
            for v, size in enumerate(sizes):
                labels[v] = set(range(at, at + size))
                at += size
            t = LoadedTree(
                at - 1, labels, {(0, v): m for v, m in enumerate(mults, start=1)}
            )
            if validate(t) or not t.is_proper:
                continue
            assert sun_like_value(t) == abs(eval_loaded_tree(t))


class TestOracleEval:
    def test_nine_label_example(self):
        assert oracle_eval(monomial_to_tree(parse_monomial(EXAMPLE9_TEXT))) == 2

    def test_fixture14(self):
        assert oracle_eval(fixture14_tree()) == -32

    def test_clever_tree(self):
        t = monomial_to_tree(parse_monomial("n=5; d(1,2|3,4,5) * d(1,2,3|4,5)"))
        assert oracle_eval(t) == 1

    def test_single_vertex(self):
        assert oracle_eval(LoadedTree(3, {0: {1, 2, 3}}, {})) == 1

    def test_requires_proper(self):
        t = LoadedTree(6, {0: {1, 2, 3}, 1: {4, 5, 6}}, {(0, 1): 2})
        with pytest.raises(ValueError):
            oracle_eval(t)

    def test_differential_random(self):
        rng = random.Random(314159)
        for _ in range(1500):
            t = _random_proper_tree(rng.randint(3, 12), rng)
            assert oracle_eval(t) == eval_loaded_tree(t)

    def test_differential_via_monomial(self):
        rng = random.Random(2718)
        for _ in range(300):
            t = _random_proper_tree(rng.randint(3, 12), rng)
            assert oracle_eval(t) == eval_monomial(tree_to_monomial(t))

    @pytest.mark.parametrize("n", [5, 6])
    def test_exhaustive_small_ambient(self, n):
        # every monomial of top degree, multiplicities included, both routes
        import itertools

        from deltaforest import Classification, Monomial, classify
        from conftest import all_cuts

        cuts = all_cuts(n)
        checked = 0
        for combo in itertools.combinations_with_replacement(cuts, n - 3):
            m = Monomial(n, [(c, 1) for c in combo])
            value = eval_monomial(m)
            if classify(m) is Classification.ZERO_BY_KEEL:
                assert value == 0
                continue
            assert value == oracle_eval(monomial_to_tree(m))
            checked += 1
        # most combinations cross; the tree route still gets real coverage
        assert checked >= 25

    def test_trace_stages(self):
        trace = []
        value = oracle_eval(fixture14_tree(), trace=trace)
        assert value == -32
        # pre-order: each tree's record, then its first side's, then its second's
        assert [(r["stage"], r.get("binomial")) for r in trace] == [
            ("single_edge_cut", [0, 0]),
            ("multi_edge_cut", [4, 1]),
            ("multi_edge_cut", [1, 1]),
            ("multi_edge_cut", [2, 1]),
            ("sun_like_tree", None),
            ("multi_edge_cut", [1, 1]),
            ("multi_edge_cut", [1, 1]),
        ]
        # constant-size records: the counts of the tree each step reduces
        assert all(set(r) <= {"stage", "binomial", "vertices", "labels"} for r in trace)
        assert [(r["vertices"], r["labels"]) for r in trace] == [
            (5, 14),
            (3, 11),
            (2, 5),
            (3, 10),
            (3, 9),
            (2, 5),
            (2, 5),
        ]

    def test_same_cuts_as_the_copying_recursion(self):
        rng = random.Random(20261018)
        for _ in range(500):
            _check(_random_proper_tree(rng.randint(3, 16), rng))

    # Shapes that _random_proper_tree rarely draws, at most 60 vertices.
    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(2, 60))
    def test_differential_heavy_paths(self, data, n_vertices):
        edges = [(v, v + 1) for v in range(n_vertices - 1)]
        _check(data.draw(_loaded(edges, [2] * len(edges))))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(2, 40))
    def test_differential_stars_with_heavy_centre(self, data, leaves):
        edges = [(0, v) for v in range(1, leaves + 1)]
        mins = data.draw(st.lists(st.integers(1, 3), min_size=leaves, max_size=leaves))
        _check(data.draw(_loaded(edges, mins, label_vertex=st.just(0))))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.lists(st.integers(1, 3), min_size=1, max_size=20))
    def test_differential_caterpillars_with_doubled_pendants(self, data, pendants):
        spine = len(pendants)
        edges = [(v, v + 1) for v in range(spine - 1)]
        for v, k in enumerate(pendants):
            edges += [(v, len(edges) + 1 + j) for j in range(k)]
        mins = [1] * (spine - 1) + [2] * sum(pendants)
        _check(data.draw(_loaded(edges, mins)))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(3, 60))
    def test_differential_random_topologies_heavy_multiplicities(self, data, n_vertices):
        k = n_vertices - 2
        seq = data.draw(st.lists(st.integers(0, n_vertices - 1), min_size=k, max_size=k))
        edges = _tree_from_pruefer(seq, n_vertices)
        _check(data.draw(_loaded(edges, [2] * len(edges))))

    def test_trace_is_linear_in_the_tree(self):
        import json

        trace = []
        t = _double_path(2000)
        assert oracle_eval(t, trace=trace) == eval_loaded_tree(t)
        assert len(json.dumps(trace)) < 1_000_000

    def test_long_path_in_linear_time(self):
        # one cut per edge on 20000 vertices: about a second when each cut
        # costs its smaller side, far beyond the timeout when it costs the tree
        import subprocess
        import sys

        script = """
from deltaforest import LoadedTree, eval_loaded_tree, oracle_eval
k = 20000
labels = {v: {2 * v + 1, 2 * v + 2} for v in range(k)}
labels[0].add(2 * k + 1)
t = LoadedTree(2 * k + 1, labels, {(v, v + 1): 2 for v in range(k - 1)})
value = eval_loaded_tree(t)
assert oracle_eval(t) == value != 0
"""
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_deep_path_under_small_recursion_limit(self):
        # one cut per edge: a recursive oracle would need ~200 frames
        import os
        import subprocess
        import sys
        from pathlib import Path

        import deltaforest

        script = """
import sys
from deltaforest import LoadedTree, cli, eval_loaded_tree, oracle_eval
from deltaforest import render_monomial, tree_to_monomial
sys.setrecursionlimit(120)
k = 200
labels = {v: {2 * v + 1, 2 * v + 2} for v in range(k)}
labels[0].add(2 * k + 1)
t = LoadedTree(2 * k + 1, labels, {(v, v + 1): 2 for v in range(k - 1)})
assert t.is_proper
value = eval_loaded_tree(t)
assert oracle_eval(t) == value != 0
print(value)
sys.exit(cli.main(["oracle", "--plain", render_monomial(tree_to_monomial(t))]))
"""
        src = str(Path(deltaforest.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        forest_value, cli_value = done.stdout.split()
        assert cli_value == forest_value
