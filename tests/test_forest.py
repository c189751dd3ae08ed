"""Weighting, redundancy forests, and leaf elimination."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaforest import (
    LoadedTree,
    Monomial,
    RedundancyForest,
    RedundancyTree,
    WeightIdentityError,
    eval_forest,
    eval_loaded_tree,
    eval_monomial,
    eval_redundancy_tree,
    monomial_to_tree,
    parse_monomial,
    prune,
    sign_of,
    to_redundancy,
    to_weighted,
    tree_to_monomial,
)
from deltaforest.trees import _random_proper_tree, _tree_from_pruefer
from conftest import (
    EXAMPLE9_TEXT,
    KEEL_TEXT,
    brute_forest_tree_value,
    example9_tree,
    fixture14_tree,
    path_redundancy,
)


class TestToWeighted:
    def test_nine_label_example(self):
        wt = to_weighted(example9_tree())
        assert sorted(wt.vertex_weight.values()) == [0, 0, 0, 1, 1]
        assert sorted(wt.edge_weight.values()) == [0, 0, 0, 2]

    def test_fixture14_weight_sums(self):
        wt = to_weighted(fixture14_tree())
        assert sorted(wt.vertex_weight.values()) == [0, 1, 1, 1, 4]
        assert sorted(wt.edge_weight.values()) == [0, 1, 2, 4]
        assert sum(wt.edge_weight.values()) == 7
        assert sum(wt.vertex_weight.values()) == 7

    def test_single_vertex(self):
        wt = to_weighted(LoadedTree(3, {0: {1, 2, 3}}, {}))
        assert wt.vertex_weight == {0: 0}
        assert wt.edge_weight == {}

    def test_weight_identity_random(self):
        rng = random.Random(99)
        for _ in range(200):
            t = _random_proper_tree(rng.randint(3, 14), rng)
            wt = to_weighted(t)
            assert sum(wt.vertex_weight.values()) == sum(wt.edge_weight.values())
            assert all(w >= 0 for w in wt.vertex_weight.values())
            assert all(w >= 0 for w in wt.edge_weight.values())


class TestSign:
    def test_fixture14_sign(self):
        assert sign_of(to_weighted(fixture14_tree())) == -1

    def test_nine_label_sign(self):
        assert sign_of(to_weighted(example9_tree())) == 1

    def test_all_zero_edge_weights(self):
        t = monomial_to_tree(parse_monomial("n=5; d(1,2|3,4,5) * d(1,2,3|4,5)"))
        assert sign_of(to_weighted(t)) == 1

    def test_identity_violation_detected(self):
        # improper tree: total multiplicity 2 but n = 6
        t = LoadedTree(6, {0: {1, 2, 3}, 1: {4, 5, 6}}, {(0, 1): 2})
        with pytest.raises(WeightIdentityError):
            sign_of(to_weighted(t))


class TestToRedundancy:
    def test_one_subdivision(self):
        t = LoadedTree(6, {0: {1, 2, 3}, 1: {4, 5, 6}}, {(0, 1): 3})
        rt = to_redundancy(to_weighted(t))
        assert sorted(rt.weight.items()) == [(0, 1), (1, 1), (2, 2)]
        assert rt.edges == {(0, 2), (1, 2)}

    def test_nine_label_example(self):
        rt = to_redundancy(to_weighted(example9_tree()))
        assert sorted(rt.weight.values(), reverse=True) == [2, 1, 1, 0, 0, 0, 0, 0, 0]
        assert len(rt.weight) == 9
        assert len(rt.edges) == 8

    def test_counts_double(self):
        rng = random.Random(44)
        for _ in range(50):
            t = _random_proper_tree(rng.randint(4, 12), rng)
            wt = to_weighted(t)
            rt = to_redundancy(wt)
            assert len(rt.weight) == len(wt.vertex_weight) + len(wt.edge_weight)
            assert len(rt.edges) == 2 * len(wt.edge_weight)


class TestPrune:
    def test_clever_tree_prunes_to_nothing(self):
        t = monomial_to_tree(parse_monomial("n=5; d(1,2|3,4,5) * d(1,2,3|4,5)"))
        rf = prune(to_redundancy(to_weighted(t)))
        assert rf.trees == []

    def test_nine_label_example(self):
        rf = prune(to_redundancy(to_weighted(example9_tree())))
        assert len(rf.trees) == 1
        (tree,) = rf.trees
        assert sorted(tree.weight.values()) == [1, 1, 2]
        assert len(tree.edges) == 2

    def test_fixture14_components(self):
        rf = prune(to_redundancy(to_weighted(fixture14_tree())))
        profiles = sorted(sorted(t.weight.values()) for t in rf.trees)
        assert profiles == [[1, 1], [1, 1, 2, 4, 4]]


class TestEvalRedundancyTree:
    def test_path_1_2_1(self):
        rt = path_redundancy(1, 2, 1)
        assert brute_forest_tree_value(rt.weight, rt.edges) == 2
        assert eval_redundancy_tree(rt) == 2

    def test_path_1_4_4_2_1(self):
        rt = path_redundancy(1, 4, 4, 2, 1)
        assert brute_forest_tree_value(rt.weight, rt.edges) == 32
        assert eval_redundancy_tree(rt) == 32

    def test_leaf_heavier_than_parent(self):
        assert eval_redundancy_tree(path_redundancy(2, 1)) == 0

    def test_single_vertex(self):
        assert eval_redundancy_tree(RedundancyTree({0: 0}, set())) == 1
        assert eval_redundancy_tree(RedundancyTree({0: 3}, set())) == 0

    def test_matches_brute_force_random(self):
        rng = random.Random(4242)
        for _ in range(150):
            n_v = rng.randint(2, 7)
            edges = (
                {(0, 1)}
                if n_v == 2
                else set(
                    _tree_from_pruefer(
                        [rng.randrange(n_v) for _ in range(n_v - 2)], n_v
                    )
                )
            )
            weight = {v: rng.randint(0, 4) for v in range(n_v)}
            rt = RedundancyTree(weight, edges)
            assert eval_redundancy_tree(rt) == brute_forest_tree_value(weight, edges)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_confluence_random_orders(self, seed):
        rng = random.Random(seed)
        n_v = rng.randint(2, 9)
        edges = (
            {(0, 1)}
            if n_v == 2
            else set(
                _tree_from_pruefer([rng.randrange(n_v) for _ in range(n_v - 2)], n_v)
            )
        )
        weight = {v: rng.randint(0, 5) for v in range(n_v)}
        rt = RedundancyTree(weight, edges)
        reference = eval_redundancy_tree(rt)
        for k in range(10):
            assert eval_redundancy_tree(rt, rng=random.Random(k)) == reference


class TestEvalForest:
    def test_null_graph(self):
        assert eval_forest(RedundancyForest([])) == 1

    def test_component_product(self):
        rf = RedundancyForest(
            [path_redundancy(1, 1), path_redundancy(1, 4, 4, 2, 1)]
        )
        assert eval_forest(rf) == 32

    def test_isolated_nonzero_vertex(self):
        rf = RedundancyForest(
            [path_redundancy(1, 1), RedundancyTree({9: 2}, set())]
        )
        assert eval_forest(rf) == 0


class TestEvalMonomial:
    def test_keel_zero(self):
        assert eval_monomial(parse_monomial(KEEL_TEXT)) == 0

    def test_nine_label_example(self):
        assert eval_monomial(parse_monomial(EXAMPLE9_TEXT)) == 2

    def test_fixture14_tree_value(self):
        assert eval_loaded_tree(fixture14_tree()) == -32

    def test_empty_monomial(self):
        assert eval_monomial(Monomial(3)) == 1

    def test_degree_mismatch_zero(self):
        assert eval_monomial(parse_monomial("n=6; d(1,2|3,4,5,6)")) == 0

    def test_improper_tree_zero(self):
        t = LoadedTree(6, {0: {1, 2, 3}, 1: {4, 5, 6}}, {(0, 1): 2})
        assert eval_loaded_tree(t) == 0

    def test_trace_records_stages(self):
        trace = []
        value = eval_monomial(parse_monomial(EXAMPLE9_TEXT), trace=trace)
        assert value == 2
        stages = [r["stage"] for r in trace]
        assert stages[:4] == [
            "loaded_tree",
            "weighted_tree",
            "redundancy_tree",
            "redundancy_forest",
        ]
        eliminations = [r for r in trace if r["stage"] == "eliminate_leaf"]
        assert len(eliminations) == 2
        assert all("structure" in r for r in trace)
        tops = [r["binomial"] for r in eliminations]
        assert sorted(tops) == [[1, 1], [2, 1]]


class TestLaws:
    def test_sign_law(self):
        rng = random.Random(909)
        checked = 0
        for _ in range(300):
            t = _random_proper_tree(rng.randint(3, 12), rng)
            value = eval_loaded_tree(t)
            if value == 0:
                continue
            edge_weight_sum = sum(m - 1 for m in t.multiplicity.values())
            expected = -1 if edge_weight_sum % 2 else 1
            assert (value > 0) == (expected > 0)
            checked += 1
        assert checked > 50

    def test_clever_is_one(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(400):
            t = _random_proper_tree(rng.randint(3, 10), rng)
            if any(m != 1 for m in t.multiplicity.values()):
                continue
            wt = to_weighted(t)
            if any(wt.vertex_weight.values()):
                continue
            assert eval_loaded_tree(t) == 1
            checked += 1
        assert checked > 20

    def test_matches_tree_to_monomial_route(self):
        rng = random.Random(3333)
        for _ in range(150):
            t = _random_proper_tree(rng.randint(3, 12), rng)
            assert eval_loaded_tree(t) == eval_monomial(tree_to_monomial(t))

    def test_single_generator_power_closed_form(self):
        # independent anchor: restricting the generator to its own divisor
        # (a product of two smaller moduli spaces) turns d(I|J)^(n-3) into
        # a power of cotangent classes, giving (-1)^(n-4) * C(n-4, |I|-2)
        from math import comb

        for n in range(5, 13):
            for i_size in range(2, n - 1):
                t = LoadedTree(
                    n,
                    {
                        0: set(range(1, i_size + 1)),
                        1: set(range(i_size + 1, n + 1)),
                    },
                    {(0, 1): n - 3},
                )
                assert eval_loaded_tree(t) == (-1) ** (n - 4) * comb(
                    n - 4, i_size - 2
                )
