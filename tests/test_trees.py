"""The monomial <-> loaded tree correspondence."""
import random

import pytest

from deltaforest import (
    CrossingFactorsError,
    Cut,
    EmptyNonTrivialError,
    LoadedTree,
    Monomial,
    canonical_form,
    isomorphic,
    monomial_to_tree,
    parse_monomial,
    random_proper_tree,
    render_monomial,
    tree_to_monomial,
    validate,
)
from deltaforest.trees import _random_proper_tree
from conftest import EXAMPLE9_TEXT, KEEL_TEXT, example9_tree


class TestMonomialToTree:
    def test_nine_label_example(self):
        t = monomial_to_tree(parse_monomial(EXAMPLE9_TEXT))
        assert not validate(t)
        assert isomorphic(t, example9_tree())
        label_sets = sorted(tuple(sorted(s)) for s in t.labels.values())
        assert label_sets == [(), (1, 2, 3), (4, 5), (6, 7), (8, 9)]
        assert sorted(t.multiplicity.values()) == [1, 1, 1, 3]

    def test_two_cut_path(self):
        t = monomial_to_tree(parse_monomial("n=5; d(1,2|3,4,5) * d(1,2,3|4,5)"))
        assert not validate(t)
        assert sorted(tuple(sorted(s)) for s in t.labels.values()) == [
            (1, 2),
            (3,),
            (4, 5),
        ]
        assert set(t.multiplicity.values()) == {1}
        degrees = sorted(t.degree(v) for v in t.vertices)
        assert degrees == [1, 1, 2]  # a path

    def test_empty_monomial(self):
        t = monomial_to_tree(Monomial(3))
        assert t.labels == {0: frozenset({1, 2, 3})}
        assert t.multiplicity == {}

    def test_empty_monomial_wrong_n(self):
        with pytest.raises(EmptyNonTrivialError):
            monomial_to_tree(Monomial(5))

    def test_crossing_factors_rejected(self):
        with pytest.raises(CrossingFactorsError):
            monomial_to_tree(parse_monomial(KEEL_TEXT))

    def test_reference_label_independence(self):
        # moving label 1 elsewhere changes which side of each cut is
        # oriented away from it, but not the tree
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(4, 9)
            m = tree_to_monomial(_random_proper_tree(n, rng))
            t = monomial_to_tree(m)
            images = rng.sample(range(1, n + 1), n)
            if images[0] == 1:
                images[0], images[1] = images[1], images[0]
            perm = dict(zip(range(1, n + 1), images))
            moved = LoadedTree(
                n,
                {v: {perm[x] for x in s} for v, s in t.labels.items()},
                t.multiplicity,
            )
            permuted = Monomial(
                n,
                [
                    (Cut.from_part({perm[x] for x in c.second}, n), e)
                    for c, e in m.factors.items()
                ],
            )
            assert isomorphic(monomial_to_tree(permuted), moved)

    def test_factor_order_does_not_change_vertex_ids(self):
        rng = random.Random(5)
        for _ in range(60):
            text = render_monomial(
                tree_to_monomial(_random_proper_tree(rng.randint(4, 12), rng))
            )
            head, body = text.split("; ")
            factors = body.split(" * ")
            rng.shuffle(factors)
            shuffled = parse_monomial(f"{head}; {' * '.join(factors)}")
            assert monomial_to_tree(shuffled) == monomial_to_tree(parse_monomial(text))

    def test_edge_count_and_multiplicity_sum(self):
        rng = random.Random(77)
        for _ in range(100):
            t0 = _random_proper_tree(rng.randint(4, 12), rng)
            m = tree_to_monomial(t0)
            t = monomial_to_tree(m)
            assert len(t.multiplicity) == len(m.factors)
            assert t.total_multiplicity == m.degree

    def test_below_top_degree_monomial_still_builds(self):
        # degree < n-3 is fine for construction; evaluation handles the zero
        m = parse_monomial("n=6; d(1,2|3,4,5,6)")
        t = monomial_to_tree(m)
        assert not validate(t)
        assert tree_to_monomial(t) == m


class TestTreeToMonomial:
    def test_star_with_double_edge(self):
        # three leaves around an unlabeled center; one edge doubled
        t = LoadedTree(
            6,
            {0: {1, 2}, 1: {3, 4}, 2: {5, 6}, 3: frozenset()},
            {(0, 3): 1, (1, 3): 1, (2, 3): 2},
        )
        assert not validate(t)
        m = tree_to_monomial(t)
        assert m.factors == {
            Cut.from_part({1, 2}, 6): 1,
            Cut.from_part({3, 4}, 6): 1,
            Cut.from_part({5, 6}, 6): 2,
        }

    def test_single_vertex(self):
        assert tree_to_monomial(LoadedTree(3, {0: {1, 2, 3}}, {})) == Monomial(3)

    def test_edgeless_wrong_n(self):
        with pytest.raises(EmptyNonTrivialError):
            tree_to_monomial(LoadedTree(4, {0: {1, 2, 3, 4}}, {}))

    def test_round_trip_from_example(self):
        m = parse_monomial(EXAMPLE9_TEXT)
        assert tree_to_monomial(monomial_to_tree(m)) == m


class TestBijection:
    def test_both_directions_random(self):
        rng = random.Random(2024)
        for _ in range(300):
            t = _random_proper_tree(rng.randint(3, 12), rng)
            if not t.multiplicity:
                continue
            m = tree_to_monomial(t)
            assert isomorphic(monomial_to_tree(m), t)
            assert tree_to_monomial(monomial_to_tree(m)) == m

    def test_isomorphic_ignores_vertex_ids(self):
        a = example9_tree()
        shift = {v: v + 10 for v in a.labels}
        b = LoadedTree(
            9,
            {shift[v]: s for v, s in a.labels.items()},
            {(shift[u], shift[v]): m for (u, v), m in a.multiplicity.items()},
        )
        assert isomorphic(a, b)
        assert canonical_form(a) == canonical_form(b)


class TestValidate:
    def test_example_tree_ok(self):
        assert validate(example9_tree()) == []

    def test_degree_plus_labels_too_small(self):
        t = LoadedTree(3, {0: {1, 2}, 1: {3}}, {(0, 1): 1})
        problems = validate(t)
        assert any("vertex 1" in p and "< 3" in p for p in problems)

    def test_not_a_partition(self):
        t = LoadedTree(5, {0: {1, 2, 4}, 1: {3, 4, 5}}, {(0, 1): 1})
        problems = validate(t)
        assert any("several vertices" in p for p in problems)

    def test_disconnected(self):
        t = LoadedTree(
            8,
            {0: {1, 2, 3}, 1: {4, 5, 6}, 2: {7, 8}},
            {(0, 1): 1},
        )
        problems = validate(t)
        assert any("not a tree" in p or "not connected" in p for p in problems)

    def test_cycle(self):
        t = LoadedTree(
            9,
            {0: {1, 2, 3}, 1: {4, 5, 6}, 2: {7, 8, 9}},
            {(0, 1): 1, (1, 2): 1, (0, 2): 1},
        )
        assert validate(t)


class TestRandomProperTree:
    def test_n3(self):
        t = random_proper_tree(3, 0)
        assert t.labels == {0: frozenset({1, 2, 3})}

    def test_deterministic_in_seed(self):
        assert random_proper_tree(9, 4) == random_proper_tree(9, 4)
        seen = {canonical_form(random_proper_tree(9, s)) for s in range(40)}
        assert len(seen) > 10  # actually varies

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 20])
    def test_valid_and_proper(self, n):
        for seed in range(30):
            t = random_proper_tree(n, seed)
            assert validate(t) == []
            assert t.total_multiplicity == n - 3

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            random_proper_tree(2, 0)
