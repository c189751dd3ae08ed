"""Cuts, crossing, and monomial classification."""
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaforest import (
    AmbientMismatchError,
    Classification,
    CrossingFactorsError,
    Cut,
    Monomial,
    NotAPartitionError,
    PartTooSmallError,
    canonicalize_cut,
    classify,
    crosses,
    parse_monomial,
    tree_to_monomial,
)
from deltaforest.model import nest
from deltaforest.trees import _random_proper_tree
from conftest import CLEVER5_TEXT, EXAMPLE9_TEXT, KEEL_TEXT, all_cuts


class TestCanonicalizeCut:
    def test_orientation_rule(self):
        cut = canonicalize_cut({3, 4, 5}, {1, 2}, 5)
        assert cut.first == frozenset({1, 2})
        assert cut.second == frozenset({3, 4, 5})

    def test_already_canonical(self):
        cut = canonicalize_cut({1, 2}, {3, 4, 5}, 5)
        assert cut.first == frozenset({1, 2})
        assert cut.second == frozenset({3, 4, 5})

    def test_part_too_small(self):
        with pytest.raises(PartTooSmallError):
            canonicalize_cut({1}, {2, 3, 4, 5}, 5)

    def test_overlap_rejected(self):
        with pytest.raises(NotAPartitionError):
            canonicalize_cut({1, 2, 3}, {3, 4, 5}, 5)

    def test_incomplete_union_rejected(self):
        with pytest.raises(NotAPartitionError):
            canonicalize_cut({1, 2}, {3, 4}, 5)

    def test_order_insensitive_and_idempotent(self):
        a = canonicalize_cut({1, 2}, {3, 4, 5}, 5)
        b = canonicalize_cut({3, 4, 5}, {1, 2}, 5)
        assert a == b
        assert hash(a) == hash(b)
        assert canonicalize_cut(a.first, a.second, 5) == a

    def test_from_part(self):
        assert Cut.from_part({4, 5}, 5) == canonicalize_cut({1, 2, 3}, {4, 5}, 5)


class TestCrosses:
    def test_keel_pair_crosses(self):
        a = Cut.from_part({1, 2}, 5)
        b = Cut.from_part({1, 4}, 5)
        assert crosses(a, b)

    def test_nested_pair_does_not_cross(self):
        a = Cut.from_part({1, 2}, 5)
        b = Cut.from_part({1, 2, 3}, 5)
        assert not crosses(a, b)

    def test_self_does_not_cross(self):
        a = Cut.from_part({1, 2}, 5)
        assert not crosses(a, a)

    def test_ambient_mismatch(self):
        a = Cut.from_part({1, 2}, 5)
        b = Cut.from_part({1, 2}, 6)
        with pytest.raises(AmbientMismatchError):
            crosses(a, b)

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=4, max_value=10))
    def test_symmetry(self, seed, n):
        rng = random.Random(seed)
        cuts = all_cuts(n)
        a = rng.choice(cuts)
        b = rng.choice(cuts)
        assert crosses(a, b) == crosses(b, a)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_noncrossing_iff_nested_part(self, n):
        # for full-support cuts: not crossing <=> one part contained in a part
        # of the other; exhaustive over all pairs
        cuts = all_cuts(n)
        for a in cuts:
            for b in cuts:
                nested = any(
                    p <= q
                    for p in (a.first, a.second)
                    for q in (b.first, b.second)
                )
                assert (not crosses(a, b)) == nested


class TestMonomial:
    def test_exponent_accumulation(self):
        c = Cut.from_part({1, 2}, 5)
        m = Monomial(5, [(c, 1), (c, 2)])
        assert m.factors == {c: 3}
        assert m.degree == 3

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            Monomial(6, [(Cut.from_part({1, 2}, 5), 1)])

    def test_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            Monomial(5, [(Cut.from_part({1, 2}, 5), 0)])

    def test_equality_and_hash(self):
        a = parse_monomial(EXAMPLE9_TEXT)
        b = parse_monomial(EXAMPLE9_TEXT)
        assert a == b
        assert hash(a) == hash(b)


class TestClassify:
    def test_keel_example(self):
        assert classify(parse_monomial(KEEL_TEXT)) is Classification.ZERO_BY_KEEL

    def test_clever_example(self):
        assert classify(parse_monomial(CLEVER5_TEXT)) is Classification.CLEVER

    def test_tree_monomial_example(self):
        assert classify(parse_monomial(EXAMPLE9_TEXT)) is Classification.TREE_MONOMIAL

    def test_degree_mismatch(self):
        assert (
            classify(parse_monomial("n=6; d(1,2|3,4,5,6)"))
            is Classification.DEGREE_MISMATCH
        )

    def test_degree_mismatch_wins_over_crossing(self):
        m = parse_monomial("n=6; d(1,2|3,4,5,6) * d(1,3|2,4,5,6)")
        assert classify(m) is Classification.DEGREE_MISMATCH

    def test_empty_monomial_n3_is_clever(self):
        assert classify(parse_monomial("n=3; 1")) is Classification.CLEVER


def _with_extra_cut(seed: int, n: int) -> Monomial:
    """A random proper tree monomial with one random cut added, keeping the
    degree n - 3 by lowering the exponent of another factor."""
    rng = random.Random(seed)
    factors = tree_to_monomial(_random_proper_tree(n, rng)).factors
    drop = rng.choice(list(factors))
    factors = {c: e - (c == drop) for c, e in factors.items()}
    extra = Cut.from_part(rng.sample(range(1, n + 1), rng.randint(2, n - 2)), n)
    return Monomial(n, [(c, e) for c, e in factors.items() if e] + [(extra, 1)])


def _witnesses(m: Monomial) -> list[Cut]:
    """The factors named by the CrossingFactorsError that nest raises."""
    with pytest.raises(CrossingFactorsError) as err:
        nest(m)
    return [
        parse_monomial(f"n={m.n}; {text}").sorted_factors()[0][0]
        for text in re.findall(r"d\([^)]*\)", str(err.value))
    ]


class TestNest:
    @settings(max_examples=300)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=4, max_value=12))
    def test_verdict_and_witness_match_crosses(self, seed, n):
        m = _with_extra_cut(seed, n)
        assert m.degree == n - 3
        crossing = any(crosses(a, b) for a in m.factors for b in m.factors)
        assert (classify(m) is Classification.ZERO_BY_KEEL) == crossing
        if crossing:
            a, b = _witnesses(m)
            assert a in m.factors and b in m.factors
            assert crosses(a, b)
        else:
            for cut, parent in nest(m):
                above = [c.second for c in m.factors if cut.second < c.second]
                if parent is None:
                    assert not above
                else:
                    assert parent.second == min(above, key=len)

    @pytest.mark.parametrize(
        "text",
        [
            # {3,4,5} is placed first; label 2 of {2,3,5} is in no earlier side
            KEEL_TEXT,
            # {2,5,6} is placed first; {2,3,4} meets it in 2 only
            "n=7; d(1,5,6,7|2,3,4) * d(1,3,4,7|2,5,6) * d(1,2,3,4,7|5,6)",
        ],
    )
    def test_witness_when_a_label_is_in_no_earlier_side(self, text):
        a, b = _witnesses(parse_monomial(text))
        assert crosses(a, b)

    def test_outermost_first(self):
        sizes = [len(cut.second) for cut, _ in nest(parse_monomial(EXAMPLE9_TEXT))]
        assert sizes == sorted(sizes, reverse=True)
