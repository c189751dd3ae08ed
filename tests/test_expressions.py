"""Grammar, rendering, and the serializers."""
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaforest import (
    Cut,
    LoadedTree,
    Monomial,
    ParseError,
    monomial_to_tree,
    parse_monomial,
    render_monomial,
    to_weighted,
    to_redundancy,
    prune,
    tree_to_dot,
    tree_to_json,
    tree_to_monomial,
)
from deltaforest.trees import _random_proper_tree
from conftest import EXAMPLE9_TEXT, example9_tree, fixture14_tree


class TestParse:
    def test_two_factor_example(self):
        m = parse_monomial("n=5; d(1,2|3,4,5) * d(1,2,3|4,5)")
        assert m.n == 5
        assert m.factors == {
            Cut.from_part({1, 2}, 5): 1,
            Cut.from_part({1, 2, 3}, 5): 1,
        }

    def test_nine_label_example(self):
        m = parse_monomial(EXAMPLE9_TEXT)
        assert m.degree == 6
        assert m.factors[Cut.from_part({1, 2, 3}, 9)] == 3

    def test_repeated_cut_accumulates(self):
        m = parse_monomial("n=5; d(1,2|3,4,5) * d(1,2|3,4,5)")
        assert m.factors == {Cut.from_part({1, 2}, 5): 2}

    def test_noncanonical_part_order(self):
        assert parse_monomial("n=5; d(3,4,5|2,1)") == parse_monomial(
            "n=5; d(1,2|3,4,5)"
        )

    def test_whitespace_insensitive(self):
        a = parse_monomial("n=5;d(1,2|3,4,5)^2")
        b = parse_monomial("  n = 5 ;  d( 1 , 2 | 3 , 4 , 5 ) ^ 2  ")
        assert a == b

    def test_empty_monomial(self):
        assert parse_monomial("n=3; 1") == Monomial(3)

    def test_degree_mismatch_still_parses(self):
        assert parse_monomial("n=6; d(1,2|3,4,5,6)").degree == 1

    @pytest.mark.parametrize(
        "text,where",
        [
            ("n=5; d(1,2|3,4)", 5),          # union misses 5
            ("n=5; d(1|2,3,4,5)", 7),        # part too small
            ("n=5; d(1,2|3,4,5,6)", 17),     # label exceeds n
            ("n=5; d(1,2|3,3,4,5)", 13),     # duplicate label
            ("n=5; d(1,2|3,4,5", 16),        # missing paren
            ("n=5; d(1,2|3,4,5) ^ 0", 20),   # zero exponent
            ("n=5; d(1,2|3,4,5) junk", 18),  # trailing input
            ("x=5; 1", 0),                   # missing header
            ("n 5; 1", 2),                   # expected '='
            (" n \t5; 1", 4),
            ("n=5 d(1,2|3,4,5)", 4),         # expected ';'
            ("n = 5 \n d(1,2|3,4,5)", 8),
            ("n=5; (1,2|3,4,5)", 5),         # expected 'd'
            ("n=5;\t(1,2|3,4,5)", 5),
            ("n=5; d1,2|3,4,5)", 6),         # expected '('
            ("n=5; d \t1,2|3,4,5)", 8),
            ("n=5; d(1,2,3,4,5)", 16),       # expected '|'
            ("n=5; d(1,2 ,3,4,5 )", 18),
            ("n=5; d(1,2|3,4,5)^\u00b2", 18),  # expected an integer: not a decimal digit
            ("n=5; d(1,2|3,4,5) ^\n \u00b2", 21),
            ("n=5; d(1,2,|3,4,5)", 11),      # expected an integer after a comma
            ("n=5; d(1,2, \t|3,4,5)", 13),
            ("n=0; 1", 2),                   # n must be positive
            ("n= 0; 1", 3),
            ("n=5; d(1,2,3|3,4,5)", 5),      # parts overlap
            (" n=5 ;  d(1,2,3|3,4,5)", 8),
            ("n=5; d(1, 9|3,4,5,2)", 10),    # positions point at the number,
            ("n=5; d(1,2|3, 3,4,5)", 14),    # not at the whitespace before it
            ("n=5; d(1,2| 9,4,5)", 12),
            # integers longer than int() reads are reported at their first digit
            pytest.param("n=" + "1" * 4301 + "; 1", 2, id="long-n"),
            pytest.param(" n = " + "1" * 5000 + "; 1", 5, id="long-n-spaced"),
            pytest.param("n=5; d(" + "1" * 4301 + ",2|3,4,5)", 7, id="long-first-label"),
            pytest.param("n=5; d(1,2|3,4, " + "5" * 5000 + ")", 16, id="long-last-label"),
            pytest.param("n=5; d(1,2|3,4,5)^" + "1" * 4301, 18, id="long-exponent"),
            pytest.param("n=5; d(1,2|3,4,5) ^ " + "2" * 5000, 20, id="long-exponent-spaced"),
        ],
    )
    def test_errors_carry_position(self, text, where):
        with pytest.raises(ParseError) as err:
            parse_monomial(text)
        assert err.value.position == where

    def test_digit_limit(self):
        # 4300 digits still read as a number; one more is a parse error
        with pytest.raises(ParseError, match="label 9{4300} outside 1..5"):
            parse_monomial("n=5; d(1,2|3,4," + "9" * 4300 + ")")
        with pytest.raises(ParseError, match="integer longer than 4300 digits"):
            parse_monomial("n=5; d(1,2|3,4," + "9" * 4301 + ")")
        # labels are checked in reading order
        with pytest.raises(ParseError, match="label 7 outside"):
            parse_monomial("n=5; d(1,7|3,4," + "9" * 4301 + ")")

    def test_non_ascii_decimal_digits(self):
        # \d and int() agree on every Unicode decimal digit
        m = parse_monomial("n=\u0665; d(1,2|3,4,5)")
        assert m == parse_monomial("n=5; d(1,2|3,4,5)")

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=3, max_value=16))
    def test_whitespace_between_tokens(self, seed, n):
        rng = random.Random(seed)
        m = tree_to_monomial(_random_proper_tree(n, rng))
        text = render_monomial(m)
        spaced = []
        for i, ch in enumerate(text):
            # between two tokens: anywhere except inside a number
            if not (ch.isdigit() and text[i - 1 : i].isdigit()) and rng.random() < 0.3:
                spaced.append("".join(rng.choices(" \t\n", k=rng.randint(1, 3))))
            spaced.append(ch)
        spaced.append(rng.choice(["", " ", "\n", "\t "]))
        assert parse_monomial("".join(spaced)) == m


class TestRender:
    def test_exponent_suffix(self):
        m = parse_monomial("n=5; d(1,2|3,4,5)^2")
        assert render_monomial(m) == "n=5; d(1,2|3,4,5)^2"

    def test_empty(self):
        assert render_monomial(Monomial(3)) == "n=3; 1"

    def test_canonical_factor_order(self):
        # same monomial written backwards renders identically
        backwards = (
            "n=9; d(1,2,3,4,5,6,7|8,9) * d(1,2,3,4,5,8,9|6,7)"
            " * d(1,2,3,4,5|6,7,8,9) * d(1,2,3|4,5,6,7,8,9)^3"
        )
        assert render_monomial(parse_monomial(backwards)) == render_monomial(
            parse_monomial(EXAMPLE9_TEXT)
        )

    def test_round_trip_random(self):
        rng = random.Random(5150)
        for _ in range(300):
            t = _random_proper_tree(rng.randint(3, 12), rng)
            m = tree_to_monomial(t)
            text = render_monomial(m)
            again = parse_monomial(text)
            assert again == m
            assert render_monomial(again) == text


class TestSerializers:
    def test_single_vertex_dot(self):
        t = LoadedTree(3, {0: {1, 2, 3}}, {})
        dot = tree_to_dot(t)
        assert dot.startswith("graph G {")
        assert '"{1,2,3}"' in dot

    def test_two_edge_path_dot(self):
        t = monomial_to_tree(parse_monomial("n=5; d(1,2|3,4,5) * d(1,2,3|4,5)"))
        dot = tree_to_dot(t)
        assert '"{1,2}"' in dot and '"{4,5}"' in dot and '"{3}"' in dot
        assert dot.count('[label="1"]') == 2

    def test_forest_dot_two_components(self):
        rf = prune(to_redundancy(to_weighted(fixture14_tree())))
        assert len(rf.trees) == 2
        dot = tree_to_dot(rf)
        assert dot.startswith("graph G {")
        # 2 + 5 surviving vertices, 1 + 4 surviving edges
        assert dot.count("[label=\"w=") == 7
        assert dot.count("--") == 5

    def test_json_schema_keys(self):
        t = example9_tree()
        data = tree_to_json(t)
        assert set(data) == {"vertices", "edges"}
        assert all(set(v) == {"id", "labels"} for v in data["vertices"])
        assert all(set(e) == {"u", "v", "multiplicity"} for e in data["edges"])
        json.dumps(data)  # serializable

        wt = to_weighted(t)
        data = tree_to_json(wt)
        assert all(set(v) == {"id", "weight"} for v in data["vertices"])
        assert all(set(e) == {"u", "v", "weight"} for e in data["edges"])

        rt = to_redundancy(wt)
        data = tree_to_json(rt)
        assert all(set(v) == {"id", "weight"} for v in data["vertices"])
        assert all(set(e) == {"u", "v"} for e in data["edges"])

    def test_json_rejects_other_types(self):
        with pytest.raises(TypeError):
            tree_to_json({"not": "a tree"})
