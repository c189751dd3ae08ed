"""The four workloads: what each item is, and what its output must be.

A workload is an endless sequence of *rounds*.  Every round has the same
shape mix (same item names, same sizes), drawn fresh from
``(seed, workload, round, position)``, so a run that measures whole rounds
sees the same mix whatever the seed, and no input repeats within a run.

Every item carries a reference computed outside timing by a route that
does not use the forest: the cut-recursion oracle where it completes and
is cheap, closed forms for caterpillars, two-vertex trees and stars.
``oracle_check`` items are checked by agreement of the two evaluators,
which is what ``eval --oracle`` requires.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable

import gen

# Items that fail at the parent commit of the benchmark.  They stay in
# their workloads and are counted in ``failed``; an item not listed here
# that fails, or any item that returns a wrong value, makes the run
# incorrect.
KNOWN_FAILURES = {
    "text_large": {
        "two_vertex_n20000": "value has more than 4300 digits: int->str limit (ValueError)",
    },
    "oracle_check": {
        "path_v900": "oracle recursion deeper than the interpreter limit (RecursionError)",
    },
}

# Item kinds: how the worker hands an item to the program.
BATCH = "batch"  # one line of a cli.main(["eval", "--stdin"]) call
TEXT = "text"  # cli.main(["eval", text])
TREE = "tree"  # forest.eval_loaded_tree(tree)
ORACLE = "oracle"  # oracle.oracle_eval(tree) and forest.eval_loaded_tree(tree)


@dataclass
class Item:
    name: str
    build: Callable[[], object]  # the input: monomial text or gen.Tree
    expect: Callable[[], object] | None = None  # report or value; None: evaluators must agree


@dataclass
class Workload:
    kind: str
    rounds: Callable[[int, int, bool], list]  # (seed, round, smoke) -> items
    tail_pct: float  # highest percentile with >= 10 samples beyond it per run


def _rng(seed: int, workload: str, rnd: int, pos: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{rnd}:{pos}")


def _tree_value(tree: gen.Tree) -> int:
    """Value by the cut recursion (independent of the forest)."""
    from deltaforest import oracle_eval

    return oracle_eval(to_loaded(tree))


def to_loaded(tree: gen.Tree):
    from deltaforest import LoadedTree

    return LoadedTree(
        tree.n, dict(enumerate(tree.labels)), {(u, v): m for u, v, m in tree.edges}
    )


def _report(text: str, classification: str, value: int, sign) -> dict:
    """The JSON report `deltaforest eval` must print, fields in order."""
    return {
        "input": text,
        "classification": classification,
        "value": str(value),
        "sign": sign,
    }


def _tree_report(tree: gen.Tree, value: Callable[[], int]) -> Callable[[], dict]:
    cuts = gen.cuts_of(tree)
    text = gen.render(tree.n, cuts)
    kind = "Clever" if all(e == 1 for e in cuts.values()) else "TreeMonomial"
    edge_weight = sum(m - 1 for _, _, m in tree.edges)
    sign = -1 if edge_weight % 2 else 1
    return lambda: _report(text, kind, value(), sign)


def _two_vertex_value(n: int, side: int) -> int:
    """(-1)^(m-1) C(n-4, |I|-2) with m = n - 3."""
    return (-1) ** (n - 4) * comb(n - 4, side - 2)


def _star_value(mults: list[int]) -> int:
    """Signed multinomial of the centre weight over the edge weights."""
    weights = [m - 1 for m in mults]
    value, left = 1, sum(weights)
    for w in weights:
        value *= comb(left, w)
        left -= w
    return -value if sum(weights) % 2 else value


# -- batch_small --------------------------------------------------------------

def _batch_draw(seed: int, rnd: int, pos: int, n_range: tuple[int, int]):
    """A `deltaforest random`-style line and its expected report.

    Positions 3 and 7 of every ten are perturbed, into a Keel-zero
    (crossing) and a degree-mismatch monomial respectively, so a fifth of
    every round is classified zero before any tree is built.
    """
    rng = _rng(seed, "batch_small", rnd, pos)
    tree = gen.random_tree(rng.randint(*n_range), rng)
    n = tree.n
    cuts = gen.cuts_of(tree)
    if pos % 10 not in (3, 7):
        return gen.render(n, cuts), _tree_report(tree, lambda: _tree_value(tree))
    keys = list(cuts)
    if pos % 10 == 3:
        hit = rng.choice(keys)
        others = [c for c in keys if c != hit]
        drop = rng.choice(others) if others else hit  # a lone factor has exponent >= 3
        cuts[drop] -= 1
        if not cuts[drop]:
            del cuts[drop]
        cuts[gen.crossing_cut(n, hit, rng)] = 1
        kind = "ZeroByKeel"
    else:
        cuts[rng.choice(keys)] += 1
        kind = "DegreeMismatch"
    text = gen.render(n, cuts)
    return text, lambda: _report(text, kind, 0, None)


def _batch_rounds(seed: int, rnd: int, smoke: bool) -> list[Item]:
    n_range = (6, 12) if smoke else (6, 40)
    items = []
    for pos in range(20 if smoke else 100):
        draw = lambda pos=pos: _batch_draw(seed, rnd, pos, n_range)  # noqa: E731
        name = {3: "keel_zero", 7: "degree_mismatch"}.get(pos % 10, "random_tree")
        items.append(Item(name, lambda draw=draw: draw()[0], lambda draw=draw: draw()[1]()))
    return items


# Every round holds one item of each size class below.  An odd number of
# classes (9, and 13 on oracle_check) keeps the median and the p75 tail
# inside a class, not between two.  On oracle_check both fall on paths,
# whose cost, unlike a random tree's, hardly depends on the seed, and its
# rounds are short enough for four to fit, leaving ten samples beyond p75.

# -- text_large ---------------------------------------------------------------

TEXT_SIZES = [300, 350, 400, 450, 500, 550, 600, 650]  # labels; n/6 vertices
BIG_N = 20000  # the two-vertex monomial n=20000; d(1..10000|10001..20000)^19997


def _big_value_text() -> str:
    half = BIG_N // 2
    return gen.render(BIG_N, {frozenset(range(half + 1, BIG_N + 1)): BIG_N - 3})


def _text_rounds(seed: int, rnd: int, smoke: bool) -> list[Item]:
    """Random tree monomials of 0.05 to 0.3 MB, plus the big-value item."""
    items = []
    for pos, n in enumerate([n // 10 for n in TEXT_SIZES] if smoke else TEXT_SIZES):
        def tree(pos=pos, n=n):
            return gen.balanced_tree(n, n // 6, _rng(seed, "text_large", rnd, pos))

        def text(tree=tree):
            t = tree()
            return gen.render(t.n, gen.cuts_of(t))

        def expect(tree=tree):
            t = tree()
            return _tree_report(t, lambda: _tree_value(t))()

        items.append(Item(f"tree_n{n}", text, expect))
    items.append(Item(
        f"two_vertex_n{BIG_N}",
        _big_value_text,
        lambda: _report(_big_value_text(), "TreeMonomial", _two_vertex_value(BIG_N, BIG_N // 2), 1),
    ))
    return items


# -- tree_large ---------------------------------------------------------------

CATERPILLARS = [100_000, 30_000, 10_000]  # distinct edges
TWO_VERTEX = [10_000, 20_000, 40_000]  # labels
STARS = [(20, 3000), (100, 4500), (500, 6000)]  # (leaves, centre weight)


def _star_mults(leaves: int, weight: int, rng: random.Random) -> list[int]:
    mults = [1] * leaves
    for _ in range(weight):
        mults[rng.randrange(leaves)] += 1
    return mults


def _tree_rounds(seed: int, rnd: int, smoke: bool) -> list[Item]:
    """Caterpillars (value +-1) and heavy two-vertex trees and stars, whose
    values run to 10^4 bits and more.  The seed shuffles the labels and
    spreads the star multiplicities; the two-vertex trees split evenly,
    which gives the largest value for their size."""
    rng = lambda pos: _rng(seed, "tree_large", rnd, pos)  # noqa: E731
    scale = 100 if smoke else 1
    items = []
    for edges in [e // scale for e in CATERPILLARS]:
        pos, k = len(items), (edges + 1) // 2
        items.append(Item(
            f"caterpillar_e{edges}",
            lambda edges=edges, pos=pos: gen.caterpillar(edges, rng(pos)),
            lambda k=k: -1 if k % 2 else 1,
        ))
    for n in [n // scale for n in TWO_VERTEX]:
        pos = len(items)
        items.append(Item(
            f"two_vertex_n{n}",
            lambda n=n, pos=pos: gen.two_vertex(n, n // 2, rng(pos)),
            lambda n=n: _two_vertex_value(n, n // 2),
        ))
    for leaves, weight in [(k // scale + 3, w // scale) for k, w in STARS]:
        pos = len(items)
        mults = _star_mults(leaves, weight, rng(pos))
        items.append(Item(
            f"star_k{leaves}",
            lambda mults=mults, weight=weight, pos=pos: gen.star(
                mults, weight - len(mults) + 3, rng(pos)
            ),
            lambda mults=mults: _star_value(mults),
        ))
    return items


# -- oracle_check -------------------------------------------------------------

ORACLE_TREES = list(range(20, 120, 20))  # vertices, 2.5 labels each
PATHS = list(range(100, 275, 25)) + [900]  # the oracle recursion fails from about 800


def _oracle_rounds(seed: int, rnd: int, smoke: bool) -> list[Item]:
    """Random trees and long paths, all with nonzero values so the
    recursion runs in full; every path multiplicity is >= 2."""
    rng = lambda pos: _rng(seed, "oracle_check", rnd, pos)  # noqa: E731
    trees = [v // 10 + 4 for v in ORACLE_TREES] if smoke else ORACLE_TREES
    paths = [v // 20 for v in PATHS] if smoke else PATHS
    items = []
    for vertices in trees:
        pos = len(items)
        items.append(Item(
            f"tree_v{vertices}",
            lambda v=vertices, pos=pos: gen.balanced_tree(2 * v + v // 2, v, rng(pos)),
        ))
    for vertices in paths:
        pos = len(items)
        items.append(Item(
            f"path_v{vertices}",
            lambda v=vertices, pos=pos: gen.path(2 * v + 1 + v // 2, v, rng(pos)),
        ))
    return items


WORKLOADS = {
    "batch_small": Workload(BATCH, _batch_rounds, 99.0),
    "text_large": Workload(TEXT, _text_rounds, 75.0),
    "tree_large": Workload(TREE, _tree_rounds, 75.0),
    "oracle_check": Workload(ORACLE, _oracle_rounds, 75.0),
}
