"""The monomial <-> loaded tree correspondence, on the nine-label example.

The monomial

    d(1,2,3|4,5,6,7,8,9)^3 * d(1,2,3,4,5|6,7,8,9)
      * d(1,2,3,4,5,8,9|6,7) * d(1,2,3,4,5,6,7|8,9)

has no crossing pair, so it corresponds to a loaded tree: orient every
cut by its side away from label 1; those sides nest, and their
containment tree, with label 1 at the root, is the loaded tree.  Each
edge recovers its cut by deleting it and reading off the labels of the
two components.
"""
import json

from deltaforest import (
    Cut,
    LoadedTree,
    Monomial,
    isomorphic,
    monomial_to_tree,
    parse_monomial,
    tree_to_dot,
    tree_to_json,
    tree_to_monomial,
)

text = (
    "n=9; d(1,2,3|4,5,6,7,8,9)^3 * d(1,2,3,4,5|6,7,8,9)"
    " * d(1,2,3,4,5,8,9|6,7) * d(1,2,3,4,5,6,7|8,9)"
)
m = parse_monomial(text)
t = monomial_to_tree(m)

print("loaded tree as JSON:")
print(json.dumps(tree_to_json(t), indent=2))
print()
print("the same tree as DOT (pipe into `dot -Tpng` to draw it):")
print(tree_to_dot(t))

back = tree_to_monomial(t)
print("tree read back as a monomial:", back == m and "matches the input" or back)

print()
print("the tree does not depend on label 1 being the reference; swap 1 and 9:")
swap = {1: 9, 9: 1}


def relabel(labels):
    return {swap.get(x, x) for x in labels}


swapped = Monomial(
    9, [(Cut.from_part(relabel(c.second), 9), e) for c, e in m.factors.items()]
)
expected = LoadedTree(9, {v: relabel(s) for v, s in t.labels.items()}, t.multiplicity)
print("  same tree up to vertex ids:", isomorphic(monomial_to_tree(swapped), expected))
