"""Exact integer values of boundary-divisor monomials on genus-zero moduli.

The pipeline turns a monomial in the cut-indexed divisor generators into a
loaded tree, weights it, prunes the subdivided tree down to a redundancy
forest, and reads off the value as a signed product of binomials.  An
independent cut-recursion evaluator covers the same ground for
cross-checking.
"""
from .model import (
    AmbientMismatchError,
    Classification,
    CrossingFactorsError,
    Cut,
    InvalidCutError,
    Monomial,
    NotAPartitionError,
    PartTooSmallError,
    canonicalize_cut,
    classify,
    crosses,
)
from .expressions import ParseError, parse_monomial, render_monomial
from .trees import (
    EmptyNonTrivialError,
    LoadedTree,
    canonical_form,
    isomorphic,
    monomial_to_tree,
    random_proper_tree,
    tree_to_monomial,
    validate,
)
from .forest import (
    RedundancyForest,
    RedundancyTree,
    WeightedTree,
    WeightIdentityError,
    eval_forest,
    eval_loaded_tree,
    eval_monomial,
    eval_redundancy_tree,
    prune,
    sign_of,
    to_redundancy,
    to_weighted,
)
from .oracle import (
    NotSingleEdgeError,
    NotSunLikeError,
    StarCutTooSmallError,
    find_star_cut,
    multi_edge_cut,
    oracle_eval,
    single_edge_cut,
    sun_like_value,
)
from .graphio import tree_to_dot, tree_to_json

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatchError",
    "Classification",
    "CrossingFactorsError",
    "Cut",
    "EmptyNonTrivialError",
    "InvalidCutError",
    "LoadedTree",
    "Monomial",
    "NotAPartitionError",
    "NotSingleEdgeError",
    "NotSunLikeError",
    "ParseError",
    "PartTooSmallError",
    "RedundancyForest",
    "RedundancyTree",
    "StarCutTooSmallError",
    "WeightIdentityError",
    "WeightedTree",
    "canonical_form",
    "canonicalize_cut",
    "classify",
    "crosses",
    "eval_forest",
    "eval_loaded_tree",
    "eval_monomial",
    "eval_redundancy_tree",
    "find_star_cut",
    "isomorphic",
    "monomial_to_tree",
    "multi_edge_cut",
    "oracle_eval",
    "parse_monomial",
    "prune",
    "random_proper_tree",
    "render_monomial",
    "sign_of",
    "single_edge_cut",
    "sun_like_value",
    "to_redundancy",
    "to_weighted",
    "tree_to_dot",
    "tree_to_json",
    "tree_to_monomial",
    "validate",
]
