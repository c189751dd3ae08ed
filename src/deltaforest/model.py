"""Cuts, monomials, and the crossing test that decides vanishing.

A *cut* is an unordered bipartition {I, J} of the label set {1..n} with
both sides of size at least two.  Cuts index the divisor generators
delta_{I,J} of the ambient intersection ring; a *monomial* is a product
of such generators with positive integer exponents.  Two cuts *cross*
when all four pairwise intersections of their parts are nonempty
(Keel's quadratic relation); any monomial containing a crossing pair
has value zero.  :func:`nest` decides in one pass whether any two factors
cross and, when none do, returns the containment tree of their sides.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping


class InvalidCutError(ValueError):
    """A pair of label sets does not form a cut."""


class PartTooSmallError(InvalidCutError):
    """One side of the bipartition has fewer than two labels."""


class NotAPartitionError(InvalidCutError):
    """The two sides overlap or do not cover {1..n}."""


class AmbientMismatchError(ValueError):
    """Two objects built over different label sets were combined."""


class CrossingFactorsError(ValueError):
    """The monomial has two crossing factors, so no tree exists."""


@dataclass(frozen=True)
class Cut:
    """Canonical bipartition of {1..n}: ``first`` is the side containing 1.

    Construct through :func:`canonicalize_cut` (or :meth:`from_part`), which
    validates the partition; the raw constructor performs no checks.
    """

    first: frozenset
    second: frozenset
    n: int

    @classmethod
    def from_part(cls, part: Iterable[int], n: int) -> "Cut":
        """Cut determined by one side; the other side is the complement."""
        part = frozenset(part)
        complement = frozenset(range(1, n + 1)) - part
        return canonicalize_cut(part, complement, n)

    @property
    def sort_key(self):
        return (tuple(sorted(self.first)), tuple(sorted(self.second)))

    def __str__(self) -> str:
        a = ",".join(str(x) for x in sorted(self.first))
        b = ",".join(str(x) for x in sorted(self.second))
        return f"d({a}|{b})"


def canonicalize_cut(part_a: Iterable[int], part_b: Iterable[int], n: int) -> Cut:
    """Build the canonical :class:`Cut` from an unordered pair of parts.

    The side containing label 1 is stored first, so equal cuts compare and
    hash equal regardless of the order the parts were given in.

    Raises :class:`PartTooSmallError` if a side has fewer than two labels and
    :class:`NotAPartitionError` if the sides overlap or miss part of {1..n}.
    """
    a = frozenset(part_a)
    b = frozenset(part_b)
    if len(a) < 2 or len(b) < 2:
        raise PartTooSmallError(
            f"both sides of a cut need at least 2 labels, got sizes "
            f"{len(a)} and {len(b)}"
        )
    if a & b:
        raise NotAPartitionError(f"parts overlap in {sorted(a & b)}")
    # n distinct integers from 1 to n are all of {1..n}; no need to build it.
    union = a | b
    if len(union) != n or min(union) != 1 or max(union) != n:
        raise NotAPartitionError(f"parts do not partition {{1..{n}}}")
    if 1 in a:
        return Cut(a, b, n)
    return Cut(b, a, n)


def crosses(a: Cut, b: Cut) -> bool:
    """True iff the two cuts fulfill the quadratic (crossing) relation.

    That is, all four pairwise intersections of their parts are nonempty;
    the product of the corresponding generators is then zero.
    """
    if a.n != b.n:
        raise AmbientMismatchError(f"cuts over different label sets: {a.n} != {b.n}")
    return bool(
        a.first & b.first
        and a.first & b.second
        and a.second & b.first
        and a.second & b.second
    )


class Classification(enum.Enum):
    ZERO_BY_KEEL = "ZeroByKeel"
    CLEVER = "Clever"
    TREE_MONOMIAL = "TreeMonomial"
    DEGREE_MISMATCH = "DegreeMismatch"


class Monomial:
    """A product of cut generators, stored as distinct cuts with exponents.

    ``factors`` maps each distinct :class:`Cut` to its positive exponent;
    the degree is the exponent sum.  The factorless monomial (degree 0) is
    the empty monomial.  Instances are immutable by convention.
    """

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: Mapping[Cut, int] | Iterable[tuple[Cut, int]] = ()):
        if n < 1:
            raise ValueError(f"ambient n must be positive, got {n}")
        items = factors.items() if isinstance(factors, Mapping) else factors
        acc: dict[Cut, int] = {}
        for cut, exp in items:
            if cut.n != n:
                raise AmbientMismatchError(
                    f"factor {cut} lives over n={cut.n}, monomial over n={n}"
                )
            if exp < 1:
                raise ValueError(f"exponent of {cut} must be positive, got {exp}")
            acc[cut] = acc.get(cut, 0) + exp
        self.n = n
        self.factors = acc

    @property
    def degree(self) -> int:
        return sum(self.factors.values())

    def sorted_factors(self) -> list[tuple[Cut, int]]:
        return sorted(self.factors.items(), key=lambda kv: kv[0].sort_key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.n == other.n and self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.n, tuple((c, e) for c, e in self.sorted_factors())))

    def __repr__(self) -> str:
        if not self.factors:
            return f"Monomial(n={self.n}, 1)"
        body = " * ".join(
            str(c) if e == 1 else f"{c}^{e}" for c, e in self.sorted_factors()
        )
        return f"Monomial(n={self.n}, {body})"


def nest(m: Monomial) -> list[tuple[Cut, Cut | None]]:
    """Each factor with its parent in the containment tree of the sides.

    Orients every cut by its side away from label 1 (``Cut.second``); the
    factors pairwise do not cross iff these sides are laminar (any two
    nested or disjoint), and a side's parent is the smallest side strictly
    containing it, or ``None``.  Factors come outermost first (side size
    descending, then ``sort_key``), whatever the order of ``m.factors``.
    A side whose labels disagree on the innermost side placed so far
    raises :class:`CrossingFactorsError` naming two crossing factors.
    """
    order = sorted(m.factors, key=lambda c: (-len(c.second), c.sort_key))
    inner: dict[int, Cut] = {}
    out = []
    for cut in order:
        first, *rest = cut.second
        parent = inner.get(first)
        for x in rest:
            other = inner.get(x)
            if other is not parent:
                # No placed side is smaller than this one, so one holding a
                # label but not the other crosses it: ``parent`` if it
                # misses x, else ``other``, which then misses ``first``.
                witness = other if parent is None or x in parent.second else parent
                raise CrossingFactorsError(f"factors {witness} and {cut} cross")
        for x in cut.second:
            inner[x] = cut
        out.append((cut, parent))
    return out


def classify(m: Monomial) -> Classification:
    """Decide which evaluation route applies to ``m``.

    Degree other than n-3 forces value 0; a crossing pair of factors forces
    value 0; a square-free monomial of the right degree has value 1 (clever);
    anything else is a tree monomial that needs the full pipeline.
    """
    if m.degree != m.n - 3:
        return Classification.DEGREE_MISMATCH
    try:
        nest(m)
    except CrossingFactorsError:
        return Classification.ZERO_BY_KEEL
    if all(e == 1 for e in m.factors.values()):
        return Classification.CLEVER
    return Classification.TREE_MONOMIAL
