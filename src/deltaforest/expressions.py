"""Text grammar for monomials.

    input   := "n=" INT ";" product
    product := "1" | factor ("*" factor)*
    factor  := "d(" part "|" part ")" ("^" INT)?
    part    := INT ("," INT)*

INT is a run of at most 4300 decimal digits.  Whitespace is ignored
between tokens.  Example::

    n=9; d(1,2,3|4,5,6,7,8,9)^3 * d(1,2,3,4,5|6,7,8,9)

The parser reads each token, and each whole part, with one regular
expression match; a :class:`ParseError` points at the offending token.
Repeated occurrences of the same cut accumulate exponents.  Rendering is
canonical (factors sorted, exponent 1 omitted), so parse and render are
mutually inverse on canonical text.
"""
from __future__ import annotations

import re

from .model import InvalidCutError, Monomial, canonicalize_cut


class ParseError(ValueError):
    """Malformed monomial text; ``position`` is the offending 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Each pattern reads the whitespace before its first token.  A part, or an
# exponent, is group 1; group 2 is a separator after it (',' or '^') that
# no integer follows.
_PART = r"\s*(\d+(?:\s*,\s*\d+)*)(\s*,)?"
_SPACE = re.compile(r"\s*").match
_HEAD = re.compile(r"\s*n\s*=\s*(\d+)").match
_SEMI = re.compile(r"\s*;").match
_ONE = re.compile(r"\s*1").match
_OPEN = re.compile(r"\s*d\s*\(" + _PART).match
_BAR = re.compile(r"\s*\|" + _PART).match
_CLOSE = re.compile(r"\s*\)(?:\s*\^\s*(\d+)|(\s*\^))?").match
_STAR = re.compile(r"\s*\*").match
_INT = re.compile(r"\d+")
_MAX_DIGITS = 4300  # the interpreter's default limit on int() of a digit string


def _int(text: str, start: int, end: int) -> int:
    """The run of digits text[start:end], checked for length before ``int``
    reads it."""
    if end - start > _MAX_DIGITS:
        raise ParseError(f"integer longer than {_MAX_DIGITS} digits", start)
    return int(text[start:end])


def _reject(text: str, pos: int, literals: str):
    """Raise for text at ``pos`` that a pattern reading ``literals`` did not
    match: at the first literal missing, else at the integer that the
    pattern reads after them."""
    for literal in literals:
        pos = _SPACE(text, pos).end()
        if not text.startswith(literal, pos):
            raise ParseError(f"expected '{literal}'", pos)
        pos += 1
    raise ParseError("expected an integer", _SPACE(text, pos).end())


def parse_monomial(text: str) -> Monomial:
    """Parse monomial text into a canonical :class:`Monomial`.

    Degree is not checked here; monomials of any degree parse and are left
    to :func:`~deltaforest.model.classify`.
    """
    m = _HEAD(text) or _reject(text, 0, "n=")
    n = _int(text, *m.span(1))
    if n < 1:
        raise ParseError("n must be positive", m.start(1))
    pos = (_SEMI(text, m.end()) or _reject(text, m.end(), ";")).end()

    factors: list[tuple] = []
    one = _ONE(text, pos)
    if one:
        pos = one.end()
    else:
        while True:
            cut, exponent, pos = _factor(text, pos, n)
            factors.append((cut, exponent))
            star = _STAR(text, pos)
            if not star:
                break
            pos = star.end()
    pos = _SPACE(text, pos).end()
    if pos < len(text):
        raise ParseError("unexpected trailing input", pos)
    return Monomial(n, factors)


def _factor(text: str, pos: int, n: int) -> tuple:
    """The cut and exponent of the factor at ``pos``, and where it ends."""
    m = _OPEN(text, pos) or _reject(text, pos, "d(")
    part_a = _part(text, m, n)
    m = _BAR(text, m.end()) or _reject(text, m.end(), "|")
    part_b = _part(text, m, n)
    m = _CLOSE(text, m.end()) or _reject(text, m.end(), ")")
    if m[2]:
        raise ParseError("expected an integer", _SPACE(text, m.end()).end())
    exponent = _int(text, *m.span(1)) if m[1] else 1
    if exponent < 1:
        raise ParseError("exponent must be positive", m.start(1))
    try:
        cut = canonicalize_cut(part_a, part_b, n)
    except InvalidCutError as err:
        raise ParseError(str(err), _SPACE(text, pos).end()) from err
    return cut, exponent, m.end()


def _part(text: str, m: re.Match, n: int) -> frozenset:
    """The labels of the part ``m`` matched, checked in reading order."""
    start, end = m.span(1)
    labels = _INT.findall(text, start, end)
    try:
        part = frozenset(map(int, labels))
    except ValueError:  # a label too long for int(); reported below
        part = frozenset()
    if 2 <= len(part) == len(labels) and min(part) >= 1 and max(part) <= n and not m[2]:
        return part
    seen = set()
    for label in _INT.finditer(text, start, end):
        value = _int(text, *label.span())
        if not 1 <= value <= n:
            raise ParseError(f"label {value} outside 1..{n}", label.start())
        if value in seen:
            raise ParseError(f"duplicate label {value} in part", label.start())
        seen.add(value)
    if m[2]:
        raise ParseError("expected an integer", _SPACE(text, m.end()).end())
    raise ParseError("a part needs at least 2 labels", start)


def render_monomial(m: Monomial) -> str:
    """Canonical text for a monomial; inverse of :func:`parse_monomial`."""
    if not m.factors:
        return f"n={m.n}; 1"
    parts = []
    for cut, exp in m.sorted_factors():
        parts.append(str(cut) if exp == 1 else f"{cut}^{exp}")
    return f"n={m.n}; " + " * ".join(parts)
