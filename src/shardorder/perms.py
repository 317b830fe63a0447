"""
Permutations of [n] = {1, ..., n} in one-line notation.

A permutation is stored as the tuple (p(1), ..., p(n)); all values are
1-based.  Text form is the compact digit string "26314758" when n <= 9 and
the comma-separated form "2,6,3,1,4,7,5,8" otherwise; both are accepted by
:func:`Permutation.parse`.

The descending runs of a word become the blocks of the pre-order of a
permutation; ``preorders.run_masks`` reads them as value masks, and
``preorders.mu`` packs from those.
"""
from __future__ import annotations

import itertools
from enum import Enum
from typing import Iterator

from .frozen import Frozen


class Permutation(Frozen):
    """One-line word of a permutation of [n], ordered by word.

    >>> Permutation.parse("4312").word
    (4, 3, 1, 2)
    >>> str(Permutation((2, 6, 3, 1, 4, 7, 5, 8)))
    '26314758'
    """

    __slots__ = ("word",)

    def __init__(self, word: tuple[int, ...]):
        n = len(word)
        if n < 1:
            raise ValueError("permutation must have size n >= 1")
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [{n}]: {word!r}")
        _set_word(self, word)

    def __eq__(self, other):
        return self.word == other.word if other.__class__ is Permutation else NotImplemented

    def __hash__(self):
        return hash((self.word,))

    def __lt__(self, other):
        return self.word < other.word if other.__class__ is Permutation else NotImplemented

    def __le__(self, other):
        return self.word <= other.word if other.__class__ is Permutation else NotImplemented

    def __gt__(self, other):
        return self.word > other.word if other.__class__ is Permutation else NotImplemented

    def __ge__(self, other):
        return self.word >= other.word if other.__class__ is Permutation else NotImplemented

    @property
    def n(self) -> int:
        return len(self.word)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        text = text.strip()
        if "," in text:
            values = tuple(int(tok) for tok in text.split(","))
        else:
            if not text.isdigit():
                raise ValueError(f"cannot parse permutation from {text!r}")
            values = tuple(int(ch) for ch in text)
        return cls(values)

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)


_new = object.__new__
_set_word = Permutation.word.__set__


def _of_word(word: tuple[int, ...]) -> Permutation:
    """Wrap a tuple already known to be a permutation word, skipping the check."""
    p = _new(Permutation)
    _set_word(p, word)
    return p


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic word order (the words need no check)."""
    return map(_of_word, itertools.permutations(range(1, n + 1)))


class BarredPattern(Enum):
    """The two barred patterns used by the sortability criterion.

    UPPER_231: an occurrence of 231 whose "2" value is upper-barred.
    LOWER_312: an occurrence of 312 whose "2" value is lower-barred.
    """

    UPPER_231 = "2bar-31"
    LOWER_312 = "31-2bar"


def barred_pattern_instances(p, pattern, barring) -> Iterator[tuple[int, int, int]]:
    """The value triples (left to right) realizing the barred pattern, lazily.

    ``barring`` must expose frozensets ``upper`` and ``lower`` over the
    values 2..n-1 (1 and n carry no bar, so they never fill the barred
    role).  Search is brute force over the triples of the word; n stays
    small.  An unknown pattern raises ``ValueError`` at the call, whatever
    n is.
    """
    triples = itertools.combinations(p.word, 3)
    if pattern is BarredPattern.UPPER_231:
        # c < a < b, the "2" role is the first value a
        upper = barring.upper
        return ((a, b, c) for a, b, c in triples if c < a < b and a in upper)
    if pattern is BarredPattern.LOWER_312:
        # b < c < a, the "2" role is the last value c
        lower = barring.lower
        return ((a, b, c) for a, b, c in triples if b < c < a and c in lower)
    raise ValueError(f"unknown pattern {pattern!r}")


def contains_barred_pattern(p, pattern, barring) -> bool:
    return next(barred_pattern_instances(p, pattern, barring), None) is not None


def is_indecomposable(p: Permutation) -> bool:
    """True iff no proper prefix of the word is a permutation of 1..k.

    Counting these over S_n gives 1, 1, 3, 13, 71, 461, ... which is also
    the absolute Moebius number of the full lattice.

    >>> is_indecomposable(Permutation.parse("1"))
    True
    >>> is_indecomposable(Permutation.parse("2134"))
    False
    """
    top = 0
    for k, value in enumerate(p.word[:-1], start=1):
        top = max(top, value)
        if top == k:
            return False
    return True
