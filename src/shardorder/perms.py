"""
Permutations of [n] = {1, ..., n} in one-line notation.

A permutation is stored as the tuple (p(1), ..., p(n)); all values are
1-based.  Text form is the compact digit string "26314758" when n <= 9 and
the comma-separated form "2,6,3,1,4,7,5,8" otherwise; both are accepted by
:func:`Permutation.parse`.

The descending runs of a word become the blocks of its pre-order (read
as value masks by ``preorders.mu_words``); the two barred patterns of
c-sortability are decided on the word by ``sortable._sortable``.
"""
from __future__ import annotations

import itertools
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
        word = tuple(word)
        n = len(word)
        if n < 1:
            raise ValueError("permutation must have size n >= 1")
        if any(type(v) is not int for v in word):
            raise ValueError(f"permutation values must be integers: {word!r}")
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
        return cls(parse_word(text, "permutation"))

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


def parse_word(text: str, what: str) -> tuple[int, ...]:
    """The integers of a word written comma-separated, else one digit each.

    A token that is not an integer raises ``ValueError`` naming the text.
    """
    text = text.strip()
    try:
        return tuple(map(int, text.split(",") if "," in text else text))
    except ValueError:
        raise ValueError(f"cannot parse {what} from {text!r}") from None


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic word order (the words need no check)."""
    if n < 1:
        raise ValueError("n must be positive")
    return map(_of_word, itertools.permutations(range(1, n + 1)))

