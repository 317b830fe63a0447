"""
Coxeter elements, barrings, and noncrossing pre-orders.

A Coxeter element is a word using each adjacent transposition s_1..s_{n-1}
exactly once.  It bars each value 2..n-1 (lower if s_{i-1} precedes s_i,
upper otherwise) and induces a circular order on [n]: 1, the lower-barred
values ascending, n, then the upper-barred values descending.

A permutation is c-sortable iff it avoids both barred patterns: a 231
whose 2 is upper-barred and a 312 whose 2 is lower-barred.  That is the
defining predicate (``is_c_sortable``); one left-to-right pass over the
word decides it with three value masks (``_sortable``), and the filter
over S_n (``pattern_sortable_permutations``) runs the same pass.  The
elements themselves are built from their c-sorting words (Reading,
arXiv:math/0507186): reduced subwords c_{K1} c_{K2} ... of c^infinity
whose letter sets shrink, each K containing the next, with no pass over
S_n.  One search (``_sortable_words``) finds them: each call emits one
element and takes each remaining letter in turn, so it makes Catalan(n)
calls.  The barring of a word is derived once per ``CoxeterElement``
object (``barring_of``) and kept in a private slot.

Under mu the c-sortable permutations are exactly the pre-orders whose
blocks are noncrossing on the cycle and whose overlapping blocks are
oriented by the bar of any strictly inside witness (Reading,
arXiv:0909.3288), so ``noncrossing_preorders(c)`` is one ``mu_words``
pass over the sorted sorting-word list.  Each noncrossing partition is
the block partition of exactly one of them, which ``_order_of_partition``
builds from the blocks alone: that is partition mode, where no word exists, and the
check of the theorem in ``verify --suite sortable``.

One mask function (``_demands``) decides noncrossing: the members of
each block strictly inside the other's interval, split by the mask of
upper-barred values, say which directions a pair demands, and a pair
demanded both ways is exactly a pair that crosses on the cycle (the
lemma in its docstring).  It reads each block's span, strictly-inside
mask and upper- and lower-barred members, computed once per state, so a
pair costs four mask tests.  ``is_noncrossing_preorder`` is the
orientation test alone; ``_order_of_partition`` orients each pair by the
same demands and closes the blocks once, with no scan (its docstring has
the proof).
"""
from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .errors import CrossingPartitionError, InvariantError
from .frozen import Frozen
from .perms import Permutation, _of_word, all_permutations, parse_word
from .preorders import Preorder, block_rows, checked_state, close_blocks, lam_packed, mu_words, partition_masks


class CoxeterElement(Frozen):
    """A word in the simple generators, each index 1..n-1 exactly once."""

    # _barring is the word's barring (``barring_of``), derived on first use,
    # a private slot, so ``==``, ``hash`` and ``repr`` ignore it
    __slots__ = ("n", "word", "_barring")

    def __init__(self, n: int, word: tuple[int, ...]):
        word = tuple(word)
        if any(type(x) is not int for x in (n, *word)):
            raise ValueError(f"Coxeter element size and generators must be integers: n={n!r} word={word!r}")
        if n < 1:
            raise ValueError("Coxeter element must have size n >= 1")
        if sorted(word) != list(range(1, n)):
            raise ValueError(f"word must use each generator 1..{n - 1} once, got {word!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "_barring", None)

    @classmethod
    def parse(cls, text: str, n: int) -> "CoxeterElement":
        return cls(n, parse_word(text, "Coxeter word"))

    def __str__(self):
        return ",".join(str(i) for i in self.word)


def all_coxeter_elements(n: int) -> Iterator[CoxeterElement]:
    for word in itertools.permutations(range(1, n)):
        yield CoxeterElement(n, word)


class Barring(NamedTuple):
    """Upper/lower bars on the values 2..n-1 (1 and n are unbarred), and the
    circular order on [n] they induce, starting at 1.  ``upper_mask`` is
    the value mask of ``upper``, the form the orientation rule reads.
    """

    n: int
    lower: frozenset[int]
    upper: frozenset[int]
    cycle: tuple[int, ...]
    upper_mask: int


def barring_of(c: CoxeterElement) -> Barring:
    """The barring of c, derived once per object and kept on it, so a
    caller testing many elements against one word pays for it once."""
    if c._barring is None:
        pos = {gen: k for k, gen in enumerate(c.word)}
        lower = frozenset(i for i in range(2, c.n) if pos[i - 1] < pos[i])
        upper = frozenset(range(2, c.n)) - lower
        top = (c.n,) if c.n > 1 else ()
        cycle = (1, *sorted(lower), *top, *sorted(upper, reverse=True))
        object.__setattr__(c, "_barring", Barring(c.n, lower, upper, cycle, sum(1 << (v - 1) for v in upper)))
    return c._barring


def _sortable(word: tuple[int, ...], upper_mask: int) -> bool:
    """Does the word avoid both barred patterns?  One left-to-right pass.

    The upper 231 is a, b, c in word order with c < a < b and a
    upper-barred: ``armed`` holds the upper-barred values seen so far that
    a later, larger value has followed, so v completes the pattern iff an
    armed value exceeds it.  The lower 312 is a, b, c with b < c < a and c
    lower-barred: ``covered`` holds each value strictly between an earlier
    value and a later, smaller one, so v completes it iff v is covered and
    lower-barred.  The barred role is never 1 or n, so lower-barred reads
    as not in ``upper_mask``.
    """
    seen = armed = covered = top = 0
    for v in word:
        bit = 1 << (v - 1)
        if armed >> v or covered & bit & ~upper_mask:
            return False
        armed |= seen & upper_mask & (bit - 1)
        if v < top:
            covered |= (1 << (top - 1)) - (bit << 1)  # the values v+1 .. top-1
        else:
            top = v
        seen |= bit
    return True


def is_c_sortable(p: Permutation, c: CoxeterElement) -> bool:
    """True iff p avoids both barred patterns for the barring of c.

    >>> c = CoxeterElement.parse("2,1,3,7,6,4,5,8", 9)
    >>> is_c_sortable(Permutation.parse("163425897"), c)
    False
    >>> is_c_sortable(Permutation.parse("123456789"), c)
    True
    """
    if p.n != c.n:
        raise ValueError("permutation and Coxeter element sizes differ")
    return _sortable(p.word, barring_of(c).upper_mask)


def pattern_sortable_permutations(bar: Barring) -> list[Permutation]:
    """The permutations avoiding both barred patterns: a filter over S_n.

    This is the definition, one pass per word (``_sortable``), the
    reference the sorting-word construction is checked against; it reads
    only the word and the upper-barred mask.
    """
    upper = bar.upper_mask
    return [p for p in all_permutations(bar.n) if _sortable(p.word, upper)]


def sortable_permutations(c: CoxeterElement) -> list[Permutation]:
    """The c-sortable permutations, sorted, built from their c-sorting words
    (``_sortable_words``)."""
    return list(map(_of_word, _sortable_words(c)))


def _sortable_words(c: CoxeterElement) -> list[tuple[int, ...]]:
    """The words of the c-sortable permutations, sorted as tuples.

    A search reads c^infinity letter by letter from the identity.  Each
    letter s of the current word is either dropped for good (the rest of
    the word lives in the parabolic subgroup without s), or taken when it
    raises the length: the prefix is multiplied by s on the right, which
    swaps positions s and s+1, and s moves to the end of the word.  A call
    emits its element, the one that drops every letter left, and then
    takes each letter in turn, the letters before it dropped: one call per
    element, Catalan(n) of them, not n! filter tests.  The elements are
    permutation words by construction (products of transpositions of the
    identity), so they are sorted as tuples with no second check.
    """
    found = []
    u = list(range(1, c.n + 1))

    def search(word: tuple[int, ...]) -> None:
        found.append(tuple(u))
        for k, s in enumerate(word):
            if u[s - 1] < u[s]:
                u[s - 1], u[s] = u[s], u[s - 1]
                search((*word[k + 1:], s))
                u[s - 1], u[s] = u[s], u[s - 1]

    search(c.word)
    found.sort()
    return found


def _demands(masks, bar: Barring) -> list[tuple[int, int, bool, bool]]:
    """(i, j, i below j demanded, i above j demanded) for each overlapping
    pair i < j of the disjoint value masks: the orientation rule.

    A witness is a member of one block strictly inside the other's
    interval, and its bar fixes the direction: an upper-barred member of
    block j inside block i puts i below j, a lower-barred one puts it
    above, and a member of i inside j demands the opposite.  Witnesses are
    never 1 or n, so each is barred and the complement of the upper-barred
    mask reads as the lower bars.  Each block's span, strictly-inside mask
    and upper- and lower-barred members are computed once, so a pair costs
    four mask tests.

    This is also the crossing test.  Lemma: two disjoint blocks cross on
    the cycle (two values of each alternate on it) iff their intervals
    overlap and their witnesses demand both directions.  Proof: the cycle
    climbs from 1 to n through the lower-barred values and descends through
    the upper-barred ones, so for 1 < x <= y < n it is four arcs in turn:
    the values below x, the lower-barred values of [x, y], the values above
    y, the upper-barred values of [x, y].  Blocks with disjoint intervals
    lie in the values up to some k and those above k: complementary arcs.
    Otherwise let x be the larger min and y the smaller max.  As the blocks
    are disjoint, the witnesses are their values in [x, y], x among them.
    If every witness demands i below j, i's values there are lower-barred
    and j's upper-barred, and the values below x (above y) all lie in one
    block, so each block lies in its own arc of [x, y] and the outer arcs
    it holds: disjoint arcs, no crossing.  The direction i above j is the
    mirror image.  Conversely, let both directions be demanded.  If one
    block has witnesses with both bars, they lie on both arcs between the
    other block's min and max (take x and y just inside those), so the
    blocks cross.  Otherwise a witness of each block has the same bar, say
    upper (lower is the mirror image): u in j, v in i and u > v, swapping
    i and j if needed.  Then max i > u > v > min j alternate on the cycle:
    it descends from n through u, then v, meets max i before u (on the
    climb or the descent), and min j after v or, on the climb, before
    max i.
    """
    upper = bar.upper_mask
    rows = []  # span, strictly-inside mask, upper- and lower-barred members
    for b in masks:
        low, top = b & -b, b.bit_length()
        rows.append(((1 << top) - low, ((1 << (top - 1)) - 1) & -(low << 1), b & upper, b & ~upper))
    demands = []
    for i, (span_i, inside_i, upper_i, lower_i) in enumerate(rows):
        for j in range(i + 1, len(rows)):
            span_j, inside_j, upper_j, lower_j = rows[j]
            if span_i & span_j:
                below = upper_j & inside_i or lower_i & inside_j
                above = lower_j & inside_i or upper_i & inside_j
                demands.append((i, j, below != 0, above != 0))
    return demands


def _misoriented(masks, ups, demands) -> bool:
    """Is a pair of ``_demands`` against the direction the up-sets give?"""
    return any(above if ups[i] & masks[j] else below for i, j, below, above in demands)


def is_noncrossing_preorder(w: Preorder, c: CoxeterElement) -> bool:
    """Blocks noncrossing on the cycle and every overlap oriented by its bar.

    One test decides both: a crossing pair is demanded both ways
    (``_demands``), so whichever way w relates it, it is misoriented.
    """
    if w.n != c.n:
        raise ValueError("pre-order and Coxeter element sizes differ")
    masks = checked_state(w)
    return not _misoriented(masks, block_rows(w, masks), _demands(masks, barring_of(c)))


def noncrossing_preorders(c: CoxeterElement) -> list[Preorder]:
    """All noncrossing pre-orders for c, in the lexicographic order of their lam
    words: mu of the sorted c-sortable words (Reading, arXiv:0909.3288), in one
    ``mu_words`` pass."""
    return mu_words(_sortable_words(c), c.n)


def noncrossing_order_of_partition(block_sets, c: CoxeterElement) -> Preorder:
    """The unique noncrossing pre-order with the given noncrossing blocks.

    Crossing blocks raise ``CrossingPartitionError`` (``_order_of_partition``).
    """
    return _order_of_partition(partition_masks(block_sets, c.n), barring_of(c))


def _order_of_partition(masks: list[int], bar: Barring) -> Preorder:
    """The noncrossing pre-order whose blocks are the value masks.

    This is partition mode (``noncrossing_order_of_partition``), where no
    word exists, and the check of Reading's theorem in ``verify --suite
    sortable``.  Each overlapping pair is oriented by the mask rule
    ``_demands``; a pair demanded both ways crosses (the lemma there),
    which raises ``CrossingPartitionError``.  The blocks are closed on
    their own (``close_blocks``, no rows), and two checks run on that block
    state: the closure kept the given blocks, and they have a run order
    (the slot pass of ``lam_packed``, which writes the packed bits in the
    same walk).  The pre-order carries its blocks (``checked_state``),
    which need no scan:

    - No pair is oriented against its demand: each demanded direction is a
      generator of the closure, and no given blocks merged.
    - (P1): every overlapping pair is such a generator, so it is related.
    - (P2): a cover a < c of the closure is a generator.  A longer chain of
      generators from a to c would pass through a block strictly between
      them, strictly because no blocks merged.  Every generator overlaps.
    """
    less = []
    for i, j, below, above in _demands(masks, bar):
        if below and above:
            raise CrossingPartitionError("blocks interleave on the cycle of c")
        less.append((i, j) if below else (j, i))
    state = close_blocks(masks, less)
    if state is None:
        raise InvariantError("orientation closure collapsed the given blocks")
    return lam_packed(bar.n, *state)[1]
