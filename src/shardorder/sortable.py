"""
Coxeter elements, barrings, and noncrossing pre-orders.

A Coxeter element is a word using each adjacent transposition s_1..s_{n-1}
exactly once.  It bars each value 2..n-1 (lower if s_{i-1} precedes s_i,
upper otherwise) and induces a circular order on [n]: 1, the lower-barred
values ascending, n, then the upper-barred values descending.

A permutation is c-sortable iff it avoids both barred patterns; that is
the defining predicate (``is_c_sortable``).  The elements themselves are
built from their c-sorting words (Reading, arXiv:math/0507186): reduced
subwords c_{K1} c_{K2} ... of c^infinity whose letter sets shrink, each
K containing the next.  Under mu the c-sortable permutations are exactly
the pre-orders whose blocks are noncrossing on the cycle and whose
overlapping blocks are oriented by the bar of any strictly inside
witness.  Each noncrossing partition of the cycle is the block partition
of exactly one of them, so they are built from those partitions.  Neither
construction passes over S_n.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import CrossingPartitionError, InvariantError
from .perms import (
    BarredPattern,
    Permutation,
    all_permutations,
    contains_barred_pattern,
)
from .preorders import (
    Block,
    Preorder,
    blocks,
    lam_word,
    mask_values,
    partition_masks,
    require_permutation_preorder,
    span,
)


@dataclass(frozen=True)
class CoxeterElement:
    """A word in the simple generators, each index 1..n-1 exactly once."""

    n: int
    word: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.word) != list(range(1, self.n)):
            raise ValueError(
                f"word must use each generator 1..{self.n - 1} once, got {self.word!r}"
            )

    @classmethod
    def parse(cls, text: str, n: int) -> "CoxeterElement":
        text = text.strip()
        if not text:
            return cls(n, ())
        if "," in text:
            word = tuple(int(tok) for tok in text.split(","))
        else:
            word = tuple(int(ch) for ch in text)
        return cls(n, word)

    def __str__(self):
        return ",".join(str(i) for i in self.word)


def linear_coxeter(n: int) -> CoxeterElement:
    """s_1 s_2 ... s_{n-1}: every value lower-barred."""
    return CoxeterElement(n, tuple(range(1, n)))


def reversed_coxeter(n: int) -> CoxeterElement:
    """s_{n-1} ... s_1: every value upper-barred."""
    return CoxeterElement(n, tuple(range(n - 1, 0, -1)))


def all_coxeter_elements(n: int) -> Iterator[CoxeterElement]:
    for word in itertools.permutations(range(1, n)):
        yield CoxeterElement(n, word)


@dataclass(frozen=True)
class Barring:
    """Upper/lower bars on the values 2..n-1 (1 and n are unbarred), and the
    circular order on [n] they induce, starting at 1."""

    n: int
    lower: frozenset[int]
    upper: frozenset[int]
    cycle: tuple[int, ...]


def barring_of(c: CoxeterElement) -> Barring:
    pos = {gen: k for k, gen in enumerate(c.word)}
    lower = frozenset(i for i in range(2, c.n) if pos[i - 1] < pos[i])
    upper = frozenset(range(2, c.n)) - lower
    top = (c.n,) if c.n > 1 else ()
    cycle = (1, *sorted(lower), *top, *sorted(upper, reverse=True))
    return Barring(c.n, lower, upper, cycle)


def cycle_of(c: CoxeterElement) -> tuple[int, ...]:
    return barring_of(c).cycle


def _sortable(p: Permutation, bar: Barring) -> bool:
    return not contains_barred_pattern(
        p, BarredPattern.UPPER_231, bar
    ) and not contains_barred_pattern(p, BarredPattern.LOWER_312, bar)


def is_c_sortable(p: Permutation, c: CoxeterElement) -> bool:
    """True iff p avoids both barred patterns for the barring of c."""
    if p.n != c.n:
        raise ValueError("permutation and Coxeter element sizes differ")
    return _sortable(p, barring_of(c))


def pattern_sortable_permutations(bar: Barring) -> list[Permutation]:
    """The permutations avoiding both barred patterns: a filter over S_n.

    This is the definition read literally, the reference the sorting-word
    construction is checked against.
    """
    return [p for p in all_permutations(bar.n) if _sortable(p, bar)]


def sortable_permutations(c: CoxeterElement) -> list[Permutation]:
    """The c-sortable permutations, sorted, built from their c-sorting words.

    A search reads c^infinity letter by letter from the identity.  The
    first letter s of the current word is either dropped for good (the
    rest of the word lives in the parabolic subgroup without s), or taken
    when it raises the length: the prefix is multiplied by s on the right,
    which swaps positions s and s+1, and s moves to the end of the word.
    Each branch that has dropped every letter is one element, so the cost
    is Catalan(n) leaves, not n! filter tests.
    """
    found = []
    u = list(range(1, c.n + 1))

    def search(word: tuple[int, ...]) -> None:
        if not word:
            found.append(Permutation(tuple(u)))
            return
        s, rest = word[0], word[1:]
        search(rest)
        if u[s - 1] < u[s]:
            u[s - 1], u[s] = u[s], u[s - 1]
            search((*rest, s))
            u[s - 1], u[s] = u[s], u[s - 1]

    search(c.word)
    return sorted(found)


def _crosses(a: int, b: int) -> bool:
    """Do two disjoint, nonempty position masks interleave on the circle?

    They do not iff b misses the span of a, or lies in one gap between
    consecutive members of a.
    """
    inside = b & span(a)
    if not inside:
        return False
    low = inside & -inside
    after = a & -(low << 1)  # members of a past low
    before = a & (low - 1)
    gap = ((after & -after) - 1) & -(1 << before.bit_length())
    return bool(b & ~gap)


def _places(masks, cycle: tuple[int, ...]) -> list[int]:
    """The cycle-position mask of each value mask."""
    bit = {v: 1 << k for k, v in enumerate(cycle)}
    return [sum(bit[v] for v in mask_values(mask)) for mask in masks]


def _places_noncrossing(places) -> bool:
    """No two of the disjoint position masks interleave on the circle."""
    return not any(_crosses(a, b) for a, b in itertools.combinations(places, 2))


def blocks_noncrossing(masks, cycle: tuple[int, ...]) -> bool:
    """No two of the disjoint value masks interleave on the cycle."""
    return _places_noncrossing(_places(masks, cycle))


def _orientation_demands(b1: Block, b2: Block, bar: Barring):
    """Directions forced on an overlapping block pair by inside witnesses.

    Yields +1 for b1 below b2 and -1 for b1 above b2.  A witness is a
    member of one block strictly inside the other's interval; its bar fixes
    the direction.  Such witnesses are never 1 or n, so they are barred.
    """
    for outer, witnesses, sign in ((b1, b2, 1), (b2, b1, -1)):
        strictly_inside = ((1 << (outer.max - 1)) - 1) & -(1 << outer.min)
        for v in mask_values(witnesses.mask & strictly_inside):
            yield sign if v in bar.upper else -sign


def _noncrossing(w: Preorder, bar: Barring) -> bool:
    bs = blocks(w)
    if not blocks_noncrossing([b.mask for b in bs], bar.cycle):
        return False
    for b1, b2 in itertools.combinations(bs, 2):
        if b1.overlaps(b2):
            below = 1 if w.leq(b1.min, b2.min) else -1
            if any(demand != below for demand in _orientation_demands(b1, b2, bar)):
                return False
    return True


def is_noncrossing_preorder(w: Preorder, c: CoxeterElement) -> bool:
    """Blocks noncrossing on the cycle and every overlap oriented by its bar."""
    if w.n != c.n:
        raise ValueError("pre-order and Coxeter element sizes differ")
    require_permutation_preorder(w)
    return _noncrossing(w, barring_of(c))


def _noncrossing_partitions(cells: list[tuple[int, int]]):
    """Noncrossing partitions of consecutive cycle positions.

    ``cells[k]`` is the (value mask, position mask) pair of the k-th
    position, and each block is the union of its cells, so the partitions
    come with the position masks the crossing check reads.  The block of
    the first position comes first: either it stands alone, or its next
    member is some position j and the positions strictly between them are
    partitioned on their own.
    """
    if not cells:
        yield []
        return
    for rest in _noncrossing_partitions(cells[1:]):
        yield [cells[0], *rest]
    value, place = cells[0]
    for j in range(1, len(cells)):
        for inner in _noncrossing_partitions(cells[1:j]):
            for rest in _noncrossing_partitions(cells[j:]):
                next_value, next_place = rest[0]
                yield [(value | next_value, place | next_place), *inner, *rest[1:]]


def noncrossing_preorders(c: CoxeterElement) -> list[Preorder]:
    """All noncrossing pre-orders for c, in the lexicographic order of their lam words.

    One per noncrossing partition of the cycle of c (Reading,
    arXiv:0909.3288), so the cost is Catalan(n) constructions, not n!.
    Each element's sort key is read while its blocks are still cached.
    """
    bar = barring_of(c)
    cells = [(1 << (v - 1), 1 << k) for k, v in enumerate(bar.cycle)]
    keyed = []
    for part in _noncrossing_partitions(cells):
        q = _order_of_partition([v for v, _ in part], [p for _, p in part], bar)
        keyed.append((lam_word(q), q))
    keyed.sort(key=lambda kq: kq[0])
    return [q for _, q in keyed]


def noncrossing_order_of_partition(block_sets, c: CoxeterElement) -> Preorder:
    """The unique noncrossing pre-order with the given noncrossing blocks."""
    bar = barring_of(c)
    masks = partition_masks(block_sets, c.n)
    return _order_of_partition(masks, _places(masks, bar.cycle), bar)


def _order_of_partition(masks: list[int], places: list[int], bar: Barring) -> Preorder:
    """The noncrossing pre-order whose blocks are the value masks.

    ``places`` holds the cycle-position mask of each block.  Overlapping
    blocks are oriented by their witnesses' bars; conflicting demands would
    mean the partition admits no such pre-order, which the theory rules out
    for noncrossing input, so that case is fatal.  The closing check reads
    the blocks of the result afresh, not ``places``.
    """
    if not _places_noncrossing(places):
        raise CrossingPartitionError("blocks interleave on the cycle of c")
    bs = [Block.of(mask) for mask in masks]
    less = []
    for (i, b1), (j, b2) in itertools.combinations(enumerate(bs), 2):
        if not b1.overlaps(b2):
            continue
        demands = set(_orientation_demands(b1, b2, bar))
        if len(demands) != 1:
            raise InvariantError(f"witnesses disagree on the orientation of {b1} vs {b2}")
        less.append((i, j) if demands == {1} else (j, i))
    q = Preorder.from_blocks(bar.n, masks, less)
    if {b.mask for b in blocks(q)} != set(masks):
        raise InvariantError("orientation closure collapsed the given blocks")
    require_permutation_preorder(q)
    if not _noncrossing(q, bar):
        raise InvariantError("constructed pre-order is not noncrossing")
    return q
