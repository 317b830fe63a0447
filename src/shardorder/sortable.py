"""
Coxeter elements, barrings, and noncrossing pre-orders.

A Coxeter element is a word using each adjacent transposition s_1..s_{n-1}
exactly once.  It bars each value 2..n-1 (lower if s_{i-1} precedes s_i,
upper otherwise) and induces a circular order on [n]: 1, the lower-barred
values ascending, n, then the upper-barred values descending.

A permutation is c-sortable iff it avoids both barred patterns; under mu
the c-sortable permutations are exactly the pre-orders whose blocks are
noncrossing on the cycle and whose overlapping blocks are oriented by the
bar of any strictly inside witness.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    block_order,
    blocks,
    mu,
    require_permutation_preorder,
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
    """Upper/lower bars on the values 2..n-1 (1 and n are unbarred)."""

    n: int
    lower: frozenset[int]
    upper: frozenset[int]


def barring_of(c: CoxeterElement) -> Barring:
    pos = {gen: k for k, gen in enumerate(c.word)}
    lower = frozenset(i for i in range(2, c.n) if pos[i - 1] < pos[i])
    upper = frozenset(i for i in range(2, c.n) if pos[i - 1] > pos[i])
    return Barring(c.n, lower, upper)


@dataclass(frozen=True)
class CycleOrder:
    """The circular order induced by a barring, starting at 1."""

    cycle: tuple[int, ...]

    def position(self, value: int) -> int:
        return self.cycle.index(value)


def cycle_of(c: CoxeterElement) -> CycleOrder:
    bar = barring_of(c)
    cycle = [1]
    cycle.extend(sorted(bar.lower))
    if c.n > 1:
        cycle.append(c.n)
    cycle.extend(sorted(bar.upper, reverse=True))
    return CycleOrder(tuple(cycle))


def is_c_sortable(p: Permutation, c: CoxeterElement) -> bool:
    """True iff p avoids both barred patterns for the barring of c."""
    if p.n != c.n:
        raise ValueError("permutation and Coxeter element sizes differ")
    bar = barring_of(c)
    return not contains_barred_pattern(
        p, BarredPattern.UPPER_231, bar
    ) and not contains_barred_pattern(p, BarredPattern.LOWER_312, bar)


def sortable_permutations(c: CoxeterElement) -> list[Permutation]:
    return [p for p in all_permutations(c.n) if is_c_sortable(p, c)]


def _cross(cycle: CycleOrder, first: Iterable[int], second: Iterable[int]) -> bool:
    """Do the two vertex sets interleave on the circle?

    They cross iff some chord of the first set has members of the second
    strictly on both sides.
    """
    n = len(cycle.cycle)
    pos1 = sorted(cycle.position(v) for v in first)
    pos2 = sorted(cycle.position(v) for v in second)
    for a, b in itertools.combinations(pos1, 2):
        offsets = [(p - a) % n for p in pos2]
        span = (b - a) % n
        if any(0 < r < span for r in offsets) and any(r > span for r in offsets):
            return True
    return False


def blocks_noncrossing(block_sets, cycle: CycleOrder) -> bool:
    """No two blocks interleave on the cycle."""
    sets = [set(b) for b in block_sets]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if _cross(cycle, sets[i], sets[j]):
                return False
    return True


def _orientation_demands(b1: Block, b2: Block, bar: Barring):
    """Directions forced on an overlapping block pair by inside witnesses.

    Yields +1 for b1 below b2 and -1 for b1 above b2.  A witness is a
    member of one block strictly inside the other's interval; its bar fixes
    the direction.  Such witnesses are never 1 or n, so they are barred.
    """
    for v in b2.members:
        if b1.min < v < b1.max:
            yield 1 if v in bar.upper else -1
    for v in b1.members:
        if b2.min < v < b2.max:
            yield -1 if v in bar.upper else 1


def is_noncrossing_preorder(w: Preorder, c: CoxeterElement) -> bool:
    """Blocks noncrossing on the cycle and every overlap oriented by its bar."""
    if w.n != c.n:
        raise ValueError("pre-order and Coxeter element sizes differ")
    require_permutation_preorder(w)
    cyc = cycle_of(c)
    bs = blocks(w)
    if not blocks_noncrossing([b.members for b in bs], cyc):
        return False
    bar = barring_of(c)
    bo = block_order(w)
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            if not bs[i].overlaps(bs[j]):
                continue
            reps = (next(iter(bs[i].members)), next(iter(bs[j].members)))
            below = w.leq(reps[0], reps[1])
            for demand in _orientation_demands(bs[i], bs[j], bar):
                if (demand > 0) != below:
                    return False
    return True


def noncrossing_preorders(c: CoxeterElement) -> list[Preorder]:
    """All noncrossing pre-orders for c, by filtering the lattice elements."""
    return [
        q
        for q in (mu(p) for p in all_permutations(c.n))
        if is_noncrossing_preorder(q, c)
    ]


def noncrossing_order_of_partition(block_sets, c: CoxeterElement) -> Preorder:
    """The unique noncrossing pre-order with the given noncrossing blocks.

    Overlapping blocks are oriented by their witnesses' bars; conflicting
    demands would mean the partition admits no such pre-order, which the
    theory rules out for noncrossing input, so that case is fatal.
    """
    sets = [frozenset(b) for b in block_sets]
    ground = set()
    for s in sets:
        if not s:
            raise ValueError("empty block")
        if ground & s:
            raise ValueError("blocks are not disjoint")
        ground |= s
    if ground != set(range(1, c.n + 1)):
        raise ValueError(f"blocks do not partition [1,{c.n}]")
    cyc = cycle_of(c)
    if not blocks_noncrossing(sets, cyc):
        raise CrossingPartitionError("blocks interleave on the cycle of c")

    bar = barring_of(c)
    bs = [Block.of(s) for s in sets]
    pairs = []
    for b in bs:
        pairs.extend((x, y) for x in b.members for y in b.members)
    for b1, b2 in itertools.combinations(bs, 2):
        if not b1.overlaps(b2):
            continue
        demands = set(_orientation_demands(b1, b2, bar))
        if len(demands) != 1:
            raise InvariantError(
                f"witnesses disagree on the orientation of {b1} vs {b2}"
            )
        low, high = (b1, b2) if demands == {1} else (b2, b1)
        pairs.extend((x, y) for x in low.members for y in high.members)
    q = Preorder.from_pairs(c.n, pairs)
    if {b.members for b in blocks(q)} != set(sets):
        raise InvariantError("orientation closure collapsed the given blocks")
    require_permutation_preorder(q)
    if not is_noncrossing_preorder(q, c):
        raise InvariantError("constructed pre-order is not noncrossing")
    return q
