"""Small definitional helpers that only the tests use.

The extreme words of S_n, the inversion set (the order ``mu`` must
respect), the descending runs as value tuples (what ``run_masks`` must
read), ``mu`` read literally off those runs (what ``mu_words`` must
compute), the two Coxeter words that bar every value one way, and the
barred patterns found by the literal search over value triples (what
``is_c_sortable`` must decide), and the noncrossing partitions of a
cycle found by the literal alternation rule over every set partition
(what the block partitions of the noncrossing pre-orders must be), the
indecomposable permutations read literally off their prefixes (what
``verify --suite mobius`` counts by a recursion), and the meet and the
covers read off the shards, the atoms of the lattice (what ``meet`` and
``covers_up`` must compute).
"""
import itertools
from functools import reduce

from shardorder.lattice import join
from shardorder.perms import Permutation
from shardorder.preorders import Preorder, blocks
from shardorder.shards import enumerate_shards, intersect, to_preorder
from shardorder.sortable import CoxeterElement


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def reversal(n: int) -> Permutation:
    """The word n, n-1, ..., 1 (maximal element of the lattice under mu)."""
    return Permutation(tuple(range(n, 0, -1)))


def inversions(p: Permutation) -> set[tuple[int, int]]:
    """Value pairs (a, b) with a before b in the word and a > b."""
    w = p.word
    return {(w[i], w[j]) for i in range(p.n) for j in range(i + 1, p.n) if w[i] > w[j]}


def descending_runs(p: Permutation) -> list[tuple[int, ...]]:
    """The maximal strictly decreasing factors of the word, left to right."""
    w = p.word
    runs, start = [], 0
    for i in range(p.n):
        if i + 1 == p.n or w[i] < w[i + 1]:
            runs.append(w[start : i + 1])
            start = i + 1
    return runs


def is_indecomposable(p: Permutation) -> bool:
    """True iff no proper prefix of the word is a permutation of 1..k.

    Counting these over S_n gives 1, 1, 3, 13, 71, 461, ... which is also
    the absolute Moebius number of the full lattice.
    """
    top = 0
    for k, value in enumerate(p.word[:-1], start=1):
        top = max(top, value)
        if top == k:
            return False
    return True


def mu_by_definition(p: Permutation) -> Preorder:
    """mu read literally: the values of each descending run are related
    both ways, every value of a run is below every value of each run
    further right whose value interval meets it, and ``Preorder.from_pairs``
    closes the relation."""
    runs = descending_runs(p)
    pairs = [(a, b) for run in runs for a in run for b in run]
    for i, left in enumerate(runs):
        for right in runs[i + 1 :]:
            if min(left) <= max(right) and min(right) <= max(left):
                pairs += [(a, b) for a in left for b in right]
    return Preorder.from_pairs(p.n, pairs)


def linear_coxeter(n: int) -> CoxeterElement:
    """s_1 s_2 ... s_{n-1}: every value lower-barred."""
    return CoxeterElement(n, tuple(range(1, n)))


def reversed_coxeter(n: int) -> CoxeterElement:
    """s_{n-1} ... s_1: every value upper-barred."""
    return CoxeterElement(n, tuple(range(n - 1, 0, -1)))


def upper_231(p: Permutation, bar) -> list[tuple[int, int, int]]:
    """Value triples a, b, c in word order with c < a < b and a upper-barred."""
    return [(a, b, c) for a, b, c in itertools.combinations(p.word, 3) if c < a < b and a in bar.upper]


def lower_312(p: Permutation, bar) -> list[tuple[int, int, int]]:
    """Value triples a, b, c in word order with b < c < a and c lower-barred."""
    return [(a, b, c) for a, b, c in itertools.combinations(p.word, 3) if b < c < a and c in bar.lower]


def avoids_barred_patterns(p: Permutation, bar) -> bool:
    return not upper_231(p, bar) and not lower_312(p, bar)


def set_partitions(values):
    """Every set partition of the list ``values``, as lists of value masks."""
    if not values:
        yield []
        return
    first = 1 << (values[0] - 1)
    for part in set_partitions(values[1:]):
        yield [first, *part]
        for k in range(len(part)):
            yield [*part[:k], part[k] | first, *part[k + 1 :]]


def crosses(m1: int, m2: int, cycle) -> bool:
    """Do two disjoint value masks interleave on the cycle?  The definition
    read literally: two values of each alternate in cycle order."""
    a = [k for k, v in enumerate(cycle) if m1 >> (v - 1) & 1]
    b = [k for k, v in enumerate(cycle) if m2 >> (v - 1) & 1]
    return any(
        w < x < y < z or x < w < z < y
        for w, y in itertools.combinations(a, 2)
        for x, z in itertools.combinations(b, 2)
    )


def crossing_free(masks, cycle) -> bool:
    return not any(crosses(m1, m2, cycle) for m1, m2 in itertools.combinations(masks, 2))


def noncrossing_partitions(bar) -> list[list[int]]:
    """Every set partition of [n] whose blocks pairwise do not cross on
    ``bar.cycle``, as lists of value masks."""
    return [part for part in set_partitions(list(range(1, bar.n + 1))) if crossing_free(part, bar.cycle)]


def atoms(n: int) -> list[Preorder]:
    """The atoms of the lattice on [n]: the pre-order of each shard."""
    return [to_preorder(intersect([s])) for s in enumerate_shards(n)]


def meet_by_atoms(a: Preorder, b: Preorder) -> Preorder:
    """The meet read off atomisticity: the join of the atoms whose
    relations lie inside both a and b."""
    common = a.bits & b.bits
    return reduce(join, [s for s in atoms(a.n) if s.bits & ~common == 0], Preorder.discrete(a.n))


def covers_by_atoms(x: Preorder) -> set[Preorder]:
    """The covers of x read off atomisticity: x joined with each atom not
    below it, where that join has one block fewer than x (rank one more)."""
    rank = len(blocks(x))
    joins = {join(x, s) for s in atoms(x.n) if not s <= x}
    return {y for y in joins if len(blocks(y)) == rank - 1}
