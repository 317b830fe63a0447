"""Small definitional helpers that only the tests use.

The extreme words of S_n, the inversion set (the order ``mu`` must
respect), the descending runs as value tuples (what ``run_masks`` must
read), the two Coxeter words that bar every value one way, and the
barred patterns found by the literal search over value triples (what
``is_c_sortable`` must decide).
"""
import itertools

from shardorder.perms import Permutation
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
