import doctest

import pytest

import shardorder.perms
from shardorder.perms import Permutation, all_permutations
from shardorder.preorders import mask_values, run_masks
from shardorder.sortable import CoxeterElement, all_coxeter_elements, barring_of, is_c_sortable

from oracles import (
    avoids_barred_patterns,
    descending_runs,
    identity,
    inversions,
    is_indecomposable,
    lower_312,
    reversal,
    upper_231,
)

P = Permutation.parse


def test_doctests():
    failures, _ = doctest.testmod(shardorder.perms)
    assert failures == 0


def test_parse_and_str():
    assert P("4312").word == (4, 3, 1, 2)
    assert P("2,6,3,1,4,7,5,8") == P("26314758")
    assert str(P("26314758")) == "26314758"
    big = Permutation(tuple(range(1, 12)))
    assert str(big) == "1,2,3,4,5,6,7,8,9,10,11"
    assert Permutation.parse(str(big)) == big


@pytest.mark.parametrize("bad", ["", "0", "11", "132 4", "1,2,2", "124", "1,2,x"])
def test_parse_rejects(bad):
    # a token that is not an integer gets an error naming the whole text
    match = f"cannot parse permutation from '{bad}'" if bad in ("132 4", "1,2,x") else None
    with pytest.raises(ValueError, match=match):
        P(bad)


@pytest.mark.parametrize("n", [0, -1])
def test_all_permutations_needs_a_positive_n(n):
    with pytest.raises(ValueError, match="n must be positive"):
        all_permutations(n)


def test_inversions_identity_empty():
    assert inversions(identity(5)) == set()


def test_inversions_4312():
    assert inversions(P("4312")) == {(4, 3), (4, 1), (4, 2), (3, 1), (3, 2)}


def test_inversions_1642735():
    # every pair of a larger value before a smaller one in 1 6 4 2 7 3 5
    assert inversions(P("1642735")) == {(6, 4), (6, 2), (6, 3), (6, 5), (4, 2), (4, 3), (7, 3), (7, 5)}


def test_inversion_count_extremes():
    for n in range(1, 6):
        for p in all_permutations(n):
            count = len(inversions(p))
            assert (count == 0) == (p == identity(n))
            assert (count == n * (n - 1) // 2) == (p == reversal(n))


def _runs(word):
    """The runs ``run_masks`` reads, each as its values in word order."""
    return [tuple(reversed(mask_values(m))) for m in run_masks(word)]


def test_descending_runs_paper_examples():
    assert _runs(P("1642735").word) == [
        (1,),
        (6, 4, 2),
        (7, 3),
        (5,),
    ]
    assert _runs(P("26314758").word) == [
        (2,),
        (6, 3, 1),
        (4,),
        (7, 5),
        (8,),
    ]
    assert all(len(r) == 1 for r in _runs(identity(6).word))


def test_runs_concatenate_to_word():
    for n in range(1, 7):
        for p in all_permutations(n):
            runs = descending_runs(p)
            assert tuple(v for r in runs for v in r) == p.word
            assert _runs(p.word) == runs


def test_descents_are_within_run_adjacencies():
    for p in all_permutations(5):
        w = p.word
        descents = {(w[i], w[i + 1]) for i in range(p.n - 1) if w[i] > w[i + 1]}
        within = {(r[i], r[i + 1]) for r in _runs(w) for i in range(len(r) - 1)}
        assert descents == within


def test_barred_patterns_example():
    c = CoxeterElement.parse("2,1,3,7,6,4,5,8", 9)
    bar = barring_of(c)
    p = P("163425897")
    assert set(lower_312(p, bar)) == {(6, 3, 4), (6, 3, 5), (6, 4, 5), (6, 2, 5)}
    assert upper_231(p, bar) == []
    assert not is_c_sortable(p, c)


def test_identity_avoids_both_patterns():
    for n in range(1, 7):
        for c in all_coxeter_elements(n):
            assert avoids_barred_patterns(identity(n), barring_of(c))
            assert is_c_sortable(identity(n), c)


def test_barred_role_is_never_extreme():
    # the "2" role value always lies strictly between two others, so a
    # barring over 2..n-1 covers every candidate: even with every value of
    # [5] barred both ways, the role is never 1 or 5
    every = frozenset(range(1, 6))
    bar = barring_of(CoxeterElement.parse("3,1,2,4", 5))._replace(lower=every, upper=every)
    for p in all_permutations(5):
        assert all(2 <= a <= 4 for a, _, _ in upper_231(p, bar))
        assert all(2 <= c <= 4 for _, _, c in lower_312(p, bar))


def test_is_indecomposable():
    assert is_indecomposable(P("1"))
    assert not is_indecomposable(P("2134"))
    counts = [
        sum(is_indecomposable(p) for p in all_permutations(n)) for n in range(1, 7)
    ]
    assert counts == [1, 1, 3, 13, 71, 461]
