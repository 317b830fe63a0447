import itertools
import random

import pytest

from shardorder.perms import Permutation, all_permutations
from shardorder.preorders import Preorder, blocks, mu
from shardorder.shards import (
    Shard,
    ShardIntersection,
    enumerate_shards,
    intersect,
    lower_shards,
    to_preorder,
)

from oracles import identity, reversal

P = Permutation.parse


def cone_preorder(p):
    return to_preorder(intersect(lower_shards(p), n=p.n))


@pytest.mark.parametrize("n", [0, -1])
def test_enumerate_shards_needs_a_positive_n(n):
    with pytest.raises(ValueError, match="n must be positive"):
        enumerate_shards(n)


def test_enumerate_n2():
    shards = enumerate_shards(2)
    assert shards == [Shard(2, 1, 2, ())]


def test_enumerate_h14_patterns():
    shards = [s for s in enumerate_shards(4) if (s.i, s.j) == (1, 4)]
    assert {s.eps for s in shards} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    top = Shard(4, 1, 4, (1, -1))  # x1=x4, x1<=x2, x3<=x1
    assert top in shards
    assert top.eps == (1, -1)  # eps_2 = +1, eps_3 = -1


def test_census():
    assert len(enumerate_shards(4)) == 11
    for n in range(1, 9):
        expected = sum(2 ** (j - i - 1) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        assert len(enumerate_shards(n)) == expected


def test_shard_text():
    s = Shard(7, 1, 4, (1, -1))
    assert str(s) == "H(1,4)[+-]"
    assert str(Shard(4, 2, 3, ())) == "H(2,3)[]"
    with pytest.raises(ValueError):
        Shard(4, 3, 1, ())
    with pytest.raises(ValueError):
        Shard(4, 1, 4, (1,))


def test_lower_shards_4312():
    got = lower_shards(P("4312"))
    assert {(s.i, s.j) for s in got} == {(1, 3), (3, 4)}
    h13 = next(s for s in got if (s.i, s.j) == (1, 3))
    assert h13.eps == (1,)  # eps_2: (2,1) is not an inversion, so x1 <= x2


def test_lower_shards_are_the_checked_shards():
    # the unchecked shards of lower_shards, against Shard's own checks and
    # the definition: one shard per descent ji, eps_k = -1 iff k is before i
    for n in range(1, 7):
        for p in all_permutations(n):
            w = p.word
            want = [
                Shard(n, i, j, tuple(-1 if w.index(k) < w.index(i) else 1 for k in range(i + 1, j)))
                for j, i in zip(w, w[1:])
                if j > i
            ]
            assert lower_shards(p) == want, p


def test_lower_shards_extremes():
    assert lower_shards(identity(5)) == []
    rev = lower_shards(reversal(5))
    assert [(s.i, s.j) for s in rev] == [(4, 5), (3, 4), (2, 3), (1, 2)]
    assert all(s.eps == () for s in rev)


def test_intersect_empty_is_whole_space():
    g = intersect([], n=5)
    assert g.equalities == frozenset() and g.inequalities == frozenset()
    assert to_preorder(g) == Preorder.discrete(5)
    with pytest.raises(ValueError):
        intersect([])


def test_intersect_mixed_sizes_rejected():
    with pytest.raises(ValueError):
        intersect([Shard(4, 1, 2, ()), Shard(5, 1, 2, ())])
    with pytest.raises(ValueError):
        intersect([Shard(4, 1, 2, ())], n=5)


def test_intersect_example_31():
    g = intersect([Shard(7, 1, 4, (1, -1)), Shard(7, 6, 7, ())])
    assert g.equalities == frozenset({frozenset({1, 4}), frozenset({6, 7})})
    assert g.inequalities == frozenset({(1, 2), (3, 1), (3, 2), (3, 4), (4, 2)})
    fig2 = to_preorder(g)
    assert [sorted(b.members) for b in blocks(fig2)] == [[1, 4], [2], [3], [5], [6, 7]]
    assert fig2 == mu(P("3412576"))


def test_intersect_lower_shards_4312():
    g = intersect(lower_shards(P("4312")))
    assert g.equalities == frozenset(
        {frozenset({1, 3}), frozenset({1, 4}), frozenset({3, 4})}
    )
    assert g.inequalities == frozenset({(1, 2), (3, 2), (4, 2)})


def test_geometric_oracle_small():
    for n in range(1, 6):
        for p in all_permutations(n):
            assert cone_preorder(p) == mu(p), p


def test_cone_map_injective():
    for n in range(1, 6):
        seen = {}
        for p in all_permutations(n):
            q = cone_preorder(p)
            assert q not in seen, (p, seen[q])
            seen[q] = p


def test_all_subsets_hit_exactly_the_image_n3():
    shards = enumerate_shards(3)
    image = {mu(p) for p in all_permutations(3)}
    hit = set()
    for r in range(len(shards) + 1):
        for combo in itertools.combinations(shards, r):
            hit.add(to_preorder(intersect(combo, n=3)))
    assert hit == image


def test_single_shard_preorders_shape():
    for n in range(2, 7):
        for s in enumerate_shards(n):
            q = to_preorder(intersect([s]))
            bs = blocks(q)
            doubletons = [b for b in bs if len(b.members) == 2]
            assert len(doubletons) == 1 and len(bs) == n - 1
            assert doubletons[0].members == frozenset({s.i, s.j})
            for b in bs:
                if len(b.members) == 1:
                    (v,) = b.members
                    comparable = q.leq(v, s.i) or q.leq(s.i, v)
                    assert comparable == (s.i < v < s.j)


def reference_intersection(shards, n):
    """(equalities, inequalities, pre-order) of an intersection, built the way
    the closed pairs were once stored: the shard constraints as pairs, closed
    pair by pair, split into frozensets of two-sided and one-way pairs, and
    read back into a pre-order by ``Preorder.from_pairs``, which closes again."""
    pairs = set()
    for s in shards:
        pairs |= {(s.i, s.j), (s.j, s.i)}
        pairs |= {(s.i, k) if e > 0 else (k, s.i) for k, e in enumerate(s.eps, start=s.i + 1)}
    while True:
        more = {(a, d) for a, b in pairs for c, d in pairs if b == c and a != d} - pairs
        if not more:
            break
        pairs |= more
    eqs = frozenset(frozenset(pair) for pair in pairs if pair[::-1] in pairs)
    ineqs = frozenset(pair for pair in pairs if pair[::-1] not in pairs)
    back = list(ineqs) + [pair for eq in eqs for pair in (tuple(sorted(eq)), tuple(sorted(eq))[::-1])]
    return eqs, ineqs, Preorder.from_pairs(n, back)


def _agrees_with_reference(shards, n):
    g = intersect(shards, n=n)
    eqs, ineqs, q = reference_intersection(shards, n)
    return (g.equalities, g.inequalities, to_preorder(g)) == (eqs, ineqs, q)


def test_intersection_matches_the_pair_reference_on_every_subset():
    for n in range(1, 5):
        shards = enumerate_shards(n)
        for r in range(len(shards) + 1):
            for combo in itertools.combinations(shards, r):
                assert _agrees_with_reference(combo, n), combo


def test_intersection_matches_the_pair_reference_at_n9():
    rng = random.Random(20261018)
    for _ in range(60):
        p = Permutation(tuple(rng.sample(range(1, 10), 9)))
        below = lower_shards(p)
        for chosen in (below, rng.sample(below, rng.randint(0, len(below)))):
            assert _agrees_with_reference(chosen, 9), (p, chosen)


def test_intersection_rows_are_closed_and_read_only():
    # built from any rows, the intersection holds their reflexive closure,
    # and equal closures are equal values
    g = ShardIntersection(3, (0b010, 0b100, 0))
    assert g.rows == (0b111, 0b110, 0b100)
    assert g == ShardIntersection(3, (0b111, 0b100, 0)) and hash(g) == hash(ShardIntersection(3, g.rows))
    assert g.inequalities == frozenset({(1, 2), (1, 3), (2, 3)}) and g.equalities == frozenset()
    with pytest.raises(ValueError):
        ShardIntersection(2, (0b100, 0))
    with pytest.raises(ValueError, match="nonempty"):
        intersect([], n=0)
    with pytest.raises(AttributeError):
        g.equalities = frozenset()
