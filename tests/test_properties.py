"""Property tests on random elements beyond the exhaustive range (n up to 12)."""
from hypothesis import given, settings
from hypothesis import strategies as st

from shardorder.lattice import covers_up, join, leq, meet
from shardorder.perms import Permutation
from shardorder.preorders import (
    Preorder,
    block_masks,
    close_blocks,
    lam,
    mu,
    preorder_from_json,
    preorder_to_json,
)

from oracles import covers_by_atoms, meet_by_atoms
from test_preorders import cover_pairs, less_pairs, pairwise_block_order

FAST = settings(derandomize=True, max_examples=300, deadline=None)


def permutations(low: int, high: int):
    return st.integers(low, high).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(lambda w: Permutation(tuple(w)))
    )


@FAST
@given(permutations(1, 12))
def test_lam_inverts_mu(p):
    assert lam(mu(p)) == p


@FAST
@given(permutations(1, 12))
def test_json_round_trip(p):
    q = mu(p)
    data = preorder_to_json(q)
    assert preorder_from_json(data) == q
    assert sorted(v for b in data["blocks"] for v in b) == list(range(1, p.n + 1))


@FAST
@given(permutations(1, 12))
def test_text_round_trip(p):
    assert Permutation.parse(str(p)) == p


@FAST
@given(permutations(8, 10))
def test_block_order_masks_match_pairwise(p):
    q = mu(p)
    assert (less_pairs(q), cover_pairs(q)) == pairwise_block_order(q)


@st.composite
def blocks_and_relations(draw, high: int = 9):
    """(n, value masks partitioning [n] in random order, index pairs (i, j) of them)."""
    n = draw(st.integers(1, high))
    values = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    masks = [sum(1 << (v - 1) for v in values[a:b]) for a, b in zip(bounds, bounds[1:])]
    slot = st.integers(0, len(masks) - 1)
    pairs = st.tuples(slot, slot).filter(lambda pair: pair[0] != pair[1])
    less = draw(st.lists(pairs, max_size=2 * len(masks))) if len(masks) > 1 else []
    return n, masks, less


@FAST
@given(blocks_and_relations())
def test_block_closure_matches_the_row_closure(case):
    # the reference closes the relation on the n rows (Warshall in
    # Preorder.from_rows) and reads the blocks back from the packed bits
    n, masks, less = case
    rows = [0] * n
    for b in masks:
        for v in range(n):
            if b >> v & 1:
                rows[v] |= b
    for i, j in less:
        for v in range(n):
            if masks[i] >> v & 1:
                rows[v] |= masks[j]
    reference = block_masks(Preorder.from_rows(n, rows))
    got = close_blocks(masks, less)
    if set(reference[0]) != set(masks):
        assert got is None, case
    else:
        # the state keeps the drawn order, as partition mode's blocks keep
        # the user's: re-sorted into min order it is the reference
        order = sorted(range(len(masks)), key=lambda k: masks[k] & -masks[k])
        assert tuple([part[k] for k in order] for part in got) == reference, case


def _swapped(n: int, swaps) -> tuple[int, ...]:
    """The identity word of S_n after swapping positions i and i+1 for each i in turn."""
    word = list(range(1, n + 1))
    for i in swaps:
        word[i], word[i + 1] = word[i + 1], word[i]
    return tuple(word)


def element_triples(n: int):
    """Three elements mu(p) of one size n: random words, or words a few swaps
    from the identity, whose joins stay below the top."""
    anywhere = st.permutations(range(1, n + 1)).map(tuple)
    low = st.lists(st.integers(0, n - 2), max_size=n).map(lambda swaps: _swapped(n, swaps))
    element = st.one_of(anywhere, low).map(lambda w: mu(Permutation(w)))
    return st.tuples(element, element, element)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(8, 9).flatmap(element_triples))
def test_join_laws_beyond_the_exhaustive_range(triple):
    # no lattice is built at n=8..9: join is the closure of the union, and
    # covers_up constructs the covers of one element
    a, b, c = triple
    ab = join(a, b)
    assert join(b, a) == ab and join(a, a) == a
    assert join(ab, c) == join(a, join(b, c))
    assert leq(a, ab) and leq(b, ab)
    for up in covers_up(a):
        assert join(a, up) == up
    for up in covers_up(ab):
        assert leq(a, up) and leq(b, up)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(8, 9).flatmap(element_triples))
def test_meet_laws_beyond_the_exhaustive_range(triple):
    # no lattice is built at n=8..9: a common lower bound of a and b above
    # their meet would put a cover of the meet below both
    a, b, c = triple
    ab = meet(a, b)
    assert meet(b, a) == ab and meet(a, a) == a
    assert meet(ab, c) == meet(a, meet(b, c))
    assert leq(ab, a) and leq(ab, b)
    for up in covers_up(ab):
        assert not (leq(up, a) and leq(up, b))
    assert meet(a, join(a, b)) == a and join(a, ab) == a


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(6, 9).flatmap(element_triples))
def test_meet_is_the_join_of_the_shards_below_both(triple):
    a, b, _ = triple
    assert meet(a, b) == meet_by_atoms(a, b)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(permutations(8, 10))
def test_covers_are_joins_with_single_shards(p):
    q = mu(p)
    assert set(covers_up(q)) == covers_by_atoms(q)
