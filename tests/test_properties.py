"""Property tests on random elements beyond the exhaustive range (n up to 12)."""
from hypothesis import given, settings
from hypothesis import strategies as st

from shardorder.lattice import covers_up, interval_lattice, join, leq
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
    # close_blocks takes its masks in min order: sort them, renumbering less
    order = sorted(range(len(masks)), key=lambda k: masks[k] & -masks[k])
    slot = {k: i for i, k in enumerate(order)}
    masks, less = [masks[k] for k in order], [(slot[i], slot[j]) for i, j in less]
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
        assert got == reference, case


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


def lower_intervals(n: int):
    """[discrete, y] indexed alone, y a few adjacent swaps from the identity,
    so that every join of two of its elements stays inside it."""
    swaps = st.lists(st.integers(0, n - 2), min_size=1, max_size=4)
    return swaps.map(lambda s: interval_lattice(Preorder.discrete(n), mu(Permutation(_swapped(n, s)))))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(8, 9).flatmap(lower_intervals), st.data())
def test_meet_laws_beyond_the_exhaustive_range(lat, data):
    # meet reads the index; the laws are checked against leq and join
    element = st.sampled_from(lat.elements)
    a, b, c = data.draw(element), data.draw(element), data.draw(element)
    meet = lat.meet
    ab = meet(a, b)
    assert meet(b, a) == ab and meet(a, a) == a
    assert meet(ab, c) == meet(a, meet(b, c))
    assert leq(ab, a) and leq(ab, b)
    for z in lat.elements:
        if leq(z, a) and leq(z, b):
            assert leq(z, ab)
    assert meet(a, lat.join(a, b)) == a and lat.join(a, ab) == a
