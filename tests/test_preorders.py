import importlib
import itertools
import operator
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardorder.errors import InvalidPreorderError
from shardorder.perms import Permutation, all_permutations
from shardorder.preorders import (
    Preorder,
    _run_slots,
    axiom_violations,
    Block,
    block_masks,
    blocks,
    close_rows,
    cover_masks,
    lam,
    mu,
    mu_words,
    placements,
    preorder_from_json,
    preorder_to_json,
    relate_blocks,
    run_masks,
)

from oracles import descending_runs, identity, inversions, linear_coxeter, mu_by_definition, reversal

P = Permutation.parse


def members(q):
    return [sorted(b.members) for b in blocks(q)]


def less_pairs(q):
    """Index pairs (i, j), block i strictly below block j, read off the ``block_masks`` up-sets."""
    masks, ups, _ = block_masks(q)
    m = len(masks)
    return {(i, j) for i in range(m) for j in range(m) if i != j and ups[i] & masks[j]}


def cover_pairs(q):
    """Index pairs (i, j), block j covering block i, read off ``cover_masks``."""
    masks, ups, _ = block_masks(q)
    covers = cover_masks(masks, ups)
    m = len(masks)
    return {(i, j) for i in range(m) for j in range(m) if covers[i] & masks[j]}


def comparable(q, i, j):
    less = less_pairs(q)
    return (i, j) in less or (j, i) in less


def figure2_preorder():
    # x1=x4, x6=x7, x1<=x2, x3<=x1 on [7]
    return Preorder.from_pairs(
        7, [(1, 4), (4, 1), (6, 7), (7, 6), (1, 2), (3, 1)]
    )


def test_discrete_and_complete_blocks():
    assert members(Preorder.discrete(4)) == [[1], [2], [3], [4]]
    assert members(Preorder.complete(4)) == [[1, 2, 3, 4]]


def test_discrete_and_complete_are_packed_directly():
    # equal to the closed row forms, with no closure pass of their own
    for n in range(1, 12):
        assert Preorder.discrete(n) == Preorder.from_rows(n, [0] * n)
        assert Preorder.complete(n) == Preorder.from_rows(n, [(1 << n) - 1] * n)
    for make in (Preorder.discrete, Preorder.complete):
        with pytest.raises(ValueError, match="nonempty"):
            make(0)


def test_order_across_sizes_names_the_operator_used():
    # each comparison returns NotImplemented on another size, so Python's
    # TypeError names the operator written, not the '<=' that < used to call
    small, large = Preorder.discrete(3), Preorder.discrete(4)
    for op, text in ((operator.lt, "'<'"), (operator.le, "'<='"), (operator.gt, "'>'"), (operator.ge, "'>='")):
        with pytest.raises(TypeError, match=f"{text} not supported"):
            op(small, large)
    assert small < Preorder.complete(3) and not small < small and small <= small
    assert Preorder.complete(3) > small and not small > small
    # so does a comparison with another type, instead of reading other.n
    for other in (5, None, "3"):
        for op, text in ((operator.lt, "'<'"), (operator.le, "'<='"), (operator.gt, "'>'"), (operator.ge, "'>='")):
            with pytest.raises(TypeError, match=f"{text} not supported"):
                op(small, other)


def test_figure2_blocks_and_order():
    q = figure2_preorder()
    assert members(q) == [[1, 4], [2], [3], [5], [6, 7]]
    m = len(blocks(q))
    idx = {b.min: i for i, b in enumerate(blocks(q))}
    less = less_pairs(q)
    assert (idx[3], idx[1]) in less
    assert (idx[1], idx[2]) in less
    assert (idx[3], idx[2]) in less  # transitively
    # {5} and {6,7} are isolated
    for lone in (idx[5], idx[6]):
        assert all(not comparable(q, lone, j) for j in range(m) if j != lone)
    assert cover_pairs(q) == {(idx[3], idx[1]), (idx[1], idx[2])}


def test_mu_26314758_matches_figure3():
    q = mu(P("26314758"))
    assert members(q) == [[1, 3, 6], [2], [4], [5, 7], [8]]
    idx = {b.min: i for i, b in enumerate(blocks(q))}
    assert cover_pairs(q) == {(idx[2], idx[1]), (idx[1], idx[4]), (idx[1], idx[5])}
    # {4} and {5,7} stay incomparable; {8} is isolated
    assert not comparable(q, idx[4], idx[5])
    assert all(not comparable(q, idx[8], j) for j in range(len(idx)) if j != idx[8])


def test_mu_extremes():
    assert mu(identity(5)) == Preorder.discrete(5)
    assert mu(reversal(5)) == Preorder.complete(5)


def test_mu_blocks_are_runs():
    for n in range(1, 6):
        for p in all_permutations(n):
            runs = {frozenset(r) for r in descending_runs(p)}
            assert {b.members for b in blocks(mu(p))} == runs


def _check_mu_words(words, n, expected=None):
    """mu_words of the list against the definition, element by element:
    its bits, and the runs it carries (the word's ``run_masks``)."""
    got = mu_words(words, n)
    assert len(got) == len(words)
    for word, q in zip(words, got):
        want = expected[word] if expected else mu_by_definition(Permutation(word))
        assert q == want and q._state == run_masks(word), word


def test_mu_words_is_mu_by_definition_over_s_n():
    # S_n in lex order, where each word resumes at the prefix it shares
    # with the word before, and the same list shuffled
    rng = random.Random(29)
    for n in range(1, 8):
        words = [p.word for p in all_permutations(n)]
        expected = {w: mu_by_definition(Permutation(w)) for w in words}
        _check_mu_words(words, n, expected)
        rng.shuffle(words)
        _check_mu_words(words, n, expected)


def test_mu_words_on_repeated_and_single_words():
    w, v = P("26314758").word, P("26314785").word  # v shares all but the last two letters
    low, high = identity(8).word, reversal(8).word
    for words in ([w], [w, w], [w, w, w], [w, v, w, v], [v, w, w, low, high, high, w], [high, low, low]):
        _check_mu_words(words, 8)
    assert mu_words([], 8) == []
    for n in range(1, 5):
        for p in all_permutations(n):
            _check_mu_words([p.word], n)
            _check_mu_words([p.word] * 3, n)


@st.composite
def word_lists(draw):
    """(n, a list of words of S_n, n = 8..12): each word after the first
    keeps a prefix of the word before and shuffles the rest, so lists mix
    long and short shared prefixes and repeated words; half are sorted."""
    n = draw(st.integers(8, 12))
    word = tuple(draw(st.permutations(range(1, n + 1))))
    words = [word]
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(0, n))
        word = (*word[:k], *draw(st.permutations(word[k:])))
        words.append(word)
    if draw(st.booleans()):
        words.sort()
    return n, words


@settings(derandomize=True, max_examples=200, deadline=None)
@given(word_lists())
def test_mu_words_on_random_lists(case):
    n, words = case
    _check_mu_words(words, n)


def test_blocks_read_the_carried_masks(monkeypatch):
    # an element that carries its state (a mu image, a cover, a
    # partition-mode element) gives its blocks with no pass over its rows,
    # and they are the blocks its bits give
    import shardorder.preorders as preorders
    from shardorder.lattice import covers_up
    from shardorder.sortable import noncrossing_order_of_partition

    carried = [mu(p) for n in range(1, 6) for p in all_permutations(n)]
    carried += [c for p in all_permutations(4) for c in covers_up(mu(p))]
    carried += [noncrossing_order_of_partition([[1, 4], [2, 3], [5]], linear_coxeter(5))]
    calls, real = [], preorders.block_masks
    monkeypatch.setattr(preorders, "block_masks", lambda q: calls.append(q) or real(q))
    got = [blocks(q) for q in carried]
    assert calls == []
    assert got == [blocks(Preorder(q.n, q.bits)) for q in carried]
    assert len(calls) == len(carried)


def test_validate_discrete_ok():
    assert axiom_violations(Preorder.discrete(5)) == []


def test_validate_p1_violation():
    q = Preorder.from_pairs(4, [(1, 3), (3, 1), (2, 4), (4, 2)])
    bad = axiom_violations(q)
    assert len(bad) == 1 and bad[0].axiom == "P1"
    assert {bad[0].first.interval, bad[0].second.interval} == {(1, 3), (2, 4)}
    assert axiom_violations(q)


def test_validate_p2_violation():
    pairs = [(1, 2), (2, 1), (5, 6), (6, 5)]
    pairs += [(a, b) for a in (1, 2) for b in (5, 6)]
    q = Preorder.from_pairs(6, pairs)
    bad = axiom_violations(q)
    assert any(v.axiom == "P2" for v in bad)
    v = next(v for v in bad if v.axiom == "P2")
    assert {v.first.interval, v.second.interval} == {(1, 2), (5, 6)}


def test_lam_figure5():
    q = Preorder.from_pairs(
        9,
        [(3, 1), (1, 3), (9, 7), (7, 9), (8, 4), (4, 8)]
        + [(2, v) for v in (1, 3)]
        + [(v, w) for v in (7, 9) for w in (4, 8)]
        + [(v, 5) for v in (4, 8)]
        + [(v, 6) for v in (4, 8)],
    )
    assert str(lam(q)) == "231978456"


def test_lam_trivial_and_roundtrip():
    assert lam(Preorder.discrete(6)) == identity(6)
    assert lam(mu(P("4312"))) == P("4312")
    for p in all_permutations(4):
        assert lam(mu(p)) == p


def test_lam_rejects_invalid():
    q = Preorder.from_pairs(4, [(1, 3), (3, 1), (2, 4), (4, 2)])
    with pytest.raises(InvalidPreorderError):
        lam(q)


def test_placements_discrete():
    pl = placements(Preorder.discrete(5))
    for block, pos in pl.items():
        assert block.min == pos


def test_placements_figure3():
    q = mu(P("26314758"))
    got = {tuple(sorted(b.members)): pos for b, pos in placements(q).items()}
    assert got == {(2,): 1, (1, 3, 6): 2, (4,): 3, (5, 7): 4, (8,): 5}


def test_placements_figure5_word_positions():
    q = mu(P("231978456"))
    got = {tuple(sorted(b.members)): pos for b, pos in placements(q).items()}
    assert got == {(2,): 1, (1, 3): 2, (7, 9): 3, (4, 8): 4, (5,): 5, (6,): 6}


def test_placements_respect_block_order():
    for n in range(1, 6):
        for p in all_permutations(n):
            q = mu(p)
            pl = placements(q)
            bs = blocks(q)
            for (i, j) in less_pairs(q):
                assert pl[bs[i]] < pl[bs[j]]


def test_consecutive_placements_combinable():
    # blocks with adjacent placements are incomparable or form a cover
    for p in all_permutations(5):
        q = mu(p)
        bs = blocks(q)
        by_pos = sorted(bs, key=lambda b: placements(q)[b])
        covers = cover_pairs(q)
        for left, right in zip(by_pos, by_pos[1:]):
            i, j = bs.index(left), bs.index(right)
            assert (
                not comparable(q, i, j)
                or (i, j) in covers
                or (j, i) in covers
            )


def test_inversion_overlap_chain():
    # an inversion whose runs have disjoint intervals is witnessed by a
    # chain of interval-overlapping blocks going up from the left run
    for n in range(2, 6):
        for p in all_permutations(n):
            q = mu(p)
            bs = blocks(q)
            less = less_pairs(q)
            edges = {
                i: [
                    j
                    for j in range(len(bs))
                    if (i, j) in less and bs[i].overlaps(bs[j])
                ]
                for i in range(len(bs))
            }
            for a, b in inversions(p):
                ba, bb = (next(x for x in bs if v in x.members) for v in (a, b))
                if ba == bb or ba.overlaps(bb):
                    continue
                start, goal = bs.index(ba), bs.index(bb)
                seen, frontier = {start}, [start]
                while frontier:
                    cur = frontier.pop()
                    for nxt in edges[cur]:
                        if nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
                assert goal in seen, (p, a, b)


def all_preorders(n):
    """Every reflexive transitive relation on [n], by filtering subsets."""
    base = list(itertools.permutations(range(n), 2))
    for picks in itertools.product((0, 1), repeat=len(base)):
        rows = [1 << a for a in range(n)]
        for bit, (a, b) in zip(picks, base):
            if bit:
                rows[a] |= 1 << b
        if close_rows(list(rows)) == rows:
            yield Preorder.from_rows(n, rows)


def pairwise_block_order(q):
    """(less, covers) index pairs of the block order, by testing every pair."""
    bs = blocks(q)
    m = len(bs)
    less = {(i, j) for i in range(m) for j in range(m) if i != j and q.leq(bs[i].min, bs[j].min)}
    covers = {
        (i, j) for (i, j) in less if not any((i, k) in less and (k, j) in less for k in range(m))
    }
    return less, covers


def tournament_order(q):
    """Blocks in lam order by the pairwise tournament, or None if it is not total."""
    bs = blocks(q)
    less, _ = pairwise_block_order(q)

    def before(i, j):
        if (i, j) in less or (j, i) in less:
            return (i, j) in less
        return bs[i].max < bs[j].min

    order = sorted(range(len(bs)), key=lambda i: sum(before(j, i) for j in range(len(bs))))
    if all(before(x, y) for x, y in itertools.combinations(order, 2)):
        return tuple(bs[i] for i in order)
    return None


def random_preorders(n, count, seed):
    rng = random.Random(seed)
    universe = list(itertools.permutations(range(1, n + 1), 2))
    for _ in range(count):
        yield Preorder.from_pairs(n, rng.sample(universe, rng.randint(0, 2 * n)))


def test_block_order_masks_match_pairwise():
    # the up-sets of the block state and the cover masks give the block order
    elements = [mu(p) for n in range(1, 6) for p in all_permutations(n)]
    for q in elements + list(random_preorders(5, 500, 7)):
        assert (less_pairs(q), cover_pairs(q)) == pairwise_block_order(q), q


def test_block_masks_match_the_relation():
    # the state read off equal rows, against the relation read one pair at
    # a time: the classes of mutual comparability in min order, each with
    # the values above and below its min
    def mask(vs):
        return sum(1 << (v - 1) for v in vs)

    elements = [mu(p) for n in range(1, 6) for p in all_permutations(n)]
    for q in elements + list(random_preorders(6, 500, 5)):
        values = range(1, q.n + 1)
        mins = [a for a in values if not any(q.leq(a, b) and q.leq(b, a) for b in range(1, a))]
        assert block_masks(q) == (
            [mask(b for b in values if q.leq(a, b) and q.leq(b, a)) for a in mins],
            [mask(b for b in values if q.leq(a, b)) for a in mins],
            [mask(b for b in values if q.leq(b, a)) for a in mins],
        ), q


def test_ordered_blocks_matches_tournament():
    # the nested-prefix check accepts and rejects exactly as the tournament
    elements = [mu(p) for n in range(1, 6) for p in all_permutations(n)]
    for q in elements + list(random_preorders(5, 2000, 11)):
        try:
            got = tuple(Block.of(b) for b, _ in _run_slots(*block_masks(q)))
        except InvalidPreorderError:
            got = None
        assert got == tournament_order(q), q


def first_unorderable_block(masks, ups, downs):
    """The block the word rule names for an unorderable state: the first whose
    before-set is not the union of the blocks before it, with the blocks taken
    by the size of their before-sets, ties in min order; None if there is none."""
    keyed = sorted(
        (((d | ((b & -b) - 1)) & ~u).bit_count(), k, (d | ((b & -b) - 1)) & ~u, b)
        for k, (b, u, d) in enumerate(zip(masks, ups, downs))
    )
    placed = 0
    for _, _, before, b in keyed:
        if before != placed:
            return b
        placed |= b
    return None


@pytest.mark.parametrize(
    "rows, named",
    [
        # before-sets {2,4}, {} and {1,2}: {1} follows {2,4}, and {3}, whose
        # before-set has the size of {1}'s, fails
        ([0b0001, 0b1011, 0b0100, 0b1011], "B[3,3]{3}"),
        # before-sets {3}, {1} and {2}: none is empty, so the first of the
        # three in size order fails
        ([0b0001, 0b1010, 0b0101, 0b1010], "B[1,1]{1}"),
        # before-sets {} and {1}: one value short of the prefix {1,4}
        ([0b1001, 0b0110, 0b0110, 0b1001], "B[2,3]{2,3}"),
        # before-sets {}, {1,4,6}, {1,2,5} and {1,2,4}: {2} follows
        # {1,4,6}, and of the two blocks sharing its size the first fails
        ([0b101011, 0b000010, 0b000100, 0b101011, 0b010100, 0b101011], "B[3,3]{3}"),
    ],
    ids=["same_size", "prefix_mismatch", "short_prefix", "two_share_a_size"],
)
def test_unorderable_state_error_text(rows, named):
    masks, ups, downs = block_masks(Preorder.from_rows(len(rows), rows))
    listed = ", ".join(map(repr, map(Block.of, masks)))
    with pytest.raises(InvalidPreorderError) as info:
        _run_slots(masks, ups, downs)
    assert str(info.value) == f"blocks [{listed}] are not totally orderable at {named}"


def test_unorderable_block_is_the_first_in_size_order():
    # every pre-order on [n], n <= 4: the word rule names the block the
    # stable size-order walk fails at, or accepts when that walk does
    for n in range(1, 5):
        pairs = list(itertools.permutations(range(1, n + 1), 2))
        relations = itertools.product((False, True), repeat=len(pairs))
        for q in {Preorder.from_pairs(n, itertools.compress(pairs, keep)) for keep in relations}:
            state = block_masks(q)
            named = first_unorderable_block(*state)
            try:
                _run_slots(*state)
            except InvalidPreorderError as exc:
                assert named is not None and str(exc).endswith(f" at {Block.of(named)!r}"), q
            else:
                assert named is None, q


def pairwise_violations(q):
    """(axiom, i, j) failures in the order axiom_violations gives, by testing every pair."""
    bs = blocks(q)
    less, covers = pairwise_block_order(q)
    p1 = [
        ("P1", i, j)
        for i, j in itertools.combinations(range(len(bs)), 2)
        if bs[i].overlaps(bs[j]) and (i, j) not in less and (j, i) not in less
    ]
    p2 = [("P2", i, j) for i, j in sorted(covers) if not bs[i].overlaps(bs[j])]
    return p1 + p2


def test_axiom_violations_match_pairwise():
    # the block-level check gives every failure, in block order, P1 first
    elements = [mu(p) for n in range(1, 6) for p in all_permutations(n)]
    samples = list(random_preorders(5, 2000, 13)) + list(random_preorders(7, 300, 17))
    for q in elements + samples:
        bs = blocks(q)
        got = [(v.axiom, bs.index(v.first), bs.index(v.second)) for v in axiom_violations(q)]
        assert got == pairwise_violations(q), q
    assert sum(bool(axiom_violations(q)) for q in samples) > 1000


def test_relate_blocks_matches_warshall():
    # low below high for every pair of unions of one or two blocks, against
    # Warshall's closure of the packed relation: only the blocks of low &
    # high may become one, and None means more than that merged
    elements = [mu(p) for n in range(1, 5) for p in all_permutations(n)]
    for q in elements + list(random_preorders(5, 150, 19)):
        masks, ups, downs = block_masks(q)
        unions = [sum(sub) for k in (1, 2) for sub in itertools.combinations(masks, k)]
        for low, high in itertools.product(unions, repeat=2):
            rows = q.rows()
            for a in range(q.n):
                if low >> a & 1:
                    rows[a] |= high
            closed = Preorder.from_rows(q.n, rows)
            both = low & high
            # the merged block keeps the slot of its part with the least min
            kept = [k for k, b in enumerate(masks) if not b & both or b & -b == both & -both]
            wanted = [both if masks[k] & both else masks[k] for k in kept]
            got = relate_blocks(masks, ups, downs, low, high)
            if block_masks(closed)[0] != wanted:
                assert got is None, (q, low, high)
                continue
            assert got is not None, (q, low, high)
            assert block_masks(closed)[1:] == tuple([s[k] for k in kept] for s in got), (q, low, high)


def test_closure_runs_once(monkeypatch):
    import shardorder.preorders as preorders

    calls = []
    real = preorders.close_rows
    monkeypatch.setattr(preorders, "close_rows", lambda rows: calls.append(1) or real(rows))
    Preorder.from_rows(3, [0b010, 0b100, 0])
    assert len(calls) == 1
    # mu closes its relation in one pass over the runs, without close_rows
    q = mu(P("26314758"))
    assert len(calls) == 1
    assert q == Preorder.from_rows(8, q.rows())


def test_no_module_function_keeps_a_cache():
    # every call reads its block state afresh, so memory does not grow with
    # the elements touched
    import shardorder

    names = [m.name for m in pkgutil.iter_modules(shardorder.__path__) if m.name != "__main__"]
    assert {"preorders", "lattice", "shelling"} <= set(names)
    for mod in [shardorder, *(importlib.import_module(f"shardorder.{name}") for name in names)]:
        cached = [name for name, fn in vars(mod).items() if hasattr(fn, "cache_info")]
        assert cached == [], mod.__name__


def test_image_characterization_exhaustive():
    for n in range(1, 5):
        image = {mu(p) for p in all_permutations(n)}
        for q in all_preorders(n):
            assert (not axiom_violations(q)) == (q in image), q


def test_image_characterization_randomized_n5():
    image = {mu(p) for p in all_permutations(5)}
    rng = random.Random(20260809)
    universe = list(itertools.permutations(range(1, 6), 2))
    for _ in range(400):
        pairs = rng.sample(universe, rng.randint(0, 6))
        q = Preorder.from_pairs(5, pairs)
        assert (not axiom_violations(q)) == (q in image), q


def test_json_roundtrip():
    for p in all_permutations(4):
        q = mu(p)
        assert preorder_from_json(preorder_to_json(q)) == q
    q = figure2_preorder()
    assert preorder_from_json(preorder_to_json(q)) == q


def test_json_shape():
    data = preorder_to_json(mu(P("26314758")))
    assert data == {
        "n": 8,
        "blocks": [[2], [1, 3, 6], [4], [5, 7], [8]],
        "less": [[0, 1], [1, 2], [1, 3]],
    }


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        preorder_from_json({"n": 3, "blocks": [[1, 2]], "less": []})
    with pytest.raises(ValueError):
        preorder_from_json({"n": 2, "blocks": [[1, 1], [2]], "less": []})
    with pytest.raises(InvalidPreorderError):
        # overlapping incomparable blocks: (P1) fails
        preorder_from_json({"n": 4, "blocks": [[1, 3], [2, 4]], "less": []})
    with pytest.raises(InvalidPreorderError):
        # disjoint cover: (P2) fails
        preorder_from_json({"n": 6, "blocks": [[1, 2], [3], [4], [5, 6]], "less": [[0, 3]]})
    with pytest.raises(ValueError):
        # order relations would collapse the two blocks into one
        preorder_from_json({"n": 2, "blocks": [[1], [2]], "less": [[0, 1], [1, 0]]})


def test_preorder_value_semantics():
    a = mu(P("2134"))
    b = Preorder.from_pairs(4, [(1, 2), (2, 1)])
    assert a == b and hash(a) == hash(b)
    assert a <= b and a >= b and not a < b
    assert Preorder.discrete(4) < a < Preorder.complete(4)


def test_preorder_rejects_unclosed_bits():
    # reflexive plus 1<=2 and 2<=3 but no 1<=3: not transitively closed
    unclosed = (0b011 << 0) | (0b110 << 3) | (0b100 << 6)
    with pytest.raises(ValueError):
        Preorder(3, unclosed)
    with pytest.raises(ValueError):
        Preorder(3, 0)  # not reflexive


def test_preorder_rejects_bits_outside_the_square():
    # a relation on [n] has n*n bits; a stray high bit or a negative int
    # would otherwise make two equal relations compare unequal
    with pytest.raises(ValueError, match=r"reach beyond \[1,2\]"):
        Preorder(2, 15 | 1 << 10)
    with pytest.raises(ValueError, match=r"reach beyond \[1,2\]"):
        Preorder(2, -1)
    assert Preorder(2, 15) == Preorder.complete(2)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: Preorder.from_pairs(3, [(0, 1)]), r"\(0, 1\) is outside \[1,3\]"),
        (lambda: Preorder.from_pairs(3, [(-1, 1)]), r"\(-1, 1\) is outside \[1,3\]"),
        (lambda: Preorder.from_pairs(3, [(4, 1)]), r"\(4, 1\) is outside \[1,3\]"),
        (lambda: Preorder.from_pairs(3, [(1, 0)]), r"\(1, 0\) is outside \[1,3\]"),
        (lambda: Preorder.from_rows(3, [0]), "expected 3 row masks, got 1"),
        (lambda: Preorder.from_rows(2, [0, 0, 7]), "expected 2 row masks, got 3"),
    ],
    ids=["pair-0", "pair-minus-1", "pair-n-plus-1", "pair-to-0", "short-rows", "long-rows"],
)
def test_pair_and_row_builders_check_their_indices(build, match):
    # an index 0 or -1 used to wrap to the last value, a surplus row was dropped
    with pytest.raises(ValueError, match=match):
        build()
