import itertools
import math

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import shardorder.preorders
import shardorder.sortable
from shardorder.errors import CrossingPartitionError, InvalidPreorderError, InvariantError
from shardorder.lattice import join, meet
from shardorder.perms import Permutation, all_permutations
from shardorder.preorders import Block, Preorder, block_masks, block_violations, blocks, lam, mask_values, mu
from shardorder.sortable import (
    CoxeterElement,
    _demands,
    _sortable_words,
    _misoriented,
    _sortable,
    all_coxeter_elements,
    barring_of,
    is_c_sortable,
    is_noncrossing_preorder,
    noncrossing_order_of_partition,
    noncrossing_preorders,
    pattern_sortable_permutations,
    sortable_permutations,
)

from oracles import (
    avoids_barred_patterns,
    crosses,
    crossing_free,
    identity,
    linear_coxeter,
    noncrossing_partitions,
    reversed_coxeter,
    set_partitions,
)

P = Permutation.parse

CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132}


def example_51():
    return CoxeterElement.parse("2,1,3,7,6,4,5,8", 9)


def test_coxeter_parse_and_validate():
    c = example_51()
    assert c.word == (2, 1, 3, 7, 6, 4, 5, 8)
    assert str(c) == "2,1,3,7,6,4,5,8"
    assert CoxeterElement.parse("213", 4).word == (2, 1, 3)
    assert CoxeterElement.parse("", 1).word == ()
    assert CoxeterElement.parse(" 3,1,2 ", 4).word == (3, 1, 2)
    for bad in ("12a", "1,,2"):
        with pytest.raises(ValueError, match=f"cannot parse Coxeter word from '{bad}'"):
            CoxeterElement.parse(bad, 3)
    with pytest.raises(ValueError):
        CoxeterElement(4, (1, 2))
    with pytest.raises(ValueError):
        CoxeterElement(4, (1, 2, 2))


def test_coxeter_rejects_an_empty_size_and_stores_a_tuple():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            CoxeterElement(n, ())
    c = CoxeterElement(3, [1, 2])
    assert type(c.word) is tuple and c == CoxeterElement(3, (1, 2)) and hash(c) == hash(CoxeterElement(3, (1, 2)))


def test_barring_example_51():
    bar = barring_of(example_51())
    assert sorted(bar.lower) == [3, 4, 5, 8]
    assert sorted(bar.upper) == [2, 6, 7]


def test_barring_extremes():
    for n in range(2, 7):
        assert sorted(barring_of(linear_coxeter(n)).lower) == list(range(2, n))
        assert barring_of(linear_coxeter(n)).upper == frozenset()
        assert sorted(barring_of(reversed_coxeter(n)).upper) == list(range(2, n))
        assert barring_of(reversed_coxeter(n)).lower == frozenset()


def test_cycle_examples():
    assert barring_of(example_51()).cycle == (1, 3, 4, 5, 8, 9, 7, 6, 2)
    assert barring_of(linear_coxeter(3)).cycle == (1, 2, 3)
    assert barring_of(reversed_coxeter(4)).cycle == (1, 4, 3, 2)
    assert barring_of(CoxeterElement(1, ())).cycle == (1,)


def test_sortable_examples():
    c = example_51()
    assert not is_c_sortable(P("163425897"), c)
    for word in all_coxeter_elements(4):
        assert is_c_sortable(identity(4), word)
        assert len(sortable_permutations(word)) == 14


def test_sortable_counts_are_catalan():
    for n in range(1, 7):
        for c in (linear_coxeter(n), reversed_coxeter(n)) if n > 1 else [CoxeterElement(1, ())]:
            assert len(sortable_permutations(c)) == CATALAN[n]


def test_construction_matches_the_pattern_filter():
    # every word through n=7, the filter run once per barring (32 at n=7)
    for n in range(1, 8):
        reference = {}
        for c in all_coxeter_elements(n):
            bar = barring_of(c)
            if bar not in reference:
                reference[bar] = pattern_sortable_permutations(bar)
            assert sortable_permutations(c) == reference[bar], c
        assert len(reference) == 2 ** max(n - 2, 0)


def test_sortable_list_holds_exact_permutations():
    # the words are sorted as tuples and wrapped unchecked: each element is
    # a plain Permutation on a tuple word, equal to and hashing like the
    # checked one, and the list increases strictly by word
    for n in range(1, 7):
        for c in all_coxeter_elements(n):
            found = sortable_permutations(c)
            for p in found:
                checked = Permutation(p.word)
                assert type(p) is Permutation and type(p.word) is tuple, (c, p)
                assert p == checked and hash(p) == hash(checked) and not p < checked, (c, p)
            assert all(p.word < q.word for p, q in zip(found, found[1:])), c


def test_sortable_does_not_touch_s_n(monkeypatch):
    def forbidden(*args):
        raise AssertionError("sortable_permutations filtered S_n")

    monkeypatch.setattr(shardorder.sortable, "all_permutations", forbidden)
    monkeypatch.setattr(shardorder.sortable, "_sortable", forbidden)
    assert len(sortable_permutations(CoxeterElement.parse("2,1,4,3,5", 6))) == 132


def test_the_pass_matches_the_triple_search():
    # every permutation for every barring through n = 6; the pass also
    # ignores whatever bars 1 and n would carry, as neither fills the role
    for n in range(1, 7):
        ends = 1 | 1 << (n - 1)
        perms = list(all_permutations(n))
        for bar in {barring_of(c) for c in all_coxeter_elements(n)}:
            for p in perms:
                want = avoids_barred_patterns(p, bar)
                assert _sortable(p.word, bar.upper_mask) == want, (bar, p)
                assert _sortable(p.word, bar.upper_mask | ends) == want, (bar, p)


def coxeter_words(low: int, high: int):
    return st.integers(low, high).flatmap(
        lambda n: st.permutations(range(1, n)).map(lambda word: CoxeterElement(n, tuple(word)))
    )


# Each example costs seconds, so a failure is reported as found, unshrunk.
@settings(
    derandomize=True,
    max_examples=6,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
@given(coxeter_words(8, 9))
def test_sortable_maps_onto_noncrossing_beyond_the_exhaustive_range(c):
    # each image passes the definitional test and is its blocks' one
    # noncrossing pre-order
    sortable = sortable_permutations(c)
    assert len(sortable) == math.comb(2 * c.n, c.n) // (c.n + 1)
    for q in map(mu, sortable):
        assert is_noncrossing_preorder(q, c), (c, q)
        assert noncrossing_order_of_partition([b.members for b in blocks(q)], c) == q, (c, q)


# A failing example is reported as found: shrinking re-runs the construction.
@settings(
    derandomize=True,
    max_examples=8,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
@given(st.data(), coxeter_words(8, 9))
def test_noncrossing_closure_beyond_the_exhaustive_range(data, c):
    # the noncrossing pre-orders of one word are closed under join and meet
    element = st.sampled_from(noncrossing_preorders(c))
    for _ in range(10):
        a, b = data.draw(element), data.draw(element)
        assert is_noncrossing_preorder(join(a, b), c), (c, a, b)
        assert is_noncrossing_preorder(meet(a, b), c), (c, a, b)


# A failing example is reported as found: shrinking re-runs the construction.
@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
@given(st.data(), coxeter_words(8, 10))
def test_the_pass_matches_the_triple_search_beyond_the_exhaustive_range(data, c):
    # a random word (almost never sortable), a sortable one, and that one
    # with two neighbours swapped, which lands on both sides
    bar = barring_of(c)
    found = sortable_permutations(c)
    s = data.draw(st.sampled_from(found)).word
    k = data.draw(st.integers(0, c.n - 2))
    for word in (data.draw(st.permutations(range(1, c.n + 1))), s, (*s[:k], s[k + 1], s[k], *s[k + 2 :])):
        p = Permutation(tuple(word))
        assert is_c_sortable(p, c) == avoids_barred_patterns(p, bar), (c, p)
    assert is_c_sortable(Permutation(s), c)


def test_filters_match_the_public_predicates():
    # reference: each permutation and element tested on its own through the
    # public predicates, which derive the barring again every time; the
    # noncrossing filter also runs at n = 6, one word per barring
    for n in range(1, 6):
        perms = list(all_permutations(n))
        for c in all_coxeter_elements(n):
            assert sortable_permutations(c) == [p for p in perms if is_c_sortable(p, c)]
            assert noncrossing_preorders(c) == [
                q for q in map(mu, perms) if is_noncrossing_preorder(q, c)
            ]
    elements = list(map(mu, all_permutations(6)))
    words = {barring_of(c): c for c in all_coxeter_elements(6)}
    for c in words.values():
        assert noncrossing_preorders(c) == [q for q in elements if is_noncrossing_preorder(q, c)], c


def test_generation_does_not_touch_s_n(monkeypatch):
    def forbidden(*args):
        raise AssertionError("noncrossing_preorders walked S_n")

    monkeypatch.setattr(shardorder.sortable, "all_permutations", forbidden)
    assert len(noncrossing_preorders(CoxeterElement.parse("2,1,4,3,5", 6))) == 132


def test_partition_oracle():
    # on noncrossing pre-orders, containment is refinement of the block
    # partitions, and the meet is the noncrossing pre-order of the blockwise
    # common refinement
    def refines(a, b):
        return all(any(x & ~y == 0 for y in b) for x in a)

    for n in range(1, 6):
        for c in all_coxeter_elements(n):
            elements = noncrossing_preorders(c)
            parts = [frozenset(b.mask for b in blocks(q)) for q in elements]
            of_partition = {}
            for q1, p1 in zip(elements, parts):
                for q2, p2 in zip(elements, parts):
                    assert (q1 <= q2) == refines(p1, p2), (c, q1, q2)
                    common = frozenset(x & y for x in p1 for y in p2 if x & y)
                    if common not in of_partition:
                        of_partition[common] = noncrossing_order_of_partition(
                            [mask_values(m) for m in common], c
                        )
                    assert meet(q1, q2) == of_partition[common], (c, q1, q2)


@pytest.mark.parametrize(
    "call, barrings",
    [
        (sortable_permutations, 0),  # built from sorting words, no barring read
        (noncrossing_preorders, 0),  # mu of the sortable words
        (lambda c: is_noncrossing_preorder(Preorder.complete(4), c), 1),
        (lambda c: noncrossing_order_of_partition([{1, 4}, {2, 3}], c), 1),
    ],
    ids=["sortable_permutations", "noncrossing_preorders",
         "is_noncrossing_preorder", "noncrossing_order_of_partition"],
)
def test_one_barring_per_call(monkeypatch, call, barrings):
    calls = []
    derive = shardorder.sortable.barring_of

    def counted(c):
        calls.append(c)
        return derive(c)

    monkeypatch.setattr(shardorder.sortable, "barring_of", counted)
    call(linear_coxeter(4))
    assert len(calls) == barrings


CALLS_PER_ELEMENT = {
    "_demands": 1,
    "close_blocks": 1,
    "block_violations": 0,
    "block_masks": 0,
    "close_rows": 0,
}


@pytest.mark.parametrize("name", list(CALLS_PER_ELEMENT))
def test_one_pass_per_noncrossing_element(monkeypatch, name):
    # each partition-mode call closes its blocks once on the block state (no
    # rows, no packed state read back) and computes its demands once, which
    # are also its crossing test; the closure makes (P1)/(P2) true, so no
    # scan runs (test_generated_elements_satisfy_the_axioms checks that
    # instead); every namespace binding the function is counted, so a call
    # through another module shows too
    real = getattr(shardorder.sortable, name, None) or getattr(shardorder.preorders, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (shardorder.preorders, shardorder.sortable):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    for n in range(1, 7):
        c = linear_coxeter(n) if n > 1 else CoxeterElement(1, ())
        for part in noncrossing_partitions(barring_of(c)):
            calls.clear()
            noncrossing_order_of_partition([mask_values(m) for m in part], c)
            assert len(calls) == CALLS_PER_ELEMENT[name], (n, part)


def test_demanded_both_ways_is_crossing():
    # the lemma in _demands' docstring, on every pair of disjoint blocks for
    # every barring at n <= 7: a pair crosses on the cycle iff the blocks
    # overlap and their witnesses demand both directions, and every
    # overlapping pair has a witness
    for n in range(1, 8):
        full = (1 << n) - 1
        for bar in {barring_of(c) for c in all_coxeter_elements(n)}:
            for m1 in range(1, full + 1):
                rest = full & ~m1
                m2 = rest
                while m2 > m1:  # each unordered pair once
                    demands = _demands([m1, m2], bar)
                    both = bool(demands) and demands[0][2] and demands[0][3]
                    assert crosses(m1, m2, bar.cycle) == both, (bar.cycle, Block.of(m1), Block.of(m2))
                    assert all(below or above for _, _, below, above in demands), (bar.cycle, m1, m2)
                    m2 = (m2 - 1) & rest


def test_only_crossing_partitions_are_rejected():
    # every set partition of [n] for every barring at n <= 6: the demands
    # reject exactly the crossing ones, with the one error line the CLI
    # prints, and build every noncrossing one
    for n in range(1, 7):
        for c in {barring_of(c): c for c in all_coxeter_elements(n)}.values():
            cycle = barring_of(c).cycle
            for part in set_partitions(list(range(1, n + 1))):
                sets = [mask_values(m) for m in part]
                if crossing_free(part, cycle):
                    q = noncrossing_order_of_partition(sets, c)
                    assert sorted(b.mask for b in blocks(q)) == sorted(part), (cycle, sets)
                else:
                    with pytest.raises(CrossingPartitionError, match="^blocks interleave on the cycle of c$"):
                        noncrossing_order_of_partition(sets, c)


def test_block_partitions_are_the_noncrossing_partitions():
    # every barring at n <= 6: the block partitions of the noncrossing
    # pre-orders are exactly the set partitions of [n] whose blocks do not
    # alternate on the cycle, one element each
    for n in range(1, 7):
        for bar, c in {barring_of(c): c for c in all_coxeter_elements(n)}.items():
            parts = [frozenset(b.mask for b in blocks(q)) for q in noncrossing_preorders(c)]
            oracle = {frozenset(part) for part in noncrossing_partitions(bar)}
            assert len(set(parts)) == len(parts) == len(oracle) == CATALAN[n], bar.cycle
            assert set(parts) == oracle, bar.cycle


def test_noncrossing_trivial_elements():
    for c in all_coxeter_elements(4):
        assert is_noncrossing_preorder(Preorder.discrete(4), c)
        assert is_noncrossing_preorder(Preorder.complete(4), c)


def test_sortable_noncrossing_equivalence_small():
    # against the definitional test on every element of S_n
    for n in range(1, 5):
        elements = list(map(mu, all_permutations(n)))
        for c in all_coxeter_elements(n):
            image = {mu(p) for p in sortable_permutations(c)}
            found = {q for q in elements if is_noncrossing_preorder(q, c)}
            assert image == found
            assert len(found) == CATALAN[n]


def _orientation_demands(b1: Block, b2: Block, bar):
    """Directions forced on an overlapping block pair, witness by witness.

    Yields +1 for b1 below b2 and -1 for b1 above b2: a member of one
    block strictly inside the other's interval demands a direction by its
    bar.  The reference for the mask rule of ``sortable._demands``.
    """
    for outer, witnesses, sign in ((b1, b2, 1), (b2, b1, -1)):
        for v in sorted(witnesses.members):
            if outer.min < v < outer.max:
                yield sign if v in bar.upper else -sign


def test_orientation_witnesses_agree():
    # every overlapping pair in every noncrossing element gets a single
    # consistent demand from all of its strictly inside witnesses
    for n in range(2, 6):
        for c in all_coxeter_elements(n):
            bar = barring_of(c)
            for q in noncrossing_preorders(c):
                for b1, b2 in itertools.combinations(blocks(q), 2):
                    if not b1.overlaps(b2):
                        continue
                    demands = set(_orientation_demands(b1, b2, bar))
                    assert len(demands) == 1, (c, q, b1, b2)


def test_mask_orientation_rule_matches_witnesses():
    # every ordered pair of disjoint value masks, every barring: an
    # overlapping pair gets one demand, read witness by witness, and a pair
    # that does not overlap gets none
    for n in range(1, 7):
        full = (1 << n) - 1
        for bar in {barring_of(c) for c in all_coxeter_elements(n)}:
            for m1 in range(1, full + 1):
                rest = full & ~m1
                m2 = rest
                while m2:
                    b1, b2 = Block.of(m1), Block.of(m2)
                    expected = []
                    if b1.overlaps(b2):
                        demands = set(_orientation_demands(b1, b2, bar))
                        expected = [(0, 1, 1 in demands, -1 in demands)]
                    assert _demands([m1, m2], bar) == expected, (bar.cycle, b1, b2)
                    m2 = (m2 - 1) & rest


def test_noncrossing_order_is_the_sortable_order():
    # one word per barring of S_7: read from their bits alone (no carried
    # state), the elements pass the definitional test and their lam words,
    # found by the full scan, strictly increase
    words = {barring_of(c): c for c in all_coxeter_elements(7)}
    assert len(words) == 32
    for c in words.values():
        plain = [Preorder(q.n, q.bits) for q in noncrossing_preorders(c)]
        assert all(is_noncrossing_preorder(q, c) for q in plain), c
        found = [lam(q).word for q in plain]
        assert all(a < b for a, b in zip(found, found[1:])), c


def test_partition_construction_singletons():
    c = linear_coxeter(5)
    q = noncrossing_order_of_partition([{v} for v in range(1, 6)], c)
    assert q == Preorder.discrete(5)


def test_partition_construction_is_inverse():
    for n in range(1, 5):
        for c in all_coxeter_elements(n):
            for q in noncrossing_preorders(c):
                rebuilt = noncrossing_order_of_partition(
                    [b.members for b in blocks(q)], c
                )
                assert rebuilt == q


def test_partition_on_example_cycle():
    # a noncrossing partition on the Example 5.1 cycle (1 3 4 5 8 9 7 6 2):
    # each block occupies a contiguous arc
    c = example_51()
    block_sets = [{1, 3}, {4, 5, 8}, {9}, {6, 7}, {2}]
    q = noncrossing_order_of_partition(block_sets, c)
    assert {b.members for b in blocks(q)} == {frozenset(b) for b in block_sets}
    assert is_noncrossing_preorder(q, c)
    assert is_c_sortable(lam(q), c)


def _build_with(transform):
    """A stand-in for ``close_blocks`` that rewrites the given relations."""
    real = shardorder.preorders.close_blocks
    return lambda masks, less: real(masks, transform(less))


@pytest.mark.parametrize(
    "transform, error, match",
    [
        (lambda less: [(0, 1), (1, 0)], InvariantError, "collapsed"),
        (lambda less: [], InvalidPreorderError, "not totally orderable"),
    ],
    ids=["closure_collapse", "word_prefix_rule"],
)
def test_construction_checks_fire(monkeypatch, transform, error, match):
    # each check after the closure reads the one block state and raises (no
    # assert), so a construction gone wrong stops there under python -O too
    monkeypatch.setattr(shardorder.sortable, "close_blocks", _build_with(transform))
    with pytest.raises(error, match=match):
        noncrossing_order_of_partition([{1, 4}, {2, 3}], linear_coxeter(4))


def test_generated_elements_satisfy_the_axioms():
    # the (P1)/(P2) scan the constructor does not run (its closure makes
    # them true), on every element of every barring at n <= 6
    for n in range(1, 7):
        for bar in {barring_of(c) for c in all_coxeter_elements(n)}:
            for part in noncrossing_partitions(bar):
                q = shardorder.sortable._order_of_partition(part, bar)
                assert not list(block_violations(*block_masks(q))), (bar.cycle, part)


def test_generated_elements_are_oriented_as_demanded():
    # the orientation half of the closing check, which the constructor does
    # not run (the closure orients every demanded pair), on every element
    # of every barring at n <= 6
    for n in range(1, 7):
        for bar in {barring_of(c) for c in all_coxeter_elements(n)}:
            for part in noncrossing_partitions(bar):
                q = shardorder.sortable._order_of_partition(part, bar)
                masks, ups, _ = block_masks(q)
                assert not _misoriented(masks, ups, _demands(masks, bar)), (bar.cycle, part)


def test_conflicting_witnesses_are_fatal(monkeypatch):
    # crossing blocks, whose witnesses disagree: the demands are checked
    # before the closure, which never runs
    monkeypatch.setattr(shardorder.sortable, "close_blocks", None)
    bar = barring_of(linear_coxeter(4))
    masks = [0b0101, 0b1010]
    with pytest.raises(CrossingPartitionError, match="interleave"):
        shardorder.sortable._order_of_partition(masks, bar)


def test_partition_rejects_crossing_and_bad_input():
    c = linear_coxeter(4)
    with pytest.raises(CrossingPartitionError):
        noncrossing_order_of_partition([{1, 3}, {2, 4}], c)
    with pytest.raises(ValueError):
        noncrossing_order_of_partition([{1, 2}, {2, 3}, {4}], c)
    with pytest.raises(ValueError):
        noncrossing_order_of_partition([{1, 2}], c)
    with pytest.raises(ValueError):
        noncrossing_order_of_partition([{1, 2}, set(), {3, 4}], c)


def test_nested_intervals_for_linear_word():
    # with every value lower-barred, comparability is interval inclusion
    c = linear_coxeter(4)
    q = noncrossing_order_of_partition([{1, 4}, {2, 3}], c)
    inner = next(b for b in blocks(q) if b.members == frozenset({2, 3}))
    outer = next(b for b in blocks(q) if b.members == frozenset({1, 4}))
    assert q.leq(inner.min, outer.min) and not q.leq(outer.min, inner.min)


def test_interval_inclusion_corollaries():
    for n in range(2, 7):
        for c, nested_below in ((linear_coxeter(n), True), (reversed_coxeter(n), False)):
            for q in noncrossing_preorders(c):
                for b1, b2 in itertools.combinations(blocks(q), 2):
                    rel_up = q.leq(b1.min, b2.min)
                    rel_down = q.leq(b2.min, b1.min)
                    inside = b2.min <= b1.min and b1.max <= b2.max
                    outside = b1.min <= b2.min and b2.max <= b1.max
                    if nested_below:
                        assert rel_up == inside and rel_down == outside
                    else:
                        assert rel_up == outside and rel_down == inside


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        is_c_sortable(identity(4), linear_coxeter(5))
    with pytest.raises(ValueError):
        is_noncrossing_preorder(Preorder.discrete(4), linear_coxeter(5))


def test_sortable_words_are_emitted_once_each():
    # the search emits one word per call, and a word emitted twice would
    # stay twice through the sort: the sorted list holds Catalan(n)
    # distinct words
    for n in range(1, 8):
        catalan = math.comb(2 * n, n) // (n + 1)
        for c in all_coxeter_elements(n):
            words = _sortable_words(c)
            assert len(set(words)) == len(words) == catalan, c
            assert words == sorted(words), c


def test_barring_is_derived_once_per_word(monkeypatch):
    # many elements tested against one word, through both sortable entry
    # points that take the word, derive its barring once; the slot that
    # keeps it is private, so ==, hash and repr ignore it
    real, made = shardorder.sortable.Barring, []

    def counted(*fields):
        made.append(fields)
        return real(*fields)

    monkeypatch.setattr(shardorder.sortable, "Barring", counted)
    c = CoxeterElement(6, (2, 1, 4, 3, 5))
    elements = noncrossing_preorders(c)
    assert all(is_noncrossing_preorder(q, c) for q in elements)
    assert all(noncrossing_order_of_partition([b.members for b in blocks(q)], c) == q for q in elements)
    assert len(made) == 1
    fresh = CoxeterElement(6, (2, 1, 4, 3, 5))
    assert fresh == c and hash(fresh) == hash(c) and repr(fresh) == repr(c)
    assert barring_of(c) is barring_of(c) == barring_of(fresh)
    assert len(made) == 2
