"""The block state an element carries once it is checked (``checked_state``).

Each element is checked against (P1)/(P2) once, by the first reader or by
the constructor that built it, and carries the state it was checked on.
These tests count the reads and scans, check that nothing the user builds
skips the check, and compare every carried state with the packed bits.
"""
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardorder.errors import InvalidPreorderError
from shardorder.lattice import build_lattice, covers_up, interval_lattice, join
from shardorder.perms import Permutation, all_permutations
from shardorder.preorders import (
    Preorder,
    axiom_violations,
    block_masks,
    block_rows,
    checked_state,
    lam,
    mask_values,
    mu,
    preorder_from_json,
    preorder_to_json,
    run_masks,
    runs_word,
)
from shardorder.shards import intersect, lower_shards, to_preorder
from shardorder.shelling import chain_report, edge_label, increasing_chain
from shardorder.sortable import (
    CoxeterElement,
    barring_of,
    is_noncrossing_preorder,
    noncrossing_order_of_partition,
    noncrossing_preorders,
)

from oracles import linear_coxeter


def _bind_everywhere(monkeypatch, name, replacement):
    """Replace every binding of the preorders function ``name`` in the package."""
    import shardorder.preorders as preorders

    real = getattr(preorders, name)
    for module in list(sys.modules.values()):
        if module.__name__.split(".")[0] == "shardorder" and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, replacement)
    return real


def carries_its_state(x):
    """Is x's carried state the blocks of its bits, in run order?  The carried
    masks sorted by min must be the blocks read off the rows, the rows at
    their mins their up-sets, and the masks, written as runs, must be a word
    that mu sends to x."""
    by_min = sorted(x._state, key=lambda b: b & -b)
    masks, ups, _ = block_masks(x)
    return by_min == masks and block_rows(x, by_min) == ups and mu(Permutation(runs_word(x._state))) == x


def test_each_element_reads_and_checks_its_state_three_times(monkeypatch):
    # the element stream of the benchmark: map, JSON, unmap, the shard
    # oracle, covers_up, and join with the previous element.  mu carries the
    # state its runs prove valid, so preorder_to_json and covers_up read it
    # back; preorder_from_json checks the state it closed, and join reads
    # and checks only its fresh result: one read and two scans per element
    reads, scans = [], []
    real_masks = _bind_everywhere(monkeypatch, "block_masks", lambda q: reads.append(q) or real_masks(q))

    def scan(masks, ups, downs):
        scans.append(masks)
        return real_violations(masks, ups, downs)

    real_violations = _bind_everywhere(monkeypatch, "block_violations", scan)
    rng = random.Random(20261018)
    prev = None
    for _ in range(50):
        p = Permutation(tuple(rng.sample(range(1, 10), 9)))
        reads.clear()
        scans.clear()
        q = mu(p)
        text = json.dumps(preorder_to_json(q))
        assert lam(preorder_from_json(json.loads(text))) == p
        assert to_preorder(intersect(lower_shards(p), n=9)) == q
        covers_up(q)
        join(q, q if prev is None else prev)
        prev = q
        assert (len(reads), len(scans)) == (1, 2), p


def test_mu_carries_the_state_of_its_bits():
    # the carried state against the state read off the packed rows, its
    # blocks in the order of the word's runs, and the image against the
    # full (P1)/(P2) scan, which reads the rows too
    for n in range(1, 8):
        for p in all_permutations(n):
            q = mu(p)
            assert carries_its_state(q), p
            assert checked_state(q) == run_masks(p.word), p
            assert axiom_violations(q) == [], p


def test_indexed_elements_are_never_scanned(monkeypatch):
    # build_lattice makes its elements with mu, which carries the state its
    # runs prove valid, so the cover search from each of them scans nothing
    scans = []
    real = _bind_everywhere(monkeypatch, "require_block_axioms", lambda *state: scans.append(state) or real(*state))
    lat = build_lattice(6)
    for q in lat.elements:
        covers_up(q)
    assert len(lat) == 720 and scans == []


def _non_elements():
    """Closed relations outside the lattice, built the ways a user can."""
    p1 = [0b0101, 0b1010, 0b0101, 0b1010]  # blocks {1,3} and {2,4} overlap, unrelated
    return [
        Preorder.from_rows(3, [0b100, 0, 0]),  # {1} < {3} a cover, no overlap: (P2)
        Preorder(4, sum(r << 4 * a for a, r in enumerate(p1))),  # (P1)
        Preorder(3, 275),
        Preorder.from_rows(9, [1 << 8] + [0] * 8),
    ]


@pytest.mark.parametrize("bad", _non_elements(), ids=repr)
def test_a_non_element_is_rejected_on_every_call(bad):
    n = bad.n
    good = Preorder.discrete(n)
    calls = [
        lambda: lam(bad),
        lambda: preorder_to_json(bad),
        lambda: covers_up(bad),
        lambda: join(bad, good),
        lambda: join(good, bad),
        lambda: interval_lattice(bad, Preorder.complete(n)),
        lambda: interval_lattice(good, bad),
        lambda: edge_label(bad, Preorder.complete(n)),
        lambda: increasing_chain(bad, Preorder.complete(n)),
    ]
    for call in calls:
        for _ in range(2):
            with pytest.raises(InvalidPreorderError):
                call()
    assert bad._state is None


def test_only_checking_code_carries_a_state():
    # mu proves its image valid (see its docstring), so it carries the state
    # of its bits; what a user builds from bits or rows carries nothing
    p = Permutation((2, 6, 3, 1, 4, 7, 5, 8))
    q = mu(p)
    assert carries_its_state(q)
    built = [Preorder(q.n, q.bits), Preorder.from_rows(q.n, q.rows()), Preorder.discrete(4)]
    assert [x._state for x in built] == [None] * len(built)
    for check in (lam, preorder_to_json):
        x = Preorder(q.n, q.bits)
        check(x)
        assert carries_its_state(x), check.__name__
    # noncrossing elements are mu images, and partition mode checks the
    # state it builds, so both carry it
    c = linear_coxeter(5)
    for x in noncrossing_preorders(c):
        assert carries_its_state(x), x
        rebuilt = noncrossing_order_of_partition([mask_values(m) for m in checked_state(x)], c)
        assert carries_its_state(rebuilt) and rebuilt == x, x


@pytest.mark.parametrize(
    "axiom, top",
    [
        ("P2", Preorder.from_pairs(4, [(1, 2), (2, 1), (1, 4)])),  # {1,2} < {4} a cover, no overlap
        ("P1", Preorder.from_pairs(4, [(1, 3), (3, 1)])),  # {1,3} and {2} overlap, unrelated
    ],
    ids=["P2", "P1"],
)
def test_a_non_element_upper_end_is_rejected(axiom, top):
    # the upper element of an edge label and the top of a chain are read
    # through checked_state, like the lower ones: neither may pass as a
    # cover or end a chain
    bottom = Preorder.discrete(4)
    for call in (edge_label, increasing_chain, chain_report):
        with pytest.raises(InvalidPreorderError, match=axiom):
            call(bottom, top)
    assert top._state is None


def test_noncrossing_elements_are_scanned_once_through_json(monkeypatch):
    # the elements are mu images, and partition mode carries a state its
    # closure makes valid, with no scan (the proof is in
    # _order_of_partition's docstring); preorder_to_json reads either state
    # back, so no element is ever scanned
    scans = []

    def scan(masks, ups, downs):
        scans.append(masks)
        return real_violations(masks, ups, downs)

    real_violations = _bind_everywhere(monkeypatch, "block_violations", scan)
    c = CoxeterElement(6, (2, 1, 4, 3, 5))
    elements = noncrossing_preorders(c)
    for q in elements:
        preorder_to_json(q)
        preorder_to_json(noncrossing_order_of_partition([mask_values(m) for m in checked_state(q)], c))
    assert len(elements) == 132 and scans == []


def _noncrossing_blocks(labels):
    """Cycle positions grouped by label, blocks merged while two of them cross."""
    blocks = [set(k for k, x in enumerate(labels) if x == label) for label in set(labels)]

    def cross(a, b):
        return any(
            w < x < y < z or x < w < z < y
            for w, y in itertools.combinations(sorted(a), 2)
            for x, z in itertools.combinations(sorted(b), 2)
        )

    while True:
        pair = next(((a, b) for a, b in itertools.combinations(blocks, 2) if cross(a, b)), None)
        if pair is None:
            return blocks
        blocks.remove(pair[1])
        pair[0].update(pair[1])


@st.composite
def carried_elements(draw):
    """Elements whose state was checked or proved: covers, a mu image, a
    JSON result, a join result and a noncrossing element, at n = 8..10."""
    n = draw(st.integers(8, 10))
    word = st.permutations(range(1, n + 1)).map(lambda w: Permutation(tuple(w)))
    a, b = mu(draw(word)), mu(draw(word))
    out = [*covers_up(a), a, preorder_from_json(preorder_to_json(b)), join(a, b)]
    c = CoxeterElement(n, tuple(draw(st.permutations(range(1, n)))))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cycle = barring_of(c).cycle
    blocks = [{cycle[k] for k in block} for block in _noncrossing_blocks(labels)]
    q = noncrossing_order_of_partition(blocks, c)
    assert is_noncrossing_preorder(q, c)
    return [*out, q]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(carried_elements())
def test_every_carried_state_is_the_state_of_the_bits(elements):
    for x in elements:
        assert carries_its_state(x), x
        plain = Preorder(x.n, x.bits)
        assert plain._state is None
        assert plain == x and hash(plain) == hash(x) and repr(plain) == repr(x)
        assert {plain, x} == {x}
