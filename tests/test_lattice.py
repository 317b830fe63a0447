import contextlib
import itertools
import json
import math
import random
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shardorder.lattice as lattice_module
from shardorder.errors import (
    IncomparableError,
    InvalidPreorderError,
    InvariantError,
    ResourceLimitError,
)
from shardorder.lattice import (
    OmegaLattice,
    _merge_candidates,
    _restricted_scan,
    build_lattice,
    combinable_slots,
    covers_below,
    covers_up,
    graded_covers,
    interval_lattice,
    iter_bits,
    join,
    leq,
    meet,
)
from shardorder.perms import Permutation, all_permutations
from shardorder.preorders import (
    Block,
    Preorder,
    axiom_violations,
    block_masks,
    block_violations,
    blocks,
    cover_masks,
    lam,
    mask_values,
    mu,
    placements,
    relate_blocks,
    run_masks,
)
from shardorder.shards import Shard, enumerate_shards, intersect, to_preorder
from shardorder.sortable import all_coxeter_elements, is_noncrossing_preorder, sortable_permutations

from oracles import meet_by_atoms

P = Permutation.parse


def _same_block(q, a, b):
    """a and b (1-based values) lie in one block of q."""
    return q.leq(a, b) and q.leq(b, a)


def test_leq_examples():
    bot = Preorder.discrete(4)
    top = Preorder.complete(4)
    for p in all_permutations(4):
        assert leq(bot, mu(p))
        assert leq(mu(p), top)
    assert leq(mu(P("2134")), mu(P("3214")))
    assert not leq(mu(P("3214")), mu(P("2134")))
    with pytest.raises(ValueError):
        leq(Preorder.discrete(3), Preorder.discrete(4))


def test_build_lattice_small(lattice):
    lat1 = lattice(1)
    assert len(lat1) == 1 and lat1.bottom == lat1.top
    lat3 = lattice(3)
    assert sorted(lat3.rank) == [0, 1, 1, 1, 1, 2]
    atoms = lat3.covers[lat3.bottom]
    assert len(atoms) == 4
    assert all(lat3.leq_idx(a, lat3.top) for a in atoms)
    assert len(lattice(4)) == 24


def test_size_cap():
    with pytest.raises(ResourceLimitError):
        build_lattice(8)
    assert len(build_lattice(3, force=True)) == 6


def test_rank_law(lattice):
    for n in range(1, 6):
        lat = lattice(n)
        for i, q in enumerate(lat.elements):
            assert lat.rank[i] == n - len(blocks(q))
        assert lat.rank[lat.bottom] == 0 and lat.rank[lat.top] == n - 1


def test_hasse_edges_are_graded(lattice):
    for n in range(2, 6):
        lat = lattice(n)
        for i in range(len(lat)):
            for j in lat.covers[i]:
                assert lat.rank[j] == lat.rank[i] + 1


def test_covers_up_matches_hasse(lattice):
    # n=6 included: the standalone chain walks rely on it there
    for n in range(1, 7):
        lat = lattice(n)
        for i, q in enumerate(lat.elements):
            # in index order, once each
            constructed = [lat.index_of(c) for c in covers_up(q)]
            assert constructed == list(lat.covers[i]), lat.words[i]


def test_covers_below_are_the_covers_up_below_top(lattice):
    # every comparable pair at n <= 4, a sample at n=5
    rng = random.Random(20261018)
    for n in range(1, 6):
        lat = lattice(n)
        pairs = sorted((i, j) for j, down in enumerate(lat.down_mask) for i in iter_bits(down))
        if n == 5:
            pairs = rng.sample(pairs, 400)
        for i, j in pairs:
            w, top = lat.elements[i], lat.elements[j]
            found = list(covers_below(w, top))
            got = [c for _, c in found]
            assert len(set(got)) == len(got), (lat.words[i], lat.words[j])
            assert set(got) == {c for c in covers_up(w) if leq(c, top)}, (lat.words[i], lat.words[j])
            assert all(word == lam(c).word for word, c in found), (lat.words[i], lat.words[j])


def _pairwise_combinable(w, top):
    """Index pairs i < j of the blocks of w inside one block of top that are
    incomparable or a cover, by testing every pair and triple with ``leq``."""
    mins = [b.min for b in blocks(w)]

    def covers(x, y):
        return w.leq(x, y) and not any(w.leq(x, z) and w.leq(z, y) for z in mins if z not in (x, y))

    return [
        (i, j)
        for i, j in itertools.combinations(range(len(mins)), 2)
        if _same_block(top, mins[i], mins[j])
        and (
            not (w.leq(mins[i], mins[j]) or w.leq(mins[j], mins[i]))
            or covers(mins[i], mins[j])
            or covers(mins[j], mins[i])
        )
    ]


def _covers_combinable(state, top):
    """Index pairs i < j of the blocks of a state inside one block of top
    that are incomparable, or a cover by ``cover_masks``."""
    masks, ups, _ = state
    covers = cover_masks(masks, ups)
    mins = [(b & -b).bit_length() for b in masks]
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(masks)), 2)
        if _same_block(top, mins[i], mins[j])
        and (
            not (ups[i] & masks[j] or ups[j] & masks[i])
            or covers[i] & masks[j]
            or covers[j] & masks[i]
        )
    ]


def test_combinable_slots_match_pairwise(lattice):
    # every pair w <= top at n <= 4, and top = complete at n <= 6
    for n in range(1, 7):
        lat = lattice(n)
        complete = Preorder.complete(n)
        for i, w in enumerate(lat.elements):
            tops = [top for j, top in enumerate(lat.elements) if lat.leq_idx(i, j)] if n <= 4 else [complete]
            for top in tops:
                state = block_masks(w)
                got = list(combinable_slots(state, top))
                assert got == _pairwise_combinable(w, top), (lat.words[i], lam(top))
                assert got == _covers_combinable(state, top), (lat.words[i], lam(top))


def test_each_call_reads_the_block_state_once(monkeypatch):
    import shardorder.preorders as preorders

    calls = []
    real = preorders.block_masks

    def spied(q):
        calls.append(q)
        return real(q)

    # lattice reads block states only through preorders.checked_state
    monkeypatch.setattr(preorders, "block_masks", spied)
    for p in (P("1"), P("26314758"), P("231978456"), P("987654321")):
        # a pre-order built from bits carries no state and is read once per
        # call; mu carries the state it proved, and preorder_from_json closes
        # the given blocks itself (close_blocks), so neither is ever read
        for fn in (preorders.lam, preorders.preorder_to_json, covers_up):
            bare, q = Preorder(p.n, mu(p).bits), mu(p)
            calls.clear()
            fn(bare)
            fn(q)
            assert calls == [bare], (fn.__name__, p)
        text = preorders.preorder_to_json(mu(p))
        calls.clear()
        from_json = preorders.preorder_from_json(text)
        assert calls == [], p
        q = mu(p)
        covers = covers_up(q)  # checks q once and carries its state
        # a state checked once, by a call or by the constructor, is never read again
        calls.clear()
        for r in (from_json, q, *covers):
            for fn in (preorders.lam, preorders.preorder_to_json, covers_up):
                fn(r)
        assert calls == [], p


def test_each_cover_is_written_in_one_pass(monkeypatch):
    # the word rule's slot pass (_run_slots) runs once on every cover found,
    # and the cover's word and bits come from that one pass, not from a
    # runs_word pass of their own
    import shardorder.preorders as preorders

    calls = Counter()

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in ("_run_slots", "runs_word"):
        real = getattr(preorders, name)
        for module in list(sys.modules.values()):
            if module.__name__.split(".")[0] == "shardorder" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy(name, real))
    for p in (P("1"), P("26314758"), P("231978456"), P("987654321")):
        q = mu(p)
        calls.clear()
        covers = covers_up(q)
        assert calls == Counter(_run_slots=len(covers)), p


def test_interval_walk_merges_only_inside_blocks_of_top(monkeypatch):
    # a merge across two blocks of top can only build covers above top
    top = mu(P("432156789"))
    merged = []
    real = lattice_module._merge_candidates

    def spied(n, state, i, j):
        merged.append((Block.of(state[0][i]), Block.of(state[0][j])))
        return real(n, state, i, j)

    monkeypatch.setattr(lattice_module, "_merge_candidates", spied)
    assert len(interval_lattice(Preorder.discrete(9), top)) == 24
    assert merged and all(_same_block(top, bi.min, bj.min) for bi, bj in merged)


def _relation_merge_candidates(w, bi, bj):
    """Covers of w merging bi and bj, searched on the n packed rows.

    Each candidate is closed with Warshall's algorithm and checked with
    ``axiom_violations`` on the packed relation; the reference for the
    block-level search of ``lattice._merge_candidates``.
    """
    n = w.n
    target_blocks = len(blocks(w)) - 1
    merged = bi.mask | bj.mask
    base = w.rows()
    for v in mask_values(merged):
        base[v - 1] |= merged
    out = []
    seen = set()
    stack = [Preorder.from_rows(n, base)]
    while stack:
        cand = stack.pop()
        if cand in seen:
            continue
        seen.add(cand)
        if len(blocks(cand)) != target_blocks:
            continue  # extra blocks collapsed: rank would jump by more than one
        bad = axiom_violations(cand)
        if not bad:
            out.append(cand)
        elif bad[0].axiom == "P1":
            cx, cy = bad[0].first, bad[0].second
            for lower, upper in ((cx, cy), (cy, cx)):
                rows = cand.rows()
                for v in mask_values(lower.mask):
                    rows[v - 1] |= upper.mask
                stack.append(Preorder.from_rows(n, rows))
    return out


@contextlib.contextmanager
def _restricted_scans_checked():
    """Check each restricted scan the cover search makes (``_restricted_scan``)
    against the full scan of the same state: the same failing pairs in the
    same order, so the same first one, or none.  Yields the full scans'
    failures, one list per scanned state."""
    real = lattice_module._restricted_scan
    fulls = []

    def checked(masks, ups, downs, merged):
        full = list(block_violations(masks, ups, downs))
        pairs = [(v.first.mask, v.second.mask) for v in full]
        assert list(real(masks, ups, downs, merged)) == pairs, (masks, ups, downs, merged)
        fulls.append(full)
        return real(masks, ups, downs, merged)

    with mock.patch.object(lattice_module, "_restricted_scan", checked):
        yield fulls


def test_restricted_scan_matches_the_full_scan_in_the_search():
    # every state the search visits from every combinable pair at n <= 7:
    # each is a cover or a (P1) branch, and none fails (P2), as the proof
    # in _restricted_scan's docstring says
    with _restricted_scans_checked() as fulls:
        for n in range(1, 8):
            for p in all_permutations(n):
                covers_up(mu(p))
    assert all(v.axiom == "P1" for full in fulls for v in full)
    assert {bool(full) for full in fulls} == {False, True}


def _states_after_a_merge(w):
    """Every state reached from w's block state by merging any two blocks and
    then orienting overlapping incomparable blocks, in every order, with no
    collapse; each with the slot of its merge."""
    masks, ups, downs = block_masks(w)
    for i, j in itertools.combinations(range(len(masks)), 2):
        merged = masks[i] | masks[j]
        state = relate_blocks(masks, ups, downs, merged, merged)
        if state is None:
            continue
        ms = masks[:i] + [merged] + masks[i + 1 : j] + masks[j + 1 :]
        base = tuple(sets[:j] + sets[j + 1 :] for sets in state)
        seen, stack = {tuple(base[0])}, [base]
        while stack:
            u, d = stack.pop()
            yield ms, u, d, i
            for a, b in itertools.permutations(range(len(ms)), 2):
                overlap = Block.of(ms[a]).overlaps(Block.of(ms[b]))
                if overlap and not (u[a] & ms[b] or u[b] & ms[a]):
                    step = relate_blocks(ms, u, d, ms[a], ms[b])
                    if step is not None and tuple(step[0]) not in seen:
                        seen.add(tuple(step[0]))
                        stack.append(step)


def test_restricted_scan_matches_the_full_scan_after_any_merge():
    # the proof needs only a valid start, one merge and oriented overlapping
    # pairs, not the search's choice of the first failure: every such state
    # fails (P1) only on pairs holding the merged slot, and never (P2)
    failing = Counter()
    for n in range(1, 7):
        for p in all_permutations(n):
            for masks, ups, downs, i in _states_after_a_merge(mu(p)):
                full = list(block_violations(masks, ups, downs))
                pairs = [(v.first.mask, v.second.mask) for v in full]
                assert list(_restricted_scan(masks, ups, downs, i)) == pairs, (p, masks, ups)
                for v in full:
                    assert v.axiom == "P1" and masks[i] in (v.first.mask, v.second.mask), (p, v)
                failing[bool(full)] += 1
    assert failing[True] and failing[False]


def test_relating_a_non_overlapping_pair_can_fail_p2():
    # the proof rests on orienting overlapping pairs only: with {2, 3} just
    # merged on [4], relating {1} below {4} makes a cover that does not
    # overlap, which the restricted scan of slot 1 cannot see
    masks, ups, downs = block_masks(Preorder.from_pairs(4, [(2, 3), (3, 2)]))
    ups, downs = relate_blocks(masks, ups, downs, 0b0001, 0b1000)
    full = list(block_violations(masks, ups, downs))
    assert [(v.axiom, v.first.mask, v.second.mask) for v in full] == [("P2", 0b0001, 0b1000)]
    assert list(_restricted_scan(masks, ups, downs, 1)) == []


def test_lower_covers_follow_the_runs():
    # independent of the search: each lower cover of y splits one block B of
    # y by one of the 2^|B| - |B| - 1 coatoms of the lattice on |B| values
    for n, total in zip(range(1, 7), (0, 1, 8, 56, 408, 3232)):
        below = Counter(c for p in all_permutations(n) for c in covers_up(mu(p)))
        expected = Counter()
        for p in all_permutations(n):
            sizes = [r.bit_count() for r in run_masks(p.word)]
            expected[mu(p)] = sum(2**k - k - 1 for k in sizes)
        assert below == +expected, n
        assert sum(expected.values()) == total, n


def _check_block_search(w):
    state = block_masks(w)
    for i, j in combinable_slots(state, Preorder.complete(w.n)):
        bi, bj = Block.of(state[0][i]), Block.of(state[0][j])
        with _restricted_scans_checked():
            found = list(_merge_candidates(w.n, state, i, j))
        covers = [c for _, c in found]
        assert covers == _relation_merge_candidates(w, bi, bj), (lam(w), bi, bj)
        for word, c in found:
            # reflexive and transitively closed, checked from the packed bits
            assert Preorder(c.n, c.bits) == c
            assert word == lam(c).word


def test_block_search_matches_relation_search(lattice):
    # every combinable pair of every element at n <= 5
    for n in range(1, 6):
        for w in lattice(n).elements:
            _check_block_search(w)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(8, 10).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(lambda w: Permutation(tuple(w)))
    )
)
def test_block_search_matches_relation_search_n8_to_n10(p):
    _check_block_search(mu(p))


def _pairwise_oracle(lat):
    """Down-sets and covers by testing every pair, as defined."""
    size = len(lat)
    up, down = [0] * size, [0] * size
    for i, a in enumerate(lat.elements):
        for j, b in enumerate(lat.elements):
            if a.bits & ~b.bits == 0:
                up[i] |= 1 << j
                down[j] |= 1 << i
    covers = tuple(
        tuple(
            j
            for j in range(size)
            if j != i and up[i] >> j & 1 and (up[i] & down[j]).bit_count() == 2
        )
        for i in range(size)
    )
    return down, covers


def test_kernel_matches_pairwise_oracle(lattice):
    # the covers also equal covers_up on every element: test_covers_up_matches_hasse
    for n in range(1, 7):
        lat = lattice(n)
        assert (lat.down_mask, lat.covers) == _pairwise_oracle(lat), n
    for bottom, top in (("12345678", "43215678"), ("13245678", "53214876")):
        sub = interval_lattice(mu(P(bottom)), mu(P(top)))
        assert (sub.down_mask, sub.covers) == _pairwise_oracle(sub), top


def test_interval_index_work_follows_the_distinct_rows(monkeypatch):
    # row values of n=9 are subsets of 9 values: a table over all of them
    # would group 9 * 2**8 values for an interval of 24 elements
    grouped = []
    real = lattice_module._row_groups

    def counted(n, a, elements, pairs):
        values, below_of = real(n, a, elements, pairs)
        grouped.append(len(below_of))
        return values, below_of

    monkeypatch.setattr(lattice_module, "_row_groups", counted)
    sub = interval_lattice(Preorder.discrete(9), mu(P("432156789")))
    assert len(sub) == 24 and len(grouped) == 9
    assert all(1 <= g <= 24 for g in grouped)
    assert (sub.down_mask, sub.covers) == _pairwise_oracle(sub)


def test_build_lattice_keeps_one_mask_family():
    # 5,040 down-set masks of 5,040 bits are about 3.2 MB; a second family
    # of N-bit masks per element would push the traced peak past 9 MB
    tracemalloc.start()
    try:
        build_lattice(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7_000_000, f"build_lattice(7) peaked at {peak / 1e6:.2f} MB"


def test_iter_bits_gives_the_set_bits_ascending():
    # dense masks and sparse ones: cover extraction reads a down-set inside one rank layer
    rng = random.Random(20261018)
    masks = [0, *(1 << k for k in range(0, 6000, 37))]
    masks += [rng.getrandbits(rng.randint(1, 6000)) for _ in range(60)]
    masks += [sum(1 << k for k in rng.sample(range(6000), rng.randint(1, 12))) for _ in range(60)]
    for m in masks:
        assert list(iter_bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]


def test_rank_layer_that_is_not_an_antichain_is_rejected(lattice):
    lat = lattice(4)
    rank = list(lat.rank)
    rank[lat.covers[lat.bottom][0]] = 0  # an atom in the bottom's layer
    # the generated-by-covers check implies that rank layers are antichains
    with pytest.raises(InvariantError, match="not generated"):
        graded_covers(lat.down_mask, rank)


def test_down_set_its_covers_do_not_generate_is_rejected(lattice):
    lat = lattice(4)
    down = list(lat.down_mask)
    down[lat.top] &= ~(1 << lat.bottom)
    with pytest.raises(InvariantError, match="not generated"):
        graded_covers(down, lat.rank)
    # a corrupted rank that keeps every layer an antichain: the top alone,
    # one layer too high, no longer covers the coatoms
    rank = list(lat.rank)
    rank[lat.top] += 1
    with pytest.raises(InvariantError, match="not generated"):
        graded_covers(lat.down_mask, rank)


def test_figure4_covers():
    omega = mu(P("31245"))
    cov = covers_up(omega)
    assert len(cov) == 8
    # both orientations of the newly overlapping singleton {4}
    assert mu(P("53124")) in cov and mu(P("45312")) in cov
    # every pair of blocks of omega is combinable: 6 merges, two branched
    merged = sorted(
        tuple(sorted(len(b.members) for b in blocks(c))) for c in cov
    )
    assert all(len(m) == 3 for m in merged)


def test_figure4_f_non_cover():
    f = mu(P("31524"))  # {1,3} < {2,5} < {4}
    cov = covers_up(f)
    assert sorted(str(lam(c)) for c in cov) == ["31542", "53214"]
    assert Preorder.complete(5) not in cov
    assert not any(
        any({1, 3, 4} <= b.members for b in blocks(c)) for c in cov
    )


def test_atoms_are_single_shard_cones(lattice):
    for n in range(2, 6):
        lat = lattice(n)
        atoms = {lat.elements[j] for j in lat.covers[lat.bottom]}
        shard_cones = {to_preorder(intersect([s])) for s in enumerate_shards(n)}
        assert atoms == shard_cones
        assert len(atoms) == len(enumerate_shards(n))


def test_join_meet_bounds(lattice):
    lat = lattice(4)
    bot, top = lat.elements[lat.bottom], lat.elements[lat.top]
    for q in lat.elements:
        assert join(q, bot) == q
        assert meet(q, top) == q
        assert join(q, top) == top
        assert meet(q, bot) == bot


def test_join_example_31():
    a = to_preorder(intersect([Shard(7, 1, 4, (1, -1))]))
    b = to_preorder(intersect([Shard(7, 6, 7, ())]))
    assert join(a, b) == mu(P("3412576"))


def test_meet_example(lattice):
    lat = lattice(4)
    got = meet(mu(P("3214")), mu(P("1432")))
    # oracle: brute-force maximal common lower bound, verified unique
    lower = [
        q
        for q in lat.elements
        if leq(q, mu(P("3214"))) and leq(q, mu(P("1432")))
    ]
    maximal = [q for q in lower if not any(leq(q, z) and q != z for z in lower)]
    assert maximal == [mu(P("1324"))]
    assert got == maximal[0]


def test_meet_is_the_join_of_the_shards_below_both():
    for n in range(1, 5):
        elements = list(map(mu, all_permutations(n)))
        for a, b in itertools.product(elements, repeat=2):
            assert meet(a, b) == meet_by_atoms(a, b), (a, b)


def test_lattice_laws_n4(lattice):
    lat = lattice(4)
    # up-sets by definition: the elements whose down-set holds i
    up = [{k for k, down in enumerate(lat.down_mask) if down >> i & 1} for i in range(len(lat))]
    for a, b in itertools.product(lat.elements, repeat=2):
        j = join(a, b)
        m = meet(a, b)
        assert leq(a, j) and leq(b, j)
        assert leq(m, a) and leq(m, b)
        # universal properties against every element
        ia, ib = lat.index_of(a), lat.index_of(b)
        assert up[lat.index_of(j)] == up[ia] & up[ib]
        common_down = lat.down_mask[ia] & lat.down_mask[ib]
        assert lat.down_mask[lat.index_of(m)] == common_down
        # commutativity and absorption
        assert join(b, a) == j and meet(b, a) == m
        assert join(a, m) == a and meet(a, j) == a


def test_atomic_coatomic_n4(lattice):
    lat = lattice(4)
    atoms = [lat.elements[i] for i in lat.covers[lat.bottom]]
    coatoms = [
        lat.elements[i]
        for i in range(len(lat))
        if lat.top in lat.covers[i]
    ]
    bot, top = lat.elements[lat.bottom], lat.elements[lat.top]
    for q in lat.elements:
        below = [a for a in atoms if leq(a, q)]
        acc = bot
        for a in below:
            acc = join(acc, a)
        assert acc == q
        above = [c for c in coatoms if leq(q, c)]
        acc = top
        for c in above:
            acc = meet(acc, c)
        assert acc == q


def _interval(lat, bottom, top):
    """(members, edges) of [bottom, top] read from the kernel: the members
    are the elements of ``down_mask[j]`` whose down-set holds i, in index
    order, the edges the kernel's covers inside it, as positions in members."""
    i, j = lat.index_of(bottom), lat.index_of(top)
    ids = [k for k in iter_bits(lat.down_mask[j]) if lat.leq_idx(i, k)]
    local = {k: pos for pos, k in enumerate(ids)}
    edges = tuple((local[k], local[c]) for k in ids for c in lat.covers[k] if c in local)
    return tuple(lat.elements[k] for k in ids), edges


def test_interval_basics(lattice):
    lat = lattice(4)
    q = mu(P("2314"))
    assert _interval(lat, q, q) == ((q,), ())
    members, edges = _interval(lat, Preorder.discrete(4), Preorder.complete(4))
    assert len(members) == 24 and len(edges) == sum(map(len, lat.covers))
    assert _interval(lat, mu(P("2134")), mu(P("1324"))) == ((), ())


def test_interval_below_3214(lattice):
    # brute containment scan: identity, all four atoms merging inside
    # {1,2,3}, and the top itself
    lat = lattice(4)
    members, _ = _interval(lat, Preorder.discrete(4), mu(P("3214")))
    got = sorted(str(lam(q)) for q in members)
    oracle = sorted(
        str(lam(q)) for q in lat.elements if leq(q, mu(P("3214")))
    )
    assert got == oracle == ["1234", "1324", "2134", "2314", "3124", "3214"]


def test_interval_lattice_matches_the_full_lattice(lattice):
    lat = lattice(4)
    for i, a in enumerate(lat.elements):
        for j, b in enumerate(lat.elements):
            if not lat.leq_idx(i, j):
                with pytest.raises(IncomparableError):
                    interval_lattice(a, b)
                continue
            (members, edges), sub = _interval(lat, a, b), interval_lattice(a, b)
            assert sub.elements == members
            # each element's carried state gives the runs of its word
            assert sub.runs == tuple(run_masks(w.word) for w in sub.words)
            assert sub.elements[sub.bottom] == a and sub.elements[sub.top] == b
            assert [sub.rank[k] for k in range(len(sub))] == [
                lat.rank[lat.index_of(q)] for q in members
            ]
            assert tuple((k, c) for k in range(len(sub)) for c in sub.covers[k]) == edges


def test_interval_lattice_checks_both_endpoints():
    # blocks {1} < {3} form a cover but their intervals do not meet: (P2) fails
    bad = Preorder.from_pairs(3, [(1, 3)])
    with pytest.raises(InvalidPreorderError):
        interval_lattice(Preorder.discrete(3), bad)
    with pytest.raises(InvalidPreorderError):
        interval_lattice(bad, Preorder.complete(3))


def test_indexed_elements_and_runs_come_from_the_words(lattice):
    # the words are the one input: each element is mu of its word, and the
    # runs it carries are the word's runs, in the full lattice and an interval
    for lat in (lattice(4), interval_lattice(mu(P("1324")), Preorder.complete(4))):
        assert lat.elements == tuple(map(mu, lat.words))
        assert lat.runs == tuple(run_masks(w.word) for w in lat.words)


def test_sortable_words_index_the_noncrossing_sublattice():
    # the c-sortable words index the noncrossing pre-orders (Reading,
    # arXiv:0909.3288), in lam-word order: the definitional test's filter of
    # mu(S_n), which is in that order; the kernel's cover check passes on
    # them, and the rank sizes are the Narayana numbers
    for n in range(1, 6):
        narayana = [math.comb(n, k) * math.comb(n, k - 1) // n for k in range(1, n + 1)]
        elements = list(map(mu, all_permutations(n)))
        for c in all_coxeter_elements(n):
            sub = OmegaLattice(n, sortable_permutations(c))
            assert sub.elements == tuple(q for q in elements if is_noncrossing_preorder(q, c)), c
            assert [layer.bit_count() for layer in sub.layers] == narayana, c


@pytest.mark.parametrize(
    "words, match",
    [
        (["213", "132"], "no least or no greatest element"),
        (["213", "132", "321"], "no least or no greatest element"),
        (["123", "213", "132"], "no least or no greatest element"),
        (["12", "123", "321"], "size n=3"),
        (["123", "123", "321"], "repeat"),
        ([], "one or more"),
    ],
    ids=["no_bottom", "top_without_bottom", "bottom_without_top", "wrong_size", "repeated", "empty"],
)
def test_lattice_rejects_bad_word_lists(words, match):
    # each fault is named in one line, before any kernel work can fail on it
    with pytest.raises(ValueError, match=match) as caught:
        OmegaLattice(3, map(P, words))
    assert "\n" not in str(caught.value)


def test_interval_lattice_stays_small_at_n8():
    # build_lattice(8) would index 40,320 elements; this interval has 24
    sub = interval_lattice(Preorder.discrete(8), mu(P("43215678")))
    assert len(sub) == 24 and sub.rank[sub.top] == 3


def test_interval_edges_consistent(lattice):
    # the kernel's edges inside the interval against its definitional
    # covers: pairs of members with no member strictly between, through leq
    lat = lattice(4)
    members, edges = _interval(lat, mu(P("2134")), Preorder.complete(4))
    size = range(len(members))
    below = {(a, b) for a in size for b in size if a != b and leq(members[a], members[b])}
    covers = {(a, b) for a, b in below if not any((a, c) in below and (c, b) in below for c in size)}
    assert sorted(edges) == sorted(covers) and covers


def _cover_pairs(lat):
    for i in range(len(lat)):
        for j in lat.covers[i]:
            yield i, j


def _check_placement_proposition(lower, upper):
    pl_low = placements(lower)
    pl_up = placements(upper)
    low_blocks = blocks(lower)
    up_sets = {b.members for b in blocks(upper)}
    b1, b2 = sorted(
        (b for b in low_blocks if b.members not in up_sets),
        key=lambda b: pl_low[b],
    )
    a, c = pl_low[b1], pl_low[b2]
    merged = next(b for b in blocks(upper) if b1.members <= b.members)
    contains = {b.members: b for b in blocks(upper)}

    def up_block(low_block):
        return next(b for b in blocks(upper) if low_block.members <= b.members)

    for b in low_blocks:
        pos = pl_low[b]
        comparable_up = lambda x, y: upper.leq(x.min, y.min) or upper.leq(y.min, x.min)
        # (1) strictly between placements forces comparability with the merge
        if a < pos < c:
            assert comparable_up(up_block(b), merged)
        # (2) converse for blocks untouched and unrelated below
        if b.members not in (b1.members, b2.members):
            low_incomp = not (
                lower.leq(b.min, b1.min) or lower.leq(b1.min, b.min)
            ) and not (lower.leq(b.min, b2.min) or lower.leq(b2.min, b.min))
            if low_incomp and comparable_up(b, merged):
                assert a < pos < c
        # (3) placement shifts
        target = up_block(b)
        if pos < a:
            assert pl_up[target] == pos
        elif pos > c:
            assert pl_up[target] == pos - 1
        else:
            assert a <= pl_up[target] <= c - 1
        # (5) anything left of the larger placement stays left of it
        if pos < c:
            assert pl_up[target] < c

    # (4) blocks combinable with the merge upstairs, placed below c, were
    # combinable with the lower part downstairs; combinable is read off each
    # element's block state, top = complete putting no bound on the pairs
    def combinable(q):
        state = block_masks(q)
        pairs = set(combinable_slots(state, Preorder.complete(q.n)))
        return lambda x, y: tuple(sorted((state[0].index(x.mask), state[0].index(y.mask)))) in pairs

    combinable_up, combinable_low = combinable(upper), combinable(lower)
    for b in blocks(upper):
        if b == merged or pl_up[b] >= c:
            continue
        if not combinable_up(b, merged):
            continue
        assert combinable_low(b, b1)


def test_placement_proposition_exhaustive_n4(lattice):
    lat = lattice(4)
    for i, j in _cover_pairs(lat):
        _check_placement_proposition(lat.elements[i], lat.elements[j])


def test_placement_proposition_sampled(lattice):
    rng = random.Random(20260809)
    for n in (5, 6):
        lat = lattice(n)
        pairs = list(_cover_pairs(lat))
        for i, j in rng.sample(pairs, 250):
            _check_placement_proposition(lat.elements[i], lat.elements[j])


def test_cover_reachability_lemma(lattice):
    # whenever two combinable blocks of w share a block of top, some cover
    # of w below top merges exactly that pair
    lat = lattice(4)
    for i in range(len(lat)):
        for j in range(len(lat)):
            if i == j or not lat.leq_idx(i, j):
                continue
            w, top = lat.elements[i], lat.elements[j]
            bs = blocks(w)
            for a, b in combinable_slots(block_masks(w), top):
                hits = [
                    c
                    for c in covers_up(w)
                    if leq(c, top) and _same_block(c, bs[a].min, bs[b].min)
                ]
                assert hits, (lat.words[i], lat.words[j], bs[a], bs[b])


def test_hasse_exports(lattice):
    lat = lattice(3)
    data = lat.to_json()
    assert data["n"] == 3
    assert data["nodes"] == ["123", "132", "213", "231", "312", "321"]
    assert len(data["edges"]) == sum(len(c) for c in lat.covers)
    assert data == lat.to_json()  # deterministic
    dot = lat.to_dot()
    assert dot.startswith("digraph hasse {")
    assert '"123" -> "213";' in dot
    assert dot == lat.to_dot()
    lat1 = lattice(1)
    assert lat1.to_json() == {"n": 1, "nodes": ["1"], "edges": []}


def test_hasse_edges_come_in_index_order(lattice):
    for n in range(1, 6):
        edges = lattice(n).to_json()["edges"]
        assert edges == sorted(edges) and len(set(map(tuple, edges))) == len(edges)


def test_hasse_text_is_the_indented_json_dump(lattice):
    # n=1 has no edges: the encoder writes "edges": [] on one line
    subs = [interval_lattice(Preorder.discrete(8), mu(P("43215678")))]
    for lat in [lattice(n) for n in range(1, 7)] + subs:
        assert lat.to_json_text() == json.dumps(lat.to_json(), indent=2) + "\n", lat.n


def test_join_membership_failure_raises(lattice, monkeypatch):
    lat = lattice(3)
    a, b = lat.elements[1], lat.elements[2]
    # the closure of the union comes out as a real non-element (its blocks
    # {1,3} and {2} overlap but are incomparable), so only the result check fails
    monkeypatch.setattr(Preorder, "from_rows", staticmethod(lambda n, rows: Preorder(3, 0b101010101)))
    with pytest.raises(InvariantError, match="join fell outside the lattice"):
        join(a, b)
    with pytest.raises(InvariantError, match="meet fell outside the lattice"):
        meet(a, b)


def test_join_checks_its_arguments():
    # two closed relations outside the lattice whose join is an element
    a, b = Preorder(3, 275), Preorder(3, 281)
    assert axiom_violations(a) and axiom_violations(b)
    for op in (join, meet):
        # blocks {1} < {3} form a cover but their intervals do not meet: (P2) fails
        with pytest.raises(InvalidPreorderError):
            op(Preorder.from_pairs(3, [(1, 3)]), Preorder.discrete(3))
        with pytest.raises(InvalidPreorderError):
            op(Preorder.discrete(3), Preorder.from_pairs(3, [(1, 3)]))
        with pytest.raises(InvalidPreorderError):
            op(a, b)


def test_join_outside_raises():
    # joining or meeting elements of different sizes is a usage error
    for op in (join, meet):
        with pytest.raises(ValueError):
            op(Preorder.discrete(3), Preorder.discrete(4))
