import math
import sys

import pytest

import shardorder.preorders as preorders
import shardorder.shelling as shelling
from shardorder.errors import IncomparableError, InvalidPreorderError, InvariantError
import shardorder.lattice as lattice_module
from shardorder.lattice import build_lattice, combinable_slots, covers_below, covers_up, interval_lattice, leq
from shardorder.perms import Permutation, all_permutations
from shardorder.preorders import Preorder, block_masks, blocks, checked_state, lam, mu
from shardorder.shelling import (
    chain_counts,
    chain_report,
    count_decreasing_chains,
    edge_label,
    increasing_chain,
    mobius,
)

from oracles import is_indecomposable

P = Permutation.parse


def all_label_words(lat, labels, i, j, memo=None):
    """Label words of every maximal chain from i to j (cover paths)."""
    if memo is None:
        memo = {}
    if (i, j) in memo:
        return memo[(i, j)]
    if i == j:
        out = [()]
    else:
        out = [
            (labels[(i, c)],) + rest
            for c in lat.covers[i]
            if lat.leq_idx(c, j)
            for rest in all_label_words(lat, labels, c, j, memo)
        ]
    memo[(i, j)] = out
    return out


def test_merged_pair_and_label_from_bottom(lattice):
    lat = lattice(4)
    bot = lat.elements[lat.bottom]
    for j in lat.covers[lat.bottom]:
        atom = lat.elements[j]
        b1, b2 = set(blocks(bot)) - set(blocks(atom))
        doubleton = next(b for b in blocks(atom) if len(b.members) == 2)
        assert b1.members | b2.members == doubleton.members
        # placements in the bottom element are the values themselves
        assert edge_label(bot, atom) == doubleton.max


def test_edge_label_rejects_non_covers():
    with pytest.raises(ValueError):
        edge_label(Preorder.discrete(4), Preorder.complete(4))
    with pytest.raises(ValueError):
        edge_label(mu(P("2134")), mu(P("1324")))
    with pytest.raises(ValueError):
        edge_label(mu(P("2134")), mu(P("2134")))


def test_s3_labels_brute():
    lat3_words = {}
    from shardorder.lattice import build_lattice

    lat = build_lattice(3)
    for i in range(len(lat)):
        for j in lat.covers[i]:
            lat3_words[(str(lat.words[i]), str(lat.words[j]))] = edge_label(
                lat.elements[i], lat.elements[j]
            )
    assert lat3_words == {
        ("123", "132"): 3,
        ("123", "213"): 2,
        ("123", "231"): 3,
        ("123", "312"): 3,
        ("132", "321"): 2,
        ("213", "321"): 2,
        ("231", "321"): 2,
        ("312", "321"): 2,
    }


def test_label_range(lattice, edge_labels):
    for n in range(2, 6):
        lat = lattice(n)
        for (i, _), lab in edge_labels(n).items():
            assert 2 <= lab <= len(blocks(lat.elements[i]))
            assert lab <= n


def test_combinable_pairs_trivial():
    bot, top = Preorder.discrete(4), Preorder.complete(4)
    got = list(combinable_slots(block_masks(bot), top))
    assert len(got) == 6  # C(4,2) singleton pairs
    assert list(combinable_slots(block_masks(top), top)) == []
    # the blocks of the bottom element are the singletons {1}, ..., {4}
    assert list(combinable_slots(block_masks(bot), mu(P("3214")))) == [(0, 1), (0, 2), (1, 2)]
    with pytest.raises(IncomparableError):
        list(covers_below(mu(P("2134")), mu(P("1324"))))


def test_increasing_chain_trivial():
    q = mu(P("2314"))
    chain = increasing_chain(q, q)
    assert chain.elements == (q,) and chain.labels == ()


def test_increasing_chain_full_s4():
    chain = increasing_chain(Preorder.discrete(4), Preorder.complete(4))
    assert [str(lam(q)) for q in chain.elements] == ["1234", "2134", "3214", "4321"]
    assert chain.labels == (2, 2, 2)


def test_increasing_chain_incomparable_raises():
    with pytest.raises(IncomparableError):
        increasing_chain(mu(P("2134")), mu(P("1324")))


def test_el_labeling_exhaustive_n4(lattice, edge_labels):
    lat = lattice(4)
    labels = edge_labels(4)
    memo = {}
    for i in range(len(lat)):
        for j in range(len(lat)):
            if not lat.leq_idx(i, j):
                continue
            words = all_label_words(lat, labels, i, j, memo)
            increasing = [w for w in words if list(w) == sorted(w)]
            assert len(increasing) == 1, (lat.words[i], lat.words[j])
            greedy = increasing_chain(lat.elements[i], lat.elements[j])
            assert greedy.labels == increasing[0]
            assert all(increasing[0] < w for w in words if w != increasing[0])


def test_count_decreasing_chains():
    assert count_decreasing_chains(mu(P("2314")), mu(P("2314"))) == 1
    assert count_decreasing_chains(Preorder.discrete(3), Preorder.complete(3)) == 3
    assert count_decreasing_chains(Preorder.discrete(4), Preorder.complete(4)) == 13


def test_mobius_values():
    q = mu(P("2314"))
    assert mobius(q, q) == 1
    assert mobius(Preorder.discrete(4), Preorder.complete(4)) == -13
    for n, expected in ((1, 1), (2, 1), (3, 3), (4, 13), (5, 71)):
        got = mobius(Preorder.discrete(n), Preorder.complete(n))
        assert abs(got) == expected
        assert got == (-1) ** (n - 1) * expected


def test_mobius_equals_indecomposable_count():
    for n in range(1, 6):
        value = mobius(Preorder.discrete(n), Preorder.complete(n))
        count = sum(is_indecomposable(p) for p in all_permutations(n))
        assert abs(value) == count


def test_mobius_recursion_agreement_n4(lattice, edge_labels):
    # independent recursion over every interval, against the signed count
    lat = lattice(4)
    labels = edge_labels(4)
    for i in range(len(lat)):
        table = {i: 1}
        order = sorted(
            (k for k in range(len(lat)) if lat.leq_idx(i, k)),
            key=lambda k: lat.rank[k],
        )
        for y in order:
            if y == i:
                continue
            table[y] = -sum(
                table[z] for z in order if z != y and lat.leq_idx(z, y)
            )
        for j in order:
            signed = (-1) ** (lat.rank[j] - lat.rank[i]) * _dec_count(
                lat, labels, i, j
            )
            assert signed == table[j]
            assert mobius(lat.elements[i], lat.elements[j]) == signed


def _dec_count(lat, labels, i, j, last=None, memo=None):
    if memo is None:
        memo = {}
    if last is None:
        last = lat.n + 1
    key = (i, last)
    if key in memo:
        return memo[key]
    if i == j:
        memo[key] = 1
        return 1
    total = 0
    for c in lat.covers[i]:
        if lat.leq_idx(c, j) and labels[(i, c)] < last:
            total += _dec_count(lat, labels, c, j, labels[(i, c)], memo)
    memo[key] = total
    return total


def test_chain_report():
    report = chain_report(Preorder.discrete(4), Preorder.complete(4))
    assert report["interval"] == ["1234", "4321"]
    assert report["increasing"] == [2, 2, 2]
    assert report["decreasing_count"] == 13
    assert report["mobius"] == -13
    assert len(report["max_label_multiplicities"]) == 3
    assert all(m >= 1 for m in report["max_label_multiplicities"])


def _max_label_walk_brute(bottom, top):
    """The max-label walk by covers_up and edge_label, ties broken on bits."""
    out, cur = [], bottom
    while cur != top:
        scored = sorted(
            ((edge_label(cur, c), c) for c in covers_up(cur) if leq(c, top)),
            key=lambda t: (-t[0], t[1].bits),
        )
        out.append(sum(1 for lab, _ in scored if lab == scored[0][0]))
        cur = scored[0][1]
    return out


@pytest.mark.parametrize("n", [4, 5])
def test_max_label_multiplicities_match_brute_force(lattice, n):
    # n=5 has intervals where the tie-break on bits changes the counts
    lat = lattice(n)
    for i, a in enumerate(lat.elements):
        for j, b in enumerate(lat.elements):
            if lat.leq_idx(i, j):
                want = _max_label_walk_brute(a, b)
                assert chain_report(a, b, lat)["max_label_multiplicities"] == want
                if n == 4:
                    assert chain_report(a, b)["max_label_multiplicities"] == want


def test_mobius_incomparable_raises():
    with pytest.raises(IncomparableError):
        mobius(mu(P("2134")), mu(P("1324")))


@pytest.mark.parametrize("count", [mobius, chain_counts])
def test_counts_without_a_lattice_check_both_endpoints(count):
    # blocks {1} < {3} form a cover but their intervals do not meet: (P2) fails
    bad = Preorder.from_pairs(3, [(1, 3)])
    with pytest.raises(InvalidPreorderError):
        count(Preorder.discrete(3), bad)
    with pytest.raises(InvalidPreorderError):
        count(bad, Preorder.complete(3))


def test_kernel_labels_match_edge_label(lattice, edge_labels):
    # the one table of [b, t]: its keys are the interval by <=, and its edges
    # the kernel's covers inside it, labeled as edge_label labels them
    for n in range(1, 6):
        lat, labels = lattice(n), edge_labels(n)
        elements = lat.elements
        tops = range(len(lat)) if n <= 4 else [lat.top]
        for t in tops:
            for b in range(len(lat)):
                if not elements[b] <= elements[t]:
                    continue
                got = shelling._interval(elements[b], elements[t], lat)
                assert got[:3] == (lat, b, t)
                inside = {k for k, q in enumerate(elements) if elements[b] <= q <= elements[t]}
                assert set(got[3]) == inside, (n, b, t)
                want = sorted((i, c, labels[i, c]) for i in inside for c in lat.covers[i] if c in inside)
                assert sorted((i, c, lab) for i, edges in got[3].items() for c, lab in edges) == want


def test_whole_interval_is_indexed_without_a_walk(monkeypatch):
    # [discrete, complete] is indexed off S_n's words; any other interval is
    # walked, one covers_below call per element
    real, calls = lattice_module.covers_below, []

    def spy(w, top):
        calls.append(w)
        return real(w, top)

    monkeypatch.setattr(lattice_module, "covers_below", spy)
    for n, value in enumerate([1, 1, 3, 13, 71, 461], start=1):
        bot, top = Preorder.discrete(n), Preorder.complete(n)
        assert mobius(bot, top) == (-1) ** (n - 1) * value
        assert chain_report(bot, top)["mobius"] == (-1) ** (n - 1) * value
        assert interval_lattice(bot, top).words == build_lattice(n).words
        assert calls == [], n
    # [1, 4321|5678] at n = 8 is a copy of the whole n = 4 lattice
    assert mobius(Preorder.discrete(8), mu(P("43215678"))) == -13
    assert len(calls) == 24


def test_one_increasing_chain_per_interval_n4(lattice):
    lat = lattice(4)
    for i, a in enumerate(lat.elements):
        for j, b in enumerate(lat.elements):
            if lat.leq_idx(i, j):
                increasing, decreasing = chain_counts(a, b, lat)
                assert increasing == 1, (lat.words[i], lat.words[j])
                assert decreasing == count_decreasing_chains(a, b, lat)


def test_counts_take_a_prebuilt_lattice(lattice):
    lat = lattice(5)
    bot, top = Preorder.discrete(5), Preorder.complete(5)
    assert count_decreasing_chains(bot, top, lat) == count_decreasing_chains(bot, top) == 71
    assert mobius(bot, top, lat) == 71
    assert chain_report(bot, top, lat) == chain_report(bot, top)
    with pytest.raises(ValueError):
        mobius(Preorder.discrete(4), Preorder.complete(4), lat)


def test_sub_interval_above_the_cap(lattice):
    # without a lattice only the interval is indexed, so n=8 needs no force;
    # [1, 4321|5678] is a copy of the whole n=4 lattice
    bot, top = Preorder.discrete(8), mu(P("43215678"))
    assert mobius(bot, top) == -13
    assert chain_report(bot, top)["increasing"] == [2, 2, 2]
    # one interval indexed alone and inside the full lattice agree
    lat = lattice(5)
    a, b = mu(P("21354")), Preorder.complete(5)
    assert chain_report(a, b) == chain_report(a, b, lat)


def test_mobius_disagreement_raises(monkeypatch):
    monkeypatch.setattr(shelling, "_mobius_recursion", lambda *args: 0)
    with pytest.raises(InvariantError, match="Moebius disagreement"):
        mobius(Preorder.discrete(3), Preorder.complete(3))


def test_el_checks_raise_invariant_error(monkeypatch):
    bot, top = Preorder.discrete(4), Preorder.complete(4)
    # two pairs share the larger placement 3: the greedy choice is not unique
    monkeypatch.setattr(shelling, "combinable_slots", lambda state, top: iter([(0, 2), (1, 2)]))
    with pytest.raises(InvariantError, match="must be unique"):
        increasing_chain(bot, top)


def test_cover_that_does_not_merge_two_runs_raises():
    # two atoms trade runs: the ranks, and so the kernel's covers, stay, but
    # the runs of an atom no longer coarsen into those of its covers
    traded = build_lattice(4)
    runs = list(traded.runs)
    i, j = traded.covers[traded.bottom][:2]
    runs[i], runs[j] = runs[j], runs[i]
    traded.runs = tuple(runs)
    with pytest.raises(InvariantError, match="does not merge two blocks"):
        chain_counts(Preorder.discrete(4), Preorder.complete(4), traded)


def test_whole_lattice_reads_each_word_once(monkeypatch):
    # the runs mu_words carries are the runs the edge labels read: one
    # mu_words call over the n! words, and no word read again
    real, calls = preorders.mu_words, []

    def counted(words, n):
        words = list(words)
        calls.append(len(words))
        return real(words, n)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "shardorder" and getattr(module, "mu_words", None) is real:
            monkeypatch.setattr(module, "mu_words", counted)
    for n in range(1, 7):
        calls.clear()
        lat = build_lattice(n)
        chain_report(Preorder.discrete(n), Preorder.complete(n), lat)
        assert calls == [math.factorial(n)], n


def test_greedy_chain_builds_the_block_covers_once_per_step(monkeypatch):
    # the steps read their combinable pairs off the up- and down-sets, so
    # only a (P1)/(P2) scan builds block covers: one for a bottom that
    # carries no state, none for a bottom checked before (the top here is
    # checked before counting starts)
    real, calls = preorders.cover_masks, []

    def counted(*state):
        calls.append(state)
        return real(*state)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "shardorder" and getattr(module, "cover_masks", None) is real:
            monkeypatch.setattr(module, "cover_masks", counted)
    bottom, top = Preorder.discrete(7), Preorder.complete(7)
    checked_state(top)
    calls.clear()
    chain = increasing_chain(bottom, top)
    assert len(chain.labels) == 6
    assert len(calls) == 1
    calls.clear()
    assert increasing_chain(bottom, top) == chain
    assert len(calls) == 0


def test_greedy_chain_runs_one_full_scan(monkeypatch):
    # every element after the bottom is a cover that carries its checked
    # state, so a 6-step chain at n = 9 runs the full (P1)/(P2) scan once
    # for each end that carries no state (top is built from bits, so it
    # carries none, unlike mu's image), top first, and an edge label read
    # off the chain runs none
    real, scans = preorders.block_violations, []

    def counted(masks, ups, downs):
        scans.append(masks)
        return real(masks, ups, downs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "shardorder" and getattr(module, "block_violations", None) is real:
            monkeypatch.setattr(module, "block_violations", counted)
    bottom, top = Preorder.discrete(9), Preorder(9, mu(P("432187659")).bits)
    chain = increasing_chain(bottom, top)
    assert len(chain.labels) == 6
    assert scans == [block_masks(top)[0], block_masks(bottom)[0]]
    assert edge_label(chain.elements[1], chain.elements[2]) == chain.labels[1]
    assert increasing_chain(bottom, top) == chain
    assert len(scans) == 2
