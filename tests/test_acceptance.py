"""
Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Stated time budgets are asserted alongside exactness.
"""
import itertools
import time
from contextlib import contextmanager

from shardorder.lattice import covers_up, join, meet
from shardorder.perms import Permutation, all_permutations
from shardorder.preorders import Preorder, blocks, lam, mu
from shardorder.shards import enumerate_shards, intersect, lower_shards, to_preorder
from shardorder.shelling import (
    count_decreasing_chains,
    increasing_chain,
    mobius,
)
from shardorder.sortable import (
    all_coxeter_elements,
    is_noncrossing_preorder,
    noncrossing_preorders,
    sortable_permutations,
)

from oracles import linear_coxeter, reversed_coxeter

P = Permutation.parse


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


def test_criterion_01_bijection_round_trip():
    with criterion(1, "bijection round trip"):
        start = time.perf_counter()
        for n in range(1, 7):
            for p in all_permutations(n):
                assert lam(mu(p)) == p
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"round trip took {elapsed:.2f}s"


def test_criterion_02_geometric_oracle():
    with criterion(2, "geometric oracle"):
        start = time.perf_counter()
        for n in range(1, 7):
            for p in all_permutations(n):
                assert to_preorder(intersect(lower_shards(p), n=n)) == mu(p)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


def test_criterion_03_shard_census():
    with criterion(3, "shard census"):
        assert len(enumerate_shards(4)) == 11
        for n in range(1, 9):
            expected = sum(
                2 ** (j - i - 1)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            )
            assert len(enumerate_shards(n)) == expected


def test_criterion_04_all_shard_subsets_n4():
    with criterion(4, "shard subsets realize exactly the image"):
        start = time.perf_counter()
        shards = enumerate_shards(4)
        assert len(shards) == 11
        image = {mu(p) for p in all_permutations(4)}
        realized = set()
        for picks in itertools.product((0, 1), repeat=11):
            chosen = [s for s, bit in zip(shards, picks) if bit]
            realized.add(to_preorder(intersect(chosen, n=4)))
        assert realized == image
        assert len(realized) == 24
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"subset sweep took {elapsed:.2f}s"


def test_criterion_05_rank_law(lattice):
    with criterion(5, "rank law"):
        for n in range(1, 7):
            lat = lattice(n)
            assert len(lat) == len(set(lat.elements))
            for i, q in enumerate(lat.elements):
                assert lat.rank[i] == n - len(blocks(q))
            bottoms = [i for i in range(len(lat)) if lat.rank[i] == 0]
            tops = [i for i in range(len(lat)) if lat.rank[i] == n - 1]
            assert bottoms == [lat.bottom] and tops == [lat.top]


def _join_meet_tables(lat):
    size = len(lat)
    join_t = [[0] * size for _ in range(size)]
    meet_t = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            jj = lat.index_of(join(lat.elements[i], lat.elements[j]))
            mm = lat.index_of(meet(lat.elements[i], lat.elements[j]))
            join_t[i][j] = join_t[j][i] = jj
            meet_t[i][j] = meet_t[j][i] = mm
    return join_t, meet_t


def test_criterion_06_lattice_laws(lattice):
    with criterion(6, "lattice laws, atomic and coatomic"):
        for n in range(1, 6):
            lat = lattice(n)
            size = len(lat)
            join_t, meet_t = _join_meet_tables(lat)
            # up-sets by definition: the elements whose down-set holds i
            up = [sum(1 << k for k in range(size) if lat.leq_idx(i, k)) for i in range(size)]
            for i in range(size):
                for j in range(size):
                    jj, mm = join_t[i][j], meet_t[i][j]
                    # unique least upper / greatest lower bound
                    assert up[jj] == up[i] & up[j]
                    assert lat.down_mask[mm] == lat.down_mask[i] & lat.down_mask[j]
                    # commutativity and absorption
                    assert jj == join_t[j][i] and mm == meet_t[j][i]
                    assert join_t[i][meet_t[i][j]] == i
                    assert meet_t[i][join_t[i][j]] == i
            atoms = list(lat.covers[lat.bottom])
            coatoms = [i for i in range(size) if lat.top in lat.covers[i]]
            for i in range(size):
                acc = lat.bottom
                for a in atoms:
                    if lat.leq_idx(a, i):
                        acc = join_t[acc][a]
                assert acc == i, "element is not the join of the atoms below it"
                acc = lat.top
                for c in coatoms:
                    if lat.leq_idx(i, c):
                        acc = meet_t[acc][c]
                assert acc == i, "element is not the meet of the coatoms above it"


def test_criterion_07_figure4_covers():
    with criterion(7, "cover generation reproduces the worked example"):
        omega = mu(P("31245"))
        cov = covers_up(omega)
        assert len(cov) == 8
        d_e = [
            c
            for c in cov
            if any(b.members == frozenset({1, 3, 5}) for b in blocks(c))
        ]
        assert len(d_e) == 2  # both orientations of {4} against the merge
        assert mu(P("53124")) in d_e and mu(P("45312")) in d_e
        f = mu(P("31524"))
        assert f in cov
        non_covers = covers_up(f)
        assert len(non_covers) == 2
        assert Preorder.complete(5) not in non_covers
        assert not any(
            any({1, 3, 4} <= b.members for b in blocks(c)) for c in non_covers
        )


def _label_words(lat, labels, i, j, memo):
    if (i, j) in memo:
        return memo[(i, j)]
    if i == j:
        out = ((),)
    else:
        out = tuple(
            (labels[(i, c)],) + rest
            for c in lat.covers[i]
            if lat.leq_idx(c, j)
            for rest in _label_words(lat, labels, c, j, memo)
        )
    memo[(i, j)] = out
    return out


def test_criterion_08_el_labeling(lattice, edge_labels):
    with criterion(8, "EL-labeling on every interval"):
        start = time.perf_counter()
        for n in range(1, 6):
            lat = lattice(n)
            labels = edge_labels(n)
            memo = {}
            for i in range(len(lat)):
                for j in range(len(lat)):
                    if not lat.leq_idx(i, j):
                        continue
                    words = _label_words(lat, labels, i, j, memo)
                    rising = [w for w in words if list(w) == sorted(w)]
                    assert len(rising) == 1, (n, lat.words[i], lat.words[j])
                    greedy = increasing_chain(lat.elements[i], lat.elements[j])
                    assert greedy.labels == rising[0]
                    assert all(rising[0] < w for w in words if w != rising[0])
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"EL sweep took {elapsed:.2f}s"


def _decreasing_counts_to(lat, labels, top):
    """count[i] = strictly decreasing maximal chains from i to top."""

    def count(i, last, memo):
        key = (i, last)
        if key in memo:
            return memo[key]
        if i == top:
            memo[key] = 1
            return 1
        total = 0
        for c in lat.covers[i]:
            if lat.leq_idx(c, top) and labels[(i, c)] < last:
                total += count(c, labels[(i, c)], memo)
        memo[key] = total
        return total

    memo = {}
    return {
        i: count(i, lat.n + 1, memo)
        for i in range(len(lat))
        if lat.leq_idx(i, top)
    }


def test_criterion_09_mobius(lattice, edge_labels):
    with criterion(9, "Moebius agreement and global values"):
        for n in range(1, 6):
            lat = lattice(n)
            labels = edge_labels(n)
            signed = {}
            for top in range(len(lat)):
                for i, cnt in _decreasing_counts_to(lat, labels, top).items():
                    signed[(i, top)] = (-1) ** (lat.rank[top] - lat.rank[i]) * cnt
            for bottom in range(len(lat)):
                upset = [k for k in range(len(lat)) if lat.leq_idx(bottom, k)]
                upset.sort(key=lambda k: lat.rank[k])
                table = {bottom: 1}
                for y in upset:
                    if y == bottom:
                        continue
                    table[y] = -sum(
                        table[z] for z in upset if z != y and lat.leq_idx(z, y)
                    )
                for y in upset:
                    assert signed[(bottom, y)] == table[y], (n, bottom, y)
        # global anchors; n=4 is the worked figure with 13 decreasing chains
        assert count_decreasing_chains(Preorder.discrete(4), Preorder.complete(4)) == 13
        for n, expected in ((1, 1), (2, 1), (3, 3), (4, 13), (5, 71), (6, 461)):
            value = mobius(Preorder.discrete(n), Preorder.complete(n))
            assert abs(value) == expected, (n, value)


def test_criterion_10_sortable_noncrossing_equivalence():
    with criterion(10, "sortable/noncrossing equivalence"):
        # mu of the c-sortable words against the definitional test on S_n
        catalan = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42}
        for n in range(1, 6):
            elements = list(map(mu, all_permutations(n)))
            for c in all_coxeter_elements(n):
                image = {mu(p) for p in sortable_permutations(c)}
                found = {q for q in elements if is_noncrossing_preorder(q, c)}
                assert image == found, (n, c)
                assert len(image) == catalan[n], (n, c)


def test_criterion_11_interval_inclusion_corollaries():
    with criterion(11, "extreme words order by interval inclusion"):
        for n in range(2, 7):
            for c, nested_below in (
                (linear_coxeter(n), True),
                (reversed_coxeter(n), False),
            ):
                for q in noncrossing_preorders(c):
                    for b1, b2 in itertools.combinations(blocks(q), 2):
                        up = q.leq(b1.min, b2.min)
                        down = q.leq(b2.min, b1.min)
                        b1_inside = b2.min <= b1.min and b1.max <= b2.max
                        b2_inside = b1.min <= b2.min and b2.max <= b1.max
                        if nested_below:
                            assert up == b1_inside and down == b2_inside
                        else:
                            assert up == b2_inside and down == b1_inside


def test_criterion_12_sublattice_closure():
    with criterion(12, "noncrossing pre-orders closed under meet and join"):
        for n in range(1, 6):
            for c in all_coxeter_elements(n):
                nc = set(noncrossing_preorders(c))
                for a, b in itertools.combinations(sorted(nc, key=lambda q: q.bits), 2):
                    assert join(a, b) in nc, (n, c, a, b)
                    assert meet(a, b) in nc, (n, c, a, b)
