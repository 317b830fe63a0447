"""
Edge labels, increasing chains, and Moebius numbers.

Each cover merges exactly two blocks of the lower element; the edge label
is the larger of their placements there.  A checked state lists the block
masks in run order, so a block's placement is its index plus one.  Every
interval has exactly one maximal chain with a weakly increasing label
word, found greedily: among the pairs that can be combined on the way to
the top (``lattice.combinable_slots``), merge the one whose larger
placement is smallest; exactly one of the covers ``lattice`` builds for
that merge lies below top.  Each step reads its element's checked state,
with rows and down-sets (``lattice._search_state``), and tests its pairs
of blocks on it; top is read through ``checked_state`` too, and every
element after the first is a cover that carries its state, so a chain
runs at most two scans, for its top and its bottom.  The number of
strictly decreasing maximal chains gives the Moebius number up to sign;
the classical recursion is run alongside as an independent check and
disagreement is fatal.

Whole-interval counts run on an indexed lattice (``OmegaLattice``) and
read one table of [b, t] (``_interval``): one walk up the kernel's covers
from b, keeping a cover only if its relation bits lie inside top's, finds
the interval's elements and its edges at a cost that follows its edges.
Each edge label is computed once, from the run masks mu carries on each element
(lam(mu(p)) = p, so the k-th run of the lower word is the block placed
k-th): it is the position of the rightmost of the two lower runs that the
upper element lacks, and a cover that does not lack exactly two raises
``InvariantError``.  No run is computed again here.  Chains are counted by
recursion memoized on (element, last label), and the Moebius recursion
takes the table's elements a rank at a time and sums, for each, one mask
per distinct value over its down-set.  A caller may pass the full lattice
(``build_lattice``) and reuse it; without one, each call indexes the
interval through ``interval_lattice``, which reads the whole lattice off
S_n's words and walks the covers of any other interval, so small
intervals stay cheap at any n.

The kernel's covers are exact, not assumed: ``lattice.graded_covers``
checks that each down-set is generated by its lower covers, which also makes
each rank layer an antichain.  That check, the Moebius agreement and the EL
invariants here raise ``InvariantError``, so they also run under
``python -O``.
"""
from __future__ import annotations

import operator
from itertools import groupby
from typing import NamedTuple

from .errors import IncomparableError, InvariantError
from .lattice import OmegaLattice, _merge_candidates, _search_state, combinable_slots
from .lattice import interval_lattice, leq
from .preorders import Preorder, checked_state, lam


def edge_label(lower: Preorder, upper: Preorder) -> int:
    """Larger placement (in ``lower``) of the two blocks the cover merges.

    Both elements are read through ``checked_state``, whose blocks come in
    run order: the label is the later of the two positions in ``lower``
    whose blocks ``upper`` lacks.
    """
    masks = checked_state(lower)
    if not (leq(lower, upper) and lower != upper):
        raise ValueError("not a cover: elements are not strictly ordered")
    upper_masks = checked_state(upper)
    if len(masks) != len(upper_masks) + 1:
        raise ValueError("not a cover: rank difference is not one")
    merged = [k for k, b in enumerate(masks, start=1) if b not in upper_masks]
    if len(merged) != 2:
        raise ValueError("not a cover: block partitions differ by more than a merge")
    return merged[1]


class LabeledChain(NamedTuple):
    """A maximal chain of an interval together with its edge labels."""

    elements: tuple[Preorder, ...]
    labels: tuple[int, ...]


def increasing_chain(bottom: Preorder, top: Preorder) -> LabeledChain:
    """The unique weakly increasing maximal chain from bottom to top.

    Greedy construction: repeatedly merge the combinable pair whose larger
    placement is minimal; exactly one cover below top performs each merge.
    Both ends are read through ``checked_state``, whose blocks come in run
    order, so a pair of slots i < j has the larger placement j + 1.
    """
    checked_state(top)
    if not leq(bottom, top):
        raise IncomparableError("bottom is not below top")
    chain, labels = [bottom], []
    while chain[-1] != top:
        cur = chain[-1]
        state = _search_state(cur)
        ranked = sorted(combinable_slots(state, top), key=operator.itemgetter(1))
        if not ranked:
            raise InvariantError("strictly ordered interval must have a combinable pair")
        best = ranked[0]
        if len(ranked) > 1 and best[1] == ranked[1][1]:
            raise InvariantError("minimal larger placement must be unique")
        nexts = [c for _, c in _merge_candidates(cur.n, state, *best) if c <= top]
        if len(nexts) != 1:
            raise InvariantError("exactly one cover below top merges the chosen pair")
        labels.append(best[1] + 1)
        chain.append(nexts[0])
    if any(x > y for x, y in zip(labels, labels[1:])):
        raise InvariantError("greedy chain must carry a weakly increasing label word")
    return LabeledChain(tuple(chain), tuple(labels))


def _interval(bottom: Preorder, top: Preorder, lattice: OmegaLattice | None):
    """(lattice, bottom index, top index, edges), indexing the interval if
    no lattice is given: ``edges`` maps each element of [bottom, top] to its
    covers inside, with labels, read by one walk up ``lat.covers`` from b.
    """
    lat = interval_lattice(bottom, top) if lattice is None else lattice
    b, t = lat.index_of(bottom), lat.index_of(top)
    if not lat.leq_idx(b, t):
        raise IncomparableError("bottom is not below top")
    runs, elements = lat.runs, lat.elements
    outside = ~elements[t].bits  # the relations top lacks
    edges, stack = {b: []}, [b]
    while stack:
        i = stack.pop()
        lower = runs[i]
        lower_set = set(lower)
        for c in lat.covers[i]:
            if elements[c].bits & outside:  # not below top
                continue
            merged = lower_set.difference(runs[c])
            if len(merged) != 2:
                raise InvariantError(f"cover {lat.words[i]} -> {lat.words[c]} does not merge two blocks")
            label = len(lower)
            while lower[label - 1] not in merged:
                label -= 1
            edges[i].append((c, label))
            if c not in edges:
                edges[c] = []
                stack.append(c)
    return lat, b, t, edges


def _count_chains(edges, bottom: int, top: int, start: int, keep) -> int:
    """Maximal chains whose consecutive labels satisfy keep(label, last).

    The count from an element depends on the label that entered it, so it
    is memoized on (element, label), and read from the memo before any call.
    """
    memo = {}

    def count(i: int, last: int) -> int:
        total = 0
        for c, lab in edges[i]:
            if keep(lab, last):
                ways = memo.get((c, lab))
                if ways is None:
                    ways = memo[c, lab] = 1 if c == top else count(c, lab)
                total += ways
        return total

    return 1 if bottom == top else count(bottom, start)


def count_decreasing_chains(
    bottom: Preorder, top: Preorder, lattice: OmegaLattice | None = None
) -> int:
    """Maximal chains of [bottom, top] with strictly decreasing labels."""
    lat, b, t, edges = _interval(bottom, top, lattice)
    return _count_chains(edges, b, t, lat.n + 1, operator.lt)


def chain_counts(
    bottom: Preorder, top: Preorder, lattice: OmegaLattice | None = None
) -> tuple[int, int]:
    """(weakly increasing, strictly decreasing) maximal chain counts of [bottom, top].

    Both come from one labeling of the interval's edges; an EL-labeling has
    exactly one weakly increasing chain.
    """
    lat, b, t, edges = _interval(bottom, top, lattice)
    return (
        _count_chains(edges, b, t, 0, operator.ge),
        _count_chains(edges, b, t, lat.n + 1, operator.lt),
    )


def _mobius_recursion(lat: OmegaLattice, b: int, t: int, interval) -> int:
    """mu(b, y) = -sum of mu(b, z) over b <= z < y, one rank layer at a time.

    ``by_value`` maps each value found so far to the mask of its elements,
    so the sum for y is a few popcounts against y's down-set.
    """
    rank, by_value = lat.rank.__getitem__, {1: 1 << b}
    # b alone has the lowest rank; no element of a layer lies below another,
    # so each layer reads the values found so far
    for _, layer in groupby(sorted(interval, key=rank)[1:], rank):
        found = list(by_value.items())
        for y in layer:
            below = lat.down_mask[y]
            value = -sum([v * (mask & below).bit_count() for v, mask in found])
            by_value[value] = by_value.get(value, 0) | 1 << y
    return next(v for v, mask in by_value.items() if mask >> t & 1)


def _mobius(lat: OmegaLattice, b: int, t: int, edges) -> int:
    """Moebius number of an indexed interval, computed two independent ways.

    (a) (-1)^(rank difference) times the strictly decreasing chain count;
    (b) the classical recursion over the interval.  They must agree.
    """
    chains = _count_chains(edges, b, t, lat.n + 1, operator.lt)
    signed = (-1) ** (lat.rank[t] - lat.rank[b]) * chains
    recursion = _mobius_recursion(lat, b, t, edges)
    if signed != recursion:
        raise InvariantError(
            f"Moebius disagreement on [{lat.words[b]}, {lat.words[t]}]: "
            f"chains give {signed}, recursion gives {recursion}"
        )
    return signed


def mobius(bottom: Preorder, top: Preorder, lattice: OmegaLattice | None = None) -> int:
    """Moebius number of [bottom, top], checked two ways (see ``_mobius``)."""
    return _mobius(*_interval(bottom, top, lattice))


def max_label_multiplicities(lat: OmegaLattice, edges, b: int, t: int) -> list[int]:
    """Per step, how many covers reach the maximum feasible label.

    Walks the labeled ``edges`` of an indexed interval from b to t, taking
    at each step the maximum-label cover with the smallest relation bits;
    recorded for reporting only, nothing downstream depends on it.
    """
    out = []
    cur = b
    while cur != t:
        best = max(lab for _, lab in edges[cur])
        tops = [c for c, lab in edges[cur] if lab == best]
        out.append(len(tops))
        cur = min(tops, key=lambda c: lat.elements[c].bits)
    return out


def chain_report(
    bottom: Preorder, top: Preorder, lattice: OmegaLattice | None = None
) -> dict:
    """JSON-ready summary of an interval's chain data.

    The interval is indexed and its edges labeled once, for the Moebius
    number and the label multiplicities alike.
    """
    inc = increasing_chain(bottom, top)
    lat, b, t, edges = _interval(bottom, top, lattice)
    value = _mobius(lat, b, t, edges)
    return {
        "interval": [str(lam(bottom)), str(lam(top))],
        "increasing": list(inc.labels),
        "decreasing_count": abs(value),  # mobius is the signed count
        "mobius": value,
        "max_label_multiplicities": max_label_multiplicities(lat, edges, b, t),
    }
