"""
The lattice of permutation pre-orders under containment of relations.

Elements are the n! pre-orders mu(S_n); a <= b iff every related pair of a
is related in b.  ``build_lattice`` enumerates everything and indexes it
with one bitset kernel over the element indices.  a <= b iff each row of a
lies inside the same row of b, so the kernel groups the elements by the
value of each row, one mask per distinct value, and an element's up-set
(down-set) is the AND over its n rows of the groups whose value contains
(lies inside) its own.  The work follows the distinct row values, not 2^n.
An element's covers are its up-set restricted to the next rank layer.  One
mask check makes those covers the definitional ones (no element strictly
between): each up-set must be the element itself plus the up-sets of its
covers.  Read from the top rank down, that check also makes every rank
layer an antichain.  A failure raises ``InvariantError``.
``interval_lattice`` indexes one closed interval the same way, from the
elements a ``covers_below`` walk finds, so its cost follows the interval
rather than n!.

Going up by a cover combines two blocks that are incomparable or related
by a cover.  If the merged interval newly overlaps blocks that were
unrelated to both parts, each such block may sit above or below the merged
block; ``_merge_candidates`` branches over those orientations and keeps the
candidates that are valid elements with exactly one block fewer; it is the
one constructive path to covers, and it yields each with its lam word.  Its
search runs on the m blocks of a ``block_masks`` state, not on the n rows:
each merge or orientation is one ``relate_blocks`` step (O(m) mask ORs in
place of Warshall's closure), checked by ``block_violations`` and written
out by ``lam_order``.  The search starts from a valid state and only adds
relations, so each state is scanned only where a step can break the
axioms ((P1) on the pairs holding the merged block, (P2) on the covers of
the blocks whose up-sets grew since the merge), up to its first failure.

A cover below top merges two combinable blocks inside one block of top;
``combinable_slots`` is the one test of that, on a block state.
``covers_below`` reads w's state once and merges only those pairs.
``covers_up`` (the kernel's oracle in the tests and in ``verify --suite
covers``) is its case top = complete, ``interval_lattice`` walks it, and
the greedy chain of ``shelling`` merges the one pair it chose.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, itemgetter

from .errors import IncomparableError, InvariantError, ResourceLimitError
from .perms import Permutation, all_permutations
from .preorders import (
    Block,
    Preorder,
    block_masks,
    block_violations,
    cover_masks,
    is_permutation_preorder,
    lam,
    lam_order,
    lam_word,
    mu,
    relate_blocks,
    require_block_axioms,
    require_permutation_preorder,
    runs_word,
)

LATTICE_SIZE_CAP = 7


def leq(a: Preorder, b: Preorder) -> bool:
    """Containment of relations: the order on lattice elements."""
    if a.n != b.n:
        raise ValueError("elements live on different ground sets")
    return a <= b


def join(a: Preorder, b: Preorder) -> Preorder:
    """Transitive closure of the union of relations.

    Both arguments must be elements (``InvalidPreorderError`` otherwise).
    Geometrically the join is the intersection of the two cones, so the
    result is always an element; that is asserted, not assumed.
    """
    if a.n != b.n:
        raise ValueError("elements live on different ground sets")
    require_permutation_preorder(a)
    require_permutation_preorder(b)
    rows = [ra | rb for ra, rb in zip(a.rows(), b.rows())]
    out = Preorder.from_rows(a.n, rows)
    if not is_permutation_preorder(out):
        raise InvariantError(f"join fell outside the lattice: {out}")
    return out


def _merge_candidates(n: int, state, i: int, j: int):
    """Yield (lam word, cover) for every cover that merges blocks i < j of a
    valid ``block_masks`` state on [n], which is left unchanged.

    The merge adds D x U for the merged block (``relate_blocks``); a step
    that would collapse further blocks is skipped, since the rank would
    jump by more than one.  A state with no (P1)/(P2) failure is a cover.
    Each state is scanned only where its steps can break the axioms
    (``block_violations`` restricted to the merged slot and the up-sets
    that grew since the merge), and only up to its first failure.  On a
    failure of (P1), the overlapping incomparable pair is oriented both
    ways, each a new state; on a failure of (P2) the state is dropped.  No
    state is reached twice: the two branches order their pair oppositely,
    and a state that related it both ways would have collapsed.
    """
    masks, ups, downs = state
    merged = masks[i] | masks[j]
    base = relate_blocks(masks, ups, downs, merged, merged)
    if base is None:
        return
    # the merged block keeps slot i: its min is the smaller one
    masks = masks.copy()
    masks[i] = merged
    for sets in (masks, *base):
        del sets[j]
    since = (i, base[0])
    stack = [base]
    while stack:
        ups, downs = stack.pop()
        bad = next(block_violations(masks, ups, downs, since), None)
        if bad is None:
            cover = Preorder._of_blocks(n, masks, ups)
            yield runs_word(lam_order(masks, ups, downs, cover)), cover
        elif bad.axiom == "P1":
            # orient the first overlapping incomparable pair both ways
            cx, cy = bad.first.mask, bad.second.mask
            for lower, upper in ((cx, cy), (cy, cx)):
                oriented = relate_blocks(masks, ups, downs, lower, upper)
                if oriented is not None:
                    stack.append(oriented)


def combinable_slots(state, top: Preorder):
    """Yield the slot pairs i < j of a ``block_masks`` state whose blocks lie
    inside one block of top and are incomparable or a cover: the merges
    that can start a maximal chain from the state's pre-order below top."""
    masks, ups, _ = state
    covers = cover_masks(masks, ups)
    top_rows, top_cols = top.rows(), top.cols()
    for i, bi in enumerate(masks):
        a = (bi & -bi).bit_length() - 1
        together = top_rows[a] & top_cols[a]
        for j in range(i + 1, len(masks)):
            bj = masks[j]
            if bj & together and (
                not (ups[i] & bj or ups[j] & bi) or covers[i] & bj or covers[j] & bi
            ):
                yield i, j


def combinable_pairs(w: Preorder, top: Preorder) -> list[tuple[Block, Block]]:
    """The pairs of blocks of w that ``combinable_slots`` gives for top."""
    if not leq(w, top):
        raise IncomparableError("w is not below top")
    state = block_masks(w)
    return [(Block.of(state[0][i]), Block.of(state[0][j])) for i, j in combinable_slots(state, top)]


def covers_below(w: Preorder, top: Preorder):
    """Yield (lam word, cover) for the covers of w below top, each once: a
    cover's blocks name the one pair of ``combinable_slots`` it merged.

    w's block state is read once, checked against (P1)/(P2), and searched.
    """
    if not leq(w, top):
        raise IncomparableError("w is not below top")
    state = block_masks(w)
    require_block_axioms(*state)
    for i, j in combinable_slots(state, top):
        for word, cand in _merge_candidates(w.n, state, i, j):
            if cand <= top:
                yield word, cand


def covers_up(w: Preorder) -> list[Preorder]:
    """Elements covering w, constructed by combining blocks, in lam-word order."""
    return [c for _, c in sorted(covers_below(w, Preorder.complete(w.n)), key=itemgetter(0))]


@dataclass(frozen=True)
class Interval:
    """A closed interval of the lattice with its induced cover edges."""

    bottom: Preorder
    top: Preorder
    members: tuple[Preorder, ...]
    edges: tuple[tuple[int, int], ...]  # indices into members


class OmegaLattice:
    """The lattice on S_n, or one closed interval of it, indexed.

    Elements are indexed by the lexicographic order of their lam words, so
    diagrams and reports are stable across runs.  ``up_mask[i]`` has bit j
    set iff elements[i] <= elements[j], ``down_mask[i]`` bit j iff
    elements[j] <= elements[i], and ``layers[r]`` holds the elements of
    rank r (ranks are those of the full lattice).
    """

    def __init__(self, n: int, elements, words):
        self.n = n
        self.elements: tuple[Preorder, ...] = tuple(elements)
        self.words: tuple[Permutation, ...] = tuple(words)
        self.index: dict[Preorder, int] = {q: i for i, q in enumerate(self.elements)}
        # lam(q) has one descending run per block, so rank = n - runs = descents
        self.rank: tuple[int, ...] = tuple(
            sum(a > b for a, b in zip(w.word, w.word[1:])) for w in self.words
        )
        self.up_mask, self.down_mask = _relation_masks(n, self.elements)
        self.layers, self.covers = graded_covers(self.up_mask, self.rank)
        full = (1 << len(self.elements)) - 1
        self.bottom = self.up_mask.index(full)
        self.top = self.down_mask.index(full)

    def __len__(self):
        return len(self.elements)

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self.up_mask[i] >> j & 1)

    def index_of(self, q: Preorder) -> int:
        try:
            return self.index[q]
        except KeyError:
            raise ValueError("pre-order is not an element of this lattice") from None

    def meet(self, a: Preorder, b: Preorder) -> Preorder:
        """Unique maximal common lower bound, found by search."""
        i, j = self.index_of(a), self.index_of(b)
        common = self.down_mask[i] & self.down_mask[j]
        best = max(iter_bits(common), key=lambda k: self.rank[k])
        if self.down_mask[best] != common:
            raise InvariantError("common lower bounds have no maximum")
        return self.elements[best]

    def join(self, a: Preorder, b: Preorder) -> Preorder:
        out = join(a, b)
        if out not in self.index:
            raise InvariantError(f"join is not an element of this lattice: {out}")
        return out

    def interval(self, bottom: Preorder, top: Preorder) -> Interval:
        i, j = self.index_of(bottom), self.index_of(top)
        if not self.leq_idx(i, j):
            raise IncomparableError(f"{lam(bottom)} is not below {lam(top)}")
        inside = self.up_mask[i] & self.down_mask[j]
        ids = list(iter_bits(inside))
        local = {k: pos for pos, k in enumerate(ids)}
        edges = tuple(
            (local[k], local[c])
            for k in ids
            for c in self.covers[k]
            if inside >> c & 1
        )
        return Interval(bottom, top, tuple(self.elements[k] for k in ids), edges)

    def to_json(self) -> dict:
        """Nodes are the words in index order, edges the covers (i, j) in order of i then j."""
        return {
            "n": self.n,
            "nodes": [str(w) for w in self.words],
            "edges": [[i, j] for i in range(len(self)) for j in self.covers[i]],
        }

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json(), indent=2) + "\\n"``, written directly.

        The encoder's indented mode runs in pure Python, so the text is
        assembled here instead; words are digits and commas, so quoting
        needs no escapes.
        """
        nodes = ",\n".join(f'    "{w}"' for w in self.words)
        edges = ",\n".join(
            f"    [\n      {i},\n      {j}\n    ]"
            for i in range(len(self))
            for j in self.covers[i]
        )
        edges = f"[\n{edges}\n  ]" if edges else "[]"
        return f'{{\n  "n": {self.n},\n  "nodes": [\n{nodes}\n  ],\n  "edges": {edges}\n}}\n'

    def to_dot(self) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for w in self.words:
            lines.append(f'  "{w}";')
        for i in range(len(self)):
            for j in self.covers[i]:
                lines.append(f'  "{self.words[i]}" -> "{self.words[j]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def iter_bits(mask: int):
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _relation_masks(n: int, elements) -> tuple[list[int], list[int]]:
    """Up-set and down-set masks of every element under containment.

    j is above i iff each row of j contains the same row of i, and below i
    iff each row of j lies inside it.  So for each row index the elements
    are grouped by their row value, one mask per distinct value
    (``_row_groups``); the superset mask of a value is the OR of the groups
    whose value contains it, the subset mask that of the groups whose value
    lies inside it.  An element's up-set is the AND of the superset masks of
    its n rows, its down-set the AND of the subset masks.  The work follows
    the number of distinct row values, never 2^n.
    """
    rows, supersets, subsets = [], [], []
    for a in range(n):
        values, groups = _row_groups(n, a, elements)
        above_of, below_of = {}, {}
        for v in groups:
            above = below = 0
            for w, mask in groups.items():
                common = w & v
                if common == v:
                    above |= mask
                if common == w:
                    below |= mask
            above_of[v], below_of[v] = above, below
        rows.append(values)
        supersets.append(above_of)
        subsets.append(below_of)
    # one element at a time, so no second list of full-width masks is alive
    per_element = list(zip(*rows))
    up_mask = [reduce(and_, map(dict.__getitem__, supersets, r)) for r in per_element]
    down_mask = [reduce(and_, map(dict.__getitem__, subsets, r)) for r in per_element]
    return up_mask, down_mask


def _row_groups(n: int, a: int, elements) -> tuple[list[int], dict[int, int]]:
    """Row a of every element, and for each distinct row value the mask of its elements."""
    shift, row = a * n, (1 << n) - 1
    values = [q.bits >> shift & row for q in elements]
    groups = dict.fromkeys(values, 0)
    for i, v in enumerate(values):
        groups[v] |= 1 << i
    return values, groups


def graded_covers(up_mask, rank) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Rank layers and covers of a graded poset given by its up-set masks.

    The covers of i are the elements above i one rank higher.  They are the
    definitional covers exactly when every up-set is the element plus the
    up-sets of its covers.  An element of top rank then has itself alone
    above it, and going down a rank at a time, every strict upper bound has
    a higher rank: nothing lies strictly between i and an element one rank
    up, and every upper bound lies above a cover.
    """
    layers = [0] * (max(rank) + 2)
    for i, r in enumerate(rank):
        layers[r] |= 1 << i
    covers = tuple(tuple(iter_bits(up & layers[rank[i] + 1])) for i, up in enumerate(up_mask))
    for i, up in enumerate(up_mask):
        generated = 1 << i
        for c in covers[i]:
            generated |= up_mask[c]
        if generated != up:
            raise InvariantError(f"up-set of element {i} is not generated by its covers")
    return layers[:-1], covers


def build_lattice(n: int, force: bool = False) -> OmegaLattice:
    if n < 1:
        raise ValueError("n must be positive")
    if n > LATTICE_SIZE_CAP and not force:
        raise ResourceLimitError(
            f"building the full lattice for n={n} means {n}! elements; "
            f"cap is {LATTICE_SIZE_CAP} (use force to override)"
        )
    words = list(all_permutations(n))
    elements = [mu(p) for p in words]
    return OmegaLattice(n, elements, words)


def interval_lattice(bottom: Preorder, top: Preorder) -> OmegaLattice:
    """The closed interval [bottom, top] alone, indexed like the full lattice.

    Its elements are those reached from bottom by covers below top, each
    built by merging two blocks that share a block of top, so the walk
    follows the interval: no n! enumeration and no size cap is involved.
    """
    require_permutation_preorder(bottom)
    require_permutation_preorder(top)
    if not leq(bottom, top):
        raise IncomparableError("bottom is not below top")
    seen = {bottom: lam_word(bottom)}
    stack = [bottom]
    while stack:
        for word, c in covers_below(stack.pop(), top):
            if c not in seen:
                seen[c] = word
                stack.append(c)
    keyed = sorted(seen.items(), key=itemgetter(1))
    return OmegaLattice(bottom.n, [q for q, _ in keyed], [Permutation(w) for _, w in keyed])
