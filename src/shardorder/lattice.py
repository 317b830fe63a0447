"""
The lattice of permutation pre-orders under containment of relations.

Elements are the n! pre-orders mu(S_n); a <= b iff every related pair of a
is related in b.  An indexed lattice (``OmegaLattice``) takes lam words
alone: it builds its elements with one ``preorders.mu_words`` pass over
the words in their order (sorted, each shares most of its prefix with
the one before) and keeps the runs each element carries, the blocks in
placement order, for the ranks (n minus the number of runs) and the
edge labels of ``shelling``.  ``build_lattice`` passes it S_n.  It
indexes the elements with one bitset kernel, a down-set mask per element.
a <= b iff each row of a lies inside the same row of b.  One
transposition of all the relations gives, for each pair of values, the
mask of the elements relating them; from those, each distinct value of
each row gets the mask of the elements whose row lies inside it, and an
element's down-set is the AND of those over its n rows.  The work follows
the distinct row values, not 2^n.  The lattice is graded, so an element's
lower covers are its down-set restricted to the rank layer below; its
upper covers are their transpose.  One mask check makes them the
definitional covers (no element strictly between): each down-set must be
the element plus the down-sets of its lower covers.  Read from the bottom
rank up, that check also makes every rank layer an antichain.  A failure
raises ``InvariantError``.  Set bits are read off the wide masks from the
top (``iter_bits``), so each step works on a shorter int.
``interval_lattice`` indexes one closed interval the same way, the whole
lattice from S_n's words and any other from the words a ``covers_below``
walk finds, so its cost follows the interval rather than n!.

Going up by a cover combines two blocks that are incomparable or related
by a cover.  If the merged interval newly overlaps blocks that were
unrelated to both parts, each such block may sit above or below the merged
block; ``_merge_candidates`` branches over those orientations and keeps the
candidates that are valid elements with exactly one block fewer; it is the
one constructive path to covers, and it yields each with its lam word.  Its
search runs on the m blocks of a state (``_search_state``), not on the n rows:
each merge or orientation is one ``relate_blocks`` step (O(m) mask ORs in
place of Warshall's closure); a cover's word and bits are written in one
walk over its run order (``lam_packed``, which orders the merged state
by one slot pass), and the cover carries the state it was checked on, in
run order (``preorders.checked_state``).  The search starts from a valid
state and only orients overlapping pairs, which cannot break (P2), so
each state is checked by a restricted scan (``_restricted_scan``): only
for (P1), on the pairs holding the merged block, up to its first
failure.  No step of the search can break anything else, and that scan's
docstring has the proof; every other check in the package runs the full
scan (``preorders.block_violations``).

A cover below top merges two combinable blocks inside one block of top;
``combinable_slots`` is the one test of that, on a block state, reading
top one row per block: two blocks are combinable iff no block lies
strictly between them, read off their up- and down-sets.  ``covers_below``
reads w's checked state and merges only those pairs.
``covers_up`` (the kernel's oracle in the tests and in ``verify --suite
covers``) is its case top = complete, ``interval_lattice`` walks it, and
the greedy chain of ``shelling`` merges the one pair it chose.  A walk
reaches each element as a cover, so it checks each element once, when
the cover search finds it.

``join`` checks its arguments through ``checked_state``, so an element
that was checked before (a cover, a JSON or a join result, or an argument
of an earlier call) is not checked again; its result is checked once and
carries that state.

``meet`` needs no index either.  The single shards are the atoms and
every element is an intersection of shards, the join of the atoms below
it, so the meet of a and b is the join of the atoms inside the relation
a & b, read off a & b with no shard built, and checked as ``join`` is.
"""
from __future__ import annotations

from functools import reduce
from operator import and_, itemgetter, or_
from .errors import IncomparableError, InvalidPreorderError, InvariantError, ResourceLimitError
from .perms import Permutation, _of_word, all_permutations
from .preorders import Preorder, block_rows, checked_state, down_sets, lam, lam_packed, mu_words, relate_blocks

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
    result is always an element; that is checked, not assumed, and the
    result carries the state it was checked on (``checked_state``).
    """
    _check_operands(a, b)
    rows = [ra | rb for ra, rb in zip(a.rows(), b.rows())]
    return _checked_result("join", Preorder.from_rows(a.n, rows))


def meet(a: Preorder, b: Preorder) -> Preorder:
    """Greatest common lower bound: the join of the shards inside c = a & b.

    A shard of H_ij relates i ~ j and each k strictly between to i one
    way, so some lie inside c iff i ~ j in c and each such k is comparable
    to i in c; their union is i ~ j plus c's relations between i and the
    k.  The largest such j spans the others, and the union is closed once.
    """
    _check_operands(a, b)
    n = a.n
    up = [ra & rb for ra, rb in zip(a.rows(), b.rows())]
    rows = [0] * n
    for i in range(n):
        span = 0  # the values i..j for the largest j whose shards lie inside c
        for j in range(i + 1, n):
            above, below = up[i] >> j & 1, up[j] >> i & 1
            if not (above or below):
                break  # j lies between i and every larger value
            if above and below:
                span = (1 << j + 1) - (1 << i)
        rows[i] |= up[i] & span
        for k in range(i + 1, span.bit_length()):
            if up[k] >> i & 1:
                rows[k] |= 1 << i
    return _checked_result("meet", Preorder.from_rows(n, rows))


def _check_operands(a: Preorder, b: Preorder) -> None:
    """Both arguments of a lattice operation are elements of one size."""
    if a.n != b.n:
        raise ValueError("elements live on different ground sets")
    checked_state(a)
    checked_state(b)


def _checked_result(op: str, out: Preorder) -> Preorder:
    """out, checked (``checked_state``); a result outside the lattice is a bug."""
    try:
        checked_state(out)
    except InvalidPreorderError as exc:
        raise InvariantError(f"{op} fell outside the lattice: {out}") from exc
    return out


def _restricted_scan(masks, ups, downs, merged: int):
    """Yield (first mask, second mask) for each (P1)/(P2) failure of a state
    the cover search reaches, lazily and in the order of ``block_violations``'
    full scan, building no ``Block`` or ``Violation``.

    ``merged = i`` restricts the scan to what a step of the cover search
    (``_merge_candidates``) can break: the (P1) pairs holding slot
    i.  That search starts from a valid state w, merges two of its blocks
    into slot i (the base state), and then only orients (P1) failures, each
    an overlapping incomparable pair related one way without collapsing
    blocks.  So every block but slot i keeps its values:

    - (P1) can fail only on pairs holding slot i: any other pair keeps its
      intervals, and was comparable in w if they overlap.
    - (P2) never fails.  The base state has no failure: the merge relates
      two blocks only through slot i, so a cover a < c there comes from a
      chain of covers in w from a part of a up to a part of c.  A block
      strictly inside that chain would lie strictly between a and c unless
      it is merged into one of them, so some step of the chain goes from a
      part of a to a part of c; that pair overlaps, and so do a and c.
      Orienting x < y in a state with no (P2) failure adds down(x) x up(y),
      and ``relate_blocks`` returns None if that would collapse blocks.  A
      pair a < c that is new and a cover must be (x, y): if a != x, x lies
      strictly between a and c, and if c != y, y does (x = c or y = a would
      make x and y comparable before the step).  Relations are only added,
      so an old cover stays a cover or stops being one, and a pair with a
      block between stays so.  The covers grow at most by (x, y), which
      overlaps because it was a (P1) failure.

    So the restricted scan yields the full scan's failures, in the same
    order; in particular the same first one, or none.
    """
    bi = masks[merged]
    free = ~(ups[merged] | downs[merged])
    below, upto = (bi & -bi) - 1, (1 << bi.bit_length()) - 1
    for k, bk in enumerate(masks):
        # bk overlaps bi iff it has a value above bi's min and one below its max
        if bk & free and bk & ~below and bk & upto:
            yield (bk, bi) if k < merged else (bi, bk)


def _merge_candidates(n: int, state, i: int, j: int):
    """Yield (lam word, cover) for every cover that merges blocks i < j of a
    valid block state on [n], which is left unchanged.

    The merge adds D x U for the merged block (``relate_blocks``); a step
    that would collapse further blocks is skipped, since the rank would
    jump by more than one.  A state with no (P1)/(P2) failure is a cover,
    and the cover carries it (``checked_state``).
    Each state is scanned only where its steps can break the axioms
    (``_restricted_scan``: (P1) on the merged slot; no step can break
    (P2)), and only up to its first failure.  The overlapping
    incomparable pair of that failure is oriented both ways, each a new
    state.  No state is reached twice: the two branches order their pair
    oppositely, and a state that related it both ways would have collapsed.
    """
    masks, ups, downs = state
    merged = masks[i] | masks[j]
    base = relate_blocks(masks, ups, downs, merged, merged)
    if base is None:
        return
    # the merged block keeps slot i; lam_packed puts a cover's blocks in run order
    masks = list(masks)
    masks[i] = merged
    for sets in (masks, *base):
        del sets[j]
    stack = [base]
    while stack:
        ups, downs = stack.pop()
        bad = next(_restricted_scan(masks, ups, downs, i), None)
        if bad is None:
            yield lam_packed(n, masks, ups, downs)
        else:
            # orient the first overlapping incomparable pair both ways
            cx, cy = bad
            for lower, upper in ((cx, cy), (cy, cx)):
                oriented = relate_blocks(masks, ups, downs, lower, upper)
                if oriented is not None:
                    stack.append(oriented)


def combinable_slots(state, top: Preorder):
    """Yield the slot pairs i < j of a block state whose blocks lie
    inside one block of top and are incomparable or a cover: the merges
    that can start a maximal chain from the state's pre-order below top.

    Blocks i and j are incomparable or a cover iff no block lies strictly
    between them: ``ups[i] & downs[j]`` is the interval from block i up to
    block j (empty unless i is below j), and the pair is a cover iff that
    interval is the two blocks alone; the mirror reads j below i.

    The state's pre-order must lie below top, so each of its blocks lies
    inside one block of top: two blocks share one iff each meets the row
    of top at the other's min.  So top is read a row per block, and its
    blocks are never formed.
    """
    masks, ups, downs = state
    top_ups = block_rows(top, masks)
    for i, bi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            bj = masks[j]
            if bj & top_ups[i] and bi & top_ups[j] and not (
                (ups[i] & downs[j] | ups[j] & downs[i]) & ~(bi | bj)
            ):
                yield i, j


def _search_state(q: Preorder):
    """(block masks, up-sets, down-sets) of q's checked state in run order,
    where the cover search starts: the one reader of down-sets."""
    masks = checked_state(q)
    ups = block_rows(q, masks)
    return masks, ups, down_sets(masks, ups)


def covers_below(w: Preorder, top: Preorder):
    """Yield (lam word, cover) for the covers of w below top, each once: a
    cover's blocks name the one pair of ``combinable_slots`` it merged.

    The pairs are read from w's checked state.  Each cover carries its
    state too, so a walk from cover to cover reads no packed relation and
    checks nothing twice.
    """
    if not leq(w, top):
        raise IncomparableError("w is not below top")
    state = _search_state(w)
    for i, j in combinable_slots(state, top):
        for word, cand in _merge_candidates(w.n, state, i, j):
            if cand <= top:
                yield word, cand


def covers_up(w: Preorder) -> list[Preorder]:
    """Elements covering w, constructed by combining blocks, in lam-word order."""
    return [c for _, c in sorted(covers_below(w, Preorder.complete(w.n)), key=itemgetter(0))]


class OmegaLattice:
    """The lattice on S_n, or a set of its elements (an interval, the
    c-sortable words), indexed by their lam words in the order given.

    Callers give the words sorted, so diagrams and reports are stable.  The
    words must be distinct permutations of [n] whose elements have a least
    and a greatest one; other lists raise ``ValueError``.
    ``elements[i]`` is mu(words[i]) (one ``mu_words`` pass), and ``runs[i]`` the blocks it carries:
    the descending runs of words[i], left to right.  ``down_mask[i]`` has
    bit j set iff elements[j] <= elements[i], ``covers[i]`` lists the
    elements covering elements[i], ascending, and ``layers[r]`` holds the
    elements of rank r (ranks are those of the full lattice).
    """

    def __init__(self, n: int, words):
        self.n = n
        self.words: tuple[Permutation, ...] = tuple(words)
        if not self.words or any(w.n != n for w in self.words):
            raise ValueError(f"the words must be one or more permutations of size n={n}")
        self.elements: tuple[Preorder, ...] = tuple(mu_words([w.word for w in self.words], n))
        self.runs: tuple[tuple[int, ...], ...] = tuple(map(checked_state, self.elements))
        self.index: dict[Preorder, int] = {q: i for i, q in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("the words repeat a word")
        # one block per run, so rank = n - runs
        self.rank: tuple[int, ...] = tuple([n - len(r) for r in self.runs])
        self.down_mask = _relation_masks(n, self.elements)
        # the least element is below all others: the one bit every down-set holds
        least, full = reduce(and_, self.down_mask), (1 << len(self.elements)) - 1
        if not least or full not in self.down_mask:
            raise ValueError("the words have no least or no greatest element")
        self.bottom = least.bit_length() - 1
        self.top = self.down_mask.index(full)
        self.layers, self.covers = graded_covers(self.down_mask, self.rank)

    def __len__(self):
        return len(self.elements)

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self.down_mask[j] >> i & 1)

    def index_of(self, q: Preorder) -> int:
        try:
            return self.index[q]
        except KeyError:
            raise ValueError("pre-order is not an element of this lattice") from None

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
        assembled here instead: the node strings in one format of the word
        values (digits, comma-separated above n = 9, as ``str`` writes a
        word), and the edges from the index strings.  Nothing needs quoting.
        """
        sep = "" if self.n <= 9 else ","
        node = '    "' + sep.join(["%d"] * self.n) + '"'
        nodes = ",\n".join([node] * len(self)) % tuple([v for w in self.words for v in w.word])
        text = [str(i) for i in range(len(self))]
        edges = ",\n".join([
            f"    [\n      {text[i]},\n      {text[j]}\n    ]"
            for i, covers in enumerate(self.covers)
            for j in covers
        ])
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


def iter_bits(mask: int) -> list[int]:
    """Indices of the set bits of a mask, ascending.

    The bits are peeled from the top, so each step works on a shorter int
    (peeling the lowest bit would rebuild the full width every time).
    """
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _relation_masks(n: int, elements) -> list[int]:
    """Down-set mask of every element under containment.

    j is below i iff each row of j lies inside the same row of i.  So for
    each row index and each distinct value of that row, ``_row_groups``
    gives the mask of the elements whose row lies inside the value (the
    subset mask), and an element's down-set is the AND of the subset masks
    of its n rows.  The work follows the number of distinct row values,
    never 2^n.
    """
    pairs = _pair_masks(n, elements)
    rows, subsets = zip(*(_row_groups(n, a, elements, pairs) for a in range(n)))
    return [reduce(and_, map(dict.__getitem__, subsets, r)) for r in zip(*rows)]


def _pair_masks(n: int, elements) -> list[int]:
    """For each bit p = (a-1)*n + (b-1) of the packed relation, the mask of
    the elements with that bit set, i.e. with a below b.

    This transposes the relations in one pass: their binary forms, last
    element first, joined into one digit string hold bit p of element i at
    digit (size-1-i)*n*n + n*n-1-p, so every (n*n)-th digit from n*n-1-p is
    bit p of each element, the last element's first.
    """
    nn, spec = n * n, f"0{n * n}b"
    digits = "".join([format(q.bits, spec) for q in reversed(elements)])
    return [int(digits[nn - 1 - p :: nn], 2) for p in range(nn)]


def _row_groups(n: int, a: int, elements, pairs) -> tuple[list[int], dict[int, int]]:
    """Row a of every element, and for each distinct value of that row the
    subset mask: the elements whose row a lies inside it, the complement of
    the OR of the pair masks of the values it lacks."""
    shift, row, full = a * n, (1 << n) - 1, (1 << len(elements)) - 1
    values = [q.bits >> shift & row for q in elements]
    below_of = {}
    for v in set(values):
        lacked = [pairs[shift + b] for b in range(n) if not v >> b & 1]
        below_of[v] = full ^ reduce(or_, lacked, 0)
    return values, below_of


def graded_covers(down_mask, rank) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Rank layers and upper covers of a graded poset given by its down-set masks.

    The lower covers of i are the elements below i one rank lower.  They are
    the definitional covers exactly when every down-set is the element plus
    the down-sets of its lower covers.  An element of rank 0 then has itself
    alone below it, and going up a rank at a time, every strict lower bound
    has a lower rank: nothing lies strictly between i and an element one
    rank down, and every lower bound lies below a lower cover.  The upper
    covers, ascending, are the lower covers transposed.
    """
    layers = [0] * (max(rank) + 2)  # layers[r + 1] holds rank r; layers[0] is empty
    for i, r in enumerate(rank):
        layers[r + 1] |= 1 << i
    covers = [[] for _ in rank]
    for i, down in enumerate(down_mask):
        lower = iter_bits(down & layers[rank[i]])
        if reduce(or_, map(down_mask.__getitem__, lower), 1 << i) != down:
            raise InvariantError(f"down-set of element {i} is not generated by its covers")
        for c in lower:
            covers[c].append(i)
    return layers[1:], tuple(map(tuple, covers))


def build_lattice(n: int, force: bool = False) -> OmegaLattice:
    if n < 1:
        raise ValueError("n must be positive")
    if n > LATTICE_SIZE_CAP and not force:
        raise ResourceLimitError(
            f"building the full lattice for n={n} means {n}! elements; "
            f"cap is {LATTICE_SIZE_CAP} (use force to override)"
        )
    return OmegaLattice(n, all_permutations(n))


def interval_lattice(bottom: Preorder, top: Preorder) -> OmegaLattice:
    """The closed interval [bottom, top] alone, indexed like the full lattice.

    The whole lattice is S_n's words (``build_lattice``, uncapped).  Any
    other interval's elements are those reached from bottom by covers below
    top, each built by merging two blocks that share a block of top, so the
    walk follows the interval: no n! enumeration and no size cap is involved.
    """
    seen = {bottom: lam(bottom).word}
    checked_state(top)
    if not leq(bottom, top):
        raise IncomparableError("bottom is not below top")
    n = bottom.n
    if bottom == Preorder.discrete(n) and top == Preorder.complete(n):
        return build_lattice(n, force=True)
    stack = [bottom]
    while stack:
        for word, c in covers_below(stack.pop(), top):
            if c not in seen:
                seen[c] = word
                stack.append(c)
    return OmegaLattice(n, map(_of_word, sorted(seen.values())))
