"""
Pre-orders on [n], their blocks, and the run/block bijection.

A pre-order is a reflexive transitive relation.  It is stored as a packed
n*n boolean matrix (one Python int, row-major: bit (a-1)*n + (b-1) set iff
a is below b), so equality of relations is plain value equality and
containment is a single mask test.  Closure is Warshall's algorithm on the
row masks; n never exceeds single digits here, so the dense form wins on
simplicity.  ``Preorder(n, bits)`` checks reflexivity and closure; the
``from_rows`` family closes the relation itself and skips that check.

Blocks are the classes of mutual comparability.  Every set of values is a
value mask (bit v-1 for value v), and a block is the set of values whose
row equals row(a) for any member a.  ``Block`` (min, max, mask) is only
the public view of one, for results and error text.

The elements of the lattice are the pre-orders satisfying two axioms:

  (P1) blocks whose min/max intervals intersect are comparable;
  (P2) covering blocks have intersecting intervals.

``mu`` sends a permutation to such a pre-order (descending runs become
blocks, overlapping runs are ordered left-below-right) and ``lam`` is its
inverse.  One kernel computes it, ``mu_words``, for a whole list of words
(``mu`` is its one-word case): it reads each word left to right in one
pass and fills the columns of a finished run with one product of its
down-set and the run.  It carries the runs, the word's ``run_masks``.
``lam`` writes the blocks as descending runs in their run order: a
block's run is preceded by the blocks below it and by the incomparable
blocks to its numeric left, its before-set.  Those masks must be the
nested prefixes of the order, so their sizes are distinct: one slot pass
(``_run_slots``) places each block at the popcount of its before-set and
checks the prefixes in one walk over the slots, O(n) with no sort; a
pre-order whose blocks admit no such order is rejected.  A block's
placement is the position of its run.

The one working form of the blocks is a block state: each block's value
mask with its up-set and its down-set (the union of the blocks whose
up-set meets it, ``down_sets``).  ``block_masks`` reads it in one pass
over the rows, values with equal rows forming one block, in min order.
The axiom check (``block_violations``) and the covers of each block
(``cover_masks``) read a state in any block order, and ``relate_blocks``
adds relations to it, keeping it closed in O(m) mask ORs with no
Warshall pass.  ``block_violations`` scans the whole state and yields its
failures lazily, so a caller can stop at the first.  States the cover
search accepts, mu's images, and the bottom and top elements are packed
into ``bits`` directly, with no closure pass.

Each element is checked against (P1)/(P2) at most once.  ``checked_state``
reads an object's state and runs the full scan the first time it sees it,
then carries its block masks in run order (the runs of lam(q), so a
placement is an index) in the private slot ``_state``, which ``==``,
``hash`` and ``repr`` ignore; the up-sets are rows of the bits
(``block_rows``).  Code that has just checked a state, or proved it
valid, carries it from the start: ``mu_words`` (every image of a
permutation is an element; the proof is in its docstring), ``lam_packed``, which orders
a state by its own slot pass and which the cover search
(``lattice._merge_candidates``, after its restricted scan), partition
mode (``sortable._order_of_partition``, whose closure makes (P1)/(P2)
true) and ``preorder_from_json`` call.  ``lam``,
``preorder_to_json``, ``placements``, ``is_noncrossing_preorder``,
``lattice.join`` (its arguments and its result), ``OmegaLattice``,
``lattice.interval_lattice``, ``lattice.covers_below`` and ``shelling``'s
greedy chain and ``edge_label`` (both their elements) go through
``checked_state``.  ``Preorder(n, bits)`` and ``from_rows`` carry nothing,
so whatever a user builds is checked on its first use.
``axiom_violations`` always reads the state off the bits and runs the
full scan: it is the oracle, for mu's images too.  No cache is kept: a
state lives and dies with its object.

Pre-orders built from given blocks (JSON input, noncrossing partitions) are
closed on the blocks too: ``close_blocks`` takes disjoint value masks in
any order and index pairs and returns their closure's block state
directly, by one ``relate_blocks`` step per pair (O(m) mask ORs each)
instead of a closure on the n rows, with no packed relation read back, or
None when the closure would merge given blocks.  ``lam_packed`` then writes a
state's lam word and its ``bits`` in one walk over its slot pass.
"""
from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

from .errors import InvalidPreorderError
from .frozen import Frozen
from .perms import Permutation, _of_word

def close_rows(rows: list[int]) -> list[int]:
    """In-place Warshall transitive closure of row masks."""
    n = len(rows)
    for k in range(n):
        rk = rows[k]
        kbit = 1 << k
        for a in range(n):
            if rows[a] & kbit:
                rows[a] |= rk
    return rows


def mask_values(mask: int) -> list[int]:
    """The values (1-based) of a value mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def run_masks(word: Sequence[int]) -> tuple[int, ...]:
    """Value masks of the descending runs of a word, left to right: the
    runs ``mu_words`` carries on the word's element."""
    masks, run, prev = [], 0, 0
    for v in word:
        if v > prev and run:
            masks.append(run)
            run = 0
        run |= 1 << (v - 1)
        prev = v
    masks.append(run)
    return tuple(masks)


class Preorder(Frozen):
    """Reflexive transitive relation on [n], packed into one int."""

    # _state is the checked block state (``checked_state``), a private
    # slot, so ``==``, ``hash`` and ``repr`` ignore it
    __slots__ = ("n", "bits", "_state")

    def __init__(self, n: int, bits: int):
        if type(n) is not int or type(bits) is not int:
            raise ValueError(f"ground set size and relation bits must be integers: n={n!r} bits={bits!r}")
        _set_n(self, n)
        _set_bits(self, bits)
        _set_state(self, None)
        if n < 1:
            raise ValueError("ground set must be nonempty")
        if bits < 0 or bits >> (n * n):
            raise ValueError(f"relation bits reach beyond [1,{n}]")
        rows = self.rows()
        for a in range(n):
            if not rows[a] >> a & 1:
                raise ValueError(f"relation is not reflexive at {a + 1}")
        closed = close_rows(list(rows))
        if closed != rows:
            raise ValueError("relation is not transitively closed")

    def __eq__(self, other):
        if other.__class__ is Preorder:
            return self.bits == other.bits and self.n == other.n
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.bits))

    @staticmethod
    def from_rows(n: int, rows: Sequence[int]) -> "Preorder":
        """Build from row masks; reflexivity is added and closure applied."""
        if n < 1:
            raise ValueError("ground set must be nonempty")
        if len(rows) != n:
            raise ValueError(f"expected {n} row masks, got {len(rows)}")
        work = [rows[a] | (1 << a) for a in range(n)]
        if any(r >> n for r in work):
            raise ValueError(f"row masks reach beyond [1,{n}]")
        rows = close_rows(work)
        return Preorder._unchecked(n, sum(rows[a] << (a * n) for a in range(n)))

    @staticmethod
    def _unchecked(n: int, bits: int) -> "Preorder":
        """Wrap bits already reflexive and closed, skipping __init__'s check."""
        q = _new(Preorder)
        _set_n(q, n)
        _set_bits(q, bits)
        _set_state(q, None)
        return q

    @staticmethod
    def from_pairs(n: int, pairs) -> "Preorder":
        """Build from 1-based (a, b) pairs meaning a is below b."""
        rows = [0] * n
        for a, b in pairs:
            if not (0 < a <= n and 0 < b <= n):
                raise ValueError(f"pair {(a, b)!r} is outside [1,{n}]")
            rows[a - 1] |= 1 << (b - 1)
        return Preorder.from_rows(n, rows)

    @staticmethod
    def discrete(n: int) -> "Preorder":
        """Equality only: the minimal element of the lattice (the diagonal bits)."""
        if n < 1:
            raise ValueError("ground set must be nonempty")
        return Preorder._unchecked(n, sum(1 << (a * (n + 1)) for a in range(n)))

    @staticmethod
    def complete(n: int) -> "Preorder":
        """Everything mutually comparable: the maximal element (every bit)."""
        if n < 1:
            raise ValueError("ground set must be nonempty")
        return Preorder._unchecked(n, (1 << (n * n)) - 1)

    def rows(self) -> list[int]:
        """Up-set masks: bit b-1 of rows()[a-1] is set iff a is below b."""
        mask = (1 << self.n) - 1
        return [(self.bits >> (a * self.n)) & mask for a in range(self.n)]

    def leq(self, a: int, b: int) -> bool:
        """a below b (1-based values)."""
        return bool(self.bits >> ((a - 1) * self.n + (b - 1)) & 1)

    # Containment of relations is the lattice order on these objects.
    def __le__(self, other: "Preorder") -> bool:
        if other.__class__ is not Preorder or self.n != other.n:
            return NotImplemented
        return self.bits & ~other.bits == 0

    def __lt__(self, other: "Preorder") -> bool:
        if other.__class__ is not Preorder or self.n != other.n:
            return NotImplemented
        return self.bits & ~other.bits == 0 and self.bits != other.bits

    def __ge__(self, other: "Preorder") -> bool:
        return other.__le__(self)

    def __gt__(self, other: "Preorder") -> bool:
        return other.__lt__(self)


_new = object.__new__
_set_n, _set_bits, _set_state = Preorder.n.__set__, Preorder.bits.__set__, Preorder._state.__set__


class Block(NamedTuple):
    """An equivalence class of mutual comparability, labeled [min, max].

    ``mask`` has bit v-1 set for each member v.
    """

    min: int
    max: int
    mask: int

    @classmethod
    def of(cls, mask: int) -> "Block":
        """The block with the members of a nonempty value mask."""
        return cls((mask & -mask).bit_length(), mask.bit_length(), mask)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(mask_values(self.mask))

    @property
    def interval(self) -> tuple[int, int]:
        return (self.min, self.max)

    def overlaps(self, other: "Block") -> bool:
        return self.min <= other.max and other.min <= self.max

    def __repr__(self):
        return f"B[{self.min},{self.max}]{{{','.join(map(str, mask_values(self.mask)))}}}"


def blocks(q: Preorder) -> tuple[Block, ...]:
    """Blocks of q, sorted by minimal member: the block masks q carries,
    if it carries its state, else those ``block_masks`` reads off the bits."""
    masks = block_masks(q)[0] if q._state is None else sorted(q._state, key=lambda b: b & -b)
    return tuple(Block.of(mask) for mask in masks)


class Violation(NamedTuple):
    """One failed axiom, with the offending block pair."""

    axiom: str  # "P1" or "P2"
    first: Block
    second: Block

    def __str__(self):
        reason = "overlap but are incomparable" if self.axiom == "P1" else "form a cover but do not overlap"
        return f"{self.axiom}: blocks {self.first} and {self.second} {reason}"


def block_masks(q: Preorder) -> tuple[list[int], list[int], list[int]]:
    """Value masks of the blocks of q sorted by min, with the up-set and down-set of each.

    A pre-order is reflexive and transitive, so two values are related
    both ways iff their rows are equal: the values with equal rows form
    one block, and that row is its up-set.  Grouping the rows in value
    order gives the blocks in min order; their down-sets are read off the
    up-sets (``down_sets``).  One pass over the rows reads the whole
    state, with no ``Block`` objects and no cache.
    """
    groups = {}  # row -> the values with that row, in value order
    for a, up in enumerate(q.rows()):
        groups[up] = groups.get(up, 0) | 1 << a
    masks, ups = list(groups.values()), list(groups)
    return masks, ups, down_sets(masks, ups)


def down_sets(masks: Sequence[int], ups: Sequence[int]) -> list[int]:
    """The down-set of each of the disjoint blocks ``masks`` whose closed
    up-sets, unions of blocks, are ``ups``: the union of the blocks whose
    up-set meets it."""
    downs = list(masks)
    for b, up in zip(masks, ups):
        if up != b:  # else b is below nothing but itself
            for k, bk in enumerate(masks):
                if up & bk:
                    downs[k] |= b
    return downs


def relate_blocks(masks: Sequence[int], ups: Sequence[int], downs: Sequence[int], low: int, high: int):
    """(up-sets, down-sets) of a block state once every value of
    ``low`` is below every value of ``high``, both unions of its blocks.

    The relation gains D x U, with D the union of the down-sets of low's
    blocks and U the union of the up-sets of high's blocks.  D is
    down-closed and U up-closed, so nothing more is needed to close it:
    the blocks inside D gain U above them and those inside U gain D below.
    Only the values in both D and U become one class; None means that is
    more than low & high, i.e. the step would collapse blocks it was not
    asked to merge.
    """
    down = up = 0
    for b, u, d in zip(masks, ups, downs):
        if b & low:
            down |= d
        if b & high:
            up |= u
    if down & up != low & high:
        return None
    return (
        [u | up if b & down else u for b, u in zip(masks, ups)],
        [d | down if b & up else d for b, d in zip(masks, downs)],
    )


def close_blocks(masks: Sequence[int], less) -> tuple[list[int], list[int], list[int]] | None:
    """The ``block_masks`` state of the closure of disjoint value masks taken as
    classes, masks[i] below masks[j] for each index pair (i, j) in ``less``;
    None if the closure would merge given blocks.  The masks may arrive in
    any order, and the state keeps it.

    Every generator relates whole blocks, so the closure is a fold of
    ``relate_blocks``, the closure step of the cover search, over the
    pairs: it starts from the discrete state (each block its own up-set
    and down-set) and adds one pair at a time, O(m) mask ORs each, and
    stops with None at the first step that would collapse blocks.
    """
    ups, downs = list(masks), list(masks)
    for i, j in less:
        step = relate_blocks(masks, ups, downs, masks[i], masks[j])
        if step is None:
            return None
        ups, downs = step
    return list(masks), ups, downs


def cover_masks(masks: Sequence[int], ups: Sequence[int]) -> list[int]:
    """For each block of a block state, the union of the blocks covering it:
    those strictly above it (its up-set minus itself) and above no other of those."""
    above = [u & ~b for b, u in zip(masks, ups)]
    covers = []
    for up in above:
        higher = 0
        if up:
            for b, b_up in zip(masks, above):
                if up & b:
                    higher |= b_up
        covers.append(up & ~higher)
    return covers


def block_violations(masks: Sequence[int], ups: Sequence[int], downs: Sequence[int]):
    """Yield the (P1)/(P2) failures of a pre-order given by its blocks, lazily,
    P1 first and pairs in block order, so a caller can stop at the first.

    The arguments are a ``block_masks`` state: block value masks sorted by
    min, and the up-set and down-set of each block.
    """
    # of two overlapping blocks, one has a value inside the other's interval,
    # so (P1) fails only if some block's interval holds a value unrelated to it
    spans, unrelated, p1 = [], [], False
    for b, u, d in zip(masks, ups, downs):
        si, free = (1 << b.bit_length()) - (b & -b), ~(u | d)  # b's interval
        spans.append(si)
        unrelated.append(free)
        if si & free:
            p1 = True
    if p1:
        for i, (si, free) in enumerate(zip(spans, unrelated)):
            for j in range(i + 1, len(masks)):
                if masks[j] & free and si & spans[j]:
                    yield Violation("P1", Block.of(masks[i]), Block.of(masks[j]))
    for b, si, cover in zip(masks, spans, cover_masks(masks, ups)):
        # a covering block with all its values inside b's interval overlaps it
        if cover & ~si:
            below, upto = (b & -b) - 1, (1 << b.bit_length()) - 1
            for c in masks:
                if cover & c and not (c & ~below and c & upto):
                    yield Violation("P2", Block.of(b), Block.of(c))


def axiom_violations(q: Preorder) -> list[Violation]:
    """All (P1)/(P2) failures; empty list means q is a lattice element."""
    return list(block_violations(*block_masks(q)))


def require_block_axioms(masks: Sequence[int], ups: Sequence[int], downs: Sequence[int]) -> None:
    """Raise InvalidPreorderError naming every (P1)/(P2) failure of a ``block_masks`` state."""
    bad = list(block_violations(masks, ups, downs))
    if bad:
        raise InvalidPreorderError("; ".join(str(v) for v in bad))


def _carry(q: Preorder, runs: tuple[int, ...]) -> Preorder:
    """Attach to q the state its caller has just checked (or proved) to
    satisfy (P1)/(P2): its block masks in run order; returns q."""
    _set_state(q, runs)
    return q


def checked_state(q: Preorder) -> tuple[int, ...]:
    """q's block masks in the order of their runs in lam(q), checked against
    (P1)/(P2) before first use; a block's placement is its index plus one.

    The first call on an object without a carried state reads the state
    (``block_masks``) and runs the full scan, raising InvalidPreorderError
    as ``require_block_axioms`` does; only then does it order the blocks
    by one slot pass (``_run_slots``) and carry their masks on q.  Later
    calls read them back.  The module docstring lists the constructors
    that carry a state from the start.
    """
    if q._state is None:
        state = block_masks(q)
        require_block_axioms(*state)
        _carry(q, tuple([b for b, _ in _run_slots(*state)]))
    return q._state


def block_rows(q: Preorder, masks: Sequence[int]) -> list[int]:
    """The row of q at each block's min: the up-set of each block."""
    n, row = q.n, (1 << q.n) - 1
    return [q.bits >> n * ((b & -b).bit_length() - 1) & row for b in masks]


def mu(p: Permutation) -> Preorder:
    """Pre-order of a permutation: runs are blocks, overlaps order them
    (``mu_words`` of its one word)."""
    return mu_words((p.word,), p.n)[0]


def mu_words(words, n: int) -> list[Preorder]:
    """mu of each permutation word of [n] in ``words``, in their order.

    The descending runs of a word are the blocks (its ``run_masks``, in
    run order, so lam(mu(p)) = p).  Of two distinct runs with intersecting
    value intervals, the one further right gives the greater block; the
    relation is the transitive closure of these generators.  Every
    generator points right, so when a run ends, at the first letter above
    its last, its down-set is fixed: the run plus the down-sets of the
    earlier runs whose intervals meet it.  Column b of the packed bits is
    the down-set of b's block, so the run fills all its columns with one
    product, spread(down) * run, where spread(down) has bit (a-1)*n for
    each value a of the down-set.

    Each word is one pass from an empty state.  Each element carries its
    runs, with no scan, for the image of every permutation is an element:

    - No runs merge: every generator points right, so a run is below only
      runs to its right, and two runs are never related both ways.
    - (P1) holds: two overlapping blocks are two overlapping runs, a
      generator, so they are comparable.
    - (P2) holds: a cover of the closure is a chain of generators with no
      block strictly between its ends, so it is one generator, and the
      runs of a generator overlap.
    """
    out = []
    for word in words:
        bits = run = spread = 0
        runs, done = [], []  # done: (interval, spread down-set) of each finished run
        for v in (*word, n + 1):  # n + 1 ends the last run
            bit = 1 << (v - 1)
            if run & (bit - 1):  # v is above the run's last letter: the run ends
                span, down = (1 << run.bit_length()) - (run & -run), spread
                for s, d in done:
                    if s & span:
                        down |= d
                bits |= down * run
                runs.append(run)
                done.append((span, down))
                run = spread = 0
            run |= bit
            spread |= 1 << n * (v - 1)
        q = _new(Preorder)  # Preorder._unchecked and _carry, inlined: this runs once per word
        _set_n(q, n)
        _set_bits(q, bits)
        _set_state(q, tuple(runs))
        out.append(q)
    return out


def _run_slots(masks: Sequence[int], ups: Sequence[int], downs: Sequence[int]) -> list[tuple[int, int]]:
    """(block mask, up-set) of each block of a pre-order q's block state,
    given in any order, in the left-to-right order their runs take in
    lam(q).

    Comparable blocks follow the block order; incomparable blocks (whose
    intervals are disjoint, by (P1)) follow numeric interval position.
    The values before a block's run are its before-set: those below it plus
    those under its min and not above it.  In a run order the before-sets
    are the nested prefixes of the order, so their sizes are distinct, and
    each block is placed in the slot of its before-set's size.  One walk
    over the slots in size order then checks that each before-set is the
    union of the blocks placed so far and that no second block shares the
    slot.  It fails at the block where a walk over the blocks sorted stably
    by before-set size would, and raises InvalidPreorderError naming it: no
    run order exists.
    """
    slots = [None] * max(masks).bit_length()  # a before-set has fewer than n values
    shared = {}  # the first block whose before-set size is already taken, per size
    for b, up, down in zip(masks, ups, downs):
        before = (down | ((b & -b) - 1)) & ~up
        k = before.bit_count()
        if slots[k] is None:
            slots[k] = (before, (b, up))
        else:
            shared.setdefault(k, b)
    order, placed = [], 0
    for k, slot in enumerate(slots):
        if slot is not None:
            before, block = slot
            if before != placed:
                raise _unorderable(masks, block[0])
            if k in shared:
                raise _unorderable(masks, shared[k])
            placed |= block[0]
            order.append(block)
    return order


def _unorderable(masks: Sequence[int], b: int) -> InvalidPreorderError:
    """The error for blocks with no run order, naming the block b where it fails."""
    return InvalidPreorderError(f"blocks {[Block.of(m) for m in masks]} are not totally orderable at {Block.of(b)}")


def runs_word(masks) -> tuple[int, ...]:
    """The word whose descending runs have the given value masks, left to right."""
    word = []
    for b in masks:
        while b:
            v = b.bit_length()
            word.append(v)
            b ^= 1 << (v - 1)
    return tuple(word)


def lam_packed(n: int, masks: Sequence[int], ups: Sequence[int], downs: Sequence[int]):
    """(lam word, pre-order) of a closed block state on [n], in any order,
    that its caller has just checked (or proved) to satisfy (P1)/(P2), in
    one walk over its slot pass (``_run_slots``, which raises if the blocks
    have no run order): each block writes its run and shifts its up-set
    into the row of each of its values.
    The pre-order carries the block masks in that run order (``checked_state``)."""
    word, bits, runs = [], 0, []
    for b, up in _run_slots(masks, ups, downs):
        runs.append(b)
        while b:
            v = b.bit_length() - 1
            word.append(v + 1)
            bits |= up << (n * v)
            b ^= 1 << v
    return tuple(word), _carry(Preorder._unchecked(n, bits), tuple(runs))


def lam(q: Preorder) -> Permutation:
    """Inverse of mu: each block becomes a descending run.

    Raises InvalidPreorderError if q fails (P1)/(P2).  The blocks partition
    [n], so the word is a permutation and is wrapped with no check.
    """
    return _of_word(runs_word(checked_state(q)))


def placements(q: Preorder) -> dict[Block, int]:
    """1-based position of each block's run in lam(q), left to right."""
    return {Block.of(b): k for k, b in enumerate(checked_state(q), start=1)}


def preorder_to_json(q: Preorder) -> dict:
    """JSON form: blocks in lam order plus the cover pairs of the block order.

    Raises InvalidPreorderError if q fails (P1)/(P2) (``checked_state``).
    """
    masks = checked_state(q)
    covers = cover_masks(masks, block_rows(q, masks))
    less = [[i, j] for i, cover in enumerate(covers) for j, c in enumerate(masks) if cover & c]
    return {"n": q.n, "blocks": [mask_values(b) for b in masks], "less": less}


_INT = frozenset((int,))


def _ints(x) -> bool:
    """x is a list of plain ints (a bool is not one), tested at C level."""
    return isinstance(x, list) and set(map(type, x)) <= _INT


def check_json_shape(data, keys=("n", "blocks")) -> int:
    """Check the shape of pre-order or partition JSON before any work; returns n.

    The ``keys`` must be present, ``n`` a positive integer, ``blocks`` a list
    of integer lists, ``coxeter`` an integer list, and each ``less`` entry a
    pair of distinct indices into ``blocks``.  Whether the blocks partition
    [n] is left to the builders.
    """
    if not isinstance(data, dict) or any(k not in data for k in keys):
        raise ValueError(f"JSON input must be an object with keys {', '.join(keys)}")
    n, raw_blocks, less = data["n"], data["blocks"], data.get("less", [])
    if type(n) is not int or n < 1:
        raise ValueError(f'"n" must be a positive integer, got {n!r}')
    if not (
        isinstance(raw_blocks, list)
        and all(isinstance(b, list) for b in raw_blocks)
        and set(map(type, chain.from_iterable(raw_blocks))) <= _INT
    ):
        raise ValueError('"blocks" must be a list of lists of integers')
    if not _ints(data.get("coxeter", [])):
        raise ValueError('"coxeter" must be a list of integers')
    if not isinstance(less, list):
        raise ValueError('"less" must be a list of index pairs')
    m = len(raw_blocks)
    for pair in less:
        if not (_ints(pair) and len(pair) == 2 and 0 <= pair[0] < m and 0 <= pair[1] < m):
            raise ValueError(f'"less" entry {pair!r} is not a pair of indices into the blocks')
        if pair[0] == pair[1]:
            raise ValueError(f'"less" entry {pair!r} relates a block to itself')
    return n


def partition_masks(block_sets, n: int) -> list[int]:
    """Value masks of blocks that partition [n]; raises ValueError otherwise.

    Each block is range-checked by its min and max before its mask is
    built, and its mask shows a repeated value by a popcount short of its
    length."""
    masks, ground = [], 0
    for b in map(list, block_sets):
        if not b:
            raise ValueError("empty block")
        if min(b) < 1 or max(b) > n:
            raise ValueError(f"blocks do not partition [1,{n}]")
        mask = 0
        for v in b:
            mask |= 1 << (v - 1)
        if mask & ground or mask.bit_count() != len(b):
            raise ValueError("blocks are not disjoint")
        ground |= mask
        masks.append(mask)
    if ground != (1 << n) - 1:
        raise ValueError(f"blocks do not partition [1,{n}]")
    return masks


def preorder_from_json(data: dict) -> Preorder:
    """Rebuild a pre-order from its JSON form and validate (P1)/(P2)."""
    check_json_shape(data)
    return _preorder_of_json(data)


def _preorder_of_json(data: dict) -> Preorder:
    """``preorder_from_json`` on data whose shape ``check_json_shape`` has
    passed: the blocks must partition [n], the ``less`` pairs must close
    without merging blocks, and the closure must satisfy (P1)/(P2)."""
    n = data["n"]
    masks = partition_masks(data["blocks"], n)
    order = sorted(range(len(masks)), key=lambda k: masks[k] & -masks[k])
    slot = {k: i for i, k in enumerate(order)}
    state = close_blocks([masks[k] for k in order], [(slot[i], slot[j]) for i, j in data.get("less", [])])
    if state is None:
        raise ValueError("order relations collapse the given blocks")
    require_block_axioms(*state)
    return lam_packed(n, *state)[1]
