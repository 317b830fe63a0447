"""
Shards of the braid arrangement, kept purely combinatorial.

The hyperplane H_ij (i < j) splits into 2^(j-i-1) shards, one per sign
choice eps_k for each k strictly between i and j: the shard is the cone

    x_i = x_j,   eps_k * x_i <= eps_k * x_k   for i < k < j.

Only the index/sign data is stored; no floating-point geometry is needed
for anything downstream.  An intersection is the union of these
constraints, closed once by Warshall's algorithm on one row mask per
index (x_a <= x_b is bit b-1 of row a), and kept as those closed rows.
Equalities (two-sided inequalities) and the strict one-way inequalities
are read off the rows on demand, and the pre-order of an intersection
packs the rows as they are, with no second closure.  Nothing here uses
``mu`` or a block state, so the shards stay an independent route to
``mu``.

Text form is "H(i,j)[+-...]" with one sign per k = i+1 .. j-1.
"""
from __future__ import annotations

import itertools

from .frozen import Frozen
from .perms import Permutation
from .preorders import Preorder, close_rows


class Shard(Frozen):
    __slots__ = ("n", "i", "j", "eps")  # eps: +1 / -1 for k = i+1 .. j-1

    def __init__(self, n: int, i: int, j: int, eps: tuple[int, ...]):
        eps = tuple(eps)
        if any(type(x) is not int for x in (n, i, j, *eps)):
            raise ValueError(f"shard fields must be integers: n={n!r} i={i!r} j={j!r} eps={eps!r}")
        if not 1 <= i < j <= n:
            raise ValueError(f"need 1 <= i < j <= n, got i={i} j={j} n={n}")
        if len(eps) != j - i - 1:
            raise ValueError("one sign required per index strictly between i and j")
        if any(e not in (1, -1) for e in eps):
            raise ValueError("signs must be +1 or -1")
        write = object.__setattr__
        write(self, "n", n)
        write(self, "i", i)
        write(self, "j", j)
        write(self, "eps", eps)

    def __str__(self):
        signs = "".join("+" if e > 0 else "-" for e in self.eps)
        return f"H({self.i},{self.j})[{signs}]"


_new = object.__new__
_set_n, _set_i, _set_j, _set_eps = Shard.n.__set__, Shard.i.__set__, Shard.j.__set__, Shard.eps.__set__


def _of_signs(n: int, i: int, j: int, eps: tuple[int, ...]) -> Shard:
    """Wrap shard data already known valid, skipping ``Shard``'s check."""
    s = _new(Shard)
    _set_n(s, n)
    _set_i(s, i)
    _set_j(s, j)
    _set_eps(s, eps)
    return s


def enumerate_shards(n: int) -> list[Shard]:
    """All shards of the arrangement on [n]; 2^(j-i-1) per hyperplane."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for eps in itertools.product((1, -1), repeat=j - i - 1):
                out.append(Shard(n, i, j, eps))
    return out


def lower_shards(p: Permutation) -> list[Shard]:
    """The shards below a permutation's region, one per descent.

    A descent ji (j > i adjacent in the word) selects the shard of H_ij on
    the same side as the region of every cutting hyperplane: eps_k is -1
    exactly when (k, i) is an inversion of the word, i.e. when k appears
    before i.  The shards are built valid (i < j, one sign of +1 or -1
    per k strictly between), so they skip ``Shard``'s check.
    """
    w, n = p.word, p.n
    out, seen = [], 0  # seen: the values up to and including j
    for j, i in zip(w, w[1:]):
        seen |= 1 << (j - 1)
        if j > i:
            eps = tuple([-1 if seen >> (k - 1) & 1 else 1 for k in range(i + 1, j)])
            out.append(_of_signs(n, i, j, eps))
    return out


class ShardIntersection(Frozen):
    """Closed constraint set of an intersection of shards.

    ``rows`` holds one value mask per index: bit b-1 of ``rows[a-1]`` is set
    iff x_a <= x_b is derivable.  The rows are made reflexive and closed on
    construction (one Warshall pass), so equal intersections compare equal
    as values.  ``equalities`` (unordered pairs {a, b} with x_a = x_b) and
    ``inequalities`` (the strict one-way pairs (a, b), x_a <= x_b only) are
    read off the rows.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        if n < 1:
            raise ValueError("ground set must be nonempty")
        if len(rows) != n or any(r >> n for r in rows):
            raise ValueError(f"need {n} row masks within [1,{n}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(close_rows([r | 1 << a for a, r in enumerate(rows)])))

    @property
    def equalities(self) -> frozenset[frozenset[int]]:
        rows, n = self.rows, self.n
        return frozenset(
            frozenset((a + 1, b + 1))
            for a in range(n)
            for b in range(a + 1, n)
            if rows[a] >> b & 1 and rows[b] >> a & 1
        )

    @property
    def inequalities(self) -> frozenset[tuple[int, int]]:
        rows, n = self.rows, self.n
        return frozenset(
            (a + 1, b + 1)
            for a in range(n)
            for b in range(n)
            if a != b and rows[a] >> b & 1 and not rows[b] >> a & 1
        )


def intersect(shards, n: int | None = None) -> ShardIntersection:
    """Union the constraints of the given shards and close them.

    The empty intersection is the whole space and needs an explicit n.
    The signs are read from ``eps`` in order: every ``Shard`` holds one
    per index strictly between i and j, checked by its constructor or, in
    ``lower_shards``, built so.
    """
    shards = list(shards)
    if shards:
        sizes = {s.n for s in shards}
        if len(sizes) != 1:
            raise ValueError(f"shards live on different ground sets: {sorted(sizes)}")
        if n is not None and n != shards[0].n:
            raise ValueError("explicit n disagrees with the shards")
        n = shards[0].n
    elif n is None:
        raise ValueError("empty intersection needs an explicit n")

    rows = [0] * n
    for s in shards:
        i, j = s.i - 1, s.j - 1
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        for k, e in enumerate(s.eps, start=i + 1):  # 0-based, as i and j are
            if e > 0:  # x_i <= x_k
                rows[i] |= 1 << k
            else:  # x_k <= x_i
                rows[k] |= 1 << i
    return ShardIntersection(n, tuple(rows))


def to_preorder(g: ShardIntersection) -> Preorder:
    """Read the index relation off the constraints: a below b iff x_a <= x_b.

    The rows are reflexive and closed already, so they are packed as they
    are, with no second closure."""
    return Preorder._unchecked(g.n, sum(r << (a * g.n) for a, r in enumerate(g.rows)))
