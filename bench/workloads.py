"""
Inputs, operations and output checks of the benchmark workloads.

Every check compares against a reference the code under test does not
produce: closed formulas (n!, Catalan numbers, the count of indecomposable
permutations, OEIS A003319), facts read off the permutation words directly
(descending runs, descents), relations read back one pair at a time through
``Preorder.leq``, and Hasse-diagram sizes and digests pinned from the
initial implementation.  A check returns a list of problems; an empty list
is a pass.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time

# Cover edges of the whole lattice on S_n, and the SHA-256 of the sorted
# "lower-word upper-word" lines, pinned from the initial implementation.
PINNED_HASSE = {
    3: (8, "52ef0e201c31b07fd98a6237bc66263f59ed63fab18b00ab021c341f90643b7e"),
    4: (56, "f23ab835fa579269a566fd0bba67c0ee8cee00d29acb0102da259bc23e0874ad"),
    5: (408, "ea0db44cf329558e3192526f3d1647feeade3cc3a8973d5b08ff72dabbd2e0f2"),
    6: (3232, "cbd613c4f3c452e5d0acad915b50cc67ca265f15d03038bc82109e85e2868431"),
    7: (28144, "29c18471c14a0c35b5ef9de83a992aecba91b175907d85e17f3f6bed34b5cc4b"),
}


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def indecomposable_count(n: int) -> int:
    """OEIS A003319 by a(n) = n! - sum_{k<n} k! a(n-k)."""
    a = [0, 1]
    for m in range(2, n + 1):
        a.append(math.factorial(m) - sum(math.factorial(k) * a[m - k] for k in range(1, m)))
    return a[n]


def descending_runs(word) -> list[list[int]]:
    runs = [[word[0]]]
    for prev, v in zip(word, word[1:]):
        if v < prev:
            runs[-1].append(v)
        else:
            runs.append([v])
    return runs


def descents(word) -> int:
    return sum(1 for a, b in zip(word, word[1:]) if a > b)


def relation(q) -> frozenset:
    """All related pairs of a pre-order, read one at a time."""
    values = range(1, q.n + 1)
    return frozenset((a, b) for a in values for b in values if q.leq(a, b))


def contained(a, b) -> bool:
    """Every pair related in pre-order a is related in b."""
    values = range(1, a.n + 1)
    return all(b.leq(x, y) for x in values for y in values if a.leq(x, y))


def class_count(rel: frozenset, n: int) -> int:
    """Number of classes of mutual comparability of a relation."""
    return len({frozenset(b for b in range(1, n + 1) if (a, b) in rel and (b, a) in rel) for a in range(1, n + 1)})


def word_text(word) -> str:
    return "".join(map(str, word)) if len(word) <= 9 else ",".join(map(str, word))


def hasse_digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def check_hasse(text: str, n: int) -> tuple[list[str], int]:
    """Check `hasse --n N` JSON output; returns (problems, edge count)."""
    try:
        data = json.loads(text)
        words = [word_text(w) for w in itertools.permutations(range(1, n + 1))]
        problems = []
        if data["n"] != n:
            problems.append(f"hasse: n is {data['n']}, expected {n}")
        if data["nodes"] != words:
            problems.append(f"hasse: nodes are not the {len(words)} words of S_{n} in order")
            return problems, len(data["edges"])
        edges = data["edges"]
        ranks = [descents(w) for w in itertools.permutations(range(1, n + 1))]
        jumps = sum(1 for i, j in edges if ranks[j] != ranks[i] + 1)
        if jumps:
            problems.append(f"hasse: {jumps} edges do not go up exactly one rank")
        count, digest = PINNED_HASSE.get(n, (None, None))
        if count is not None and len(edges) != count:
            problems.append(f"hasse: {len(edges)} cover edges, expected {count}")
        if digest and hasse_digest(f"{words[i]} {words[j]}" for i, j in edges) != digest:
            problems.append("hasse: cover edges differ from the pinned diagram")
        return problems, len(edges)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"hasse: malformed output ({exc!r})"], 0


def check_chains(text: str, n: int) -> list[str]:
    """Check `chains --n N` JSON output for the whole lattice."""
    try:
        data = json.loads(text)
        bottom = word_text(range(1, n + 1))
        top = word_text(range(n, 0, -1))
        a = indecomposable_count(n)
        expected = {
            "interval": [bottom, top],
            "increasing": [2] * (n - 1),
            "decreasing_count": a,
            "mobius": (-1) ** (n - 1) * a,
        }
        return [
            f"chains: {key} is {data[key]!r}, expected {want!r}"
            for key, want in expected.items()
            if data[key] != want
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"chains: malformed output ({exc!r})"]


def elements_inputs(so, n: int, size: int, seed: int, index: int):
    """A stream of uniformly random permutations of S_n."""
    rng = random.Random(f"elements:{n}:{seed}:{index}")
    return [so.Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(size)]


def check_element(p, q, text, back, geo, ups, joined, other) -> list[str]:
    problems = []
    runs = [sorted(r) for r in descending_runs(p.word)]
    if json.loads(text)["blocks"] != runs:
        problems.append(f"map {p}: blocks are not the descending runs {runs}")
    if back != p:
        problems.append(f"unmap {p}: lam(mu(p)) is {back}")
    if geo != q:
        problems.append(f"oracle {p}: shard intersection gives another pre-order")
    rel = relation(q)
    blocks = class_count(rel, p.n)
    for c in ups:
        up = relation(c)
        if not rel < up or class_count(up, p.n) != blocks - 1:
            problems.append(f"covers_up {p}: {c} is not one rank above")
    if len(set(ups)) != len(ups) or (blocks > 1) != bool(ups):
        problems.append(f"covers_up {p}: {len(ups)} covers with {blocks} blocks")
    if not (contained(q, joined) and contained(other, joined)):
        problems.append(f"join {p}: result is not above both arguments")
    return problems


def run_elements(so, perms, tracer=None) -> dict:
    """map, unmap, the geometric oracle, covers_up and join, per element."""
    lat, problems, failed, edges = [], [], 0, 0
    prev = None
    for i, p in enumerate(perms):
        if tracer is not None:
            tracer.trace_id = i
        try:
            t0 = time.perf_counter_ns()
            q = so.mu(p)
            text = json.dumps(so.preorder_to_json(q))
            back = so.lam(so.preorder_from_json(json.loads(text)))
            geo = so.to_preorder(so.intersect(so.lower_shards(p), n=p.n))
            ups = so.covers_up(q)
            other = q if prev is None else prev  # the first element joins itself
            joined = so.join(q, other)
            lat.append(time.perf_counter_ns() - t0)
            prev = q
            found = check_element(p, q, text, back, geo, ups, joined, other)
            edges += len(ups)
        except Exception as exc:  # an operation that raises is a failed operation
            found = [f"element {p}: {exc!r}"]
        if found:
            failed += 1
            problems.extend(found)
    return {"lat_ns": lat, "attempted": len(perms), "failed": failed,
            "problems": problems[:20], "cover_edges": edges}


def noncrossing_inputs(so, n: int, size: int, seed: int, index: int):
    """Coxeter words of S_n drawn uniformly with replacement."""
    rng = random.Random(f"noncrossing:{n}:{seed}:{index}")
    words = list(itertools.permutations(range(1, n)))
    return [so.CoxeterElement(n, rng.choice(words)) for _ in range(size)]


def run_noncrossing(so, words, tracer=None, mu=None) -> dict:
    """sortable_permutations and noncrossing_preorders, per Coxeter word.

    ``mu`` maps the sortable permutations for the check; pass an uncached,
    unwrapped one so the check adds no calls or cache hits to the trace.
    """
    mu = mu or so.mu
    lat, problems, failed, kept = [], [], 0, 0
    for i, c in enumerate(words):
        if tracer is not None:
            tracer.trace_id = i
        try:
            t0 = time.perf_counter_ns()
            sortable = so.sortable_permutations(c)
            noncrossing = so.noncrossing_preorders(c)
            lat.append(time.perf_counter_ns() - t0)
            kept += len(sortable) + len(noncrossing)
            want = catalan(c.n)
            found = []
            if len(sortable) != want or len(noncrossing) != want:
                found.append(f"word {c}: {len(sortable)} sortable and "
                             f"{len(noncrossing)} noncrossing, expected {want}")
            if {mu(p) for p in sortable} != set(noncrossing):
                found.append(f"word {c}: mu(sortable) is not the noncrossing set")
        except Exception as exc:  # an operation that raises is a failed operation
            found = [f"word {c}: {exc!r}"]
        if found:
            failed += 1
            problems.extend(found)
    return {"lat_ns": lat, "attempted": len(words), "failed": failed,
            "problems": problems[:20], "kept": kept}


INPUTS = {"elements": elements_inputs, "noncrossing": noncrossing_inputs}
