"""
Command-line front end.

Subcommands: map, unmap, hasse, shards, mobius, chains, el-verify,
sortable, noncrossing, verify.  All output is deterministic (no
timestamps) and goes to stdout unless --out is given.  Lattice-wide
commands are capped at n=7, element-wise ones and sortable and
noncrossing (Catalan(n) elements) at n=9; --force overrides either cap.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import ResourceLimitError, ShardOrderError
from .lattice import LATTICE_SIZE_CAP, build_lattice, covers_up
from .perms import Permutation, all_permutations
from .preorders import (
    Preorder,
    _preorder_of_json,
    axiom_violations,
    check_json_shape,
    checked_state,
    lam,
    mu,
    mu_words,
    preorder_to_json,
)
from .shards import enumerate_shards, intersect, lower_shards, to_preorder
from .shelling import chain_counts, chain_report, increasing_chain, mobius
from .sortable import (
    CoxeterElement,
    _order_of_partition,
    all_coxeter_elements,
    barring_of,
    noncrossing_order_of_partition,
    noncrossing_preorders,
    pattern_sortable_permutations,
    sortable_permutations,
)

ELEMENT_CAP = 9


def _check_cap(n: int, cap: int, force: bool, what: str) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if n > cap and not force:
        raise ResourceLimitError(
            f"{what} is capped at n={cap} (requested n={n}; use --force to override)"
        )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _json_input(arg: str, keys, force: bool, what: str) -> dict:
    """Read inline JSON (starting with { or [), a file or stdin (-).

    Its shape and size cap are checked before any work.
    """
    try:
        if arg == "-":
            data = json.load(sys.stdin)
        elif arg.lstrip().startswith(("{", "[")):
            data = json.loads(arg)
        else:
            with open(arg) as fh:
                data = json.load(fh)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    _check_cap(check_json_shape(data, keys), ELEMENT_CAP, force, what)
    return data


def _endpoints(args) -> tuple[Preorder, Preorder]:
    bottom = (
        mu(Permutation.parse(args.bottom))
        if args.bottom
        else Preorder.discrete(args.n)
    )
    top = (
        mu(Permutation.parse(args.top)) if args.top else Preorder.complete(args.n)
    )
    if bottom.n != args.n or top.n != args.n:
        raise ValueError("interval endpoints must have size n")
    return bottom, top


def cmd_map(args) -> int:
    p = Permutation.parse(args.perm)
    _check_cap(p.n, ELEMENT_CAP, args.force, "map")
    _emit(_dump(preorder_to_json(mu(p))), args.out)
    return 0


def cmd_unmap(args) -> int:
    data = _json_input(args.json, ("n", "blocks"), args.force, "unmap")
    _emit(str(lam(_preorder_of_json(data))) + "\n", args.out)
    return 0


def cmd_hasse(args) -> int:
    _check_cap(args.n, LATTICE_SIZE_CAP, args.force, "hasse")
    lat = build_lattice(args.n, force=args.force)
    if args.format == "dot":
        _emit(lat.to_dot(), args.out)
    else:
        _emit(lat.to_json_text(), args.out)
    return 0


def cmd_shards(args) -> int:
    _check_cap(args.n, ELEMENT_CAP, args.force, "shards")
    shards = enumerate_shards(args.n)
    if args.format == "json":
        _emit(
            _dump({"n": args.n, "count": len(shards), "shards": [str(s) for s in shards]}),
            args.out,
        )
    else:
        _emit("".join(f"{s}\n" for s in shards), args.out)
    return 0


def cmd_mobius(args) -> int:
    _check_cap(args.n, LATTICE_SIZE_CAP, args.force, "mobius")
    bottom, top = _endpoints(args)
    value = mobius(bottom, top)
    _emit(
        _dump(
            {
                "n": args.n,
                "bottom": str(lam(bottom)),
                "top": str(lam(top)),
                "mobius": value,
                "decreasing_chains": abs(value),
            }
        ),
        args.out,
    )
    return 0


def cmd_chains(args) -> int:
    _check_cap(args.n, LATTICE_SIZE_CAP, args.force, "chains")
    bottom, top = _endpoints(args)
    _emit(_dump(chain_report(bottom, top)), args.out)
    return 0


def cmd_sortable(args) -> int:
    _check_cap(args.n, ELEMENT_CAP, args.force, "sortable")
    c = CoxeterElement.parse(args.coxeter, args.n)
    sortable = sortable_permutations(c)
    if args.format == "json":
        _emit(
            _dump(
                {
                    "n": args.n,
                    "coxeter": list(c.word),
                    "count": len(sortable),
                    "sortable": [str(p) for p in sortable],
                }
            ),
            args.out,
        )
    else:
        _emit("".join(f"{p}\n" for p in sortable), args.out)
    return 0


def cmd_noncrossing(args) -> int:
    if args.partition:
        data = _json_input(args.partition, ("n", "coxeter", "blocks"), args.force, "noncrossing")
        n = data["n"]
        if args.n is not None and args.n != n:
            raise ValueError("--n disagrees with the partition JSON")
        c = CoxeterElement(n, tuple(data["coxeter"]))
        if args.coxeter is not None and CoxeterElement.parse(args.coxeter, n) != c:
            raise ValueError("--coxeter disagrees with the partition JSON")
        given = data["blocks"]
        q = noncrossing_order_of_partition(given, c)
        for i, j in data.get("less", []):
            if not q.leq(given[i][0], given[j][0]):
                raise ValueError(
                    f'"less" pair [{i}, {j}] does not hold: block {given[i]} is not below '
                    f"block {given[j]} in the noncrossing pre-order of these blocks"
                )
        _emit(_dump(preorder_to_json(q)), args.out)
        return 0
    if args.n is None:
        raise ValueError("--n is required without a partition argument")
    if args.coxeter is None:
        raise ValueError("--coxeter is required without a partition argument")
    _check_cap(args.n, ELEMENT_CAP, args.force, "noncrossing")
    c = CoxeterElement.parse(args.coxeter, args.n)
    found = noncrossing_preorders(c)
    _emit(
        _dump(
            {
                "n": args.n,
                "coxeter": list(c.word),
                "count": len(found),
                "noncrossing": [preorder_to_json(q) for q in found],
            }
        ),
        args.out,
    )
    return 0


def _suite_roundtrip(n: int, lattice) -> dict:
    """lam(mu(p)) = p, and mu(p) passes the full (P1)/(P2) scan, which reads
    the packed bits and not the state mu carries."""
    checked = 0
    for p in all_permutations(n):
        q = mu(p)
        if lam(q) != p or axiom_violations(q):
            return {"suite": "roundtrip", "n": n, "pass": False, "failed_at": str(p)}
        checked += 1
    return {"suite": "roundtrip", "n": n, "pass": True, "checked": checked}


def _suite_geometry(n: int, lattice) -> dict:
    agreements = 0
    for p in all_permutations(n):
        if to_preorder(intersect(lower_shards(p), n=n)) != mu(p):
            return {"suite": "geometry", "n": n, "pass": False, "failed_at": str(p)}
        agreements += 1
    return {"suite": "geometry", "n": n, "pass": True, "agreements": agreements}


def _suite_el(n: int, lattice) -> dict:
    bottom, top = Preorder.discrete(n), Preorder.complete(n)
    inc_count, dec = chain_counts(bottom, top, lattice)
    greedy = increasing_chain(bottom, top)
    ok = inc_count == 1 and list(greedy.labels) == sorted(greedy.labels)
    return {
        "suite": "el",
        "n": n,
        "pass": ok,
        "increasing_chains": inc_count,
        "decreasing_chains": dec,
        "greedy_labels": list(greedy.labels),
    }


def _indecomposable_count(n: int) -> int:
    """The indecomposable permutations of [n], by I(n) = n! - sum_{k<n} k! I(n-k)
    (a permutation splits uniquely into its shortest prefix that is a
    permutation of 1..k, which is indecomposable, and any permutation of
    the rest)."""
    counts = [0]
    for m in range(1, n + 1):
        counts.append(math.factorial(m) - sum(math.factorial(k) * counts[m - k] for k in range(1, m)))
    return counts[n]


def _suite_mobius(n: int, lattice) -> dict:
    value = mobius(Preorder.discrete(n), Preorder.complete(n), lattice)
    indecomposable = _indecomposable_count(n)
    ok = abs(value) == indecomposable
    return {
        "suite": "mobius",
        "n": n,
        "pass": ok,
        "mobius": value,
        "indecomposable": indecomposable,
    }


def _noncrossing_image(perms, bar, expected: int) -> bool:
    """Reading's theorem for one barring: the image of the pattern filter
    under mu is ``expected`` (Catalan(n)) distinct elements, and each comes
    back from its own blocks through the partition constructor, so its
    partition is noncrossing and distinct from the others'.  A constructor
    that raises fails the check.
    """
    image = set(mu_words([p.word for p in perms], bar.n))
    try:
        return len(image) == expected and all(_order_of_partition(checked_state(q), bar) == q for q in image)
    except ShardOrderError:
        return False


def _suite_sortable(n: int, lattice) -> dict:
    """Every word's sortable list against its barring's pattern filter, and
    Reading's theorem on that filter (``_noncrossing_image``).

    Both depend on the barring alone, so each runs once per barring.
    """
    expected = math.comb(2 * n, n) // (n + 1)
    reference = {}  # barring -> its pattern-filter list
    words = 0
    for c in all_coxeter_elements(n):
        words += 1
        bar = barring_of(c)
        if bar not in reference:
            reference[bar] = pattern_sortable_permutations(bar)
            if not _noncrossing_image(reference[bar], bar, expected):
                return {"suite": "sortable", "n": n, "pass": False, "failed_at": str(c)}
        if sortable_permutations(c) != reference[bar]:
            return {"suite": "sortable", "n": n, "pass": False, "failed_at": str(c)}
    return {
        "suite": "sortable",
        "n": n,
        "pass": True,
        "words": words,
        "count_per_word": expected,
    }


def _suite_covers(n: int, lattice) -> dict:
    """``covers_up`` of every element against the kernel's covers, in index order."""
    for i, q in enumerate(lattice.elements):
        if [lattice.index.get(c) for c in covers_up(q)] != list(lattice.covers[i]):
            return {"suite": "covers", "n": n, "pass": False, "failed_at": str(lattice.words[i])}
    return {
        "suite": "covers",
        "n": n,
        "pass": True,
        "elements": len(lattice),
        "edges": sum(map(len, lattice.covers)),
    }


SUITES = {
    "roundtrip": _suite_roundtrip,
    "geometry": _suite_geometry,
    "el": _suite_el,
    "mobius": _suite_mobius,
    "sortable": _suite_sortable,
    "covers": _suite_covers,
}


def cmd_verify(args) -> int:
    _check_cap(args.n, LATTICE_SIZE_CAP, args.force, "verify")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    # one lattice for the el, mobius and covers suites; the cap is checked above
    lattice = build_lattice(args.n, force=True) if {"el", "mobius", "covers"} & set(names) else None
    results = [SUITES[name](args.n, lattice) for name in names]
    ok = all(r["pass"] for r in results)
    _emit(_dump({"n": args.n, "pass": ok, "results": results}), args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shardorder",
        description="Lattice of permutation pre-orders: bijections, Hasse "
        "diagrams, chain labelings, and sortability checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_required=True):
        if n_required:
            p.add_argument("--n", type=int, required=True, help="ground-set size")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--force", action="store_true", help="override size caps")

    p = sub.add_parser("map", help="permutation -> pre-order JSON")
    p.add_argument("perm", help="one-line word, e.g. 26314758 or 2,6,3,1,4,7,5,8")
    common(p, n_required=False)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("unmap", help="pre-order JSON -> permutation")
    p.add_argument("json", help="inline JSON, a file path, or - for stdin")
    common(p, n_required=False)
    p.set_defaults(func=cmd_unmap)

    p = sub.add_parser("hasse", help="export the cover digraph")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    common(p)
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("shards", help="enumerate shards")
    p.add_argument("--format", choices=("text", "json"), default="text")
    common(p)
    p.set_defaults(func=cmd_shards)

    p = sub.add_parser("mobius", help="Moebius number of an interval")
    p.add_argument("--bottom", help="permutation string (default identity)")
    p.add_argument("--top", help="permutation string (default reversal)")
    common(p)
    p.set_defaults(func=cmd_mobius)

    p = sub.add_parser("chains", help="chain report for an interval")
    p.add_argument("--bottom", help="permutation string (default identity)")
    p.add_argument("--top", help="permutation string (default reversal)")
    common(p)
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("sortable", help="list the sortable permutations of a Coxeter word")
    p.add_argument("--coxeter", required=True, help="generator indices, e.g. 2,1,3")
    p.add_argument("--format", choices=("text", "json"), default="text")
    common(p)
    p.set_defaults(func=cmd_sortable)

    p = sub.add_parser(
        "noncrossing",
        help="noncrossing pre-orders of a Coxeter word, or build one from a partition",
    )
    p.add_argument(
        "partition",
        nargs="?",
        help='partition JSON {"n":..,"coxeter":[..],"blocks":[[..]..]} (inline, path, or -)',
    )
    p.add_argument("--coxeter", help="generator indices (enumeration mode)")
    p.add_argument("--n", type=int, help="ground-set size (enumeration mode)")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--force", action="store_true", help="override size caps")
    p.set_defaults(func=cmd_noncrossing)

    p = sub.add_parser("verify", help="run an oracle suite")
    p.add_argument(
        "--suite",
        choices=tuple(SUITES) + ("all",),
        default="all",
    )
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("el-verify", help="alias for verify --suite el")
    common(p)
    p.set_defaults(func=cmd_verify, suite="el")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ShardOrderError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
