"""Value semantics of the package's classes, pinned to what frozen dataclasses gave.

The slots classes (``Preorder``, ``Permutation``, ``Shard``,
``ShardIntersection``, ``CoxeterElement``) and the records
(``typing.NamedTuple``: ``Block``, ``Violation``, ``LabeledChain``,
``Barring``) keep their ``repr``, their
``hash`` (that of the field tuple) and their ``==``, refuse assignment,
and pickle.  No module of the package imports ``dataclasses``.
"""
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from shardorder.lattice import interval_lattice
from shardorder.perms import Permutation, all_permutations
from shardorder.preorders import Block, Preorder, axiom_violations, blocks, lam, mu
from shardorder.shards import Shard, ShardIntersection
from shardorder.shelling import increasing_chain
from shardorder.sortable import CoxeterElement, barring_of

from oracles import linear_coxeter

SRC = Path(__file__).resolve().parent.parent / "src"


def _values():
    """(object, literal repr, field tuple) of each converted class."""
    q = Preorder.discrete(2)
    chain = increasing_chain(q, Preorder.complete(2))
    return [
        (q, "Preorder(n=2, bits=9)", (2, 9)),
        (Permutation((2, 1)), "Permutation(word=(2, 1))", ((2, 1),)),
        (Shard(4, 1, 4, (1, -1)), "Shard(n=4, i=1, j=4, eps=(1, -1))", (4, 1, 4, (1, -1))),
        (ShardIntersection(2, (0, 0)), "ShardIntersection(n=2, rows=(1, 2))", (2, (1, 2))),
        (linear_coxeter(3), "CoxeterElement(n=3, word=(1, 2))", (3, (1, 2))),
        (Block.of(0b101), "B[1,3]{1,3}", (1, 3, 5)),
        (
            axiom_violations(Preorder.from_rows(3, [0b100, 0, 0]))[0],
            "Violation(axiom='P2', first=B[1,1]{1}, second=B[3,3]{3})",
            ("P2", Block.of(1), Block.of(4)),
        ),
        (
            chain,
            "LabeledChain(elements=(Preorder(n=2, bits=9), Preorder(n=2, bits=15)), labels=(2,))",
            ((q, Preorder.complete(2)), (2,)),
        ),
        (
            barring_of(CoxeterElement(4, (2, 1, 3))),
            "Barring(n=4, lower=frozenset({3}), upper=frozenset({2}), cycle=(1, 3, 4, 2), upper_mask=2)",
            (4, frozenset({3}), frozenset({2}), (1, 3, 4, 2), 2),
        ),
    ]


VALUES = _values()
IDS = [type(x).__name__ for x, _, _ in VALUES]


@pytest.mark.parametrize("x, text, fields", VALUES, ids=IDS)
def test_repr_hash_and_equality_are_those_of_the_fields(x, text, fields):
    assert repr(x) == text
    assert hash(x) == hash(fields)
    twin = type(x)(*fields)
    assert twin == x and not twin != x and hash(twin) == hash(x) and repr(twin) == text
    assert x != object() and x is not None


@pytest.mark.parametrize("x, text, fields", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(x, text, fields):
    name = (x._fields if isinstance(x, tuple) else x.__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(x, name, 0)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 0
    assert repr(x) == text


@pytest.mark.parametrize("x, text, fields", VALUES, ids=IDS)
def test_values_survive_pickle_and_copy(x, text, fields):
    for back in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert back == x and type(back) is type(x) and repr(back) == text


def test_classes_of_different_kinds_are_unequal():
    # a slots class equals only its own class; a record equals the plain
    # tuple of its fields, which a dataclass did not
    q = Preorder.discrete(2)
    assert q != (2, 9) and Permutation((2, 1)) != ((2, 1),)
    assert Shard(3, 1, 2, ()) != ShardIntersection(3, (0, 0, 0))
    assert Block.of(0b101) == (1, 3, 5)


def test_permutations_order_by_word():
    words = [(3, 1, 2), (1, 2, 3), (2, 3, 1), (1, 3, 2)]
    assert [p.word for p in sorted(map(Permutation, words))] == sorted(words)
    assert list(all_permutations(4)) == sorted(Permutation(p.word) for p in all_permutations(4))
    p, q = Permutation((1, 2)), Permutation((2, 1))
    assert p < q and p <= q and q > p and q >= p and p <= p and not p < p
    with pytest.raises(TypeError):
        p < (2, 1)


def test_unchecked_words_are_plain_permutations():
    # all_permutations, lam and interval_lattice skip the check their words cannot fail
    for p in all_permutations(4):
        assert p == Permutation(p.word) and hash(p) == hash((p.word,)) and p.n == 4
        back = lam(mu(p))
        assert back == p and type(back.word) is tuple and hash(back) == hash(p)
    sub = interval_lattice(Preorder.discrete(4), Preorder.complete(4))
    assert list(sub.words) == list(all_permutations(4))
    assert all(type(p.word) is tuple and hash(p) == hash(lam(q)) for p, q in zip(sub.words, sub.elements))


@pytest.mark.parametrize(
    "given, stored",
    [
        (lambda: Permutation([2, 1]), Permutation((2, 1))),
        (lambda: Shard(3, 1, 3, [1]), Shard(3, 1, 3, (1,))),
        (lambda: Permutation((2.0, 1)), ValueError),
        (lambda: Permutation((True, 2)), ValueError),
    ],
    ids=["Permutation list", "Shard list", "float value", "bool value"],
)
def test_constructors_store_tuples_of_ints(given, stored):
    # a list is stored as the tuple it holds, so the value hashes and equals
    # the tuple-built one; a value that is not an int is not a permutation
    if stored is ValueError:
        with pytest.raises(ValueError, match="must be integers"):
            given()
    else:
        x = given()
        assert x == stored and hash(x) == hash(stored) and repr(x) == repr(stored)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CoxeterElement(3, (True, 2)),
        lambda: CoxeterElement(3, (1.0, 2)),
        lambda: CoxeterElement(3.0, (1, 2)),
        lambda: Shard(3, True, 3, (1,)),
        lambda: Shard(3, 1, 3, (1.0,)),
        lambda: Shard(3.0, 1, 3, (1,)),
        lambda: Preorder(2.0, 9),
        lambda: Preorder(2, 9.0),
        lambda: Preorder(True, 1),
    ],
    ids=[
        "Coxeter bool generator", "Coxeter float generator", "Coxeter float size",
        "Shard bool index", "Shard float sign", "Shard float size",
        "Preorder float size", "Preorder float bits", "Preorder bool size",
    ],
)
def test_public_constructors_reject_fields_that_are_not_ints(build):
    # a bool or a float equal to an int is not one: each field and entry is
    # rejected by type, with a one-line ValueError, as Permutation does
    with pytest.raises(ValueError, match="must be integers"):
        build()


def test_a_fresh_preorder_carries_no_state():
    q = mu(Permutation((2, 1, 3)))
    assert Preorder(q.n, q.bits)._state is None
    assert Preorder.from_rows(3, q.rows())._state is None
    with pytest.raises(AttributeError):
        q._state = ()
    assert [b.min for b in blocks(q)] == [1, 3]


PUBLIC = [
    "Barring", "Block", "CoxeterElement", "CrossingPartitionError",
    "IncomparableError", "InvalidPreorderError", "InvariantError", "LabeledChain",
    "OmegaLattice", "Permutation", "Preorder", "ResourceLimitError", "Shard",
    "ShardIntersection", "ShardOrderError", "Violation", "all_coxeter_elements",
    "all_permutations", "axiom_violations", "barring_of", "blocks", "build_lattice",
    "chain_report", "count_decreasing_chains", "covers_up",
    "edge_label", "enumerate_shards", "increasing_chain", "intersect", "is_c_sortable",
    "is_noncrossing_preorder", "join", "lam", "leq", "lower_shards", "meet",
    "mobius", "mu", "noncrossing_order_of_partition", "noncrossing_preorders",
    "placements", "preorder_from_json", "preorder_to_json", "sortable_permutations",
    "to_preorder",
]


def test_the_public_surface_is_the_agreed_list():
    # adding a public name means adding it here too
    import shardorder

    bound = {}
    exec("from shardorder import *", bound)
    del bound["__builtins__"]
    assert set(bound) == set(shardorder.__all__)
    assert all(bound[name] is getattr(shardorder, name) for name in shardorder.__all__)
    assert sorted(shardorder.__all__) == PUBLIC and len(PUBLIC) == 45


def test_the_package_imports_neither_dataclasses_nor_inspect():
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, shardorder.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60
    )
    assert out.returncode == 0 and out.stdout.strip() == "[]", out.stderr
