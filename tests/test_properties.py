"""Property tests on random elements beyond the exhaustive range (n up to 12)."""
from hypothesis import given, settings
from hypothesis import strategies as st

from shardorder.perms import Permutation
from shardorder.preorders import block_order, blocks, lam, mu, preorder_from_json, preorder_to_json

from test_preorders import cover_pairs, less_pairs, pairwise_block_order

FAST = settings(derandomize=True, max_examples=300, deadline=None)


def permutations(low: int, high: int):
    return st.integers(low, high).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(lambda w: Permutation(tuple(w)))
    )


@FAST
@given(permutations(1, 12))
def test_lam_inverts_mu(p):
    assert lam(mu(p)) == p


@FAST
@given(permutations(1, 12))
def test_json_round_trip(p):
    q = mu(p)
    data = preorder_to_json(q)
    assert preorder_from_json(data) == q
    assert sorted(v for b in data["blocks"] for v in b) == list(range(1, p.n + 1))


@FAST
@given(permutations(1, 12))
def test_text_round_trip(p):
    assert Permutation.parse(str(p)) == p


@FAST
@given(permutations(8, 10))
def test_block_order_masks_match_pairwise(p):
    q = mu(p)
    bo = block_order(q)
    assert bo.blocks == blocks(q)
    assert (less_pairs(bo), cover_pairs(bo)) == pairwise_block_order(q)
