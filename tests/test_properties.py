"""Property-based tests.  Derandomized and without an example database, so
every run draws the same examples."""

import random

from hypothesis import given, settings, strategies as st

import oracles
from posetspace.catalog import random_poset
from posetspace.constructions import product_poset
from posetspace.files import parse_poset_text, poset_to_text
from posetspace.poset_core import _bits

fixed = settings(derandomize=True, database=None, deadline=None)


@fixed
@given(st.integers(min_value=0, max_value=2**200 - 1))
def test_bits_lists_the_set_bits_in_order(m):
    assert list(_bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]


@fixed
@given(st.integers(min_value=0, max_value=2**32), st.lists(st.integers(0, 5), min_size=1, max_size=3))
def test_product_order_matches_oracle(seed, sizes):
    rng = random.Random(seed)
    r = product_poset([random_poset(rng, n) for n in sizes])
    assert [r.poset.up_mask(i) for i in range(len(r.poset))] == oracles.product_up_masks(r.factors)
    assert r.ok, r.failure


@fixed
@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 8), st.floats(0.0, 1.0))
def test_poset_text_round_trips(seed, n, edge_prob):
    p = random_poset(random.Random(seed), n, edge_prob)
    assert parse_poset_text(poset_to_text(p)) == p
