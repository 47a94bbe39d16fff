import pytest

from oracles import brute_force_classify, brute_force_is_filter
from posetspace.catalog import labeled_posets, posets_up_to
from posetspace.filters import (
    ChainFilter,
    Filter,
    NotAFilter,
    bounded,
    classify_filter,
    enumerate_filters,
    extend_to_maximal,
    filter_generator,
    principal,
    upward_closure,
)
from posetspace.poset_core import BinaryTreePoset, PosetError, UnknownChoice, UnknownElement


def all_subsets(poset):
    for r in range(2 ** len(poset)):
        yield frozenset(e for i, e in enumerate(poset.elements) if r >> i & 1)


def test_chain2_filters(chain2):
    assert [str(f) for f in enumerate_filters(chain2, "all")] == ["{x, y}", "{y}"]
    c = classify_filter(chain2, {"y"})
    assert (c.is_filter, c.is_unbounded, c.is_maximal) == (True, False, False)
    c = classify_filter(chain2, {"x", "y"})
    assert (c.is_filter, c.is_unbounded, c.is_maximal) == (True, True, True)


def test_vee_filters(vee):
    assert classify_filter(vee, {"a", "b", "c"}).is_filter is False
    assert [str(f) for f in enumerate_filters(vee, "maximal")] == ["{a, c}", "{b, c}"]


@pytest.mark.parametrize("generator", [99, 3, -1])
def test_filter_refuses_a_generator_outside_the_poset(vee, generator):
    # a negative generator must not index from the end of the element tuple
    filt = Filter(vee, generator)
    for read in (Filter.mask, Filter.minimum, str, lambda f: f.members):
        with pytest.raises(PosetError) as err:
            read(filt)
        assert str(err.value) == f"filter generator {generator} is no element index of V"


def test_classify_unknown_element(vee):
    with pytest.raises(UnknownElement):
        classify_filter(vee, {"zzz"})


@pytest.mark.parametrize("n", range(6))
def test_filter_test_and_boundedness_match_the_definitions(n):
    # every mask of every labeled poset on n elements, the empty mask included
    for p in labeled_posets(n):
        for mask in range(2 ** n):
            members = p.names_of(mask)
            g = filter_generator(p, mask)
            assert (g is not None) == brute_force_is_filter(p, members), (p.pairs(), members)
            assert g is None or p.up_mask(g) == mask
            strictly_below_all = any(all(p.lt(r, q) for q in members) for r in p.elements)
            assert bounded(p, mask) == strictly_below_all, (p.pairs(), members)


def test_classification_matches_brute_force_small():
    for p in posets_up_to(4):
        for s in all_subsets(p):
            got = classify_filter(p, s)
            want = brute_force_classify(p, s)
            assert (got.is_filter, got.is_unbounded, got.is_maximal) == want, (p.name, s)


def test_maximal_equals_unbounded_on_finite_posets():
    for p in posets_up_to(4):
        mx = [f.members for f in enumerate_filters(p, "maximal")]
        ub = [f.members for f in enumerate_filters(p, "unbounded")]
        assert mx == ub


def test_every_maximal_filter_is_unbounded():
    for p in posets_up_to(4):
        for f in enumerate_filters(p, "maximal"):
            assert classify_filter(p, f.members).is_unbounded


def test_enumerate_agrees_with_subset_scan():
    def generator_index(p, s):
        return p.index(next(m for m in s if all(p.leq(m, e) for e in s)))

    for p in posets_up_to(4):
        expected = sorted(
            (s for s in all_subsets(p) if brute_force_classify(p, s)[0]),
            key=lambda s: generator_index(p, s),
        )
        got = [f.members for f in enumerate_filters(p, "all")]
        assert got == expected


def test_extend_to_maximal_examples(chain2, vee):
    assert str(extend_to_maximal(chain2, Filter.of(chain2, {"y"}))) == "{x, y}"
    # both upsets of a and b extend {c}; the tie breaks to a, first in element order
    assert str(extend_to_maximal(vee, Filter.of(vee, {"c"}))) == "{a, c}"


def test_extend_fixed_point(vee):
    for f in enumerate_filters(vee, "maximal"):
        assert extend_to_maximal(vee, f) == f


def test_extend_rejects_non_filter(vee):
    with pytest.raises(NotAFilter):
        extend_to_maximal(vee, Filter.of(vee, {"a", "b", "c"}))


def test_upward_closure(chain2, vee):
    assert upward_closure(chain2, {"x"}) == {"x", "y"}
    assert upward_closure(vee, {"c"}) == {"c"}
    for p in posets_up_to(3):
        for s in all_subsets(p):
            once = upward_closure(p, s)
            assert upward_closure(p, once) == once


def test_principal(vee):
    assert principal(vee, "a").members == {"a", "c"}


def test_filter_minimum(vee):
    assert principal(vee, "b").minimum() == "b"


def test_chain_filter_dedup_and_membership():
    tree = BinaryTreePoset()
    cf = ChainFilter.make(tree, ["e", "0", "0", "01"])
    assert cf.chain == ("e", "0", "01")
    assert cf.generates("0") and cf.generates("e")
    assert not cf.generates("1")
    assert cf.extended("010").last() == "010"
    with pytest.raises(PosetError):
        ChainFilter.make(tree, ["0", "1"])


def test_chain_filter_refuses_an_empty_chain():
    with pytest.raises(PosetError, match="at least one element"):
        ChainFilter.make(BinaryTreePoset(), [])


def test_unknown_filter_kind_is_a_typed_value_error(vee):
    with pytest.raises(UnknownChoice) as err:
        enumerate_filters(vee, "some")
    assert isinstance(err.value, PosetError) and isinstance(err.value, ValueError)
    assert str(err.value) == "unknown filter kind 'some'"
