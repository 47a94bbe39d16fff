import functools
import itertools
import operator
import random
import time

import pytest

import oracles
from oracles import spot_check_generated
from posetspace.catalog import all_topologies, labeled_posets, posets_up_to, random_poset
from posetspace.constructions import FiniteTopSpace, RationalMetric, formal_ball_poset
from posetspace.filters import bounded
from posetspace.poset_core import (
    AntisymmetryViolation,
    BinaryTreePoset,
    DuplicateElement,
    FinitePoset,
    InvalidElementId,
    IrreflexivityViolation,
    PosetError,
    UnknownElement,
    UnknownElementInPair,
    _bits,
    _union,
    incompatible,
    poset_to_strict,
    strict_to_poset,
    validate_poset,
)
from posetspace.topology import PosetSpace


def test_singleton_reflexive_closure():
    p = validate_poset(["a"], [])
    assert p.pairs() == [("a", "a")]


def test_chain_closure(chain2):
    assert set(chain2.pairs()) == {("x", "x"), ("y", "y"), ("x", "y")}


def test_hasse_input_is_closed_transitively():
    p = validate_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")


def test_antisymmetry_violation():
    with pytest.raises(AntisymmetryViolation) as err:
        validate_poset(["p", "q"], [("p", "q"), ("q", "p")])
    assert set(err.value.pair) == {"p", "q"}


def test_antisymmetry_names_the_pair_past_the_bit_table():
    # the second element of the pair is index 9, read from a mask wider than _bits' table
    names = [f"e{i}" for i in range(10)]
    with pytest.raises(AntisymmetryViolation) as err:
        validate_poset(names, [("e1", "e9"), ("e9", "e1")])
    assert err.value.pair == ("e1", "e9")
    assert str(err.value) == "elements 'e1' and 'e9' lie below each other but are distinct"


def _bits_reference(m):
    return [i for i in range(m.bit_length()) if m >> i & 1]


def test_bits_matches_the_bit_scan():
    for m in range(1 << 12):
        assert list(_bits(m)) == _bits_reference(m), m
    rng = random.Random(27)
    for width in range(1, 201):
        for _ in range(5):
            m = rng.getrandbits(width)
            assert list(_bits(m)) == _bits_reference(m), m
    assert _bits(0) == () and _bits(255) == tuple(range(8)) and _bits(256) == [8]


@pytest.mark.parametrize("mask", [-1, -256, -(1 << 200)])
def test_bits_refuses_a_negative_mask_at_the_call(mask):
    with pytest.raises(PosetError) as err:
        _bits(mask)  # the call itself raises, with nothing iterated
    assert (type(err.value), str(err.value)) == (PosetError, f"negative mask {mask}")


def test_union_is_the_or_over_the_set_bits():
    rng = random.Random(32)
    table = [rng.getrandbits(300) for _ in range(300)]
    masks = [0, 1, 255, 256, 257, (1 << 300) - 1] + [rng.getrandbits(width) for width in range(1, 301)]
    assert {m < 256 for m in masks} == {True, False}
    for m in masks:
        assert _union(table, m) == functools.reduce(operator.or_, [table[i] for i in _bits(m)], 0), m
    for mask in (-1, -256, -(1 << 200)):
        with pytest.raises(PosetError) as err:
            _union(table, mask)
        assert str(err.value) == f"negative mask {mask}"


def test_cycle_through_closure_is_caught():
    with pytest.raises(AntisymmetryViolation):
        validate_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_duplicate_and_unknown_elements():
    with pytest.raises(DuplicateElement):
        validate_poset(["a", "a"], [])
    with pytest.raises(UnknownElementInPair):
        validate_poset(["a"], [("a", "z")])
    with pytest.raises(InvalidElementId):
        validate_poset(["a b"], [])


# (build, elements, pairs, error, message): each input breaks several rules; the first
# in precedence is reported, ids and duplicates in element order, then the pairs in
# input order, then what the closure derives
BAD_INPUTS = [
    (validate_poset, ["a", "a b", "a"], [], InvalidElementId,
     "bad element id 'a b': ids are nonempty and whitespace-free"),
    (validate_poset, [1], [], InvalidElementId, "bad element id 1: ids are nonempty and whitespace-free"),
    (validate_poset, ["a", "a", "a b"], [("a", "z")], DuplicateElement, "duplicate element 'a'"),
    (validate_poset, ["a", "b"], [("z", "a"), ("a", "y")], UnknownElementInPair,
     "relation pair ('z', 'a') mentions undeclared element 'z'"),
    (validate_poset, ["a", "b"], [("a", "b"), ("b", "a"), ("a", "z")], UnknownElementInPair,
     "relation pair ('a', 'z') mentions undeclared element 'z'"),
    (validate_poset, ["a", "b", "c"], [("b", "c"), ("c", "a"), ("a", "b")], AntisymmetryViolation,
     "elements 'a' and 'b' lie below each other but are distinct"),
    (strict_to_poset, ["x y", "x y"], [], InvalidElementId,
     "bad element id 'x y': ids are nonempty and whitespace-free"),
    (strict_to_poset, ["p", "p"], [("p", "p")], DuplicateElement, "duplicate element 'p'"),
    (strict_to_poset, ["a"], [("z", "z")], UnknownElementInPair,
     "relation pair ('z', 'z') mentions undeclared element 'z'"),
    (strict_to_poset, ["a", "b"], [("a", "a"), ("a", "z")], IrreflexivityViolation,
     "strict input relates 'a' to itself"),
    (strict_to_poset, ["a", "b"], [("a", "b"), ("b", "a"), ("b", "z")], UnknownElementInPair,
     "relation pair ('b', 'z') mentions undeclared element 'z'"),
    (strict_to_poset, ["a", "b", "c"], [("b", "c"), ("c", "b")], IrreflexivityViolation,
     "transitive closure of the strict input relates 'b' to itself"),
]


@pytest.mark.parametrize("build, elements, pairs, error, message", BAD_INPUTS,
                         ids=[f"{b.__name__}-{i}" for i, (b, *_) in enumerate(BAD_INPUTS)])
def test_bad_input_raises_its_first_error(build, elements, pairs, error, message):
    with pytest.raises(PosetError) as err:
        build(iter(elements), pairs)  # any iterable of elements is read once
    assert (type(err.value), str(err.value)) == (error, message)
    if error is IrreflexivityViolation:
        assert err.value.derived == message.startswith("transitive")


def test_order_axioms_hold_exhaustively():
    # brute-force re-check of all three axioms on every poset with <= 4 elements
    for p in posets_up_to(4):
        names = p.elements
        for a in names:
            assert p.leq(a, a)
        for a, b in itertools.product(names, repeat=2):
            if p.leq(a, b) and p.leq(b, a):
                assert a == b
        for a, b, c in itertools.product(names, repeat=3):
            if p.leq(a, b) and p.leq(b, c):
                assert p.leq(a, c)


def test_incompatible_on_vee(vee):
    assert incompatible(vee, "a", "b") is True
    assert incompatible(vee, "a", "c") is False


def test_incompatible_on_chain(chain2):
    assert incompatible(chain2, "x", "y") is False


def test_incompatible_is_irreflexive_and_symmetric():
    for p in posets_up_to(4):
        for a in p.elements:
            assert incompatible(p, a, a) is False
            for b in p.elements:
                assert incompatible(p, a, b) == incompatible(p, b, a)


def test_incompatible_method_matches_a_scan_for_a_common_lower_bound():
    for p in posets_up_to(4, include_empty=True):
        for a, b in itertools.product(p.elements, repeat=2):
            common = [c for c in p.elements if p.leq(c, a) and p.leq(c, b)]
            assert p.incompatible(a, b) is (not common) is incompatible(p, a, b), (p.pairs(), a, b)


def test_incompatible_unknown_element(vee):
    with pytest.raises(UnknownElement):
        incompatible(vee, "a", "zz")


def test_strict_to_poset_chain(chain2):
    assert strict_to_poset(["x", "y"], [("x", "y")], "chain2") == chain2


def test_strict_empty_gives_antichain(antichain2):
    assert strict_to_poset(["a", "b"], [], "antichain2") == antichain2


def test_strict_reflexive_pair_rejected():
    with pytest.raises(IrreflexivityViolation):
        strict_to_poset(["p"], [("p", "p")])


def test_strict_cycle_rejected_via_closure():
    with pytest.raises(IrreflexivityViolation) as err:
        strict_to_poset(["a", "b"], [("a", "b"), ("b", "a")])
    assert err.value.derived


def test_strict_round_trip_exhaustive():
    # strict orders on <= 4 elements are exactly the strict parts of posets
    for p in posets_up_to(4):
        strict = poset_to_strict(p)
        assert strict_to_poset(p.elements, strict, p.name) == p


def test_round_trip_other_direction(chain2):
    assert poset_to_strict(strict_to_poset(["x", "y"], [("x", "y")])) == [("x", "y")]


def test_filters_coincide_across_conversion():
    # the same sets are filters whether the order is given strictly or not
    from posetspace.filters import enumerate_filters

    for p in posets_up_to(3):
        q = strict_to_poset(p.elements, poset_to_strict(p), p.name)
        assert [f.members for f in enumerate_filters(p, "all")] == [
            f.members for f in enumerate_filters(q, "all")
        ]
        assert [f.members for f in enumerate_filters(p, "maximal")] == [
            f.members for f in enumerate_filters(q, "maximal")
        ]
        assert [f.members for f in enumerate_filters(p, "unbounded")] == [
            f.members for f in enumerate_filters(q, "unbounded")
        ]


def test_minimals_and_greatest(vee, chain2, antichain2):
    assert vee.minimals() == ("a", "b")
    assert vee.greatest() == "c"
    assert chain2.greatest() == "y"
    assert antichain2.greatest() is None


def test_restrict_and_dual(vee):
    sub = vee.restrict(vee.mask_of(["c", "a"]))
    assert sub.elements == ("a", "c") and sub.name == "V|sub"
    assert sub.leq("a", "c")
    assert vee.restrict(0).elements == () and vee.restrict(0b111, "all") == vee
    dual = vee.dual()
    assert dual.leq("c", "a") and not dual.leq("a", "c")
    assert dual.dual() == FinitePoset(vee.elements, [vee.up_mask(i) for i in range(3)], "x")


@pytest.mark.parametrize("mask", [1 << 3, 0b1001, -1, -8])
def test_restrict_refuses_bits_outside_the_elements(vee, mask):
    # a negative mask has bits past every element too; restrict says so before _bits refuses it
    with pytest.raises(PosetError, match=f"^element mask {mask} has bits outside the 3 elements of V$"):
        vee.restrict(mask)


def test_negative_masks_are_refused_at_once(vee):
    # the bits of a negative mask never run out: each reader refuses it instead of walking past its elements
    space = PosetSpace(vee, "mf")
    calls = [lambda: vee.names_of(-1), lambda: space.set_str(-1),
             lambda: FiniteTopSpace.discrete(["x", "y"]).set_str(-1), lambda: bounded(vee, -1)]
    for call in calls:
        with pytest.raises(PosetError, match="^negative mask -1$"):
            call()


def test_labeled_poset_counts():
    assert [len(labeled_posets(n)) for n in range(6)] == [1, 1, 3, 19, 219, 4231]


def _as_rows(posets):
    return [(p.elements, p.up_masks, p.down_masks, p.name) for p in posets]


def test_labeled_posets_match_the_list_of_lists_search():
    assert _as_rows(labeled_posets(0)) == [((), (), (), "empty")]
    for n in range(1, 6):
        assert _as_rows(labeled_posets(n)) == _as_rows(oracles.labeled_posets(n)), n


def test_labeled_posets_on_six_elements():
    # uncached, so the 130,023 posets are freed after the test
    posets = labeled_posets.__wrapped__(6)
    assert len(posets) == 130023
    assert [p.name for p in posets[:2]] == ["P0", "P1"] and posets[-1].name == "P130022"
    for p in posets:
        assert FinitePoset(p.elements, p.up_masks).down_masks == p.down_masks, p.name


def test_catalog_refuses_sizes_it_cannot_hold():
    for n, count in ((7, "6,129,859"), (8, "431,723,379")):
        start = time.perf_counter()
        with pytest.raises(PosetError, match=count):
            labeled_posets(n)
        assert time.perf_counter() - start < 1.0
    for n in (-1, 6, 9):
        start = time.perf_counter()
        with pytest.raises(PosetError, match="sizes run from 0 to 5"):
            all_topologies(n)
        assert time.perf_counter() - start < 1.0
    assert [len(all_topologies(n)) for n in range(4)] == [1, 1, 4, 29]


def test_binary_tree_provider_contract():
    tree = BinaryTreePoset()
    spot_check_generated(tree, budget=2)
    assert tree.leq("010", "01")
    assert not tree.leq("01", "010")
    assert tree.incompatible("00", "01") is True
    assert tree.incompatible("0", "01") is False
    assert tree.refinements("e", 1) == ["0", "1"]


@pytest.mark.parametrize("provider", [
    BinaryTreePoset(),
    formal_ball_poset(RationalMetric(["p0", "p1"], {("p0", "p1"): 1}), max_denom=8, max_radius=2),
], ids=["bintree", "formalballs"])
def test_providers_refuse_a_negative_budget(provider):
    # the provider contract: refinements(a, budget) raises PosetError for budget < 0
    root = provider.roots()[0]
    for budget in (-1, -5):
        with pytest.raises(PosetError) as err:
            provider.refinements(root, budget)
        assert str(err.value) == f"refinement budget must be at least 0, got {budget}"
    assert set(provider.refinements(root, 0)) <= set(provider.refinements(root, 1))


def test_generators_refuse_sizes_they_cannot_name():
    for n in (-1, 9, 12):
        with pytest.raises(PosetError):
            labeled_posets(n)
        with pytest.raises(PosetError):
            random_poset(random.Random(0), n)
    assert labeled_posets(3)[0].elements == ("a", "b", "c")
    assert random_poset(random.Random(0), 8).elements == tuple("abcdefgh")


def test_random_poset_is_the_reference_draw_at_edge_probability_0_4():
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in range(9):
            p = random_poset(rng, n)
            assert p == oracles.random_poset_at(ref, n, 0.4) and p.name == "random", (seed, n)
        assert rng.random() == ref.random()


def test_repr_and_equality_against_another_type(vee):
    assert repr(vee) == "FinitePoset('V', 3 elements)"
    # elements and order masks compare; a tuple of the same fields is another type, left to Python
    assert vee.__eq__((vee.elements, vee.up_masks)) is NotImplemented
    assert vee != (vee.elements, vee.up_masks) and vee != "V"


def test_constructor_needs_one_mask_per_element():
    with pytest.raises(PosetError):
        FinitePoset(("a", "b"), (1,))
    with pytest.raises(PosetError):
        FinitePoset(("a",), (1, 2))
    with pytest.raises(PosetError) as err:
        FinitePoset(("a", "b"), (0b01, 0b10), down_masks=(0b01,))
    assert (type(err.value), str(err.value)) == (PosetError, "2 elements but 1 down-set masks")
    assert len(FinitePoset(("a",), (1,))) == 1


def test_name_lookups_on_a_fresh_poset():
    def fresh():
        return FinitePoset(("a", "b"), (0b11, 0b10))

    assert fresh().index("b") == 1
    assert "a" in fresh() and "z" not in fresh()
    p = fresh()
    with pytest.raises(UnknownElement):
        p.index("z")
    assert p.index("a") == 0 and "b" in p and "z" not in p
    with pytest.raises(UnknownElement):
        p.index("z")
