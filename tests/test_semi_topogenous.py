import pytest
from hypothesis import given, settings, strategies as st

import oracles
from posetspace.catalog import all_topologies, posets_up_to
from posetspace.constructions import FiniteTopSpace
from posetspace.poset_core import PosetError, validate_poset
from posetspace.semi_topogenous import (
    FULL_POWERSET_CAP,
    ConditionFailed,
    HypothesisFailed,
    SubsetOrder,
    check_axioms_and_generation,
    check_order_condition,
    completeness_check,
    interval_order,
    mf_poset_from_order,
    order_from_poset,
)
from posetspace.topology import PosetSpace


def condition_one_corpus():
    """Posets satisfying the refinement condition, reflexive instances included."""
    vee = validate_poset(["a", "b", "c"], [("a", "c"), ("b", "c")], "V")
    anti3 = validate_poset(["a", "b", "c"], [], "antichain3")
    # two bottoms under two tops: basic opens strictly grow along the order
    emm = validate_poset(
        ["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")], "M"
    )
    return [vee, anti3, emm]


def test_interval_order_sierpinski():
    space = FiniteTopSpace.sierpinski()
    order = interval_order(space)
    assert order.holds(0b01, 0b11)  # the open {x} sits between
    assert not order.holds(0b10, 0b10)  # {y} is not open
    rep = check_axioms_and_generation(order)
    assert rep.axioms_ok and rep.generates


def test_interval_order_discrete_is_subset_relation():
    space = FiniteTopSpace.discrete(["x", "y"])
    order = interval_order(space)
    for v in range(4):
        for w in range(4):
            assert order.holds(v, w) == (not v & ~w)


def test_missing_empty_pair_fails_axioms():
    space = FiniteTopSpace.discrete(["x", "y"])
    order = interval_order(space)
    broken = SubsetOrder.from_pairs(space, frozenset(p for p in order.rel if p != (0, 0)))
    rep = check_axioms_and_generation(broken)
    assert not rep.axioms_ok


def test_interval_order_all_small_topologies():
    for n in range(1, 4):  # the acceptance suite raises this to 4
        for space in all_topologies(n):
            rep = check_axioms_and_generation(interval_order(space))
            assert rep.axioms_ok and rep.generates, space.name


def test_interval_order_matches_literal_on_all_small_topologies():
    # the library relates v to w when up(v) sits inside w; the literal
    # definition asks for an open between them
    spaces = 0
    for n in range(1, 5):
        sets = [oracles.point_set(m) for m in range(1 << n)]
        for space in all_topologies(n):
            _, opens = oracles.basis_topology(n, space.basis)
            literal = {(v, w) for v in range(1 << n) for w in range(1 << n)
                       if any(sets[v] <= o <= sets[w] for o in opens)}
            assert interval_order(space).rel == literal, space.name
            spaces += 1
    assert spaces == 389


def test_completeness_matches_every_family_of_subsets():
    # the library walks the cores and uses the theorem that every order on
    # a finite space is complete; the oracle walks every family of subsets
    orders = [interval_order(space) for n in range(4) for space in all_topologies(n)]
    orders += [order_from_poset(p).order for p in condition_one_corpus()
               if len(PosetSpace(p, "mf").points) <= 3]
    orders.append(SubsetOrder.from_pairs(orders[-1].space, frozenset()))
    for order in orders:
        rep = completeness_check(order.space, order)
        assert (rep.complete, rep.meeting_filters) == oracles.completeness(len(order.space), order.holds)


def test_completeness_discrete():
    space = FiniteTopSpace.discrete(["x", "y"])
    rep = completeness_check(space, interval_order(space))
    assert rep.complete
    assert rep.meeting_filters == 3  # one per nonempty core


def test_principal_filter_always_meets():
    space = FiniteTopSpace.discrete(["x", "y", "z"])
    order = interval_order(space)
    rep = completeness_check(space, order)
    assert rep.complete and rep.meeting_filters >= len(space.points)


def test_mf_poset_from_order_discrete_two_points():
    space = FiniteTopSpace.discrete(["x", "y"])
    result = mf_poset_from_order(space, interval_order(space))
    assert len(result.poset) == 3
    assert result.bijective and result.membership_equivalence
    assert result.maximal_filters_meet
    assert len(result.space.points) == 2
    assert result.poset.elements == ("{x}", "{y}", "{x,y}")
    assert result.point_filters == {0: 0b101, 1: 0b110}  # the opens holding x, and those holding y


def test_mf_poset_from_order_one_point():
    space = FiniteTopSpace.discrete(["x"])
    result = mf_poset_from_order(space, interval_order(space))
    assert len(result.poset) == 1
    assert result.bijective


def test_mf_poset_from_order_rejects_non_t1():
    space = FiniteTopSpace.sierpinski()
    with pytest.raises(HypothesisFailed) as err:
        mf_poset_from_order(space, interval_order(space))
    assert err.value.hypothesis == "T1"


def test_mf_poset_from_order_rejects_an_order_failing_the_axioms():
    space = FiniteTopSpace.discrete(["x", "y"])
    with pytest.raises(HypothesisFailed) as err:
        mf_poset_from_order(space, SubsetOrder.from_pairs(space, frozenset()))
    assert err.value.hypothesis == "axioms"
    assert str(err.value) == ("hypothesis failed: axioms (the empty set is not related to itself; "
                              "the whole space is not related to itself)")


def test_mf_poset_from_order_rejects_an_order_that_does_not_generate():
    # the empty set below everything and everything below the whole space: the axioms
    # hold, but no nonempty set is related below a proper subset, so {x} is not generated
    space = FiniteTopSpace.discrete(["x", "y"])
    order = SubsetOrder.from_pairs(space, frozenset({(0, w) for w in range(4)} | {(v, 0b11) for v in range(4)}))
    assert check_axioms_and_generation(order).axioms_ok
    with pytest.raises(HypothesisFailed) as err:
        mf_poset_from_order(space, order)
    assert err.value.hypothesis == "generation"
    assert str(err.value) == "hypothesis failed: generation (the order does not generate the topology)"


def test_condition_scan_on_vee(vee):
    witnesses, only_reflexive = check_order_condition(vee)
    assert witnesses == []
    assert not only_reflexive


def test_order_from_poset_corpus():
    for p in condition_one_corpus():
        result = order_from_poset(p)
        assert result.axioms.axioms_ok, p.name
        assert result.axioms.generates, p.name
        assert result.completeness.complete, p.name
        assert result.ok


def reports(order):
    """The axiom, generation and completeness reports and the serialization of an order."""
    axioms = check_axioms_and_generation(order)
    completeness = completeness_check(order.space, order)
    return ((axioms.axioms_ok, axioms.generates, axioms.violations),
            (completeness.complete, completeness.meeting_filters), order.serialize())


def pair_reports(order):
    """``reports`` computed from the frozenset of pairs."""
    return (oracles.order_axioms(order), oracles.order_completeness(order.space, order),
            oracles.serialize_order(order))


def broken(order):
    """The order with each axiom broken in turn: a pair dropped or added at both ends."""
    whole, pairs = order.space.whole_mask, sorted(order.rel)
    yield SubsetOrder.from_pairs(order.space, order.rel - {(0, 0)})
    yield SubsetOrder.from_pairs(order.space, order.rel - {(whole, whole)})
    yield SubsetOrder.from_pairs(order.space, order.rel - {pairs[len(pairs) // 2]})
    yield SubsetOrder.from_pairs(order.space, order.rel | {(whole, 0)})
    yield SubsetOrder.from_pairs(order.space, order.rel | {(0, whole), (whole, whole)} - {(whole, 0)})
    yield SubsetOrder.from_pairs(order.space, frozenset())


def test_rows_and_pairs_round_trip():
    # every order the library builds on at most 3 points, and each of its mutants
    orders = [interval_order(space) for n in range(4) for space in all_topologies(n)]
    orders += [order_from_poset(p).order for p in posets_up_to(4, include_empty=True)
               if not check_order_condition(p)[0] and len(PosetSpace(p, "mf")) <= 3]
    orders += [o for order in list(orders) for o in broken(order)]
    assert len(orders) == 7 * (1 + 1 + 4 + 29 + 29)  # 35 topologies, 29 posets
    for o in orders:
        size = 1 << len(o.space)
        assert len(o.rows) == size and SubsetOrder.from_pairs(o.space, o.rel) == o, sorted(o.rel)
        assert all(o.holds(v, w) == ((v, w) in o.rel) for v in range(size) for w in range(size)), sorted(o.rel)


def test_row_masks_match_the_pair_oracles_on_every_small_topology():
    spaces = 0
    for n in range(5):
        for space in all_topologies(n):
            order = interval_order(space)
            for o in (order, *broken(order)):
                assert reports(o) == pair_reports(o), (space.name, sorted(o.rel))
            spaces += 1
    assert spaces == 1 + 389


def test_row_masks_match_the_pair_oracles_on_broken_orders():
    space = FiniteTopSpace.discrete(["x", "y"])
    order = interval_order(space)
    orders = [SubsetOrder.from_pairs(space, frozenset(p for p in order.rel if p != (0, 0))),
              SubsetOrder.from_pairs(space, order.rel | {(0b01, 0b10), (0b11, 0b01)}),
              SubsetOrder.from_pairs(space, frozenset((v, w) for v in range(4) for w in range(4)))]
    orders += [o for p in condition_one_corpus() if len(PosetSpace(p, "mf").points) <= 3
               for o in broken(order_from_poset(p).order)]
    for o in orders:
        assert reports(o) == pair_reports(o), sorted(o.rel)
    assert {len(check_axioms_and_generation(o).violations) for o in orders} >= {1, 2, 3}


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.integers(0, len(all_topologies(n)) - 1).map(lambda k: all_topologies(n)[k]),
    st.frozensets(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)), max_size=40))))
def test_row_masks_match_the_pair_oracles_on_drawn_relations(drawn):
    space, rel = drawn
    order = SubsetOrder.from_pairs(space, rel)
    assert reports(order) == pair_reports(order)
    grown = SubsetOrder.from_pairs(space, rel | interval_order(space).rel)
    assert reports(grown) == pair_reports(grown)


@pytest.mark.parametrize("pair", [(0, 4), (4, 4), (-1, 3), (3, -1)])
def test_pairs_outside_the_space_are_refused(pair):
    # a row mask per subset has no row for a set outside the space: the order is refused when built
    space = FiniteTopSpace.discrete(["x", "y"])
    with pytest.raises(PosetError) as err:
        SubsetOrder.from_pairs(space, interval_order(space).rel | {pair})
    assert str(err.value) == f"related pair {pair} is not a pair of sets of discrete"


def test_meet_test_matches_the_pair_oracle():
    orders = [interval_order(FiniteTopSpace.discrete([f"x{i}" for i in range(n)])) for n in range(1, 5)]
    orders += [order_from_poset(p).order for p in condition_one_corpus()]
    for order in orders:
        result = mf_poset_from_order(order.space, order)
        opens = list(result.open_of.values())
        assert result.maximal_filters_meet == oracles.filters_meet_order(order, opens, result.space)
        assert result.maximal_filters_meet


def test_order_from_poset_opens_match_oracle():
    # MF(P) is discrete, so its opens are every set of points; the oracle
    # takes the unions of basic opens over every element subset instead
    checked = 0
    for p in posets_up_to(5, include_empty=True):
        if check_order_condition(p)[0]:
            continue
        mf = PosetSpace(p, "mf")
        if len(mf.points) > FULL_POWERSET_CAP:
            with pytest.raises(PosetError):
                order_from_poset(p)
            continue
        result = order_from_poset(p)
        assert result.order.rel == oracles.order_rel_from_poset(p), p.pairs()
        # point F{i} of the order's space is the i-th point of MF(P), up(g) for its generator g
        opens = {frozenset(mf.points[i].generator for i in oracles.point_set(o)) for o in result.space.opens}
        assert opens == oracles.filter_space_opens(mf), p.pairs()
        checked += 1
    assert checked > 300


def test_order_from_poset_four_minimals_under_twenty_tops():
    # 24 elements: a walk over every element subset would take 2^24 steps
    bottoms = [f"m{i}" for i in range(4)]
    tops = [f"t{j}" for j in range(20)]
    p = validate_poset(bottoms + tops, [(m, t) for m in bottoms for t in tops], "M4x20")
    result = order_from_poset(p)
    assert result.ok
    assert len(result.space.points) == 4
    assert len(result.space.opens) == 2 ** 4


def test_order_from_poset_rejects_chain(chain2):
    # the basic opens of the two elements coincide, so the condition fails
    # exactly on the reflexive instances
    with pytest.raises(ConditionFailed) as err:
        order_from_poset(chain2)
    assert err.value.only_reflexive
    assert err.value.witness == ("x", "y", "x")


def test_round_trip_discrete():
    for names in (["x", "y"], ["x", "y", "z"]):
        space = FiniteTopSpace.discrete(names)
        built = mf_poset_from_order(space, interval_order(space))
        assert built.bijective
        back = order_from_poset(built.poset)
        assert back.ok
        assert len(back.space.points) == len(names)


def test_meets_of_maximal_filters(vee):
    # in the construction from a poset, every maximal filter's open family
    # meets the order: witnessed through the completeness check passing with
    # at least one meeting filter per point
    result = order_from_poset(vee)
    assert result.completeness.meeting_filters >= 2


def test_serialization_roundtrippable_format():
    space = FiniteTopSpace.discrete(["x", "y"])
    lines = interval_order(space).serialize()
    assert "rel {} {}" in lines
    assert all(line.startswith("rel ") for line in lines)


def test_a_space_over_the_cap_is_refused():
    space = FiniteTopSpace.discrete([f"x{i}" for i in range(FULL_POWERSET_CAP + 1)])
    message = f"spaces over {FULL_POWERSET_CAP} points are too large: the checks walk every subset"
    order = SubsetOrder(space, ())  # trusted: each check refuses the space, not the rows
    for check in (lambda: interval_order(space), lambda: check_axioms_and_generation(order),
                  lambda: completeness_check(space, order), lambda: SubsetOrder.from_pairs(space, ()),
                  order.serialize):
        with pytest.raises(PosetError) as err:
            check()
        assert (type(err.value), str(err.value)) == (PosetError, message)
