import time

import pytest

from posetspace.choquet_mf import (
    MAX_CONDITIONS,
    ConditionRequirementViolation,
    ConditionSystem,
    MixedSpaces,
    PreconditionFailed,
    TooManyConditions,
    condition_lt,
    mf_characterization_check,
    refine_conditions,
    validate_condition,
)
from posetspace.constructions import FiniteTopSpace
from posetspace.poset_core import _bits


@pytest.fixture
def d2():
    return FiniteTopSpace.discrete(["x", "y"])


@pytest.fixture
def d3():
    return FiniteTopSpace.discrete(["x", "y", "z"])


def test_root_condition_is_valid(d2):
    system = ConditionSystem(d2)
    c = system.validate(d2.whole_mask, [()])
    assert system.final_open(()) == d2.whole_mask
    assert c.a == d2.whole_mask


def test_missing_prefix_violates_rule_3(d2):
    system = ConditionSystem(d2)
    play = system.extend_play((), 0b01, 0)
    with pytest.raises(ConditionRequirementViolation) as err:
        system.validate(0b01, [play])  # the empty play is missing
    assert err.value.requirement == 3


def test_set_outside_final_open_violates_rule_4(d2):
    system = ConditionSystem(d2)
    play = system.extend_play((), 0b01, 0)  # final open {x}
    with pytest.raises(ConditionRequirementViolation) as err:
        system.validate(0b11, [(), play])
    assert err.value.requirement == 4


def test_bad_designated_set_violates_rule_1(d2):
    system = ConditionSystem(d2)
    with pytest.raises(ConditionRequirementViolation) as err:
        system.validate(0, [()])
    assert err.value.requirement == 1


def test_off_strategy_play_violates_rule_2(d2):
    system = ConditionSystem(d2)
    bad_play = ((d2.whole_mask, 0, d2.whole_mask),)  # strategy answers {x}, not the whole space
    with pytest.raises(ConditionRequirementViolation) as err:
        system.validate(d2.whole_mask, [(), bad_play])
    assert err.value.requirement == 2


def test_condition_not_below_itself(d2):
    system = ConditionSystem(d2)
    c = system.validate(d2.whole_mask, [()])
    assert not system.lt(c, c)


def test_mixed_spaces_rejected(d2, d3):
    c1 = ConditionSystem(d2).validate(d2.whole_mask, [()])
    c2 = ConditionSystem(d3).validate(d3.whole_mask, [()])
    with pytest.raises(MixedSpaces):
        condition_lt(c1, c2)


def test_refinement_of_roots(d3):
    system = ConditionSystem(d3)
    c1 = system.validate(0b001, [()])
    c2 = system.validate(0b111, [()])
    c = refine_conditions(c1, c2, 0)
    assert condition_lt(c, c1) and condition_lt(c, c2)
    assert c.a & 0b001


def test_self_refinement_is_strictly_below(d3):
    system = ConditionSystem(d3)
    root = system.validate(d3.whole_mask, [()])
    c = refine_conditions(root, root, 1)
    assert condition_lt(c, root)
    assert not condition_lt(root, c)


def test_refinement_requires_shared_point(d3):
    system = ConditionSystem(d3)
    c1 = system.validate(0b001, [()])
    c2 = system.validate(0b010, [()])
    with pytest.raises(PreconditionFailed):
        refine_conditions(c1, c2, 0)


def test_disjoint_sets_are_never_related(d3):
    system = ConditionSystem(d3)
    c1 = system.validate(0b001, [()])
    c2 = system.validate(0b010, [()])
    assert not condition_lt(c1, c2) and not condition_lt(c2, c1)


def test_rule_6_follows_from_rule_5(d3):
    # on every enumerated pair, being strictly below forces nested sets
    system = ConditionSystem(d3)
    conditions = system.enumerate_conditions(1)
    for c1 in conditions:
        for c2 in conditions:
            if c1 is c2:
                continue
            below_without_nesting = all(
                any(system.extend_play(p, c2.a, x) in c1.plays for x in _bits(c2.a))
                for p in c2.plays
            )
            if below_without_nesting:
                assert not c1.a & ~c2.a


def test_order_is_irreflexive_and_transitive(d2):
    system = ConditionSystem(d2)
    conditions = system.enumerate_conditions(2)
    below = {}
    for i, c1 in enumerate(conditions):
        for j, c2 in enumerate(conditions):
            if i != j and system.lt(c1, c2):
                below[(i, j)] = True
    for i in range(len(conditions)):
        assert (i, i) not in below
    for (i, j) in below:
        for k in range(len(conditions)):
            if (j, k) in below:
                assert (i, k) in below


def test_characterization_one_point():
    report = mf_characterization_check(FiniteTopSpace.discrete(["x"]), 2)
    assert report.bijection
    assert report.filter_count == 1
    assert not report.depth_too_small


def test_characterization_two_points(d2):
    report = mf_characterization_check(d2, 2)
    assert report.bijection
    assert report.condition_count == 19
    assert report.refinements_ok
    assert set(report.phi.values()) == {0, 1}


def test_characterization_three_points(d3):
    report = mf_characterization_check(d3, 2)
    assert report.bijection
    assert report.refinements_ok
    assert not report.depth_too_small
    assert set(report.phi.values()) == {0, 1, 2}


def test_characterization_requires_t1():
    with pytest.raises(PreconditionFailed):
        mf_characterization_check(FiniteTopSpace.sierpinski(), 2)


def test_validate_condition_module_level(d2):
    c = validate_condition(d2, None, d2.whole_mask, [()])
    assert c.a == d2.whole_mask


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_condition_count_matches_enumeration(n, depth):
    system = ConditionSystem(FiniteTopSpace.discrete([f"x{i}" for i in range(n)]))
    assert system.count_conditions(depth) == len(system.enumerate_conditions(depth))


def test_condition_cap_refuses_five_points_quickly():
    # 5 points with the whole space in the basis: 5 * 2^16 + 1 conditions at depth 1
    space = FiniteTopSpace.discrete([f"x{i}" for i in range(5)])
    start = time.perf_counter()
    with pytest.raises(TooManyConditions) as err:
        mf_characterization_check(space, 1)
    assert time.perf_counter() - start < 1
    assert err.value.count == 327_681 > MAX_CONDITIONS
    assert "327681 conditions" in str(err.value)
    # 12 points at depth 2: 12 * 2^11 one-round plays, each ending in a
    # singleton; player I's next moves are listed once per distinct final
    # open, not by a scan of all 2^12 opens per play
    space = FiniteTopSpace.discrete([f"x{i}" for i in range(12)])
    start = time.perf_counter()
    with pytest.raises(TooManyConditions) as err:
        mf_characterization_check(space, 2)
    assert time.perf_counter() - start < 2
    assert err.value.count > MAX_CONDITIONS
