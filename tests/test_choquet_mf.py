import functools
import random
import time

import pytest

import oracles
from posetspace.catalog import all_topologies
from posetspace.choquet_mf import (
    MAX_CONDITIONS,
    Condition,
    ConditionRequirementViolation,
    ConditionSystem,
    MixedSpaces,
    PreconditionFailed,
    TooManyConditions,
    condition_lt,
    mf_characterization_check,
    refine_conditions,
    refinement_sample,
    validate_condition,
)
from posetspace.constructions import FiniteTopSpace
from posetspace.poset_core import _bits


@pytest.fixture(autouse=True)
def memoized_least_basic(monkeypatch):
    # the oracle stays the literal basis scan; the tuple oracles ask it the same
    # (space, point, open) question many times within one test
    monkeypatch.setattr(oracles, "least_basic", functools.lru_cache(maxsize=None)(oracles.least_basic))


@pytest.fixture
def d2():
    return FiniteTopSpace.discrete(["x", "y"])


@pytest.fixture
def d3():
    return FiniteTopSpace.discrete(["x", "y", "z"])


def test_root_condition_is_valid(d2):
    system = ConditionSystem(d2)
    c = system.validate(d2.whole_mask, [()])
    assert system.final[0] == d2.whole_mask
    assert c.a == d2.whole_mask


def test_missing_prefix_violates_rule_3(d2):
    system = ConditionSystem(d2)
    play = oracles.extend_play(system, (), 0b01, 0)
    with pytest.raises(ConditionRequirementViolation) as err:
        system.validate(0b01, [play])  # the empty play is missing
    assert err.value.requirement == 3


def test_set_outside_final_open_violates_rule_4(d2):
    system = ConditionSystem(d2)
    play = oracles.extend_play(system, (), 0b01, 0)  # final open {x}
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
                any(oracles.extend_play(system, p, c2.a, x) in c1.plays for x in _bits(c2.a))
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
    c = validate_condition(d2, d2.whole_mask, [()])
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
    # 12 points at depth 2: 12 * 2^11 one-round plays, each giving a
    # condition of its own, so numbering stops once it passes
    # MAX_CONDITIONS plays, long before the play tree is built
    space = FiniteTopSpace.discrete([f"x{i}" for i in range(12)])
    start = time.perf_counter()
    with pytest.raises(TooManyConditions) as err:
        mf_characterization_check(space, 2)
    assert time.perf_counter() - start < 2
    assert err.value.count > MAX_CONDITIONS


def discrete(n):
    return FiniteTopSpace.discrete([f"x{i}" for i in range(n)])


def agree_with_tuple_oracles(system, depth, pairs=True):
    """Validation, sort keys and, with ``pairs``, order and refinements at ``depth`` match the oracles."""
    conditions = system.enumerate_conditions(depth)
    oracle_keys = []
    for c in conditions:
        assert oracles.validate_condition(system, c.a, c.plays) == (c.a, c.plays)
        assert system.validate(c.a, c.plays) == c
        oracle_keys.append((tuple(_bits(c.a)), len(c.plays), tuple(sorted(map(oracles.play_key, c.plays)))))
    # the key is the tuple plays' key, whatever order the plays were numbered in
    assert [c.key() for c in conditions] == oracle_keys
    for c1 in conditions if pairs else ():
        for c2 in conditions:
            assert system.lt(c1, c2) == oracles.condition_lt(system, c1, c2)
            for x in _bits(c1.a & c2.a):
                r = system.refine(c1, c2, x)
                assert (r.a, r.plays) == oracles.refine_conditions(system, c1, c2, x)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_masks_agree_with_tuple_oracles(n, depth):
    agree_with_tuple_oracles(ConditionSystem(discrete(n)), depth)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1])
def test_masks_agree_with_tuple_oracles_on_every_small_topology(n, depth):
    # every open is basic, so II's answer U_x need not be a singleton or the whole space.
    # On 3 points at depth 1 (265 conditions on some spaces) the pairwise order and
    # refinement oracles take tens of seconds, so there only validation and keys are compared
    for t in all_topologies(n):
        agree_with_tuple_oracles(ConditionSystem(FiniteTopSpace(t.points, t.opens)), depth, n < 3 or depth == 0)


@pytest.mark.parametrize("all_opens", [False, True])
def test_least_basic_answer_is_the_minimal_open(all_opens):
    # U_x is a basis member inside every open around x, so the literal scan finds it
    for n in range(5):
        for t in all_topologies(n):
            space = FiniteTopSpace(t.points, t.opens) if all_opens else t
            for x in range(n):
                for v in space.opens:
                    if v >> x & 1:
                        assert oracles.least_basic(space, x, v) == space.up[x]


def test_key_follows_play_keys_after_a_refinement(d2):
    # refine numbers a round-2 play before enumerate(2) numbers that round
    # whole, so the play indices no longer follow the play keys
    system = ConditionSystem(d2)
    system.enumerate_conditions(1)
    root = system.validate(0b01, [()])
    late = system.validate(0b01, [(), ((d2.whole_mask, 0, 0b01),)])  # not the first round-1 play
    system.refine(root, late, 0)  # numbers late's play extended: not the first round-2 play
    conditions = system.enumerate_conditions(2)
    want = [(tuple(_bits(c.a)), len(c.plays), tuple(sorted(map(oracles.play_key, c.plays)))) for c in conditions]
    assert [c.key() for c in conditions] == want


def test_empty_space_numbers_no_round():
    # no play to extend: numbering stops after the first empty round
    empty = FiniteTopSpace([], [0], "empty")
    start = time.perf_counter()
    assert ConditionSystem(empty).count_conditions(10**9) == 0
    assert mf_characterization_check(empty, 10**9).condition_count == 0
    assert time.perf_counter() - start < 1


def test_conditions_from_separate_systems_compare_by_plays(d3):
    # both conditions hold one proper play, numbered 1 in its own system
    one, two = [oracles.extend_play(ConditionSystem(d3), (), d3.whole_mask, x) for x in (0, 1)]
    cx = validate_condition(d3, 0b001, [(), one])
    cy = validate_condition(d3, 0b001, [(), ((0b011, 0, 0b001),)])
    assert cx.mask == cy.mask and cx != cy
    system = ConditionSystem(d3)
    system.validate(0b001, [(), ((0b011, 0, 0b001),)])
    again = system.validate(0b001, [(), one])  # the same plays, numbered 0 and 2 here
    assert again.mask != cx.mask and again == cx and hash(again) == hash(cx) and len({cx, cy, again}) == 2
    assert validate_condition(d3, 0b010, [(), two]) != cx


@pytest.mark.parametrize("n", [1, 2, 3])
def test_condition_poset_is_the_pairwise_order(n):
    report = mf_characterization_check(discrete(n), 2)
    system = report.conditions[0].system
    for i, c1 in enumerate(report.conditions):
        want = sum(1 << j for j, c2 in enumerate(report.conditions) if i == j or system.lt(c1, c2))
        assert report.poset.up_mask(i) == want


def test_validate_texts_match_tuple_oracle(d3):
    system = ConditionSystem(d3)
    whole = d3.whole_mask
    one = oracles.extend_play(system, (), whole, 1)  # final open {y}
    two = oracles.extend_play(system, one, 0b010, 1)
    three = oracles.extend_play(system, two, 0b010, 1)
    candidates = [
        (whole, [()]), (0b011, [()]), (0b010, [(), one, two]), (0b010, [(), two]), (0b010, [(), three]),
        (0b010, [one]), (whole, [(), one]), (0b010, [(), ((0b110, 1, 0b010),)]),
        (0b010, [(), ((0, 1, 0b010),)]), (0b010, [(), ((0b1000, 3, 0b1000),)]),
        (0b010, [(), one, one + ((0b110, 1, 0b010),)]), (0b010, [(), ((0b011, 2, 0b010),)]),
        (0b010, [(), ((0b010, 1, 0b110),)]), (0b010, [(), ((0b101, 1, 0b001),)]),
    ]
    for a, plays in candidates:
        try:
            want = oracles.validate_condition(system, a, plays)
        except ConditionRequirementViolation as err:
            want = str(err)
        try:
            c = system.validate(a, plays)
            got = (c.a, c.plays)
        except ConditionRequirementViolation as err:
            got = str(err)
        assert got == want, (a, plays)


def test_refinement_sample_is_distinct_and_in_pool(d3):
    conditions = sorted(ConditionSystem(d3).enumerate_conditions(1), key=Condition.key)
    pool = oracles.refinement_pool(conditions)
    for seed in range(5):
        triples = refinement_sample(conditions, 60, random.Random(seed))
        assert len(set(triples)) == 60 and set(triples) <= set(pool)
    # asking for the whole pool, or more, draws every triple once
    assert sorted(refinement_sample(conditions, len(pool) + 5, random.Random(0))) == pool


@pytest.mark.parametrize("n, depth", [(2, 2), (3, 1)])
def test_refinement_sample_matches_the_linear_scan(n, depth):
    # the library bisects prefix sums; the oracle scans rows and columns, with the same draws
    conditions = sorted(ConditionSystem(discrete(n)).enumerate_conditions(depth), key=Condition.key)
    pool = len(oracles.refinement_pool(conditions))
    for seed in range(10):
        for k in (1, 40, 400, pool + 3):
            want = oracles.refinement_sample(conditions, k, random.Random(seed))
            assert refinement_sample(conditions, k, random.Random(seed)) == want, (seed, k)


def test_refinement_sample_of_no_conditions_is_empty():
    assert refinement_sample([], 40, random.Random(0)) == []


def test_lt_tests_every_given_condition(d3):
    conditions = sorted(ConditionSystem(d3).enumerate_conditions(1), key=Condition.key)
    system = conditions[0].system
    for c in conditions:
        below = [d for d in conditions if system.lt(c, d)]
        assert system.lt(c, *below) and system.lt(c)
        assert not any(system.lt(c, *below, d) for d in conditions if d not in below)


def test_shallow_depth_breaks_membership_equivalence(d2):
    # depth 0: the three root conditions are pairwise incomparable, and the
    # filter of the whole space keeps both points, so no filter sent to x
    # holds the root condition on {x, y} although its set holds x
    report = mf_characterization_check(d2, 0)
    assert report.depth_too_small == (1,) and not report.membership_equivalence
    assert report.failure == "some maximal filter keeps more than one point"


def test_four_points_at_depth_one():
    report = mf_characterization_check(discrete(4), 1)
    assert (report.condition_count, report.filter_count) == (1025, 1020)
    assert report.bijection and report.refinements_ok


def test_deep_chains_count_without_recursion():
    # one point: the plays form one forced chain, and the conditions at
    # depth d are its d + 1 initial segments
    system = ConditionSystem(discrete(1))
    assert system.count_conditions(1500) == 1501
    with pytest.raises(TooManyConditions) as err:
        system.enumerate_conditions(MAX_CONDITIONS)
    assert err.value.count == MAX_CONDITIONS + 1
    assert "gives at least 2001 conditions" in str(err.value)
