import functools
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracles
from posetspace import choquet_mf
from posetspace.catalog import all_topologies
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
    refinement_sample,
    validate_condition,
)
from posetspace.constructions import FiniteTopSpace
from posetspace.files import parse_input_file
from posetspace.poset_core import _bits

FIXTURES = Path(__file__).resolve().parent.parent / "bench" / "fixtures"


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
    assert system.step[0][2] == d2.whole_mask  # the empty play's final open
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


def test_a_move_that_is_not_a_triple_violates_rule_2(d2):
    # the sort by play key reads every play first: it must not refuse the move itself
    with pytest.raises(ConditionRequirementViolation) as err:
        ConditionSystem(d2).validate(d2.whole_mask, [(), ((d2.whole_mask, 0),)])
    assert str(err.value) == "requirement 2 violated: move 0 is not an (open, point, answer) triple"


@pytest.mark.parametrize("move", [("x", 0, 1), (3, "a", 1), (3, 0, None), (-1, 0, 1), (3, -1, 1), (3, 0, -2)])
def test_a_move_that_is_not_three_ints_violates_rule_2(move):
    # neither the sort by play key nor a mask operation may refuse the move first
    space = FiniteTopSpace({"a": 0, "b": 1}, [1, 2, 3], "d2")
    with pytest.raises(ConditionRequirementViolation) as err:
        validate_condition(space, 3, [(), (move,)])
    assert str(err.value) == "requirement 2 violated: move 0 is not an (open, point, answer) triple"
    assert err.value.requirement == 2


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
    with pytest.raises(MixedSpaces) as err:
        condition_lt(c1, c2)
    assert str(err.value) == "conditions live over different spaces or strategies"
    with pytest.raises(MixedSpaces) as err:
        refine_conditions(c1, c2, 0)  # point 0 lies in both designated sets
    assert str(err.value) == "conditions live over different spaces or strategies"


def test_conditions_print_their_set_and_plays_and_compare_only_to_conditions(d3):
    system = ConditionSystem(d3)
    root = system.validate(d3.whole_mask, [()])
    c = refine_conditions(root, root, 1)  # I plays the whole space at y, II answers {y}
    assert (str(root), str(c)) == ("<{x, y, z}; 0 proper plays>", "<{y}; 1 proper plays>")
    # another type is left to Python, which falls back to identity: unequal, never an error
    assert root.__eq__((root.a, root.mask)) is NotImplemented
    assert root != (root.a, root.mask) and root != "root"


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
def test_condition_count_matches_enumeration(n, depth, monkeypatch):
    # the count a refusal reports is the number of conditions: a cap of that many enumerates
    # them all, and a cap one lower refuses with that number
    space = FiniteTopSpace.discrete([f"x{i}" for i in range(n)])
    conditions = ConditionSystem(space).enumerate_conditions(depth)
    monkeypatch.setattr(choquet_mf, "MAX_CONDITIONS", len(conditions))
    assert ConditionSystem(space).enumerate_conditions(depth) == conditions
    monkeypatch.setattr(choquet_mf, "MAX_CONDITIONS", len(conditions) - 1)
    with pytest.raises(TooManyConditions) as err:
        ConditionSystem(space).enumerate_conditions(depth)
    assert err.value.count == len(conditions)


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


def agree_with_tuple_oracles(system, depth, refinements=True):
    """Validation, the order and, with ``refinements``, refinements at ``depth`` match the oracles."""
    conditions = system.enumerate_conditions(depth)
    for c in conditions:
        assert oracles.validate_condition(system, c.a, c.plays) == (c.a, c.plays)
        assert system.validate(c.a, c.plays) == c
    # the pair oracles read only a and plays, and Condition.plays decodes its mask on
    # every read: decode each condition once, not once per pair
    decoded = [SimpleNamespace(a=c.a, plays=c.plays) for c in conditions]
    for c1, d1 in zip(conditions, decoded):
        for c2, d2 in zip(conditions, decoded):
            assert system.lt(c1, c2) == oracles.condition_lt(system, d1, d2)
            for x in _bits(c1.a & c2.a) if refinements else ():
                r = system.refine(c1, c2, x)
                assert (r.a, r.plays) == oracles.refine_conditions(system, d1, d2, x)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_masks_agree_with_tuple_oracles(n, depth):
    agree_with_tuple_oracles(ConditionSystem(discrete(n)), depth)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1])
def test_masks_agree_with_tuple_oracles_on_every_small_topology(n, depth):
    # every open is basic, so II's answer U_x need not be a singleton or the whole space.
    # On 3 points at depth 1 (265 conditions on some spaces) the refinement oracle takes
    # tens of seconds, so there the order is compared pairwise but refinements are not
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
    # refine numbers a round-2 play before enumerate(2) numbers that round whole, so
    # the play indices no longer follow the play keys; the literal key that the check's
    # order is compared with reads the plays' keys, whatever their numbering
    system = oracles.BitLoopConditionSystem(d2)
    system.enumerate_conditions(1)
    root = system.validate(0b01, [()])
    late = system.validate(0b01, [(), ((d2.whole_mask, 0, 0b01),)])  # not the first round-1 play
    system.refine(root, late, 0)  # numbers late's play extended: not the first round-2 play
    conditions = system.enumerate_conditions(2)
    want = [(tuple(_bits(c.a)), len(c.plays), tuple(sorted(map(oracles.play_key, c.plays)))) for c in conditions]
    assert [oracles.condition_key(c) for c in conditions] == want
    keys = [oracles.play_key(system.play(i)) for i in range(len(system.step))]
    assert keys != sorted(keys)
    # the check numbers a fresh system a round at a time, and there the indices follow the keys
    fresh = ConditionSystem(d2)
    fresh.enumerate_conditions(2)
    keys = [oracles.play_key(fresh.play(i)) for i in range(len(fresh.step))]
    assert keys == sorted(keys)


def test_empty_space_numbers_no_round():
    # no play to extend: numbering stops after the first empty round
    empty = FiniteTopSpace([], [0], "empty")
    start = time.perf_counter()
    assert ConditionSystem(empty).enumerate_conditions(10**9) == []
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


@pytest.mark.parametrize("n, depth", [(1, 30), (2, 4), (3, 1)])
def test_up_masks_do_not_depend_on_the_list_order(n, depth):
    # rows are built fewest plays first whatever the order of the list, and the down masks
    # are their transpose
    conditions = ConditionSystem(discrete(n)).enumerate_conditions(depth)
    random.Random(n).shuffle(conditions)
    system = conditions[0].system
    up, down = system.up_masks(conditions)
    for i, c1 in enumerate(conditions):
        assert up[i] == sum(1 << j for j, c2 in enumerate(conditions) if i == j or system.lt(c1, c2))
        assert down[i] == sum(1 << j for j in range(len(conditions)) if up[j] >> i & 1)


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
        (0b010, [(), ((0b010, 1),)]), (0b010, [(), one, one + ((0b010,),)]),
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
    conditions = mf_characterization_check(d3, 1).conditions
    pool = oracles.refinement_pool(conditions)
    for seed in range(5):
        triples = refinement_sample(conditions, 60, random.Random(seed))
        assert len(set(triples)) == 60 and set(triples) <= set(pool)
    # asking for the whole pool, or more, draws every triple once
    assert sorted(refinement_sample(conditions, len(pool) + 5, random.Random(0))) == pool


@pytest.mark.parametrize("n, depth", [(2, 2), (3, 1)])
def test_refinement_sample_matches_the_linear_scan(n, depth):
    # the library bisects prefix sums; the oracle scans rows and columns, with the same draws
    conditions = mf_characterization_check(discrete(n), depth).conditions
    pool = len(oracles.refinement_pool(conditions))
    for seed in range(10):
        for k in (1, 40, 400, pool + 3):
            want = oracles.refinement_sample(conditions, k, random.Random(seed))
            assert refinement_sample(conditions, k, random.Random(seed)) == want, (seed, k)


def test_refinement_sample_of_no_conditions_is_empty():
    assert refinement_sample([], 40, random.Random(0)) == []


def test_lt_tests_every_given_condition(d3):
    conditions = mf_characterization_check(d3, 1).conditions
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


def closed_set_cases():
    """Per fresh system with at most 16 plays, numbered to a depth, each set's allowed plays ``fits & within``."""
    spaces = [(discrete(n), range(3)) for n in (1, 2, 3)] + [(discrete(1), range(3, 13))] + [
        (parse_input_file(str(FIXTURES / name)), range(3)) for name in ("d2.space", "d3.space")]
    for space, depths in spaces:
        for depth in depths:
            system = ConditionSystem(space)
            within = system._number(depth)
            if len(system.step) <= 16:
                yield from ((system, fits & within) for fits in system._fits.values())


def closed_set_mismatches(closed_sets) -> list:
    """The cases where ``closed_sets(system, allowed)`` repeats a set or differs from the literal subsets."""
    bad = []
    for system, allowed in closed_set_cases():
        got, want = list(closed_sets(system, allowed)), oracles.closed_play_sets(system, allowed)
        if len(got) != len(set(got)) or set(got) != set(want):
            bad.append((system.space.name, allowed))
    return bad


def test_closed_sets_are_the_literal_subsets():
    cases = list(closed_set_cases())
    assert len(cases) == 47 and max(allowed.bit_length() for _, allowed in cases) == 13
    assert closed_set_mismatches(ConditionSystem._closed_sets) == []
    for system, allowed in cases:  # the count the refusal reads, without building the sets
        assert system._count(allowed) == len(oracles.closed_play_sets(system, allowed))


def test_a_walk_that_never_drops_a_play_fails_the_comparison():
    def never_drops(system, allowed):  # the library's walk with the drop branch taken out
        children = [0] * len(system.step)
        for q in _bits(allowed & ~1):
            children[system.parent[q]] |= 1 << q
        stack = [(1, children[0])]
        while stack:
            have, frontier = stack.pop()
            if not frontier:
                yield have
                continue
            low = frontier & -frontier
            stack.append((have | low, frontier ^ low | children[low.bit_length() - 1]))

    assert closed_set_mismatches(never_drops)


def test_deep_chains_count_without_recursion():
    # one point: the plays form one forced chain, and the conditions at
    # depth d are its d + 1 initial segments
    system = ConditionSystem(discrete(1))
    assert len(system.enumerate_conditions(1500)) == 1501
    with pytest.raises(TooManyConditions) as err:
        system.enumerate_conditions(MAX_CONDITIONS)
    assert err.value.count == MAX_CONDITIONS + 1
    assert "gives at least 2001 conditions" in str(err.value)


def report_fields(report, names) -> dict:
    """A report's fields, each condition as (a, plays) and the poset as its two mask directions.

    A play is named by its index in ``names``, a dict over tuple plays shared by the reports
    compared, so each play is decoded once and not once per condition that holds it.
    """
    fields = report._asdict()
    system = report.conditions[0].system
    ids = [names.setdefault(system.play(i), len(names)) for i in range(len(system.step))]
    fields["conditions"] = [(c.a, frozenset(ids[q] for q in _bits(c.mask))) for c in report.conditions]
    fields["poset"] = (report.poset.name, report.poset, report.poset.up_masks, report.poset.down_masks)
    return fields


def two_point_depths():
    """Every depth at which the discrete space on 2 points has at most MAX_CONDITIONS conditions."""
    depth = 0
    while True:
        try:
            ConditionSystem(discrete(2)).enumerate_conditions(depth)
        except TooManyConditions:
            return
        yield depth
        depth += 1


def test_two_point_depths_reach_the_cap():
    depths = list(two_point_depths())
    assert depths[-1] == 30
    with pytest.raises(TooManyConditions) as err:
        ConditionSystem(discrete(2)).enumerate_conditions(31)
    assert err.value.count > MAX_CONDITIONS


@pytest.mark.parametrize("space, depths, seeds", [
    (discrete(1), range(61), (0,)),
    (discrete(2), list(two_point_depths())[:26], (0,)),
    (discrete(2), list(two_point_depths())[26:], (0,)),
    (discrete(3), range(3), (0, 1)),
    (parse_input_file(str(FIXTURES / "d2.space")), range(4), range(3)),
    (parse_input_file(str(FIXTURES / "d3.space")), range(3), (0,)),
    (discrete(4), (1,), (0,)),
], ids=["1-point", "2-point-0-25", "2-point-26-30", "3-point", "d2.space", "d3.space", "4-point"])
def test_check_matches_the_bit_loop_reference(space, depths, seeds):
    # the reference walks play masks bit by bit, sorts by the literal key and transposes;
    # the 2-point space runs at every depth the cap allows, split in two for time
    for depth in depths:
        for seed in seeds:
            got = mf_characterization_check(space, depth, seed=seed)
            want = oracles.mf_characterization_reference(space, depth, seed=seed)
            names = {}
            assert report_fields(got, names) == report_fields(want, names), (depth, seed)


@pytest.mark.parametrize("n, depth", [(1, 60), (2, 12), (3, 2), (4, 1)])
def test_check_order_is_the_literal_key_order(n, depth):
    # the check sorts on masks: on its fresh system play indices follow play keys, so of two
    # masks with as many plays the one holding their lowest differing bit comes first
    conditions = mf_characterization_check(discrete(n), depth).conditions
    keys = [(tuple(_bits(c.a)), len(c.plays), tuple(sorted(map(oracles.play_key, c.plays)))) for c in conditions]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_a_failed_refinement_is_reported(monkeypatch, d2):
    # a refinement that returns its first argument is not strictly below it
    monkeypatch.setattr(ConditionSystem, "refine", lambda self, c1, c2, x: c1)
    report = mf_characterization_check(d2, 2)
    assert (report.refinements_checked, report.refinements_ok) == (1, False)
    assert report.bijection and report.failure == ""
