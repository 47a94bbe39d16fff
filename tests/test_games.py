import dataclasses
import random
from types import SimpleNamespace

import pytest

import oracles
from posetspace import games
from posetspace.catalog import posets_up_to, random_dense_sets, random_poset
from posetspace.games import (
    ChoquetRound,
    ConditionViolated,
    GameSetupError,
    SelectorFailed,
    baire_generic_filter,
    canonical_choquet_strategy,
    choquet_referee,
    element_set_selector,
    is_dense_elements,
    landing_filter,
    scripted_random_choquet_i,
    splitting_strategy,
    star_game_referee,
    star_game_solve,
)
from posetspace.poset_core import BinaryTreePoset, incompatible, validate_poset
from posetspace.topology import PosetSpace


# --- strong Choquet ------------------------------------------------------------


def record(transcript):
    """A library transcript in the shape ``oracles.choquet_referee`` returns."""
    bad = transcript.illegal
    verdict = None if bad is None else (bad.player, bad.round_no, bad.reason)
    return transcript.log_lines(), [r.witness_ii for r in transcript.rounds], verdict


def test_canonical_strategy_legality(vee):
    space = PosetSpace(vee, "mf")
    transcript = choquet_referee(
        space, scripted_random_choquet_i(3), canonical_choquet_strategy(space), 10
    )
    assert transcript.illegal is None
    witnesses = [r.witness_ii for r in transcript.rounds]
    for prev, cur in zip(witnesses, witnesses[1:]):
        assert vee.leq(cur, prev)
    for r in transcript.rounds:
        assert r.point in oracles.point_set(r.open_ii) <= oracles.point_set(r.open_i)
    assert transcript.winner_at_horizon == "II"
    assert transcript.intersection


def test_strategy_with_replaced_move_plays_it(vee):
    # a profiler wraps a strategy's move with dataclasses.replace
    space = PosetSpace(vee, "mf")
    strategy, calls = canonical_choquet_strategy(space), []

    def counted(position):
        calls.append(position)
        return strategy.move(position)

    wrapped = dataclasses.replace(strategy, move=counted)
    t = choquet_referee(space, scripted_random_choquet_i(3), wrapped, 5)
    assert len(calls) == len(t.rounds) == 5 and str(wrapped) == "canonical-least-refinement"
    assert t.log_lines() == choquet_referee(space, scripted_random_choquet_i(3), strategy, 5).log_lines()


def test_position_prev_is_iis_last_answer():
    # a seeded slice of criterion 6 on posets with at most 4 elements, in both modes: on
    # every call player I finds II's last answer, or the whole space, in position.prev
    rng = random.Random(27)
    for p in posets_up_to(4):
        for mode in ("mf", "uf"):
            space = PosetSpace(p, mode)
            strategy_ii = canonical_choquet_strategy(space)
            for seed in rng.sample(range(100), 2):
                opener, seen = scripted_random_choquet_i(seed), []

                def recording(position):
                    want = position.rounds[-1].open_ii if position.rounds else position.whole
                    seen.append((position.prev, want))
                    return opener(position)

                t = choquet_referee(space, recording, strategy_ii, 10)
                assert t.illegal is None and len(seen) == 10
                assert all(prev == want for prev, want in seen), (p.pairs(), mode, seed)
                plain = choquet_referee(space, scripted_random_choquet_i(seed), strategy_ii, 10)
                assert t.log_lines() == plain.log_lines()


def test_canonical_answer_to_whole_space(vee):
    #I plays the whole space with the point containing a: the least eligible
    # element is a itself, so II answers with its basic open
    space = PosetSpace(vee, "mf")
    strategy = canonical_choquet_strategy(space)

    def opener(position):
        return position.whole, 0  # the point generated by a

    t = choquet_referee(space, opener, strategy, 1)
    assert t.rounds[0].witness_ii == "a"
    assert t.rounds[0].open_ii == space.basic_open("a")


def test_canonical_answer_on_chain(chain2):
    space = PosetSpace(chain2, "mf")
    strategy = canonical_choquet_strategy(space)

    def opener(position):
        return space.opens[chain2.index("y")], 0

    t = choquet_referee(space, opener, strategy, 1)
    assert t.rounds[0].witness_ii == "x"  # least element whose open fits
    assert not t.rounds[0].open_ii & ~space.basic_open("y")


def test_canonical_answer_refuses_a_position_with_no_eligible_element(antichain2):
    # the referee never builds this position: after II's witness a, I's move is the
    # point generated by b, and no member of that point lies below a
    space = PosetSpace(antichain2, "mf")
    a, b = antichain2.index("a"), antichain2.index("b")
    position = SimpleNamespace(witness=a, pending=(space.opens[b], space.generators.index(b)), rounds=[])
    with pytest.raises(ConditionViolated) as err:
        canonical_choquet_strategy(space).move(position)
    assert err.value.round_no == 0
    assert str(err.value) == "round 0: no eligible element; the inputs broke the game rules"


def test_one_point_space_game(chain2):
    space = PosetSpace(chain2, "mf")
    t = choquet_referee(
        space, scripted_random_choquet_i(0), canonical_choquet_strategy(space), 5
    )
    assert t.intersection == space.whole_mask


def test_illegal_point_outside_open(vee):
    space = PosetSpace(vee, "mf")

    def bad_i(position):
        return space.opens[vee.index("a")], 1  # the b-side point is outside N_a

    t = choquet_referee(space, bad_i, canonical_choquet_strategy(space), 3)
    assert t.illegal is not None and t.illegal.player == "I"
    assert t.winner_at_horizon == "II"


def test_illegal_open_outside_the_space(vee):
    space = PosetSpace(vee, "mf")

    def stray_i(position):
        return 1 | 1 << 99, 0  # 99 is not a point of the space

    t = choquet_referee(space, stray_i, canonical_choquet_strategy(space), 3)
    assert t.illegal is not None
    assert (t.illegal.player, t.illegal.round_no, t.illegal.reason) == ("I", 0, "played set is not open")
    assert t.winner_at_horizon == "II"


def test_illegal_open_escaping_answer(vee):
    space = PosetSpace(vee, "mf")
    moves = iter([(space.opens[vee.index("a")], 0), (0b11, 1)])

    def escaping_i(position):
        return next(moves)

    t = choquet_referee(space, escaping_i, canonical_choquet_strategy(space), 2)
    assert t.illegal is not None and t.illegal.round_no == 1


def test_illegal_answer_by_ii(vee):
    space = PosetSpace(vee, "mf")

    def bad_ii(position):
        return 0, None  # misses the point

    t = choquet_referee(space, scripted_random_choquet_i(1), bad_ii, 2)
    assert t.illegal is not None and t.illegal.player == "II"
    assert t.winner_at_horizon == "I"


def test_illegal_answer_outside_player_i_open(vee):
    space = PosetSpace(vee, "mf")

    def opener(position):
        return space.opens[vee.index("a")], 0

    def greedy_ii(position):
        return position.whole, vee.index("c")  # holds the point, but escapes N_a

    t = choquet_referee(space, opener, greedy_ii, 2)
    assert (t.illegal.player, t.illegal.round_no, t.illegal.reason) == (
        "II", 0, "answer not inside player I's open")
    assert t.winner_at_horizon == "I"


@pytest.mark.parametrize("answer", [1 | 1 << 2, 1 | 1 << 64, -1, -2, -1 << 64])
def test_illegal_answer_not_open(vee, answer):
    # vee has 2 points: bit 2 and above, and every negative mask, hold no point;
    # -2 and -1 << 64 also miss player I's point 0
    space = PosetSpace(vee, "mf")

    def opener(position):
        return position.whole, 0

    t = choquet_referee(space, opener, lambda position: (answer, None), 2)
    assert (t.illegal.player, t.illegal.round_no, t.illegal.reason) == (
        "II", 0, "played set is not open")
    assert t.winner_at_horizon == "I"
    assert t.rounds == [] and t.intersection == space.whole_mask


def test_referee_deterministic(vee):
    space = PosetSpace(vee, "mf")

    def run():
        return choquet_referee(
            space, scripted_random_choquet_i(9), canonical_choquet_strategy(space), 8
        ).log_lines()

    assert run() == run()


def test_canonical_wins_small_sweep():
    for p in posets_up_to(3):
        space = PosetSpace(p, "mf")
        if not space.points:
            continue
        for seed in range(5):
            t = choquet_referee(
                space, scripted_random_choquet_i(seed), canonical_choquet_strategy(space), 10
            )
            assert t.illegal is None
            assert t.intersection, (p.name, seed)


def test_referee_matches_frozenset_oracle():
    games = 0
    for p in posets_up_to(4):
        for mode in ("mf", "uf"):
            space = PosetSpace(p, mode)
            if not space.points:
                continue
            lib_ii = canonical_choquet_strategy(space)
            ref_ii = oracles.canonical_choquet_ii(space)
            for seed in range(5):
                lib = choquet_referee(space, scripted_random_choquet_i(seed), lib_ii, 10)
                ref = oracles.choquet_referee(space, oracles.scripted_random_choquet_i(seed), ref_ii, 10)
                assert record(lib) == ref, (p.pairs(), mode, seed)
                games += 1
    assert games == 2 * 5 * 242


def test_canonical_answers_are_kept_apart_by_witness():
    # c < a, d < a, d < b: the point of d lies in N_a and in N_b
    p = validate_poset(["a", "b", "c", "d"], [("c", "a"), ("d", "a"), ("d", "b")], "N")
    space = PosetSpace(p, "mf")
    strategy = canonical_choquet_strategy(space)
    whole_and_d = (space.whole_mask, 1)
    for witness, expected in ((None, "a"), (p.index("b"), "b"), (None, "a")):
        v, w = strategy(SimpleNamespace(pending=whole_and_d, witness=witness, rounds=[]))
        assert (p.elements[w], v) == (expected, space.opens[w])


def test_one_point_space_never_builds_a_random(chain2, monkeypatch):
    # every round on a one-point space is forced, so the opener draws nothing
    space = PosetSpace(chain2, "mf")
    ref = oracles.choquet_referee(
        space, oracles.scripted_random_choquet_i(4), oracles.canonical_choquet_ii(space), 6)

    def no_random(seed):
        raise AssertionError("a forced game built a Random")

    monkeypatch.setattr(games.random, "Random", no_random)
    lib = choquet_referee(space, scripted_random_choquet_i(4), canonical_choquet_strategy(space), 6)
    assert record(lib) == ref


def test_opener_repeats_a_one_point_answer(vee):
    space = PosetSpace(vee, "mf")
    opener = scripted_random_choquet_i(7)
    for x in range(len(space)):
        position = SimpleNamespace(space=space, whole=space.whole_mask, prev=1 << x,
                                   rounds=[ChoquetRound(space.whole_mask, x, 1 << x)])
        assert opener(position) == (1 << x, x)
    # in a played game, every round after a one-point answer repeats it
    t = choquet_referee(space, opener, canonical_choquet_strategy(space), 10)
    for prev, r in zip(t.rounds, t.rounds[1:]):
        if oracles.point_set(prev.open_ii) == {prev.point}:
            assert (r.open_i, r.point, r.open_ii) == (prev.open_ii, prev.point, prev.open_ii)


def test_repeated_rounds_share_one_record(chain2):
    # chain2 has one point, and both elements have the basic open {0}: a round
    # is kept as the record before it only when the witness repeats as well
    space = PosetSpace(chain2, "mf")
    witnesses = iter([0, 0, 1, 1, None, 0])
    t = choquet_referee(space, scripted_random_choquet_i(0), lambda pos: (1, next(witnesses)), 6)
    assert [r.witness_ii for r in t.rounds] == ["x", "x", "y", "y", None, "x"]
    assert [t.rounds[i] is t.rounds[i - 1] for i in range(1, 6)] == [True, False, True, False, False]
    assert all(r == ChoquetRound(1, 0, 1, r.witness_ii) for r in t.rounds)


def _mask(points):
    return sum(1 << i for i in points)


# player I's moves on MF(V) as (point set, point) per round: N_a = {0}, N_b = {1}
BAD_OPENERS = [
    [({0}, 1)],  # point outside the open
    [({0, 1}, -1)],  # no such point
    [({0, 99}, 0)],  # 99 is not a point
    [({0}, 0), ({0, 1}, 1)],  # escapes II's answer
    # several rules at once: the first broken one is named
    [({0}, 0), ({0, 1, 99}, 1)],  # not open, and escapes II's answer
    [({0}, 0), ({1, 99}, 0)],  # not open, point outside, escapes II's answer
    [({0}, 0), ({1}, 0)],  # point outside the open, and escapes II's answer
    [({0}, 0), ({0, 1}, -1)],  # no such point, and escapes II's answer
    [({0, 1, 99}, -1)],  # not open, and no such point
]
# player II's answers on MF(V) as point sets, against scripted player I
BAD_ANSWERS = [set(), {0, 1}, {0, 1, 2}, {0, 64}]


@pytest.mark.parametrize("moves", BAD_OPENERS)
def test_referee_matches_oracle_on_bad_openers(vee, moves):
    space = PosetSpace(vee, "mf")
    lib_moves = iter([(_mask(u), x) for u, x in moves])
    ref_moves = iter([(frozenset(u), x) for u, x in moves])
    lib = choquet_referee(space, lambda pos: next(lib_moves), canonical_choquet_strategy(space), len(moves))
    ref = oracles.choquet_referee(
        space, lambda pos: next(ref_moves), oracles.canonical_choquet_ii(space), len(moves))
    assert record(lib) == ref
    assert ref[2] is not None and ref[2][0] == "I"


@pytest.mark.parametrize("moves, reason", [
    ([(-1, 0)], "played set is not open"),  # a negative mask holds every non-point
    ([(-1, -1)], "played set is not open"),
    ([(1, 0), (-2, 1)], "played set is not open"),  # and escapes II's answer {0}
    ([(0b11, -1)], "point lies outside the played open"),
    ([(1, 0), (0b11, -5)], "point lies outside the played open"),  # and escapes {0}
])
def test_negative_moves_by_i(vee, moves, reason):
    space = PosetSpace(vee, "mf")
    moves = iter(moves)
    t = choquet_referee(space, lambda pos: next(moves), canonical_choquet_strategy(space), 2)
    rounds = len(t.rounds)
    assert (t.illegal.player, t.illegal.round_no, t.illegal.reason) == ("I", rounds, reason)
    assert t.intersection == (t.rounds[-1].open_ii if t.rounds else space.whole_mask)


@pytest.mark.parametrize("answer, reason", [
    ({1}, "answer misses player I's point"),  # and escapes I's open {0}
    ({1, 2}, "played set is not open"),  # and misses the point, and escapes
    ({0, 1}, "answer not inside player I's open"),
])
def test_answers_breaking_several_rules(vee, answer, reason):
    # I plays N_a = {0} at point 0
    space = PosetSpace(vee, "mf")
    lib = choquet_referee(space, lambda pos: (1, 0), lambda pos: (_mask(answer), None), 1)
    ref = oracles.choquet_referee(
        space, lambda pos: (frozenset({0}), 0), lambda pos: (frozenset(answer), None), 1)
    assert record(lib) == ref
    assert ref[2] == ("II", 0, reason)


def test_intersection_is_the_fold_of_the_answers():
    # every game of a seeded slice of the posets with at most 5 elements,
    # the illegal ones included: the fold and the last answer agree
    posets = [p for p in posets_up_to(5) if len(p)]
    for p in random.Random(14).sample(posets, 120):
        space = PosetSpace(p, "mf")
        strategy = canonical_choquet_strategy(space)
        for seed in range(4):
            for opener in (scripted_random_choquet_i(seed), _stray_at(seed % 4)):
                t = choquet_referee(space, opener, strategy, 10)
                answers = [r.open_ii for r in t.rounds]
                assert t.intersection == oracles.answers_meet(space.whole_mask, answers), (p.pairs(), seed)


def _stray_at(round_no):
    """Player I: the whole of II's last answer at its least point, until it strays in ``round_no``."""

    def move(pos):
        if len(pos.rounds) == round_no:
            return pos.whole << 1, 0
        prev = pos.rounds[-1].open_ii if pos.rounds else pos.whole
        return prev, (prev & -prev).bit_length() - 1

    return move


@pytest.mark.parametrize("answer", BAD_ANSWERS)
@pytest.mark.parametrize("seed", range(3))
def test_referee_matches_oracle_on_bad_answers(vee, answer, seed):
    space = PosetSpace(vee, "mf")
    lib = choquet_referee(space, scripted_random_choquet_i(seed), lambda pos: (_mask(answer), None), 1)
    ref = oracles.choquet_referee(
        space, oracles.scripted_random_choquet_i(seed), lambda pos: (frozenset(answer), None), 1)
    assert record(lib) == ref
    assert ref[2] is not None and ref[2][0] == "II"


# --- star game -------------------------------------------------------------------


def test_star_chain2(chain2):
    sol = star_game_solve(chain2)
    assert sol.winner == "II"
    assert sol.fixed_point == frozenset()


def test_star_antichain2(antichain2):
    sol = star_game_solve(antichain2)
    assert sol.winner == "II"
    assert sol.fixed_point == frozenset()


def test_star_solution_strategy_keeps_the_first_component(antichain2):
    # the returned strategy answers 1 to every pair in every round, which the
    # referee reads as guide bit 0: II keeps player I's first component
    strategy = star_game_solve(antichain2).strategy
    assert str(strategy) == "constant-first-pick"
    assert [strategy(("a", "b"), t) for t in range(3)] == [1, 1, 1]
    play = star_game_referee(antichain2, lambda current, t: ("a", "b"), [strategy(("a", "b"), 0) - 1], 1)
    assert (play.pairs, play.picks) == ((("a", "b"),), (1,))


def height_oracle(poset):
    """Independent check: recurse on strictly smaller elements only."""
    good = {}

    def rec(p):
        if p in good:
            return good[p]
        good[p] = False  # incompatible pair members are strictly below p
        below = [q for q in poset.elements if poset.lt(q, p)]
        for i, p1 in enumerate(below):
            for p2 in below[i + 1:]:
                if incompatible(poset, p1, p2) and rec(p1) and rec(p2):
                    good[p] = True
                    return True
        return good[p]

    return frozenset(p for p in poset.elements if rec(p))


def test_star_solver_matches_height_oracle_small():
    for p in posets_up_to(4):
        sol = star_game_solve(p)
        assert sol.fixed_point == height_oracle(p)
        assert sol.winner == "II"


def _shape(name, n, pairs):
    return validate_poset([f"e{i}" for i in range(n)],
                          [(f"e{a}", f"e{b}") for a, b in pairs], name)


STAR_SHAPES = [
    _shape("chain30", 30, [(i, i + 1) for i in range(29)]),
    _shape("two-chains-under-top", 31, [(i, i + 1) for i in range(14)] + [(14, 30)]
           + [(i, i + 1) for i in range(15, 29)] + [(29, 30)]),
    _shape("broom", 24, [(i, 10) for i in range(10)] + [(i, i + 1) for i in range(10, 23)]),
    _shape("tree31", 31, [(c, (c - 1) // 2) for c in range(1, 31)]),  # children below parents
    _shape("antichain30", 30, []),
    _shape("crown20", 20, [(i, 10 + j) for i in range(10) for j in (i, (i + 1) % 10)]),
    _shape("layers", 24, [(i, j) for i in range(8) for j in range(8, 16) if (i + j) % 3]
           + [(i, j) for i in range(8, 16) for j in range(16, 24) if (i * j) % 4]),
]


def test_star_solver_matches_name_oracle():
    posets = posets_up_to(5, include_empty=True)
    assert len(posets) == 4474
    for p in posets + STAR_SHAPES:
        sol = star_game_solve(p)
        assert (sol.winner, sol.fixed_point, sol.iterations) == oracles.star_game(p), p.pairs()
    assert star_game_solve(STAR_SHAPES[3]).iterations > 2  # the tree shrinks level by level


def _chain_heavy(n, rng):
    """A chain with n // 6 evenly spaced levels widened to two incomparable elements, listed shuffled."""
    widened = max(1, n // 6)
    widths = [1] * (n - widened)
    for k in range(1, widened + 1):
        widths[k * len(widths) // (widened + 1)] = 2
    levels, i = [], 0
    for width in widths:
        levels.append(range(i, i + width))
        i += width
    pairs = [(f"c{a}", f"c{b}") for lower, upper in zip(levels, levels[1:]) for a in lower for b in upper]
    names = [f"c{i}" for i in range(n)]
    rng.shuffle(names)
    return validate_poset(names, pairs, f"chain-heavy{n}")


def _wide(n):
    """A tree with its root on top, every element covering up to three others, root first."""
    return _shape(f"wide{n}", n, [(i, (i - 1) // 3) for i in range(1, n)])


LADDER_RUNGS = (8, 9, 10, 12, 25, 50, 100, 150)
STAR_FAMILIES = {
    "posets-up-to-5": lambda: posets_up_to(5, include_empty=True),
    "star-shapes": lambda: STAR_SHAPES,
    "chain-heavy": lambda: [_chain_heavy(n, random.Random(n)) for n in LADDER_RUNGS],
    "wide": lambda: [_wide(n) for n in LADDER_RUNGS],
}


@pytest.mark.parametrize("family", STAR_FAMILIES)
def test_star_solver_matches_mask_reference(family):
    iterations = {}
    for p in STAR_FAMILIES[family]():
        sol = star_game_solve(p)
        got = (sol.winner, sol.fixed_point, sol.iterations)
        assert got == oracles.star_game_masks(p), p.pairs()
        if family in ("chain-heavy", "wide") and len(p) <= 25:  # the name oracle test takes the rest
            assert got == oracles.star_game(p), p.pairs()
        iterations[p.name] = sol.iterations
    if family == "wide":
        assert [iterations[f"wide{n}"] for n in (50, 100, 150)] == [5, 6, 6]
    if family == "chain-heavy":  # the bottom lies below every element, so the first pass empties S
        assert set(iterations.values()) == {2}


def test_star_referee_bintree_follows_guide():
    tree = BinaryTreePoset()
    bits = [0, 1, 0, 1, 1, 0, 1, 0, 0, 1] * 2
    play = star_game_referee(tree, splitting_strategy(tree), bits, 20)
    assert len(play.chain.chain) == 20
    for t, node in enumerate(play.chain.chain):
        assert node == "".join(str(b) for b in bits[: t + 1])
    assert play.log_lines()[0] == "round 0: I <0,1> | II 1"


def test_star_referee_guides_differ():
    tree = BinaryTreePoset()
    f = [0, 0, 1, 0, 1]
    g = [0, 0, 0, 0, 1]  # first difference at bit 2
    pf = star_game_referee(tree, splitting_strategy(tree), f, 5)
    pg = star_game_referee(tree, splitting_strategy(tree), g, 5)
    k = next(i for i in range(5) if f[i] != g[i])
    assert tree.incompatible(pf.chain.chain[k], pg.chain.chain[k])
    for i in range(k):
        assert pf.chain.chain[i] == pg.chain.chain[i]


def test_star_referee_flags_compatible_pair():
    tree = BinaryTreePoset()

    def cheating(current, round_no):
        return "0", "00"  # comparable, hence compatible

    with pytest.raises(ConditionViolated) as err:
        star_game_referee(tree, cheating, [0, 0], 2)
    assert err.value.round_no == 0


def test_star_referee_flags_non_refining_pair():
    tree = BinaryTreePoset()

    def stuck(current, round_no):
        return "0", "1"  # never descends below the previous pick

    with pytest.raises(ConditionViolated) as err:
        star_game_referee(tree, stuck, [0, 0, 0], 3)
    assert err.value.round_no == 1


def test_star_referee_needs_enough_guide_bits():
    tree = BinaryTreePoset()
    with pytest.raises(ValueError):
        star_game_referee(tree, splitting_strategy(tree), [0], 5)


# --- generic filters ---------------------------------------------------------------


def test_baire_chain2(chain2):
    sel = element_set_selector(chain2, ["x"])
    play = baire_generic_filter(chain2, [sel], "y", 1)
    assert play.chain == ("y", "x")
    assert play.chain == baire_generic_filter(chain2, [sel], "y", 4).chain


def test_baire_bintree_lengthens():
    tree = BinaryTreePoset()

    def extend_to(i):
        def sel(p):
            bits = tree.bits(p)
            return tree.encode(bits + "0" * max(1, i - len(bits)))

        return sel

    selectors = [extend_to(i) for i in range(1, 51)]
    play = baire_generic_filter(tree, selectors, "e", 50)
    lengths = [len(tree.bits(c)) for c in play.chain]
    assert lengths == sorted(set(lengths))
    assert lengths[-1] >= 50


def test_baire_selector_failure(vee):
    def liar(p):
        return "c"  # c is not below a

    with pytest.raises(SelectorFailed):
        baire_generic_filter(vee, [liar], "a", 1)


def test_baire_needs_a_selector(vee):
    # the CLI always passes a selector, so only the library reaches this refusal
    with pytest.raises(GameSetupError, match="^at least one dense-open selector is required$"):
        baire_generic_filter(vee, [], "c", 1)


def test_element_selector_reports_non_density(vee):
    sel = element_set_selector(vee, ["a"])
    with pytest.raises(SelectorFailed):
        baire_generic_filter(vee, [sel], "b", 1)
    assert not is_dense_elements(vee, ["a"])
    assert is_dense_elements(vee, ["a", "b"])


def test_element_selector_reads_its_names_once(vee):
    # names from a one-shot generator select as the same names from a list
    from_list = element_set_selector(vee, ["a", "b"])
    from_generator = element_set_selector(vee, (e for e in ["a", "b"]))
    assert [from_generator(p) for p in vee.elements] == [from_list(p) for p in vee.elements] == ["a", "b", "a"]


def test_element_selector_scans_in_element_order():
    # the chain a < b < c listed b, a, c: b comes first in element order and lies
    # below c, so it is selected there, though a lies below b
    chain = validate_poset(["b", "a", "c"], [("a", "b"), ("b", "c")], "bac")
    select = element_set_selector(chain, ["a", "b"])
    assert [select(p) for p in ("c", "b", "a")] == ["b", "a", "a"]


def test_baire_lands_in_every_open(vee):
    dense = [frozenset({"a", "b"}), frozenset({"a", "b"})]
    selectors = [element_set_selector(vee, d) for d in dense]
    play = baire_generic_filter(vee, selectors, "c", 2)
    filt = landing_filter(vee, play)
    space = PosetSpace(vee, "mf")
    idx = space.point_index(filt)
    for d in dense:
        assert space.open_mask(d) >> idx & 1


def test_baire_random_instances():
    rng = random.Random(5)
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 5))
        dense = random_dense_sets(rng, p, rng.randint(1, 3))
        selectors = [element_set_selector(p, d) for d in dense]
        start = rng.choice(p.elements)
        play = baire_generic_filter(p, selectors, start, len(dense))
        filt = landing_filter(p, play)
        space = PosetSpace(p, "mf")
        idx = space.point_index(filt)
        for d in dense:
            assert space.open_mask(d) >> idx & 1
