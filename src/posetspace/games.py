"""Referees, strategies, and solvers for the two games, plus generic filters.

The strong Choquet game is played on a filter space: player I shrinks an
open set around a chosen point, player II answers with a sub-open around
that point.  The star game is played on the poset itself: player I keeps
producing incompatible pairs below player II's picks.  Infinite games are
truncated at a caller-supplied horizon and verdicts at the horizon are
bounded statements, except for the finite-poset star game, which the
solver settles exactly.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from .poset_core import FinitePoset, PosetError, _bits
from .filters import ChainFilter, Filter, extend_to_maximal, principal
from .topology import PosetSpace


class IllegalMove(Exception):
    def __init__(self, player, round_no, reason):
        super().__init__(f"illegal move by {player} in round {round_no}: {reason}")
        self.player = player
        self.round_no = round_no
        self.reason = reason


class ConditionViolated(PosetError):
    def __init__(self, round_no, reason):
        super().__init__(f"round {round_no}: {reason}")
        self.round_no = round_no
        self.reason = reason


class GameSetupError(PosetError, ValueError):
    """A game asked for with too few rounds, guide bits or selectors, or no points."""


class SelectorFailed(PosetError):
    def __init__(self, index, element, reason):
        super().__init__(f"dense-open selector {index} failed at {element!r}: {reason}")
        self.index = index
        self.element = element


# a dataclass, not a named tuple: profilers and tests rewrap it with dataclasses.replace
@dataclass(frozen=True)
class Strategy:
    """A deterministic callable from positions to moves, with a name; referees call ``move``."""

    name: str
    move: object

    def __call__(self, *args):
        return self.move(*args)

    def __str__(self):
        return self.name


# ---------------------------------------------------------------------------
# strong Choquet game


class ChoquetRound(NamedTuple):
    open_i: int  # point mask
    point: int
    open_ii: int  # point mask
    witness_ii: object = None  # generating poset element of II's basic open, if any


class ChoquetTranscript:
    """The rounds kept so far and the illegal move that ended the game, if any: not a named
    tuple, because the referee fills it in as the game goes."""

    __slots__ = ("space", "rounds", "illegal")

    def __init__(self, space: PosetSpace, rounds: list, illegal: IllegalMove | None = None):
        self.space, self.rounds, self.illegal = space, rounds, illegal

    @property
    def intersection(self) -> int:
        """The points in every answer of player II, as a point mask.

        That is II's last answer, or every point when no round was played.
        The referee keeps only legal rounds, and each legal answer lies
        inside I's open of its round, which lies inside II's answer of the
        round before; so the answers descend and the last one is their
        intersection.
        """
        if self.rounds:
            return self.rounds[-1].open_ii
        return self.space.whole_mask

    @property
    def winner_at_horizon(self) -> str:
        if self.illegal is not None:
            return "II" if self.illegal.player == "I" else "I"
        return "II" if self.intersection else "I"

    def log_lines(self):
        lines, fmt, names, last = [], self.space.set_str, self.space.point_names, None
        for t, r in enumerate(self.rounds):
            if r is not last:  # a repeated round is the same record, formatted once
                last, text = r, f"I ({fmt(r.open_i)}, {names[r.point]}) | II {fmt(r.open_ii)}"
            lines.append(f"round {t}: {text}")
        if self.illegal is not None:
            lines.append(f"illegal: {self.illegal}")
        lines.append(f"winner-at-horizon: {self.winner_at_horizon}")
        return lines


def canonical_choquet_strategy(space: PosetSpace) -> Strategy:
    """Player II answers with the basic open of the least eligible element.

    Eligible means: the element lies in the filter just played, its basic
    open sits inside player I's open, and it refines the element that
    generated II's previous answer, so II's witnesses descend in the
    poset.  A legal game always leaves an eligible element.  The answer
    depends on nothing but I's move and that witness, so each is worked
    out once per strategy and reused across rounds and games.
    """
    opens, up, down = space.opens, space.poset.up_masks, space.poset.down_masks
    # the answers worked out so far: previous witness -> I's move -> answer, each made on first use
    answers = defaultdict(dict)

    def move(position):
        known = answers[position.witness]
        answer = known.get(position.pending)
        if answer is not None:
            return answer
        u, x = position.pending
        # the members of point x, in element order, that refine the previous witness
        eligible = up[x]
        if position.witness is not None:
            eligible &= down[position.witness]
        for q in _bits(eligible):
            if not opens[q] & ~u:
                known[position.pending] = answer = (opens[q], q)
                return answer
        raise ConditionViolated(
            len(position.rounds), "no eligible element; the inputs broke the game rules"
        )

    return Strategy("canonical-least-refinement", move)


def scripted_random_choquet_i(seed: int) -> Strategy:
    """A legal player-I script: random basic open inside II's last answer.

    It reads that answer as ``position.prev``, which the referee keeps
    (the whole space before round 0).  Once it is a single point {x},
    every later move is forced: the only nonempty open inside {x} is
    {x}, its only point is x, and a legal answer to ({x}, x) must be an
    open inside {x} that holds x, so {x} again.  Such a position
    is absorbing, so the script plays ({x}, x) there without drawing.
    Every unforced position comes before every forced one, so the draws
    it does make are the same as when each round draws: a choice among
    the nonempty basic opens inside the last answer, in element order,
    then among the points of the chosen open, in ascending order.  The
    ``Random(seed)`` is built at the first unforced move.
    """
    rng = None

    def move(position):
        nonlocal rng
        prev = position.prev
        if not prev & (prev - 1):
            return prev, prev.bit_length() - 1
        if rng is None:
            rng = random.Random(seed)
        # the nonempty basic opens inside prev, in element order
        u = rng.choice([u for u in position.space.opens if u and not u & ~prev])
        x = rng.choice(_bits(u))
        return u, x

    return Strategy(f"scripted-random-{seed}", move)


class _Position:
    """What the players see; ``prev`` is II's last answer, the whole space before round 0."""

    __slots__ = ("space", "whole", "prev", "rounds", "pending", "witness")

    def __init__(self, space):
        self.space = space
        self.whole = self.prev = space.whole_mask
        self.rounds = []
        self.pending = None
        self.witness = None  # element index behind II's last basic open, if any


def choquet_referee(space: PosetSpace, strategy_i, strategy_ii, rounds: int) -> ChoquetTranscript:
    """Play the strong Choquet game for a bounded number of rounds.

    Opens are point masks, bit g for the point up(g).  Player I moves
    ``(u, x)`` and player II answers ``(v, w)``, where w is the element
    index whose basic open v is, or None.  Enforces every legality rule;
    an illegal move aborts the run with the offender losing.  At the
    horizon the nonemptiness of the intersection of II's opens decides
    the bounded verdict.

    Each move passes one test that implies all of its player's rules:
    I's ``u`` inside II's last answer (which lies inside the space, so u
    is open) with ``x`` a point of u, and II's ``v`` inside u with x in
    v.  Only a move that fails it is checked rule by rule, in the order
    that names the offence.  A round equal to the one before, as every
    round after a one-point answer is, is kept as the same record.
    """
    if rounds < 1:
        raise GameSetupError("rounds must be at least 1")
    if not space.whole_mask:
        raise GameSetupError("the space has no points to play on")
    move_i, move_ii = getattr(strategy_i, "move", strategy_i), getattr(strategy_ii, "move", strategy_ii)
    pos = _Position(space)
    transcript = ChoquetTranscript(space, pos.rounds)
    names = space.poset.elements
    outside = ~pos.whole  # the bits of no point; every negative mask meets them
    prev = pos.prev  # II's last answer, also kept on the position for player I
    last_u = last_x = last_w = last = None  # the last round kept, and its moves
    try:
        for t in range(rounds):
            u, x = move_i(pos)
            if u & ~prev or x < 0 or not u >> x & 1:
                if u & outside:
                    raise IllegalMove("I", t, "played set is not open")
                if x < 0 or not u >> x & 1:
                    raise IllegalMove("I", t, "point lies outside the played open")
                raise IllegalMove("I", t, "open not inside II's previous answer")
            pos.pending = (u, x)
            v, w = move_ii(pos)
            if v & ~u or not v >> x & 1:
                if v & outside:
                    raise IllegalMove("II", t, "played set is not open")
                if not v >> x & 1:
                    raise IllegalMove("II", t, "answer misses player I's point")
                raise IllegalMove("II", t, "answer not inside player I's open")
            if u != last_u or x != last_x or v != prev or w != last_w:
                if w is not None:
                    pos.witness = w
                last = ChoquetRound(u, x, v, None if w is None else names[w])
                last_u, last_x, last_w = u, x, w
            pos.rounds.append(last)
            pos.prev = prev = v
    except IllegalMove as bad:
        transcript.illegal = bad
    return transcript


# ---------------------------------------------------------------------------
# the star game


class StarSolution(NamedTuple):
    winner: str
    fixed_point: frozenset
    strategy: Strategy
    iterations: int


def star_game_solve(poset: FinitePoset) -> StarSolution:
    """Solve the star game on a finite poset exactly.

    Computes the greatest set S of elements below which an incompatible
    pair with both members in S exists, by shrinking from the whole
    carrier.  Player I could win only from a starting incompatible pair
    with both members in S.  On finite posets S always empties, because a
    minimal element of S would need strictly smaller members of S below
    it; so player II wins, and the returned strategy is the constant first
    pick.  Each pass keeps the pairwise test: two members of S below p are
    incompatible when their down masks are disjoint.  A kernel on minimal-element
    masks is faster, but the size-ladder harness misreads its run (ROADMAP item 1).
    """
    down = poset.down_masks
    s = (1 << len(poset)) - 1  # the shrinking set, as an element mask
    iterations = 0

    def splittable(p, pool):
        seen = []  # the down masks of the members of pool below p met so far
        for a in _bits(down[p] & pool):
            da = down[a]
            for db in seen:
                if not da & db:
                    return True
            seen.append(da)
        return False

    while True:
        iterations += 1
        keep = 0
        for p in _bits(s):
            if splittable(p, s):
                keep |= 1 << p
        if keep == s:
            break
        s = keep

    def move_ii(pair, round_no):
        return 1

    core = frozenset(poset.names_of(s))
    return StarSolution("II", core, Strategy("constant-first-pick", move_ii), iterations)


def splitting_strategy(tree) -> Strategy:
    """Player I plays the two one-bit extensions of the current node."""

    def move(current, round_no):
        base = tree.bits(current) if current is not None else ""
        return tree.encode(base + "0"), tree.encode(base + "1")

    return Strategy("one-bit-splits", move)


class StarPlay(NamedTuple):
    chain: ChainFilter
    pairs: tuple
    picks: tuple

    def log_lines(self):
        return [
            f"round {t}: I <{p1},{p2}> | II {n}"
            for t, ((p1, p2), n) in enumerate(zip(self.pairs, self.picks))
        ]


def star_game_referee(poset, strategy_i, f, rounds: int) -> StarPlay:
    """Play strategy_i against the bit-guided player II.

    ``f`` supplies player II's picks: bit 0 keeps the first component of
    player I's pair, bit 1 the second.  Both win conditions are verified
    every round; a violation raises ConditionViolated with the round,
    which signals that the strategy is not winning at this depth.  A pair
    is tested with the poset's own exact ``incompatible``.  The descending
    sequence of picked elements is returned as a chain filter.
    """
    bits = list(f)
    if rounds < 1:
        raise GameSetupError("rounds must be at least 1")
    if len(bits) < rounds:
        raise GameSetupError("the guide sequence is shorter than the number of rounds")
    move_i = getattr(strategy_i, "move", strategy_i)
    current = None
    chain = []
    pairs = []
    picks = []
    for t in range(rounds):
        p1, p2 = move_i(current, t)
        if current is not None:
            if not (poset.leq(p1, current) and poset.leq(p2, current)):
                raise ConditionViolated(t, "pair does not refine player II's previous pick")
        if not poset.incompatible(p1, p2):
            raise ConditionViolated(t, f"pair <{p1},{p2}> is compatible")
        n = 1 if int(bits[t]) == 0 else 2
        current = p1 if n == 1 else p2
        pairs.append((p1, p2))
        picks.append(n)
        chain.append(current)
    return StarPlay(ChainFilter.make(poset, chain), tuple(pairs), tuple(picks))


# ---------------------------------------------------------------------------
# generic filters from dense opens


def element_set_selector(poset: FinitePoset, dense_elements):
    """Selector for a dense open given by an element set.

    Returns the first member of the set, in the poset's element order,
    that lies strictly below the input (not necessarily a least one: the
    Baire game needs only some member below), else the input itself when
    it lies in the set; returns None when the set is not dense below the
    input.  A name the poset lacks, in the set or as the input, raises
    UnknownElement.
    """
    dense, down, elements = poset.mask_of(dense_elements), poset.down_masks, poset.elements

    def select(p):
        i = poset.index(p)
        below = down[i] & dense & ~(1 << i)
        if below:
            return elements[_bits(below)[0]]
        return p if dense >> i & 1 else None

    return select


def is_dense_elements(poset: FinitePoset, dense_elements) -> bool:
    """True when every element lies above a member of the set.

    On a finite poset that is exactly when the set holds every minimal
    element: a minimal p has only itself below it, and every element lies
    above a minimal one.  A name the poset lacks raises UnknownElement.
    """
    dense = poset.mask_of(dense_elements)
    return all(dense >> i & 1 for i in poset.minimal_indices())


def baire_generic_filter(poset, selectors, start, rounds: int) -> ChainFilter:
    """Descend through the supplied dense opens, one selector per round.

    Selectors cycle when there are fewer than ``rounds``.  Every returned
    element must lie below the current one; anything else (or None)
    raises SelectorFailed, which signals that the selector's set is not
    dense.  On a finite poset the generated filter extends to a maximal
    filter lying in every visited dense open.
    """
    if rounds < 1:
        raise GameSetupError("rounds must be at least 1")
    if not selectors:
        raise GameSetupError("at least one dense-open selector is required")
    current = start
    chain = [start]
    for i in range(rounds):
        sel = selectors[i % len(selectors)]
        q = sel(current)
        if q is None:
            raise SelectorFailed(i, current, "no element of the dense open below this point")
        if not poset.leq(q, current):
            raise SelectorFailed(i, current, f"returned {q!r}, which is not below")
        chain.append(q)
        current = q
    return ChainFilter.make(poset, chain)


def landing_filter(poset: FinitePoset, play: ChainFilter) -> Filter:
    """Extend the chain's generated filter to a maximal filter of a finite poset."""
    return extend_to_maximal(poset, principal(poset, play.last()))
