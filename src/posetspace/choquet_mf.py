"""Conditions built from finite Choquet plays, and the point map they induce.

A condition packs a basic open set together with finitely many partial
plays of the strong Choquet game that follow one fixed player-II
strategy.  Ordered by one-step play extension, the conditions form a
poset whose maximal filters pin down single points of a finite discrete
space; this module enumerates bounded-depth slices of that poset and
checks the correspondence by brute force.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .poset_core import FinitePoset, PosetError, _bits
from .constructions import FiniteTopSpace
from .topology import PosetSpace

# the most conditions a check builds: their number grows doubly
# exponentially in the space (5 points at depth 1 give 327,681)
MAX_CONDITIONS = 2000


class ConditionRequirementViolation(PosetError):
    """A candidate condition breaks one of the four well-formedness rules.

    1. the designated set is a nonempty basic open;
    2. every play follows the fixed player-II strategy and the game rules;
    3. the play list is closed under initial segments ending with a
       player-II move (the empty play included);
    4. the designated set sits inside the final open of every play.
    """

    def __init__(self, requirement: int, detail: str):
        super().__init__(f"requirement {requirement} violated: {detail}")
        self.requirement = requirement
        self.detail = detail


class MixedSpaces(PosetError):
    pass


class PreconditionFailed(PosetError):
    pass


class BadDepth(PosetError, ValueError):
    """A condition-poset depth below 0."""


class TooManyConditions(PosetError):
    """A depth at which the space has more than MAX_CONDITIONS conditions."""

    def __init__(self, count, depth):
        super().__init__(f"depth {depth} gives {count} conditions, more than the {MAX_CONDITIONS} a check builds")
        self.count = count


def canonical_strategy_ii(space: FiniteTopSpace):
    """Answer with the least basic open around the point inside the constraint."""

    def s_ii(prefix, v, x):
        b = space.least_basic_containing(x, v)
        if b is None:
            raise PosetError("basis does not refine the played open around the point")
        return b

    return s_ii


class ConditionSystem:
    """Conditions over one space and one fixed player-II strategy.

    A designated set is a point mask, and a play a tuple of moves
    ``(v, x, w)``: player I's open mask v, its point index x, and player
    II's answer mask w.
    """

    def __init__(self, space: FiniteTopSpace, s_ii=None):
        self.space = space
        self.s_ii = s_ii if s_ii is not None else canonical_strategy_ii(space)

    def final_open(self, play) -> int:
        return play[-1][2] if play else self.space.whole_mask

    def _check_play(self, play):
        prev_open = self.space.whole_mask
        for j, step in enumerate(play):
            if len(step) != 3:
                return f"move {j} is not an (open, point, answer) triple"
            v, x, w = step
            if not self.space.is_open(v) or not v:
                return f"move {j}: player I's set is not a nonempty open"
            if v & ~prev_open:
                return f"move {j}: player I's set leaves player II's last answer"
            if not v >> x & 1:
                return f"move {j}: the chosen point is outside player I's set"
            if w != self.s_ii(play[:j], v, x):
                return f"move {j}: player II's answer does not follow the strategy"
            if w & ~v or not w >> x & 1:
                return f"move {j}: the strategy produced an illegal answer"
            prev_open = w
        return None

    def validate(self, a, plays) -> "Condition":
        plays = frozenset(tuple(tuple(step) for step in p) for p in plays)
        if not a or a not in self.space.basis:
            raise ConditionRequirementViolation(1, "the designated set is not a nonempty basic open")
        for p in sorted(plays, key=_play_key):
            problem = self._check_play(p)
            if problem:
                raise ConditionRequirementViolation(2, problem)
        for p in plays:
            for j in range(len(p) + 1):
                if p[:j] not in plays:
                    raise ConditionRequirementViolation(
                        3, f"missing initial segment of length {j} of a play"
                    )
        for p in plays:
            if a & ~self.final_open(p):
                raise ConditionRequirementViolation(
                    4, "the designated set leaves the final open of a play"
                )
        return Condition(self, a, plays)

    def extend_play(self, play, a, x):
        step = (a, x, self.s_ii(play, a, x))
        return tuple(play) + (step,)

    def lt(self, c1: "Condition", c2: "Condition") -> bool:
        """Strictly below: every play of c2 extends one step into c1 through c2's set."""
        if c1.system is not c2.system:
            raise MixedSpaces("conditions live over different spaces or strategies")
        if c1.a & ~c2.a:
            return False
        for p in c2.plays:
            if not any(
                self.extend_play(p, c2.a, x) in c1.plays for x in _bits(c2.a)
            ):
                return False
        return True

    def refine(self, c1: "Condition", c2: "Condition", x: int) -> "Condition":
        """A common refinement through a shared point of the designated sets.

        Every play of either condition is extended one step through the
        owner's designated set and the given point, the result is closed
        under initial segments, and the designated set becomes the least
        basic open around the point inside all final opens.
        """
        if c1.system is not c2.system:
            raise MixedSpaces("conditions live over different spaces or strategies")
        if not (c1.a & c2.a) >> x & 1:
            raise PreconditionFailed(f"point {x} is outside a designated set")
        plays = set()
        for c in (c1, c2):
            for p in c.plays:
                plays.add(self.extend_play(p, c.a, x))
        for p in list(plays):
            for j in range(len(p) + 1):
                plays.add(p[:j])
        constraint = self.space.whole_mask
        for p in plays:
            constraint &= self.final_open(p)
        a = self.space.least_basic_containing(x, constraint)
        if a is None:
            raise PreconditionFailed("no basic open around the point fits inside the final opens")
        return self.validate(a, plays)

    # -- enumeration ------------------------------------------------------

    def all_plays(self, depth: int):
        """Every strategy-following play of at most ``depth`` rounds.

        Player I's moves after a play are the nonempty opens inside its
        final open, in order; they are listed once per distinct final open.
        """
        inside = {}
        plays = [()]
        frontier = [()]
        for _ in range(depth):
            nxt = []
            for p in frontier:
                room = self.final_open(p)
                if room not in inside:
                    inside[room] = [v for v in self.space.opens if v and not v & ~room]
                for v in inside[room]:
                    for x in _bits(v):
                        nxt.append(self.extend_play(p, v, x))
            plays.extend(nxt)
            frontier = nxt
        return plays

    def _play_trees(self, depth: int):
        """Per nonempty basic open a, the play tree pruned to the plays a fits in.

        Yields ``(a, kids)`` with ``kids[p]`` the one-round extensions of
        play p whose final open holds a.  The conditions with designated
        set a are the prefix-closed play sets of this tree.
        """
        plays = self.all_plays(depth)
        for a in self.space.basis:
            if a:
                kids = {p: [] for p in plays}
                for p in plays[1:]:
                    if not a & ~self.final_open(p):
                        kids[p[:-1]].append(p)
                yield a, kids

    def count_conditions(self, depth: int) -> int:
        """How many conditions have plays of at most ``depth`` rounds, without building them."""

        def count(kids, p):  # prefix-closed play sets of the subtree at p that hold p
            out = 1
            for kid in kids[p]:
                out *= 1 + count(kids, kid)
            return out

        return sum(count(kids, ()) for _, kids in self._play_trees(depth))

    def enumerate_conditions(self, depth: int):
        """All conditions whose plays have at most ``depth`` rounds.

        Raises TooManyConditions, before building any, when there are
        more than MAX_CONDITIONS.
        """
        total = self.count_conditions(depth)
        if total > MAX_CONDITIONS:
            raise TooManyConditions(total, depth)

        def closed_subsets(kids, p):  # the sets that count() counts
            combos = [frozenset([p])]
            for kid in kids[p]:
                combos = [c | extra for c in combos for extra in [frozenset()] + closed_subsets(kids, kid)]
            return combos

        return [self.validate(a, playset) for a, kids in self._play_trees(depth)
                for playset in closed_subsets(kids, ())]


def _play_key(play):
    return (len(play), tuple((tuple(_bits(v)), x, tuple(_bits(w))) for v, x, w in play))


@dataclass(frozen=True)
class Condition:
    system: ConditionSystem = field(compare=False, hash=False)
    a: int  # the designated set, a point mask
    plays: frozenset

    def __str__(self):
        return (
            f"<{self.system.space.set_str(self.a)}; "
            + f"{len(self.plays) - 1} proper plays>"
        )

    def key(self):
        return (tuple(_bits(self.a)), len(self.plays), tuple(sorted(map(_play_key, self.plays))))


def validate_condition(space: FiniteTopSpace, s_ii, a, plays) -> Condition:
    return ConditionSystem(space, s_ii).validate(a, plays)


def condition_lt(c1: Condition, c2: Condition) -> bool:
    return c1.system.lt(c1, c2)


def refine_conditions(c1: Condition, c2: Condition, x: int) -> Condition:
    return c1.system.refine(c1, c2, x)


@dataclass(frozen=True)
class CharacterizationReport:
    condition_count: int
    filter_count: int
    phi: dict  # maximal-filter index -> space point index
    bijection: bool
    depth_too_small: tuple  # filters whose intersection kept more than one point
    membership_equivalence: bool
    refinements_checked: int
    refinements_ok: bool
    poset: FinitePoset
    conditions: tuple
    failure: str = ""


def mf_characterization_check(space: FiniteTopSpace, depth: int, s_ii=None,
                              refinement_samples: int = 40, seed: int = 0) -> CharacterizationReport:
    """Check the point correspondence of the bounded condition poset.

    Requires a T1 (hence discrete) finite space, and at most
    MAX_CONDITIONS conditions at the depth.  Enumerates conditions to
    the given play depth, orders them, and inspects every maximal
    filter of the resulting finite poset: the designated sets of its
    members must intersect in a single point (filters that keep several
    points are reported as depth-too-small, not fatal).  The point map is
    accepted as a bijection when it is total and onto and when a
    condition belongs to some filter mapped to a point exactly when the
    point lies in the condition's designated set; the truncation sends
    many filters to one point, so the fibers, not the raw filters, are
    matched with the space.  A seeded sample of common refinements is
    also validated both ways.
    """
    if depth < 0:
        raise BadDepth(f"depth must be at least 0, got {depth}")
    if not space.is_t1():
        raise PreconditionFailed("the space is not T1")
    system = ConditionSystem(space, s_ii)
    conditions = sorted(system.enumerate_conditions(depth), key=Condition.key)
    ids = [f"c{i}" for i in range(len(conditions))]
    masks = [
        sum(1 << j for j, cj in enumerate(conditions) if i == j or system.lt(ci, cj))
        for i, ci in enumerate(conditions)
    ]
    poset = FinitePoset(ids, masks, f"{space.name}|conditions")
    cond_space = PosetSpace(poset, "mf")

    phi = {}
    stuck = []
    for k, f in enumerate(cond_space.points):
        inter = space.whole_mask
        for c in _bits(f.mask()):
            inter &= conditions[c].a
        if inter.bit_count() == 1:
            phi[k] = inter.bit_length() - 1
        else:
            stuck.append(k)

    surjective = set(phi.values()) == set(range(len(space.points)))
    total = not stuck

    # a condition sits in some filter sent to x exactly when x is in its set
    equivalence = True
    for i, c in enumerate(conditions):
        reachable = {phi[k] for k in phi if poset.leq_idx(cond_space.generators[k], i)}
        if reachable != set(_bits(c.a)):
            equivalence = False
            break

    rng = random.Random(seed)
    pool = [
        (i, j, x)
        for i in range(len(conditions))
        for j in range(len(conditions))
        for x in _bits(conditions[i].a & conditions[j].a)
    ]
    rng.shuffle(pool)
    checked = 0
    refinements_ok = True
    for i, j, x in pool[:refinement_samples]:
        c = system.refine(conditions[i], conditions[j], x)
        checked += 1
        if not (system.lt(c, conditions[i]) and system.lt(c, conditions[j]) and c.a >> x & 1):
            refinements_ok = False
            break

    bijection = total and surjective and equivalence
    failure = ""
    if not total:
        failure = "some maximal filter keeps more than one point"
    elif not surjective:
        failure = "the point map misses a point of the space"
    elif not equivalence:
        failure = "membership equivalence fails"
    return CharacterizationReport(
        condition_count=len(conditions),
        filter_count=len(cond_space.points),
        phi=phi,
        bijection=bijection,
        depth_too_small=tuple(stuck),
        membership_equivalence=equivalence,
        refinements_checked=checked,
        refinements_ok=refinements_ok,
        poset=poset,
        conditions=tuple(conditions),
        failure=failure,
    )
