"""Conditions built from finite Choquet plays, and the point map they induce.

A condition packs a basic open set together with finitely many partial
plays of the strong Choquet game that follow one fixed player-II
strategy: II answers I's move (v, x) with U_x, the minimal open of x, a
basis member inside every open holding x: so it is the least basic open
around x inside v.  Ordered by one-step play extension, the conditions
form a poset whose maximal filters pin down single points of a finite
discrete space (Kechris, *Classical Descriptive Set Theory*, GTM 156,
8.D); this module enumerates bounded-depth slices of that poset and
checks the correspondence.

A ``ConditionSystem`` numbers each play once, when first reached: play i
keeps its parent's index, its last move (v, x, w) and its final open, and
a condition's plays are an int mask over the indices; a play's sort key
is built only when conditions are sorted.
The order, the four well-formedness rules and the common refinement are
mask operations; tuple plays appear only at the boundary.  A depth that
must give more than MAX_CONDITIONS conditions, or a deep one, is refused
before its plays are built.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

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
    """A depth with more than MAX_CONDITIONS conditions; ``count`` is a lower bound unless ``exact``."""

    def __init__(self, count, depth, exact=True):
        super().__init__(f"depth {depth} gives {'' if exact else 'at least '}{count} conditions, "
                         f"more than the {MAX_CONDITIONS} a check builds")
        self.count = count


class ConditionSystem:
    """Conditions over one space and the fixed player-II strategy.

    Player II answers I's move (v, x) with U_x = ``space.up[x]``, the least
    basic open around x inside the open v.  A designated set is a point
    mask.  At the boundary a play is a tuple of moves ``(v, x, w)``:
    player I's open mask v, its point index x, and player II's answer
    mask w.  Inside, play i has a parent, a last move and a final open:
    ``parent[i]``, ``step[i]`` and ``final[i]``; play 0 is the empty play.
    """

    def __init__(self, space: FiniteTopSpace):
        self.space = space
        self.parent, self.step, self.final, self._keys = [0], [None], [space.whole_mask], [(0, ())]
        self._ext = {}  # (play, v, x) -> the play extended by I's move (v, x) and II's answer
        self._fits = {a: 1 for a in space.basis if a}  # nonempty basic a -> plays a fits in

    def play(self, i) -> tuple:
        """Play i as a tuple of moves."""
        moves = []
        while i:
            moves.append(self.step[i])
            i = self.parent[i]
        return tuple(reversed(moves))

    def key(self, i) -> tuple:
        """Play i's ``_play_key``; the first call after new plays were numbered builds theirs."""
        for q in range(len(self._keys), len(self.step)):  # a play is numbered after its parent
            v, x, w = self.step[q]
            length, moves = self._keys[self.parent[q]]
            self._keys.append((length + 1, moves + ((tuple(_bits(v)), x, tuple(_bits(w))),)))
        return self._keys[i]

    def _extend(self, p, v, x) -> int:
        """The index of play p extended by I's move (v, x) and II's answer."""
        q = self._ext.get((p, v, x))
        if q is None:
            w = self.space.up[x]  # v is open and holds x, so U_x lies inside it
            q = self._ext[p, v, x] = len(self.step)
            self.parent.append(p)
            self.step.append((v, x, w))
            self.final.append(w)
            for a in self._fits:
                if not a & ~w:
                    self._fits[a] |= 1 << q
        return q

    def _index(self, play) -> int:
        """The index of a tuple play, numbered if new; rule 2 is checked move by move."""
        p = 0
        for j, step in enumerate(play):
            if len(step) != 3:
                raise ConditionRequirementViolation(2, f"move {j} is not an (open, point, answer) triple")
            v, x, w = step
            if not self.space.is_open(v) or not v:
                problem = "player I's set is not a nonempty open"
            elif v & ~self.final[p]:
                problem = "player I's set leaves player II's last answer"
            elif not v >> x & 1:
                problem = "the chosen point is outside player I's set"
            else:
                p = self._extend(p, v, x)
                problem = self.step[p][2] != w and "player II's answer does not follow the strategy"
            if problem:
                raise ConditionRequirementViolation(2, f"move {j}: {problem}")
        return p

    def validate(self, a, plays) -> "Condition":
        plays = frozenset(tuple(tuple(step) for step in p) for p in plays)
        mask = 0
        if a in self._fits:  # otherwise rule 1 fails first
            for p in sorted(plays, key=_play_key):
                mask |= 1 << self._index(p)
        return self._checked(a, mask)

    def _checked(self, a, mask) -> "Condition":
        """The condition (a, mask) after rules 1, 3 and 4; rule 2 held as its plays were numbered."""
        if a not in self._fits:
            raise ConditionRequirementViolation(1, "the designated set is not a nonempty basic open")
        missing = 0
        for q in _bits(mask):
            missing |= 1 << self.parent[q]
        missing &= ~mask
        if missing:
            m = (missing & -missing).bit_length() - 1
            while m and not mask >> self.parent[m] & 1:
                m = self.parent[m]
            raise ConditionRequirementViolation(
                3, f"missing initial segment of length {len(self.play(m))} of a play")
        if mask & ~self._fits[a]:
            raise ConditionRequirementViolation(4, "the designated set leaves the final open of a play")
        return Condition(self, a, mask)

    def _through(self, c1: "Condition") -> dict:
        """Designated set v -> the mask of the parents of c1's proper plays last played on v."""
        through = {}
        for q in _bits(c1.mask & ~1):
            v = self.step[q][0]
            through[v] = through.get(v, 0) | 1 << self.parent[q]
        return through

    def up_masks(self, conditions) -> list:
        """Per condition c1, the mask of c1 and of the conditions it lies strictly below; only
        those whose set is one that a play of c1 was last played on are tested."""
        by_set = {}
        for j, c2 in enumerate(conditions):
            by_set.setdefault(c2.a, []).append((j, c2.mask))
        return [sum((1 << j for v, parents in self._through(c1).items() if not c1.a & ~v
                     for j, mask in by_set.get(v, ()) if not mask & ~parents), 1 << i)
                for i, c1 in enumerate(conditions)]

    def lt(self, c1: "Condition", *c2s: "Condition") -> bool:
        """Strictly below each of ``c2s``: every play of c2 extends one step into c1 through c2's set."""
        if any(c2.system is not c1.system for c2 in c2s):
            raise MixedSpaces("conditions live over different spaces or strategies")
        through = self._through(c1)
        return all(not c1.a & ~c2.a and not c2.mask & ~through.get(c2.a, 0) for c2 in c2s)

    def refine(self, c1: "Condition", c2: "Condition", x: int) -> "Condition":
        """A common refinement through a shared point of the designated sets.

        Every play of either condition is extended one step through its owner's set and the
        point x, and II answers U_x; the set, the least basic open inside the answers, is U_x.
        """
        if c1.system is not c2.system:
            raise MixedSpaces("conditions live over different spaces or strategies")
        if not (c1.a & c2.a) >> x & 1:
            raise PreconditionFailed(f"point {x} is outside a designated set")
        mask = c1.mask | c2.mask
        for c in (c1, c2):
            for p in _bits(c.mask):
                mask |= 1 << self._extend(p, c.a, x)
        return self._checked(self.space.up[x], mask)

    # -- enumeration ------------------------------------------------------

    def _number(self, depth: int, cap=None) -> int:
        """Number every play of at most ``depth`` rounds, a round at a time; return them as a mask.

        Player I's moves after a play are the nonempty opens inside its final open.  Past ``cap``
        plays raises TooManyConditions: each play gives a condition of its own.
        """
        plays, start, moves = [0], 0, {}
        for _ in range(depth):
            end = len(plays)
            for p in plays[start:end]:
                room = self.final[p]
                if room not in moves:
                    moves[room] = [v for v in self.space.opens if v and not v & ~room]
                for v in moves[room]:
                    for x in _bits(v):
                        plays.append(self._extend(p, v, x))
                        if cap is not None and len(plays) > cap:
                            raise TooManyConditions(cap + 1, depth, exact=False)
            if len(plays) == end:
                break
            start = end
        return sum(1 << q for q in plays)

    def _closed_sets(self, allowed: int, count=False):
        """The closed play sets inside ``allowed`` that hold the empty play, or their number.

        Bottom-up by descending index (a play is numbered after its parent): the sets of
        the subtree at p are p with, per child, nothing or one of the child's sets.
        """
        below = {}
        for q in sorted(_bits(allowed), reverse=True):
            mine = below.pop(q, 1 if count else [1 << q])
            if not q:
                return mine
            p = self.parent[q]
            if allowed >> p & 1:
                have = below.get(p, 1 if count else [1 << p])
                below[p] = have * (1 + mine) if count else [h | s for h in have for s in (0, *mine)]
        return 0 if count else []

    def count_conditions(self, depth: int, cap=None) -> int:
        """How many conditions have plays of at most ``depth`` rounds, without building them.

        Those with set a are the closed sets of the plays a fits in; see ``_number`` for ``cap``.
        """
        within = self._number(depth, cap)
        return sum(self._closed_sets(fits & within, count=True) for fits in self._fits.values())

    def enumerate_conditions(self, depth: int):
        """All conditions whose plays have at most ``depth`` rounds; TooManyConditions past MAX_CONDITIONS.

        Each play p gives a condition: p's initial segments, with a basic open around p's last
        point inside its final open.  On a nonempty space player I can always play II's last
        answer again, so there are at least depth + 1 plays, and a depth of MAX_CONDITIONS or
        more is refused before any play is numbered.
        """
        if len(self.space) and depth >= MAX_CONDITIONS:
            raise TooManyConditions(depth + 1, depth, exact=False)
        total = self.count_conditions(depth, MAX_CONDITIONS)
        if total > MAX_CONDITIONS:
            raise TooManyConditions(total, depth)
        within = self._number(depth)  # numbered already: lookups only
        return [self._checked(a, mask) for a, fits in self._fits.items()
                for mask in self._closed_sets(fits & within)]


def _play_key(play):
    return (len(play), tuple((tuple(_bits(v)), x, tuple(_bits(w))) for v, x, w in play))


# a dataclass, not a named tuple: a tuple subclass keeps tuple.__ne__, so != would disagree with __eq__
@dataclass(frozen=True, eq=False)
class Condition:
    system: ConditionSystem
    a: int  # the designated set, a point mask
    mask: int  # the plays, a mask over the system's play indices

    @property
    def plays(self) -> frozenset:
        return frozenset(map(self.system.play, _bits(self.mask)))

    def __eq__(self, other):  # the set and the plays; indices mean something inside one system only
        if not isinstance(other, Condition):
            return NotImplemented
        same = self.mask == other.mask if self.system is other.system else self.plays == other.plays
        return self.a == other.a and same

    def __hash__(self):  # the play count does not depend on the numbering
        return hash((self.a, self.mask.bit_count()))

    def __str__(self):
        return f"<{self.system.space.set_str(self.a)}; {self.mask.bit_count() - 1} proper plays>"

    def key(self):
        """Sort by the set's points, the play count, then the sorted play keys."""
        return tuple(_bits(self.a)), self.mask.bit_count(), tuple(sorted(map(self.system.key, _bits(self.mask))))


def validate_condition(space: FiniteTopSpace, a, plays) -> Condition:
    return ConditionSystem(space).validate(a, plays)


def condition_lt(c1: Condition, c2: Condition) -> bool:
    return c1.system.lt(c1, c2)


def refine_conditions(c1: Condition, c2: Condition, x: int) -> Condition:
    return c1.system.refine(c1, c2, x)


def refinement_sample(conditions, k: int, rng: random.Random) -> list:
    """``k`` distinct triples (i, j, x), x a point of both designated sets, drawn uniformly.

    The pool, every such triple by i, then j, then x, is not built: row i
    holds |a & b| triples per condition j with set b, a being the set of
    condition i, and a draw finds its row and its column by bisecting prefix sums.
    """
    sets = [c.a for c in conditions]
    cols = {a: [0, *accumulate((a & b).bit_count() for b in sets)] for a in set(sets)}
    starts = [0, *accumulate(cols[a][-1] for a in sets)]
    out = []
    for t in rng.sample(range(starts[-1]), min(k, starts[-1])):
        i = bisect_right(starts, t) - 1
        t -= starts[i]
        col = cols[sets[i]]
        j = bisect_right(col, t) - 1
        out.append((i, j, list(_bits(sets[i] & sets[j]))[t - col[j]]))
    return out


class CharacterizationReport(NamedTuple):
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


def mf_characterization_check(space: FiniteTopSpace, depth: int, refinement_samples: int = 40,
                              seed: int = 0) -> CharacterizationReport:
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
    matched with the space.  A seeded uniform sample of common
    refinements is also validated both ways.
    """
    if depth < 0:
        raise BadDepth(f"depth must be at least 0, got {depth}")
    if not space.is_t1():
        raise PreconditionFailed("the space is not T1")
    system = ConditionSystem(space)
    conditions = sorted(system.enumerate_conditions(depth), key=Condition.key)
    poset = FinitePoset([f"c{i}" for i in range(len(conditions))], system.up_masks(conditions),
                        f"{space.name}|conditions")
    cond_space = PosetSpace(poset, "mf")

    phi, stuck = {}, []
    for k, g in enumerate(cond_space.generators):
        inter = space.whole_mask
        for c in _bits(poset.up_mask(g)):
            inter &= conditions[c].a
        if inter.bit_count() == 1:
            phi[k] = inter.bit_length() - 1
        else:
            stuck.append(k)

    surjective = set(phi.values()) == set(range(len(space)))
    total = not stuck

    # a condition sits in some filter sent to x exactly when x is in its set
    # per point: the members of the filters sent to it, and the conditions whose set holds it
    reach, holds = [0] * len(space), [0] * len(space)
    for k, x in phi.items():
        reach[x] |= poset.up_mask(cond_space.generators[k])
    for i, c in enumerate(conditions):
        for x in _bits(c.a):
            holds[x] |= 1 << i
    equivalence = reach == holds

    checked, refinements_ok = 0, True
    for i, j, x in refinement_sample(conditions, refinement_samples, random.Random(seed)):
        c = system.refine(conditions[i], conditions[j], x)
        checked += 1
        if not (system.lt(c, conditions[i], conditions[j]) and c.a >> x & 1):
            refinements_ok = False
            break

    bijection = total and surjective and equivalence
    failure = ("some maximal filter keeps more than one point" if not total else
               "the point map misses a point of the space" if not surjective else
               "membership equivalence fails" if not equivalence else "")
    return CharacterizationReport(len(conditions), len(cond_space), phi, bijection, tuple(stuck),
                                  equivalence, checked, refinements_ok, poset, tuple(conditions), failure)
