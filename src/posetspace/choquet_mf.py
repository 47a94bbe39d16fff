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

A ``ConditionSystem`` numbers each play once, when first reached, and
fills its per-play tables then; a condition's plays are an int mask over
the indices.  The order, the four well-formedness rules and the common
refinement are mask operations on those tables; tuple plays appear only
at the boundary.  A depth that must give more than MAX_CONDITIONS
conditions, or a deep one, is refused before its plays are built.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

from .poset_core import FinitePoset, PosetError, _bits
from .constructions import FiniteTopSpace

# the most conditions a check builds: their number grows doubly
# exponentially in the space (5 points at depth 1 give 327,681)
MAX_CONDITIONS = 2000
REFINEMENT_SAMPLES = 40  # the common refinements a check draws and validates
_FLIP = str.maketrans("01", "10")


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
    mask w.  Inside, play i has a parent and a last move, whose w is its
    final open: ``parent[i]`` and ``step[i]``; play 0 is the empty play.
    ``kids[i]`` maps I's move (v, x) to the play it extends i to,
    ``anc[i]`` masks i's initial segments, i included, and ``via[i]`` maps
    an open v to the mask of the proper ones that i continues on v.
    """

    def __init__(self, space: FiniteTopSpace):
        self.space = space
        self.parent, self.step = [0], [(None, None, space.whole_mask)]
        self.kids, self.anc, self.via = [{}], [1], [{}]
        self._fits = {a: 1 for a in space.basis if a}  # nonempty basic a -> plays a fits in

    def play(self, i) -> tuple:
        """Play i as a tuple of moves."""
        moves = []
        while i:
            moves.append(self.step[i])
            i = self.parent[i]
        return tuple(reversed(moves))

    def _extend(self, p, v, x) -> int:
        """The index of play p extended by I's move (v, x) and II's answer."""
        q = self.kids[p].get((v, x))
        if q is None:
            w = self.space.up[x]  # v is open and holds x, so U_x lies inside it
            q = self.kids[p][v, x] = len(self.step)
            self.parent.append(p)
            self.step.append((v, x, w))
            self.kids.append({})
            self.anc.append(self.anc[p] | 1 << q)
            via = self.via[p].copy()
            via[v] = via.get(v, 0) | 1 << p
            self.via.append(via)
            for a in self._fits:
                if not a & ~w:
                    self._fits[a] |= 1 << q
        return q

    def _index(self, play) -> int:
        """The index of a tuple play, numbered if new; rule 2 is checked move by move."""
        p = 0
        for j, step in enumerate(play):
            if not _is_move(step):
                raise ConditionRequirementViolation(2, f"move {j} is not an (open, point, answer) triple")
            v, x, w = step
            if not self.space.is_open(v) or not v:
                problem = "player I's set is not a nonempty open"
            elif v & ~self.step[p][2]:
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
        """The condition (a, mask) after rules 1, 3 and 4; rule 2 held as its plays were numbered.

        Rule 3 asks for each play's initial segments.  A play is numbered after them, so the
        last play left answers for them too, and they leave with it.
        """
        if a not in self._fits:
            raise ConditionRequirementViolation(1, "the designated set is not a nonempty basic open")
        anc, rest = self.anc, mask
        while rest:
            top = anc[rest.bit_length() - 1]
            if top & ~mask:
                break
            rest &= ~top
        if rest:  # name the shortest missing segment above the lowest missing parent
            missing = 0
            for q in _bits(mask):
                missing |= 1 << self.parent[q]
            missing &= ~mask
            m = (missing & -missing).bit_length() - 1
            while m and not mask >> self.parent[m] & 1:
                m = self.parent[m]
            raise ConditionRequirementViolation(
                3, f"missing initial segment of length {len(self.play(m))} of a play")
        if mask & ~self._fits[a]:
            raise ConditionRequirementViolation(4, "the designated set leaves the final open of a play")
        return Condition(self, a, mask)

    def _through(self, c1: "Condition") -> dict:
        """Designated set v -> the mask of the parents of c1's proper plays last played on v:
        the union of ``via`` over c1's plays that no play of c1 extends."""
        through, rest, via, anc = {}, c1.mask, self.via, self.anc
        while rest:
            q = rest.bit_length() - 1  # the plays left that extend q were numbered after it
            if not through:
                through = via[q].copy()
            else:
                for v, parents in via[q].items():
                    through[v] = through.get(v, 0) | parents
            rest &= ~anc[q]
        return through

    def up_masks(self, conditions) -> tuple:
        """The up masks and the down masks of the order among ``conditions``, bit i set in row i.

        c1 < c2 puts c2's plays inside c1's: the order is transitive and c2 holds fewer plays.
        So rows are built fewest plays first, and c1's row takes in the row of each condition
        found above it.  Tested, most plays first: those not yet in the row whose set one of c1's
        plays was last played on, with no more plays than their parents there, until the row
        holds all that are left.
        """
        counts = [c.mask.bit_count() for c in conditions]
        order = sorted(range(len(conditions)), key=counts.__getitem__)
        by_set, ahead = {}, [0] * len(conditions)  # ahead[j]: the conditions before j in its group
        for j in order:
            sizes, group = by_set.setdefault(conditions[j].a, ([], []))  # fewest plays first
            if group:
                ahead[j] = ahead[group[-1][0]] | 1 << group[-1][0]
            sizes.append(counts[j])
            group.append((j, conditions[j].mask))
        up, found = [0] * len(conditions), [[] for _ in conditions]
        for i in order:
            c1, row = conditions[i], 1 << i
            for v, parents in self._through(c1).items():
                if v in by_set and not c1.a & ~v:
                    sizes, group = by_set[v]
                    outside = ~parents
                    for j, mask in reversed(group[:bisect_right(sizes, parents.bit_count())]):
                        if not mask & outside and not row >> j & 1:
                            row |= up[j]
                            found[j].append(i)
                            if ahead[j] & row == ahead[j]:  # the rest of the group is in the row
                                break
            up[i] = row
        down = [1 << j for j in range(len(conditions))]
        for j in reversed(order):  # the pairs found, the other way: most plays first
            for i in found[j]:
                down[j] |= down[i]
        return up, down

    def lt(self, c1: "Condition", *c2s: "Condition") -> bool:
        """Strictly below each of ``c2s``: every play of c2 extends one step into c1 through c2's set."""
        for c2 in c2s:
            if c2.system is not c1.system:
                raise MixedSpaces("conditions live over different spaces or strategies")
        through = self._through(c1)
        for c2 in c2s:
            if c1.a & ~c2.a or c2.mask & ~through.get(c2.a, 0):
                return False
        return True

    def refine(self, c1: "Condition", c2: "Condition", x: int) -> "Condition":
        """A common refinement through a shared point of the designated sets.

        Every play of either condition is extended one step through its owner's set and the
        point x, and II answers U_x; the set, the least basic open inside the answers, is U_x.
        """
        if c1.system is not c2.system:
            raise MixedSpaces("conditions live over different spaces or strategies")
        if not (c1.a & c2.a) >> x & 1:
            raise PreconditionFailed(f"point {x} is outside a designated set")
        mask, kids = c1.mask | c2.mask, self.kids
        for a, rest in ((c1.a, mask),) if c1.a == c2.a else ((c1.a, c1.mask), (c2.a, c2.mask)):
            move = (a, x)
            while rest:
                low = rest & -rest
                p = low.bit_length() - 1
                q = kids[p].get(move)
                mask |= 1 << (self._extend(p, a, x) if q is None else q)
                rest ^= low
        return self._checked(self.space.up[x], mask)

    # -- enumeration ------------------------------------------------------

    def _number(self, depth: int) -> int:
        """Number every play of at most ``depth`` rounds, a round at a time; return them as a mask.

        Player I's moves after a play are the nonempty opens inside its final open, ordered by
        their points, each with its points x in turn: so on a fresh system play indices follow
        ``_play_key``.  Past MAX_CONDITIONS plays raises TooManyConditions: each play gives a
        condition of its own.
        """
        plays, start, moves = [0], 0, {}
        for _ in range(depth):
            end = len(plays)
            for p in plays[start:end]:
                room = self.step[p][2]
                if room not in moves:
                    inside = [v for v in self.space.opens if v and not v & ~room]
                    moves[room] = [(v, x) for v in sorted(inside, key=lambda v: tuple(_bits(v))) for x in _bits(v)]
                for v, x in moves[room]:
                    plays.append(self._extend(p, v, x))
                    if len(plays) > MAX_CONDITIONS:
                        raise TooManyConditions(MAX_CONDITIONS + 1, depth, exact=False)
            if len(plays) == end:
                break
            start = end
        return sum(1 << q for q in plays)

    def _closed_sets(self, allowed: int):
        """The closed play sets inside ``allowed``, which holds the empty play and each member's parent.
        Depth first on a stack, a set takes the lowest play of its frontier, the plays of ``allowed`` whose
        parent it holds, or drops that play for good: so each set is built once, by one OR."""
        children = [0] * len(self.step)  # per play, the mask of its children in allowed
        for q in _bits(allowed & ~1):
            children[self.parent[q]] |= 1 << q
        stack = [(1, children[0])]
        while stack:
            have, frontier = stack.pop()
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                stack.append((have | low, frontier | children[low.bit_length() - 1]))
            yield have

    def _count(self, allowed: int) -> int:
        """How many sets ``_closed_sets`` gives: per play, the product over its children of one more than theirs."""
        count = [1] * len(self.step)
        for q in reversed(_bits(allowed & ~1)):  # a play is numbered after its parent
            count[self.parent[q]] *= 1 + count[q]
        return count[0]

    def enumerate_conditions(self, depth: int):
        """All conditions whose plays have at most ``depth`` rounds; TooManyConditions past MAX_CONDITIONS.

        Each play p gives a condition: p's initial segments, with a basic open around p's last
        point inside its final open.  On a nonempty space player I can always play II's last
        answer again, so there are at least depth + 1 plays, and a depth of MAX_CONDITIONS or
        more is refused before any play is numbered.  Those with set a are the closed sets of the plays a fits in.
        """
        if len(self.space) and depth >= MAX_CONDITIONS:
            raise TooManyConditions(depth + 1, depth, exact=False)
        within = self._number(depth)
        total = sum(self._count(fits & within) for fits in self._fits.values())
        if total > MAX_CONDITIONS:
            raise TooManyConditions(total, depth)
        return [self._checked(a, mask) for a, fits in self._fits.items()
                for mask in self._closed_sets(fits & within)]


def _is_move(m):  # open mask, point index, answer mask: three ints, none negative
    return len(m) == 3 and all(isinstance(e, int) and e >= 0 for e in m)


def _play_key(play):  # a move that is not a triple of ints keys as (): rule 2 refuses it, not the sort
    return len(play), tuple((tuple(_bits(m[0])), m[1], tuple(_bits(m[2]))) if _is_move(m) else () for m in play)


class Condition:
    """A designated set ``a``, a point mask, with plays ``mask`` over ``system``'s play indices.

    Not a named tuple: a tuple subclass keeps tuple.__ne__, so != would disagree with __eq__.
    """

    __slots__ = ("system", "a", "mask")

    def __init__(self, system: ConditionSystem, a: int, mask: int):
        self.system, self.a, self.mask = system, a, mask

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
        shared = sets[i] & sets[j]
        for _ in range(t - col[j]):  # drop the lower shared points
            shared &= shared - 1
        out.append((i, j, (shared & -shared).bit_length() - 1))
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


def mf_characterization_check(space: FiniteTopSpace, depth: int, seed: int = 0) -> CharacterizationReport:
    """Check the point correspondence of the bounded condition poset.

    Requires a T1 (hence discrete) finite space, and at most
    MAX_CONDITIONS conditions at the depth.  Enumerates conditions to
    the given play depth, orders them, and inspects every maximal
    filter of the resulting finite poset, the up-set of a minimal
    element: the designated sets of its members must intersect in a
    single point (filters that keep several points are reported as
    depth-too-small, not fatal).  The point map is accepted as a
    bijection when it is total and onto and when a condition belongs to
    some filter mapped to a point exactly when the point lies in the
    condition's designated set; the truncation sends many filters to one
    point, so the fibers, not the raw filters, are matched with the
    space.  A seeded uniform sample of REFINEMENT_SAMPLES common
    refinements is also validated both ways.
    """
    if depth < 0:
        raise BadDepth(f"depth must be at least 0, got {depth}")
    if not space.is_t1():
        raise PreconditionFailed("the space is not T1")
    system = ConditionSystem(space)
    conditions = system.enumerate_conditions(depth)
    # sorted by the set's points, the play count, then the sorted play keys.  The system is
    # fresh, so play indices follow play keys, and of two masks with as many plays the one
    # holding their lowest differing bit comes first: its flipped bits read smaller from bit 0
    points = {a: tuple(_bits(a)) for a in system._fits}
    conditions.sort(key=lambda c: (points[c.a], c.mask.bit_count(), bin(c.mask)[:1:-1].translate(_FLIP)))
    up, down = system.up_masks(conditions)
    poset = FinitePoset([f"c{i}" for i in range(len(conditions))], up, f"{space.name}|conditions", down)
    generators = poset.minimal_indices()

    holders = {}  # designated set -> the mask of the conditions with that set
    for i, c in enumerate(conditions):
        holders[c.a] = holders.get(c.a, 0) | 1 << i
    phi, stuck = {}, []
    for k, g in enumerate(generators):
        inter, members = space.whole_mask, poset.up_mask(g)
        for a, held in holders.items():
            if members & held:
                inter &= a
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
        reach[x] |= poset.up_mask(generators[k])
    for a, held in holders.items():
        for x in _bits(a):
            holds[x] |= held
    equivalence = reach == holds

    checked, refinements_ok = 0, True
    for i, j, x in refinement_sample(conditions, REFINEMENT_SAMPLES, random.Random(seed)):
        c = system.refine(conditions[i], conditions[j], x)
        checked += 1
        if not (system.lt(c, conditions[i], conditions[j]) and c.a >> x & 1):
            refinements_ok = False
            break

    bijection = total and surjective and equivalence
    failure = ("some maximal filter keeps more than one point" if not total else
               "the point map misses a point of the space" if not surjective else
               "membership equivalence fails" if not equivalence else "")
    return CharacterizationReport(len(conditions), len(generators), phi, bijection, tuple(stuck),
                                  equivalence, checked, refinements_ok, poset, tuple(conditions), failure)
