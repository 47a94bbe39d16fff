"""Literal definitions, kept as oracles for the library.

The library answers domain-theory questions from the finite-case
theorems: every finite poset is a dcpo, way below is the order, and every
element is compact.  The functions here evaluate the definitions
themselves by scanning all 2^n subsets, so they only suit small posets.
``domain_mismatches`` compares the library's answers with them.

The library enumerates labeled posets, closes relations and tests
antisymmetry on masks; ``labeled_posets``, ``transitive_close`` and
``validate_order`` below run the same searches on a list-of-lists
relation, to a fixpoint, and pair by pair.

The library also builds product orders, basic opens and the open test on
index bitmasks; ``product_up_masks``, ``basic_open`` and ``is_open``
below follow the definitions element by element and filter by filter.
``star_game`` runs the star game's shrinking loop on element names, and
``star_game_masks`` is the library's mask solver as first written, with a
generator over the pairs of a list per element; the library tests each
element's pairs in a plain loop over the down masks met so far.

Filters are generator indices in the library; ``brute_force_classify``
checks the filter definitions on element names, maximality by a scan
over all supersets, and ``maximal_filters`` lists the maximal filters
by a scan over every subset.  ``restriction_homeomorphism`` checks the
restriction map onto a subposet's maximal filters on those name sets,
the openness of its images included, which the library takes from the
discreteness of MF(R).  ``separation``, ``gdelta_uf_claims`` and
``filter_space_opens`` evaluate the separation axioms, the four G-delta
claims of ``gdelta_uf_poset`` and the opens of MF(P) element by element
and filter by filter, where the library uses the finite-case theorems
and masks.

``reduce_reference`` saturates a reduce's seed by walking every subset
of the current set, and ``reduce_lower_bound_reference`` with one entry
per distinct common-lower-bound mask; both test the seed with
``check_seed_is_basis``, point by point.  The library tests each element
below the current set once, and each element's basic open by one mask.
``crown`` builds the poset with 2^m lower-bound masks.

``FiniteTopSpace`` keeps one minimal open neighbourhood per point and
reads its opens off the specialization preorder; ``basis_topology``
closes a basis under unions and validates the opens pair by pair,
``interior`` takes the union of the opens inside a set, and
``completeness`` walks every family of subsets for the set-filters.

The library plays the strong Choquet game on int point masks;
``choquet_referee`` with ``canonical_choquet_ii`` and
``scripted_random_choquet_i`` play it on frozensets of points, each
named by its least member's element index (``point`` finds the filter),
with the literal ``is_open`` and ``basic_open``, check every rule as
stated, and give the same transcripts.  ``answers_meet`` folds II's
answers into their intersection, which the library reads off the last
answer.  This opener draws in every round; the library's skips the
draws once II's last answer is a single point, where every later move
is forced, and its canonical II reuses answers it has already worked out.

The library holds a condition's plays as a mask over numbered play
indices; ``validate_condition``, ``condition_lt`` and
``refine_conditions`` below work on tuple plays, as the definitions
read, with player II's answer found by ``least_basic``, a scan of the
basis, and ``refinement_pool`` lists every triple the refinement sample
draws from; ``refinement_sample`` draws from it by a linear scan over
the rows and columns, where the library bisects prefix sums.
``closed_play_sets`` lists the play sets a condition may hold by testing
every subset of the allowed plays, where the library walks a frontier.
``spot_check_generated`` checks the contract of a generated poset
provider on the elements it reaches.

The library checks a subset order on one row mask per subset;
``order_axioms``, ``order_completeness``, ``filters_meet_order``,
``serialize_order`` and ``order_rel_from_poset`` walk the frozenset of
related pairs, pair by pair and subset by subset, and give the same
reports and violation texts.  ``ball_refinements`` lists formal-ball
refinements with ``Fraction`` arithmetic, where the library counts
integer numerators.

``product_reference``, ``gdelta_mf_reference`` and
``gdelta_uf_reference`` are the product and G-delta constructions as
first written: they project a product point with one comb mask per
coordinate, build the stage order by comparing every pair of stage
tuples, and check claims 2-4 over enumerated ``Filter`` tuples.  The
library reads a product point's projections off its mixed-radix digits,
builds the stage order from per-element pair masks, and checks the
claims over element indices.

``filter_completion_reference`` and ``scott_check_reference`` are the
filter completion and the Scott check as first written: the completion
holds a ``Filter`` per element, and the Scott check builds the whole
completion, reads the Scott opens off its up masks, compares the union
closures of the two families and sorts the ids once per element.  The
library reads the Scott opens off the poset's down masks.
Completion ids are built by ``completion_id``, which quotes a member name
holding a comma, a brace or a quote, as the library does.

``BitLoopConditionSystem`` and ``mf_characterization_reference`` are the
condition check as first written: rule 3, the order table, ``lt`` and
``refine`` walk a play mask one bit at a time, conditions are sorted by
``condition_key``, the literal key built from their tuple plays' keys, and
``FinitePoset`` transposes the up masks.  The library sorts on the masks,
reads rule 3 and the order off per-play tables and builds both mask
directions at once.

``is_dense_elements``, ``element_set_selector`` and ``random_dense_sets``
are the dense-set helpers as first written, on element names with
``leq`` and ``lt``: density by the definition, every element above some
member.  The library reads element masks off ``down_masks`` and takes
density as holding every minimal element.

``poset_text_reference``, ``metric_text_reference``,
``space_text_reference`` and ``input_text_reference`` are the file
readers as first written: one record loop per format, each checking its
own header, declarations and unknown directives, and a dispatcher that
splits the text once to read the kind and the chosen reader splits it
again.  The library reads every format in one pass over the records.
``poset_text_reference`` pins a cyclic file's line by replaying every
prefix of its pairs in turn; the library bisects on the prefix length.

``closed_poset_reference`` is ``validate_poset`` and ``strict_to_poset``
as first written: Warshall's closure rebuilds every row at each step,
the poset transposes its up masks, and the witness is found by a scan in
index order.  The library closes an acyclic relation in one topological
pass that yields both mask directions, and runs Warshall's closure only
on a cycle.
"""

import itertools
import math
import random
from fractions import Fraction

from posetspace import domain_theory as lib, poset_core
from posetspace.choquet_mf import (
    BadDepth, CharacterizationReport, Condition, ConditionRequirementViolation, ConditionSystem, MixedSpaces,
    PreconditionFailed,
)
from posetspace.constructions import (
    INF, FiniteTopSpace, GdeltaMfResult, GdeltaUfResult, MetricAxiomViolation, NotDescending, ProductResult,
    RationalMetric, _set_key,
)
from posetspace.files import ParseError
from posetspace.filters import Filter, bounded, enumerate_filters, filter_generator
from posetspace.games import ConditionViolated, IllegalMove
from posetspace.poset_core import (
    AntisymmetryViolation, FinitePoset, IrreflexivityViolation, PosetError, _bits, incompatible, validate_poset,
)
from posetspace.topology import NotABasis, PosetSpace, ReduceResult, verify_correspondence, verify_restriction


def product_up_masks(factors) -> list:
    """Up-masks of the coordinatewise order on the tuples of ``factors``.

    Tuples are listed in ``itertools.product`` order, the product's
    element order; t lies below s when every coordinate of t lies below
    the same coordinate of s.
    """
    tuples = list(itertools.product(*[range(len(f)) for f in factors]))
    return [
        sum(
            1 << pos for pos, s in enumerate(tuples)
            if all(f.leq_idx(t[k], s[k]) for k, f in enumerate(factors))
        )
        for t in tuples
    ]


def labeled_posets(n) -> list:
    """Every labeled poset on 1..6 elements, from a list-of-lists relation.

    The same search as the library's, pair by pair and branch by branch
    (incomparable, i < j, j < i), with each transitivity test a scan over
    the elements m < i.  The posets transpose their own up masks.
    """
    pairs = [(i, j) for j in range(n) for i in range(j)]
    lt = [[False] * n for _ in range(n)]
    out = []

    def rec(k):
        if k == len(pairs):
            masks = [sum(1 << j for j in range(n) if i == j or lt[i][j]) for i in range(n)]
            out.append(FinitePoset(tuple("abcdefgh"[:n]), masks, f"P{len(out)}"))
            return
        i, j = pairs[k]
        forced_ij = any(lt[i][m] and lt[m][j] for m in range(i))
        forced_ji = any(lt[j][m] and lt[m][i] for m in range(i))
        if forced_ij and forced_ji:
            return
        if not forced_ij and not forced_ji:
            rec(k + 1)
        if not forced_ji and all(
            (not lt[m][i] or lt[m][j]) and (not lt[j][m] or lt[i][m]) for m in range(i)
        ):
            lt[i][j] = True
            rec(k + 1)
            lt[i][j] = False
        if not forced_ij and all(
            (not lt[m][j] or lt[m][i]) and (not lt[i][m] or lt[j][m]) for m in range(i)
        ):
            lt[j][i] = True
            rec(k + 1)
            lt[j][i] = False

    rec(0)
    return out


def transitive_close(masks) -> list:
    """The transitive closure of row masks, by OR-ing in reached rows to a fixpoint."""
    masks = list(masks)
    changed = True
    while changed:
        changed = False
        for i, m in enumerate(masks):
            new = m
            for j in members(m):
                new |= masks[j]
            if new != m:
                masks[i] = new
                changed = True
    return masks


def random_poset_at(rng, n: int, edge_prob: float) -> FinitePoset:
    """``catalog.random_poset``'s draw at any edge probability, with its rng calls in its order.

    Up to 8 elements it is named as ``random_poset`` names them; past that, e0, e1, ...
    """
    masks = [1 << i | sum(1 << j for j in range(i + 1, n) if rng.random() < edge_prob) for i in range(n)]
    names = "abcdefgh"[:n] if n <= 8 else [f"e{i}" for i in range(n)]
    return FinitePoset(tuple(names), transitive_close(masks), "random")


def validate_order(elements, pairs, name="poset") -> FinitePoset:
    """The reflexive-transitive closure of ``pairs`` on distinct ``elements``.

    Raises AntisymmetryViolation for the first two distinct elements that
    lie below each other, scanning pair by pair: i ascending, then j.
    """
    index = {e: i for i, e in enumerate(elements)}
    masks = [1 << i for i in range(len(elements))]
    for a, b in pairs:
        masks[index[a]] |= 1 << index[b]
    masks = transitive_close(masks)
    for i, m in enumerate(masks):
        for j in members(m):
            if j != i and masks[j] >> i & 1:
                raise AntisymmetryViolation(elements[min(i, j)], elements[max(i, j)])
    return FinitePoset(elements, masks, name)


def star_game(poset):
    """(winner, fixed point, iterations) of the star game, by names.

    Shrinks S from the whole carrier to the greatest set whose every
    member has an incompatible pair of members of S below it, one pass
    per iteration.  Player I wins exactly when S is nonempty.
    """
    s = set(poset.elements)
    iterations = 0

    def splittable(p, pool):
        dp = [q for q in pool if poset.leq(q, p)]
        return any(
            incompatible(poset, p1, p2) for i, p1 in enumerate(dp) for p2 in dp[i + 1:]
        )

    while True:
        iterations += 1
        keep = {p for p in s if splittable(p, s)}
        if keep == s:
            break
        s = keep
    return ("I" if s else "II"), frozenset(s), iterations


def star_game_masks(poset):
    """(winner, fixed point, iterations) of the star game, by element masks.

    The same passes as ``star_game``: an element stays while two members of
    S below it have disjoint down masks, which on a finite poset is
    incompatibility.
    """
    down = [poset.down_mask(i) for i in range(len(poset))]
    s = (1 << len(poset)) - 1
    iterations = 0

    def splittable(p, pool):
        dp = list(_bits(down[p] & pool))
        return any(down[a] & down[b] == 0 for i, a in enumerate(dp) for b in dp[i + 1:])

    while True:
        iterations += 1
        keep = sum(1 << p for p in _bits(s) if splittable(p, s))
        if keep == s:
            break
        s = keep
    return ("I" if s else "II"), frozenset(poset.names_of(s)), iterations


def point(space, g):
    """The point of ``space`` named g: the filter among its points whose least member is element g."""
    return next(f for f in space.points if f.generator == g)


def all_points(space) -> frozenset:
    """Every point of ``space``, each named by the element index of its least member."""
    return frozenset(f.generator for f in space.points)


def basic_open(space, element) -> frozenset:
    """The points whose filter contains ``element``."""
    return frozenset(f.generator for f in space.points if element in f.members)


def is_open(space, point_set) -> bool:
    """A union of basic opens: every point has a member whose basic open fits."""
    point_set = frozenset(point_set)
    if not point_set <= all_points(space):
        return False
    return all(
        any(basic_open(space, p) <= point_set for p in point(space, i).members)
        for i in point_set
    )


def point_set(mask) -> frozenset:
    """The points of a point mask, by the element index of each one's least member."""
    return frozenset(members(mask))


def point_set_str(space, point_set) -> str:
    """A set of points as text: their filters, in the order of their least members."""
    return "{" + ", ".join(str(point(space, i)) for i in sorted(point_set)) + "}"


class ChoquetPosition:
    def __init__(self, space):
        self.space = space
        self.rounds = []  # (open_i, point, open_ii, witness_ii) per round
        self.pending = None


def choquet_referee(space, strategy_i, strategy_ii, rounds):
    """The strong Choquet game on frozensets: ``(log lines, witnesses, illegal)``.

    Player I moves ``(u, x)`` and player II ``(v, witness)``, with u and v
    sets of points and witness an element name or None.  Each rule
    is checked as stated; ``illegal`` is ``(player, round, reason)`` or
    None, and the log lines follow ``ChoquetTranscript.log_lines``.
    """
    pos = ChoquetPosition(space)
    illegal = None
    for t in range(rounds):
        try:
            u, x = strategy_i(pos)
            u = frozenset(u)
            if not is_open(space, u):
                raise IllegalMove("I", t, "played set is not open")
            if x not in u:
                raise IllegalMove("I", t, "point lies outside the played open")
            if pos.rounds and not u <= pos.rounds[-1][2]:
                raise IllegalMove("I", t, "open not inside II's previous answer")
            pos.pending = (u, x)
            v, witness = strategy_ii(pos)
            v = frozenset(v)
            if not is_open(space, v):
                raise IllegalMove("II", t, "played set is not open")
            if x not in v:
                raise IllegalMove("II", t, "answer misses player I's point")
            if not v <= u:
                raise IllegalMove("II", t, "answer not inside player I's open")
        except IllegalMove as bad:
            illegal = bad
            break
        pos.rounds.append((u, x, v, witness))
    lines = [
        f"round {t}: I ({point_set_str(space, u)}, {point(space, x)}) | II {point_set_str(space, v)}"
        for t, (u, x, v, _) in enumerate(pos.rounds)
    ]
    if illegal is not None:
        lines.append(f"illegal: {illegal}")
        winner = "II" if illegal.player == "I" else "I"
    else:
        inter = answers_meet(all_points(space), [r[2] for r in pos.rounds])
        winner = "II" if inter else "I"
    lines.append(f"winner-at-horizon: {winner}")
    verdict = None if illegal is None else (illegal.player, illegal.round_no, illegal.reason)
    return lines, [r[3] for r in pos.rounds], verdict


def answers_meet(whole, answers):
    """The intersection of player II's answers, folded from ``whole``.

    Works on point sets and on point masks alike; the library reads the
    same set off II's last answer.
    """
    out = whole
    for v in answers:
        out &= v
    return out


def canonical_choquet_ii(space):
    """Player II: the basic open of the least eligible element, with that element.

    Eligible: a member of the filter just played, below the last witness
    of II's earlier answers, with its basic open inside player I's open.
    """
    poset = space.poset

    def move(pos):
        u, x = pos.pending
        prev = next((r[3] for r in reversed(pos.rounds) if r[3] is not None), None)
        for q in poset.elements:
            if (q in point(space, x).members and (prev is None or poset.leq(q, prev))
                    and basic_open(space, q) <= u):
                return basic_open(space, q), q
        raise ConditionViolated(len(pos.rounds), "no eligible element")

    return move


def scripted_random_choquet_i(seed):
    """Player I: a random nonempty basic open inside II's last answer, then a random point of it."""
    rng = random.Random(seed)

    def move(pos):
        space = pos.space
        prev = pos.rounds[-1][2] if pos.rounds else all_points(space)
        opens = [basic_open(space, e) for e in space.poset.elements]
        u = rng.choice([u for u in opens if u and u <= prev])
        return u, rng.choice(sorted(u))

    return move


def members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def is_directed(poset, mask) -> bool:
    """Nonempty, and any two members have an upper bound in the set."""
    idxs = members(mask)
    return bool(idxs) and all(
        poset.up_mask(i) & poset.up_mask(j) & mask for i in idxs for j in idxs
    )


def lub(poset, mask):
    """The index of the least upper bound of the set, or None."""
    ubs = (1 << len(poset)) - 1
    for i in members(mask):
        ubs &= poset.up_mask(i)
    return next((k for k in members(ubs) if poset.up_mask(k) & ubs == ubs), None)


def directed_sups(poset) -> dict:
    """Every directed subset (a mask) with its least upper bound, or None."""
    return {
        mask: lub(poset, mask) for mask in range(1, 1 << len(poset)) if is_directed(poset, mask)
    }


def way_below(poset, sups) -> list:
    """Bit t of entry q is set when q is way below t.

    q is way below t when every directed set whose supremum lies above t
    has a member above q.  ``sups`` must come from a dcpo.
    """
    n = len(poset)
    rel = [0] * n
    for q in range(n):
        for t in range(n):
            if all(
                mask & poset.up_mask(q)
                for mask, sup in sups.items() if poset.leq_idx(t, sup)
            ):
                rel[q] |= 1 << t
    return rel


def is_basis(poset, rel, basis) -> bool:
    """Each t is the supremum of the directed set of basis elements way below it."""
    for t in range(len(poset)):
        below = basis & sum(1 << q for q in range(len(poset)) if rel[q] >> t & 1)
        if not is_directed(poset, below) or lub(poset, below) != t:
            return False
    return True


def classify(poset, rel):
    """(continuous, algebraic, compact mask, greedy minimal basis mask).

    Continuous: the whole carrier is a basis.  Algebraic: the compact
    elements (those way below themselves) are.  The minimal basis drops
    elements in order while the rest is still a basis.
    """
    full = (1 << len(poset)) - 1
    compact = sum(1 << i for i in range(len(poset)) if rel[i] >> i & 1)
    basis = full
    for i in range(len(poset)):
        if is_basis(poset, rel, basis & ~(1 << i)):
            basis &= ~(1 << i)
    return is_basis(poset, rel, full), is_basis(poset, rel, compact), compact, basis


def filters(poset) -> list:
    """Every filter as a mask: nonempty, upward closed, any two members bound below in it."""
    out = []
    for mask in range(1, 1 << len(poset)):
        idxs = members(mask)
        upward = all(poset.up_mask(i) & ~mask == 0 for i in idxs)
        directed = all(poset.down_mask(i) & poset.down_mask(j) & mask for i in idxs for j in idxs)
        if upward and directed:
            out.append(mask)
    return out


def filter_name(poset, mask) -> str:
    return "{" + ",".join(poset.elements[i] for i in members(mask)) + "}"


def completion(poset, fs) -> FinitePoset:
    """The filters ``fs`` of ``poset`` ordered by inclusion, named by their members."""
    ups = [sum(1 << k for k, g in enumerate(fs) if f & ~g == 0) for f in fs]
    return FinitePoset([filter_name(poset, f) for f in fs], ups, f"filters({poset.name})")


def union_closure(family) -> set:
    """Every union of members of ``family``, the empty union included."""
    out = {frozenset()}
    for b in family:
        out |= {u | b for u in out}
    return out


def basis_topology(n, basis):
    """``(error text or None, opens)`` by the literal validation of a basis on n points.

    The basis members are point masks; the opens are every union of
    members, as frozensets of point indices.  The basis must cover the
    space, and the unions must be closed under union and intersection,
    checked pair by pair.
    """
    opens = union_closure(point_set(b) for b in basis)
    if frozenset(range(n)) not in opens:
        return "basis does not cover the space", opens
    for u in opens:
        for v in opens:
            if u | v not in opens or u & v not in opens:
                return "opens are not closed under union/intersection", opens
    return None, opens


def interior(opens, point_set) -> frozenset:
    """The union of the opens inside ``point_set``."""
    return frozenset().union(*(o for o in opens if o <= point_set))


def completeness(n, holds):
    """``(complete, meeting filters)`` of a subset order on n points, by the definitions.

    Walks every family of subsets, a mask over the 2^n subset masks, and
    keeps the set-filters: nonempty families of nonempty subsets closed
    under intersection and superset.  A set-filter meets the order when
    each member has a member related below it; the order is complete
    when the members of each meeting set-filter share a point.
    """
    subsets = range(1 << n)
    complete, meeting = True, 0
    for family in range(2, 1 << (1 << n), 2):  # even: the empty set is no member
        members = [u for u in subsets if family >> u & 1]
        if not all(family >> (u & v) & 1 and all(family >> w & 1 for w in subsets if not u & ~w)
                   for u in members for v in members):
            continue
        if all(any(holds(v, w) for v in members) for w in members):
            meeting += 1
            common = (1 << n) - 1
            for u in members:
                common &= u
            complete = complete and common != 0
    return complete, meeting


def domain_answers(poset) -> dict:
    """The literal answers about the filter completion of ``poset``, by element name."""
    all_filters = filters(poset)
    carrier = completion(poset, all_filters)

    def names(mask):
        return frozenset(carrier.names_of(mask))

    sups = directed_sups(carrier)
    dcpo = all(sup is not None for sup in sups.values())
    rel = way_below(carrier, sups) if dcpo else [0] * len(carrier)
    continuous, algebraic, compact, basis = classify(carrier, rel)
    maximal = sum(
        1 << t for t in range(len(carrier))
        if not any(u != t and carrier.leq_idx(t, u) for u in range(len(carrier)))
    )
    # Scott opens are the sets of elements way above one element; the MF
    # basic open of p collects the maximal filters that contain p
    scott = frozenset(names(rel[q] & maximal) for q in range(len(carrier)))
    max_filters = [f for f in all_filters if filter_name(poset, f) in names(maximal)]
    mf = frozenset(
        frozenset(filter_name(poset, f) for f in max_filters if f >> p & 1)
        for p in range(len(poset))
    )
    return {
        "order": frozenset(carrier.pairs()),
        "dcpo": dcpo,
        "way_below": frozenset((carrier.elements[q], t) for q in range(len(carrier))
                               for t in names(rel[q])),
        "compact": names(compact),
        "continuous": continuous,
        "algebraic": algebraic,
        "classify.compact": names(compact),
        "minimal_basis": names(basis),
        "scott_family": scott,
        "mf_family": mf,
        "scott_ok": union_closure(scott) == union_closure(mf),
    }


def library_answers(poset) -> dict:
    """The library's answers to the questions of ``domain_answers``."""
    completion = lib.filter_completion(poset)
    carrier = completion.dcpo
    cls = lib.dcpo_classify(carrier)
    report = lib.scott_max_homeomorphism_check(poset)
    return {
        "order": frozenset(carrier.pairs()),
        "dcpo": True,  # the library treats every finite poset as a dcpo
        "way_below": frozenset(lib.way_below(carrier)),
        "compact": frozenset(completion.compact_table.values()),
        "continuous": cls.is_continuous,
        "algebraic": cls.is_algebraic,
        "classify.compact": frozenset(cls.compact_elements),
        "minimal_basis": frozenset(cls.minimal_basis),
        "scott_family": frozenset(frozenset(carrier.names_of(m)) for m in report.scott_family),
        "mf_family": frozenset(frozenset(carrier.names_of(m)) for m in report.mf_family),
        "scott_ok": report.ok,
    }


def domain_mismatches(poset, answers=None) -> list:
    """Sorted keys on which ``answers`` (default: the library's) differ from the oracle."""
    if answers is None:
        answers = library_answers(poset)
    expected = domain_answers(poset)
    return sorted(k for k in expected if answers.get(k) != expected[k])


def brute_force_is_filter(poset, members) -> bool:
    """Nonempty, upward closed, and any two members have a common lower bound inside."""
    members = frozenset(members)
    directed = all(
        any(poset.leq(r, p) and poset.leq(r, q) for r in members)
        for p in members
        for q in members
    )
    upclosed = all(
        q in members
        for p in members
        for q in poset.elements
        if poset.leq(p, q)
    )
    return bool(members) and directed and upclosed


def brute_force_classify(poset, members):
    """The definitions checked directly, maximality by superset scan."""
    members = frozenset(members)
    is_filter = brute_force_is_filter(poset, members)
    unbounded = not any(
        all(poset.lt(r, q) for q in members) for r in poset.elements
    ) if members else len(poset) == 0
    maximal = False
    if is_filter:
        maximal = True
        for r in range(2 ** len(poset)):
            other = frozenset(
                e for i, e in enumerate(poset.elements) if r >> i & 1
            )
            if members < other and brute_force_is_filter(poset, other):
                maximal = False
                break
    return is_filter, unbounded, maximal


def maximal_filters(poset) -> list:
    """The maximal filters as name sets, by a scan over every subset.

    Listed in the order of their least members, the order of the points
    of ``PosetSpace(poset, "mf")``.
    """
    subsets = [frozenset(e for i, e in enumerate(poset.elements) if r >> i & 1) for r in range(2 ** len(poset))]
    found = [s for s in subsets if brute_force_is_filter(poset, s)]
    maximal = [f for f in found if not any(f < g for g in found)]
    return sorted(maximal, key=lambda f: min(poset.index(e) for e in f if all(poset.leq(e, q) for q in f)))


def restriction_homeomorphism(poset, names):
    """``(ok, reason, counterexample)`` for F -> F intersect R from MF(P) onto MF(R), on name sets.

    R is the subposet on ``names``.  The map must be total and injective
    (checked point by point), onto, and must match the basic open of
    every element of R; the counterexample is the first failing point of
    MF(P), or the first missed point of MF(R), in listing order, named by
    the element index of its least member.  Images of
    opens are checked open as the definition of a homeomorphism reads,
    open meaning a union of basic opens of R.
    """
    sub = poset.restrict(poset.mask_of(names))
    big, small = maximal_filters(poset), maximal_filters(sub)

    def least(p, f):
        return next(p.index(e) for e in f if all(p.leq(e, q) for q in f))

    image = {}
    for x, f in enumerate(big):
        restricted = f & set(sub.elements)
        if restricted not in small:
            return False, "point map is not total", least(poset, f)
        if small.index(restricted) in image.values():
            return False, "point map is not injective", least(poset, f)
        image[x] = small.index(restricted)
    missed = [y for y in range(len(small)) if y not in image.values()]
    if missed:
        return False, "point map is not surjective", least(sub, small[missed[0]])
    for r in sub.elements:
        for x, f in enumerate(big):
            if (r in f) != (r in small[image[x]]):
                return False, f"basic open of {r} does not correspond", least(poset, f)
    basic = [frozenset(y for y, g in enumerate(small) if r in g) for r in sub.elements]
    for p in poset.elements:
        target = frozenset(image[x] for x, f in enumerate(big) if p in f)
        if frozenset().union(*(b for b in basic if b <= target)) != target:
            return False, "image of a basic open is not open", p
    return True, "", None


def check_seed_is_basis(space, seed: int) -> None:
    """The reduce's basis test as first written: for each element p and each point i of
    its basic open, some seed element q has i in its basic open, and that open inside p's."""
    opens = space.opens
    for p, np in enumerate(opens):
        for i in _bits(np):
            if not any(opens[q] >> i & 1 and not opens[q] & ~np for q in _bits(seed)):
                raise NotABasis(space.poset.elements[p], space.point_names[i])


def reduce_reference(poset, seed_basis) -> ReduceResult:
    """``topology.reduce_countable_subposet`` by the first-written subset walk.

    Each stage lists one (basic-open intersection, common lower bounds)
    pair for every subset D of the current set, 2^|R| pairs, and covers
    each nonempty intersection greedily in element order.
    """
    space, seed_mask = PosetSpace(poset, "mf"), poset.mask_of(seed_basis)
    seed = list(_bits(seed_mask))  # element indices, in element order
    check_seed_is_basis(space, seed_mask)

    opens = space.opens
    current = list(seed)  # element indices
    stages = 0
    while True:
        added = []
        # per subset D of the current set: the intersection of its basic opens, its common lower bounds
        meets = [(space.whole_mask, (1 << len(poset)) - 1)]
        for q in current:
            meets += [(target & opens[q], lower & poset.down_mask(q)) for target, lower in meets]
        for target, lower in meets[1:]:
            if not target:
                continue
            covered = 0
            for e in _bits(lower):
                if not target & ~covered:
                    break
                gain = opens[e] & target
                if gain & ~covered:
                    covered |= gain
                    if e not in current and e not in added:
                        added.append(e)
        stages += 1
        current += added
        if not added:
            break

    current.sort()  # element order, which the subposet keeps
    sub = poset.restrict(sum(1 << i for i in current), name=f"{poset.name}|reduced")
    return ReduceResult(sub, stages, *verify_restriction(space, PosetSpace(sub, "mf"), current, space.generators))


def reduce_lower_bound_reference(poset, seed_basis) -> ReduceResult:
    """``topology.reduce_countable_subposet`` with one entry per lower-bound mask.

    Each stage keeps one entry per distinct common-lower-bound mask of a
    nonempty subset D of the current set, with D's basic-open
    intersection, and covers that intersection greedily in element order,
    as the library did before it tested each element once.  A crown of m
    tops over m bottoms has 2^m such masks.
    """
    space = PosetSpace(poset, "mf")
    current = poset.mask_of(seed_basis)  # element mask
    check_seed_is_basis(space, current)

    opens, down, everything = space.opens, poset.down_masks, (1 << len(poset)) - 1
    stages = 0
    while True:
        # common lower bounds of a nonempty subset D of the current set -> the intersection of its basic opens
        meets = {}
        for q in _bits(current):
            for lower, target in [*meets.items(), (everything, space.whole_mask)]:
                meets[lower & down[q]] = target & opens[q]
        added = 0
        for lower, target in meets.items():
            covered = 0
            for e in _bits(lower):
                if not target & ~covered:
                    break
                gain = opens[e] & target
                if gain & ~covered:
                    covered |= gain
                    added |= 1 << e
        stages += 1
        if not added & ~current:
            break
        current |= added

    sub = poset.restrict(current, name=f"{poset.name}|reduced")
    at = list(_bits(current))
    return ReduceResult(sub, stages, *verify_restriction(space, PosetSpace(sub, "mf"), at, space.generators))


def crown(m: int) -> FinitePoset:
    """m tops over m bottoms, top i above every bottom but bottom i: 2^m common-lower-bound
    masks among the subsets of the tops."""
    bottoms, tops = [f"b{i}" for i in range(m)], [f"t{i}" for i in range(m)]
    return validate_poset(bottoms + tops, [(b, t) for i, t in enumerate(tops) for j, b in enumerate(bottoms) if i != j],
                          f"crown{m}")


def separation(space):
    """(T0, T1, UF = MF) by comparing the points' member sets pairwise."""
    pts = space.points
    t0 = all(
        pts[i].members != pts[j].members
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )
    t1 = True
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j:
                continue
            if not (pts[i].members - pts[j].members):
                t1 = False
    uf = {f.members for f in enumerate_filters(space.poset, "unbounded")}
    mf = {f.members for f in enumerate_filters(space.poset, "maximal")}
    return t0, t1, uf == mf


def filter_space_opens(space) -> set:
    """The open point sets of a filter space: the unions of basic opens of every element subset."""
    elements = space.poset.elements
    opens = set()
    for r in range(2 ** len(elements)):
        opens.add(frozenset().union(*(basic_open(space, e) for i, e in enumerate(elements) if r >> i & 1)))
    return opens


def gdelta_uf_claims(poset, result):
    """The four claims of ``gdelta_uf_poset`` on names: ``(claims, claim_details)``.

    Takes the refined subposet (its elements are the carrier), the ranks
    and the intersection from the library's ``result`` and evaluates each
    claim from the definitions: bounded means some element lies strictly
    below every member.
    """
    sub, ranks, space = result.subposet, result.ranks, result.space
    carrier = sub.elements
    inter = result.intersection

    def bounded_in_sub(members):
        return any(
            all(sub.lt(r, q) for q in members) for r in carrier if r not in members
        )

    def is_filter_of(p, members):
        members = frozenset(members)
        directed = all(any(p.leq(r, a) and p.leq(r, b) for r in members) for a in members for b in members)
        upclosed = all(q in members for a in members for q in p.elements if p.leq(a, q))
        return directed and upclosed

    claims, details = {}, {}
    uf_in_g = [point(space, i) for i in members(inter)]
    bad = [f for f in uf_in_g
           if not (set(f.members) <= set(carrier)
                   and is_filter_of(sub, f.members)
                   and not bounded_in_sub(f.members))]
    claims[1] = not bad
    details[1] = [str(f) for f in bad]

    bad2 = []
    for f in enumerate_filters(sub, "all"):
        sup = max(ranks[p] for p in f.members)
        if sup != INF and not bounded_in_sub(f.members):
            bad2.append(str(f))
    claims[2] = not bad2
    details[2] = bad2

    bad3 = []
    for f in enumerate_filters(poset, "all"):
        bounded_in_p = any(
            all(poset.lt(r, q) for q in f.members) for r in poset.elements
        )
        if not bounded_in_p:
            continue
        if set(f.members) <= set(carrier) and is_filter_of(sub, f.members):
            if not bounded_in_sub(f.members):
                bad3.append(str(f))
    claims[3] = not bad3
    details[3] = bad3

    inter_sets = {point(space, i).members for i in members(inter)}
    bad4 = []
    for f in result.sub_space.points:
        unbounded_in_p = not any(
            all(poset.lt(r, q) for q in f.members) for r in poset.elements
        )
        if not (is_filter_of(poset, f.members) and unbounded_in_p and f.members in inter_sets):
            bad4.append(str(f))
    claims[4] = not bad4
    details[4] = bad4
    return claims, details


def spot_check_generated(provider, budget: int = 3) -> None:
    """Check the provider contract on the elements reachable within budget.

    Raises PosetError on any violation: non-strict refinements, budget
    monotonicity failures, nondeterminism, or order-axiom failures on the
    sampled elements.
    """
    seen = list(provider.roots())
    if not seen:
        raise PosetError("provider has no roots")
    frontier = list(seen)
    for _ in range(2):
        nxt = []
        for a in frontier:
            for b in range(budget + 1):
                refs = provider.refinements(a, b)
                if refs != provider.refinements(a, b):
                    raise PosetError(f"refinements({a!r}, {b}) is not deterministic")
                if b > 0 and not set(provider.refinements(a, b - 1)) <= set(refs):
                    raise PosetError(f"refinements({a!r}) shrank when the budget grew")
                for r in refs:
                    if not provider.leq(r, a) or provider.leq(a, r):
                        raise PosetError(f"refinement {r!r} is not strictly below {a!r}")
            for r in provider.refinements(a, 1):
                if r not in seen:
                    seen.append(r)
                    nxt.append(r)
        frontier = nxt
    for a in seen:
        if not provider.leq(a, a):
            raise PosetError(f"leq not reflexive at {a!r}")
        for b in seen:
            if a != b and provider.leq(a, b) and provider.leq(b, a):
                raise PosetError(f"leq not antisymmetric on {a!r}, {b!r}")
            for c in seen:
                if provider.leq(a, b) and provider.leq(b, c) and not provider.leq(a, c):
                    raise PosetError(f"leq not transitive on {a!r}, {b!r}, {c!r}")


def play_key(play):
    """Plays by length, then move by move: (points of v, x, points of w); a move that is not a
    triple keys as (), so that the rule-2 check, not the sort, refuses it."""
    return len(play), tuple((tuple(members(m[0])), m[1], tuple(members(m[2]))) if len(m) == 3 else ()
                            for m in play)


def final_open(system, play) -> int:
    """The last answer of a tuple play, or the whole space for the empty play."""
    return play[-1][2] if play else system.space.whole_mask


def least_basic(space, x, within):
    """The least basic open, by size and then by points, holding point x inside ``within``; or None.

    Player II's fixed strategy answers I's move (v, x) with least_basic(space, x, v).
    """
    fits = [b for b in space.basis if x in members(b) and not b & ~within]
    return min(fits, key=lambda b: (len(members(b)), members(b)), default=None)


def extend_play(system, play, a, x) -> tuple:
    """The tuple play extended by player I's move (a, x) and the strategy's answer."""
    return tuple(play) + ((a, x, least_basic(system.space, x, a)),)


def check_play(system, play):
    """The first way a tuple play breaks the game rules or the strategy, or None."""
    prev_open = system.space.whole_mask
    for j, step in enumerate(play):
        if len(step) != 3:
            return f"move {j} is not an (open, point, answer) triple"
        v, x, w = step
        if not system.space.is_open(v) or not v:
            return f"move {j}: player I's set is not a nonempty open"
        if v & ~prev_open:
            return f"move {j}: player I's set leaves player II's last answer"
        if not v >> x & 1:
            return f"move {j}: the chosen point is outside player I's set"
        if w != least_basic(system.space, x, v):
            return f"move {j}: player II's answer does not follow the strategy"
        prev_open = w
    return None


def validate_condition(system, a, plays):
    """``(a, plays)`` after the four condition rules on tuple plays, or the first violation."""
    plays = frozenset(tuple(tuple(step) for step in p) for p in plays)
    if not a or a not in system.space.basis:
        raise ConditionRequirementViolation(1, "the designated set is not a nonempty basic open")
    for p in sorted(plays, key=play_key):
        problem = check_play(system, p)
        if problem:
            raise ConditionRequirementViolation(2, problem)
    for p in plays:
        for j in range(len(p) + 1):
            if p[:j] not in plays:
                raise ConditionRequirementViolation(3, f"missing initial segment of length {j} of a play")
    for p in plays:
        if a & ~final_open(system, p):
            raise ConditionRequirementViolation(4, "the designated set leaves the final open of a play")
    return a, plays


def closed_play_sets(system, allowed) -> list:
    """Every subset of the plays in ``allowed`` that holds the empty play and each member's parent."""
    plays = members(allowed)
    subsets = (sum(1 << q for q in chosen)
               for k in range(len(plays) + 1) for chosen in itertools.combinations(plays, k))
    return [s for s in subsets if s & 1 and all(s >> system.parent[q] & 1 for q in members(s))]


def condition_lt(system, c1, c2) -> bool:
    """c1 < c2: c1.a inside c2.a, and each play of c2 extends one step into c1 through c2.a."""
    if c1.a & ~c2.a:
        return False
    plays1 = c1.plays  # read once: Condition.plays rebuilds the set of tuple plays on each read
    return all(
        any(extend_play(system, p, c2.a, x) in plays1 for x in members(c2.a))
        for p in c2.plays
    )


def refine_conditions(system, c1, c2, x):
    """``(a, plays)`` of the common refinement through point x, built on tuple plays."""
    plays = set()
    for c in (c1, c2):
        for p in c.plays:
            plays.add(extend_play(system, p, c.a, x))
    for p in list(plays):
        for j in range(len(p) + 1):
            plays.add(p[:j])
    constraint = system.space.whole_mask
    for p in plays:
        constraint &= final_open(system, p)
    a = least_basic(system.space, x, constraint)
    if a is None:
        raise PreconditionFailed("no basic open around the point fits inside the final opens")
    return validate_condition(system, a, plays)


def refinement_pool(conditions) -> list:
    """Every (i, j, x) with x a point of both designated sets, by i, then j, then x."""
    return [
        (i, j, x)
        for i, ci in enumerate(conditions)
        for j, cj in enumerate(conditions)
        for x in members(ci.a & cj.a)
    ]


def refinement_sample(conditions, k: int, rng: random.Random) -> list:
    """The library's refinement sample, each draw found by scanning rows i, then columns j."""
    sets = {}
    for c in conditions:
        sets[c.a] = sets.get(c.a, 0) + 1
    width = {a: sum(n * (a & b).bit_count() for b, n in sets.items()) for a in sets}
    total = sum(width[c.a] for c in conditions)
    out = []
    for t in rng.sample(range(total), min(k, total)):
        for i, ci in enumerate(conditions):
            if t < width[ci.a]:
                break
            t -= width[ci.a]
        for j, cj in enumerate(conditions):
            shared = ci.a & cj.a
            if t < shared.bit_count():
                break
            t -= shared.bit_count()
        out.append((i, j, list(members(shared))[t]))
    return out


def order_axioms(order):
    """``(axioms_ok, generates, violations)`` of a subset order, walking its sorted pairs."""
    space = order.space
    dom = sorted(range(1 << len(space)), key=_set_key)
    rel = sorted(order.rel)
    violations = []
    whole = space.whole_mask
    if not order.holds(0, 0):
        violations.append("the empty set is not related to itself")
    if not order.holds(whole, whole):
        violations.append("the whole space is not related to itself")
    for v, w in rel:
        if v & ~w:
            violations.append(f"related pair is not nested: {space.set_str(v)} vs {space.set_str(w)}")
    u = next((u for u in dom for v, w in rel if not u & ~v and not order.holds(u, w)), None)
    if u is not None:
        violations.append(f"shrinking the left side breaks the relation at {space.set_str(u)}")
    u = next((u for v, w in rel for u in dom if not w & ~u and not order.holds(v, u)), None)
    if u is not None:
        violations.append(f"growing the right side breaks the relation at {space.set_str(u)}")
    generates = True
    for u in dom:
        union = 0
        for v in dom:
            if order.holds(v, u):
                union |= v
        if union != space.interior(u):
            generates = False
            break
    return not violations, generates, tuple(violations)


def order_completeness(space, order):
    """``(complete, meeting_filters)``: the set-filters by their cores, with the pairs tested one by one."""
    subsets = sorted(range(1 << len(space)), key=_set_key)
    meeting = 0
    for core in subsets[1:]:
        members_ = [u for u in subsets if not core & ~u]
        meeting += all(any(order.holds(v, w) for v in members_) for w in members_)
    return True, meeting


def filters_meet_order(order, opens, mf_space) -> bool:
    """Every maximal filter's family of opens has, for each member, a member related below it."""
    return all(
        all(any(order.holds(opens[v], opens[w]) for v in members(f.mask())) for w in members(f.mask()))
        for f in mf_space.points
    )


def serialize_order(order) -> list:
    """The ``rel`` lines of a subset order, its pairs sorted by their points."""
    fmt = order.space.set_str
    pairs = sorted(order.rel, key=lambda p: (tuple(members(p[0])), tuple(members(p[1]))))
    return [f"rel {fmt(v)} {fmt(w)}".replace(", ", ",") for v, w in pairs]


def order_rel_from_poset(poset) -> frozenset:
    """The pairs ``order_from_poset`` relates, pair by pair over the subsets of MF(P), its
    points numbered in listing order as the order's space numbers them."""
    mf = PosetSpace(poset, "mf")
    subsets = sorted(range(1 << len(mf.points)), key=_set_key)
    whole = (1 << len(mf.points)) - 1
    n = len(poset)
    opens = [sum(1 << i for i, f in enumerate(mf.points) if e in f.members) for e in poset.elements]
    lt_opens = [(opens[p], opens[q]) for p in range(n) for q in range(n) if p != q and poset.leq_idx(p, q)]
    return frozenset(
        (v, w) for v in subsets for w in subsets
        if not v & ~w and (not v or w == whole or v.bit_count() == 1
                           or any(not v & ~lower and not upper & ~w for lower, upper in lt_opens))
    )


def ball_refinements(balls, x, budget) -> list:
    """Formal-ball refinements by ``Fraction`` arithmetic, every grid radius tried."""
    a, r = balls.decode(x)
    denom = min(balls.max_denom, 2 ** budget)
    out = []
    for b in sorted(balls.metric.points):
        base = balls.metric.d(a, b)
        for num in range(1, int(balls.max_radius * denom) + 1):
            s = Fraction(num, denom)
            if base + s < r:
                out.append(balls.encode(b, s))
    return out


# ---------------------------------------------------------------------------
# the product and G-delta constructions as first written, on Filter tuples


def _reference_with_top(poset):
    if not len(poset) or poset.greatest() is not None:
        return poset, None
    top = "top"
    while top in poset:
        top += "_"
    top_bit = 1 << len(poset)
    ups = [m | top_bit for m in poset.up_masks] + [top_bit]
    downs = poset.down_masks + (2 * top_bit - 1,)
    return FinitePoset(poset.elements + (top,), ups, f"{poset.name}+top", downs), top


def _reference_tensor(rows, radices):
    out = [1]
    for row, radix in zip(rows, radices):
        pad = "0" * (radix - 1)
        out = [d * m for d in [int(pad.join(format(x, "b")), 2) for x in out] for m in row]
    return out


def product_reference(factors):
    """``product_poset`` with coordinate tables: projections by one comb mask per coordinate."""
    factors = list(factors)
    topped, tops = zip(*(_reference_with_top(f) for f in factors))

    sizes = [len(g) for g in topped]
    coords = list(itertools.product(*(g.elements for g in topped)))
    names = ["(" + ",".join(c) + ")" for c in coords]
    ups = _reference_tensor([g.up_masks for g in topped], sizes)
    downs = _reference_tensor([g.down_masks for g in topped], sizes)
    prod = FinitePoset(names, ups, " x ".join(f.name for f in factors), downs)

    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    at = []
    for f, size, stride in zip(factors, sizes, strides):
        repeat = ((1 << len(ups)) - 1) // ((1 << size * stride) - 1 or 1)
        at.append([((1 << stride) - 1) * repeat << j * stride for j in range(len(f))])

    fspaces = tuple(PosetSpace(f, "mf") for f in factors)
    pspace = PosetSpace(prod, "mf")
    point_of = {ups[g]: g for g in pspace.generators}
    combos = list(itertools.product(*(sp.generators for sp in fspaces)))
    generators = [0]  # the position of each combo, among the product elements
    for sp, stride in zip(fspaces, strides):
        generators = [a + g * stride for a in generators for g in sp.generators]
    images = [point_of.get(ups[a]) for a in generators]
    src_opens = _reference_tensor(
        [sp.opens + (sp.whole_mask,) * (len(g) - len(f)) for f, g, sp in zip(factors, topped, fspaces)],
        sizes,
    )
    fsets = [{f.up_mask(g): g for g in sp.generators} for f, sp in zip(factors, fspaces)]
    phi_inv = {
        g: tuple(fsets[k].get(sum(1 << j for j, b in enumerate(at[k]) if ups[g] & b)) for k in range(len(at)))
        for g in pspace.generators
    }
    position = dict(zip(combos, generators))
    check = verify_correspondence(
        generators,
        pspace.whole_mask,
        dict(zip(generators, images)),
        zip(names, src_opens, pspace.opens),
        inverse={g: position.get(t) for g, t in phi_inv.items()},
    )
    return ProductResult(
        poset=prod, factors=topped, adjoined_tops=tops, coords=dict(zip(names, coords)),
        phi=dict(zip(combos, images)), phi_inv=phi_inv, factor_spaces=fspaces, space=pspace,
        ok=check.ok, failure=check.failure,
    )


def _reference_intersection(space, opens):
    open_masks = [space.open_mask(u) for u in opens]
    inter = space.whole_mask
    for u in open_masks:
        inter &= u
    inter_points = list(members(inter))
    carrier_mask = 0
    for i in inter_points:
        carrier_mask |= point(space, i).mask()
    return open_masks, inter_points, carrier_mask


def gdelta_mf_reference(poset, opens):
    """``gdelta_mf_poset`` with the stage order read off every pair of stage tuples."""
    space = PosetSpace(poset, "mf")
    open_masks, inter_points, carrier_mask = _reference_intersection(space, opens)
    k = len(open_masks)
    cap = k + 1

    stages = []  # (stage n, element index p)
    for n in range(cap + 1):
        cn = space.whole_mask
        for u in open_masks[: max(0, min(n - 1, k))]:
            cn &= u
        stages += [(n, p) for p in members(carrier_mask) if not space.opens[p] & ~cn]
    ids = [f"{n}:{poset.elements[p]}" for n, p in stages]
    masks = []
    for n, p in stages:
        up = poset.up_mask(p)
        masks.append(sum(
            1 << s for s, (n2, p2) in enumerate(stages)
            if (n2, p2) == (n, p) or ((n2 < n or n2 == n == cap) and up >> p2 & 1)
        ))
    q_poset = FinitePoset(ids, masks, f"{poset.name}|gdelta-mf")
    q_space = PosetSpace(q_poset, "mf")

    q_of = {g.mask(): g.generator for g in q_space.points}
    phi = {
        i: q_of.get(sum(1 << s for s, (_, p) in enumerate(stages) if point(space, i).mask() >> p & 1))
        for i in inter_points
    }
    inter_of = {point(space, i).mask(): i for i in inter_points}
    psi = {}
    for g in q_space.points:
        closure = 0
        for s in members(g.mask()):
            closure |= poset.up_mask(stages[s][1])
        psi[g.generator] = inter_of.get(closure)
    check = verify_correspondence(
        inter_points,
        q_space.whole_mask,
        phi,
        [(f"stage element {sid}", space.opens[p], q_space.opens[s])
         for s, (sid, (_, p)) in enumerate(zip(ids, stages))],
        inverse=psi,
    )
    return GdeltaMfResult(
        poset=q_poset, stage_cap=cap, open_points=tuple(open_masks),
        intersection=sum(1 << i for i in inter_points),
        carrier=poset.names_of(carrier_mask), phi=phi, psi=psi, space=space, stage_space=q_space,
        ok=check.ok, failure=check.failure,
    )


def gdelta_uf_reference(poset, opens):
    """``gdelta_uf_poset`` with claims 2-4 over enumerated ``Filter`` tuples."""
    space = PosetSpace(poset, "uf")
    open_masks, inter_points, carrier_mask = _reference_intersection(space, opens)
    for a, b in zip(open_masks, open_masks[1:]):
        if b & ~a:
            raise NotDescending("opens are not descending as point sets")
    k = len(open_masks)
    at = list(members(carrier_mask))
    carrier = poset.names_of(carrier_mask)

    def rank(np):
        if k == 0 or not np & ~open_masks[-1]:
            return INF
        return next(n for n, u in enumerate(open_masks) if np & ~u)

    rank_at = [rank(space.opens[p]) for p in at]
    ranks = dict(zip(carrier, rank_at))

    masks = []
    for a, p in enumerate(at):
        ga = rank_at[a]
        masks.append(sum(
            1 << b for b, q in enumerate(at)
            if a == b or (poset.leq_idx(p, q) and (rank_at[b] < ga or ga == rank_at[b] == INF))
        ))
    sub = FinitePoset(carrier, masks, f"{poset.name}|gdelta-uf")
    sub_space = PosetSpace(sub, "uf")

    position = {i: a for a, i in enumerate(at)}

    def unbounded_filter_of_sub(m):
        if m & ~carrier_mask:
            return False
        m = sum(1 << position[i] for i in members(m))
        return filter_generator(sub, m) is not None and not bounded(sub, m)

    check, mapping = verify_restriction(space, sub_space, at, inter_points)
    bad = [point(space, i) for i in inter_points if mapping[i] is None]
    bad2 = [f for f in enumerate_filters(sub, "all")
            if max(rank_at[a] for a in members(f.mask())) != INF and not bounded(sub, f.mask())]
    bad3 = [f for f in enumerate_filters(poset, "all")
            if bounded(poset, f.mask()) and unbounded_filter_of_sub(f.mask())]
    bad4 = [f for f in sub_space.points if f.generator not in mapping.values()]
    details = {c: [str(f) for f in fs] for c, fs in enumerate((bad, bad2, bad3, bad4), start=1)}
    claims = {c: not fs for c, fs in details.items()}

    if all(claims.values()):
        ok, failure = check.ok, check.failure
    else:
        ok = False
        failure = "claims " + ", ".join(str(c) for c, v in sorted(claims.items()) if not v) + " failed"
    return GdeltaUfResult(
        subposet=sub, ranks=ranks, open_points=tuple(open_masks),
        intersection=sum(1 << i for i in inter_points), claims=claims, claim_details=details, space=space,
        sub_space=sub_space, ok=ok, failure=failure,
    )


# ---------------------------------------------------------------------------
# the filter completion and the Scott check as first written


def completion_id(names) -> str:
    """A completion element's id: the member names in braces, joined by commas, with a name that
    holds a comma, a brace or a quote written as its repr."""
    return "{" + ",".join(repr(p) if set(p) & set(",{}'\"") else p for p in names) + "}"


def filter_completion_reference(poset) -> dict:
    """``filter_completion``'s fields by name, ``filter_of`` (one ``Filter`` per element) included."""
    ids = [completion_id(poset.names_of(m)) for m in poset.up_masks]
    dcpo = FinitePoset(ids, poset.down_masks, f"filters({poset.name})", poset.up_masks)
    compact_table = dict(zip(poset.elements, ids))
    return {
        "dcpo": dcpo,
        "filter_of": {d: Filter(poset, i) for i, d in enumerate(ids)},
        "maximal_table": {str(Filter(poset, i)): ids[i] for i in poset.minimal_indices()},
        "compact_table": compact_table,
        "compact_matches_principal": set(compact_table.values()) == set(dcpo.elements),
    }


def scott_check_reference(poset) -> lib.ScottReport:
    """``scott_max_homeomorphism_check`` on the whole completion, sorting the ids for every element."""
    carrier = filter_completion_reference(poset)["dcpo"]
    space = PosetSpace(poset, "mf")
    max_mask = sum(1 << q for q, up in enumerate(carrier.up_masks) if up == 1 << q)
    scott_of = {carrier.elements[q]: carrier.up_mask(q) & max_mask for q in range(len(carrier))}
    mf_of = dict(zip(poset.elements, space.opens))  # point g is completion element g
    scott_family = frozenset(scott_of.values())
    mf_family = frozenset(mf_of.values())
    # the generated topologies, as every union of members: no shortcut shared with the library
    ok = union_closure(map(point_set, scott_family)) == union_closure(map(point_set, mf_family))
    table = []
    if ok:
        for p in poset.elements:
            table.append((p, next((d for d in sorted(scott_of) if scott_of[d] == mf_of[p]), None)))
    detail = "" if ok else "the generated topologies on the maximal elements differ"
    return lib.ScottReport(ok, tuple(table), detail, scott_family, mf_family)


# ---------------------------------------------------------------------------
# the condition check as first written, on bit loops over play masks


class BitLoopConditionSystem(ConditionSystem):
    """A ``ConditionSystem`` whose rule 3, order and refinement walk play masks bit by bit."""

    def __init__(self, space):
        super().__init__(space)
        self._keys = [(0, ())]

    def key(self, i) -> tuple:
        """Play i's ``play_key``; the first call after new plays were numbered builds theirs."""
        for q in range(len(self._keys), len(self.step)):  # a play is numbered after its parent
            v, x, w = self.step[q]
            length, moves = self._keys[self.parent[q]]
            self._keys.append((length + 1, moves + ((tuple(members(v)), x, tuple(members(w))),)))
        return self._keys[i]

    def _checked(self, a, mask) -> Condition:
        if a not in self._fits:
            raise ConditionRequirementViolation(1, "the designated set is not a nonempty basic open")
        missing = 0
        for q in members(mask):
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

    def _through(self, c1) -> dict:
        through = {}
        for q in members(c1.mask & ~1):
            v = self.step[q][0]
            through[v] = through.get(v, 0) | 1 << self.parent[q]
        return through

    def up_masks(self, conditions) -> list:
        """Per condition, the mask of it and of the conditions it lies strictly below."""
        by_set = {}
        for j, c2 in enumerate(conditions):
            by_set.setdefault(c2.a, []).append((j, c2.mask))
        return [sum((1 << j for v, parents in self._through(c1).items() if not c1.a & ~v
                     for j, mask in by_set.get(v, ()) if not mask & ~parents), 1 << i)
                for i, c1 in enumerate(conditions)]

    def lt(self, c1, *c2s) -> bool:
        if any(c2.system is not c1.system for c2 in c2s):
            raise MixedSpaces("conditions live over different spaces or strategies")
        through = self._through(c1)
        return all(not c1.a & ~c2.a and not c2.mask & ~through.get(c2.a, 0) for c2 in c2s)

    def refine(self, c1, c2, x) -> Condition:
        if c1.system is not c2.system:
            raise MixedSpaces("conditions live over different spaces or strategies")
        if not (c1.a & c2.a) >> x & 1:
            raise PreconditionFailed(f"point {x} is outside a designated set")
        mask = c1.mask | c2.mask
        for c in (c1, c2):
            for p in members(c.mask):
                mask |= 1 << self._extend(p, c.a, x)
        return self._checked(self.space.up[x], mask)


def condition_key(c) -> tuple:
    """The literal sort key of a condition: its set's points, its play count, then its plays'
    ``play_key`` values in order; ``c.system`` must be a ``BitLoopConditionSystem``."""
    return tuple(members(c.a)), c.mask.bit_count(), tuple(sorted(map(c.system.key, members(c.mask))))


def mf_characterization_reference(space, depth, refinement_samples=40, seed=0) -> CharacterizationReport:
    """``mf_characterization_check`` as first written, on a ``BitLoopConditionSystem``."""
    if depth < 0:
        raise BadDepth(f"depth must be at least 0, got {depth}")
    if not space.is_t1():
        raise PreconditionFailed("the space is not T1")
    system = BitLoopConditionSystem(space)
    conditions = sorted(system.enumerate_conditions(depth), key=condition_key)
    poset = FinitePoset([f"c{i}" for i in range(len(conditions))], system.up_masks(conditions),
                        f"{space.name}|conditions")
    cond_space = PosetSpace(poset, "mf")
    phi, stuck = {}, []
    for k, g in enumerate(cond_space.generators):
        inter = space.whole_mask
        for c in members(poset.up_mask(g)):
            inter &= conditions[c].a
        if inter.bit_count() == 1:
            phi[k] = inter.bit_length() - 1
        else:
            stuck.append(k)
    surjective = set(phi.values()) == set(range(len(space)))
    total = not stuck
    reach, holds = [0] * len(space), [0] * len(space)
    for k, x in phi.items():
        reach[x] |= poset.up_mask(cond_space.generators[k])
    for i, c in enumerate(conditions):
        for x in members(c.a):
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


# ---------------------------------------------------------------------------
# dense sets on element names, as first written


def element_set_selector(poset, dense_elements):
    """The first member in element order strictly below the input, else the input when it is a
    member, else None."""
    names = set(dense_elements)
    dense = [e for e in poset.elements if e in names]

    def select(p):
        for q in dense:
            if poset.lt(q, p):
                return q
        if p in dense:
            return p
        return None

    return select


def is_dense_elements(poset, dense_elements) -> bool:
    dense = set(dense_elements)
    return all(any(poset.leq(q, p) for q in dense) for p in poset.elements)


def random_dense_sets(rng, poset, count: int):
    out = []
    for _ in range(count):
        dense = {e for e in poset.elements if rng.random() < 0.4}
        for p in poset.elements:
            if not any(poset.leq(q, p) for q in dense):
                below = [q for q in poset.elements if poset.leq(q, p)]
                dense.add(rng.choice(below))
        out.append(frozenset(dense))
    return out


def records_reference(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield line_no, line.split()


def poset_text_reference(text) -> FinitePoset:
    name = None
    elems = []
    seen = set()
    pairs = []
    strict = None
    for line_no, fields in records_reference(text):
        kind = fields[0]
        if kind == "poset":
            if name is not None:
                raise ParseError(line_no, "duplicate poset header")
            if len(fields) != 2:
                raise ParseError(line_no, "expected: poset <name>")
            name = fields[1]
        elif kind == "elem":
            if len(fields) != 2:
                raise ParseError(line_no, "expected: elem <id>")
            if fields[1] in seen:
                raise ParseError(line_no, f"duplicate element {fields[1]!r}")
            seen.add(fields[1])
            elems.append(fields[1])
        elif kind in ("le", "lt"):
            if len(fields) != 3:
                raise ParseError(line_no, f"expected: {kind} <a> <b>")
            if strict is None:
                strict = kind == "lt"
            elif strict != (kind == "lt"):
                raise ParseError(line_no, "cannot mix le and lt lines")
            pairs.append(((fields[1], fields[2]), line_no))
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")
    if name is None:
        raise ParseError(None, "missing poset header")
    for (a, b), line_no in pairs:
        for x in (a, b):
            if x not in seen:
                raise ParseError(line_no, f"relation mentions undeclared element {x!r}")
    build = poset_core.strict_to_poset if strict else poset_core.validate_poset
    try:
        return build(elems, [p for p, _ in pairs], name)
    except (AntisymmetryViolation, IrreflexivityViolation):
        for upto in range(1, len(pairs) + 1):
            try:
                build(elems, [p for p, _ in pairs[:upto]], name)
            except (AntisymmetryViolation, IrreflexivityViolation) as err:
                raise ParseError(pairs[upto - 1][1], str(err)) from None


def metric_text_reference(text) -> RationalMetric:
    name = None
    points = []
    dist = {}
    entries = []
    for line_no, fields in records_reference(text):
        kind = fields[0]
        if kind == "metric":
            if len(fields) != 2 or name is not None:
                raise ParseError(line_no, "expected a single: metric <name>")
            name = fields[1]
        elif kind == "point":
            if len(fields) != 2:
                raise ParseError(line_no, "expected: point <id>")
            if fields[1] in points:
                raise ParseError(line_no, f"duplicate point {fields[1]!r}")
            points.append(fields[1])
        elif kind == "dist":
            if len(fields) != 4:
                raise ParseError(line_no, "expected: dist <a> <b> <num>/<den>")
            try:
                value = Fraction(fields[3])
            except (ValueError, ZeroDivisionError):
                raise ParseError(line_no, f"bad rational {fields[3]!r}") from None
            entries.append(((fields[1], fields[2]), value, line_no))
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")
    if name is None:
        raise ParseError(None, "missing metric header")
    for (a, b), value, line_no in entries:
        if (a, b) in dist and dist[(a, b)] != value:
            raise ParseError(line_no, f"conflicting distance for {a} {b}")
        dist[(a, b)] = value
    try:
        return RationalMetric(points, dist, name)
    except MetricAxiomViolation as err:
        raise ParseError(None, str(err)) from None


def space_text_reference(text) -> FiniteTopSpace:
    name = None
    points = {}
    basis = []
    for line_no, fields in records_reference(text):
        kind = fields[0]
        if kind == "space":
            if len(fields) != 2 or name is not None:
                raise ParseError(line_no, "expected a single: space <name>")
            name = fields[1]
        elif kind == "point":
            if len(fields) != 2:
                raise ParseError(line_no, "expected: point <id>")
            if fields[1] in points:
                raise ParseError(line_no, f"duplicate point {fields[1]!r}")
            points[fields[1]] = len(points)
        elif kind == "open":
            if len(fields) < 2:
                raise ParseError(line_no, "expected: open <name> <pt> ...")
            mask = 0
            for p in fields[2:]:
                if p not in points:
                    raise ParseError(line_no, f"open mentions undeclared point {p!r}")
                mask |= 1 << points[p]
            basis.append(mask)
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")
    if name is None:
        raise ParseError(None, "missing space header")
    try:
        return FiniteTopSpace(points, basis, name)
    except PosetError as err:
        raise ParseError(None, str(err)) from None


def input_text_reference(text):
    for line_no, fields in records_reference(text):
        parse = {"poset": poset_text_reference, "metric": metric_text_reference,
                 "space": space_text_reference}.get(fields[0])
        if parse is None:
            raise ParseError(line_no, f"unknown file kind {fields[0]!r}; expected poset, metric, or space")
        return parse(text)
    raise ParseError(None, "empty input")


def closed_poset_reference(elements, pairs, strict, name="poset") -> FinitePoset:
    """``validate_poset`` (``strict`` false) and ``strict_to_poset`` as first written on masks.

    The pairs close by Warshall's method (``poset_core._transitive_close``,
    itself checked against ``transitive_close``), the poset transposes its
    own up masks, and the checks scan in index order: for ``le`` pairs the
    first element lying below and above another, with the first such other
    one; for ``lt`` pairs the first element the closure relates to itself.
    """
    index = {}
    for e in elements:
        poset_core.check_element_id(e)
        if e in index:
            raise poset_core.DuplicateElement(e)
        index[e] = len(index)
    masks = [0 if strict else 1 << i for i in range(len(index))]
    for a, b in pairs:
        for x in (a, b):
            if x not in index:
                raise poset_core.UnknownElementInPair(x, (a, b))
        if strict and a == b:
            raise IrreflexivityViolation(a)
        masks[index[a]] |= 1 << index[b]
    elems, masks = tuple(index), poset_core._transitive_close(masks)
    if strict:
        for i, m in enumerate(masks):
            if m >> i & 1:
                raise IrreflexivityViolation(elems[i], derived=True)
        return FinitePoset(elems, [m | 1 << i for i, m in enumerate(masks)], name)
    poset = FinitePoset(elems, masks, name)
    for i, (m, d) in enumerate(zip(poset.up_masks, poset.down_masks)):
        both = m & d & ~(1 << i)
        if both:
            raise AntisymmetryViolation(elems[i], elems[_bits(both)[0]])
    return poset
