"""Semi-topogenous orders on finite spaces and the two constructions over them."""

from __future__ import annotations

import functools
from typing import NamedTuple

from .poset_core import FinitePoset, PosetError, _bits, _union
from .constructions import FiniteTopSpace, _set_key, open_poset
from .topology import PosetSpace, verify_correspondence


class HypothesisFailed(PosetError):
    def __init__(self, hypothesis, detail):
        super().__init__(f"hypothesis failed: {hypothesis} ({detail})")
        self.hypothesis = hypothesis


class ConditionFailed(PosetError):
    def __init__(self, witness, only_reflexive):
        p, q, r = witness
        super().__init__(f"order condition fails on ({p}, {q}, {r})"
                         + ("; every failure has r = p" if only_reflexive else ""))
        self.witness = witness
        self.only_reflexive = only_reflexive


FULL_POWERSET_CAP = 4


@functools.lru_cache(maxsize=None)
def _subsets(n: int) -> tuple:
    """The subsets of n points by size then contents, their supersets (bit w: subset w), and by points."""
    if n > FULL_POWERSET_CAP:
        raise PosetError(f"spaces over {FULL_POWERSET_CAP} points are too large: the checks walk every subset")
    size = 1 << n
    return (tuple(sorted(range(size), key=_set_key)),
            tuple(sum(1 << w for w in range(size) if not u & ~w) for u in range(size)),
            tuple(sorted(range(size), key=lambda u: tuple(_bits(u)))))


class SubsetOrder(NamedTuple):
    """A relation on the subsets of a finite space of at most four points.

    ``rows`` holds one mask per subset v, with bit w set when v is related
    to w; ``rel`` reads off the related pairs (v, w) of point masks.  The
    constructor trusts its arguments, as ``FinitePoset``'s does;
    ``from_pairs`` validates: it refuses a pair that is not a pair of subsets.
    """

    space: FiniteTopSpace
    rows: tuple  # per subset v, the mask of the subsets w that v is related to

    @classmethod
    def from_pairs(cls, space, pairs):
        rows = [0] * len(_subsets(len(space))[0])  # a space over the cap is refused before the list
        for v, w in pairs:
            if not (0 <= v < len(rows) and 0 <= w < len(rows)):
                raise PosetError(f"related pair ({v}, {w}) is not a pair of sets of {space.name}")
            rows[v] |= 1 << w
        return cls(space, tuple(rows))

    @property
    def rel(self) -> frozenset:
        return frozenset((v, w) for v, row in enumerate(self.rows) for w in _bits(row))

    def holds(self, v, w) -> bool:
        return bool(self.rows[v] >> w & 1)

    def serialize(self):
        rows, points, lex = self.rows, self.space.points, _subsets(len(self.space))[2]
        name = {u: "{" + ",".join(points[i] for i in _bits(u)) + "}" for u in lex}
        return [f"rel {name[v]} {name[w]}" for v in lex for w in lex if rows[v] >> w & 1]


class AxiomReport(NamedTuple):
    axioms_ok: bool
    generates: bool
    violations: tuple


def check_axioms_and_generation(order: SubsetOrder) -> AxiomReport:
    """Exhaustively check the four subset-order axioms and generation.

    Generation means: for every subset u, the union of all v related
    below u is exactly the open kernel (interior) of u.  The related
    pairs are walked in sorted order and the subsets by size and then
    contents, so each violation names the same witness on every run.
    """
    space, rows = order.space, order.rows
    dom, sup, _ = _subsets(len(space))
    fmt, whole = space.set_str, space.whole_mask
    violations = []
    if not rows[0] & 1:
        violations.append("the empty set is not related to itself")
    if not rows[whole] >> whole & 1:
        violations.append("the whole space is not related to itself")
    for v, row in enumerate(rows):
        for w in _bits(row & ~sup[v]):
            violations.append(f"related pair is not nested: {fmt(v)} vs {fmt(w)}")
    u = next((u for u in dom if _union(rows, sup[u]) & ~rows[u]), None)  # what a superset of u relates to, u must too
    if u is not None:
        violations.append(f"shrinking the left side breaks the relation at {fmt(u)}")
    grown = next((sup[w] & ~row for row in rows for w in _bits(row) if sup[w] & ~row), 0)  # first pair's misses
    u = next((u for u in dom if grown >> u & 1), None)
    if u is not None:
        violations.append(f"growing the right side breaks the relation at {fmt(u)}")

    union = [0] * len(rows)  # per subset u, the union of the subsets related to u
    for v, row in enumerate(rows):
        for w in _bits(row):
            union[w] |= v
    generates = all(union[u] == space.interior(u) for u in range(len(rows)))
    return AxiomReport(axioms_ok=not violations, generates=generates, violations=tuple(violations))


def interval_order(space: FiniteTopSpace) -> SubsetOrder:
    """Relate v to w when some open set sits between them.

    The least open set around v is up(v), the union of the U_x of its
    points; it sits inside w exactly when v sits inside the interior of w.
    """
    inner = [space.interior(w) for w in range(len(_subsets(len(space))[1]))]  # per subset, its interior
    rows = [sum(1 << w for w, i in enumerate(inner) if not v & ~i) for v in range(len(inner))]
    return SubsetOrder(space, tuple(rows))


class CompletenessReport(NamedTuple):
    complete: bool
    meeting_filters: int


def completeness_check(space: FiniteTopSpace, order: SubsetOrder) -> CompletenessReport:
    """Every set-filter meeting the order has a common point; count those filters.

    A set-filter is a collection of nonempty subsets closed under finite
    intersection and superset; on a finite space each one is the
    collection of supersets of its nonempty core, so the enumeration
    walks the cores.  Meeting the order means every member has a member
    related below it.  The core is itself a member and lies inside every
    member, so the points of the core are common to all of them: every
    order on a finite space is complete.
    """
    sup = _subsets(len(space))[1]
    return CompletenessReport(True, sum(not sup[core] & ~_union(order.rows, sup[core]) for core in range(1, len(sup))))


class MfFromOrderResult(NamedTuple):
    poset: FinitePoset
    open_of: dict  # poset element id -> open point mask
    point_filters: dict  # space point index -> mask of the poset elements in its filter
    axioms: AxiomReport  # the hypothesis check of the order
    bijective: bool
    membership_equivalence: bool
    maximal_filters_meet: bool
    space: PosetSpace
    failure: str = ""


def mf_poset_from_order(space: FiniteTopSpace, order: SubsetOrder) -> MfFromOrderResult:
    """Build the poset of nonempty opens under the strict subset order.

    Requires a T1 space and an order that passes the axioms and
    generation checks; completeness holds on every finite space (see
    completeness_check).  Each point x gets the filter of opens
    related above its singleton; the report verifies that this is a
    bijection onto the maximal filters and that membership in an open
    matches membership of the corresponding basic open.
    """
    if not space.is_t1():
        raise HypothesisFailed("T1", "some singleton is not closed")
    report = check_axioms_and_generation(order)
    if not report.axioms_ok:
        raise HypothesisFailed("axioms", "; ".join(report.violations))
    if not report.generates:
        raise HypothesisFailed("generation", "the order does not generate the topology")

    rows = order.rows
    opens, poset, mf_space, pairs = open_poset(space, lambda v, w: rows[v] >> w & 1, "order")
    point_filters = {x: sum(1 << e for e, o in enumerate(opens) if rows[1 << x] >> o & 1)
                     for x in range(len(space))}
    point_of = {poset.up_mask(g): g for g in mf_space.generators}
    check = verify_correspondence(
        range(len(space)),
        mf_space.whole_mask,
        {x: point_of.get(m) for x, m in point_filters.items()},
        [(i, o, m) for i, m, o in pairs],  # the space's points are the source
    )

    # each maximal filter's family of opens meets the order: each is in the row of one of them
    open_bits = [1 << o for o in opens]
    families = [_union(open_bits, poset.up_mask(g)) for g in mf_space.generators]

    return MfFromOrderResult(
        poset=poset,
        open_of=dict(zip(poset.elements, opens)),
        point_filters=point_filters,
        axioms=report,
        bijective=check.bijective,
        membership_equivalence=check.ok,
        maximal_filters_meet=all(not f & ~_union(rows, f) for f in families),
        space=mf_space,
        failure=check.failure,
    )


def check_order_condition(poset: FinitePoset):
    """Witnesses of the refinement condition used by the converse construction.

    The condition asks that whenever p lies strictly below q and the
    basic open of q sits inside the basic open of r, p lies strictly
    below r.  Returns (witnesses, only_reflexive): failing triples and
    whether every failure has r equal to p.
    """
    n, names = len(poset), poset.elements
    # the basic open of q, by the minimal elements below q: the generators of its points
    minimal = sum(1 << g for g in poset.minimal_indices())
    opens = [d & minimal for d in poset.down_masks]
    witnesses = [(names[p], names[q], names[r]) for p in range(n) for q in range(n) if p != q and poset.leq_idx(p, q)
                 for r in range(n) if not opens[q] & ~opens[r] and (p == r or not poset.leq_idx(p, r))]
    only_reflexive = bool(witnesses) and all(w[2] == w[0] for w in witnesses)
    return witnesses, only_reflexive


class OrderFromPosetResult(NamedTuple):
    order: SubsetOrder
    space: FiniteTopSpace  # the filter space, as a finite topological space
    axioms: AxiomReport
    completeness: CompletenessReport
    ok: bool  # the axioms hold and the order generates; it is always complete


def order_from_poset(poset: FinitePoset) -> OrderFromPosetResult:
    """A complete generating subset order on the filter space of a poset.

    The poset must satisfy the refinement condition checked by
    check_order_condition.  Two subsets are related when the left one is
    empty, the right one is the whole space, a minimal nonempty open (an
    atom) sits between them, or some strictly related pair of poset
    elements has the left set inside the lower basic open and the upper
    basic open inside the right set.
    """
    witnesses, only_reflexive = check_order_condition(poset)
    if witnesses:
        raise ConditionFailed(witnesses[0], only_reflexive)
    mf = PosetSpace(poset, "mf")
    if len(mf) > FULL_POWERSET_CAP:
        raise PosetError(f"the filter space has more than {FULL_POWERSET_CAP} points")

    # MF(P) is discrete (see PosetSpace.is_open): its opens are all sets of
    # points, and its atoms, the minimal nonempty opens, are the singletons.
    # A FiniteTopSpace numbers its own points: F{i} is up(g) for the i-th minimal g
    point_bit = dict(zip(mf.generators, [1 << i for i in range(len(mf))]))
    opens = [_union(point_bit, o) for o in mf.opens]
    space = FiniteTopSpace([f"F{i}" for i in range(len(mf))], opens, name=f"MF({poset.name})")
    sup = _subsets(len(space))[1]
    n = len(poset)
    lt_opens = [(opens[p], opens[q]) for p in range(n) for q in range(n) if p != q and poset.leq_idx(p, q)]
    rows = []
    for v in range(len(sup)):  # the empty set and the atoms below every superset, every set below the whole
        row = -1 if v.bit_count() <= 1 else 1 << space.whole_mask
        for lower, upper in lt_opens:
            if not v & ~lower:
                row |= sup[upper]
        rows.append(row & sup[v])
    order = SubsetOrder(space, tuple(rows))
    axioms = check_axioms_and_generation(order)
    completeness = completeness_check(space, order)
    return OrderFromPosetResult(
        order=order,
        space=space,
        axioms=axioms,
        completeness=completeness,
        ok=axioms.axioms_ok and axioms.generates,
    )
