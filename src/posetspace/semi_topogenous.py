"""Semi-topogenous orders on finite spaces and the two constructions over them."""

from __future__ import annotations

from typing import NamedTuple

from .poset_core import FinitePoset, PosetError, _bits
from .constructions import FiniteTopSpace, _set_key, open_poset
from .topology import PosetSpace, verify_correspondence


class HypothesisFailed(PosetError):
    def __init__(self, hypothesis, detail=""):
        message = f"hypothesis failed: {hypothesis}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.hypothesis = hypothesis


class ConditionFailed(PosetError):
    def __init__(self, witness, only_reflexive):
        p, q, r = witness
        super().__init__(
            f"order condition fails on ({p}, {q}, {r})"
            + ("; every failure has r = p" if only_reflexive else "")
        )
        self.witness = witness
        self.only_reflexive = only_reflexive


FULL_POWERSET_CAP = 4


def _subsets(space: FiniteTopSpace) -> list:
    """Every subset of the space as a point mask, by size and then contents."""
    if len(space) > FULL_POWERSET_CAP:
        raise PosetError(f"spaces over {FULL_POWERSET_CAP} points are too large: "
                         "the checks walk every subset")
    return sorted(range(1 << len(space)), key=_set_key)


class SubsetOrder(NamedTuple):
    """A relation on the subsets of a finite space of at most four points."""

    space: FiniteTopSpace
    rel: frozenset  # pairs (v, w) of point masks

    def holds(self, v, w) -> bool:
        return (v, w) in self.rel

    def serialize(self):
        fmt = self.space.set_str
        pairs = sorted(self.rel, key=lambda p: (tuple(_bits(p[0])), tuple(_bits(p[1]))))
        return [f"rel {fmt(v)} {fmt(w)}".replace(", ", ",") for v, w in pairs]


class AxiomReport(NamedTuple):
    axioms_ok: bool
    generates: bool
    violations: tuple


def check_axioms_and_generation(order: SubsetOrder) -> AxiomReport:
    """Exhaustively check the four subset-order axioms and generation.

    Generation means: for every subset u, the union of all v related
    below u is exactly the open kernel (interior) of u.  The related
    pairs are walked in sorted order, so each violation names the same
    witness on every run.
    """
    space = order.space
    dom = _subsets(space)
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
    return AxiomReport(axioms_ok=not violations, generates=generates, violations=tuple(violations))


def interval_order(space: FiniteTopSpace) -> SubsetOrder:
    """Relate v to w when some open set sits between them.

    The least open set around v is up(v), the union of the U_x of its
    points; it sits inside w exactly when v sits inside the interior of w.
    """
    dom = _subsets(space)
    return SubsetOrder(space, frozenset((v, w) for w in dom for v in dom if not v & ~space.interior(w)))


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
    subsets = _subsets(space)
    meeting = 0
    for core in subsets[1:]:  # subsets[0] is the empty set
        members = [u for u in subsets if not core & ~u]
        meeting += all(any(order.holds(v, w) for v in members) for w in members)
    return CompletenessReport(True, meeting)


class MfFromOrderResult(NamedTuple):
    poset: FinitePoset
    open_of: dict  # poset element id -> open point mask
    point_filters: dict  # space point index -> frozenset of poset element ids
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

    opens, poset, mf_space, pairs = open_poset(space, order.holds, "order")
    point_filters = {
        x: frozenset(i for i, o in zip(poset.elements, opens) if order.holds(1 << x, o))
        for x in range(len(space.points))
    }
    point_of = {f.mask(): k for k, f in enumerate(mf_space.points)}
    check = verify_correspondence(
        range(len(space.points)),
        len(mf_space.points),
        {x: point_of.get(poset.mask_of(members)) for x, members in point_filters.items()},
        pairs,
    )

    # every maximal filter's open family meets the order
    meets = all(
        all(any(order.holds(opens[v], opens[w]) for v in _bits(f.mask())) for w in _bits(f.mask()))
        for f in mf_space.points
    )

    return MfFromOrderResult(
        poset=poset,
        open_of=dict(zip(poset.elements, opens)),
        point_filters=point_filters,
        bijective=check.bijective,
        membership_equivalence=check.ok,
        maximal_filters_meet=meets,
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
    opens = PosetSpace(poset, "mf").opens
    n = len(poset)
    witnesses = []
    for p in range(n):
        for q in range(n):
            if p == q or not poset.leq_idx(p, q):
                continue
            for r in range(n):
                if not opens[q] & ~opens[r] and (p == r or not poset.leq_idx(p, r)):
                    witnesses.append((poset.elements[p], poset.elements[q], poset.elements[r]))
    only_reflexive = bool(witnesses) and all(w[2] == w[0] for w in witnesses)
    return witnesses, only_reflexive


class OrderFromPosetResult(NamedTuple):
    order: SubsetOrder
    space: FiniteTopSpace  # the filter space, as a finite topological space
    axioms: AxiomReport
    completeness: CompletenessReport
    ok: bool


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
    if len(mf.points) > FULL_POWERSET_CAP:
        raise PosetError(f"the filter space has more than {FULL_POWERSET_CAP} points")

    # MF(P) is discrete (see PosetSpace.is_open): its opens are all sets of
    # points, and its atoms, the minimal nonempty opens, are the singletons
    space = FiniteTopSpace([f"F{i}" for i in range(len(mf.points))], mf.opens, name=f"MF({poset.name})")
    subsets = _subsets(space)
    n = len(poset)
    lt_opens = [(mf.opens[p], mf.opens[q]) for p in range(n) for q in range(n) if p != q and poset.leq_idx(p, q)]
    rel = set()
    for v in subsets:
        for w in subsets:
            if v & ~w:
                continue
            if (not v or w == space.whole_mask or v.bit_count() == 1
                    or any(not v & ~lower and not upper & ~w for lower, upper in lt_opens)):
                rel.add((v, w))
    order = SubsetOrder(space, frozenset(rel))
    axioms = check_axioms_and_generation(order)
    completeness = completeness_check(space, order)
    return OrderFromPosetResult(
        order=order,
        space=space,
        axioms=axioms,
        completeness=completeness,
        ok=axioms.axioms_ok and axioms.generates and completeness.complete,
    )
