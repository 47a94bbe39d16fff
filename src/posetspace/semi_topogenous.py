"""Semi-topogenous orders on finite spaces and the two constructions over them."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .poset_core import FinitePoset, PosetError, _bits
from .constructions import FiniteTopSpace
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


def _powerset(n):
    base = list(range(n))
    for r in range(n + 1):
        for combo in itertools.combinations(base, r):
            yield frozenset(combo)


@dataclass(frozen=True)
class SubsetOrder:
    """A relation on subsets of a finite space.

    For spaces of at most four points the relation ranges over the full
    powerset; larger spaces must designate the family of subsets the
    relation speaks about, and all checks quantify over that family only.
    """

    space: FiniteTopSpace
    rel: frozenset  # pairs of frozensets of point indices
    family: tuple = None

    def domain(self):
        if self.family is not None:
            return tuple(self.family)
        if len(self.space) > FULL_POWERSET_CAP:
            raise PosetError(
                f"spaces over {FULL_POWERSET_CAP} points need a designated subset family"
            )
        return tuple(_powerset(len(self.space)))

    def holds(self, v, w) -> bool:
        return (frozenset(v), frozenset(w)) in self.rel

    def serialize(self):
        def fmt(s):
            return "{" + ",".join(self.space.points[i] for i in sorted(s)) + "}"

        return [f"rel {fmt(v)} {fmt(w)}" for v, w in sorted(self.rel, key=lambda p: (sorted(p[0]), sorted(p[1])))]


@dataclass(frozen=True)
class AxiomReport:
    axioms_ok: bool
    generates: bool
    violations: tuple


def check_axioms_and_generation(order: SubsetOrder) -> AxiomReport:
    """Exhaustively check the four subset-order axioms and generation.

    Generation means: for every subset u, the union of all v related
    below u is exactly the open kernel (interior) of u.
    """
    space = order.space
    dom = order.domain()
    dom_set = set(dom)
    violations = []
    whole = space.whole
    if not order.holds(frozenset(), frozenset()):
        violations.append("the empty set is not related to itself")
    if not order.holds(whole, whole):
        violations.append("the whole space is not related to itself")
    for v, w in order.rel:
        if not v <= w:
            violations.append(f"related pair is not nested: {space.set_str(v)} vs {space.set_str(w)}")
    for u in dom:
        for (v, w) in order.rel:
            if u <= v and (u, w) not in order.rel and u in dom_set:
                violations.append(
                    f"shrinking the left side breaks the relation at {space.set_str(u)}"
                )
                break
        else:
            continue
        break
    for (v, w) in order.rel:
        for u in dom:
            if w <= u and (v, u) not in order.rel:
                violations.append(
                    f"growing the right side breaks the relation at {space.set_str(u)}"
                )
                break
        else:
            continue
        break

    generates = True
    for u in dom:
        kernel = space.interior(u)
        union = frozenset()
        for v in dom:
            if order.holds(v, u):
                union |= v
        if union != kernel:
            generates = False
            break
    return AxiomReport(axioms_ok=not violations, generates=generates, violations=tuple(violations))


def interval_order(space: FiniteTopSpace, family=None) -> SubsetOrder:
    """Relate v to w when some open set sits between them."""
    dom = tuple(family) if family is not None else tuple(_powerset(len(space)))
    if family is None and len(space) > FULL_POWERSET_CAP:
        raise PosetError(f"spaces over {FULL_POWERSET_CAP} points need a designated subset family")
    rel = set()
    for v in dom:
        for w in dom:
            if v <= w and any(v <= o <= w for o in space.opens):
                rel.add((v, w))
    return SubsetOrder(space, frozenset(rel), family)


@dataclass(frozen=True)
class CompletenessReport:
    complete: bool
    meeting_filters: int
    witness: tuple = None  # the offending filter's minimum, when incomplete


def completeness_check(space: FiniteTopSpace, order: SubsetOrder) -> CompletenessReport:
    """Check that every set-filter meeting the order has a common point.

    A set-filter is a collection of nonempty subsets closed under finite
    intersection and superset; on a finite space each one is the
    collection of supersets of its nonempty core, so the enumeration
    walks the cores.  Meeting the order means every member has a member
    related below it.
    """
    if len(space) > FULL_POWERSET_CAP:
        raise PosetError(f"spaces over {FULL_POWERSET_CAP} points need a designated subset family")
    n = len(space)
    subsets = list(_powerset(n))
    meeting = 0
    for core in subsets:
        if not core:
            continue
        members = [u for u in subsets if core <= u]
        meets = all(any(order.holds(v, w) for v in members) for w in members)
        if not meets:
            continue
        meeting += 1
        common = space.whole
        for u in members:
            common &= u
        if not common:
            return CompletenessReport(False, meeting, witness=tuple(sorted(core)))
    return CompletenessReport(True, meeting)


@dataclass(frozen=True)
class MfFromOrderResult:
    poset: FinitePoset
    open_of: dict  # poset element id -> open point set
    point_filters: dict  # space point index -> frozenset of poset element ids
    bijective: bool
    membership_equivalence: bool
    maximal_filters_meet: bool
    space: PosetSpace
    failure: str = ""


def mf_poset_from_order(space: FiniteTopSpace, order: SubsetOrder) -> MfFromOrderResult:
    """Build the poset of nonempty opens under the strict subset order.

    Requires a T1 space and an order that passes the axioms, generation,
    and completeness checks.  Each point x gets the filter of opens
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
    comp = completeness_check(space, order)
    if not comp.complete:
        raise HypothesisFailed("completeness", f"filter at core {comp.witness}")

    opens = [o for o in space.opens if o]
    ids = [space.set_str(o).replace(" ", "") for o in opens]
    open_of = dict(zip(ids, opens))
    masks = [
        sum(1 << j for j, o2 in enumerate(opens) if j == k or order.holds(o, o2))
        for k, o in enumerate(opens)
    ]
    poset = FinitePoset(ids, masks, f"{space.name}|order")
    mf_space = PosetSpace(poset, "mf")

    point_filters = {
        x: frozenset(i for i, o in zip(ids, opens) if order.holds(frozenset([x]), o))
        for x in range(len(space.points))
    }
    point_of = {f.mask(): k for k, f in enumerate(mf_space.points)}
    check = verify_correspondence(
        range(len(space.points)),
        len(mf_space.points),
        {x: point_of.get(poset.mask_of(members)) for x, members in point_filters.items()},
        [(i, sum(1 << x for x in o), mf_space.opens[e]) for e, (i, o) in enumerate(zip(ids, opens))],
    )

    # every maximal filter's open family meets the order
    meets = all(
        all(any(order.holds(opens[v], opens[w]) for v in _bits(f.mask())) for w in _bits(f.mask()))
        for f in mf_space.points
    )

    return MfFromOrderResult(
        poset=poset,
        open_of=open_of,
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


@dataclass(frozen=True)
class OrderFromPosetResult:
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

    # MF(P) is discrete (see PosetSpace.is_open): its opens are all sets of points
    subsets = list(_powerset(len(mf.points)))
    basics = [frozenset(_bits(m)) for m in mf.opens]
    basis = sorted(set(basics), key=lambda s: (len(s), sorted(s)))
    point_names = [f"F{i}" for i in range(len(mf.points))]
    space = FiniteTopSpace(point_names, subsets, basis, name=f"MF({poset.name})")

    atoms = [o for o in space.opens if o and not any(o2 and o2 < o for o2 in space.opens)]
    whole = space.whole
    n = len(poset)
    lt_opens = [(basics[p], basics[q]) for p in range(n) for q in range(n) if p != q and poset.leq_idx(p, q)]
    rel = set()
    for v in subsets:
        for w in subsets:
            if not v <= w:
                related = False
            elif not v or w == whole:
                related = True
            elif any(v <= u <= w for u in atoms):
                related = True
            else:
                related = any(v <= lower and upper <= w for lower, upper in lt_opens)
            if related:
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
