"""Spaces of maximal/unbounded filters, separation checks, and subposet reduction."""

from __future__ import annotations

from dataclasses import dataclass

from .poset_core import FinitePoset, PosetError, UnknownElement, _bits
from .filters import Filter, enumerate_filters


class NotABasis(PosetError):
    def __init__(self, element, point):
        super().__init__(
            f"seed basis has no member around point {point} inside the basic open of {element!r}"
        )
        self.element = element
        self.point = point


class PosetSpace:
    """The space of maximal (mode "mf") or unbounded (mode "uf") filters.

    Points are the enumerated filters in generator order; opens are
    handled as frozensets of point indices.  The basic open of an element
    p collects the points whose filter contains p.  ``generators[i]`` is
    the element index of the least member of point i, and ``opens[e]`` is
    the basic open of element index e, read off the generators' up-masks.
    """

    def __init__(self, poset: FinitePoset, mode: str):
        if mode not in ("mf", "uf"):
            raise ValueError(f"mode must be 'mf' or 'uf', got {mode!r}")
        self.poset = poset
        self.mode = mode
        kind = "maximal" if mode == "mf" else "unbounded"
        self.points = tuple(enumerate_filters(poset, kind))
        # on a finite poset both kinds are the upsets of the minimal elements
        self.generators = poset.minimal_indices()
        opens = [[] for _ in poset.elements]
        for i, g in enumerate(self.generators):
            for e in _bits(poset.up_mask(g)):
                opens[e].append(i)
        self.opens = tuple(frozenset(o) for o in opens)
        self._basic = dict(zip(poset.elements, self.opens))
        self.whole = frozenset(range(len(self.points)))

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"PosetSpace({self.mode}({self.poset.name}), {len(self)} points)"

    def basic_open(self, element) -> frozenset:
        try:
            return self._basic[element]
        except KeyError:
            raise UnknownElement(element) from None

    def open_from_elements(self, elements) -> frozenset:
        out = frozenset()
        for e in elements:
            out |= self.basic_open(e)
        return out

    def is_open(self, point_set) -> bool:
        """Open means a union of basic opens.

        Basic opens are monotone, so the least basic open around point i
        is the basic open of its generator; the set is open exactly when
        it holds that open for each of its points.  A set holding
        anything but a point of the space is not open.
        """
        point_set = frozenset(point_set)
        return point_set <= self.whole and all(
            self.opens[self.generators[i]] <= point_set for i in point_set
        )

    def point_index(self, filt: Filter) -> int:
        for i, f in enumerate(self.points):
            if f.members == filt.members:
                return i
        raise KeyError(f"{filt} is not a point of {self!r}")

    def set_str(self, point_set) -> str:
        return "{" + ", ".join(str(self.points[i]) for i in sorted(point_set)) + "}"


def basic_open(space: PosetSpace, element) -> frozenset:
    return space.basic_open(element)


def union_closure(family) -> set:
    """Every union of members of ``family``, the empty union included."""
    out = {frozenset()}
    for b in family:
        out |= {u | b for u in out}
    return out


@dataclass(frozen=True)
class Correspondence:
    ok: bool
    bijective: bool
    failure: str = ""
    witness: object = None  # a source point, or a missed destination index


def verify_correspondence(src_points, dst_count, point_map, open_pairs, inverse=None) -> Correspondence:
    """Check that a point map is a bijection under which basic opens match.

    ``point_map`` sends each source point to an index in
    ``range(dst_count)``; a missing or None entry leaves it undefined.
    The checks run in order: the map is total, injective and onto; the
    optional ``inverse`` undoes it on every source point (for a bijection
    that makes it the two-sided inverse); and for each ``(label,
    src_open, dst_open)`` a source point lies in ``src_open`` exactly when
    its image lies in ``dst_open``.  The first failure is reported with
    a witness.
    """
    src_points = tuple(src_points)
    preimage = {}
    for x in src_points:
        y = point_map.get(x)
        if y is None or not 0 <= y < dst_count:
            return Correspondence(False, False, "point map is not total", x)
        if y in preimage:
            return Correspondence(False, False, "point map is not injective", x)
        preimage[y] = x
    if len(preimage) != dst_count:
        missed = next(y for y in range(dst_count) if y not in preimage)
        return Correspondence(False, False, "point map is not surjective", missed)
    if inverse is not None:
        for x in src_points:
            if inverse.get(point_map[x]) != x:
                return Correspondence(False, True, "point map and its inverse disagree", x)
    for label, src_open, dst_open in open_pairs:
        for x in src_points:
            if (x in src_open) != (point_map[x] in dst_open):
                return Correspondence(False, True, f"basic open of {label} does not correspond", x)
    return Correspondence(True, True)


@dataclass(frozen=True)
class SeparationReport:
    t0: bool
    t1: bool
    uf_equals_mf: bool


def separation_check(space: PosetSpace) -> SeparationReport:
    """Evaluate T0, T1 and whether the UF and MF point sets coincide."""
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
    return SeparationReport(t0=t0, t1=t1, uf_equals_mf=uf == mf)


def _check_seed_is_basis(space: PosetSpace, seed) -> None:
    seed_opens = {q: space.basic_open(q) for q in seed}
    for p in space.poset.elements:
        np = space.basic_open(p)
        for i in np:
            if not any(i in nq and nq <= np for nq in seed_opens.values()):
                raise NotABasis(p, str(space.points[i]))


@dataclass(frozen=True)
class ReduceResult:
    subposet: FinitePoset
    kept: tuple
    stages: int
    mapping: tuple  # pairs (filter on P, its restriction to the subposet)


def reduce_countable_subposet(poset: FinitePoset, seed_basis, stage_cap=None) -> ReduceResult:
    """Saturate a basis into a subposet carrying the same MF space.

    Starting from the seed, each stage adds, for every finite subset D of
    the current set that lies in some maximal filter, enough common lower
    bounds of D to cover the basic-open intersection of D.  The cover is
    chosen greedily in element order, so the result is deterministic.
    For a finite poset the stages stabilize; ``stage_cap`` merely stops
    the iteration early for instrumentation.

    The restriction map F -> F intersect R is returned as a table; it is
    a bijection onto the maximal filters of the subposet (see
    restriction_homeomorphism_check).  Runtime is exponential in the size
    of the saturated set, which is fine at desk scale.
    """
    space = PosetSpace(poset, "mf")
    seed = [q for q in poset.elements if q in set(seed_basis)]
    for q in seed_basis:
        poset.index(q)
    _check_seed_is_basis(space, seed)

    current = list(seed)
    stages = 0
    while True:
        added = []
        subsets = [[]]
        for q in current:
            subsets += [s + [q] for s in subsets]
        for d in subsets:
            if not d:
                continue
            target = space.whole
            for q in d:
                target &= space.basic_open(q)
            if not target:
                continue
            lower = (1 << len(poset)) - 1
            for q in d:
                lower &= poset.down_mask(poset.index(q))
            covered = frozenset()
            for e in poset.names_of(lower):
                if covered >= target:
                    break
                gain = space.basic_open(e) & target
                if gain - covered:
                    covered |= gain
                    if e not in current and e not in added:
                        added.append(e)
        stages += 1
        if not added or (stage_cap is not None and stages >= stage_cap):
            current += added
            break
        current += added

    kept = tuple(e for e in poset.elements if e in set(current))
    sub = poset.restrict(kept, name=f"{poset.name}|reduced")
    mapping = tuple(
        (f, Filter(sub, frozenset(f.members) & frozenset(kept))) for f in space.points
    )
    return ReduceResult(subposet=sub, kept=kept, stages=stages, mapping=mapping)


@dataclass(frozen=True)
class HomeoReport:
    ok: bool
    reason: str = ""
    counterexample: object = None


def restriction_homeomorphism_check(poset: FinitePoset, sub) -> HomeoReport:
    """Decide whether F -> F intersect R is a homeomorphism onto MF(R).

    ``sub`` may be a FinitePoset on a subset of the elements or an
    iterable of element names.  The check enumerates both point sets,
    verifies the restriction map is a bijection under which basic opens
    of R correspond, and verifies that images of basic opens are open.
    """
    if isinstance(sub, FinitePoset):
        r_poset = sub
    else:
        r_poset = poset.restrict(tuple(sub))
    r_names = frozenset(r_poset.elements)

    big = PosetSpace(poset, "mf")
    small = PosetSpace(r_poset, "mf")
    small_sets = {f.members: i for i, f in enumerate(small.points)}
    images = {i: small_sets.get(f.members & r_names) for i, f in enumerate(big.points)}
    check = verify_correspondence(
        range(len(big.points)),
        len(small.points),
        images,
        [(r, big.basic_open(r), small.basic_open(r)) for r in r_poset.elements],
    )
    if not check.ok:
        return HomeoReport(False, check.failure, check.witness)
    for p in poset.elements:
        image_open = frozenset(images[i] for i in big.basic_open(p))
        if not small.is_open(image_open):
            return HomeoReport(False, "image of a basic open is not open", p)
    return HomeoReport(True)
