"""Filter-completion dcpos, way-below machinery, and the Scott topology check."""

from __future__ import annotations

from dataclasses import dataclass

from .poset_core import FinitePoset, PosetError, _bits
from .filters import Filter, enumerate_filters
from .topology import PosetSpace, union_closure


class NotADcpo(PosetError):
    pass


class Dcpo:
    """A finite directed-complete order with cached order-theoretic data.

    Directed completeness is verified exhaustively on construction:
    every nonempty directed subset must have a least upper bound.  The
    way-below relation, the compact elements, and the maximal elements
    are computed from the raw definitions and cached.
    """

    def __init__(self, poset: FinitePoset):
        self.poset = poset
        n = len(poset)
        self._directed = []
        self._sup = {}
        for mask in range(1, 1 << n):
            if self._is_directed(mask):
                sup = self._lub(mask)
                if sup is None:
                    members = ", ".join(poset.names_of(mask))
                    raise NotADcpo(f"directed subset {{{members}}} has no least upper bound")
                self._directed.append(mask)
                self._sup[mask] = sup
        self._way_below = self._compute_way_below()

    def _is_directed(self, mask) -> bool:
        p = self.poset
        idxs = list(_bits(mask))
        for i in idxs:
            for j in idxs:
                if j < i:
                    continue
                if not any(p.leq_idx(i, k) and p.leq_idx(j, k) for k in idxs):
                    return False
        return True

    def _lub(self, mask):
        p = self.poset
        ubs = [k for k in range(len(p)) if all(p.leq_idx(i, k) for i in _bits(mask))]
        for k in ubs:
            if all(p.leq_idx(k, m) for m in ubs):
                return k
        return None

    def _compute_way_below(self):
        p = self.poset
        n = len(p)
        rel = [0] * n
        for q in range(n):
            for t in range(n):
                if all(
                    any(p.leq_idx(q, r) for r in _bits(mask))
                    for mask in self._directed
                    if p.leq_idx(t, self._sup[mask])
                ):
                    rel[q] |= 1 << t
        return tuple(rel)

    def way_below_idx(self, q: int, t: int) -> bool:
        return (self._way_below[q] >> t) & 1 == 1

    def way_below_pairs(self):
        p = self.poset
        return [
            (p.elements[q], p.elements[t])
            for q in range(len(p))
            for t in _bits(self._way_below[q])
        ]

    def compact_elements(self):
        p = self.poset
        return tuple(p.elements[i] for i in range(len(p)) if self.way_below_idx(i, i))

    def maximal_elements(self):
        p = self.poset
        return tuple(p.elements[i] for i in range(len(p)) if p.up_mask(i) == 1 << i)

    def double_down(self, t: int) -> int:
        """Mask of elements way below element ``t``."""
        m = 0
        for q in range(len(self.poset)):
            if self.way_below_idx(q, t):
                m |= 1 << q
        return m

    def double_up(self, q: int) -> int:
        return self._way_below[q]

    def scott_basic_opens(self):
        """The generating family of the Scott topology, one set per element."""
        p = self.poset
        return {p.elements[q]: frozenset(_bits(self._way_below[q])) for q in range(len(p))}


def way_below(dcpo: Dcpo):
    """The way-below relation from the raw definition, as name pairs.

    On a finite dcpo every directed set contains its supremum, so the
    relation collapses to the order itself; the collapse is asserted as a
    cross-check of the brute-force computation.
    """
    pairs = dcpo.way_below_pairs()
    order = set()
    p = dcpo.poset
    for i in range(len(p)):
        for j in _bits(p.up_mask(i)):
            order.add((p.elements[i], p.elements[j]))
    assert set(pairs) == order, "finite-case shortcut disagrees with the raw definition"
    return pairs


@dataclass(frozen=True)
class DcpoClassification:
    is_continuous: bool
    is_algebraic: bool
    compact_elements: tuple
    minimal_basis: tuple


def _is_basis(dcpo: Dcpo, basis_mask: int) -> bool:
    p = dcpo.poset
    for t in range(len(p)):
        below = dcpo.double_down(t) & basis_mask
        if not below or not dcpo._is_directed(below):
            return False
        if dcpo._lub(below) != t:
            return False
    return True


def dcpo_classify(dcpo: Dcpo) -> DcpoClassification:
    """Evaluate continuity, algebraicity, and a minimal basis, literally.

    Continuous: the set of elements way below each t is directed with
    supremum t.  Algebraic: the compact elements way below each t form
    such a set.  The minimal basis is found greedily, dropping elements
    in order while the remainder still satisfies the basis definition.
    """
    p = dcpo.poset
    continuous = True
    algebraic = True
    compact_mask = 0
    for i in range(len(p)):
        if dcpo.way_below_idx(i, i):
            compact_mask |= 1 << i
    for t in range(len(p)):
        below = dcpo.double_down(t)
        if not below or not dcpo._is_directed(below) or dcpo._lub(below) != t:
            continuous = False
        cb = below & compact_mask
        if not cb or not dcpo._is_directed(cb) or dcpo._lub(cb) != t:
            algebraic = False
    basis_mask = (1 << len(p)) - 1
    for i in range(len(p)):
        trimmed = basis_mask & ~(1 << i)
        if trimmed and _is_basis(dcpo, trimmed):
            basis_mask = trimmed
    return DcpoClassification(
        is_continuous=continuous,
        is_algebraic=algebraic,
        compact_elements=dcpo.compact_elements(),
        minimal_basis=tuple(p.names_of(basis_mask)),
    )


@dataclass(frozen=True)
class CompletionResult:
    dcpo: Dcpo
    filter_of: dict  # dcpo element id -> the Filter it stands for
    maximal_table: dict  # maximal filter (printed) -> dcpo element id
    compact_table: dict  # principal generator -> dcpo element id
    compact_matches_principal: bool


def _filter_id(f: Filter) -> str:
    return "{" + ",".join(sorted(f.members, key=f.poset.index)) + "}"


def filter_completion(poset: FinitePoset) -> CompletionResult:
    """All filters of a finite poset, ordered by inclusion, as a dcpo.

    The maximal filters of the poset land on the maximal elements of the
    completion and the principal filters on its compact elements; for a
    finite poset every filter is principal, so the compact elements are
    the whole carrier, and the identification is cross-checked.
    """
    all_filters = enumerate_filters(poset, "all")
    ids = [_filter_id(f) for f in all_filters]
    pos = {i: k for k, i in enumerate(ids)}
    masks = []
    for f in all_filters:
        m = 0
        for g in all_filters:
            if f.members <= g.members:
                m |= 1 << pos[_filter_id(g)]
        masks.append(m)
    carrier = FinitePoset(ids, masks, f"filters({poset.name})")
    dcpo = Dcpo(carrier)

    filter_of = dict(zip(ids, all_filters))
    maximal_table = {
        str(f): _filter_id(f) for f in enumerate_filters(poset, "maximal")
    }
    assert set(maximal_table.values()) == set(dcpo.maximal_elements())
    compact_table = {f.minimum(): _filter_id(f) for f in all_filters}
    compact_matches = set(compact_table.values()) == set(dcpo.compact_elements())
    return CompletionResult(dcpo, filter_of, maximal_table, compact_table, compact_matches)


@dataclass(frozen=True)
class ScottReport:
    ok: bool
    table: tuple  # (poset element, matching completion element) pairs
    detail: str = ""


def scott_max_homeomorphism_check(poset: FinitePoset) -> ScottReport:
    """Compare the filter space with the Scott topology on maximal elements.

    Both topologies are generated on the same carrier: the maximal
    filters of the poset.  The families of generating sets are closed
    under unions and compared; the table pairs each poset element with a
    completion element whose Scott open cuts out the same maximal
    filters as the element's basic open.
    """
    completion = filter_completion(poset)
    dcpo = completion.dcpo
    space = PosetSpace(poset, "mf")
    max_ids = dcpo.maximal_elements()
    max_pos = {m: i for i, m in enumerate(max_ids)}

    scott = dcpo.scott_basic_opens()
    scott_family = set()
    scott_restricted = {}
    for d, up in scott.items():
        cut = frozenset(
            max_pos[dcpo.poset.elements[i]] for i in up if dcpo.poset.elements[i] in max_pos
        )
        scott_restricted[d] = cut
        scott_family.add(cut)

    mf_family = set()
    mf_of = {}
    for p in poset.elements:
        cut = frozenset(
            max_pos[_filter_id(space.points[i])] for i in space.basic_open(p)
        )
        mf_of[p] = cut
        mf_family.add(cut)

    ok = union_closure(scott_family) == union_closure(mf_family)
    table = []
    if ok:
        for p in poset.elements:
            match = next(
                (d for d in sorted(scott_restricted) if scott_restricted[d] == mf_of[p]), None
            )
            table.append((p, match))
    detail = "" if ok else "the generated topologies on the maximal elements differ"
    return ScottReport(ok=ok, table=tuple(table), detail=detail)


def ideal_completion(poset: FinitePoset) -> CompletionResult:
    """The completion by ideals: the filter completion of the order dual."""
    return filter_completion(poset.dual())
