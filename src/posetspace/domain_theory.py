"""Filter-completion dcpos, way-below machinery, and the Scott topology check.

A directed subset of a finite poset contains its own maximum, its least
upper bound.  So every finite poset is a dcpo, way below is the order, and
every element is compact (Gierz et al., *Continuous Lattices and Domains*,
CUP 2003).  The answers here are read off the order masks.
"""

from __future__ import annotations

from typing import NamedTuple

from .poset_core import FinitePoset, _bits
from .filters import Filter, enumerate_filters
from .topology import PosetSpace


class Dcpo:
    """A finite poset seen as a dcpo; way below is its order."""

    def __init__(self, poset: FinitePoset):
        self.poset = poset

    def way_below_idx(self, q: int, t: int) -> bool:
        return self.poset.leq_idx(q, t)

    def way_below_pairs(self):
        return self.poset.pairs()

    def compact_elements(self):
        return self.poset.elements

    def maximal_elements(self):
        p = self.poset
        return tuple(p.elements[i] for i in range(len(p)) if p.up_mask(i) == 1 << i)

    def double_up(self, q: int) -> int:
        return self.poset.up_mask(q)


def way_below(dcpo: Dcpo):
    """The way-below relation as name pairs: on a finite dcpo, the order."""
    return dcpo.way_below_pairs()


class DcpoClassification(NamedTuple):
    is_continuous: bool
    is_algebraic: bool
    compact_elements: tuple
    minimal_basis: tuple


def dcpo_classify(dcpo: Dcpo) -> DcpoClassification:
    """Continuity, algebraicity, and the minimal basis of a finite dcpo.

    The elements way below t are the down-set of t, a directed set with
    supremum t, and all of them are compact: every finite dcpo is
    continuous and algebraic.  A basis must contain t itself, because the
    basis elements below t are directed, so their supremum t is one of
    them; the minimal basis is therefore the whole carrier.
    """
    return DcpoClassification(
        is_continuous=True,
        is_algebraic=True,
        compact_elements=dcpo.compact_elements(),
        minimal_basis=dcpo.poset.elements,
    )


class CompletionResult(NamedTuple):
    dcpo: Dcpo
    filter_of: dict  # dcpo element id -> the Filter it stands for
    maximal_table: dict  # maximal filter (printed) -> dcpo element id
    compact_table: dict  # principal generator -> dcpo element id
    compact_matches_principal: bool


def _filter_id(f: Filter) -> str:
    return "{" + ",".join(f.poset.names_of(f.mask())) + "}"


def filter_completion(poset: FinitePoset) -> CompletionResult:
    """All filters of a finite poset, ordered by inclusion, as a dcpo.

    Every filter of a finite poset is the principal filter of its least
    member, and the principal filter of a lies inside that of b exactly
    when b <= a: the completion is the order dual, one filter per element.
    The maximal filters land on its maximal elements and the principal
    filters on its compact elements, which are the whole carrier.
    """
    all_filters = enumerate_filters(poset, "all")
    ids = [_filter_id(f) for f in all_filters]
    masks = [poset.down_mask(i) for i in range(len(poset))]
    dcpo = Dcpo(FinitePoset(ids, masks, f"filters({poset.name})"))

    filter_of = dict(zip(ids, all_filters))
    maximal_table = {str(f): _filter_id(f) for f in enumerate_filters(poset, "maximal")}
    compact_table = {f.minimum(): _filter_id(f) for f in all_filters}
    compact_matches = set(compact_table.values()) == set(dcpo.compact_elements())
    return CompletionResult(dcpo, filter_of, maximal_table, compact_table, compact_matches)


class ScottReport(NamedTuple):
    ok: bool
    table: tuple  # (poset element, matching completion element) pairs
    detail: str = ""
    # the two generating families, as masks over the completion's elements
    # (maximal elements only): restricted Scott opens, and MF basic opens
    scott_family: frozenset = frozenset()
    mf_family: frozenset = frozenset()


def _generate_same_topology(family, other) -> bool:
    """True when each member of either family is the union of the other's members inside it.

    That is exactly when the two families, closed under unions, coincide.
    Members are bitmasks over one carrier.
    """

    def covered(a, b):
        for u in a:
            union = 0
            for v in b:
                if v & ~u == 0:
                    union |= v
            if union != u:
                return False
        return True

    return covered(family, other) and covered(other, family)


def scott_max_homeomorphism_check(poset: FinitePoset) -> ScottReport:
    """Compare the filter space with the Scott topology on maximal elements.

    Both topologies are generated on the same carrier: the maximal
    filters of the poset, as maximal elements of the completion.  The
    table pairs each poset element with a completion element whose Scott
    open cuts out the same maximal filters as the element's basic open.
    """
    dcpo = filter_completion(poset).dcpo
    carrier = dcpo.poset
    space = PosetSpace(poset, "mf")
    max_mask = carrier.mask_of(dcpo.maximal_elements())
    scott_of = {carrier.elements[q]: dcpo.double_up(q) & max_mask for q in range(len(carrier))}
    # the completion holds one filter per element, in element order, so the
    # point generated by g is the completion element with index g
    mf_of = {
        p: sum(1 << space.generators[i] for i in _bits(space.opens[e]))
        for e, p in enumerate(poset.elements)
    }
    scott_family = frozenset(scott_of.values())
    mf_family = frozenset(mf_of.values())

    ok = _generate_same_topology(scott_family, mf_family)
    table = []
    if ok:
        for p in poset.elements:
            match = next((d for d in sorted(scott_of) if scott_of[d] == mf_of[p]), None)
            table.append((p, match))
    detail = "" if ok else "the generated topologies on the maximal elements differ"
    return ScottReport(ok, tuple(table), detail, scott_family, mf_family)


def ideal_completion(poset: FinitePoset) -> CompletionResult:
    """The completion by ideals: the filter completion of the order dual."""
    return filter_completion(poset.dual())
