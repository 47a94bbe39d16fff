"""Filter-completion dcpos, way-below machinery, and the Scott topology check.

A directed subset of a finite poset contains its own maximum, its least
upper bound.  So every finite poset is a dcpo, way below is the order, and
every element is compact (Gierz et al., *Continuous Lattices and Domains*,
CUP 2003).  The answers here are read off the order masks.
"""

from __future__ import annotations

from typing import NamedTuple

from .poset_core import FinitePoset, _bits
from .filters import Filter
from .topology import PosetSpace


def way_below(dcpo: FinitePoset):
    """The way-below relation as name pairs: on a finite dcpo, the order."""
    return dcpo.pairs()


class DcpoClassification(NamedTuple):
    is_continuous: bool
    is_algebraic: bool
    compact_elements: tuple
    minimal_basis: tuple


def dcpo_classify(dcpo: FinitePoset) -> DcpoClassification:
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
        compact_elements=dcpo.elements,
        minimal_basis=dcpo.elements,
    )


class CompletionResult(NamedTuple):
    dcpo: FinitePoset  # the completion, ordered by inclusion
    filter_of: dict  # dcpo element id -> the Filter it stands for
    maximal_table: dict  # maximal filter (printed) -> dcpo element id
    compact_table: dict  # principal generator -> dcpo element id
    compact_matches_principal: bool


def filter_completion(poset: FinitePoset) -> CompletionResult:
    """All filters of a finite poset, ordered by inclusion, as a dcpo.

    Every filter of a finite poset is the principal filter of its least
    member, and the principal filter of a lies inside that of b exactly
    when b <= a: the completion is the order dual, one filter per element,
    so its up masks are the poset's down masks and its down masks the up
    masks.  The maximal filters land on its maximal elements and the
    principal filters on its compact elements, which are the whole carrier.
    """
    ids = ["{" + ",".join(poset.names_of(m)) + "}" for m in poset.up_masks]
    dcpo = FinitePoset(ids, poset.down_masks, f"filters({poset.name})", poset.up_masks)

    filter_of = {d: Filter(poset, i) for i, d in enumerate(ids)}
    maximal_table = {str(Filter(poset, i)): ids[i] for i in poset.minimal_indices()}
    compact_table = dict(zip(poset.elements, ids))
    compact_matches = set(compact_table.values()) == set(dcpo.elements)
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
    carrier = filter_completion(poset).dcpo
    space = PosetSpace(poset, "mf")
    max_mask = sum(1 << q for q, up in enumerate(carrier.up_masks) if up == 1 << q)
    # way above q is the up-set of q, so its Scott open is that up-set
    scott_of = {carrier.elements[q]: carrier.up_mask(q) & max_mask for q in range(len(carrier))}
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
