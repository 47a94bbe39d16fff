"""Filter-completion dcpos, way-below machinery, and the Scott topology check.

A directed subset of a finite poset contains its own maximum, its least
upper bound.  So every finite poset is a dcpo, way below is the order, and
every element is compact (Gierz et al., *Continuous Lattices and Domains*,
CUP 2003).  The answers here are read off the order masks.
"""

from __future__ import annotations

from typing import NamedTuple

from .poset_core import FinitePoset, _bits
from .topology import PosetSpace


_RESERVED = frozenset(",{}'\"")


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
    So ``compact_matches_principal`` is constant True: the completion's
    elements are the ids of the principal filters, one per element.
    """
    members, ids = _filter_ids(poset)
    dcpo = FinitePoset(ids, poset.down_masks, f"filters({poset.name})", poset.up_masks)
    maximal_table = {"{" + ", ".join(members[i]) + "}": ids[i] for i in poset.minimal_indices()}
    return CompletionResult(dcpo, maximal_table, dict(zip(poset.elements, ids)), True)


def _filter_ids(poset) -> tuple:
    """Each element's principal filter as member names, and as the completion's element id: the
    names in braces, joined by commas; a name holding a comma, a brace or a quote is written as its
    repr, which starts with a quote that no other name holds, so distinct filters get distinct ids."""
    elements = poset.elements
    members = shown = [[elements[i] for i in _bits(m)] for m in poset.up_masks]
    if not _RESERVED.isdisjoint("".join(elements)):
        shown = [[repr(p) if not _RESERVED.isdisjoint(p) else p for p in names] for names in members]
    return members, ["{%s}" % ",".join(names) for names in shown]


class ScottReport(NamedTuple):
    ok: bool
    table: tuple  # (poset element, matching completion element) pairs
    detail: str = ""
    # the two generating families, as masks over the completion's elements
    # (maximal elements only): restricted Scott opens, and MF basic opens
    scott_family: frozenset = frozenset()
    mf_family: frozenset = frozenset()


def scott_max_homeomorphism_check(poset: FinitePoset) -> ScottReport:
    """Compare the filter space with the Scott topology on maximal elements.

    Both topologies are generated on the maximal filters, the maximal
    elements of the completion.  The Scott side is read off the order
    dual, which the completion is: way above element q is its up-set, the
    down-set of q in the poset, cut to the minimal elements.  The MF side
    is built apart: the basic opens of ``PosetSpace``, whose point up(g)
    is element bit g, and so completion element g.  The families are
    equal, which settles it: up(g) contains e exactly when the minimal g
    lies below e, so both members for e are the minimal elements below e.
    The table pairs each poset element with the first completion id whose
    Scott open cuts out the same maximal filters as its basic open.
    """
    mf = PosetSpace(poset, "mf").opens
    max_mask = sum(1 << q for q in poset.minimal_indices())
    scott = [down & max_mask for down in poset.down_masks]
    scott_family, mf_family = frozenset(scott), frozenset(mf)
    ok = scott_family == mf_family
    table = ()
    if ok:
        first = {}  # the least id wins
        for d, s in zip(_filter_ids(poset)[1], scott):
            if s not in first or d < first[s]:
                first[s] = d
        table = tuple((p, first.get(m)) for p, m in zip(poset.elements, mf))
    detail = "" if ok else "the Scott and MF families on the maximal elements differ"
    return ScottReport(ok, table, detail, scott_family, mf_family)


def ideal_completion(poset: FinitePoset) -> CompletionResult:
    """The completion by ideals: the filter completion of the order dual."""
    return filter_completion(poset.dual())
