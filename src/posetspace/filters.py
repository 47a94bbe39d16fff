"""Filters on posets: representation, classification, enumeration, extension."""

from __future__ import annotations

from typing import NamedTuple

from .poset_core import FinitePoset, PosetError, UnknownChoice, _bits, _union


class NotAFilter(PosetError):
    def __init__(self, members, reason):
        super().__init__(f"{sorted(members)} is not a filter: {reason}")
        self.members = frozenset(members)
        self.reason = reason


def filter_generator(poset: FinitePoset, mask: int):
    """The filter test: the element whose upset is exactly ``mask``, or None.

    A filter (nonempty, upward closed, down-directed) on a finite poset
    is the upset of its least member, and every upset is a filter.  A
    nonempty finite down-directed set x1, ..., xk has a least member: put
    y1 = x1, let y(j+1) be a member below yj and x(j+1); yk lies below
    every member.  Upward closure then makes a filter equal up(yk).
    """
    return next((i for i in _bits(mask) if poset.up_mask(i) == mask), None)


def bounded(poset: FinitePoset, mask: int) -> bool:
    """Some element lies strictly below every member: one outside the set lies below them all."""
    below = (1 << len(poset)) - 1
    for q in _bits(mask):
        below &= poset.down_mask(q)
    return below & ~mask != 0


class Filter(NamedTuple):
    """A filter on a finite poset, named by the index of its least member.

    Every filter on a finite poset is the upset of its least member, so the
    generator index is enough; the member names are derived for printing
    and membership tests.
    """

    poset: FinitePoset
    generator: int

    @classmethod
    def of(cls, poset: FinitePoset, names) -> "Filter":
        """The filter with exactly these members; NotAFilter when they form none."""
        names = frozenset(names)
        generator = filter_generator(poset, poset.mask_of(names))
        if generator is None:
            raise NotAFilter(names, "directedness or upward closure fails")
        return cls(poset, generator)

    @property
    def members(self) -> frozenset:
        return frozenset(self.poset.names_of(self.mask()))

    def __str__(self):
        return "{" + ", ".join(self.poset.names_of(self.mask())) + "}"

    def __contains__(self, element):
        return element in self.members

    def mask(self) -> int:
        return self.poset.up_mask(self._index())

    def minimum(self):
        """The least member."""
        return self.poset.elements[self._index()]

    def _index(self) -> int:
        if self.generator not in range(len(self.poset)):  # a negative one would index from the end
            raise PosetError(f"filter generator {self.generator} is no element index of {self.poset.name}")
        return self.generator


def principal(poset: FinitePoset, element) -> Filter:
    """The upset of a single element."""
    return Filter(poset, poset.index(element))


def upward_closure(poset: FinitePoset, members) -> frozenset:
    """Smallest upward-closed superset of the given element set."""
    return frozenset(poset.names_of(_union(poset.up_masks, poset.mask_of(members))))


class FilterClassification(NamedTuple):
    is_filter: bool
    is_unbounded: bool
    is_maximal: bool


def classify_filter(poset: FinitePoset, members) -> FilterClassification:
    """Classify an element set as filter / unbounded / maximal.

    Unboundedness is checked on the raw set: no element of the poset lies
    strictly below every member (see bounded).  A filter up(g) is
    unbounded exactly when g is minimal, which is when it is maximal
    (see topology.separation_check), so maximal means an unbounded filter.
    """
    mask = poset.mask_of(members)
    filt, unbounded = filter_generator(poset, mask) is not None, not bounded(poset, mask)
    return FilterClassification(filt, unbounded, filt and unbounded)


def enumerate_filters(poset: FinitePoset, kind: str = "all") -> list:
    """All filters of the given kind, sorted by generating element.

    On a finite poset every filter is the upset of its least member, so
    the result is {upset(m)} with m ranging over all elements (kind
    "all") or over the minimal elements (kinds "maximal"/"unbounded",
    which coincide for finite posets).
    """
    if kind not in ("all", "maximal", "unbounded"):
        raise UnknownChoice(f"unknown filter kind {kind!r}")
    gens = range(len(poset)) if kind == "all" else poset.minimal_indices()
    return [Filter(poset, i) for i in gens]


def extend_to_maximal(poset: FinitePoset, filt: Filter) -> Filter:
    """A maximal filter containing ``filt``.

    Deterministic: among the minimal elements below the filter's least
    member, the first in element order is chosen; a finite poset has one.
    """
    return Filter(poset, next(i for i in poset.minimal_indices() if poset.leq_idx(i, filt.generator)))


class ChainFilter(NamedTuple):
    """A filter on a generated poset, represented by a descending chain.

    The chain lists generators from shallow to deep; the filter it
    generates contains every element lying above some chain entry.
    Consecutive duplicates are dropped on construction.
    """

    over: object
    chain: tuple

    @classmethod
    def make(cls, over, items) -> "ChainFilter":
        cleaned = []
        for x in items:
            if cleaned:
                if x == cleaned[-1]:
                    continue
                if not over.leq(x, cleaned[-1]):
                    raise PosetError(f"chain is not descending at {x!r}")
            cleaned.append(x)
        if not cleaned:
            raise PosetError("a chain filter needs at least one element")
        return cls(over, tuple(cleaned))

    def last(self):
        return self.chain[-1]

    def extended(self, element) -> "ChainFilter":
        return ChainFilter.make(self.over, self.chain + (element,))

    def generates(self, code) -> bool:
        """Membership of ``code`` in the generated filter."""
        return any(self.over.leq(c, code) for c in self.chain)
