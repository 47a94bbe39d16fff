"""Spaces of maximal/unbounded filters, separation checks, and subposet reduction."""

from __future__ import annotations

import functools
from typing import NamedTuple

from .poset_core import FinitePoset, PosetError, UnknownChoice, _bits, _union
from .filters import Filter


class NotABasis(PosetError):
    def __init__(self, element, point):
        super().__init__(
            f"seed basis has no member around point {point} inside the basic open of {element!r}"
        )
        self.element = element
        self.point = point


class NotAPoint(PosetError, KeyError):
    __str__ = Exception.__str__  # the message as given: a KeyError shows the repr of its message


class PosetSpace:
    """The space of maximal (mode "mf") or unbounded (mode "uf") filters.

    Points are the filters generated by the minimal elements: on a finite
    poset both kinds are exactly these.  The basic open of an element p
    collects the points whose filter contains p.  Point up(g) is element
    bit g: ``generators`` lists the minimal element indices in order,
    ``whole_mask`` has their bits, and ``opens[e]``, the basic open of
    element index e, is the mask of the minimal elements below e, since
    up(g) contains e exactly when g <= e.  Every open the class takes or
    returns is such a mask; ``points`` builds the filters on first use, in
    element order, for text only, and ``point_names`` maps each generator
    to its filter's string.
    """

    def __init__(self, poset: FinitePoset, mode: str):
        if mode not in ("mf", "uf"):
            raise UnknownChoice(f"mode must be 'mf' or 'uf', got {mode!r}")
        self.poset = poset
        self.mode = mode
        self.generators = poset.minimal_indices()
        self.whole_mask = whole = sum([1 << g for g in self.generators])
        self.opens = tuple([d & whole for d in poset.down_masks])

    @functools.cached_property
    def points(self) -> tuple:
        return tuple(Filter(self.poset, g) for g in self.generators)

    @functools.cached_property
    def point_names(self) -> dict:
        return dict(zip(self.generators, map(str, self.points)))

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"PosetSpace({self.mode}({self.poset.name}), {len(self)} points)"

    def open_mask(self, elements) -> int:
        """The union of the basic opens of ``elements``, as a point mask."""
        out = 0
        for e in elements:
            out |= self.opens[self.poset.index(e)]
        return out

    def basic_open(self, element) -> int:
        return self.opens[self.poset.index(element)]

    def is_open(self, s) -> bool:
        """Open means a union of basic opens; on a finite poset, any set of points.

        Every point of MF(P) or UF(P) is the upset of a minimal element g,
        and a point contains g only if its generator lies below g, that is
        equals g.  So the basic open of g is the single point generated by
        g, every finite filter space is discrete, and a set is open
        exactly when it is a point mask: an int with no bit outside
        ``whole_mask``.
        """
        return isinstance(s, int) and not s & ~self.whole_mask

    def point_index(self, filt: Filter) -> int:
        if filt.poset != self.poset or filt.generator not in self.generators:
            shown = filt if filt.generator in range(len(filt.poset)) else f"up(element index {filt.generator})"
            raise NotAPoint(f"{shown} is not a point of {self!r}")
        return filt.generator

    def set_str(self, s: int) -> str:
        return "{" + ", ".join(self.point_names[i] for i in _bits(s)) + "}"


class Correspondence(NamedTuple):
    ok: bool
    bijective: bool
    failure: str = ""
    witness: object = None  # a source point, or a missed destination point


def verify_correspondence(src_points, dst_points, point_map, open_pairs, inverse=None) -> Correspondence:
    """Check that a point map is a bijection under which basic opens match.

    Points are bit positions: ``src_points`` lists the source points and
    the mask ``dst_points`` holds the destination points.  ``point_map``
    sends each source point to one of them; a missing or None entry
    leaves it undefined.  Each ``(label, src_open, dst_open)`` gives two
    opens as int masks: bit x of ``src_open`` stands for source point x,
    bit y of ``dst_open`` for destination point y.  The checks run in
    order: the map is total, injective and onto; the optional ``inverse``
    undoes it on every source point (for a bijection that makes it the
    two-sided inverse); and for each open pair a source point lies in
    ``src_open`` exactly when its image lies in ``dst_open``.  The first
    failure is reported with a witness.  When the map is the identity on
    bit positions, a pair whose two masks agree on the source points
    passes by one mask test; any other pair runs the per-point check,
    which names the witness.
    """
    src_points = tuple(src_points)
    preimage, src_mask = {}, 0
    for x in src_points:
        y = point_map.get(x)
        if y is None or y < 0 or not dst_points >> y & 1:
            return Correspondence(False, False, "point map is not total", x)
        if y in preimage:
            return Correspondence(False, False, "point map is not injective", x)
        preimage[y] = x
        src_mask |= 1 << x
    if len(preimage) != dst_points.bit_count():
        missed = next(y for y in _bits(dst_points) if y not in preimage)
        return Correspondence(False, False, "point map is not surjective", missed)
    if inverse is not None:
        for x in src_points:
            if inverse.get(point_map[x]) != x:
                return Correspondence(False, True, "point map and its inverse disagree", x)
    identity = list(preimage) == list(preimage.values())  # each y = point_map[x] next to its x
    for label, src_open, dst_open in open_pairs:
        if identity and not (src_open ^ dst_open) & src_mask:
            continue
        for x in src_points:
            if (src_open >> x & 1) != (dst_open >> point_map[x] & 1):
                return Correspondence(False, True, f"basic open of {label} does not correspond", x)
    return Correspondence(True, True)


def verify_restriction(space: PosetSpace, sub_space: PosetSpace, at, points):
    """Verify x -> x intersect R from the points ``points`` of ``space`` onto ``sub_space``.

    The k-th element of R, the poset of ``sub_space``, is element
    ``at[k]`` of ``space.poset``; R may carry an order of its own.
    Returns the Correspondence, checked with the basic open of every
    element of R, and the map (None where x intersect R is no point).
    """
    bits = [1 << i for i in at]
    r_mask, sub, up = sum(bits), sub_space.poset, space.poset.up_masks
    point_of = {_union(bits, sub.up_mask(g)): g for g in sub_space.generators}  # as masks over P
    mapping = {x: point_of.get(up[x] & r_mask) for x in points}
    check = verify_correspondence(
        points,
        sub_space.whole_mask,
        mapping,
        [(r, space.opens[at[k]], sub_space.opens[k]) for k, r in enumerate(sub.elements)],
    )
    return check, mapping


class SeparationReport(NamedTuple):
    t0: bool
    t1: bool
    uf_equals_mf: bool


def separation_check(space: PosetSpace) -> SeparationReport:
    """T0, T1 and whether the UF and MF point sets coincide: on a finite poset, all hold.

    The points are the upsets of distinct minimal elements.  A minimal
    element g lies in its own upset but in no other point's, because a
    minimal h below g is g itself.  So the basic open of g is the single
    point up(g): the space is discrete, hence T1 and T0.  A filter up(g)
    is unbounded exactly when nothing lies strictly below g, that is when
    g is minimal, which is also when it is maximal; so UF = MF.
    """
    return SeparationReport(t0=True, t1=True, uf_equals_mf=True)


def _check_seed_is_basis(space: PosetSpace, seed: int) -> None:
    opens = space.opens
    for p, np in enumerate(opens):  # the points of np that no seed open inside np holds
        stray = np & ~functools.reduce(int.__or__, [opens[q] for q in _bits(seed) if not opens[q] & ~np], 0)
        if stray:
            raise NotABasis(space.poset.elements[p], space.point_names[_bits(stray)[0]])


class ReduceResult(NamedTuple):
    subposet: FinitePoset
    stages: int
    check: Correspondence  # of the restriction map, as restriction_homeomorphism_check finds it
    # MF(P) point -> the MF(subposet) point of its restriction; None where the
    # restriction is no such point, which the saturation rules out
    mapping: dict


def reduce_countable_subposet(poset: FinitePoset, seed_basis) -> ReduceResult:
    """Saturate a basis into a subposet carrying the same MF space.

    Starting from the seed, each stage adds, for every finite subset D of
    the current set that lies in some maximal filter, enough common lower
    bounds of D to cover the basic-open intersection of D.  The cover is
    chosen greedily in element order, so the result is deterministic.
    For a finite poset the stages stabilize.  As up(g) lies in the basic
    open of e exactly when g <= e, each common lower bound e of D has its
    basic open inside D's intersection, and the cover takes e exactly when
    the lower bounds before e miss a point of it: easiest for the largest
    D, the current elements above e.  So a stage tests each element once.

    The restriction map F -> F intersect R is checked on the MF space
    built here, as restriction_homeomorphism_check checks it; the
    saturation makes it a bijection onto MF(R).
    """
    space = PosetSpace(poset, "mf")
    current = poset.mask_of(seed_basis)  # element mask
    _check_seed_is_basis(space, current)

    opens, down, up, stages = space.opens, poset.down_masks, poset.up_masks, 0
    while True:
        added = 0
        for e in _bits(_union(down, current)):
            lower = functools.reduce(int.__and__, [down[q] for q in _bits(up[e] & current)])
            if opens[e] & ~_union(opens, lower & ((1 << e) - 1)):  # a point the lower bounds before e miss
                added |= 1 << e
        stages += 1
        if not added & ~current:
            break
        current |= added

    sub = poset.restrict(current, name=f"{poset.name}|reduced")  # element order, which the subposet keeps
    at = list(_bits(current))
    return ReduceResult(sub, stages, *verify_restriction(space, PosetSpace(sub, "mf"), at, space.generators))


def restriction_homeomorphism_check(poset: FinitePoset, r_poset: FinitePoset):
    """Decide whether F -> F intersect R is a homeomorphism from MF(P) onto MF(R).

    ``r_poset`` is R, a poset on some of the elements of ``poset``, with
    an order of its own.  Returns what verify_restriction returns: the
    Correspondence and the point map.  The map must be a bijection under
    which the basic opens of R correspond, so it is continuous; it is
    open because MF(R) is discrete (see PosetSpace.is_open).
    """
    big = PosetSpace(poset, "mf")
    at = [poset.index(r) for r in r_poset.elements]  # the index in P of each element of R
    return verify_restriction(big, PosetSpace(r_poset, "mf"), at, big.generators)
