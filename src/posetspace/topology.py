"""Spaces of maximal/unbounded filters, separation checks, and subposet reduction."""

from __future__ import annotations

import functools
from typing import NamedTuple

from .poset_core import _BYTE_BITS, FinitePoset, PosetError, UnknownChoice, _bits
from .filters import Filter


class NotABasis(PosetError):
    def __init__(self, element, point):
        super().__init__(
            f"seed basis has no member around point {point} inside the basic open of {element!r}"
        )
        self.element = element
        self.point = point


class PosetSpace:
    """The space of maximal (mode "mf") or unbounded (mode "uf") filters.

    Points are the filters generated by the minimal elements, in element
    order: on a finite poset both kinds are exactly these.  The basic open
    of an element p collects the points whose filter contains p.
    ``generators[i]`` is the element index of the least member of point
    i, and ``opens[e]`` is the basic open of element index e as an int
    mask over point indices (bit i set when point i contains e).  Every
    open the class takes or returns is such a mask; ``points`` builds the
    filters on first use, for text only, and ``point_names`` their strings.
    """

    def __init__(self, poset: FinitePoset, mode: str):
        if mode not in ("mf", "uf"):
            raise UnknownChoice(f"mode must be 'mf' or 'uf', got {mode!r}")
        self.poset = poset
        self.mode = mode
        self.generators = poset.minimal_indices()
        self.whole_mask = (1 << len(self.generators)) - 1
        opens, up = [0] * len(poset.elements), poset.up_masks
        for i, g in enumerate(self.generators):
            m, bit, base = up[g], 1 << i, 0
            while m:  # a byte of the up mask at a time, its bits from the table _bits reads
                for e in _BYTE_BITS[m & 255]:
                    opens[base + e] |= bit
                m >>= 8
                base += 8
        self.opens = tuple(opens)

    @functools.cached_property
    def points(self) -> tuple:
        return tuple(Filter(self.poset, g) for g in self.generators)

    @functools.cached_property
    def point_names(self) -> tuple:
        return tuple(map(str, self.points))

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
            raise KeyError(f"{filt} is not a point of {self!r}")
        return self.generators.index(filt.generator)

    def set_str(self, s: int) -> str:
        return "{" + ", ".join(self.point_names[i] for i in _bits(s)) + "}"


class Correspondence(NamedTuple):
    ok: bool
    bijective: bool
    failure: str = ""
    witness: object = None  # a source point, or a missed destination index


def verify_correspondence(src_points, dst_count, point_map, open_pairs, inverse=None) -> Correspondence:
    """Check that a point map is a bijection under which basic opens match.

    Source points are point indices.  ``point_map`` sends each to an
    index in ``range(dst_count)``; a missing or None entry leaves it
    undefined.  Each ``(label, src_open, dst_open)`` gives two opens as
    int masks: bit x of ``src_open`` stands for source point x, bit y of
    ``dst_open`` for destination point y.  The checks run in order: the
    map is total, injective and onto; the optional ``inverse`` undoes it
    on every source point (for a bijection that makes it the two-sided
    inverse); and for each open pair a source point lies in ``src_open``
    exactly when its image lies in ``dst_open``.  The first failure is
    reported with a witness.  When the map is the identity on indices, a
    pair whose two masks agree on the source points passes by one mask
    test; any other pair runs the per-point check, which names the
    witness.
    """
    src_points = tuple(src_points)
    preimage, src_mask = {}, 0
    for x in src_points:
        y = point_map.get(x)
        if y is None or not 0 <= y < dst_count:
            return Correspondence(False, False, "point map is not total", x)
        if y in preimage:
            return Correspondence(False, False, "point map is not injective", x)
        preimage[y] = x
        src_mask |= 1 << x
    if len(preimage) != dst_count:
        missed = next(y for y in range(dst_count) if y not in preimage)
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
    """Verify x -> x intersect R from the point indices ``points`` onto ``sub_space``.

    The k-th element of R, the poset of ``sub_space``, is element
    ``at[k]`` of ``space.poset``; R may carry an order of its own.
    Returns the Correspondence, checked with the basic open of every
    element of R, and the map (None where x intersect R is no point).
    """
    bits = [1 << i for i in at]
    r_mask, sub, up = sum(bits), sub_space.poset, space.poset.up_masks
    point_of = {sum([bits[k] for k in _bits(sub.up_mask(g))]): j for j, g in enumerate(sub_space.generators)}
    mapping = {x: point_of.get(up[space.generators[x]] & r_mask) for x in points}
    check = verify_correspondence(
        points,
        len(sub_space),
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


def _check_seed_is_basis(space: PosetSpace, seed) -> None:
    opens = space.opens
    for p, np in enumerate(opens):
        for i in _bits(np):
            if not any(opens[q] >> i & 1 and not opens[q] & ~np for q in seed):
                raise NotABasis(space.poset.elements[p], space.point_names[i])


class ReduceResult(NamedTuple):
    subposet: FinitePoset
    stages: int
    check: Correspondence  # of the restriction map, from restriction_homeomorphism_check
    # MF(P) point index -> the MF(subposet) point index of its restriction; None
    # where the restriction is no such point, which the saturation rules out
    mapping: dict


def reduce_countable_subposet(poset: FinitePoset, seed_basis) -> ReduceResult:
    """Saturate a basis into a subposet carrying the same MF space.

    Starting from the seed, each stage adds, for every finite subset D of
    the current set that lies in some maximal filter, enough common lower
    bounds of D to cover the basic-open intersection of D.  The cover is
    chosen greedily in element order, so the result is deterministic.
    For a finite poset the stages stabilize.

    The restriction map F -> F intersect R and its check come from
    restriction_homeomorphism_check; the saturation makes it a bijection
    onto the maximal filters of the subposet.  Runtime is exponential in
    the size of the saturated set, which is fine at desk scale.
    """
    space = PosetSpace(poset, "mf")
    seed = sorted({poset.index(q) for q in seed_basis})  # element indices, in element order
    _check_seed_is_basis(space, seed)

    opens = space.opens
    current = list(seed)  # element indices
    stages = 0
    while True:
        added = []
        # per subset D of the current set: the intersection of its basic opens, its common lower bounds
        meets = [(space.whole_mask, (1 << len(poset)) - 1)]
        for q in current:
            meets += [(target & opens[q], lower & poset.down_mask(q)) for target, lower in meets]
        for target, lower in meets[1:]:
            if not target:
                continue
            covered = 0
            for e in _bits(lower):
                if not target & ~covered:
                    break
                gain = opens[e] & target
                if gain & ~covered:
                    covered |= gain
                    if e not in current and e not in added:
                        added.append(e)
        stages += 1
        current += added
        if not added:
            break

    sub = poset.restrict(sum(1 << i for i in current), name=f"{poset.name}|reduced")
    return ReduceResult(sub, stages, *restriction_homeomorphism_check(poset, sub))


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
    return verify_restriction(big, PosetSpace(r_poset, "mf"), at, range(len(big)))
