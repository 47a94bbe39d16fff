"""Poset-building constructions, each paired with its point map and a verifier.

Covers products, G-delta subspaces on the maximal- and unbounded-filter
sides, open subspaces, formal-ball posets over exact rational metrics, and
the precompact-open poset of a finite topological space.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from typing import NamedTuple

from .poset_core import FinitePoset, PosetError, _bits, check_element_id
from .filters import ChainFilter, Filter
from .topology import PosetSpace, verify_correspondence, verify_restriction


class EmptyFactorList(PosetError):
    pass


class NotDescending(PosetError):
    pass


class NotOpen(PosetError):
    pass


class MetricAxiomViolation(PosetError):
    pass


class TopologyInvalid(PosetError):
    pass


class BadBallGrid(PosetError, ValueError):
    """A formal-ball grid with a denominator or radius out of range."""


INF = float("inf")


# ---------------------------------------------------------------------------
# finite topological spaces


def _set_key(mask):
    """Sort key of a point mask: by size, then by its ascending point indices."""
    return mask.bit_count(), tuple(_bits(mask))


class FiniteTopSpace:
    """A finite topological space with a designated basis, as point masks.

    A finite topology is exactly the family of up-sets of its
    specialization preorder (Alexandroff 1937; Stong 1966).  So the space
    keeps one mask per point, ``up[x]``, the minimal open neighbourhood
    U_x of x: the intersection of the basis members around x.  A set is
    open when it holds U_x for each of its points, and a family of masks
    is the basis of a topology exactly when it covers the space and holds
    every U_x.  Interior and closure are read off the same table.
    """

    def __init__(self, points, basis_masks, name="space"):
        self.name = name
        self.points = tuple(points)
        for p in self.points:
            check_element_id(p)
        if len(set(self.points)) != len(self.points):
            raise TopologyInvalid("duplicate point")
        self.whole_mask = (1 << len(self.points)) - 1
        basis = set(basis_masks)
        if any(b < 0 or b & ~self.whole_mask for b in basis):  # before _set_key reads their bits
            raise TopologyInvalid("basis member outside the space")
        self.basis = tuple(sorted(basis, key=_set_key))
        up = [self.whole_mask] * len(self.points)
        covered = 0
        for b in self.basis:
            covered |= b
            for x in _bits(b):
                up[x] &= b
        if covered != self.whole_mask:
            raise TopologyInvalid("basis does not cover the space")
        if not set(up) <= set(self.basis):
            raise TopologyInvalid("opens are not closed under union/intersection")
        self.up = tuple(up)

    @classmethod
    def discrete(cls, points, name="discrete"):
        points = tuple(points)
        basis = [1 << i for i in range(len(points))]
        if len(points) > 1:
            basis.append((1 << len(points)) - 1)
        return cls(points, basis, name)

    @classmethod
    def sierpinski(cls, open_point="x", closed_point="y"):
        return cls((open_point, closed_point), [0b01, 0b11], "sierpinski")

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"FiniteTopSpace({self.name!r}, {len(self)} points, {len(self.opens)} opens)"

    @functools.cached_property
    def opens(self) -> tuple:
        """Every open mask, the unions of the U_x, by size and then contents."""
        out = {0}
        for u in set(self.up):
            out |= {o | u for o in out}
        return tuple(sorted(out, key=_set_key))

    def is_open(self, s) -> bool:
        return isinstance(s, int) and 0 <= s <= self.whole_mask and self.interior(s) == s

    def interior(self, s: int) -> int:
        return sum(1 << x for x, u in enumerate(self.up) if not u & ~s)

    def closure(self, s: int) -> int:
        return sum(1 << x for x, u in enumerate(self.up) if u & s)

    def is_t1(self) -> bool:
        """T1, which for a finite space is Hausdorff and discrete: every U_x is {x}.

        The closure of {x} is the set of points y with x in U_y, so it is
        {x} for every x exactly when the preorder is the identity.
        """
        return all(u == 1 << x for x, u in enumerate(self.up))

    def set_str(self, s: int) -> str:
        return "{" + ", ".join(self.points[i] for i in _bits(s)) + "}"


# ---------------------------------------------------------------------------
# products


class ProductResult(NamedTuple):
    poset: FinitePoset
    factors: tuple  # factor posets with a greatest element adjoined where needed
    adjoined_tops: tuple  # names of fresh tops, or None per factor
    coords: dict  # product element id -> tuple of factor element names
    phi: dict  # tuple of factor point indices -> product point index
    phi_inv: dict
    factor_spaces: tuple  # MF spaces of the input factors
    space: PosetSpace
    ok: bool
    failure: str = ""


def _with_top(poset: FinitePoset):
    top_bit = 1 << len(poset.elements)
    if top_bit == 1 or top_bit - 1 in poset.down_masks:  # empty, or a greatest element already
        return poset, None
    top = "top"
    while top in poset.elements:  # a scan: the name index is not needed otherwise
        top += "_"
    ups = [m | top_bit for m in poset.up_masks] + [top_bit]
    downs = poset.down_masks + (2 * top_bit - 1,)
    return FinitePoset(poset.elements + (top,), ups, f"{poset.name}+top", downs), top


def _tensor(rows, radices):
    """Per choice of one mask from each row, in itertools.product order, its tensor product.

    The tensor product of masks m[k], m[k] over ``range(radices[k])``, is
    the set of digit tuples d with d[k] in m[k] for every k.  A tuple sits
    at the mixed-radix position sum d[k] * stride[k], the last digit
    fastest as in itertools.product.  So the tuples over the leading
    digits in x, extended by one digit in m, are x with bit i moved to
    i * radix (a string join), times m: a copy of m in the radix-bit block
    at each i, with no carries.
    """
    out = rows[0]  # the tensor product of one row is the row itself
    for row, radix in zip(rows[1:], radices[1:]):
        pad = "0" * (radix - 1)
        out = [d * m for d in [int(pad.join(format(x, "b")), 2) for x in out] for m in row]
    return out


def product_poset(factors) -> ProductResult:
    """The product order on tuples, with its point maps.

    A fresh greatest element is adjoined to any nonempty factor lacking
    one, so the product of the factor MF spaces is the MF space of the
    product; a product with an empty factor is empty.  A product element
    is a tuple of factor elements, at the mixed-radix position over the
    factor sizes, and its up and down masks are the tensor products of
    its coordinates' masks (see _tensor).  The maps phi (tuples of factor
    points to product points, each the product of its factor filters) and
    its inverse (the coordinate projections) are built as tables and
    verified mutually inverse, with membership in a basic open of the
    product matching coordinatewise membership in the factor opens.
    """
    factors = list(factors)
    if not factors:
        raise EmptyFactorList("at least one factor is required")
    topped, tops = zip(*(_with_top(f) for f in factors))

    sizes = [len(g) for g in topped]
    coords = list(itertools.product(*(g.elements for g in topped)))
    names = [f"({c})" for c in map(",".join, coords)]
    ups = _tensor([g.up_masks for g in topped], sizes)
    downs = _tensor([g.down_masks for g in topped], sizes)
    prod = FinitePoset(names, ups, " x ".join(f.name for f in factors), downs)

    fspaces = tuple(PosetSpace(f, "mf") for f in factors)
    pspace = PosetSpace(prod, "mf")
    strides = list(itertools.accumulate(reversed(sizes[1:]), int.__mul__, initial=1))[::-1]  # last runs fastest
    # each tuple of factor points goes to the product of their filters, the
    # up-set of the tuple of their generators
    tuples = [((), 0)]
    for sp, stride in zip(fspaces, strides):
        tuples = [(c + (i,), a + g * stride) for c, a in tuples for i, g in enumerate(sp.generators)]
    point_of = {g: i for i, g in enumerate(pspace.generators)}
    combos = [c for c, _ in tuples]
    images = [point_of.get(a) for _, a in tuples]
    # per product element, the tuples of factor points lying in the factor
    # basic opens of its coordinates (an adjoined top lies in every point)
    src_opens = _tensor(
        [sp.opens + (sp.whole_mask,) * (len(g) - len(f)) for f, g, sp in zip(factors, topped, fspaces)],
        [len(sp) for sp in fspaces],
    )
    # project each point onto factor k: the coordinates j of its members, an adjoined top's left out;
    # j's block of stride bits recurs every size * stride bits, and OR-folding keeps it nonzero if met.
    # On the last factor a block is one bit, so the projection is the fold's low bits
    axes = [({f.up_mask(g): i for i, g in enumerate(sp.generators)}, size * stride, stride, (1 << stride) - 1,
             len(f), len(sp)) for f, sp, size, stride in zip(factors, fspaces, sizes, strides)]
    phi_inv, inverse = {}, {}  # inverse: the position in combos of each point's tuple
    for i, g in enumerate(pspace.generators):
        point, at = [], 0
        for fset, period, stride, block, count, radix in axes:
            mask, folded = ups[g], 0
            while mask:
                folded |= mask
                mask >>= period
            j = fset.get(folded & (1 << count) - 1 if stride == 1 else
                         sum([1 << k for k in range(count) if folded >> k * stride & block]))
            point.append(j)
            at = None if at is None or j is None else at * radix + j
        phi_inv[i] = tuple(point)
        inverse[i] = at
    check = verify_correspondence(
        range(len(combos)),
        len(pspace),
        dict(enumerate(images)),
        zip(names, src_opens, pspace.opens),
        inverse=inverse,
    )

    return ProductResult(
        poset=prod,
        factors=topped,
        adjoined_tops=tops,
        coords=dict(zip(names, coords)),
        phi=dict(zip(combos, images)),
        phi_inv=phi_inv,
        factor_spaces=fspaces,
        space=pspace,
        ok=check.ok,
        failure=check.failure,
    )


# ---------------------------------------------------------------------------
# G-delta subspaces, maximal-filter side


class GdeltaMfResult(NamedTuple):
    poset: FinitePoset  # the stage poset Q
    stage_cap: int
    open_points: tuple  # the opens as point masks of MF(P)
    intersection: int  # their intersection, as a point mask
    carrier: tuple  # elements of P kept (those lying in a point of the intersection)
    phi: dict  # MF(P)-in-intersection point index -> MF(Q) point index
    psi: dict
    space: PosetSpace  # MF(P)
    stage_space: PosetSpace  # MF(Q)
    ok: bool
    failure: str = ""


def _union(table, mask):
    """The union of table[i] over the set bits i of ``mask``."""
    out = 0
    for i in _bits(mask):
        out |= table[i]
    return out


def _intersection(space: PosetSpace, opens):
    """The opens as point masks, their intersection, and the elements lying in its points."""
    open_masks = [space.open_mask(u) for u in opens]
    inter = space.whole_mask
    for u in open_masks:
        inter &= u
    carrier_mask = _union([space.poset.up_mask(g) for g in space.generators], inter)
    return open_masks, inter, carrier_mask


def gdelta_mf_poset(poset: FinitePoset, opens) -> GdeltaMfResult:
    """Stage poset for a countable intersection of opens of the MF space.

    Each open is an element set denoting the union of its basic opens.
    The finite list is read as an eventually constant sequence, so stages
    beyond ``len(opens) + 1`` add no constraints and the stage component
    is capped there.  An element of the stage poset is a pair (n, p) with
    the basic open of p inside the first n - 1 opens; pairs descend as
    the stage grows and p descends.  Two finite-scale refinements keep
    the stage poset faithful: only elements of P that lie in some maximal
    filter inside the intersection are used, and the top stage carries
    the order of P, standing in for the common tail of all deeper stages.
    The maximal filters of the stage poset are then in verified bijection
    with the maximal filters of P inside the intersection.

    The pairs are numbered in one pass per stage, and each q in P keeps the
    mask of its pairs at every stage.  The up mask of (n, p) is its own bit
    and, for each q above p in P, the pairs of q before stage n (all of them
    at the top stage), and its down mask its own bit and, for each q below
    p, the pairs of q after stage n (at the top stage, those of the top
    stage): no two pairs are compared.
    """
    space = PosetSpace(poset, "mf")
    open_masks, inter, carrier_mask = _intersection(space, opens)
    inter_points = list(_bits(inter))
    up, cap = poset.up_masks, len(open_masks) + 1

    stages, first = [], []  # the pairs (n, p); per stage, the bit of its first pair
    for n, cn in enumerate(itertools.accumulate([space.whole_mask] * 2 + open_masks, int.__and__)):
        first.append(1 << len(stages))  # cn is the intersection of the first n - 1 opens
        stages += [(n, p) for p in _bits(carrier_mask) if not space.opens[p] & ~cn]
    column = [0] * len(poset)  # q -> the bits of its pairs (m, q)
    for s, (_, p) in enumerate(stages):
        column[p] |= 1 << s
    ids = [f"{n}:{poset.elements[p]}" for n, p in stages]
    # per carrier element p, the pairs of the q above it and below it; per stage n, the pairs
    # before it and after it (at the top stage: all of them, and its own)
    above = {p: _union(column, up[p] & carrier_mask) for p in _bits(carrier_mask)}
    below = {p: _union(column, poset.down_masks[p] & carrier_mask) for p in above}
    before, after = [f - 1 for f in first[:-1]] + [-1], [-f for f in first[1:]] + [-first[-1]]
    masks = [1 << s | above[p] & before[n] for s, (n, p) in enumerate(stages)]
    downs = [1 << s | below[p] & after[n] for s, (n, p) in enumerate(stages)]
    q_poset = FinitePoset(ids, masks, f"{poset.name}|gdelta-mf", downs)
    q_space = PosetSpace(q_poset, "mf")

    # a point up(g) of the intersection goes to the pairs of its members, a point
    # of MF(Q) back to the up-set in P of its pairs' elements
    q_of = {masks[g]: j for j, g in enumerate(q_space.generators)}
    phi = {i: q_of.get(above[space.generators[i]]) for i in inter_points}
    inter_of = {up[space.generators[i]]: i for i in inter_points}
    ups_at = [up[p] for _, p in stages]
    psi = {j: inter_of.get(_union(ups_at, masks[g])) for j, g in enumerate(q_space.generators)}
    check = verify_correspondence(
        inter_points,
        len(q_space),
        phi,
        [(f"stage element {sid}", space.opens[p], dst) for sid, (_, p), dst in zip(ids, stages, q_space.opens)],
        inverse=psi,
    )

    return GdeltaMfResult(q_poset, cap, tuple(open_masks), inter, poset.names_of(carrier_mask), phi, psi, space,
                          q_space, check.ok, check.failure)


# ---------------------------------------------------------------------------
# open subspaces and G-delta subspaces, unbounded-filter side


class OpenSubspaceResult(NamedTuple):
    subposet: FinitePoset
    space: PosetSpace
    sub_space: PosetSpace
    mapping: dict  # UF(P)-point index inside U -> UF(R) point index
    ok: bool
    failure: str = ""


def open_subspace_uf(poset: FinitePoset, u: int) -> OpenSubspaceResult:
    """Subposet of the elements whose basic open sits inside an open set.

    ``u`` is a point mask of UF(P); every such mask is open, because
    finite filter spaces are discrete.  Anything else raises ``NotOpen``,
    which names the lowest bit that is no point.  The restriction map
    x -> x intersect R is verified to be a bijection from the points
    inside the open set onto UF(R), matching basic opens for every kept
    element.
    """
    space = PosetSpace(poset, "uf")
    if not isinstance(u, int):
        raise NotOpen(f"{u!r} is not a point mask of {space!r}")
    stray = u & ~space.whole_mask
    if stray:
        raise NotOpen(f"{(stray & -stray).bit_length() - 1} is not a point of {space!r}")
    kept_mask = sum(1 << e for e, np in enumerate(space.opens) if not np & ~u)
    sub = poset.restrict(kept_mask, name=f"{poset.name}|open")
    sub_space = PosetSpace(sub, "uf")
    check, mapping = verify_restriction(space, sub_space, list(_bits(kept_mask)), list(_bits(u)))
    return OpenSubspaceResult(sub, space, sub_space, mapping, check.ok, check.failure)


class GdeltaUfResult(NamedTuple):
    subposet: FinitePoset  # (R, with the rank-refined order)
    ranks: dict  # element -> int rank, or INF
    open_points: tuple  # the opens as point masks of UF(P)
    intersection: int  # their intersection, as a point mask
    claims: dict  # claim number -> bool
    claim_details: dict
    space: PosetSpace
    sub_space: PosetSpace
    ok: bool
    failure: str = ""


def gdelta_uf_poset(poset: FinitePoset, opens) -> GdeltaUfResult:
    """Rank-refined subposet for a descending intersection of UF opens.

    Opens are element sets whose point sets must be descending.  The
    carrier keeps the elements lying in some unbounded filter inside the
    intersection; each carrier element gets the rank counting how many of
    the opens contain its basic open, with rank infinity when the basic
    open sits inside the whole intersection (the finite list is read as
    eventually constant).  The refined strict order descends in P while
    the rank strictly rises, except between two elements of infinite
    rank, which keep the order of P.  The report checks:

    1. every unbounded filter of P inside the intersection is an
       unbounded filter of the refined subposet;
    2. every filter of the subposet either has unbounded rank or a
       strict lower bound there;
    3. every bounded filter of P that is a filter of the subposet is
       bounded there;
    4. every unbounded filter of the subposet is an unbounded filter of
       P lying inside the intersection;

    refined_subposet_claims checks them on the refined subposet, 1 and 4
    on the restriction map, with the bijection and basic-open matching
    that verify_restriction checks.
    """
    space = PosetSpace(poset, "uf")
    open_masks, inter, carrier_mask = _intersection(space, opens)
    for a, b in zip(open_masks, open_masks[1:]):
        if b & ~a:
            raise NotDescending("opens are not descending as point sets")
    at = list(_bits(carrier_mask))  # the index in P of each carrier element
    carrier = poset.names_of(carrier_mask)

    def rank(np):  # how many of the opens, from the first, hold the basic open np
        if not open_masks or not np & ~open_masks[-1]:
            return INF
        return next(n for n, u in enumerate(open_masks) if np & ~u)

    rank_at = [rank(space.opens[p]) for p in at]
    ranks = dict(zip(carrier, rank_at))
    position = {p: a for a, p in enumerate(at)}
    up = poset.up_masks
    # b lies above a when p_b lies above p_a in P and the rank falls, or both ranks are infinite
    masks = [sum([1 << b for b in map(position.get, _bits(up[p] & carrier_mask))
                  if b == a or rank_at[b] < g or g == rank_at[b] == INF]) for a, (p, g) in enumerate(zip(at, rank_at))]
    sub = FinitePoset(carrier, masks, f"{poset.name}|gdelta-uf")
    sub_space = PosetSpace(sub, "uf")
    finite = sum([1 << a for a, g in enumerate(rank_at) if g != INF])  # the members of finite rank

    check, mapping = verify_restriction(space, sub_space, at, list(_bits(inter)))
    details = refined_subposet_claims(space, sub, carrier_mask, finite, mapping)
    claims = {c: not fs for c, fs in details.items()}

    if all(claims.values()):
        ok, failure = check.ok, check.failure
    else:
        ok = False
        failure = "claims " + ", ".join(str(c) for c, v in sorted(claims.items()) if not v) + " failed"

    return GdeltaUfResult(sub, ranks, tuple(open_masks), inter, claims, details, space, sub_space, ok, failure)


def refined_subposet_claims(space: PosetSpace, sub: FinitePoset, carrier_mask: int, finite: int, mapping) -> dict:
    """Claim number -> the filters breaking that claim of gdelta_uf_poset on ``sub``, as text.

    ``space`` is UF(P); ``sub`` orders the elements of P in ``carrier_mask``
    and ``finite`` masks its members of finite rank.  ``mapping`` is the
    restriction map from the intersection's points to UF(sub): unbounded
    filters are UF points, so claim 1 is its totality and claim 4 its
    reach.  A filter is the up-set of its least member, so claims 2 and 3
    run over element indices, and it is bounded exactly when that member
    is not minimal: an element below every member lies below the least one.
    """
    poset = space.poset
    minimal = sub.minimal_indices()
    bit_in_p = [1 << p for p in _bits(carrier_mask)]  # per element of sub
    unbounded_of_sub = {_union(bit_in_p, sub.up_mask(g)) for g in minimal}  # as masks over P

    bad = [Filter(poset, space.generators[i]) for i, j in mapping.items() if j is None]
    bad2 = [Filter(sub, a) for a, (m, d) in enumerate(zip(sub.up_masks, sub.down_masks))
            if not m & ~finite and d == 1 << a]
    bad3 = [Filter(poset, e) for e, (m, d) in enumerate(zip(poset.up_masks, poset.down_masks))
            if d != 1 << e and m in unbounded_of_sub]
    reached = set(mapping.values())
    bad4 = [Filter(sub, g) for j, g in enumerate(minimal) if j not in reached]
    return {c: [str(f) for f in fs] for c, fs in enumerate((bad, bad2, bad3, bad4), start=1)}


# ---------------------------------------------------------------------------
# formal balls over exact rational metrics


class RationalMetric:
    """A finite metric space with exact rational distances."""

    def __init__(self, points, dist, name="metric"):
        self.name = name
        self.points = tuple(points)
        for p in self.points:
            check_element_id(p)
        if len(set(self.points)) != len(self.points):
            raise MetricAxiomViolation("duplicate point")
        d = {}
        for (a, b), v in dist.items():
            v = Fraction(v)
            for x in (a, b):
                if x not in self.points:
                    raise MetricAxiomViolation(f"distance given for unknown point {x!r}")
            if (b, a) in d and d[(b, a)] != v:
                raise MetricAxiomViolation(f"asymmetric distance between {a!r} and {b!r}")
            d[(a, b)] = v
            d[(b, a)] = v
        for p in self.points:
            d.setdefault((p, p), Fraction(0))
            if d[(p, p)] != 0:
                raise MetricAxiomViolation(f"nonzero self-distance at {p!r}")
        for a, b in itertools.product(self.points, repeat=2):
            if (a, b) not in d:
                raise MetricAxiomViolation(f"missing distance between {a!r} and {b!r}")
            if a != b and d[(a, b)] <= 0:
                raise MetricAxiomViolation(f"non-positive distance between {a!r} and {b!r}")
        for a, b, c in itertools.product(self.points, repeat=3):
            if d[(a, c)] > d[(a, b)] + d[(b, c)]:
                raise MetricAxiomViolation(f"triangle inequality fails on {a!r}, {b!r}, {c!r}")
        self._d = d

    def d(self, a, b) -> Fraction:
        return self._d[(a, b)]


_BALL_RE = re.compile(r"^B\(([^,()]+),([0-9]+)(?:/(0*[1-9][0-9]*))?\)$")  # no zero denominator


class FormalBallPoset:
    """Formal balls B(a, r) on a rational metric, ordered by strict containment.

    Radii live on the dyadic grid k / max_denom with 0 < r <= max_radius;
    max_denom must be a power of two, and max_radius must lie on the grid.
    A ball lies strictly below another when the distance between the
    centers plus the smaller radius is less than the larger radius.  A
    budget caps the radius denominator at 2 to the budget, so refinement
    lists grow toward the whole grid below a ball.  They are integer
    numerators k up to one bound per center, and the code of k / denom is
    printed reduced, as str(Fraction) prints it.
    """

    def __init__(self, metric: RationalMetric, max_denom: int = 8, max_radius=2):
        if max_denom < 1 or max_denom & (max_denom - 1):
            raise BadBallGrid("max_denom must be a positive power of two")
        self.metric = metric
        self.max_denom = max_denom
        self.max_radius = Fraction(max_radius)
        if self.max_radius <= 0:
            raise BadBallGrid("max_radius must be positive")
        if max_denom % self.max_radius.denominator:
            raise BadBallGrid(f"max_radius {self.max_radius} is off the grid k/{max_denom}")

    def encode(self, center, radius) -> str:
        return f"B({center},{Fraction(radius)})"

    def decode(self, code: str):
        m = _BALL_RE.match(code)
        if not m:
            raise PosetError(f"bad formal-ball code {code!r}")
        center = m.group(1)
        radius = Fraction(int(m.group(2)), int(m.group(3) or 1))
        if center not in self.metric.points:
            raise PosetError(f"unknown center in {code!r}")
        if not self._on_grid(radius):
            raise PosetError(f"radius off the grid in {code!r}")
        return center, radius

    def _on_grid(self, r: Fraction) -> bool:
        return 0 < r <= self.max_radius and self.max_denom % r.denominator == 0

    def roots(self):
        return [self.encode(a, self.max_radius) for a in sorted(self.metric.points)]

    def leq(self, x, y) -> bool:
        if x == y:
            return True
        a, r = self.decode(x)
        b, s = self.decode(y)
        return self.metric.d(a, b) + r < s

    def refinements(self, x, budget: int):
        if budget < 0:
            raise PosetError(f"refinement budget must be at least 0, got {budget}")
        a, r = self.decode(x)
        denom = 2 ** min(budget, self.max_denom.bit_length() - 1)  # max_denom is a power of two
        top = math.floor(self.max_radius * denom)
        out = []
        for b in sorted(self.metric.points):
            # d(a, b) + k / denom < r exactly when k < (r - d(a, b)) * denom
            for k in range(1, min(top + 1, math.ceil((r - self.metric.d(a, b)) * denom))):
                g = math.gcd(k, denom)
                out.append(f"B({b},{k // g})" if g == denom else f"B({b},{k // g}/{denom // g})")
        return out

    def incompatible(self, x, y):
        a, r = self.decode(x)
        b, s = self.decode(y)
        tiny = Fraction(1, self.max_denom)
        return not any(self.metric.d(a, c) + tiny < r and self.metric.d(b, c) + tiny < s for c in self.metric.points)


def formal_ball_poset(metric: RationalMetric, max_denom: int = 8, max_radius=2) -> FormalBallPoset:
    return FormalBallPoset(metric, max_denom, max_radius)


def point_chain(balls: FormalBallPoset, point, length: int) -> ChainFilter:
    """The halving chain of balls around a point, as a chain filter.

    The chain starts at the maximal radius and halves it ``length``
    times; the grid must be fine enough.  Deep enough entries contain
    only the given point, so the generated filter separates it from
    every other point of the metric.
    """
    if point not in balls.metric.points:
        raise PosetError(f"unknown point {point!r}")
    if length < 0:
        raise PosetError(f"chain length must be at least 0, got {length}")
    k = int(balls.max_radius * balls.max_denom)  # radius j is k / (max_denom * 2**j)
    if length >= (k & -k).bit_length():  # on the grid iff 2**j divides k: all are iff the last is
        raise PosetError("grid too coarse for the requested chain length")
    radii = [balls.max_radius / 2**j for j in range(length + 1)]
    return ChainFilter.make(balls, [balls.encode(point, r) for r in radii])


# ---------------------------------------------------------------------------
# precompact-open poset of a finite space


def open_poset(x: FiniteTopSpace, below, suffix):
    """The nonempty opens of ``x`` as a poset, with its MF space.

    Each open is an element, named by its points, in (size, contents)
    order; ``below(u, v)`` decides whether the open mask u lies strictly
    below v.  Returns ``(opens, poset, mf_space, open_pairs)``, where
    each open pair ``(id, basic open in mf_space, the open)`` is ready
    for verify_correspondence.
    """
    opens = [o for o in x.opens if o]
    ids = [x.set_str(o).replace(" ", "") for o in opens]
    masks = [sum(1 << j for j, v in enumerate(opens) if j == k or below(u, v)) for k, u in enumerate(opens)]
    poset = FinitePoset(ids, masks, f"{x.name}|{suffix}")
    space = PosetSpace(poset, "mf")
    return opens, poset, space, [(i, space.opens[e], o) for e, (i, o) in enumerate(zip(ids, opens))]


class PrecompactResult(NamedTuple):
    poset: FinitePoset
    open_of: dict  # poset element id -> open (a point mask)
    hausdorff: bool
    bijective: bool
    opens_correspond: bool
    point_of: dict  # MF point index -> the single point its members share, where there is one
    space: PosetSpace
    failure: str = ""


def precompact_open_poset(x: FiniteTopSpace) -> PrecompactResult:
    """Order the nonempty opens by closure containment and read points back.

    In a finite space every subset is precompact, so the poset carries
    all nonempty opens, with U below V when U equals V or the closure of
    U sits inside V.  For a Hausdorff finite space (that is, a T1 one,
    see FiniteTopSpace.is_t1) the map sending a maximal filter to the
    intersection of its members is a verified bijection onto the space
    with basic opens corresponding; on non-Hausdorff input the failure is
    reported rather than raised.
    """
    opens, poset, space, pairs = open_poset(x, lambda u, v: not x.closure(u) & ~v, "opens")
    point_of = {}
    for k, g in enumerate(space.generators):
        inter = x.whole_mask
        for e in _bits(poset.up_mask(g)):
            inter &= opens[e]
        if inter.bit_count() == 1:
            point_of[k] = inter.bit_length() - 1
    check = verify_correspondence(range(len(space)), len(x), point_of, pairs)

    return PrecompactResult(
        poset=poset,
        open_of=dict(zip(poset.elements, opens)),
        hausdorff=x.is_t1(),
        bijective=check.bijective,
        opens_correspond=check.ok,
        point_of=point_of,
        space=space,
        failure=check.failure,
    )
