"""Exhaustive and seeded-random instance generation at desk scale.

Labeled posets are enumerated by deciding each unordered pair of
elements (incomparable, below, or above) in a fixed order, pruning
assignments that break transitivity; the decided part of the relation
stays transitively closed throughout, so a single intermediate element
witnesses every violation.  The decided relation is held as strict up
and down masks, so the test over every intermediate element is one
AND.  Topologies are enumerated through their specialization
preorders.  Posets above 6 elements and topologies above 5 points are
refused: the output would not fit in memory, or the search not finish.
"""

from __future__ import annotations

import functools

from .poset_core import FinitePoset, PosetError, _bits, _transitive_close
from .constructions import FiniteTopSpace

_NAMES = "abcdefgh"


def _check_size(n: int) -> None:
    if not 0 <= n <= len(_NAMES):
        raise PosetError(f"cannot name {n} elements: sizes run from 0 to {len(_NAMES)}")


# OEIS A001035: the number of labeled posets on n elements, n = 0..8
_POSET_COUNTS = (1, 1, 3, 19, 219, 4231, 130023, 6129859, 431723379)


@functools.lru_cache(maxsize=None)
def labeled_posets(n: int) -> tuple:
    """All partial orders on n labeled elements, up to relation identity.

    The search keeps strict up and down masks of the decided relation;
    each transitivity test over the elements m < i is one mask operation.
    Sizes above 6 are refused: the 6,129,859 posets on 7 elements would
    hold about 4 GB.
    """
    _check_size(n)
    if n > 6:
        raise PosetError(f"cannot hold the {_POSET_COUNTS[n]:,} labeled posets on {n} elements: "
                         "sizes run from 0 to 6")
    if n == 0:
        return (FinitePoset((), (), "empty"),)
    elements = tuple(_NAMES[:n])
    diagonal = [1 << i for i in range(n)]
    pairs = [(i, j, (1 << i) - 1, 1 << i, 1 << j) for j in range(n) for i in range(j)]
    up = [0] * n
    down = [0] * n
    out = []
    last = len(pairs)

    def rec(k):
        if k == last:
            ups, downs = [m | d for m, d in zip(up, diagonal)], [m | d for m, d in zip(down, diagonal)]
            out.append(FinitePoset(elements, ups, f"P{len(out)}", downs))
            return
        i, j, low, bi, bj = pairs[k]
        forced_ij = up[i] & down[j] & low
        forced_ji = up[j] & down[i] & low  # each branch below needs one of the two clear
        if not forced_ij and not forced_ji:
            rec(k + 1)
        if not forced_ji and not (down[i] & ~down[j] | up[j] & ~up[i]) & low:
            up[i] |= bj
            down[j] |= bi
            rec(k + 1)
            up[i] ^= bj
            down[j] ^= bi
        if not forced_ij and not (down[j] & ~down[i] | up[i] & ~up[j]) & low:
            up[j] |= bi
            down[i] |= bj
            rec(k + 1)
            up[j] ^= bi
            down[i] ^= bj

    rec(0)
    return tuple(out)


def posets_up_to(n: int, include_empty=False):
    """All labeled posets with between one (or zero) and n elements."""
    start = 0 if include_empty else 1
    out = []
    for k in range(start, n + 1):
        out.extend(labeled_posets(k))
    return out


def random_poset(rng, n: int) -> FinitePoset:
    """A random labeled poset: a random DAG on index order, each edge drawn at 0.4, closed transitively."""
    _check_size(n)
    masks = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                masks[i] |= 1 << j
    return FinitePoset(tuple(_NAMES[:n]), tuple(_transitive_close(masks)), "random")


@functools.lru_cache(maxsize=None)
def all_topologies(n: int) -> tuple:
    """All topologies on n labeled points, via their specialization preorders.

    Row x of a preorder, the points above x, is the minimal open
    neighbourhood of x, so the rows form a basis of the topology.  The
    search closes each of the 2^(n(n-1)) relations, so n runs from 0 to 5.
    """
    if not 0 <= n <= 5:
        raise PosetError(f"cannot list the topologies on {n} points: sizes run from 0 to 5")
    points = tuple(f"x{i}" for i in range(n))
    preorders = set()
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for combo in range(1 << len(offdiag)):
        rows = [1 << i for i in range(n)]
        for bit, (i, j) in enumerate(offdiag):
            if combo >> bit & 1:
                rows[i] |= 1 << j
        preorders.add(tuple(_transitive_close(rows)))
    # in the order of the rows as tuples of booleans, point 0 first
    order = sorted(preorders, key=lambda rows: [[m >> j & 1 for j in range(n)] for m in rows])
    return tuple(FiniteTopSpace(points, rows, name=f"T{k}") for k, rows in enumerate(order))


def random_dense_sets(rng, poset: FinitePoset, count: int):
    """Seeded dense element sets: random subsets patched below uncovered elements."""
    out = []
    for _ in range(count):
        dense = sum(1 << i for i in range(len(poset)) if rng.random() < 0.4)
        for down in poset.down_masks:
            if not down & dense:
                dense |= 1 << rng.choice(_bits(down))
        out.append(frozenset(poset.names_of(dense)))
    return out
