"""Exhaustive and seeded-random instance generation at desk scale.

Labeled posets are enumerated by deciding each unordered pair of
elements (incomparable, below, or above) in a fixed order, pruning
assignments that break transitivity; the decided part of the relation
stays transitively closed throughout, so a single intermediate element
witnesses every violation.  Topologies are enumerated through their
specialization preorders.
"""

from __future__ import annotations

import functools

from .poset_core import FinitePoset, PosetError, _transitive_close
from .constructions import FiniteTopSpace

_NAMES = "abcdefgh"


def _check_size(n: int) -> None:
    if not 0 <= n <= len(_NAMES):
        raise PosetError(f"cannot name {n} elements: sizes run from 0 to {len(_NAMES)}")


@functools.lru_cache(maxsize=None)
def labeled_posets(n: int) -> tuple:
    """All partial orders on n labeled elements, up to relation identity."""
    _check_size(n)
    if n == 0:
        return (FinitePoset((), (), "empty"),)
    pairs = [(i, j) for j in range(n) for i in range(j)]
    lt = [[False] * n for _ in range(n)]
    out = []

    def emit():
        masks = []
        for i in range(n):
            m = 1 << i
            for j in range(n):
                if lt[i][j]:
                    m |= 1 << j
            masks.append(m)
        out.append(FinitePoset(tuple(_NAMES[:n]), tuple(masks), f"P{len(out)}"))

    def rec(k):
        if k == len(pairs):
            emit()
            return
        i, j = pairs[k]
        forced_ij = any(lt[i][m] and lt[m][j] for m in range(i))
        forced_ji = any(lt[j][m] and lt[m][i] for m in range(i))
        if forced_ij and forced_ji:
            return
        if not forced_ij and not forced_ji:
            rec(k + 1)
        if not forced_ji and all(
            (not lt[m][i] or lt[m][j]) and (not lt[j][m] or lt[i][m]) for m in range(i)
        ):
            lt[i][j] = True
            rec(k + 1)
            lt[i][j] = False
        if not forced_ij and all(
            (not lt[m][j] or lt[m][i]) and (not lt[i][m] or lt[j][m]) for m in range(i)
        ):
            lt[j][i] = True
            rec(k + 1)
            lt[j][i] = False

    rec(0)
    return tuple(out)


def posets_up_to(n: int, include_empty=False):
    """All labeled posets with between one (or zero) and n elements."""
    start = 0 if include_empty else 1
    out = []
    for k in range(start, n + 1):
        out.extend(labeled_posets(k))
    return out


def random_poset(rng, n: int, edge_prob: float = 0.4, name="random") -> FinitePoset:
    """A random labeled poset: a random DAG on index order, closed transitively."""
    _check_size(n)
    masks = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                masks[i] |= 1 << j
    return FinitePoset(tuple(_NAMES[:n]), tuple(_transitive_close(masks)), name)


@functools.lru_cache(maxsize=None)
def all_topologies(n: int) -> tuple:
    """All topologies on n labeled points, via their specialization preorders.

    Row x of a preorder, the points above x, is the minimal open
    neighbourhood of x, so the rows form a basis of the topology.
    """
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
        dense = {e for e in poset.elements if rng.random() < 0.4}
        for p in poset.elements:
            if not any(poset.leq(q, p) for q in dense):
                below = [q for q in poset.elements if poset.leq(q, p)]
                dense.add(rng.choice(below))
        out.append(frozenset(dense))
    return out
