"""Finite and lazily generated partial orders: validation and order queries.

A generated poset is any object with ``roots()``, a finite seed set of
string codes; ``leq(a, b)``, deciding a partial order on the codes;
``refinements(a, budget)``, elements strictly below ``a`` whose list only
grows with the budget and is complete in its limit (a negative budget
raises PosetError); and ``incompatible(a, b)``, true when no element lies
below both.
"""

from __future__ import annotations


class PosetError(Exception):
    """Base class for every error raised by this package."""


class InvalidElementId(PosetError):
    pass


class UnknownChoice(PosetError, ValueError):
    """A string argument outside its fixed choices, such as a filter kind or a space mode."""


class DuplicateElement(PosetError):
    def __init__(self, element):
        super().__init__(f"duplicate element {element!r}")
        self.element = element


class UnknownElement(PosetError):
    def __init__(self, element):
        super().__init__(f"unknown element {element!r}")
        self.element = element


class UnknownElementInPair(PosetError):
    def __init__(self, element, pair):
        super().__init__(f"relation pair {pair!r} mentions undeclared element {element!r}")
        self.element = element
        self.pair = pair


class AntisymmetryViolation(PosetError):
    def __init__(self, p, q):
        super().__init__(f"elements {p!r} and {q!r} lie below each other but are distinct")
        self.pair = (p, q)


class IrreflexivityViolation(PosetError):
    def __init__(self, p, derived=False):
        where = "transitive closure of the strict input" if derived else "strict input"
        super().__init__(f"{where} relates {p!r} to itself")
        self.element = p
        self.derived = derived


def check_element_id(token) -> str:
    """Element ids are nonempty strings without whitespace."""
    if not isinstance(token, str) or token.split() != [token]:  # empty, or split at a whitespace
        raise InvalidElementId(f"bad element id {token!r}: ids are nonempty and whitespace-free")
    return token


_BYTE_BITS = tuple(tuple(i for i in range(8) if m >> i & 1) for m in range(256))


def _bits(mask):
    """The indices of the set bits of ``mask``, ascending: a tuple from a table below 256, else
    a list of the peeled low bits.  A negative mask raises PosetError at the call."""
    if mask < 256:
        if mask < 0:  # its bits never run out
            raise PosetError(f"negative mask {mask}")
        return _BYTE_BITS[mask]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class FinitePoset:
    """An explicit finite partial order.

    The relation is stored as one upset bitmask per element: bit j of
    ``up_mask(i)`` says element i lies below element j.  Element order is
    the construction order; every enumeration in the package iterates in
    that order so results are deterministic.

    Instances are immutable.  Use :func:`validate_poset` to build one from
    raw input; the constructor trusts its arguments.  A caller that
    already holds the down-set masks (bit i of ``down_masks[j]`` set when
    element i lies below element j) passes them, trusted like the up
    masks; otherwise they are the transpose of the up masks.  The hash is
    computed on the first ``__hash__`` call: most posets are never hashed.
    """

    __slots__ = ("name", "elements", "_index", "_up", "_down", "_hash")

    def __init__(self, elements, up_masks, name="poset", down_masks=None):
        self.name = name
        self.elements = tuple(elements)
        self._index = None  # the name table, built on first lookup: most posets never need it
        self._up = tuple(up_masks)
        n = len(self.elements)
        if len(self._up) != n:
            raise PosetError(f"{n} elements but {len(self._up)} up-set masks")
        if down_masks is None:
            down = [0] * n
            for i, m in enumerate(self._up):
                while m:  # _bits inlined: the transpose is most of the cost of a poset
                    low = m & -m
                    down[low.bit_length() - 1] |= 1 << i
                    m ^= low
            down_masks = down
        self._down = tuple(down_masks)
        if len(self._down) != n:
            raise PosetError(f"{n} elements but {len(self._down)} down-set masks")
        self._hash = None

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"FinitePoset({self.name!r}, {len(self)} elements)"

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.elements, self._up))
        return self._hash

    def _names(self) -> dict:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements)}
        return self._index

    def index(self, element) -> int:
        try:
            return self._names()[element]
        except KeyError:
            raise UnknownElement(element) from None

    def __contains__(self, element):
        return element in self._names()

    def up_mask(self, i: int) -> int:
        return self._up[i]

    def down_mask(self, i: int) -> int:
        return self._down[i]

    @property
    def up_masks(self) -> tuple:
        return self._up

    @property
    def down_masks(self) -> tuple:
        return self._down

    def leq(self, a, b) -> bool:
        """True when a lies below b (non-strict)."""
        return (self._up[self.index(a)] >> self.index(b)) & 1 == 1

    def lt(self, a, b) -> bool:
        return a != b and self.leq(a, b)

    def leq_idx(self, i: int, j: int) -> bool:
        return (self._up[i] >> j) & 1 == 1

    def incompatible(self, a, b) -> bool:
        """True when no element lies below both a and b."""
        return self._down[self.index(a)] & self._down[self.index(b)] == 0

    def pairs(self):
        """The full non-strict relation as sorted (a, b) pairs."""
        elements = self.elements
        return [(a, elements[j]) for a, up in zip(elements, self._up) for j in _bits(up)]

    def minimal_indices(self):
        return tuple([i for i, d in enumerate(self._down) if d == 1 << i])

    def minimals(self):
        return tuple(self.elements[i] for i in self.minimal_indices())

    def greatest(self):
        """The greatest element, or None when there is none."""
        full = (1 << len(self)) - 1
        return self.elements[self._down.index(full)] if full in self._down else None

    def mask_of(self, names) -> int:
        m = 0
        for name in names:
            m |= 1 << self.index(name)
        return m

    def names_of(self, mask) -> tuple:
        return tuple([self.elements[i] for i in _bits(mask)])

    def restrict(self, mask, name=None) -> "FinitePoset":
        """The subposet on the elements in ``mask``, in element order, with the restricted order."""
        if mask >> len(self):  # a bit past the last element, or a negative mask
            raise PosetError(f"element mask {mask} has bits outside the {len(self)} elements of {self.name}")
        keep = list(_bits(mask))
        masks = [sum(1 << k for k, j in enumerate(keep) if self._up[i] >> j & 1) for i in keep]
        return FinitePoset([self.elements[i] for i in keep], masks, name or f"{self.name}|sub")

    def dual(self) -> "FinitePoset":
        """The order-reversed poset on the same elements."""
        return FinitePoset(self.elements, self._down, f"{self.name}^op", self._up)


def _transitive_close(masks):
    """The transitive closure of a relation given as row masks.

    Warshall's method ("A theorem on Boolean matrices", J. ACM 9, 1962):
    after step k, row i holds every element reached from i through
    intermediates among elements 0..k.  Any relation is accepted, cyclic
    ones included; the diagonal is added only where a cycle puts it.
    """
    reached = 0
    for i, m in enumerate(masks):
        reached |= m & ~(1 << i)
    for k in range(len(masks)):
        row, bit = masks[k], 1 << k
        # step k adds nothing unless another row holds k and row k holds another
        # element; a k that starts in no other row never enters one
        if reached & bit and row & ~bit:
            masks = [m | row if m & bit else m for m in masks]
    return list(masks)


def _closed_masks(elements, pairs, strict):
    """The element tuple and the closure of ``pairs`` as row masks, with the diagonal unless ``strict``.

    Raises in input order: a bad or duplicate id, then per pair an undeclared element or a strict self pair.
    """
    index = {}
    for e in elements:
        check_element_id(e)
        if e in index:
            raise DuplicateElement(e)
        index[e] = len(index)
    masks = [0 if strict else 1 << i for i in range(len(index))]
    for a, b in pairs:
        for x in (a, b):
            if x not in index:
                raise UnknownElementInPair(x, (a, b))
        if strict and a == b:
            raise IrreflexivityViolation(a)
        masks[index[a]] |= 1 << index[b]
    return tuple(index), _transitive_close(masks)


def validate_poset(elements, pairs, name="poset") -> FinitePoset:
    """Build a poset from raw elements and relation pairs.

    The input pairs are closed reflexively and transitively, so Hasse
    style minimal input is accepted.  Raises AntisymmetryViolation when
    the closure relates two distinct elements both ways.
    """
    elems, masks = _closed_masks(elements, pairs, strict=False)
    poset = FinitePoset(elems, masks, name)
    for i, (m, d) in enumerate(zip(poset.up_masks, poset.down_masks)):
        both = m & d & ~(1 << i)
        if both:  # the first such i is the lower of its pair, as a pair-by-pair scan finds it
            raise AntisymmetryViolation(elems[i], elems[_bits(both)[0]])
    return poset


def incompatible(poset: FinitePoset, p, q) -> bool:
    """True when no element lies below both p and q."""
    return poset.incompatible(p, q)


def strict_to_poset(elements, strict_pairs, name="poset") -> FinitePoset:
    """Adjoin the diagonal to a strict (irreflexive, transitive) relation."""
    elems, masks = _closed_masks(elements, strict_pairs, strict=True)
    for i, m in enumerate(masks):
        if m >> i & 1:
            raise IrreflexivityViolation(elems[i], derived=True)
    return FinitePoset(elems, [m | 1 << i for i, m in enumerate(masks)], name)


def poset_to_strict(poset: FinitePoset):
    """The strict part of the order, as sorted pairs. Inverse of strict_to_poset."""
    return [(a, b) for a, b in poset.pairs() if a != b]


class BinaryTreePoset:
    """Finite 0/1 strings ordered by reverse prefix: longer strings lie lower.

    The root (empty string) is encoded as "e"; every other element is its
    bit string.
    """

    ROOT = "e"

    @staticmethod
    def bits(code: str) -> str:
        return "" if code == BinaryTreePoset.ROOT else code

    @staticmethod
    def encode(bits: str) -> str:
        return bits if bits else BinaryTreePoset.ROOT

    def roots(self):
        return [self.ROOT]

    def leq(self, a, b):
        x, y = self.bits(a), self.bits(b)
        return x.startswith(y)

    def refinements(self, a, budget):
        if budget < 0:
            raise PosetError(f"refinement budget must be at least 0, got {budget}")
        base = self.bits(a)
        return [base + format(k, f"0{extra}b") for extra in range(1, budget + 1) for k in range(2 ** extra)]

    def incompatible(self, a, b):
        x, y = self.bits(a), self.bits(b)
        return not (x.startswith(y) or y.startswith(x))

