"""mf_poset_from_order checks its point map on opens given as (space open, MF open)."""

from posetspace.constructions import FiniteTopSpace
from posetspace.semi_topogenous import interval_order, mf_poset_from_order


class RotatedDiscrete(FiniteTopSpace):
    """The discrete space on x0, x1, x2, its singletons listed as {x1}, {x2}, {x0}.

    The MF space then numbers point x by where {x} sits among the opens, so
    the point map from the space to it is the 3-cycle x0 -> 2, x1 -> 0,
    x2 -> 1.  A swap of two singletons would not do: a transposition is its
    own inverse, so a check that reads each open pair the wrong way round
    still passes.
    """

    @property
    def opens(self):
        return (0, 0b010, 0b100, 0b001, 0b011, 0b101, 0b110, 0b111)


def test_a_cyclic_point_map_keeps_membership():
    space = RotatedDiscrete(("x0", "x1", "x2"), [0b001, 0b010, 0b100], "rotated")
    result = mf_poset_from_order(space, interval_order(space))
    assert (result.bijective, result.membership_equivalence, result.failure) == (True, True, "")
