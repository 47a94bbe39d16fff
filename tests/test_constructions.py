import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from posetspace import constructions
from posetspace.catalog import all_topologies, posets_up_to, random_poset
from posetspace.constructions import (
    BadBallGrid,
    EmptyFactorList,
    FiniteTopSpace,
    INF,
    MetricAxiomViolation,
    NotDescending,
    NotOpen,
    RationalMetric,
    TopologyInvalid,
    formal_ball_poset,
    gdelta_mf_poset,
    gdelta_uf_poset,
    open_subspace_uf,
    point_chain,
    precompact_open_poset,
    product_poset,
    refined_subposet_claims,
)
from posetspace.poset_core import PosetError, validate_poset
from posetspace.topology import PosetSpace


# --- products ---------------------------------------------------------------


def test_product_antichains(antichain2):
    r = product_poset([antichain2, antichain2])
    assert len(r.poset) == 9  # tops adjoined to both factors
    assert len(r.space.points) == 4
    assert r.ok


def test_product_chains(chain2):
    r = product_poset([chain2, chain2])
    assert len(r.space.points) == 1
    assert r.ok


def test_product_single_factor(vee):
    r = product_poset([vee])
    assert len(r.space.points) == len(PosetSpace(vee, "mf").points)
    assert r.ok
    # identity on coordinates: each tuple maps to the filter with the same generator
    for combo, i in r.phi.items():
        assert r.phi_inv[i] == combo


def test_product_adjoins_a_top_under_a_fresh_name():
    # neither factor has a greatest element, and each already names an element "top"
    one = validate_poset(["top", "b"], [], "one")
    two = validate_poset(["top", "top_"], [], "two")
    r = product_poset([one, two])
    assert r.adjoined_tops == ("top_", "top__")
    assert [f.elements for f in r.factors] == [("top", "b", "top_"), ("top", "top_", "top__")]
    assert len(r.space.points) == 4 and r.ok


def test_product_empty_factor_list():
    with pytest.raises(EmptyFactorList):
        product_poset([])


def test_product_counts_small_sweep():
    posets = posets_up_to(3, include_empty=True)
    for p1 in posets:
        for p2 in posets:
            r = product_poset([p1, p2])
            assert r.ok, (p1.name, p2.name, r.failure)
            n1 = len(PosetSpace(p1, "mf").points)
            n2 = len(PosetSpace(p2, "mf").points)
            assert len(r.space.points) == n1 * n2


def test_product_three_factors(chain2, antichain2, vee):
    r = product_poset([chain2, antichain2, vee])
    assert r.ok
    assert len(r.space.points) == 1 * 2 * 2


def test_product_random_triples():
    rng = random.Random(31)
    for _ in range(30):
        factors = [random_poset(rng, rng.randint(1, 4)) for _ in range(3)]
        r = product_poset(factors)
        assert r.ok
        want = 1
        for f in factors:
            want *= len(PosetSpace(f, "mf").points)
        assert len(r.space.points) == want


def _assert_product_matches_oracle(factors):
    r = product_poset(factors)
    want = oracles.product_up_masks(r.factors)
    assert [r.poset.up_mask(i) for i in range(len(r.poset))] == want, [f.name for f in factors]
    assert r.ok, ([f.name for f in factors], r.failure)
    for e in r.poset.elements:
        assert oracles.point_set(r.space.basic_open(e)) == oracles.basic_open(r.space, e)


def test_product_order_matches_oracle():
    small = posets_up_to(3, include_empty=True)
    for p1 in small:
        for p2 in small:
            _assert_product_matches_oracle([p1, p2])
    tiny = posets_up_to(2, include_empty=True)
    for factors in itertools.product(tiny, repeat=3):
        _assert_product_matches_oracle(list(factors))
    rng = random.Random(47)
    for a in range(1, 8):
        for b in range(1, 8):
            for _ in range(3):
                _assert_product_matches_oracle([random_poset(rng, a), random_poset(rng, b)])


# --- G-delta, maximal side ---------------------------------------------------


def test_gdelta_mf_whole_space(vee):
    r = gdelta_mf_poset(vee, [["a", "b", "c"]])
    assert r.ok and r.intersection
    assert len(r.stage_space.points) == 2


def test_gdelta_mf_single_point_open(vee):
    # the open generated by the element a alone cuts the space to one point
    r = gdelta_mf_poset(vee, [["a"]])
    assert r.ok
    assert len(r.stage_space.points) == 1
    back = {r.psi[j] for j in r.psi}
    assert back == oracles.point_set(r.intersection)


def test_gdelta_mf_element_set_with_top(vee):
    # {a, c} as an element set generates the union of both basic opens,
    # which is the whole space, so nothing is cut away
    r = gdelta_mf_poset(vee, [["a", "c"]])
    assert r.ok
    assert len(r.stage_space.points) == 2


def test_gdelta_mf_empty_intersection(vee):
    r = gdelta_mf_poset(vee, [["a"], ["b"]])
    assert not r.intersection
    assert r.ok
    assert len(r.stage_space.points) == 0


def test_gdelta_mf_stage_cap(vee):
    r = gdelta_mf_poset(vee, [["a"], ["a", "b"]])
    assert r.stage_cap == 3


def test_gdelta_mf_random_instances():
    rng = random.Random(42)
    for _ in range(120):
        p = random_poset(rng, rng.randint(1, 5))
        k = rng.randint(0, 3)
        opens = [
            [e for e in p.elements if rng.random() < 0.6] for _ in range(k)
        ]
        r = gdelta_mf_poset(p, opens)
        assert r.ok, (p.pairs(), opens, r.failure)
        assert len(r.stage_space.points) == r.intersection.bit_count()


# --- open subspaces and G-delta, unbounded side -------------------------------


def test_open_subspace_whole(vee):
    sp = PosetSpace(vee, "uf")
    r = open_subspace_uf(vee, sp.whole_mask)
    assert r.subposet.elements == vee.elements
    assert r.ok


def test_open_subspace_basic(vee):
    sp = PosetSpace(vee, "uf")
    r = open_subspace_uf(vee, sp.basic_open("a"))
    assert r.subposet.elements == ("a",)
    assert len(r.sub_space.points) == 1
    assert r.ok


def test_open_subspace_empty(vee):
    r = open_subspace_uf(vee, 0)
    assert r.subposet.elements == ()
    assert len(r.sub_space.points) == 0
    assert r.ok


def test_open_subspace_rejects_non_point_set(vee):
    # finite filter spaces are discrete, so every point mask is open;
    # only what is no point mask can be rejected
    sp = PosetSpace(vee, "uf")
    assert all(sp.is_open(u) for u in range(4))
    with pytest.raises(NotOpen) as err:
        open_subspace_uf(vee, frozenset([0]))
    assert str(err.value) == f"frozenset({{0}}) is not a point mask of {sp!r}"


def test_open_subspace_names_a_stray_witness(vee):
    # the lowest bit outside the two points: past the last point, or the first of a negative mask
    sp = PosetSpace(vee, "uf")
    for u, stray in ((0b1 | 1 << 5, 5), (1 << 2, 2), (-1, 2), (-4, 2), (~0b1, 2)):
        with pytest.raises(NotOpen) as err:
            open_subspace_uf(vee, u)
        assert str(err.value) == f"{stray} is not a point of {sp!r}", u


def test_open_subspace_every_open_works(vee):
    sp = PosetSpace(vee, "uf")
    for u in range(2 ** len(sp.points)):
        assert open_subspace_uf(vee, u).ok


def test_gdelta_uf_whole(vee):
    r = gdelta_uf_poset(vee, [["a", "b", "c"]])
    assert r.ok
    assert all(r.claims.values())
    assert {f.members for f in r.sub_space.points} == {
        f.members for f in PosetSpace(vee, "uf").points
    }


def test_gdelta_uf_single_open(vee):
    r = gdelta_uf_poset(vee, [["a"], ["a"]])
    assert r.ok
    assert len(r.sub_space.points) == 1
    assert r.sub_space.points[0].members == {"a", "c"}
    assert r.ranks == {"a": INF, "c": 0}


def test_refined_subposet_claims_on_a_wrong_subposet():
    # P is the chain a < b < c, with the one UF point up(a), and the subposet fed in
    # keeps c alone.  {c} is then a filter of it with no strict lower bound: claim 2
    # fails on it while c has finite rank, claim 4 while the restriction map misses its
    # point, and claim 3 always, since up(c) = {c} is bounded in P by b.  up(b) = {b, c}
    # is bounded in P too and meets the subposet in that {c}, but holds b outside it, so
    # claim 3 must not name it.  Claim 1 fails while up(a) has no image.
    p = validate_poset(["a", "b", "c"], [("a", "b"), ("b", "c")], "chain3")
    space, sub = PosetSpace(p, "uf"), p.restrict(p.mask_of(["c"]))
    assert refined_subposet_claims(space, sub, 0b100, 0b1, {0: None}) == {
        1: ["{a, b, c}"], 2: ["{c}"], 3: ["{c}"], 4: ["{c}"]}
    assert refined_subposet_claims(space, sub, 0b100, 0, {0: 0}) == {1: [], 2: [], 3: ["{c}"], 4: []}


def test_gdelta_uf_reports_failed_claims(vee, monkeypatch):
    # the claims hold on every subposet gdelta_uf_poset builds, so a claims check that
    # reports two failures shows how they reach the result, over the restriction's verdict
    claims = constructions.refined_subposet_claims
    monkeypatch.setattr(constructions, "refined_subposet_claims",
                        lambda *args: {**claims(*args), 4: ["{c}"], 2: ["{a, c}"]})
    r = gdelta_uf_poset(vee, [["a"], ["a"]])
    assert r.claims == {1: True, 2: False, 3: True, 4: False}
    assert not r.ok and r.failure == "claims 2, 4 failed"


def test_gdelta_uf_not_descending(vee):
    with pytest.raises(NotDescending):
        gdelta_uf_poset(vee, [["a"], ["a", "b"]])


def test_uf_rank_is_antitone():
    # smaller basic opens never get smaller ranks
    rng = random.Random(13)
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 5))
        space = PosetSpace(p, "uf")
        opens = []
        current = list(p.elements)
        for _ in range(rng.randint(1, 3)):
            current = [e for e in current if rng.random() < 0.8]
            opens.append(list(current))
        r = gdelta_uf_poset(p, opens)
        for a in r.subposet.elements:
            for b in r.subposet.elements:
                if not space.basic_open(a) & ~space.basic_open(b):
                    assert r.ranks[a] >= r.ranks[b]


def test_gdelta_uf_random_instances():
    rng = random.Random(7)
    for _ in range(120):
        p = random_poset(rng, rng.randint(1, 5))
        k = rng.randint(0, 3)
        opens = []
        elems = list(p.elements)
        current = list(elems)
        space = PosetSpace(p, "uf")
        for _ in range(k):
            current = [e for e in current if rng.random() < 0.8]
            opens.append(list(current))
        # make the element sets descending as point sets by construction
        pts = [space.open_mask(u) for u in opens]
        if any(b & ~a for a, b in zip(pts, pts[1:])):
            continue
        r = gdelta_uf_poset(p, opens)
        assert r.ok, (p.pairs(), opens, r.failure, r.claims)
        assert (r.claims, r.claim_details) == oracles.gdelta_uf_claims(p, r), (p.pairs(), opens)


# --- mask constructions against the Filter-tuple references -------------------


def _space_fields(space):
    return space.generators, space.opens


def _mf_fields(r):
    return (r.poset.elements, r.poset.up_masks, r.poset.name, r.stage_cap, r.open_points, r.intersection,
            r.carrier, r.phi, r.psi, r.ok, r.failure,
            _space_fields(r.space), _space_fields(r.stage_space))


def _uf_fields(r):
    return (r.subposet.elements, r.subposet.up_masks, r.subposet.name, r.ranks, r.open_points,
            r.intersection, r.claims, r.claim_details, r.ok, r.failure,
            _space_fields(r.space), _space_fields(r.sub_space))


def _uf_outcome(construct, p, opens):
    try:
        return _uf_fields(construct(p, opens))
    except NotDescending as err:
        return "NotDescending", str(err)


def _gdelta_inputs():
    """Every poset on 0-4 elements and seeded random ones on 5-6, each with seeded random opens.

    The unbounded-filter side gets shrinking element sets, plus an arbitrary
    list now and then, which may fail to descend.
    """
    rng = random.Random(19)
    posets = posets_up_to(4, include_empty=True)
    posets += [random_poset(rng, n) for n in (5, 6) for _ in range(40)]
    for p in posets:
        for _ in range(2):
            mf_opens = [[e for e in p.elements if rng.random() < 0.6] for _ in range(rng.randint(0, 3))]
            uf_opens, current = [], list(p.elements)
            for _ in range(rng.randint(0, 3)):
                current = [e for e in current if rng.random() < 0.8]
                uf_opens.append(list(current))
            if rng.random() < 0.2:
                uf_opens = [[e for e in p.elements if rng.random() < 0.5] for _ in range(rng.randint(2, 3))]
            yield p, mf_opens, uf_opens


def test_gdelta_constructions_match_the_filter_tuple_references():
    # stage ids, up masks, phi, psi, claims and their details, ranks, ok and failure
    for p, mf_opens, uf_opens in _gdelta_inputs():
        assert _mf_fields(gdelta_mf_poset(p, mf_opens)) == _mf_fields(oracles.gdelta_mf_reference(p, mf_opens)), \
            (p.pairs(), mf_opens)
        assert _uf_outcome(gdelta_uf_poset, p, uf_opens) == _uf_outcome(oracles.gdelta_uf_reference, p, uf_opens), \
            (p.pairs(), uf_opens)


def test_product_matches_the_comb_mask_reference():
    rng = random.Random(23)
    small = posets_up_to(3, include_empty=True)
    cases = [[a, b] for a in small for b in small]
    cases += [[random_poset(rng, a), random_poset(rng, b)] for a in range(1, 8) for b in range(a, 8) for _ in range(2)]
    cases += [[random_poset(rng, rng.randint(1, 3)) for _ in range(3)] for _ in range(20)]
    for factors in cases:
        got, want = product_poset(factors), oracles.product_reference(factors)
        assert (got.poset, got.poset.name, got.poset.down_masks, got.coords, got.adjoined_tops) == \
            (want.poset, want.poset.name, want.poset.down_masks, want.coords, want.adjoined_tops)
        assert (got.phi, got.phi_inv, got.ok, got.failure) == (want.phi, want.phi_inv, want.ok, want.failure), \
            [f.pairs() for f in factors]


# --- formal balls -------------------------------------------------------------


@pytest.fixture
def two_points():
    return RationalMetric(["p0", "p1"], {("p0", "p1"): 1}, "two")


def test_metric_validation():
    with pytest.raises(MetricAxiomViolation):
        RationalMetric(["a", "b"], {("a", "b"): 0})
    with pytest.raises(MetricAxiomViolation):
        RationalMetric(["a", "b"], {})
    with pytest.raises(MetricAxiomViolation):
        RationalMetric(
            ["a", "b", "c"],
            {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 5},
        )


@pytest.mark.parametrize("dist, message", [
    ({("a", "b"): 1, ("a", "z"): 1}, "distance given for unknown point 'z'"),
    ({("z", "a"): 1}, "distance given for unknown point 'z'"),
    ({("a", "b"): 1, ("b", "b"): Fraction(1, 2)}, "nonzero self-distance at 'b'"),
])
def test_metric_names_a_bad_entry(dist, message):
    with pytest.raises(MetricAxiomViolation) as err:
        RationalMetric(["a", "b"], dist)
    assert str(err.value) == message


@pytest.mark.parametrize("code, message", [
    ("B(p0)", "bad formal-ball code 'B(p0)'"),
    ("B(p0,1/0)", "bad formal-ball code 'B(p0,1/0)'"),  # a zero denominator is no radius
    ("B(z,1)", "unknown center in 'B(z,1)'"),
    ("B(p0,0)", "radius off the grid in 'B(p0,0)'"),
    ("B(p0,3)", "radius off the grid in 'B(p0,3)'"),
    ("B(p0,1/3)", "radius off the grid in 'B(p0,1/3)'"),
])
def test_ball_decode_refusals(two_points, code, message):
    balls = formal_ball_poset(two_points, max_denom=8, max_radius=2)
    with pytest.raises(PosetError) as err:
        balls.decode(code)
    assert (type(err.value), str(err.value)) == (PosetError, message)
    with pytest.raises(PosetError, match=f"^{re.escape(message)}$"):
        balls.leq(code, "B(p0,2)")  # the order reads codes through decode


def test_point_chain_refuses_an_unknown_point(two_points):
    balls = formal_ball_poset(two_points, max_denom=8, max_radius=2)
    with pytest.raises(PosetError) as err:
        point_chain(balls, "p9", 1)
    assert (type(err.value), str(err.value)) == (PosetError, "unknown point 'p9'")


def test_ball_order_examples(two_points):
    balls = formal_ball_poset(two_points, max_denom=8, max_radius=2)
    assert balls.leq("B(p0,1/2)", "B(p1,2)")  # 1 + 1/2 < 2
    assert not balls.leq("B(p0,1/2)", "B(p1,1)")  # 1 + 1/2 >= 1
    assert balls.leq("B(p0,1/2)", "B(p0,1/2)")


def test_halving_chain_descends(two_points):
    balls = formal_ball_poset(two_points, max_denom=64, max_radius=2)
    chain = point_chain(balls, "p0", 6)
    for above, below in zip(chain.chain, chain.chain[1:]):
        assert balls.leq(below, above) and below != above


def test_chain_separates_points(two_points):
    balls = formal_ball_poset(two_points, max_denom=64, max_radius=2)
    chain = point_chain(balls, "p0", 6)

    def contains(code, point):
        center, radius = balls.decode(code)
        return two_points.d(center, point) < radius

    half_min = two_points.d("p0", "p1") / 2
    deep = [c for c in chain.chain if balls.decode(c)[1] < half_min]
    assert deep
    assert all(not contains(c, "p1") for c in deep)
    assert all(contains(c, "p0") for c in chain.chain)


def test_ball_membership_mod_grid(two_points):
    balls = formal_ball_poset(two_points, max_denom=64, max_radius=2)
    chain = point_chain(balls, "p0", 6)
    # balls around p0 are generated members exactly when the radius clears
    # the center distance by at least the grid floor
    assert chain.generates("B(p0,1)")
    assert chain.generates("B(p1,2)")
    assert not chain.generates("B(p1,1)")


def test_strict_relation_transitive_on_grid(two_points):
    balls = formal_ball_poset(two_points, max_denom=4, max_radius=1)
    grid = [
        balls.encode(p, Fraction(k, 4))
        for p in two_points.points
        for k in range(1, 5)
    ]
    lt = {(x, y) for x in grid for y in grid if x != y and balls.leq(x, y)}
    for x, y in lt:
        for z in grid:
            if (y, z) in lt:
                assert (x, z) in lt
    # antisymmetry of the reflexive closure
    assert not any((y, x) in lt for x, y in lt)


def test_refinements_monotone_and_strict(two_points):
    balls = formal_ball_poset(two_points, max_denom=8, max_radius=2)
    root = "B(p0,2)"
    r1 = balls.refinements(root, 1)
    r2 = balls.refinements(root, 2)
    assert set(r1) <= set(r2)
    assert all(balls.leq(r, root) and r != root for r in r2)


def test_negative_ball_sizes_are_refused(two_points):
    # a negative budget used to be computed as budget 0, a negative length
    # used to give an empty chain
    balls = formal_ball_poset(two_points, max_denom=8, max_radius=2)
    with pytest.raises(PosetError, match="budget must be at least 0"):
        balls.refinements("B(p0,2)", -1)
    with pytest.raises(PosetError, match="length must be at least 0"):
        point_chain(balls, "p0", -1)
    assert point_chain(balls, "p0", 0).chain == ("B(p0,2)",)


# points on a rational line: distinct integer positions over one denominator,
# which need not divide the grid's
line_metrics = st.tuples(
    st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True),
    st.sampled_from([1, 2, 3, 4, 8]),
).map(lambda drawn: RationalMetric(
    [f"p{i}" for i in range(len(drawn[0]))],
    {(f"p{i}", f"p{j}"): Fraction(abs(x - y), drawn[1])
     for i, x in enumerate(drawn[0]) for j, y in enumerate(drawn[0]) if i < j},
))


@settings(derandomize=True, database=None, deadline=None)
@given(line_metrics, st.sampled_from([1, 2, 4, 8, 16]),
       st.sampled_from([1, 2, 4, Fraction(3, 2), Fraction(5, 4)]), st.integers(0, 3))
def test_ball_refinements_match_the_fraction_loop(metric, max_denom, max_radius, budget):
    # integer numerators against every grid radius tried with Fraction arithmetic
    assume((max_radius * max_denom).denominator == 1)  # the roots lie on the grid
    balls = formal_ball_poset(metric, max_denom=max_denom, max_radius=max_radius)
    for root in balls.roots():
        for x in [root, *balls.refinements(root, 1)[-1:]]:
            assert balls.refinements(x, budget) == oracles.ball_refinements(balls, x, budget), (x, budget)


@pytest.mark.parametrize("max_denom, max_radius", [(1, Fraction(3, 2)), (8, Fraction(1, 16)), (4, Fraction(7, 3))])
def test_off_grid_max_radius_is_refused(two_points, max_denom, max_radius):
    # roots are balls of radius max_radius, which decode would refuse off the grid
    with pytest.raises(BadBallGrid, match="off the grid"):
        formal_ball_poset(two_points, max_denom=max_denom, max_radius=max_radius)
    balls = formal_ball_poset(two_points, max_denom=2, max_radius=Fraction(3, 2))  # on the grid k/2
    assert [balls.decode(root) for root in balls.roots()] == [("p0", Fraction(3, 2)), ("p1", Fraction(3, 2))]


def test_ball_incompatibility(two_points):
    balls = formal_ball_poset(two_points, max_denom=8, max_radius=2)
    assert balls.incompatible("B(p0,1/4)", "B(p1,1/4)") is True
    assert balls.incompatible("B(p0,2)", "B(p1,2)") is False


# --- precompact-open poset -----------------------------------------------------


@pytest.mark.parametrize("basis", [[0b11, 0b100], [0b01, 0b10, 0b11, 0b1000]])
def test_space_refuses_a_basis_member_outside_it(basis):
    # files build basis masks from declared points only, so only a library caller reaches this
    with pytest.raises(TopologyInvalid) as err:
        FiniteTopSpace(["x", "y"], basis)
    assert str(err.value) == "basis member outside the space"
    with pytest.raises(TopologyInvalid) as err:
        FiniteTopSpace(["x", "y"], [0b11, -1])  # refused before sorting reads the bits of each member
    assert str(err.value) == "basis member outside the space"


@pytest.mark.parametrize("make, error", [
    (lambda: FiniteTopSpace(["x", "y", "x"], [0b111]), TopologyInvalid),
    (lambda: RationalMetric(["a", "b", "a"], {("a", "b"): 1}), MetricAxiomViolation),
])
def test_space_and_metric_refuse_a_duplicate_point(make, error):
    # files refuse a repeated point line first, so only a library caller reaches these
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == "duplicate point"


def test_space_repr_counts_points_and_opens():
    assert repr(FiniteTopSpace.sierpinski()) == "FiniteTopSpace('sierpinski', 2 points, 3 opens)"
    assert repr(FiniteTopSpace.discrete(["x", "y"])) == "FiniteTopSpace('discrete', 2 points, 4 opens)"


def test_precompact_discrete_two_point():
    r = precompact_open_poset(FiniteTopSpace.discrete(["x", "y"]))
    assert len(r.poset) == 3
    assert len(r.space.points) == 2
    assert r.hausdorff and r.bijective and r.opens_correspond


def test_precompact_discrete_one_point():
    r = precompact_open_poset(FiniteTopSpace.discrete(["x"]))
    assert len(r.poset) == 1
    assert len(r.space.points) == 1
    assert r.bijective


def test_precompact_sierpinski_flags_failure():
    r = precompact_open_poset(FiniteTopSpace.sierpinski())
    assert not r.hausdorff
    assert not r.bijective


def test_precompact_order_valid_on_small_topologies():
    for n in range(1, 4):
        for space in all_topologies(n):
            r = precompact_open_poset(space)
            p = r.poset
            for a in p.elements:
                assert p.leq(a, a)
                for b in p.elements:
                    if p.leq(a, b) and p.leq(b, a):
                        assert a == b
                    for c in p.elements:
                        if p.leq(a, b) and p.leq(b, c):
                            assert p.leq(a, c)
            if r.hausdorff:
                assert r.bijective and r.opens_correspond
