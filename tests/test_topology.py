import collections
import random
import tracemalloc

import pytest

import oracles
from posetspace.catalog import posets_up_to
from posetspace.constructions import (
    FiniteTopSpace,
    gdelta_mf_poset,
    open_subspace_uf,
    precompact_open_poset,
    product_poset,
)
from posetspace.filters import Filter
from posetspace.topology import (
    NotABasis,
    NotAPoint,
    PosetSpace,
    reduce_countable_subposet,
    restriction_homeomorphism_check,
    separation_check,
    verify_correspondence,
)
from posetspace.poset_core import PosetError, UnknownChoice, UnknownElement, validate_poset


def test_basic_open_examples(vee, chain2):
    mf = PosetSpace(vee, "mf")
    assert mf.basic_open("c") == 0b11
    assert mf.basic_open("a") == 0b01
    one = PosetSpace(chain2, "mf")
    assert one.basic_open("y") == 0b1
    with pytest.raises(UnknownElement):
        mf.basic_open("zz")


def test_basic_open_monotone():
    for p in posets_up_to(4):
        sp = PosetSpace(p, "mf")
        for a in p.elements:
            for b in p.elements:
                if p.leq(a, b):
                    assert not sp.basic_open(a) & ~sp.basic_open(b)


def test_point_names_are_the_point_strings():
    for p in posets_up_to(4, include_empty=True):
        for mode in ("mf", "uf"):
            sp = PosetSpace(p, mode)
            assert len(sp.point_names) == len(sp)
            assert all(sp.point_names[f.generator] == str(f) for f in sp.points)
            assert sp.set_str(sp.whole_mask) == "{" + ", ".join(map(str, sp.points)) + "}"


def test_bad_mode_is_a_typed_value_error(vee):
    with pytest.raises(UnknownChoice) as err:
        PosetSpace(vee, "xf")
    assert isinstance(err.value, PosetError) and isinstance(err.value, ValueError)
    assert str(err.value) == "mode must be 'mf' or 'uf', got 'xf'"


def test_separation_chain2_uf(chain2):
    rep = separation_check(PosetSpace(chain2, "uf"))
    assert rep.t0 and rep.t1 and rep.uf_equals_mf


def test_one_point_space():
    p = validate_poset(["a"], [])
    rep = separation_check(PosetSpace(p, "mf"))
    assert rep.t0 and rep.t1


def test_separation_sweep_small():
    # acceptance covers <= 5; keep the module test at <= 4 for speed
    for p in posets_up_to(4):
        mf = separation_check(PosetSpace(p, "mf"))
        assert mf.t1 and mf.t0
        uf = separation_check(PosetSpace(p, "uf"))
        assert uf.t0
        if uf.t1:
            assert uf.uf_equals_mf


def test_separation_matches_oracle():
    for p in posets_up_to(5, include_empty=True):
        for mode in ("mf", "uf"):
            sp = PosetSpace(p, mode)
            rep = separation_check(sp)
            assert (rep.t0, rep.t1, rep.uf_equals_mf) == oracles.separation(sp), (p.pairs(), mode)


def test_is_open(vee):
    sp = PosetSpace(vee, "mf")
    assert sp.is_open(0)
    assert sp.is_open(sp.whole_mask)
    assert sp.is_open(sp.basic_open("a"))
    for outside in (0b1 | 1 << 99, -1, 0b111, "a", frozenset({0}), 1.0):  # not point masks
        assert not sp.is_open(outside)


def test_is_open_and_basic_opens_match_oracle():
    # every mask from -1 to one past the last, against the literal opens and a finite space on the same opens
    for p in posets_up_to(4, include_empty=True):
        for mode in ("mf", "uf"):
            sp = PosetSpace(p, mode)
            for e in p.elements:
                assert oracles.point_set(sp.basic_open(e)) == oracles.basic_open(sp, e)
            # a finite space on the points, F{i} for the i-th, and a point mask as a mask over them
            dense = {f.generator: 1 << i for i, f in enumerate(sp.points)}

            def compact(mask):
                return sum(dense[g] for g in oracles.members(mask))

            top = FiniteTopSpace([f"F{i}" for i in range(len(sp.points))], [compact(o) for o in sp.opens])
            for s in range(-1, 2 ** len(p) + 1):
                in_points = 0 <= s and not s & ~sp.whole_mask
                assert sp.is_open(s) == (in_points and top.is_open(compact(s))), (p.name, mode, s)
                assert sp.is_open(s) == (0 <= s < 2 ** len(p) and oracles.is_open(sp, oracles.point_set(s)))
            assert not sp.is_open(frozenset())
            assert not sp.is_open(oracles.all_points(sp))


def test_point_index_refuses_a_filter_that_is_no_point(vee, chain2):
    space = PosetSpace(vee, "mf")
    assert [space.point_index(Filter(vee, g)) for g in (0, 1)] == [0, 1]
    # up(c) is a filter of V, but c is not minimal, so it is no maximal filter
    with pytest.raises(KeyError) as err:
        space.point_index(Filter(vee, vee.index("c")))
    assert err.value.args[0] == f"{{c}} is not a point of {space!r}"
    # up(x) on another poset: its generator index 0 is a point index of V, its poset is not V
    with pytest.raises(KeyError) as err:
        space.point_index(Filter(chain2, 0))
    assert err.value.args[0] == f"{{x, y}} is not a point of {space!r}"


def test_point_index_refuses_a_generator_past_the_poset(vee):
    # str(Filter(vee, 99)) fails on the missing element, so the message names the index
    space = PosetSpace(vee, "mf")
    with pytest.raises(NotAPoint) as err:
        space.point_index(Filter(vee, 99))
    assert isinstance(err.value, PosetError) and isinstance(err.value, KeyError)
    assert str(err.value) == f"up(element index 99) is not a point of {space!r}"


def test_reduce_vee(vee):
    result = reduce_countable_subposet(vee, ["a", "b"])
    assert set(result.subposet.elements) >= {"a", "b"}
    assert len(PosetSpace(result.subposet, "mf").points) == 2
    assert result.check.ok and restriction_homeomorphism_check(vee, result.subposet)[0].ok


def test_reduce_identity_seed(vee):
    result = reduce_countable_subposet(vee, vee.elements)
    assert result.subposet.elements == vee.elements
    check, mapping = restriction_homeomorphism_check(vee, result.subposet)
    assert check.ok and (check, mapping) == (result.check, result.mapping)


def test_reduce_chain2_seed_x(chain2):
    result = reduce_countable_subposet(chain2, ["x"])
    assert result.subposet.elements == ("x",)
    assert result.check.ok and restriction_homeomorphism_check(chain2, result.subposet)[0].ok


def test_reduce_rejects_non_basis(vee):
    with pytest.raises(NotABasis):
        reduce_countable_subposet(vee, ["c"])


def test_reduce_output_always_homeomorphic():
    # every valid seed basis on every small poset
    for p in posets_up_to(3):
        sp = PosetSpace(p, "mf")
        for r in range(1, 2 ** len(p)):
            seed = [e for i, e in enumerate(p.elements) if r >> i & 1]
            try:
                result = reduce_countable_subposet(p, seed)
            except NotABasis:
                continue
            assert result.check.ok, (p.name, seed)
            assert restriction_homeomorphism_check(p, result.subposet) == (result.check, result.mapping)


def test_reduce_check_is_the_restriction_check_on_every_poset_up_to_4():
    # the reduce checks its restriction on the MF space it built; the public,
    # name-based check builds both spaces anew and must agree on every valid seed
    reduced = 0
    for p in posets_up_to(4):
        for r in range(1, 2 ** len(p)):
            try:
                result = reduce_countable_subposet(p, p.names_of(r))
            except NotABasis:
                continue
            assert (result.check, result.mapping) == restriction_homeomorphism_check(p, result.subposet), p.pairs()
            reduced += 1
    assert reduced == 2025


def test_reduce_mapping_restricts_each_filter():
    for p in posets_up_to(3):
        for r in range(1, 2 ** len(p)):
            seed = [e for i, e in enumerate(p.elements) if r >> i & 1]
            try:
                result = reduce_countable_subposet(p, seed)
            except NotABasis:
                continue
            space, sub_space = PosetSpace(p, "mf"), PosetSpace(result.subposet, "mf")
            assert list(result.mapping) == [f.generator for f in space.points]
            for i, j in result.mapping.items():
                restricted = oracles.point(space, i).members & set(result.subposet.elements)
                assert oracles.point(sub_space, j).members == restricted, (p.name, seed)


def _reduce_outcome(reduce, poset, seed):
    """Every field of the result, the subposet by name, elements and order; or the refusal's."""
    try:
        r = reduce(poset, seed)
    except NotABasis as exc:
        return "refused", exc.element, exc.point, str(exc)
    return r.subposet.name, r.subposet.elements, r.subposet.up_masks, r.stages, r.check, r.mapping


def test_reduce_matches_the_subset_walk_reference():
    # every poset up to 4 with every seed, every poset up to 5 with its full seed, and
    # 500 random posets up to 8 with their full seed and one random seed
    cases = [(p, p.names_of(r)) for p in posets_up_to(4) for r in range(2 ** len(p))]
    cases += [(p, p.elements) for p in posets_up_to(5)]
    rng = random.Random(34)
    for _ in range(500):
        p = oracles.random_poset_at(rng, rng.randint(1, 8), rng.random())
        cases += [(p, p.elements), (p, p.names_of(rng.getrandbits(len(p))))]
    refused = 0
    for p, seed in cases:
        got = _reduce_outcome(reduce_countable_subposet, p, seed)
        assert got == _reduce_outcome(oracles.reduce_reference, p, seed), (p.pairs(), seed)
        refused += got[0] == "refused"
    assert 0 < refused < len(cases)


def test_reduce_matches_the_lower_bound_mask_reference():
    # 1,000 random posets up to 12 with their full seed and one random seed, and every crown
    # up to 12 over 12 with its full seed, a random seed and its bottoms with random tops.
    # The posets' elements are shuffled, so that a refused seed's first element may lie above
    # a missed minimal one, and the refusal must name the first point of several
    rng = random.Random(35)
    cases = []
    for _ in range(1000):
        drawn = oracles.random_poset_at(rng, rng.randint(1, 12), rng.random())
        p = validate_poset(rng.sample(drawn.elements, len(drawn)), drawn.pairs(), drawn.name)
        cases += [(p, p.elements), (p, p.names_of(rng.getrandbits(len(p))))]
    for m in range(1, 13):
        c = oracles.crown(m)
        cases += [(c, c.elements), (c, c.names_of(rng.getrandbits(2 * m))),
                  (c, c.names_of((1 << m) - 1 | rng.getrandbits(m) << m))]
    refused = 0
    for p, seed in cases:
        got = _reduce_outcome(reduce_countable_subposet, p, seed)
        assert got == _reduce_outcome(oracles.reduce_lower_bound_reference, p, seed), (p.pairs(), seed)
        refused += got[0] == "refused"
    assert 0 < refused < len(cases)


def test_reduce_of_a_ring_of_20_peaks_under_1_mib():
    # 10 bottoms under 10 tops, top i above bottoms i, i + 1 and i + 2 (mod 10), seeded with
    # every element: a walk over the subsets of the seed holds 2^20 pairs (about 72 MiB).
    # A crown of 16 over 16 has 2^16 common-lower-bound masks: a table of them peaks near 9 MiB
    k = 10
    bottoms, tops = [f"b{i}" for i in range(k)], [f"t{i}" for i in range(k)]
    ring = validate_poset(bottoms + tops, [(bottoms[(i + j) % k], tops[i]) for i in range(k) for j in range(3)], "ring")
    for poset in (ring, oracles.crown(16)):
        tracemalloc.start()
        try:
            result = reduce_countable_subposet(poset, poset.elements)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.subposet == poset and result.stages == 1 and result.check.ok, poset.name
        assert peak < 2 ** 20, (poset.name, peak)


def test_restriction_check_counterexample(vee):
    check, _ = restriction_homeomorphism_check(vee, vee.restrict(vee.mask_of(["c"])))
    assert not check.ok


def test_restriction_check_matches_name_set_oracle():
    # every poset on 1-4 elements, restricted to every element subset
    outcomes = collections.Counter()
    for p in posets_up_to(4):
        for r in range(2 ** len(p)):
            names = [e for i, e in enumerate(p.elements) if r >> i & 1]
            check, _ = restriction_homeomorphism_check(p, p.restrict(r))
            got = (check.ok, check.failure, check.witness)
            assert got == oracles.restriction_homeomorphism(p, names), (p.pairs(), names)
            outcomes[got[1]] += 1
    assert outcomes == {"": 1862, "point map is not total": 1689, "point map is not injective": 119}


def test_restriction_identity(vee):
    assert restriction_homeomorphism_check(vee, vee.restrict(vee.mask_of(vee.elements)))[0].ok


# --- the shared correspondence verifier ------------------------------------------


def _mask(points):
    return sum(1 << i for i in points)


def _construction_maps(vee, chain2, antichain2):
    """(source points, destination points, map, open pairs, inverse) per construction.

    The open pairs are rebuilt here from the literal definitions, as masks,
    so the verifier is fed the same object each construction claims to
    verify.  A product's source point for a tuple of factor points is the
    product element the tuple's generators make, which ``phi`` gives.
    """
    for factors in ([vee, antichain2], [chain2, vee], [vee, vee]):
        r = product_poset(factors)
        opens = [
            (name, _mask(a for combo, a in r.phi.items()
                         if all(x == r.adjoined_tops[k] or x in oracles.point(r.factor_spaces[k], combo[k])
                                for k, x in enumerate(xs))),
             r.space.basic_open(name))
            for name, xs in r.coords.items()
        ]
        inverse = {i: r.phi.get(combo) for i, combo in r.phi_inv.items()}
        src = list(r.phi.values())  # a tuple's source point is the product point phi sends it to
        yield src, r.space.whole_mask, {a: a for a in src}, opens, inverse
    for opens in ([["a", "c"]], [["a"]]):
        r = gdelta_mf_poset(vee, opens)
        pairs = [(sid, r.space.basic_open(sid.split(":", 1)[1]), r.stage_space.basic_open(sid))
                 for sid in r.poset.elements]
        yield oracles.members(r.intersection), r.stage_space.whole_mask, r.phi, pairs, r.psi
    uf = PosetSpace(vee, "uf")
    for u in (uf.whole_mask, uf.basic_open("a")):
        r = open_subspace_uf(vee, u)
        pairs = [(e, r.space.basic_open(e), r.sub_space.basic_open(e)) for e in r.subposet.elements]
        yield sorted(r.mapping), r.sub_space.whole_mask, r.mapping, pairs, None
    for points in (["x", "y"], ["x", "y", "z"]):
        x = FiniteTopSpace.discrete(points)
        r = precompact_open_poset(x)
        pairs = [(i, r.space.basic_open(i), o) for i, o in r.open_of.items()]
        yield sorted(oracles.all_points(r.space)), x.whole_mask, r.point_of, pairs, None


def test_verifier_rejects_every_single_mutation(vee, chain2, antichain2):
    cases = list(_construction_maps(vee, chain2, antichain2))
    assert len(cases) == 9
    for src, dst, point_map, pairs, inverse in cases:
        assert verify_correspondence(src, dst, point_map, pairs, inverse).ok
        assert any(s for _, s, _ in pairs)
        for x in src:
            # every other image: none, a negative one, every bit up to one past the last point,
            # so also each bit between the points that is no point
            for y in [None, -1, *range(dst.bit_length() + 1)]:
                if y == point_map[x]:
                    continue
                bad = {**point_map, x: y}
                assert not verify_correspondence(src, dst, bad, pairs, inverse).ok, (x, y)
            if inverse is not None:
                bad_inv = {**inverse, point_map[x]: None}
                assert not verify_correspondence(src, dst, point_map, pairs, bad_inv).ok
            for k, (label, src_open, dst_open) in enumerate(pairs):
                for mutated in ((label, src_open ^ 1 << x, dst_open),
                                (label, src_open, dst_open ^ 1 << point_map[x])):
                    bad_pairs = pairs[:k] + [mutated] + pairs[k + 1:]
                    assert not verify_correspondence(src, dst, point_map, bad_pairs, inverse).ok


def test_verifier_failure_order_and_witness():
    pairs = [("u", 0b01, 0b10)]  # source point 0 and destination point 1
    assert verify_correspondence([0, 1], 0b11, {0: 1}, pairs).failure == "point map is not total"
    for image in (-1, 2, 4):  # negative, a bit between points that is no point, and past the points
        r = verify_correspondence([0, 1], 0b1011, {0: 1, 1: image}, pairs)
        assert (r.failure, r.witness, r.bijective) == ("point map is not total", 1, False), image
    r = verify_correspondence([0, 1], 0b11, {0: 1, 1: 1}, pairs)
    assert (r.failure, r.witness) == ("point map is not injective", 1)
    r = verify_correspondence([0], 0b11, {0: 1}, pairs)
    assert (r.failure, r.witness, r.bijective) == ("point map is not surjective", 0, False)
    r = verify_correspondence([0], 0b1010, {0: 1}, pairs)
    assert (r.failure, r.witness) == ("point map is not surjective", 3)  # a missed point is named by its bit
    r = verify_correspondence([0, 1], 0b11, {0: 1, 1: 0}, pairs, inverse={0: 0, 1: 1})
    assert (r.failure, r.bijective) == ("point map and its inverse disagree", True)
    r = verify_correspondence([0, 1], 0b11, {0: 1, 1: 0}, [("u", 0b01, 0b01)])
    assert (r.failure, r.witness, r.bijective) == ("basic open of u does not correspond", 0, True)
    assert verify_correspondence([], 0, {}, [("u", 0, 0)]).ok


def test_verifier_reads_only_the_bits_of_mapped_points():
    # bits of a source open outside the source points, and of a destination
    # open outside the destination points, take no part in the open check
    for point_map in ({0: 0, 1: 1}, {0: 1, 1: 0}):
        image = 1 << point_map[0]  # of the source open {0}, plus a stray source bit 2
        assert verify_correspondence([0, 1], 0b11, point_map, [("u", 0b101, image | 0b1100)]).ok
    # the witness is the first failing source point in the given order
    r = verify_correspondence([1, 0], 0b11, {0: 1, 1: 0}, [("u", 0b11, 0)])
    assert (r.failure, r.witness) == ("basic open of u does not correspond", 1)
