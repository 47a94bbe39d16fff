"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
exact: the checks are set equalities and boolean properties at desk
scale, so any discrepancy fails the suite.
"""

import random

from oracles import domain_mismatches, gdelta_uf_claims

from posetspace.catalog import (
    all_topologies,
    labeled_posets,
    posets_up_to,
    random_dense_sets,
    random_poset,
)
from posetspace.choquet_mf import condition_lt, mf_characterization_check, refine_conditions, refinement_sample
from posetspace.constructions import (
    FiniteTopSpace,
    gdelta_mf_poset,
    gdelta_uf_poset,
    product_poset,
)
from posetspace.domain_theory import (
    filter_completion,
    scott_max_homeomorphism_check,
    way_below,
)
from posetspace.filters import classify_filter, enumerate_filters
from posetspace.games import (
    baire_generic_filter,
    canonical_choquet_strategy,
    choquet_referee,
    element_set_selector,
    landing_filter,
    scripted_random_choquet_i,
    splitting_strategy,
    star_game_referee,
    star_game_solve,
)
from posetspace.poset_core import BinaryTreePoset, FinitePoset, _bits, validate_poset
from posetspace.semi_topogenous import (
    check_axioms_and_generation,
    interval_order,
    mf_poset_from_order,
    order_from_poset,
)
from posetspace.topology import PosetSpace, separation_check


def _passed(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


def test_criterion_1_separation_suite():
    checked = 0
    for p in posets_up_to(5):
        mf = separation_check(PosetSpace(p, "mf"))
        assert mf.t1, p.pairs()
        uf = separation_check(PosetSpace(p, "uf"))
        assert uf.t0, p.pairs()
        if uf.t1:
            assert uf.uf_equals_mf, p.pairs()
        checked += 1
    _passed(1, f"MF T1, UF T0, and UF-T1 implies UF=MF on all {checked} posets with <=5 elements")


def _oracle_filter_masks(p: FinitePoset):
    """Classify every subset mask of the carrier from the raw definitions."""
    n = len(p)
    up = [p.up_mask(i) for i in range(n)]
    down = [p.down_mask(i) for i in range(n)]
    filters, unbounded, maximal = set(), set(), set()
    for m in range(1, 1 << n):
        members = list(_bits(m))
        u = 0
        for i in members:
            u |= up[i]
        if u != m:
            continue
        if not all(
            down[i] & down[j] & m for i in members for j in members
        ):
            continue
        filters.add(m)
    for m in filters:
        members = list(_bits(m))
        if not any(
            all(up[r] >> q & 1 and r != q for q in members)
            for r in range(n)
            if not m >> r & 1
        ):
            unbounded.add(m)
        if not any(m != g and m & g == m for g in filters):
            maximal.add(m)
    return filters, unbounded, maximal


def test_criterion_2_filter_enumeration_oracle():
    posets = posets_up_to(5)
    for p in posets:
        filters, unbounded, maximal = _oracle_filter_masks(p)
        assert {f.mask() for f in enumerate_filters(p, "all")} == filters
        assert {f.mask() for f in enumerate_filters(p, "unbounded")} == unbounded
        assert {f.mask() for f in enumerate_filters(p, "maximal")} == maximal
        for m in filters:
            cls = classify_filter(p, p.names_of(m))
            assert cls.is_filter
            assert cls.is_unbounded == (m in unbounded)
            assert cls.is_maximal == (m in maximal)
    _passed(2, f"enumerate_filters matches the subset brute force on all {len(posets)} posets <=5")


def test_criterion_3_products():
    posets = posets_up_to(4)
    pairs = 0
    for i, p1 in enumerate(posets):
        mf1 = len(PosetSpace(p1, "mf").points)
        for p2 in posets[i:]:
            r = product_poset([p1, p2])
            assert r.ok, (p1.pairs(), p2.pairs(), r.failure)
            mf2 = len(PosetSpace(p2, "mf").points)
            assert len(r.space.points) == mf1 * mf2
            pairs += 1
    rng = random.Random(2024)
    for _ in range(500):
        p1 = random_poset(rng, rng.randint(1, 6))
        p2 = random_poset(rng, rng.randint(1, 6))
        r = product_poset([p1, p2])
        assert r.ok, (p1.pairs(), p2.pairs(), r.failure)
        assert len(r.space.points) == (
            len(PosetSpace(p1, "mf").points) * len(PosetSpace(p2, "mf").points)
        )
        pairs += 1
    _passed(3, f"MF counts multiply and the point maps verify on {pairs} factor pairs")


def test_criterion_4_gdelta_suites():
    rng = random.Random(11)
    for _ in range(500):
        p = random_poset(rng, rng.randint(1, 5))
        opens = [
            [e for e in p.elements if rng.random() < 0.6]
            for _ in range(rng.randint(0, 3))
        ]
        r = gdelta_mf_poset(p, opens)
        assert r.ok, (p.pairs(), opens, r.failure)
    rng = random.Random(12)
    for _ in range(500):
        p = random_poset(rng, rng.randint(1, 5))
        opens = []
        current = list(p.elements)
        for _ in range(rng.randint(0, 3)):
            current = [e for e in current if rng.random() < 0.8]
            opens.append(list(current))
        r = gdelta_uf_poset(p, opens)
        assert r.ok and all(r.claims.values()), (p.pairs(), opens, r.claims, r.failure)
        assert (r.claims, r.claim_details) == gdelta_uf_claims(p, r), (p.pairs(), opens)
    _passed(4, "stage and rank subposet bijections (with all four claims) on 500+500 random instances")


def _height_oracle_mask(p: FinitePoset) -> int:
    n = len(p)
    down = [p.down_mask(i) for i in range(n)]
    strict = [down[i] & ~(1 << i) for i in range(n)]
    order = sorted(range(n), key=lambda i: bin(strict[i]).count("1"))
    good = 0
    for i in order:
        cand = strict[i] & good
        idxs = list(_bits(cand))
        for a_pos, a in enumerate(idxs):
            for b in idxs[a_pos + 1:]:
                if down[a] & down[b] == 0:
                    good |= 1 << i
                    break
            if good >> i & 1:
                break
    return good


def test_criterion_5_star_game():
    count = 0
    for n in range(1, 7):
        for p in labeled_posets(n):
            sol = star_game_solve(p)
            assert sol.winner == "II" and sol.fixed_point == frozenset(), p.pairs()
            assert _height_oracle_mask(p) == 0, p.pairs()
            count += 1
    tree = BinaryTreePoset()
    strategy = splitting_strategy(tree)
    rng = random.Random(99)
    guides = [[rng.randint(0, 1) for _ in range(20)] for _ in range(100)]
    chains = []
    for f in guides:
        play = star_game_referee(tree, strategy, f, 20)
        assert len(play.chain.chain) == 20
        chains.append(play.chain.chain)
    for i in range(len(guides)):
        for j in range(i + 1, len(guides)):
            if guides[i] == guides[j]:
                continue
            k = next(t for t in range(20) if guides[i][t] != guides[j][t])
            assert tree.incompatible(chains[i][k], chains[j][k])
            for t in range(k):
                assert chains[i][t] == chains[j][t]
    _passed(5, f"player II wins on all {count} posets <=6 (oracle agrees); "
               "the splitting strategy survives 20 rounds for 100 guides and "
               "distinct guides split at the first differing bit")


def test_criterion_6_strong_choquet():
    games_played = 0
    for p in posets_up_to(5):
        space = PosetSpace(p, "mf")
        strategy_ii = canonical_choquet_strategy(space)
        for seed in range(100):
            t = choquet_referee(space, scripted_random_choquet_i(seed), strategy_ii, 10)
            assert t.illegal is None, (p.pairs(), seed)
            assert t.intersection, (p.pairs(), seed)
            games_played += 1
    _passed(6, f"canonical player II reaches a nonempty intersection in all {games_played} ten-round games")


def test_criterion_7_condition_poset():
    for n in (1, 2, 3):
        space = FiniteTopSpace.discrete([f"x{i}" for i in range(n)])
        report = mf_characterization_check(space, depth=2, seed=5)
        assert report.bijection, (n, report.failure)
        assert not report.depth_too_small, n
        assert report.refinements_ok, n
        assert report.refinements_checked > 0, n
        conditions = report.conditions  # 60 sampled refinements besides the check's own
        for i, j, x in refinement_sample(conditions, 60, random.Random(5)):
            c = refine_conditions(conditions[i], conditions[j], x)
            assert condition_lt(c, conditions[i]) and condition_lt(c, conditions[j]) and c.a >> x & 1, (n, i, j)
    _passed(7, "condition-poset point maps are bijections for discrete 1-3 point spaces at depth 2, "
               "with every sampled refinement below both inputs")


def test_criterion_8_filter_completions():
    posets = posets_up_to(5)
    for p in posets:
        completion = filter_completion(p)
        assert completion.compact_matches_principal, p.pairs()
        assert set(way_below(completion.dcpo)) == set(completion.dcpo.pairs()), p.pairs()
        assert scott_max_homeomorphism_check(p).ok, p.pairs()
        # directed completeness, way below, compact elements, classification
        # and the Scott check against the literal definitions
        assert domain_mismatches(p) == [], p.pairs()
    _passed(8, f"filter completions are dcpos with principal compacts and matching Scott "
               f"topologies on all {len(posets)} posets <=5")


def test_criterion_9_semi_topogenous():
    spaces = 0
    for n in range(1, 5):
        for space in all_topologies(n):
            order = interval_order(space)
            rep = check_axioms_and_generation(order)
            assert rep.axioms_ok and rep.generates, (n, space.name)
            spaces += 1
    for n in (2, 3, 4):
        space = FiniteTopSpace.discrete([f"x{i}" for i in range(n)])
        result = mf_poset_from_order(space, interval_order(space))
        assert result.bijective and result.membership_equivalence, n
        assert len(result.space.points) == n
    corpus = [
        validate_poset(["a", "b", "c"], [("a", "c"), ("b", "c")], "V"),
        validate_poset(["a", "b", "c"], [], "antichain3"),
        validate_poset(["a", "b", "c", "d"],
                       [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")], "M"),
        validate_poset(["a", "b"], [], "antichain2"),
    ]
    for p in corpus:
        result = order_from_poset(p)
        assert result.completeness.complete, p.name
        assert result.ok, p.name
    _passed(9, f"interval orders pass axioms+generation on all {spaces} topologies <=4 points; "
               "the nonempty-opens pipeline reproduces discrete spaces; the converse "
               "construction is complete on the whole corpus")


def test_criterion_10_baire():
    rng = random.Random(77)
    for _ in range(200):
        p = random_poset(rng, rng.randint(1, 5))
        dense = random_dense_sets(rng, p, rng.randint(1, 3))
        selectors = [element_set_selector(p, d) for d in dense]
        start = rng.choice(p.elements)
        play = baire_generic_filter(p, selectors, start, len(dense))
        filt = landing_filter(p, play)
        space = PosetSpace(p, "mf")
        idx = space.point_index(filt)
        for d in dense:
            assert space.open_mask(d) >> idx & 1, (p.pairs(), dense, start)
    tree = BinaryTreePoset()

    def extend_to(i):
        def sel(code):
            bits = tree.bits(code)
            return tree.encode(bits + "0" * max(1, i - len(bits)))

        return sel

    play = baire_generic_filter(tree, [extend_to(i) for i in range(1, 51)], "e", 50)
    lengths = [len(tree.bits(c)) for c in play.chain]
    assert len(play.chain) == 51
    assert all(b > a for a, b in zip(lengths, lengths[1:]))
    _passed(10, "generic filters land in every visited dense open on 200 random instances; "
                "the tree chain lengthens strictly for 50 rounds")
