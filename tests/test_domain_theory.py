import random

import oracles
from oracles import domain_mismatches, library_answers

from posetspace import domain_theory
from posetspace.catalog import posets_up_to
from posetspace.domain_theory import (
    dcpo_classify,
    filter_completion,
    ideal_completion,
    scott_max_homeomorphism_check,
    way_below,
)
from posetspace.filters import enumerate_filters
from posetspace.poset_core import FinitePoset
from posetspace.topology import PosetSpace


def maximal(poset):
    """The elements with nothing strictly above them, by a scan over every pair."""
    return tuple(a for a in poset.elements if not any(poset.lt(a, b) for b in poset.elements))


def test_chain2_completion(chain2):
    comp = filter_completion(chain2)
    d = comp.dcpo
    assert len(d) == 2
    assert d.leq("{y}", "{x,y}")  # ordered by inclusion
    assert set(dcpo_classify(d).compact_elements) == {"{x,y}", "{y}"}
    assert maximal(d) == ("{x,y}",)
    assert comp.compact_matches_principal


def test_antichain2_completion(antichain2):
    comp = filter_completion(antichain2)
    d = comp.dcpo
    assert len(d) == 2
    assert set(maximal(d)) == {"{a}", "{b}"}
    assert set(dcpo_classify(d).compact_elements) == {"{a}", "{b}"}
    assert not d.leq("{a}", "{b}")


def test_vee_completion(vee):
    comp = filter_completion(vee)
    d = comp.dcpo
    assert len(d) == 3
    assert d.leq("{c}", "{a,c}") and d.leq("{c}", "{b,c}")
    assert set(maximal(d)) == {"{a,c}", "{b,c}"}


def test_every_finite_poset_is_a_dcpo():
    # a finite directed set contains its maximum, which is its least upper
    # bound, so the subset scan must accept every finite carrier, and the
    # library's way-below and compact elements must match the definitions
    for p in posets_up_to(4, include_empty=True):
        sups = oracles.directed_sups(p)
        assert all(sup is not None for sup in sups.values()), p.pairs()
        rel = oracles.way_below(p, sups)
        assert list(p.up_masks) == rel, p.pairs()
        assert set(way_below(p)) == {
            (p.elements[q], p.elements[t]) for q in range(len(p)) for t in oracles.members(rel[q])
        }
        assert set(dcpo_classify(p).compact_elements) == set(p.names_of(oracles.classify(p, rel)[2]))


def test_filter_completion_is_dcpo_small_sweep():
    for p in posets_up_to(4):
        comp = filter_completion(p)
        assert comp.compact_matches_principal
        sups = oracles.directed_sups(comp.dcpo)
        assert all(sup is not None for sup in sups.values()), p.pairs()


def test_way_below_equals_order(vee):
    comp = filter_completion(vee)
    pairs = way_below(comp.dcpo)
    order = {(a, b) for a in comp.dcpo.elements for b in comp.dcpo.elements if comp.dcpo.leq(a, b)}
    assert set(pairs) == order


def test_way_below_small_sweep():
    for p in posets_up_to(3):
        d = filter_completion(p).dcpo
        rel = oracles.way_below(d, oracles.directed_sups(d))
        assert list(d.up_masks) == rel, p.pairs()
        assert set(way_below(d)) == set(d.pairs())


def test_bottomless_antichain_way_below(antichain2):
    d = filter_completion(antichain2).dcpo
    assert set(way_below(d)) == {("{a}", "{a}"), ("{b}", "{b}")}


def test_classification(vee, chain2):
    for p in (vee, chain2):
        d = filter_completion(p).dcpo
        cls = dcpo_classify(d)
        assert cls.is_continuous and cls.is_algebraic
        assert set(cls.compact_elements) == set(d.elements)
        assert set(cls.minimal_basis) == set(d.elements)


def test_classification_sweep():
    for p in posets_up_to(3):
        if not len(p):
            continue
        d = filter_completion(p).dcpo
        cls = dcpo_classify(d)
        assert cls.is_continuous and cls.is_algebraic
        continuous, algebraic, compact, basis = oracles.classify(
            d, oracles.way_below(d, oracles.directed_sups(d))
        )
        assert (cls.is_continuous, cls.is_algebraic) == (continuous, algebraic)
        assert set(cls.compact_elements) == set(d.names_of(compact))
        assert set(cls.minimal_basis) == set(d.names_of(basis))


def test_scott_check_examples(vee, chain2):
    assert scott_max_homeomorphism_check(vee).ok
    rep = scott_max_homeomorphism_check(chain2)
    assert rep.ok
    assert dict(rep.table)["x"] is not None


def test_scott_check_sweep():
    for p in posets_up_to(4):
        assert scott_max_homeomorphism_check(p).ok, p.pairs()
        assert domain_mismatches(p) == [], p.pairs()


def _completion_fields(c) -> tuple:
    # dict fields as item lists, so their order counts too
    d = c["dcpo"]
    return ((d.elements, d.up_masks, d.down_masks, d.name), list(c["maximal_table"].items()),
            list(c["compact_table"].items()), c["compact_matches_principal"])


def _small_and_random_posets():
    rng = random.Random(24)
    yield from posets_up_to(5, include_empty=True)
    for n in range(6, 13):
        for edge_prob in (0.1, 0.25, 0.4, 0.6):
            for _ in range(3):
                yield oracles.random_poset_at(rng, n, edge_prob)


def test_completion_and_scott_check_match_the_first_written_references():
    # the library reads the Scott opens off the order dual; the references build the
    # completion with a Filter per element and sort the ids once per element
    count = 0
    for p in _small_and_random_posets():
        want = oracles.filter_completion_reference(p)
        assert set(want) - {"filter_of"} == set(filter_completion(p)._fields)
        assert _completion_fields(filter_completion(p)._asdict()) == _completion_fields(want), p.pairs()
        assert (_completion_fields(ideal_completion(p)._asdict())
                == _completion_fields(oracles.filter_completion_reference(p.dual()))), p.pairs()
        assert scott_max_homeomorphism_check(p) == oracles.scott_check_reference(p), p.pairs()
        count += 1
    assert count == 4474 + 7 * 4 * 3


def test_filters_of_a_name_with_a_comma_get_distinct_ids():
    # a <= b plus an incomparable element named "a,b": the principal filters of a
    # and of "a,b" both joined their member names into the id "{a,b}"
    p = FinitePoset(("a", "b", "a,b"), (0b011, 0b010, 0b100), "comma")
    comp = filter_completion(p)
    assert comp.dcpo.elements == ("{a,b}", "{b}", "{'a,b'}")
    assert _completion_fields(comp._asdict()) == _completion_fields(oracles.filter_completion_reference(p))
    report = scott_max_homeomorphism_check(p)
    assert report == oracles.scott_check_reference(p)
    assert report.table == (("a", "{a,b}"), ("b", "{a,b}"), ("a,b", "{'a,b'}"))
    # names that hold quotes: the filter {'a, b'} of 'a <= b' and the filter {'a,b'}
    q = FinitePoset(("'a", "b'", "'a,b'"), (0b011, 0b010, 0b100), "quotes")
    assert filter_completion(q).dcpo.elements == ('{"\'a","b\'"}', '{"b\'"}', '{"\'a,b\'"}')


def test_scott_check_fails_when_the_mf_family_changes(monkeypatch, vee):
    # drop point b from the basic open of c: both families still generate the discrete
    # topology on the two maximal filters, but they differ as sets, and the check must see it
    class DropBFromC(PosetSpace):
        def __init__(self, poset, mode):
            super().__init__(poset, mode)
            c, b = poset.index("c"), self.generators.index(poset.index("b"))
            self.opens = self.opens[:c] + (self.opens[c] & ~(1 << b),) + self.opens[c + 1:]

    assert scott_max_homeomorphism_check(vee).ok
    monkeypatch.setattr(domain_theory, "PosetSpace", DropBFromC)
    report = scott_max_homeomorphism_check(vee)
    assert report.mf_family == {0b001, 0b010} and report.scott_family == {0b001, 0b010, 0b011}
    assert report[:3] == (False, (), "the Scott and MF families on the maximal elements differ")


def test_oracle_comparison_catches_every_single_perturbation():
    # a comparison that checks nothing would pass these mutants; each must be caught
    caught = 0
    for p in posets_up_to(3, include_empty=True):
        answers = library_answers(p)
        assert domain_mismatches(p, answers) == [], p.pairs()
        mutants = []
        for key in ("way_below", "compact", "classify.compact", "minimal_basis",
                    "scott_family", "mf_family"):
            mutants += [(key, {**answers, key: answers[key] - {m}}) for m in answers[key]]
        for key in ("dcpo", "continuous", "algebraic", "scott_ok"):
            mutants.append((key, {**answers, key: not answers[key]}))
        for key, mutant in mutants:
            assert key in domain_mismatches(p, mutant), (p.pairs(), key)
            caught += 1
    assert caught > 100


def test_ideal_completion_is_dual(chain2, vee):
    for p in (chain2, vee):
        ideals = ideal_completion(p)
        dual_filters = filter_completion(p.dual())
        assert ideals.dcpo.elements == dual_filters.dcpo.elements
        assert ideals.dcpo.pairs() == dual_filters.dcpo.pairs()


def test_ideal_completion_chain2(chain2):
    assert len(ideal_completion(chain2).dcpo) == 2


def test_double_dual_round_trip(vee):
    assert vee.dual().dual() == vee
    a = filter_completion(vee).dcpo
    b = filter_completion(vee.dual().dual()).dcpo
    assert a.elements == b.elements and a.pairs() == b.pairs()


def test_maximal_table(vee):
    comp = filter_completion(vee)
    mf = enumerate_filters(vee, "maximal")
    assert set(comp.maximal_table) == {str(f) for f in mf}
    assert set(comp.maximal_table.values()) == set(maximal(comp.dcpo))
