import ast
import contextlib
import glob
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import oracles
import posetspace
from posetspace import choquet_mf, cli
from posetspace.choquet_mf import mf_characterization_check
from posetspace.constructions import FiniteTopSpace, RationalMetric
from posetspace.files import (
    ParseError,
    parse_input_text,
    parse_metric_text,
    parse_poset_text,
    parse_space_text,
    poset_to_text,
)
from posetspace.filters import Filter, NotAFilter
from posetspace.games import IllegalMove
from posetspace.poset_core import FinitePoset
from posetspace.semi_topogenous import AxiomReport
from posetspace.topology import NotABasis, reduce_countable_subposet, verify_restriction


CHAIN2 = "poset chain2\nelem x\nelem y\nle x y\n"
VEE = "poset V\nelem a\nelem b\nelem c\nle a c\nle b c\n"
METRIC = "metric two\npoint p0\npoint p1\ndist p0 p1 1/1\n"
SPACE = "space d2\npoint x\npoint y\nopen U1 x\nopen U2 y\nopen W x y\n"


def run_cli(argv):
    buf = io.StringIO()
    code = cli.run(argv, stdout=buf)
    return code, buf.getvalue()


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("v.poset", VEE),
        ("chain2.poset", CHAIN2),
        ("two.metric", METRIC),
        ("d2.space", SPACE),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


# --- parsing ---------------------------------------------------------------------


def test_parse_poset():
    p = parse_poset_text(CHAIN2)
    assert isinstance(p, FinitePoset)
    assert p.name == "chain2" and len(p) == 2
    assert p.leq("x", "y")


def test_parse_poset_comments_and_blanks():
    p = parse_poset_text("# a comment\n\nposet t\nelem a  # trailing\n")
    assert p.elements == ("a",)


def test_parse_poset_undeclared_element():
    with pytest.raises(ParseError) as err:
        parse_poset_text("poset t\nelem x\nle x z\n")
    assert err.value.line_no == 3


def test_parse_poset_duplicate_element_line():
    with pytest.raises(ParseError, match=r"^line 4: duplicate element 'a'$"):
        parse_poset_text("poset t\nelem a\nelem b\nelem a\nle a b\n")


def test_parse_poset_antisymmetry_line():
    with pytest.raises(ParseError) as err:
        parse_poset_text("poset t\nelem a\nelem b\nle a b\nle b a\n")
    assert err.value.line_no == 5


def test_parse_strict_poset():
    p = parse_poset_text("poset t\nelem a\nelem b\nlt a b\n")
    assert p.leq("a", "b") and p.leq("a", "a")
    with pytest.raises(ParseError):
        parse_poset_text("poset t\nelem a\nelem b\nle a b\nlt b a\n")
    with pytest.raises(ParseError) as err:
        parse_poset_text("poset t\nelem a\nlt a a\n")
    assert err.value.line_no == 3


def test_poset_text_round_trip():
    p = parse_poset_text(VEE)
    assert parse_poset_text(poset_to_text(p)) == p


def test_parse_metric():
    m = parse_metric_text(METRIC)
    assert isinstance(m, RationalMetric)
    assert m.d("p0", "p1") == 1


def test_parse_metric_asymmetric_rejected():
    text = METRIC + "dist p1 p0 2/1\n"
    with pytest.raises(ParseError):
        parse_metric_text(text)


def test_parse_space():
    s = parse_space_text(SPACE)
    assert isinstance(s, FiniteTopSpace)
    assert len(s.opens) == 4


def test_parse_space_repeated_open_is_one_basis_member():
    # the basis is a set: naming {x} twice gives the conditions of d2 once
    s = parse_space_text(SPACE + "open V x x\n")
    assert s.basis == (0b01, 0b10, 0b11)
    assert mf_characterization_check(s, 2).condition_count == 19


def test_parse_space_bad_point():
    with pytest.raises(ParseError) as err:
        parse_space_text("space s\npoint x\nopen U y\n")
    assert err.value.line_no == 3


def test_parse_space_duplicate_point():
    with pytest.raises(ParseError) as err:
        parse_space_text("space s\npoint x\npoint x\nopen U x\n")
    assert err.value.line_no == 3
    assert err.value.reason == "duplicate point 'x'"


@pytest.mark.parametrize("verb", ["space", "topo-order"])
def test_duplicate_point_exits_2(tmp_path, verb):
    path = tmp_path / "dup.space"
    path.write_text("space s\npoint x\npoint x\nopen U x\n")
    code, out = run_cli([verb, str(path)])
    assert code == 2
    assert out == "parse error: line 3: duplicate point 'x'\n"


def test_topo_order_refuses_a_space_over_the_cap_exits_2(tmp_path):
    path = tmp_path / "d5.space"
    path.write_text("space d5\n" + "".join(f"point x{i}\nopen U{i} x{i}\n" for i in range(5)))
    code, out = run_cli(["topo-order", str(path)])
    assert code == 2
    assert out == "error: spaces over 4 points are too large: the checks walk every subset\n"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so the library never checks with them
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "posetspace", "*.py")
    paths = sorted(glob.glob(src))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, (path, found)


def test_dispatch(tmp_path):
    assert isinstance(parse_input_text(CHAIN2), FinitePoset)
    assert isinstance(parse_input_text(METRIC), RationalMetric)
    assert isinstance(parse_input_text(SPACE), FiniteTopSpace)
    with pytest.raises(ParseError):
        parse_input_text("widget w\n")


# every refusal of the text formats: (parser, text, line number or None, reason, the verb
# that reads it from a file, or None where no file reaches it: parse_input_text dispatches
# on the header line, so a missing header is reachable only by a direct parser call)
PARSE_REFUSALS = [
    (parse_poset_text, "poset t\nposet u\n", 2, "duplicate poset header", "filters"),
    (parse_poset_text, "poset\n", 1, "expected: poset <name>", "filters"),
    (parse_poset_text, "poset t u\n", 1, "expected: poset <name>", "filters"),
    (parse_poset_text, "poset t\nelem\n", 2, "expected: elem <id>", "filters"),
    (parse_poset_text, "poset t\nelem a b\n", 2, "expected: elem <id>", "filters"),
    (parse_poset_text, "poset t\nelem a\nelem a\n", 3, "duplicate element 'a'", "filters"),
    (parse_poset_text, "poset t\nelem a\nle a\n", 3, "expected: le <a> <b>", "filters"),
    (parse_poset_text, "poset t\nelem a\nlt a a a\n", 3, "expected: lt <a> <b>", "filters"),
    (parse_poset_text, "poset t\nelem a\nelem b\nlt a b\nle a b\n", 5, "cannot mix le and lt lines", "filters"),
    (parse_poset_text, "poset t\nnode a\n", 2, "unknown directive 'node'", "filters"),
    (parse_poset_text, "elem a\n", None, "missing poset header", None),
    (parse_poset_text, "poset t\nle a b\nelem a\n", 2, "relation mentions undeclared element 'b'", "filters"),
    (parse_poset_text, "poset t\nelem a\nelem b\nle a b\nle b a\n", 5,
     "elements 'a' and 'b' lie below each other but are distinct", "filters"),
    (parse_poset_text, "poset t\nelem a\nlt a a\n", 3, "strict input relates 'a' to itself", "filters"),
    (parse_poset_text, "poset t\nelem a\nelem b\nlt a b\nlt b a\n", 5,
     "transitive closure of the strict input relates 'a' to itself", "filters"),
    (parse_metric_text, "metric m\nmetric n\n", 2, "expected a single: metric <name>", "formalballs"),
    (parse_metric_text, "metric\n", 1, "expected a single: metric <name>", "formalballs"),
    (parse_metric_text, "metric m\npoint\n", 2, "expected: point <id>", "formalballs"),
    (parse_metric_text, "metric m\ndist p q\n", 2, "expected: dist <a> <b> <num>/<den>", "formalballs"),
    (parse_metric_text, "metric m\ndist p q one\n", 2, "bad rational 'one'", "formalballs"),
    (parse_metric_text, "metric m\ndist p q 1/0\n", 2, "bad rational '1/0'", "formalballs"),
    (parse_metric_text, "metric m\nball p\n", 2, "unknown directive 'ball'", "formalballs"),
    (parse_metric_text, "point p\n", None, "missing metric header", None),
    (parse_metric_text, "metric m\npoint p\npoint q\ndist p q 1\ndist p q 2\n", 5,
     "conflicting distance for p q", "formalballs"),
    (parse_metric_text, "metric m\npoint p\npoint q\n", None, "missing distance between 'p' and 'q'",
     "formalballs"),
    (parse_space_text, "space s\nspace t\n", 2, "expected a single: space <name>", "space"),
    (parse_space_text, "space\n", 1, "expected a single: space <name>", "space"),
    (parse_space_text, "space s\npoint x y\n", 2, "expected: point <id>", "space"),
    (parse_space_text, "space s\npoint x\npoint x\n", 3, "duplicate point 'x'", "space"),
    (parse_space_text, "space s\npoint x\nopen\n", 3, "expected: open <name> <pt> ...", "space"),
    (parse_space_text, "space s\npoint x\nopen U y\n", 3, "open mentions undeclared point 'y'", "space"),
    (parse_space_text, "space s\nclosed F\n", 2, "unknown directive 'closed'", "space"),
    (parse_space_text, "point x\n", None, "missing space header", None),
    (parse_space_text, "space s\npoint x\npoint y\nopen U x\n", None, "basis does not cover the space", "space"),
    (parse_input_text, "widget w\n", 1, "unknown file kind 'widget'; expected poset, metric, or space", "filters"),
    (parse_input_text, "# a widget\n\nwidget w\n", 3, "unknown file kind 'widget'; expected poset, metric, or space",
     "filters"),
    (parse_input_text, "# nothing but a comment\n\n", None, "empty input", "filters"),
    (parse_metric_text, "metric m\npoint p\ndist p z 1\n", None, "distance given for unknown point 'z'",
     "formalballs"),
    (parse_metric_text, "metric m\npoint p\npoint q\ndist p q 1\ndist q q 1/2\n", None,
     "nonzero self-distance at 'q'", "formalballs"),
    (parse_metric_text, "metric m\npoint p\npoint p\n", 3, "duplicate point 'p'", "formalballs"),
]


@pytest.mark.parametrize("parse, text, line_no, reason, verb", PARSE_REFUSALS,
                         ids=[f"{row[0].__name__}-{k}" for k, row in enumerate(PARSE_REFUSALS)])
def test_every_parse_refusal(parse, text, line_no, reason, verb, tmp_path):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line_no, err.value.reason) == (line_no, reason)
    if verb is not None:
        path = tmp_path / "input.txt"
        path.write_text(text)
        where = "" if line_no is None else f"line {line_no}: "
        assert run_cli([verb, str(path)]) == (2, f"parse error: {where}{reason}\n")


# --- command dispatch ---------------------------------------------------------------


def test_filters_verb(files):
    code, out = run_cli(["filters", files["chain2.poset"], "--kind", "maximal"])
    assert code == 0
    assert out == "filter: {x, y}\n"


def test_filters_classify_and_closure(files):
    code, out = run_cli(["filters", files["v.poset"], "--classify", "c"])
    assert code == 0 and "is_filter: true" in out
    code, out = run_cli(["filters", files["v.poset"], "--upclose", "a"])
    assert "{a, c}" in out
    code, out = run_cli(["filters", files["v.poset"], "--extend", "c"])
    assert "maximal-extension: {a, c}" in out


def test_space_verb_separation(files):
    code, out = run_cli(["space", files["v.poset"], "--check", "separation"])
    assert code == 0
    assert "T1: true" in out and "uf_equals_mf: true" in out


def test_space_verb_on_space_file(files):
    code, out = run_cli(["space", files["d2.space"]])
    assert code == 0
    assert "hausdorff: true" in out and "bijective: true" in out


def test_space_subspace_check(files):
    code, out = run_cli(
        ["space", files["v.poset"], "--mode", "uf", "--check", "subspace", "--open", "a"]
    )
    assert code == 0
    assert "subspace-elements: a" in out


def test_stargame_verb(files):
    code, out = run_cli(["stargame", files["v.poset"]])
    assert code == 0
    assert "winner: II" in out


def test_stargame_play_verb():
    code, out = run_cli(["stargame-play", "--f", "01", "--rounds", "2"])
    assert code == 0
    assert "round 0: I <0,1> | II 1" in out
    assert "chain: 0 > 01" in out


def test_gdelta_verbs(files):
    code, out = run_cli(["gdelta", files["v.poset"], "--mode", "mf", "--open", "a"])
    assert code == 0 and "bijection: true" in out
    code, out = run_cli(["gdelta", files["v.poset"], "--mode", "uf", "--open", "a"])
    assert code == 0 and "claim-4: true" in out


def test_product_verb(files, tmp_path):
    out_path = str(tmp_path / "prod.poset")
    code, out = run_cli(["product", files["v.poset"], files["chain2.poset"], "-o", out_path])
    assert code == 0
    assert "maps-verified: true" in out
    reparsed = parse_poset_text(open(out_path).read())
    assert len(reparsed) == 6  # V keeps its top; chain2 has one already


def test_formalballs_verb(files):
    code, out = run_cli(["formalballs", files["two.metric"], "--max-denom", "8"])
    assert code == 0
    assert "point-chain:" in out


@pytest.mark.parametrize("flags", [
    ["--max-denom", "0"],
    ["--max-denom", "3"],
    ["--max-radius", "0"],
])
def test_formalballs_bad_grid_exits_2(files, flags):
    code, out = run_cli(["formalballs", files["two.metric"], *flags])
    assert code == 2
    assert out.startswith("error: ") and "Traceback" not in out


@pytest.mark.parametrize("flags, refused", [
    (["--depth", "-1"], "error: chain length must be at least 0, got -1"),
    (["--budget", "-1"], "error: refinement budget must be at least 0, got -1"),
    (["--depth", "6"], "error: grid too coarse for the requested chain length"),  # 4/64 is off k/8
])
def test_formalballs_negative_sizes_exit_2(files, flags, refused):
    # the refinements and the chain are built before any report line is printed
    code, out = run_cli(["formalballs", files["two.metric"], *flags])
    assert code == 2
    assert out == refused + "\n"


@pytest.mark.parametrize("option, expected, want", [
    ("--classify", ["is_filter: false", "is_unbounded: false", "is_maximal: false"], 0),
    ("--upclose", ["upward-closure: {}"], 0),
    ("--extend", ["error: [] is not a filter: directedness or upward closure fails"], 2),
])
def test_filters_empty_option_value_is_an_empty_set(files, option, expected, want):
    # an empty element list is a value, not an absent option: no maximal-filter listing
    code, out = run_cli(["filters", files["v.poset"], option, ""])
    assert (code, out.splitlines()) == (want, expected)


def test_extend_from_no_elements_raises_not_a_filter():
    with pytest.raises(NotAFilter):
        Filter.of(parse_poset_text(VEE), [])


def test_empty_seed_basis_is_refused(files):
    code, out = run_cli(["space", files["v.poset"], "--check", "reduce", "--seed-basis", ""])
    assert code == 2
    assert out.splitlines()[-1].startswith("error: seed basis has no member around point")
    with pytest.raises(NotABasis):
        reduce_countable_subposet(parse_poset_text(VEE), [])
    code, out = run_cli(["space", files["v.poset"], "--check", "reduce"])
    assert code == 0 and "restriction-homeomorphism: true" in out


def test_space_reduce_verifies_the_restriction_map_once(files, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return verify_restriction(*args)

    monkeypatch.setattr(cli.topology, "verify_restriction", counted)
    code, out = run_cli(["space", files["v.poset"], "--check", "reduce"])
    assert code == 0 and "restriction-homeomorphism: true" in out
    assert len(calls) == 1


def test_space_reduce_of_a_20_over_20_crown(tmp_path):
    # 2^20 common-lower-bound masks among the subsets of the tops; a stage tests each element once
    crown = oracles.crown(20)
    path = tmp_path / "crown20.poset"
    path.write_text(poset_to_text(crown))
    code, out = run_cli(["space", str(path), "--check", "reduce"])
    assert code == 0
    assert out.splitlines() == ["space: mf(crown20)", "points: 20", f"reduced-elements: {', '.join(crown.elements)}",
                                "stages: 1", "restriction-homeomorphism: true"]


@pytest.mark.parametrize("flags, same_as", [
    (["--depth", str(10**9)], ["--depth", "6"]),  # refused: "grid too coarse", as at depth 6
    (["--budget", str(10**12)], ["--budget", "3"]),  # 2**3 is the whole 8-grid
])
def test_formalballs_huge_sizes_answer_at_once(files, flags, same_as):
    start = time.perf_counter()
    got = run_cli(["formalballs", files["two.metric"], "--max-denom", "8", *flags])
    assert time.perf_counter() - start < 1
    want = run_cli(["formalballs", files["two.metric"], "--max-denom", "8", *same_as])
    assert got == (want[0], want[1].replace(f"budget {same_as[-1]}", f"budget {flags[-1]}"))


def test_formalballs_on_a_metric_without_points_exits_2(tmp_path):
    path = tmp_path / "none.metric"
    path.write_text("metric none\n")
    code, out = run_cli(["formalballs", str(path)])
    assert code == 2
    assert out.startswith("error: metric none has no point") and "Traceback" not in out


def test_choquet_verb(files):
    code, out = run_cli(["choquet", files["v.poset"], "--rounds", "3", "--seed", "1"])
    assert code == 0
    assert "winner-at-horizon: II" in out


def test_mf_characterize_verb(files):
    code, out = run_cli(["mf-characterize", files["d2.space"], "--depth", "2"])
    assert code == 0
    assert "bijection: true" in out


def test_mf_characterize_refuses_too_many_conditions(tmp_path):
    path = tmp_path / "five.space"
    points = "".join(f"point p{i}\nopen U{i} p{i}\n" for i in range(5))
    path.write_text(f"space five\n{points}open W p0 p1 p2 p3 p4\n")
    code, out = run_cli(["mf-characterize", str(path), "--depth", "1"])
    assert code == 2
    assert out == "error: depth 1 gives 327681 conditions, more than the 2000 a check builds\n"


def test_mf_characterize_deep_depths(tmp_path, files):
    # a nonempty space has at least depth + 1 conditions: one forced chain
    # of plays and its initial segments, all with designated set {x}
    path = tmp_path / "one.space"
    path.write_text("space one\npoint x\nopen U x\n")
    code, out = run_cli(["mf-characterize", str(path), "--depth", "1999"])
    assert code == 0  # 2000 conditions: at the cap, so checked in full
    assert out.splitlines()[:2] == ["conditions: 2000", "maximal-filters: 1"]
    assert "bijection: true" in out
    for argv, bound in [([str(path), "--depth", "2000"], 2001),
                        ([files["d2.space"], "--depth", "1000"], 2001),
                        ([files["d2.space"], "--depth", str(10**9)], 10**9 + 1)]:
        start = time.perf_counter()
        code, out = run_cli(["mf-characterize", *argv])
        assert time.perf_counter() - start < 1, argv
        assert code == 2, argv
        assert out == (f"error: depth {argv[-1]} gives at least {bound} conditions, "
                       "more than the 2000 a check builds\n")


def test_domain_names_the_filters_of_a_comma_name_apart(tmp_path):
    # a <= b plus an element named "a,b": the filters {a, b} and {a,b} once shared the
    # id "{a,b}", and the Scott table kept one of them, so a matched {b}
    path = tmp_path / "comma.poset"
    path.write_text("poset P\nelem a\nelem b\nelem a,b\nle a b\n")
    code, out = run_cli(["domain", str(path)])
    assert code == 0
    assert "correspondence a: {a,b}\ncorrespondence b: {a,b}\ncorrespondence a,b: {'a,b'}\n" in out


def test_mf_characterize_reports_a_failed_refinement(monkeypatch, files):
    # a refinement that returns its first argument is not strictly below it
    monkeypatch.setattr(choquet_mf.ConditionSystem, "refine", lambda self, c1, c2, x: c1)
    code, out = run_cli(["mf-characterize", files["d2.space"], "--depth", "2"])
    assert code == 1
    assert "refinements-checked: 1\nrefinements-ok: false\nbijection: true\n" in out
    assert out.endswith("witness: a sampled refinement failed\n")


def test_domain_verbs(files):
    code, out = run_cli(["domain", files["v.poset"]])
    assert code == 0
    assert "scott-topology-matches: true" in out
    code, out = run_cli(["domain", files["v.poset"], "--check", "ideal"])
    assert code == 0 and "ideals: 3" in out


def test_domain_builds_one_filter_completion(files, monkeypatch):
    # the Scott check reads the completion off the order dual instead of building it again
    calls = []
    build = cli.domain_theory.filter_completion

    def counted(poset):
        calls.append(poset)
        return build(poset)

    monkeypatch.setattr(cli.domain_theory, "filter_completion", counted)
    code, out = run_cli(["domain", files["v.poset"]])
    assert code == 0 and "scott-topology-matches: true" in out
    assert len(calls) == 1


def test_topo_order_verbs(files):
    code, out = run_cli(["topo-order", files["d2.space"], "--construct", "interval"])
    assert code == 0
    assert "mf-bijection: true" in out
    code, out = run_cli(["topo-order", files["v.poset"], "--construct", "from-poset"])
    assert code == 0
    code, out = run_cli(["topo-order", files["chain2.poset"], "--construct", "from-poset"])
    assert code == 2  # the order condition fails on a two-chain


def test_baire_verb(files):
    code, out = run_cli(["baire", files["v.poset"], "--start", "c", "--rounds", "2"])
    assert code == 0
    assert "lands-in-every-open: true" in out


def test_reports_are_deterministic(files):
    for argv in (
        ["filters", files["v.poset"], "--kind", "all"],
        ["space", files["v.poset"], "--check", "all"],
        ["domain", files["v.poset"]],
        ["choquet", files["v.poset"], "--seed", "3"],
    ):
        assert run_cli(argv) == run_cli(argv)


def test_exit_codes(files, tmp_path):
    code, _ = run_cli(["bogus"])
    assert code == 2
    code, _ = run_cli(["filters", str(tmp_path / "missing.poset")])
    assert code == 2
    bad = tmp_path / "bad.poset"
    bad.write_text("poset p\nelem a\nle a z\n")
    code, out = run_cli(["filters", str(bad)])
    assert code == 2 and "line 3" in out
    # property failure: the open poset of a non-Hausdorff space
    sier = tmp_path / "s.space"
    sier.write_text("space s\npoint x\npoint y\nopen U x\nopen W x y\n")
    code, out = run_cli(["space", str(sier)])
    assert code == 1 and "witness" in out


# game calls that cannot be played: each must exit 2 with a message, never a traceback
BAD_GAME_CALLS = {
    "baire-empty": ["baire", "{empty}"],
    "baire-rounds0": ["baire", "{v}", "--rounds", "0"],
    "choquet-empty": ["choquet", "{empty}"],
    "choquet-rounds0": ["choquet", "{v}", "--rounds", "0"],
    "stargame-play-rounds0": ["stargame-play", "--f", "01", "--rounds", "0"],
    "stargame-play-short-guide": ["stargame-play", "--f", "01", "--rounds", "5"],
    "stargame-play-letter-guide": ["stargame-play", "--f", "abc"],
}
# the whole output of the calls that reach a GameSetupError of the game itself
BAD_GAME_OUTPUTS = {
    "baire-rounds0": "error: rounds must be at least 1\n",
    "stargame-play-rounds0": "error: rounds must be at least 1\n",
}


def bad_game_argv(label, tmp_path):
    paths = {}
    for name, text in (("empty", "poset empty\n"), ("v", VEE)):
        path = tmp_path / f"{name}.poset"
        path.write_text(text)
        paths[name] = str(path)
    return [arg.format(**paths) for arg in BAD_GAME_CALLS[label]]


@pytest.mark.parametrize("label", sorted(BAD_GAME_CALLS))
def test_bad_game_call_exits_2(label, tmp_path):
    code, out = run_cli(bad_game_argv(label, tmp_path))
    assert code == 2
    assert out.startswith(("error: ", "usage error: ")) and "Traceback" not in out
    assert out == BAD_GAME_OUTPUTS.get(label, out)


def test_bad_game_calls_exit_2_under_optimize(tmp_path):
    # python -O strips assert statements; the exit codes must not depend on them
    src = os.path.dirname(os.path.dirname(posetspace.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for label in sorted(BAD_GAME_CALLS):
        argv = bad_game_argv(label, tmp_path)
        proc = subprocess.run([sys.executable, "-O", "-m", "posetspace.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == run_cli(argv)[0] == 2, (label, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_unreadable_input_exits_2(tmp_path):
    # a directory where a file is expected, and a file that is not UTF-8 text
    code, out = run_cli(["filters", str(tmp_path)])
    assert (code, out) == (2, f"cannot read {tmp_path}\n")
    latin = tmp_path / "latin1.poset"
    latin.write_bytes("poset p\nelem \u00e9\n".encode("latin-1"))
    code, out = run_cli(["filters", str(latin)])
    assert code == 2 and out.startswith("parse error: ") and "UTF-8" in out and out.count("\n") == 1


def test_product_output_into_a_missing_directory_exits_2(files, tmp_path):
    target = str(tmp_path / "absent" / "out.poset")
    code, out = run_cli(["product", files["v.poset"], "-o", target])
    assert (code, out) == (2, f"cannot write {target}\n")


def test_wrong_file_kind(files):
    code, out = run_cli(["filters", files["two.metric"]])
    assert code == 2
    assert "needs a poset" in out


def test_space_refuses_a_metric(files):
    path = files["two.metric"]
    code, out = run_cli(["space", path])
    assert (code, out) == (2, f"usage error: {path} holds a metric; this command needs a poset or space\n")


def test_every_operation_reachable():
    spec_operations = {
        "validate_poset", "incompatible", "convert_strict_nonstrict",
        "classify_filter", "enumerate_filters", "extend_to_maximal", "upward_closure",
        "basic_open", "separation_check", "reduce_countable_subposet",
        "product_poset", "gdelta_mf_poset", "open_subspace_uf", "gdelta_uf_poset",
        "formal_ball_poset", "precompact_open_poset",
        "canonical_choquet_strategy", "choquet_referee", "star_game_solve",
        "star_game_referee", "baire_generic_filter",
        "validate_condition", "condition_lt", "refine_conditions",
        "mf_characterization_check",
        "filter_completion", "way_below", "dcpo_classify",
        "scott_max_homeomorphism_check", "ideal_completion",
        "check_axioms_and_generation", "interval_order", "completeness_check",
        "mf_poset_from_order", "order_from_poset",
    }
    covered = set()
    for ops in cli.OPERATION_COVERAGE.values():
        covered |= set(ops)
    assert spec_operations <= covered
    # the one library-only operation: the reduce checks its restriction on the MF space it built,
    # and test_topology's test_reduce_check_is_the_restriction_check_on_every_poset_up_to_4
    # drives restriction_homeomorphism_check against it
    assert "restriction_homeomorphism_check" not in covered and hasattr(posetspace, "restriction_homeomorphism_check")
    parser = cli.build_parser()
    assert set(cli.OPERATION_COVERAGE) == set(parser._subparsers._group_actions[0].choices)


# --- the recorded cli-verbs reports ---------------------------------------------------


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO, "bench", "fixtures", "cli_expected.json"), encoding="utf-8") as _handle:
    RECORDED = json.load(_handle)


@pytest.mark.parametrize("label", sorted(RECORDED))
def test_recorded_cli_reports_keep_their_digests(label, tmp_path, monkeypatch):
    # the benchmark's record of every well-formed case: exit code and stdout sha256,
    # run from the repository root as recorded; a written file goes to tmp_path, and
    # its path is printed as recorded
    monkeypatch.chdir(REPO)
    argv = list(RECORDED[label]["argv"])
    swaps = {}
    if "-o" in argv:
        k = argv.index("-o") + 1
        swaps[str(tmp_path / os.path.basename(argv[k]))] = argv[k]
        argv[k] = str(tmp_path / os.path.basename(argv[k]))
    with contextlib.redirect_stderr(io.StringIO()):
        code, out = run_cli(argv)
    for written, recorded in swaps.items():
        out = out.replace(written, recorded)
    assert code == RECORDED[label]["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RECORDED[label]["sha256"]


# --- one parser per process ---------------------------------------------------------


def readme_argvs(files, tmp_path):
    """The CLI list of the README, on this module's fixture files."""
    v, chain2, d2 = files["v.poset"], files["chain2.poset"], files["d2.space"]
    return [
        ["filters", v, "--kind", "maximal"],
        ["space", v, "--mode", "mf", "--check", "separation"],
        ["space", d2],
        ["product", v, chain2, "-o", str(tmp_path / "out.poset")],
        ["gdelta", v, "--mode", "mf", "--open", "U1=a", "--open", "U2=a,c"],
        ["gdelta", v, "--mode", "uf", "--open", "a", "--open", "a"],
        ["formalballs", files["two.metric"], "--max-denom", "8", "--max-radius", "4"],
        ["stargame", v],
        ["stargame-play", "--poset", "bintree", "--f", "010110", "--rounds", "6"],
        ["choquet", v, "--rounds", "10", "--seed", "0"],
        ["mf-characterize", d2, "--depth", "2"],
        ["domain", v, "--check", "lemma"],
        ["topo-order", d2, "--construct", "interval", "--check", "all"],
        ["topo-order", v, "--construct", "from-poset"],
        ["baire", v, "--start", "c", "--rounds", "2", "--dense", "a,b"],
    ]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_matches_fresh_parser(files, tmp_path, monkeypatch):
    argvs = readme_argvs(files, tmp_path)
    assert {argv[0] for argv in argvs} == set(cli.OPERATION_COVERAGE)
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run_cli(argv) for argv in argvs]
    assert all(code in (0, 1) for code, _ in fresh)
    # interleaved: forward, backward, then every other call
    order = list(range(len(argvs)))
    order += order[::-1] + order[::2] + order[1::2]
    for k in order:
        assert run_cli(argvs[k]) == fresh[k], argvs[k]


def test_repeated_open_does_not_carry_over(files, monkeypatch):
    seen = []
    real = cli.constructions.gdelta_mf_poset

    def spy(poset, opens):
        seen.append(opens)
        return real(poset, opens)

    monkeypatch.setattr(cli.constructions, "gdelta_mf_poset", spy)
    v = files["v.poset"]
    assert run_cli(["gdelta", v, "--open", "a", "--open", "a,c"])[0] == 0
    assert run_cli(["gdelta", v, "--open", "b"])[0] == 0
    assert run_cli(["gdelta", v])[0] == 0
    assert seen == [[["a"], ["a", "c"]], [["b"]], []]


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: posetctl "),
    (["filters", "--help"], "usage: posetctl filters "),
])
def test_help_goes_to_run_stdout(argv, usage, capsys):
    code, out = run_cli(argv)
    assert code == 0 and out.startswith(usage)
    assert capsys.readouterr() == ("", "")


def test_help_and_usage_reach_the_streams_of_each_call():
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.run(["--help"]) == 0
            assert cli.run(["bogus"]) == 2
        assert out.getvalue().startswith("usage: posetctl ")
        assert err.getvalue().startswith("usage: posetctl ") and "invalid choice" in err.getvalue()


@pytest.mark.parametrize("argv, error", [
    (["stargame-play", "--poset", "grid", "--f", "01", "--rounds", "2"],
     "usage error: only the built-in 'bintree' generated poset is available"),
    (["baire", "v.poset", "--dense", "c"], "usage error: --dense set 0 is not dense"),
])
def test_usage_errors_print_their_one_line(files, argv, error, capsys):
    code, out = run_cli([files.get(arg, arg) for arg in argv])
    assert (code, out) == (2, error + "\n")
    assert capsys.readouterr() == ("", "")


def test_negative_depth_exits_2(files):
    code, out = run_cli(["mf-characterize", files["d2.space"], "--depth", "-1"])
    assert code == 2 and out.startswith("error: ") and "depth" in out
    # depth 0 is a valid, too-shallow bound: a failed property, not bad input
    code, out = run_cli(["mf-characterize", files["d2.space"], "--depth", "0"])
    assert code == 1
    assert out.splitlines()[:3] == ["conditions: 3", "maximal-filters: 3", "depth-too-small: 1"]


def test_subspace_check_refuses_two_opens(files):
    argv = ["space", files["v.poset"], "--mode", "uf", "--check", "subspace", "--open", "a"]
    code, out = run_cli(argv + ["--open", "b"])
    assert code == 2 and out.startswith("usage error: ") and "--open" in out
    assert run_cli(argv)[0] == 0


# --- the report contract: witness last on exit 1, one error line on exit 2 -------------


def _forced(**fields):
    """Wrap a library call so that its result record comes back with these fields."""
    return lambda real: lambda *args, **kwargs: real(*args, **kwargs)._replace(**fields)


def _forced_check(**fields):
    """Wrap a ``(Correspondence, map)`` call so that its Correspondence comes back with these fields."""
    def wrap(real):
        def call(*args):
            check, mapping = real(*args)
            return check._replace(**fields), mapping
        return call
    return wrap


def _transcript(change):
    """Wrap the Choquet referee so that ``change`` edits the transcript it returns."""
    def wrap(real):
        def play(*args):
            transcript = real(*args)
            change(transcript)
            return transcript
        return play
    return wrap


def _ii_illegal(transcript):
    transcript.illegal = IllegalMove("II", 0, "forced")


def _ii_empty(transcript):
    transcript.rounds[-1] = transcript.rounds[-1]._replace(open_ii=0)


# label: (argv, patched object, attribute, wrapper of the real attribute, witness); a
# failure that no real input reaches is forced by patching the library call's result
FAILING_REPORTS = {
    "space-file": (["space", "{sierp}"], None, None, None, "point map is not surjective"),
    "space-reduce": (["space", "{v}", "--check", "reduce"], cli.topology, "verify_restriction",
                     _forced_check(ok=False, failure="forced", witness="c"), "forced (c)"),
    "space-subspace": (["space", "{v}", "--mode", "uf", "--check", "subspace", "--open", "a"],
                       cli.constructions, "open_subspace_uf", _forced(ok=False, failure="forced"), "forced"),
    "product": (["product", "{v}", "{chain2}"], cli.constructions, "product_poset",
                _forced(ok=False, failure="forced"), "forced"),
    "gdelta-mf": (["gdelta", "{v}", "--open", "a"], cli.constructions, "gdelta_mf_poset",
                  _forced(ok=False, failure="forced"), "forced"),
    "gdelta-uf": (["gdelta", "{v}", "--mode", "uf", "--open", "a"], cli.constructions, "gdelta_uf_poset",
                  _forced(ok=False, failure="forced"), "forced"),
    "mf-characterize": (["mf-characterize", "{d2}", "--depth", "0"], None, None, None,
                        "some maximal filter keeps more than one point"),
    "domain": (["domain", "{v}"], cli.domain_theory, "scott_max_homeomorphism_check",
               _forced(ok=False, detail="forced"), "forced"),
    "choquet-illegal": (["choquet", "{v}", "--rounds", "3"], cli.games, "choquet_referee",
                        _transcript(_ii_illegal), "illegal move by II in round 0: forced"),
    "choquet-empty": (["choquet", "{v}", "--rounds", "3"], cli.games, "choquet_referee",
                      _transcript(_ii_empty), "II's answers have an empty intersection"),
    "baire": (["baire", "{v}", "--dense", "a,b", "--dense", "a,b"], cli.topology.PosetSpace,
              "open_mask", lambda real: lambda self, elements: 0,
              "dense set 0 misses the maximal filter"),
    "topo-order-axioms": (["topo-order", "{d2}", "--check", "axioms"], cli.semi_topogenous,
                          "check_axioms_and_generation", lambda real: lambda order: AxiomReport(
                              False, True, ("forced violation", "second violation")), "forced violation"),
    # generation alone fails: no violation text, and still exit 1
    "topo-order-generation": (["topo-order", "{d2}", "--check", "axioms"], cli.semi_topogenous,
                              "check_axioms_and_generation", lambda real: lambda order: AxiomReport(True, False, ()),
                              "the order does not generate the topology"),
    "topo-order-mf": (["topo-order", "{d2}", "--serialize"], cli.semi_topogenous, "mf_poset_from_order",
                      _forced(membership_equivalence=False, failure="forced"), "forced"),
    "topo-order-from-poset": (["topo-order", "{v}", "--construct", "from-poset", "--serialize"],
                              cli.semi_topogenous, "order_from_poset",
                              _forced(axioms=AxiomReport(True, False, ()), ok=False),
                              "the order does not generate the topology"),
}


def contract_paths(files, tmp_path):
    sierp = tmp_path / "sierp.space"
    sierp.write_text("space sierpinski\npoint x\npoint y\nopen U x\nopen W x y\n")
    return {"v": files["v.poset"], "chain2": files["chain2.poset"], "d2": files["d2.space"],
            "sierp": str(sierp), "tree7": os.path.join(REPO, "bench", "fixtures", "tree7.poset")}


def test_every_checking_verb_has_a_failing_report():
    unchecked = {"filters", "formalballs", "stargame", "stargame-play"}
    assert {argv[0] for argv, *_ in FAILING_REPORTS.values()} == set(cli.OPERATION_COVERAGE) - unchecked


@pytest.mark.parametrize("label", sorted(FAILING_REPORTS))
def test_failed_check_ends_in_its_witness(label, files, tmp_path, monkeypatch):
    argv, target, attr, wrap, witness = FAILING_REPORTS[label]
    if target is not None:
        monkeypatch.setattr(target, attr, wrap(getattr(target, attr)))
    code, out = run_cli([arg.format(**contract_paths(files, tmp_path)) for arg in argv])
    lines = out.splitlines()
    assert (code, lines[-1]) == (1, f"witness: {witness}")
    assert not [line for line in lines[:-1] if line.startswith("witness:")]
    if "--serialize" in argv:  # the rel lines are report rows too: the witness follows them
        assert lines[-2].startswith("rel ")


def test_passing_reports_have_no_witness(files, tmp_path):
    for argv in readme_argvs(files, tmp_path):
        code, out = run_cli(argv)
        assert code == 0 and "witness:" not in out, argv


@pytest.mark.parametrize("argv, error", [
    (["space", "{tree7}", "--check", "reduce", "--seed-basis", "r"],
     "error: seed basis has no member around point {r, l, ll} inside the basic open of 'l'"),
    (["space", "{v}", "--check", "all", "--seed-basis", "zz"], "error: unknown element 'zz'"),
])
def test_error_partway_prints_only_the_error_line(argv, error, files, tmp_path):
    code, out = run_cli([arg.format(**contract_paths(files, tmp_path)) for arg in argv])
    assert (code, out) == (2, error + "\n")


@pytest.mark.parametrize("argv", [
    ["filters", "{v}", "--kind", "all"],
    ["topo-order", "{tree7}", "--construct", "from-poset", "--serialize"],
])
def test_closed_stdout_is_not_a_failed_check(argv, files, tmp_path):
    # exit 1 means only that a property check failed; a reader that goes away ends the
    # run as it ends cat, without a traceback
    src = os.path.dirname(os.path.dirname(posetspace.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [arg.format(**contract_paths(files, tmp_path)) for arg in argv]
    proc = subprocess.Popen([sys.executable, "-m", "posetspace.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) not in (0, 1)
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_importing_the_cli_loads_no_signal_module():
    code = "import sys; import posetspace.cli; print('signal' in sys.modules)"
    src = os.path.dirname(os.path.dirname(posetspace.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    base = subprocess.run([sys.executable, "-c", "import sys; print('signal' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60).stdout
    assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60).stdout == base
