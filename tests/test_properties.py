"""Property-based tests.  Derandomized and without an example database, so
every run draws the same examples."""

import contextlib
import io
import itertools
import os
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from posetspace import cli
from posetspace.catalog import random_poset
from posetspace.constructions import FiniteTopSpace, TopologyInvalid, _with_top, gdelta_mf_poset, product_poset
from posetspace.files import parse_poset_text, poset_to_text
from posetspace.filters import Filter, NotAFilter
from posetspace.games import canonical_choquet_strategy, choquet_referee, scripted_random_choquet_i
from posetspace.poset_core import (
    AntisymmetryViolation,
    FinitePoset,
    InvalidElementId,
    PosetError,
    _bits,
    _transitive_close,
    check_element_id,
    strict_to_poset,
    validate_poset,
)
from posetspace.topology import PosetSpace

fixed = settings(derandomize=True, database=None, deadline=None)


@fixed
@given(st.integers(min_value=0, max_value=2**200 - 1))
def test_bits_lists_the_set_bits_in_order(m):
    assert list(_bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]


@fixed
@given(st.one_of(st.text(max_size=4), st.text(" \t\n\x0b\x0c\r\x1c\x85\xa0\u2028\u3000ab", max_size=4)))
def test_element_ids_are_nonempty_and_whitespace_free(token):
    if token and not any(ch.isspace() for ch in token):
        assert check_element_id(token) == token
    else:
        with pytest.raises(InvalidElementId):
            check_element_id(token)


@fixed
@given(st.integers(min_value=0, max_value=2**32), st.lists(st.integers(0, 5), min_size=1, max_size=3))
def test_product_order_matches_oracle(seed, sizes):
    rng = random.Random(seed)
    r = product_poset([random_poset(rng, n) for n in sizes])
    assert [r.poset.up_mask(i) for i in range(len(r.poset))] == oracles.product_up_masks(r.factors)
    assert_down_masks_transpose(r.poset)
    coords = list(itertools.product(*(f.elements for f in r.factors)))
    assert list(r.poset.elements) == ["(" + ",".join(c) + ")" for c in coords]
    assert list(r.coords.items()) == list(zip(r.poset.elements, coords))
    assert r.ok, r.failure


def assert_down_masks_transpose(p):
    n = len(p)
    assert len(p.down_masks) == n
    for i in range(n):
        for j in range(n):
            assert p.down_mask(j) >> i & 1 == p.up_mask(i) >> j & 1, (p, i, j)


@fixed
@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 8), st.floats(0.0, 1.0))
def test_supplied_down_masks_are_the_transpose(seed, n, edge_prob):
    rng = random.Random(seed)
    p = oracles.random_poset_at(rng, n, edge_prob)
    d = p.dual()
    assert_down_masks_transpose(d)
    assert all(d.leq_idx(i, j) == p.leq_idx(j, i) for i in range(n) for j in range(n))
    topped, top = _with_top(p)
    assert_down_masks_transpose(topped)
    assert topped.elements[:n] == p.elements
    assert all(topped.leq_idx(i, j) == p.leq_idx(i, j) for i in range(n) for j in range(n))
    if top is not None:
        assert topped.elements[n] == top and topped.up_mask(n) == 1 << n
        assert topped.down_mask(n) == (2 << n) - 1
    kept = [e for e in p.elements if rng.random() < 0.5]
    sub = p.restrict(p.mask_of(kept))
    assert_down_masks_transpose(sub)
    assert sub.elements == tuple(kept)
    assert all(sub.leq(a, b) == p.leq(a, b) for a in kept for b in kept)
    opens = [[e for e in p.elements if rng.random() < 0.6] for _ in range(rng.randint(0, 3))]
    stage = gdelta_mf_poset(p, opens).poset  # built with its down masks
    assert_down_masks_transpose(stage)
    for q in (p, d, topped, sub, stage):
        # equal, with an equal hash (computed on first use), to the poset that
        # transposes its own up masks
        plain = FinitePoset(q.elements, q.up_masks)
        assert plain.down_masks == q.down_masks
        assert q == plain and hash(q) == hash(plain)


@fixed
@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 8), st.floats(0.0, 1.0),
       st.sampled_from((None, "#", "a#b", "#a", "a#")), st.integers(-1, 7))
def test_poset_text_round_trips(seed, n, edge_prob, hashed, where):
    p = oracles.random_poset_at(random.Random(seed), n, edge_prob)
    if hashed is None or where >= n:
        assert parse_poset_text(poset_to_text(p)) == p
        return
    # `hashed` as the name (where is -1) or as element where's id: the reader would cut it at the
    # '#', so the writer refuses it by name
    ids = [hashed if i == where else e for i, e in enumerate(p.elements)]
    q = validate_poset(ids, [(ids[p.index(a)], ids[p.index(b)]) for a, b in p.pairs()], hashed if where < 0 else "q")
    with pytest.raises(PosetError, match=f"cannot write '{re.escape(hashed)}' to a poset file"):
        poset_to_text(q)


@fixed
@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 8), st.floats(0.0, 1.0))
def test_closure_is_idempotent(seed, n, edge_prob):
    p = oracles.random_poset_at(random.Random(seed), n, edge_prob)
    assert validate_poset(p.elements, p.pairs(), p.name) == p
    closed = [p.up_mask(i) for i in range(n)]
    assert _transitive_close(closed) == closed
    rng = random.Random(seed)
    once = _transitive_close([rng.getrandbits(n) | 1 << i for i in range(n)])
    assert _transitive_close(once) == once


@st.composite
def relations(draw):
    """Elements in a listing order and pairs on them, up to 40 elements: upward along a ranking that
    shuffles the listing order, follows it or reverses it (acyclic), plus in some a few pairs
    pointing back down it or self pairs, in shuffled order."""
    n = draw(st.integers(0, 40))
    rank = draw(st.one_of(st.permutations(range(n)), st.sampled_from((range(n), range(n)[::-1]))))
    pairs = []
    if n > 1:
        density = draw(st.sampled_from((0.02, 0.1, 0.3)))
        rng = random.Random(draw(st.integers(0, 2**32)))
        pairs = [(a, b) for a in range(n) for b in range(n) if rank[a] < rank[b] and rng.random() < density]
        back = draw(st.sampled_from((0, 0, 1, 3)))
        pairs += [(b, a) for a, b in rng.sample(pairs, min(back, len(pairs)))]
        pairs += [(a, a) for a in rng.sample(range(n), draw(st.sampled_from((0, 0, 1))))]
        rng.shuffle(pairs)
    names = [f"e{i}" for i in range(n)]
    return names, [(names[a], names[b]) for a, b in pairs]


def closure_outcome(build, *args):
    """The poset's elements, name, up and down masks, or the error's type and text."""
    try:
        p = build(*args)
    except Exception as err:  # noqa: BLE001 - any refusal must match as well
        return type(err), str(err)
    return p.elements, p.name, p.up_masks, p.down_masks


@settings(fixed, max_examples=400)
@given(relations())
def test_one_pass_closure_matches_the_warshall_and_transpose_reference(relation):
    names, pairs = relation
    for build, strict in ((validate_poset, False), (strict_to_poset, True)):
        got = closure_outcome(build, names, pairs, "r")
        assert got == closure_outcome(oracles.closed_poset_reference, names, pairs, strict, "r"), (build, relation)
        if not isinstance(got[0], type):
            assert_down_masks_transpose(build(names, pairs, "r"))


@fixed
@given(st.integers(0, 12), st.booleans(), st.data())
def test_mask_closure_and_validation_match_the_oracles(n, upward, data):
    # upward relations only point from lower to higher index, so they close to posets
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)) if n else []
    if upward:
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    rows = [0] * n
    for a, b in pairs:
        rows[a] |= 1 << b
    assert _transitive_close(rows) == oracles.transitive_close(rows)
    names = [f"e{i}" for i in range(n)]
    named = [(names[a], names[b]) for a, b in pairs]
    try:
        expected = oracles.validate_order(names, named, "r")
    except AntisymmetryViolation as err:
        with pytest.raises(AntisymmetryViolation) as got:
            validate_poset(names, named, "r")
        assert got.value.pair == err.pair
        return
    p = validate_poset(names, named, "r")
    assert (p.elements, p.up_masks, p.name) == (expected.elements, expected.up_masks, expected.name)
    assert p.down_masks == expected.down_masks
    assert_down_masks_transpose(p)


@fixed
@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 8),
       st.integers(min_value=0, max_value=2**32), st.integers(1, 12), st.sampled_from(["mf", "uf"]))
def test_canonical_choquet_ii_plays_legally(poset_seed, n, game_seed, rounds, mode):
    p = random_poset(random.Random(poset_seed), n)
    space = PosetSpace(p, mode)
    t = choquet_referee(space, scripted_random_choquet_i(game_seed), canonical_choquet_strategy(space), rounds)
    assert t.illegal is None
    assert len(t.rounds) == rounds
    assert t.intersection
    witnesses = [r.witness_ii for r in t.rounds]
    assert all(p.leq(cur, prev) for prev, cur in zip(witnesses, witnesses[1:]))
    prev = oracles.point_set(space.whole_mask)
    for r in t.rounds:
        u, v = oracles.point_set(r.open_i), oracles.point_set(r.open_ii)
        assert r.point in v <= u <= prev
        prev = v


@fixed
@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 6), st.sampled_from(["mf", "uf"]),
       st.lists(st.tuples(st.integers(min_value=0, max_value=2**32), st.integers(1, 12)),
                min_size=2, max_size=2))
def test_forced_moves_match_the_oracle_that_draws_every_round(poset_seed, n, mode, games):
    # the library's opener plays forced rounds without drawing, the oracle's
    # draws in every round; one canonical II serves both games, so the second
    # game reads answers the first one stored
    p = random_poset(random.Random(poset_seed), n)
    space = PosetSpace(p, mode)
    lib_ii = canonical_choquet_strategy(space)
    for game_seed, rounds in games:
        t = choquet_referee(space, scripted_random_choquet_i(game_seed), lib_ii, rounds)
        lines, witnesses, illegal = oracles.choquet_referee(
            space, oracles.scripted_random_choquet_i(game_seed), oracles.canonical_choquet_ii(space), rounds)
        assert illegal is None and t.illegal is None
        assert t.log_lines() == lines
        assert [r.witness_ii for r in t.rounds] == witnesses


def _oracle_set(mask):
    """A move's point mask as the oracle's point set; a negative mask holds the non-point -1."""
    return frozenset([-1]) if mask < 0 else oracles.point_set(mask)


@settings(fixed, max_examples=300)
@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 5), st.sampled_from(["mf", "uf"]),
       st.data())
def test_referee_names_the_offence_the_oracle_names(poset_seed, n, mode, data):
    # I's move is legal (None), a drawn mask and point, or drawn points at
    # their least one (a 1-tuple); II's answer is legal (None), a drawn
    # mask, or drawn points joined with I's point (a 1-tuple).  Drawn masks
    # may be negative, hold a non-point, or break several rules at once.
    p = random_poset(random.Random(poset_seed), n)
    space = PosetSpace(p, mode)
    whole = space.whole_mask  # point up(g) is element bit g
    points = st.integers(0, whole).map(lambda m: m & whole)
    mask = points | st.integers(-(1 << (n + 1)), (1 << (n + 1)) - 1)
    rounds = data.draw(st.integers(1, 6))
    moves = data.draw(st.lists(st.none() | st.tuples(mask, st.integers(-1, n)) | st.tuples(points),
                               min_size=rounds, max_size=rounds))
    answers = data.draw(st.lists(st.none() | mask | st.tuples(points), min_size=rounds, max_size=rounds))

    def answer(pos):
        v, x = answers[len(pos.rounds)], pos.pending[1]
        if v is None:
            return 1 << x
        return v[0] | 1 << x if isinstance(v, tuple) else v

    def least(u):
        return (u & -u).bit_length() - 1

    def lib_i(pos):
        move = moves[len(pos.rounds)]
        if move is None:  # the whole of II's last answer, at its least point
            prev = pos.rounds[-1].open_ii if pos.rounds else pos.whole
            return prev, least(prev)
        return (move[0], least(move[0])) if len(move) == 1 else move

    def lib_ii(pos):
        return answer(pos), None

    def ref_i(pos):
        move = moves[len(pos.rounds)]
        if move is None:
            prev = pos.rounds[-1][2] if pos.rounds else oracles.all_points(space)
            return prev, min(prev)
        return _oracle_set(move[0]), (least(move[0]) if len(move) == 1 else move[1])

    def ref_ii(pos):
        return _oracle_set(answer(pos)), None

    t = choquet_referee(space, lib_i, lib_ii, rounds)
    lines, _, illegal = oracles.choquet_referee(space, ref_i, ref_ii, rounds)
    bad = t.illegal
    assert (None if bad is None else (bad.player, bad.round_no, bad.reason)) == illegal
    assert t.log_lines() == lines
    assert t.intersection == oracles.answers_meet(space.whole_mask, [r.open_ii for r in t.rounds])


@fixed
@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 8), st.sampled_from(["mf", "uf"]),
       st.data())
def test_filters_are_generator_indices(seed, n, mode, data):
    p = random_poset(random.Random(seed), n)
    space = PosetSpace(p, mode)
    assert [f.generator for f in space.points] == list(space.generators)
    for f in space.points:
        g = p.elements[f.generator]
        literal = sum(1 << j for j, e in enumerate(p.elements) if p.leq(g, e))
        assert f.mask() == literal
        assert f.members == {e for j, e in enumerate(p.elements) if literal >> j & 1}
        assert space.point_index(f) == f.generator
        assert Filter.of(p, f.members) == f
    for e in range(n):  # every filter is principal
        assert Filter.of(p, p.names_of(p.up_mask(e))) == Filter(p, e)
    for mask in data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8)):
        drawn = frozenset(p.names_of(mask))
        if oracles.brute_force_is_filter(p, drawn):
            assert Filter.of(p, drawn).members == drawn
        else:
            with pytest.raises(NotAFilter):
                Filter.of(p, drawn)


@settings(fixed, max_examples=300)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6), st.booleans())))
def test_space_basis_matches_union_closure_oracle(case):
    n, basis, with_whole = case
    basis = basis + [(1 << n) - 1] * with_whole
    points = [f"x{i}" for i in range(n)]
    error, opens = oracles.basis_topology(n, basis)
    if error is not None:
        with pytest.raises(TopologyInvalid) as err:
            FiniteTopSpace(points, basis)
        assert str(err.value) == error
        return
    space = FiniteTopSpace(points, basis)
    assert [oracles.point_set(o) for o in space.opens] == sorted(opens, key=lambda o: (len(o), sorted(o)))
    whole = frozenset(range(n))
    closures = {}
    for s in range(1 << n):
        members = oracles.point_set(s)
        closures[s] = whole - oracles.interior(opens, whole - members)
        assert oracles.point_set(space.interior(s)) == oracles.interior(opens, members)
        assert oracles.point_set(space.closure(s)) == closures[s]
        assert space.is_open(s) == (members in opens)
    assert not space.is_open(-1) and not space.is_open(1 << n)
    assert space.is_t1() == all(closures[1 << x] == {x} for x in range(n))


CLI_FILES = {
    "v.poset": "poset V\nelem a\nelem b\nelem c\nle a c\nle b c\n",
    "chain2.poset": "poset chain2\nelem x\nelem y\nle x y\n",
    "empty.poset": "poset empty\n",
    "bad.poset": "poset bad\nelem a\nle a z\n",
    "two.metric": "metric two\npoint p0\npoint p1\ndist p0 p1 1/1\n",
    "d2.space": "space d2\npoint x\npoint y\nopen U1 x\nopen U2 y\nopen W x y\n",
    "s.space": "space s\npoint x\npoint y\nopen U x\nopen W x y\n",
}
# every option and choice, a few element sets, and small numbers only, so
# that no drawn call can ask for an exponential amount of work
CLI_FLAGS = (
    "--help", "--kind", "--classify", "--extend", "--upclose", "--mode", "--check",
    "--seed-basis", "--open", "-o", "--max-denom", "--max-radius", "--budget", "--depth",
    "--rounds", "--seed", "--poset", "--f", "--start", "--dense", "--construct", "--serialize",
)
CLI_VALUES = (
    "all", "maximal", "unbounded", "mf", "uf", "separation", "opens", "reduce", "subspace",
    "lemma", "ideal", "interval", "from-poset", "axioms", "bintree", "grid", "out.poset",
    "a", "b", "c", "x", "y", "p0", "a,b", "a,c", "U1=a", "zz", "", "01", "0110", "012",
    "-1", "0", "1", "2", "3",
)
cli_word = st.one_of(st.sampled_from(CLI_FLAGS + CLI_VALUES + tuple(CLI_FILES)),
                     st.text("-=,abcxyz", max_size=4))
cli_option = st.one_of(st.tuples(st.sampled_from(CLI_FLAGS), st.sampled_from(CLI_VALUES)),
                       st.tuples(cli_word))


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    for name, text in CLI_FILES.items():
        (path / name).write_text(text)
    return path


@settings(fixed, max_examples=300)
@given(st.sampled_from(sorted(cli.OPERATION_COVERAGE) + ["bogus", "--help"]),
       st.lists(st.sampled_from(sorted(CLI_FILES) + ["missing.poset"]), max_size=1),
       st.lists(cli_option, max_size=5))
def test_cli_run_on_fuzzed_argv_exits_0_1_or_2(cli_dir, verb, paths, options):
    # one process, one cached parser; -o writes land in the fixture directory
    argv = [verb, *paths, *(word for option in options for word in option)]
    cwd = os.getcwd()
    os.chdir(cli_dir)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv, stdout=io.StringIO())
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), argv


def _parsed(parse, argv):
    """The namespace of one parse, or its exit code with what it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


# words that argparse reads specially: "--", help, prefixes (one of them, --c on
# topo-order, is ambiguous), attached values and unknown options
PARSE_WORDS = ("--", "-h", "--kin", "--c", "--se", "--ro", "--kind=all", "--mode=uf", "-ox.poset", "-x", "--bogus")


@settings(fixed, max_examples=300)
@given(st.sampled_from(sorted(cli.OPERATION_COVERAGE) + ["bogus", "--help", "-h", "--"]),
       st.lists(st.one_of(cli_option, st.tuples(st.sampled_from(PARSE_WORDS))), max_size=6))
def test_verb_subparser_parses_as_the_full_parser(verb, options):
    # the same namespace, or the same exit code and the same text on both streams
    argv = [verb, *(word for option in options for word in option)]
    assert _parsed(cli.parse_argv, argv) == _parsed(cli.build_parser().parse_args, argv), argv


@pytest.mark.parametrize("argv", [
    ["filters", "v.poset", "--bogus"], ["filters", "v.poset", "-x"], ["filters", "v.poset", "extra"],
    ["filters", "v.poset", "--kin", "all"], ["topo-order", "d2.space", "--c", "all"],
    ["filters", "--", "v.poset"], ["filters", "v.poset", "--", "--kind"], ["filters", "v.poset", "--kind"],
    ["filters", "v.poset", "--kind", "some"], ["filters", "v.poset", "--kind=all", "--kind", "maximal"],
    ["filters"], ["filters", "-h"], ["space", "v.poset", "--check", "all", "--help"], ["product"],
    ["product", "v.poset", "-o"], ["product", "v.poset", "-oout.poset"], ["stargame-play"],
    ["choquet", "v.poset", "--rounds", "x"], ["gdelta", "v.poset", "--open", "-1"],
    ["baire", "v.poset", "--dense", "a", "--dense", "b"], ["bogus"], [], ["-h"], ["--", "filters", "v.poset"],
])
def test_verb_subparser_parses_these_as_the_full_parser(argv):
    assert _parsed(cli.parse_argv, argv) == _parsed(cli.build_parser().parse_args, argv)


# each file kind with the verbs that read it; small grids and depths, so
# that no drawn file can ask for an exponential amount of work.
# mf-characterize runs at its default depth: the condition cap refuses
# every drawn space with too many conditions
FILE_VERBS = {
    "poset": (["filters", "--kind", "all"], ["space", "--check", "all"], ["stargame"],
              ["choquet", "--mode", "uf"], ["domain"], ["topo-order", "--construct", "from-poset"],
              ["baire"], ["gdelta", "--open", "a"], ["product", "fuzzed.txt"]),
    "metric": (["formalballs", "--max-denom", "2", "--max-radius", "1", "--depth", "1"],),
    "space": (["space"], ["mf-characterize"], ["topo-order"]),
}
FILE_WORDS = {
    "poset": ("poset", "elem", "le", "lt"),
    "metric": ("metric", "point", "dist"),
    "space": ("space", "point", "open"),
}
FILE_TOKENS = ("a", "b", "c", "x", "y", "0", "1", "-1", "1/2", "1/0", "x/y", "#", "=", ",")


@st.composite
def file_text(draw, kind):
    word = st.one_of(st.sampled_from(FILE_WORDS[kind] + FILE_TOKENS), st.text(max_size=3))
    line = st.lists(word, max_size=5).map(" ".join)
    header = draw(st.sampled_from([f"{kind} f", "", "poset f", "space f f"]))
    return "\n".join([header] + draw(st.lists(line, max_size=6)))


@settings(fixed, max_examples=300)
@given(st.sampled_from(sorted(FILE_VERBS)).flatmap(
    lambda kind: st.tuples(file_text(kind), st.sampled_from(FILE_VERBS[kind]))))
def test_cli_run_on_fuzzed_file_text_exits_0_1_or_2(cli_dir, case):
    text, options = case
    (cli_dir / "fuzzed.txt").write_text(text, encoding="utf-8")
    argv = [options[0], "fuzzed.txt", *options[1:]]
    cwd = os.getcwd()
    os.chdir(cli_dir)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv, stdout=io.StringIO())
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (text, argv)
