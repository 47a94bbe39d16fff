"""Command-line dispatch: parse inputs, run one operation, print a report.

Each verb returns its report as rows and a failure text and prints
nothing; run() renders them.  A row prints as "key: value", with
booleans as true/false, or as a plain line.  Exit 0: every check held.
Exit 1: a property check failed, and the last line is "witness: ...".
Exit 2: a usage, parse or input error, and its one error line is all
that is printed.  A closed stdout ends the program by SIGPIPE where the
platform has that signal, as it ends cat.  A known verb's arguments go
to its own subparser, which prints the errors the full parser would.
"""

import argparse
import contextlib
import functools
import sys

from . import choquet_mf, constructions, domain_theory, filters, games, semi_topogenous, topology
from .constructions import FiniteTopSpace, RationalMetric
from .files import ParseError, parse_input_file, poset_to_text
from .poset_core import BinaryTreePoset, FinitePoset, PosetError


class _Usage(Exception):
    pass


class _CannotWrite(Exception):
    pass


def _load(path, *want):
    obj = parse_input_file(path)
    names = {FinitePoset: "poset", RationalMetric: "metric", FiniteTopSpace: "space"}
    if not isinstance(obj, want):
        raise _Usage(f"{path} holds a {names[type(obj)]}; this command needs a {' or '.join(map(names.get, want))}")
    return obj


def _elements_list(text):
    # an optional "NAME=" prefix labels the open, as in --open U1=a,b
    text = text.split("=", 1)[-1]
    return [x for x in text.split(",") if x]


def _cmd_filters(args):
    poset = _load(args.file, FinitePoset)
    if args.upclose is not None:
        closed = filters.upward_closure(poset, _elements_list(args.upclose))
        return [("upward-closure", f"{{{', '.join(sorted(closed, key=poset.index))}}}")], ""
    if args.classify is not None:
        cls = filters.classify_filter(poset, _elements_list(args.classify))
        return [("is_filter", cls.is_filter), ("is_unbounded", cls.is_unbounded),
                ("is_maximal", cls.is_maximal)], ""
    if args.extend is not None:
        base = filters.Filter.of(poset, _elements_list(args.extend))
        return [("maximal-extension", filters.extend_to_maximal(poset, base))], ""
    return [("filter", f) for f in filters.enumerate_filters(poset, args.kind)], ""


def _cmd_space(args):
    if args.check == "subspace" and len(args.open or []) > 1:
        raise _Usage("--check subspace takes one --open")
    obj = _load(args.file, FinitePoset, FiniteTopSpace)
    if isinstance(obj, FiniteTopSpace):
        result = constructions.precompact_open_poset(obj)
        rows = [("space", obj.name), ("opens", len(result.poset)), ("mf-points", len(result.space)),
                ("hausdorff", result.hausdorff), ("bijective", result.bijective),
                ("opens-correspond", result.opens_correspond)]
        return rows, result.failure
    poset, failure = obj, ""
    space = topology.PosetSpace(poset, args.mode)
    rows = [("space", f"{args.mode}({poset.name})"), ("points", len(space))]
    if args.check in ("separation", "all"):
        rep = topology.separation_check(space)
        rows += [("T0", rep.t0), ("T1", rep.t1), ("uf_equals_mf", rep.uf_equals_mf)]
    if args.check in ("opens", "all"):
        rows += [(f"basic-open {p}", space.set_str(space.basic_open(p))) for p in poset.elements]
    if args.check in ("reduce", "all"):
        seed = list(poset.elements) if args.seed_basis is None else _elements_list(args.seed_basis)
        result = topology.reduce_countable_subposet(poset, seed)
        check = result.check
        rows += [("reduced-elements", ", ".join(result.subposet.elements)), ("stages", result.stages),
                 ("restriction-homeomorphism", check.ok)]
        failure = "" if check.ok else f"{check.failure} ({check.witness})"
    if args.check == "subspace":
        u = topology.PosetSpace(poset, "uf").open_mask(_elements_list((args.open or [""])[0]))
        result = constructions.open_subspace_uf(poset, u)
        rows += [("subspace-elements", ", ".join(result.subposet.elements) or "(none)"),
                 ("uf-points", len(result.sub_space)), ("bijection", result.ok)]
        failure = result.failure
    return rows, failure


def _cmd_product(args):
    factors = [_load(path, FinitePoset) for path in args.files]
    result = constructions.product_poset(factors)
    rows = [("product-elements", len(result.poset))]
    rows += [(f"adjoined-top {k}", t) for k, t in enumerate(result.adjoined_tops) if t is not None]
    rows += [("mf-points", len(result.space)),
             ("factor-mf-points", " * ".join(str(len(sp)) for sp in result.factor_spaces)),
             ("maps-verified", result.ok)]
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(poset_to_text(result.poset))
        except OSError:
            raise _CannotWrite(args.output) from None
        rows.append(("written", args.output))
    return rows, result.failure


def _cmd_gdelta(args):
    poset = _load(args.file, FinitePoset)
    opens = [_elements_list(u) for u in args.open or []]
    if args.mode == "mf":
        result = constructions.gdelta_mf_poset(poset, opens)
        rows = [("stage-poset-elements", len(result.poset)), ("stage-cap", result.stage_cap),
                ("empty-intersection", not result.intersection),
                ("intersection-points", result.intersection.bit_count()),
                ("stage-mf-points", len(result.stage_space)), ("bijection", result.ok)]
        return rows, result.failure
    result = constructions.gdelta_uf_poset(poset, opens)
    inf = constructions.INF
    ranks = ", ".join(f"{p}={'inf' if g == inf else g}" for p, g in result.ranks.items())
    rows = [("carrier", ", ".join(result.subposet.elements) or "(none)"), ("ranks", ranks or "(none)")]
    rows += [(f"claim-{c}", result.claims[c]) for c in sorted(result.claims)]
    rows.append(("bijection", result.ok))
    return rows, result.failure


def _cmd_formalballs(args):
    metric = _load(args.file, RationalMetric)
    if not metric.points:
        raise PosetError(f"metric {metric.name} has no point to start the point chain from")
    balls = constructions.formal_ball_poset(metric, args.max_denom, args.max_radius)
    rows = [("metric", metric.name), ("grid", f"k/{args.max_denom} up to {balls.max_radius}")]
    for root in balls.roots():
        refs = balls.refinements(root, args.budget)
        rows.append((f"root {root}", f"{len(refs)} refinements at budget {args.budget}"))
        rows += [f"  {r}" for r in refs[:5]]
    chain = constructions.point_chain(balls, sorted(metric.points)[0], args.depth)
    rows.append(("point-chain", " > ".join(chain.chain)))
    return rows, ""


def _cmd_stargame(args):
    poset = _load(args.file, FinitePoset)
    solution = games.star_game_solve(poset)
    return [("winner", solution.winner),
            ("core", f"{{{', '.join(sorted(solution.fixed_point, key=poset.index))}}}"),
            ("iterations", solution.iterations), ("strategy", solution.strategy.name),
            ("table", "every pick wins; player I cannot sustain the conditions")], ""


def _cmd_stargame_play(args):
    if args.poset != "bintree":
        raise _Usage("only the built-in 'bintree' generated poset is available")
    tree = BinaryTreePoset()
    if set(args.f) - {"0", "1"}:
        raise _Usage("--f must be a string of 0s and 1s")
    bits = [int(b) for b in args.f]
    play = games.star_game_referee(tree, games.splitting_strategy(tree), bits, args.rounds)
    return play.log_lines() + [("chain", " > ".join(play.chain.chain))], ""


def _cmd_choquet(args):
    poset = _load(args.file, FinitePoset)
    space = topology.PosetSpace(poset, args.mode)
    transcript = games.choquet_referee(space, games.scripted_random_choquet_i(args.seed),
                                       games.canonical_choquet_strategy(space), args.rounds)
    failure = transcript.illegal or "II's answers have an empty intersection"
    return transcript.log_lines(), "" if transcript.winner_at_horizon == "II" else str(failure)


def _cmd_mf_characterize(args):
    space = _load(args.file, FiniteTopSpace)
    report = choquet_mf.mf_characterization_check(space, args.depth, seed=args.seed)
    rows = [("conditions", report.condition_count), ("maximal-filters", report.filter_count),
            ("depth-too-small", len(report.depth_too_small)),
            ("refinements-checked", report.refinements_checked),
            ("refinements-ok", report.refinements_ok), ("bijection", report.bijection)]
    rows += [(f"phi {k}", space.points[report.phi[k]]) for k in sorted(report.phi)]
    ok = report.bijection and report.refinements_ok
    return rows, "" if ok else report.failure or "a sampled refinement failed"


def _cmd_domain(args):
    poset = _load(args.file, FinitePoset)
    if args.check == "ideal":
        dcpo = domain_theory.ideal_completion(poset).dcpo
        return [("ideals", len(dcpo)), ("maximal", ", ".join(dcpo.dual().minimals()))], ""
    completion = domain_theory.filter_completion(poset)
    cls = domain_theory.dcpo_classify(completion.dcpo)
    report = domain_theory.scott_max_homeomorphism_check(poset)
    rows = [("filters", len(completion.dcpo)),
            ("compact-equals-principal", completion.compact_matches_principal),
            ("continuous", cls.is_continuous), ("algebraic", cls.is_algebraic)]
    rows += [(f"correspondence {p}", match) for p, match in report.table]
    rows.append(("scott-topology-matches", report.ok))
    return rows, report.detail


def _cmd_topo_order(args):
    mf = None
    if args.construct == "from-poset":
        result = semi_topogenous.order_from_poset(_load(args.file, FinitePoset))
        order, axioms, comp, note = result.order, result.axioms, result.completeness, ()
    else:
        space = _load(args.file, FiniteTopSpace)
        order = semi_topogenous.interval_order(space)
        if args.check == "all" and space.is_t1():  # the construction checks the axioms itself
            mf = semi_topogenous.mf_poset_from_order(space, order)
            axioms = mf.axioms
        else:
            axioms = semi_topogenous.check_axioms_and_generation(order)
        comp = semi_topogenous.completeness_check(space, order)
        note = (f"({comp.meeting_filters} meeting filters)",)
    rows = [("relation-pairs", sum(row.bit_count() for row in order.rows)), ("axioms", axioms.axioms_ok),
            ("generates", axioms.generates), ("complete", comp.complete, *note)]
    if axioms.violations:  # the first axiom failure, else a generation failure: every order is complete
        failure = axioms.violations[0]
    else:
        failure = "" if axioms.generates else "the order does not generate the topology"
    if mf is not None:
        rows.append(("mf-bijection", mf.bijective and mf.membership_equivalence))
        failure = failure or mf.failure
    if args.serialize:
        rows += order.serialize()
    return rows, failure


def _cmd_baire(args):
    poset = _load(args.file, FinitePoset)
    if not len(poset):
        raise _Usage(f"poset {poset.name} has no elements; the game needs one to start from")
    dense_sets = [frozenset(_elements_list(d)) for d in args.dense or []] or [frozenset(poset.minimals())]
    for i, d in enumerate(dense_sets):
        if not games.is_dense_elements(poset, d):
            raise _Usage(f"--dense set {i} is not dense")
    selectors = [games.element_set_selector(poset, d) for d in dense_sets]
    play = games.baire_generic_filter(poset, selectors, args.start or poset.elements[0], args.rounds)
    landing = games.landing_filter(poset, play)
    space = topology.PosetSpace(poset, "mf")
    idx = space.point_index(landing)
    miss = next((i for i, d in enumerate(dense_sets) if not space.open_mask(d) >> idx & 1), None)
    rows = [("chain", " > ".join(play.chain)), ("maximal-filter", landing),
            ("lands-in-every-open", miss is None)]
    return rows, "" if miss is None else f"dense set {miss} misses the maximal filter"


# every public module operation but restriction_homeomorphism_check, grouped by the verb that drives it
OPERATION_COVERAGE = {
    "filters": ("validate_poset", "enumerate_filters", "classify_filter",
                "extend_to_maximal", "upward_closure", "convert_strict_nonstrict"),
    "space": ("validate_poset", "basic_open", "separation_check",
              "reduce_countable_subposet", "open_subspace_uf", "precompact_open_poset"),
    "product": ("product_poset",),
    "gdelta": ("gdelta_mf_poset", "gdelta_uf_poset"),
    "formalballs": ("formal_ball_poset",),
    "stargame": ("star_game_solve",),
    "stargame-play": ("star_game_referee", "incompatible"),
    "choquet": ("canonical_choquet_strategy", "choquet_referee"),
    "mf-characterize": ("validate_condition", "condition_lt", "refine_conditions",
                        "mf_characterization_check"),
    "domain": ("filter_completion", "way_below", "dcpo_classify",
               "scott_max_homeomorphism_check", "ideal_completion"),
    "topo-order": ("check_axioms_and_generation", "interval_order",
                   "completeness_check", "mf_poset_from_order", "order_from_poset"),
    "baire": ("baire_generic_filter",),
}


@functools.cache
def build_parser():
    """The posetctl parser, built on first use and shared by every ``run`` call."""
    parser = argparse.ArgumentParser(prog="posetctl", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, command, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=command)
        return p

    p = verb("filters", _cmd_filters, "enumerate or classify filters of a poset")
    p.add_argument("file")
    p.add_argument("--kind", choices=("all", "maximal", "unbounded"), default="maximal")
    p.add_argument("--classify", metavar="ELEMS", help="comma-separated element set")
    p.add_argument("--extend", metavar="ELEMS", help="extend this filter to a maximal one")
    p.add_argument("--upclose", metavar="ELEMS", help="print the upward closure")

    p = verb("space", _cmd_space, "filter-space checks, or the open poset of a space file")
    p.add_argument("file")
    p.add_argument("--mode", choices=("mf", "uf"), default="mf")
    p.add_argument("--check", choices=("separation", "opens", "reduce", "subspace", "all"),
                   default="separation")
    p.add_argument("--seed-basis", metavar="ELEMS")
    p.add_argument("--open", action="append", metavar="ELEMS")

    p = verb("product", _cmd_product, "product poset with its point maps")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", help="write the product poset to this file")

    p = verb("gdelta", _cmd_gdelta, "stage or rank poset for an intersection of opens")
    p.add_argument("file")
    p.add_argument("--mode", choices=("mf", "uf"), default="mf")
    p.add_argument("--open", action="append", metavar="ELEMS",
                   help="element set of one open; repeatable")

    p = verb("formalballs", _cmd_formalballs, "formal balls over a rational metric")
    p.add_argument("file")
    p.add_argument("--max-denom", type=int, default=8)
    p.add_argument("--max-radius", type=int, default=4)
    p.add_argument("--budget", type=int, default=2)
    p.add_argument("--depth", type=int, default=3)

    p = verb("stargame", _cmd_stargame, "solve the star game on a finite poset")
    p.add_argument("file")

    p = verb("stargame-play", _cmd_stargame_play, "run the splitting strategy on the binary tree")
    p.add_argument("--poset", default="bintree")
    p.add_argument("--f", required=True, help="guide bits for player II")
    p.add_argument("--rounds", type=int, default=20)

    p = verb("choquet", _cmd_choquet, "canonical player II against a random legal script")
    p.add_argument("file")
    p.add_argument("--mode", choices=("mf", "uf"), default="mf")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = verb("mf-characterize", _cmd_mf_characterize, "bounded condition-poset check for a space")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    p = verb("domain", _cmd_domain, "filter completion and the Scott topology check")
    p.add_argument("file")
    p.add_argument("--check", choices=("lemma", "ideal"), default="lemma")

    p = verb("topo-order", _cmd_topo_order, "subset orders: build and check")
    p.add_argument("file")
    p.add_argument("--construct", choices=("interval", "from-poset"), default="interval")
    p.add_argument("--check", choices=("axioms", "all"), default="all")
    p.add_argument("--serialize", action="store_true")

    p = verb("baire", _cmd_baire, "generic filter through dense opens")
    p.add_argument("file")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--start")
    p.add_argument("--dense", action="append", metavar="ELEMS")

    parser.verbs = sub.choices  # verb -> its subparser, for parse_argv
    return parser


def _line(row) -> str:
    """A plain string as it is; ``(key, *values)`` as ``key: value ...``, booleans lowercased."""
    if isinstance(row, str):
        return row
    key, *values = row
    return f"{key}: " + " ".join(str(v).lower() if isinstance(v, bool) else f"{v}" for v in values)


def parse_argv(argv):
    """``build_parser().parse_args(argv)``; a known verb's arguments go to its own subparser alone."""
    parser = build_parser()
    if not argv or argv[0] not in parser.verbs:
        return parser.parse_args(argv)
    args, extra = parser.verbs[argv[0]].parse_known_args(argv[1:], argparse.Namespace(verb=argv[0]))
    if extra:  # the message and exit status of the full parser
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def run(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    try:
        with contextlib.redirect_stdout(stdout):  # --help reaches the caller's stream
            args = parse_argv(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        rows, failure = args.run(args)
    except _Usage as exc:
        error = f"usage error: {exc}"
    except ParseError as exc:
        error = f"parse error: {exc}"
    except OSError as exc:
        error = f"cannot read {exc.filename}"
    except _CannotWrite as exc:
        error = f"cannot write {exc}"
    except PosetError as exc:
        error = f"error: {exc}"
    else:
        if failure:
            rows.append(("witness", failure))
        stdout.write("".join(_line(row) + "\n" for row in rows))
        return 1 if failure else 0
    print(error, file=stdout)
    return 2


def main():
    import signal  # imported here, so that importing this module loads nothing new
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the run as it ends cat, not as a failed check
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
