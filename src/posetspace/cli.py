"""Command-line dispatch: parse inputs, run one operation, print a report.

Reports are deterministic key/value or table lines, so identical
invocations produce byte-identical output.  Exit codes: 0 for success or
a verified property, 1 for a property-check failure (the witness is
printed), 2 for usage or parse errors.
"""

from __future__ import annotations

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


def _load(path, want):
    obj = parse_input_file(path)
    names = {FinitePoset: "poset", RationalMetric: "metric", FiniteTopSpace: "space"}
    if not isinstance(obj, want):
        raise _Usage(f"{path} holds a {names[type(obj)]}; this command needs a {names[want]}")
    return obj


def _elements_list(text):
    # an optional "NAME=" prefix labels the open, as in --open U1=a,b
    text = text.split("=", 1)[-1]
    return [x for x in text.split(",") if x]


def _cmd_filters(args, out):
    poset = _load(args.file, FinitePoset)
    if args.upclose is not None:
        closed = filters.upward_closure(poset, _elements_list(args.upclose))
        out(f"upward-closure: {{{', '.join(sorted(closed, key=poset.index))}}}")
        return 0
    if args.classify is not None:
        cls = filters.classify_filter(poset, _elements_list(args.classify))
        out(f"is_filter: {str(cls.is_filter).lower()}")
        out(f"is_unbounded: {str(cls.is_unbounded).lower()}")
        out(f"is_maximal: {str(cls.is_maximal).lower()}")
        return 0
    if args.extend is not None:
        base = filters.Filter.of(poset, _elements_list(args.extend))
        out(f"maximal-extension: {filters.extend_to_maximal(poset, base)}")
        return 0
    for f in filters.enumerate_filters(poset, args.kind):
        out(f"filter: {f}")
    return 0


def _cmd_space(args, out):
    if args.check == "subspace" and len(args.open or []) > 1:
        raise _Usage("--check subspace takes one --open")
    obj = parse_input_file(args.file)
    if isinstance(obj, FiniteTopSpace):
        result = constructions.precompact_open_poset(obj)
        out(f"space: {obj.name}")
        out(f"opens: {len(result.poset)}")
        out(f"mf-points: {len(result.space.points)}")
        out(f"hausdorff: {str(result.hausdorff).lower()}")
        out(f"bijective: {str(result.bijective).lower()}")
        out(f"opens-correspond: {str(result.opens_correspond).lower()}")
        if not (result.bijective and result.opens_correspond):
            out(f"witness: {result.failure}")
            return 1
        return 0
    poset = obj
    space = topology.PosetSpace(poset, args.mode)
    out(f"space: {args.mode}({poset.name})")
    out(f"points: {len(space.points)}")
    code = 0
    if args.check in ("separation", "all"):
        rep = topology.separation_check(space)
        out(f"T0: {str(rep.t0).lower()}")
        out(f"T1: {str(rep.t1).lower()}")
        out(f"uf_equals_mf: {str(rep.uf_equals_mf).lower()}")
    if args.check in ("opens", "all"):
        for p in poset.elements:
            out(f"basic-open {p}: {space.set_str(space.basic_open(p))}")
    if args.check in ("reduce", "all"):
        seed = list(poset.elements) if args.seed_basis is None else _elements_list(args.seed_basis)
        result = topology.reduce_countable_subposet(poset, seed)
        out(f"reduced-elements: {', '.join(result.kept)}")
        out(f"stages: {result.stages}")
        rep = topology.restriction_homeomorphism_check(poset, result.subposet)
        out(f"restriction-homeomorphism: {str(rep.ok).lower()}")
        if not rep.ok:
            out(f"witness: {rep.reason} ({rep.counterexample})")
            code = 1
    if args.check == "subspace":
        space_uf = topology.PosetSpace(poset, "uf")
        u = space_uf.open_from_elements(_elements_list(args.open[0]) if args.open else [])
        result = constructions.open_subspace_uf(poset, u)
        out(f"subspace-elements: {', '.join(result.kept) if result.kept else '(none)'}")
        out(f"uf-points: {len(result.sub_space.points)}")
        out(f"bijection: {str(result.ok).lower()}")
        if not result.ok:
            out(f"witness: {result.failure}")
            code = 1
    return code


def _cmd_product(args, out):
    factors = [_load(path, FinitePoset) for path in args.files]
    result = constructions.product_poset(factors)
    out(f"product-elements: {len(result.poset)}")
    for k, t in enumerate(result.adjoined_tops):
        if t is not None:
            out(f"adjoined-top {k}: {t}")
    out(f"mf-points: {len(result.space.points)}")
    sizes = " * ".join(str(len(sp.points)) for sp in result.factor_spaces)
    out(f"factor-mf-points: {sizes}")
    out(f"maps-verified: {str(result.ok).lower()}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(poset_to_text(result.poset))
        out(f"written: {args.output}")
    if not result.ok:
        out(f"witness: {result.failure}")
        return 1
    return 0


def _cmd_gdelta(args, out):
    poset = _load(args.file, FinitePoset)
    opens = [_elements_list(u) for u in args.open or []]
    if args.mode == "mf":
        result = constructions.gdelta_mf_poset(poset, opens)
        out(f"stage-poset-elements: {len(result.poset)}")
        out(f"stage-cap: {result.stage_cap}")
        out(f"empty-intersection: {str(result.empty_intersection).lower()}")
        out(f"intersection-points: {len(result.intersection)}")
        out(f"stage-mf-points: {len(result.stage_space.points)}")
        out(f"bijection: {str(result.ok).lower()}")
        if not result.ok:
            out(f"witness: {result.failure}")
            return 1
        return 0
    result = constructions.gdelta_uf_poset(poset, opens)
    out(f"carrier: {', '.join(result.carrier) if result.carrier else '(none)'}")
    ranks = ", ".join(
        f"{p}={'inf' if result.ranks[p] == constructions.INF else result.ranks[p]}"
        for p in result.carrier
    )
    out(f"ranks: {ranks if ranks else '(none)'}")
    for c in sorted(result.claims):
        out(f"claim-{c}: {str(result.claims[c]).lower()}")
    out(f"bijection: {str(result.ok).lower()}")
    if not result.ok:
        out(f"witness: {result.failure}")
        return 1
    return 0


def _cmd_formalballs(args, out):
    metric = _load(args.file, RationalMetric)
    if not metric.points:
        raise PosetError(f"metric {metric.name} has no point to start the point chain from")
    balls = constructions.formal_ball_poset(metric, args.max_denom, args.max_radius)
    found = {root: balls.refinements(root, args.budget) for root in balls.roots()}  # refusals print alone
    chain = constructions.point_chain(balls, sorted(metric.points)[0], args.depth)
    out(f"metric: {metric.name}")
    out(f"grid: k/{args.max_denom} up to {balls.max_radius}")
    for root, refs in found.items():
        out(f"root {root}: {len(refs)} refinements at budget {args.budget}")
        for r in refs[:5]:
            out(f"  {r}")
    out(f"point-chain: {' > '.join(chain.chain)}")
    return 0


def _cmd_stargame(args, out):
    poset = _load(args.file, FinitePoset)
    solution = games.star_game_solve(poset)
    out(f"winner: {solution.winner}")
    out(f"core: {{{', '.join(sorted(solution.fixed_point, key=poset.index))}}}")
    out(f"iterations: {solution.iterations}")
    out(f"strategy: {solution.strategy.name}")
    out("table: every pick wins; player I cannot sustain the conditions")
    return 0


def _cmd_stargame_play(args, out):
    if args.poset != "bintree":
        raise _Usage("only the built-in 'bintree' generated poset is available")
    tree = BinaryTreePoset()
    bits = [int(b) for b in args.f]
    if any(b not in (0, 1) for b in bits):
        raise _Usage("--f must be a string of 0s and 1s")
    play = games.star_game_referee(tree, games.splitting_strategy(tree), bits, args.rounds)
    for line in play.log_lines():
        out(line)
    out(f"chain: {' > '.join(play.chain.chain)}")
    return 0


def _cmd_choquet(args, out):
    poset = _load(args.file, FinitePoset)
    space = topology.PosetSpace(poset, args.mode)
    transcript = games.choquet_referee(
        space,
        games.scripted_random_choquet_i(args.seed),
        games.canonical_choquet_strategy(space),
        args.rounds,
    )
    for line in transcript.log_lines():
        out(line)
    return 0 if transcript.winner_at_horizon == "II" else 1


def _cmd_mf_characterize(args, out):
    space = _load(args.file, FiniteTopSpace)
    report = choquet_mf.mf_characterization_check(space, args.depth, seed=args.seed)
    out(f"conditions: {report.condition_count}")
    out(f"maximal-filters: {report.filter_count}")
    out(f"depth-too-small: {len(report.depth_too_small)}")
    out(f"refinements-checked: {report.refinements_checked}")
    out(f"refinements-ok: {str(report.refinements_ok).lower()}")
    out(f"bijection: {str(report.bijection).lower()}")
    for k in sorted(report.phi):
        out(f"phi {k}: {space.points[report.phi[k]]}")
    if not (report.bijection and report.refinements_ok):
        out(f"witness: {report.failure or 'a sampled refinement failed'}")
        return 1
    return 0


def _cmd_domain(args, out):
    poset = _load(args.file, FinitePoset)
    if args.check == "ideal":
        completion = domain_theory.ideal_completion(poset)
        out(f"ideals: {len(completion.dcpo.poset)}")
        out(f"maximal: {', '.join(completion.dcpo.maximal_elements())}")
        return 0
    completion = domain_theory.filter_completion(poset)
    out(f"filters: {len(completion.dcpo.poset)}")
    out(f"compact-equals-principal: {str(completion.compact_matches_principal).lower()}")
    cls = domain_theory.dcpo_classify(completion.dcpo)
    out(f"continuous: {str(cls.is_continuous).lower()}")
    out(f"algebraic: {str(cls.is_algebraic).lower()}")
    report = domain_theory.scott_max_homeomorphism_check(poset)
    for p, match in report.table:
        out(f"correspondence {p}: {match}")
    out(f"scott-topology-matches: {str(report.ok).lower()}")
    if not (report.ok and completion.compact_matches_principal):
        out(f"witness: {report.detail or 'compact elements differ from principal filters'}")
        return 1
    return 0


def _cmd_topo_order(args, out):
    code = 0
    if args.construct == "interval":
        space = _load(args.file, FiniteTopSpace)
        order = semi_topogenous.interval_order(space)
        rep = semi_topogenous.check_axioms_and_generation(order)
        out(f"relation-pairs: {len(order.rel)}")
        out(f"axioms: {str(rep.axioms_ok).lower()}")
        out(f"generates: {str(rep.generates).lower()}")
        comp = semi_topogenous.completeness_check(space, order)
        out(f"complete: {str(comp.complete).lower()} ({comp.meeting_filters} meeting filters)")
        if args.check == "all" and space.is_t1():
            result = semi_topogenous.mf_poset_from_order(space, order)
            out(f"mf-bijection: {str(result.bijective and result.membership_equivalence).lower()}")
            if not (result.bijective and result.membership_equivalence):
                out(f"witness: {result.failure}")
                code = 1
        if not (rep.axioms_ok and rep.generates and comp.complete):
            code = 1
        if args.serialize:
            for line in order.serialize():
                out(line)
        return code
    poset = _load(args.file, FinitePoset)
    result = semi_topogenous.order_from_poset(poset)
    out(f"relation-pairs: {len(result.order.rel)}")
    out(f"axioms: {str(result.axioms.axioms_ok).lower()}")
    out(f"generates: {str(result.axioms.generates).lower()}")
    out(f"complete: {str(result.completeness.complete).lower()}")
    if args.serialize:
        for line in result.order.serialize():
            out(line)
    return 0 if result.ok else 1


def _cmd_baire(args, out):
    poset = _load(args.file, FinitePoset)
    if not len(poset):
        raise _Usage(f"poset {poset.name} has no elements; the game needs one to start from")
    dense_sets = [frozenset(_elements_list(d)) for d in args.dense or []]
    if not dense_sets:
        dense_sets = [frozenset(poset.minimals())]
    for i, d in enumerate(dense_sets):
        if not games.is_dense_elements(poset, d):
            raise _Usage(f"--dense set {i} is not dense")
    selectors = [games.element_set_selector(poset, d) for d in dense_sets]
    start = args.start or poset.elements[0]
    play = games.baire_generic_filter(poset, selectors, start, args.rounds)
    out(f"chain: {' > '.join(play.chain)}")
    landing = games.landing_filter(poset, play)
    out(f"maximal-filter: {landing}")
    space = topology.PosetSpace(poset, "mf")
    idx = space.point_index(landing)
    hits = all(idx in space.open_from_elements(d) for d in dense_sets)
    out(f"lands-in-every-open: {str(hits).lower()}")
    return 0 if hits else 1


# every public module operation, grouped by the verb that drives it
OPERATION_COVERAGE = {
    "filters": ("validate_poset", "enumerate_filters", "classify_filter",
                "extend_to_maximal", "upward_closure", "convert_strict_nonstrict"),
    "space": ("validate_poset", "basic_open", "separation_check",
              "reduce_countable_subposet", "restriction_homeomorphism_check",
              "open_subspace_uf", "precompact_open_poset"),
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

    p = sub.add_parser("filters", help="enumerate or classify filters of a poset")
    p.add_argument("file")
    p.add_argument("--kind", choices=("all", "maximal", "unbounded"), default="maximal")
    p.add_argument("--classify", metavar="ELEMS", help="comma-separated element set")
    p.add_argument("--extend", metavar="ELEMS", help="extend this filter to a maximal one")
    p.add_argument("--upclose", metavar="ELEMS", help="print the upward closure")
    p.set_defaults(run=_cmd_filters)

    p = sub.add_parser("space", help="filter-space checks, or the open poset of a space file")
    p.add_argument("file")
    p.add_argument("--mode", choices=("mf", "uf"), default="mf")
    p.add_argument("--check", choices=("separation", "opens", "reduce", "subspace", "all"),
                   default="separation")
    p.add_argument("--seed-basis", metavar="ELEMS")
    p.add_argument("--open", action="append", metavar="ELEMS")
    p.set_defaults(run=_cmd_space)

    p = sub.add_parser("product", help="product poset with its point maps")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", help="write the product poset to this file")
    p.set_defaults(run=_cmd_product)

    p = sub.add_parser("gdelta", help="stage or rank poset for an intersection of opens")
    p.add_argument("file")
    p.add_argument("--mode", choices=("mf", "uf"), default="mf")
    p.add_argument("--open", action="append", metavar="ELEMS",
                   help="element set of one open; repeatable")
    p.set_defaults(run=_cmd_gdelta)

    p = sub.add_parser("formalballs", help="formal balls over a rational metric")
    p.add_argument("file")
    p.add_argument("--max-denom", type=int, default=8)
    p.add_argument("--max-radius", type=int, default=4)
    p.add_argument("--budget", type=int, default=2)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(run=_cmd_formalballs)

    p = sub.add_parser("stargame", help="solve the star game on a finite poset")
    p.add_argument("file")
    p.set_defaults(run=_cmd_stargame)

    p = sub.add_parser("stargame-play", help="run the splitting strategy on the binary tree")
    p.add_argument("--poset", default="bintree")
    p.add_argument("--f", required=True, help="guide bits for player II")
    p.add_argument("--rounds", type=int, default=20)
    p.set_defaults(run=_cmd_stargame_play)

    p = sub.add_parser("choquet", help="canonical player II against a random legal script")
    p.add_argument("file")
    p.add_argument("--mode", choices=("mf", "uf"), default="mf")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_choquet)

    p = sub.add_parser("mf-characterize", help="bounded condition-poset check for a space")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_mf_characterize)

    p = sub.add_parser("domain", help="filter completion and the Scott topology check")
    p.add_argument("file")
    p.add_argument("--check", choices=("lemma", "ideal"), default="lemma")
    p.set_defaults(run=_cmd_domain)

    p = sub.add_parser("topo-order", help="subset orders: build and check")
    p.add_argument("file")
    p.add_argument("--construct", choices=("interval", "from-poset"), default="interval")
    p.add_argument("--check", choices=("axioms", "all"), default="all")
    p.add_argument("--serialize", action="store_true")
    p.set_defaults(run=_cmd_topo_order)

    p = sub.add_parser("baire", help="generic filter through dense opens")
    p.add_argument("file")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--start")
    p.add_argument("--dense", action="append", metavar="ELEMS")
    p.set_defaults(run=_cmd_baire)

    return parser


def run(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout

    def out(line):
        print(line, file=stdout)

    try:
        with contextlib.redirect_stdout(stdout):  # --help reaches the caller's stream
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args, out)
    except _Usage as exc:
        out(f"usage error: {exc}")
        return 2
    except ParseError as exc:
        out(f"parse error: {exc}")
        return 2
    except FileNotFoundError as exc:
        out(f"cannot read {exc.filename}")
        return 2
    except PosetError as exc:
        out(f"error: {exc}")
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
