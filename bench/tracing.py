"""Timing wrappers installed on the library's public functions for a traced run.

The wrappers sit at module or class attributes, so they see every call made
through that attribute, by the benchmark or by library code that looks the
name up at call time.  Each wrapped call is a frame: its duration adds to the
caller's child time, and its self time is its duration minus that child
time.  Calls at instance level or coarser also leave a span record
(id, parent, instance, name, start, end) in memory; the per-query methods
(`basic_open`, `is_open`, `FinitePoset.index`) only bump counters, because a
sweep makes millions of them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from time import perf_counter

# domain-theory and star-game stats carry the size of the poset they ran on
_SIZED = {
    "domain_theory.filter_completion",
    "domain_theory.dcpo_classify",
    "domain_theory.way_below",
    "domain_theory.scott_max_homeomorphism_check",
    "games.star_game_solve",
}


def _size_of(arg):
    # filter_completion, scott check and star game take a poset;
    # dcpo_classify and way_below take a Dcpo over the completion
    # (n principal filters for an n-element poset)
    poset = getattr(arg, "poset", arg)
    return len(poset)


class Tracer:
    """Frames, counters and spans for the wrapped library calls of one run."""

    def __init__(self):
        self.stats = {}  # stat key -> [calls, busy_s, self_s]
        self.counts = {}  # count key -> int
        self.spans = []
        self.instance = None  # id of the instance (or "setup") running now
        self._stack = []  # open frames: [span id, child time]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original, wrapper)

    # -- frames and spans -------------------------------------------------

    def frame(self, name, fn, args, kwargs, span=True):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.count(f"{name}.raised")
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += duration
            st[2] += duration - frame[1]
            if span:
                self.spans.append((span_id, parent, self.instance, name, start, end))

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def timed(self, name, fn, span=True, after=None):
        """Wrap fn so each call is a frame named ``name``.

        ``after(result, args)`` runs on success and may add counts.
        """
        sized = name in _SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = f"{name}@n{_size_of(args[0])}" if sized else name
            result = self.frame(key, fn, args, kwargs, span)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def patch(self, owner, attribute, wrapper):
        self._patches.append((owner, attribute, getattr(owner, attribute), wrapper))

    def install(self):
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)

    def prepare(self, lib):
        """Build (not install) the wrappers for every traced library layer."""
        catalog, core, topology = lib.catalog, lib.poset_core, lib.topology
        games, cons, dt, cli = lib.games, lib.constructions, lib.domain_theory, lib.cli

        self.patch(catalog, "labeled_posets", self.timed("catalog.labeled_posets", catalog.labeled_posets))
        self.patch(catalog, "random_poset", self.timed("catalog.random_poset", catalog.random_poset))
        self.patch(core, "validate_poset", self.timed("poset_core.validate_poset", core.validate_poset))
        self.patch(core.FinitePoset, "index",
                   self.counted("poset_core.FinitePoset.index.calls", core.FinitePoset.index))

        def space_points(_, args):
            self.count("topology.PosetSpace.points", len(args[0].points))

        self.patch(topology.PosetSpace, "__init__",
                   self.timed("topology.PosetSpace", topology.PosetSpace.__init__, after=space_points))
        self.patch(topology.PosetSpace, "basic_open",
                   self.counted("topology.PosetSpace.basic_open.calls", topology.PosetSpace.basic_open))
        self.patch(topology.PosetSpace, "is_open",
                   self.counted("topology.PosetSpace.is_open.calls", topology.PosetSpace.is_open))

        def game_counts(transcript, _):
            self.count("games.choquet.rounds", len(transcript.rounds))
            self.count("games.choquet.illegal", transcript.illegal is not None)

        self.patch(games, "choquet_referee",
                   self.timed("games.choquet_referee", games.choquet_referee, after=game_counts))

        def timed_strategy(name, factory):
            # a strategy's moves run many times per game: frames, no spans
            @functools.wraps(factory)
            def make(*args, **kwargs):
                strategy = factory(*args, **kwargs)
                return dataclasses.replace(strategy, move=self.timed(name, strategy.move, span=False))

            return make

        self.patch(games, "scripted_random_choquet_i",
                   timed_strategy("games.move_i", games.scripted_random_choquet_i))
        self.patch(games, "canonical_choquet_strategy",
                   timed_strategy("games.move_ii", games.canonical_choquet_strategy))

        def star_counts(solution, _):
            self.count("games.star_game_solve.iterations", solution.iterations)

        self.patch(games, "star_game_solve",
                   self.timed("games.star_game_solve", games.star_game_solve, after=star_counts))

        def product_counts(result, _):
            self.count("constructions.product_poset.elements", len(result.poset))
            self.count("constructions.product_poset.not_ok", not result.ok)

        self.patch(cons, "product_poset",
                   self.timed("constructions.product_poset", cons.product_poset, after=product_counts))
        for fn in ("gdelta_mf_poset", "gdelta_uf_poset"):
            self.patch(cons, fn, self.timed(f"constructions.{fn}", getattr(cons, fn)))
        for fn in ("filter_completion", "dcpo_classify", "way_below", "scott_max_homeomorphism_check"):
            self.patch(dt, fn, self.timed(f"domain_theory.{fn}", getattr(dt, fn)))

        def exit_counts(code, _):
            self.count(f"cli.exit.{code}")

        run = cli.run

        def cli_run(argv=None, stdout=None):
            verb = argv[0] if argv else "(none)"
            code = self.frame(f"cli.{verb}", run, (argv,), {"stdout": stdout})
            exit_counts(code, None)
            return code

        self.patch(cli, "run", functools.wraps(run)(cli_run))
        self.patch(cli, "build_parser", self.timed("cli.build_parser", cli.build_parser))
        self.patch(cli, "parse_input_file", self.timed("files.parse_input_file", cli.parse_input_file))

        def condition_counts(report, _):
            self.count("choquet_mf.mf_characterization_check.conditions", report.condition_count)

        self.patch(lib.choquet_mf, "mf_characterization_check",
                   self.timed("choquet_mf.mf_characterization_check",
                              lib.choquet_mf.mf_characterization_check, after=condition_counts))
        for fn in ("interval_order", "check_axioms_and_generation", "completeness_check",
                   "mf_poset_from_order", "order_from_poset"):
            self.patch(lib.semi_topogenous, fn,
                       self.timed(f"semi_topogenous.{fn}", getattr(lib.semi_topogenous, fn)))

    # -- snapshots and output -----------------------------------------------

    def snapshot(self):
        return ({k: list(v) for k, v in self.stats.items()}, dict(self.counts))

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, instance, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "instance": instance,
                                         "name": name, "start": start, "end": end}) + "\n")


def layer_values(before, after):
    """Flatten the stats and counts accumulated between two snapshots.

    Frames give ``<name>.calls``, ``<name>.busy_s`` and ``<name>.self_s``;
    a sized frame ``<name>@n<k>`` gives ``<name>.<stat>.n<k>``, and its
    unsized totals are added up as well.
    """
    out = {}
    stats_before, counts_before = before
    stats_after, counts_after = after
    for key, (calls, busy, self_s) in stats_after.items():
        c0, b0, s0 = stats_before.get(key, (0, 0.0, 0.0))
        name, _, size = key.partition("@")
        suffix = f".{size}" if size else ""
        for stat, value in (("calls", calls - c0), ("busy_s", busy - b0), ("self_s", self_s - s0)):
            out[f"{name}.{stat}{suffix}"] = out.get(f"{name}.{stat}{suffix}", 0) + value
            if size:
                out[f"{name}.{stat}"] = out.get(f"{name}.{stat}", 0) + value
    for key, value in counts_after.items():
        out[key] = value - counts_before.get(key, 0)
    out["cli.raised"] = sum(v for k, v in out.items() if k.startswith("cli.") and k.endswith(".raised"))
    return out


def scaled(values, factor):
    """Scale the time values (busy_s, self_s) to the reference speed; counts stay."""
    return {k: v * factor if ".busy_s" in k or ".self_s" in k else v for k, v in values.items()}
