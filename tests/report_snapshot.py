"""Short hashes of posetctl reports over every small input, kept in report_snapshot.json.

The argvs are fixed: every labeled poset with at most 4 elements under
each of POSET_ARGVS, and every topology on 1 to 3 points under each of
TOPOLOGY_ARGVS (T1_ARGVS on the T1 ones only).  MALFORMED_ARGVS pin the
parse-error reports: each input file of a small poset or topology, and
each metric file in bench/fixtures, is run with each of its lines
deleted and with each repeated; WRONG_KIND_ARGV feeds a poset to a
metric verb.  Each report is the exit code and the text ``cli.run``
writes, hashed to 8 hex digits.  The snapshot keys them compactly: per
argv template, the hashes of its inputs in catalog order, separated by
spaces.

    PYTHONPATH=src python tests/report_snapshot.py          # rewrite the snapshot
    PYTHONPATH=src python tests/report_snapshot.py --check  # exit 1 naming the first argv that differs

pytest does not collect this file; test_report_snapshot.py runs the check.
"""

import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from posetspace import catalog, cli
from posetspace.files import poset_to_text

SNAPSHOT = pathlib.Path(__file__).with_name("report_snapshot.json")

# {f} is the input file; {u} and {v} are a pair of opens, every element but the last and the first element
POSET_ARGVS = (
    "space {f} --check all --mode mf",
    "space {f} --check all --mode uf",
    "space {f} --check subspace --open {u}",
    "domain {f} --check lemma",
    "domain {f} --check ideal",
    "stargame {f}",
    "choquet {f} --mode mf --seed 0",
    "choquet {f} --mode mf --seed 1",
    "choquet {f} --mode uf --seed 0",
    "choquet {f} --mode uf --seed 1",
    "filters {f} --kind all",
    "gdelta {f} --mode mf --open {u} --open {v}",
    "gdelta {f} --mode uf --open {u} --open {v}",
    "topo-order {f} --construct from-poset --serialize",
    "baire {f}",
    "product {f} {f}",
)
TOPOLOGY_ARGVS = ("space {f}", "topo-order {f} --serialize", "topo-order {f} --check axioms")
T1_ARGVS = ("mf-characterize {f} --depth 1",)
# {m} is a variant of an input file with one line deleted or repeated: of each poset file with at most
# 3 elements, each topology file on 1 or 2 points, and each metric file in FIXTURES, in that order
MALFORMED_ARGVS = ("filters {m}", "space {m}", "formalballs {m}")
WRONG_KIND_ARGV = "formalballs {f}"
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "bench" / "fixtures"


def space_to_text(space) -> str:
    """A space file for ``space``, its basis members named B0, B1, ..."""
    lines = [f"space {space.name}"] + [f"point {p}" for p in space.points]
    lines += [" ".join([f"open B{k}"] + [space.points[x] for x in range(len(space)) if b >> x & 1])
              for k, b in enumerate(space.basis)]
    return "\n".join(lines) + "\n"


def _variants(text) -> list:
    """``text`` with each of its lines deleted, then with each of them repeated."""
    lines = text.splitlines(keepends=True)
    return (["".join(lines[:k] + lines[k + 1:]) for k in range(len(lines))]
            + ["".join(lines[:k + 1] + lines[k:]) for k in range(len(lines))])


def _inputs(directory):
    """Per argv template, the format fields of each input, after writing the input files to ``directory``."""
    posets = catalog.posets_up_to(4)
    topologies = [t for n in range(1, 4) for t in catalog.all_topologies(n)]
    fields = {}
    for i, p in enumerate(posets):
        (directory / f"p{i}.poset").write_text(poset_to_text(p), encoding="utf-8")
    for i, t in enumerate(topologies):
        (directory / f"t{i}.space").write_text(space_to_text(t), encoding="utf-8")
    poset_fields = [{"f": f"p{i}.poset", "u": ",".join(p.elements[:-1] or p.elements), "v": p.elements[0]}
                    for i, p in enumerate(posets)]
    for template in POSET_ARGVS:
        fields[template] = poset_fields
    for template in TOPOLOGY_ARGVS:
        fields[template] = [{"f": f"t{i}.space"} for i in range(len(topologies))]
    for template in T1_ARGVS:
        fields[template] = [{"f": f"t{i}.space"} for i, t in enumerate(topologies) if t.is_t1()]
    sources = ([(f"p{i}.poset", poset_to_text(p)) for i, p in enumerate(posets) if len(p) <= 3],
               [(f"t{i}.space", space_to_text(t)) for i, t in enumerate(topologies) if len(t) <= 2],
               [(f.name, f.read_text(encoding="utf-8")) for f in sorted(FIXTURES.glob("*.metric"))])
    for template, files in zip(MALFORMED_ARGVS, sources):
        fields[template] = []
        for name, text in files:
            for k, variant in enumerate(_variants(text)):
                (directory / f"m{k}-{name}").write_text(variant, encoding="utf-8")
                fields[template].append({"m": f"m{k}-{name}"})
    fields[WRONG_KIND_ARGV] = [{"f": "p0.poset"}]
    return fields


def _report_hash(argv) -> str:
    out = io.StringIO()
    code = cli.run(argv, out)
    return hashlib.blake2b(f"{code}\n{out.getvalue()}".encode(), digest_size=4).hexdigest()


def reports(directory) -> dict:
    """Argv template -> an (argv, report hash) pair per input, the inputs written to and run in ``directory``."""
    directory = pathlib.Path(directory)
    fields = _inputs(directory)
    here = os.getcwd()
    os.chdir(directory)  # relative file names, so no report or argv holds the directory
    try:
        return {t: [(t.format(**f), _report_hash(t.format(**f).split())) for f in fs] for t, fs in fields.items()}
    finally:
        os.chdir(here)


def snapshot_of(runs: dict) -> dict:
    return {template: " ".join(h for _, h in pairs) for template, pairs in runs.items()}


def first_difference(expected: dict, runs: dict):
    """The first argv, in template then catalog order, whose hash differs from ``expected``; None when all match."""
    for template, pairs in runs.items():
        want = expected.get(template, "").split()
        for k, (argv, h) in enumerate(pairs):
            if k >= len(want) or want[k] != h:
                return argv
        if len(want) != len(pairs):
            return f"{template} (the snapshot has {len(want)} inputs, the catalog {len(pairs)})"
    gone = sorted(set(expected) - set(runs))
    return f"{gone[0]} (a template no longer run)" if gone else None


def main(argv):
    with tempfile.TemporaryDirectory() as directory:
        runs = reports(directory)
    count = sum(map(len, runs.values()))
    if argv == ["--check"]:
        differ = first_difference(json.loads(SNAPSHOT.read_text(encoding="utf-8")), runs)
        print(f"{count} reports: " + ("match the snapshot" if differ is None else f"differ at posetctl {differ}"))
        return 0 if differ is None else 1
    if argv:
        print("usage: report_snapshot.py [--check]", file=sys.stderr)
        return 2
    SNAPSHOT.write_text(json.dumps(snapshot_of(runs), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {SNAPSHOT.name}: {count} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
