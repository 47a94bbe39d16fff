"""Line-based text formats for posets, metrics, and finite spaces, read by one pass in ``_parse``."""

from __future__ import annotations

from fractions import Fraction

from . import poset_core
from .poset_core import AntisymmetryViolation, FinitePoset, IrreflexivityViolation, PosetError
from .constructions import FiniteTopSpace, MetricAxiomViolation, RationalMetric


class ParseError(PosetError):
    def __init__(self, line_no, reason):
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}{reason}")
        self.line_no = line_no
        self.reason = reason


def _records(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line.split()


def _order_line(line_no, fields, ids, rels):
    if len(fields) != 3:
        raise ParseError(line_no, f"expected: {fields[0]} <a> <b>")
    if rels and rels[0][0] != fields[0]:
        raise ParseError(line_no, "cannot mix le and lt lines")
    return fields[0], (fields[1], fields[2]), line_no


def _build_poset(ids, rels, name):
    for _, pair, line_no in rels:
        for x in pair:
            if x not in ids:
                raise ParseError(line_no, f"relation mentions undeclared element {x!r}")
    pairs = [pair for _, pair, _ in rels]
    # through the module, so a wrapper patched onto poset_core sees the calls
    build = poset_core.strict_to_poset if rels and rels[0][0] == "lt" else poset_core.validate_poset
    try:
        return build(ids, pairs, name)
    except (AntisymmetryViolation, IrreflexivityViolation) as err:
        failure = err
    # pin the offending line: the shortest prefix of the pairs that raises. A prefix that raises
    # keeps raising as pairs are added (a cycle or a strict self pair stays), so bisect on its
    # length, keeping the first lo pairs building and the first hi raising
    lo, hi = 0, len(pairs)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            build(ids, pairs[:mid], name)
            lo = mid
        except (AntisymmetryViolation, IrreflexivityViolation) as err:
            hi, failure = mid, err
    raise ParseError(rels[hi - 1][2], str(failure))


def _dist_line(line_no, fields, ids, rels):
    if len(fields) != 4:
        raise ParseError(line_no, "expected: dist <a> <b> <num>/<den>")
    try:
        return (fields[1], fields[2]), Fraction(fields[3]), line_no
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"bad rational {fields[3]!r}") from None


def _build_metric(ids, rels, name):
    dist = {}
    for (a, b), value, line_no in rels:
        if (a, b) in dist and dist[(a, b)] != value:  # Fraction equality is slow: test a repeat only
            raise ParseError(line_no, f"conflicting distance for {a} {b}")
        dist[(a, b)] = value
    return RationalMetric(ids, dist, name)


def _open_line(line_no, fields, ids, rels):
    if len(fields) < 2:
        raise ParseError(line_no, "expected: open <name> <pt> ...")
    mask = 0
    for p in fields[2:]:  # only the points declared so far
        if p not in ids:
            raise ParseError(line_no, f"open mentions undeclared point {p!r}")
        mask |= 1 << ids[p]
    return mask


# kind -> (the directive declaring an id and what it declares, the texts refusing a second header and a
# header of the wrong arity, the relation directives, the check of one relation line into a record,
# the build step on the declared ids, the records and the name, and the errors it reports on no line)
_FORMATS = {
    "poset": ("elem", "element", "duplicate poset header", "expected: poset <name>", ("le", "lt"),
              _order_line, _build_poset, ()),  # the poset build pins its own errors to a line
    "metric": ("point", "point", "expected a single: metric <name>", "expected a single: metric <name>",
               ("dist",), _dist_line, _build_metric, MetricAxiomViolation),
    "space": ("point", "point", "expected a single: space <name>", "expected a single: space <name>",
              ("open",), _open_line, FiniteTopSpace, PosetError),
}


def _parse(text, kind=None):
    """Read a ``kind`` file, or with no ``kind`` one of the kind its first record names."""
    name = declare = None
    ids = {}  # declared id -> index, in line order
    rels = []
    for line_no, fields in _records(text):
        word = fields[0]
        if declare is None:  # the first record
            if kind is None:
                if word not in _FORMATS:
                    raise ParseError(line_no, f"unknown file kind {word!r}; expected poset, metric, or space")
                kind = word
            declare, noun, second_header, header_arity, relations, line, build, unlined = _FORMATS[kind]
        if word == kind:
            if name is not None:
                raise ParseError(line_no, second_header)
            if len(fields) != 2:
                raise ParseError(line_no, header_arity)
            name = fields[1]
        elif word == declare:
            if len(fields) != 2:
                raise ParseError(line_no, f"expected: {declare} <id>")
            if fields[1] in ids:
                raise ParseError(line_no, f"duplicate {noun} {fields[1]!r}")
            ids[fields[1]] = len(ids)
        elif word in relations:
            rels.append(line(line_no, fields, ids, rels))
        else:
            raise ParseError(line_no, f"unknown directive {word!r}")
    if kind is None:
        raise ParseError(None, "empty input")
    if name is None:
        raise ParseError(None, f"missing {kind} header")
    try:
        return build(ids, rels, name)
    except unlined as err:
        raise ParseError(None, str(err)) from None


def parse_poset_text(text) -> FinitePoset:
    """Parse ``poset <name>`` / ``elem <id>`` / ``le <a> <b>`` lines.

    ``lt`` lines give a strict relation instead; mixing the two is an
    error.  Validation failures are reported with the offending line.
    """
    return _parse(text, "poset")


def poset_to_text(poset: FinitePoset) -> str:
    """The ``poset`` file of ``poset``, spaces in its name written as ``_``.

    An id or name holding ``#`` is refused with PosetError: the reader would cut it at the comment.
    """
    for word in (poset.name, *poset.elements):
        if "#" in word:
            raise PosetError(f"cannot write {word!r} to a poset file: '#' starts a comment there")
    lines = [f"poset {poset.name.replace(' ', '_')}"]
    lines += [f"elem {e}" for e in poset.elements]
    lines += [f"le {a} {b}" for a, b in poset.pairs() if a != b]
    return "\n".join(lines) + "\n"


def parse_metric_text(text) -> RationalMetric:
    """Parse ``metric <name>`` / ``point <id>`` / ``dist <a> <b> <num>/<den>`` lines."""
    return _parse(text, "metric")


def parse_space_text(text) -> FiniteTopSpace:
    """Parse ``space <name>`` / ``point <id>`` / ``open <name> <pt>...`` lines.

    The named opens form the designated basis, read as point masks; it
    must cover the space and hold each point's minimal neighbourhood, the
    intersection of the opens around it (see FiniteTopSpace).
    """
    return _parse(text, "space")


def parse_input_text(text):
    """Dispatch on the leading keyword: poset, metric, or space."""
    return _parse(text)


def parse_input_file(path):
    with open(path, "rb") as handle:  # bytes, decoded at once: no text wrapper to build
        try:
            return parse_input_text(handle.read().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(None, f"{path} is not UTF-8 text (byte {exc.start})") from None
