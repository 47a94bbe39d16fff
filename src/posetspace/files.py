"""Line-based text formats for posets, metrics, and finite spaces."""

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
        if not line:
            continue
        yield line_no, line.split()


def parse_poset_text(text) -> FinitePoset:
    """Parse ``poset <name>`` / ``elem <id>`` / ``le <a> <b>`` lines.

    ``lt`` lines give a strict relation instead; mixing the two is an
    error.  Validation failures are reported with the offending line.
    """
    name = None
    elems = []
    seen = set()
    pairs = []
    strict = None
    for line_no, fields in _records(text):
        kind = fields[0]
        if kind == "poset":
            if name is not None:
                raise ParseError(line_no, "duplicate poset header")
            if len(fields) != 2:
                raise ParseError(line_no, "expected: poset <name>")
            name = fields[1]
        elif kind == "elem":
            if len(fields) != 2:
                raise ParseError(line_no, "expected: elem <id>")
            if fields[1] in seen:
                raise ParseError(line_no, f"duplicate element {fields[1]!r}")
            seen.add(fields[1])
            elems.append(fields[1])
        elif kind in ("le", "lt"):
            if len(fields) != 3:
                raise ParseError(line_no, f"expected: {kind} <a> <b>")
            if strict is None:
                strict = kind == "lt"
            elif strict != (kind == "lt"):
                raise ParseError(line_no, "cannot mix le and lt lines")
            pairs.append(((fields[1], fields[2]), line_no))
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")
    if name is None:
        raise ParseError(None, "missing poset header")
    for (a, b), line_no in pairs:
        for x in (a, b):
            if x not in seen:
                raise ParseError(line_no, f"relation mentions undeclared element {x!r}")
    # through the module, so a wrapper patched onto poset_core sees the calls
    build = poset_core.strict_to_poset if strict else poset_core.validate_poset
    try:
        return build(elems, [p for p, _ in pairs], name)
    except (AntisymmetryViolation, IrreflexivityViolation):
        # replay the pairs one at a time to pin the offending line; the loop always raises,
        # since its last prefix is the whole pair list, which has just raised
        for upto in range(1, len(pairs) + 1):
            try:
                build(elems, [p for p, _ in pairs[:upto]], name)
            except (AntisymmetryViolation, IrreflexivityViolation) as err:
                raise ParseError(pairs[upto - 1][1], str(err)) from None


def poset_to_text(poset: FinitePoset) -> str:
    lines = [f"poset {poset.name.replace(' ', '_')}"]
    lines += [f"elem {e}" for e in poset.elements]
    lines += [f"le {a} {b}" for a, b in poset.pairs() if a != b]
    return "\n".join(lines) + "\n"


def parse_metric_text(text) -> RationalMetric:
    """Parse ``metric <name>`` / ``point <id>`` / ``dist <a> <b> <num>/<den>`` lines."""
    name = None
    points = []
    dist = {}
    entries = []
    for line_no, fields in _records(text):
        kind = fields[0]
        if kind == "metric":
            if len(fields) != 2 or name is not None:
                raise ParseError(line_no, "expected a single: metric <name>")
            name = fields[1]
        elif kind == "point":
            if len(fields) != 2:
                raise ParseError(line_no, "expected: point <id>")
            if fields[1] in points:
                raise ParseError(line_no, f"duplicate point {fields[1]!r}")
            points.append(fields[1])
        elif kind == "dist":
            if len(fields) != 4:
                raise ParseError(line_no, "expected: dist <a> <b> <num>/<den>")
            try:
                value = Fraction(fields[3])
            except (ValueError, ZeroDivisionError):
                raise ParseError(line_no, f"bad rational {fields[3]!r}") from None
            entries.append(((fields[1], fields[2]), value, line_no))
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")
    if name is None:
        raise ParseError(None, "missing metric header")
    for (a, b), value, line_no in entries:
        if (a, b) in dist and dist[(a, b)] != value:
            raise ParseError(line_no, f"conflicting distance for {a} {b}")
        dist[(a, b)] = value
    try:
        return RationalMetric(points, dist, name)
    except MetricAxiomViolation as err:
        raise ParseError(None, str(err)) from None


def parse_space_text(text) -> FiniteTopSpace:
    """Parse ``space <name>`` / ``point <id>`` / ``open <name> <pt>...`` lines.

    The named opens form the designated basis, read as point masks; it
    must cover the space and hold each point's minimal neighbourhood, the
    intersection of the opens around it (see FiniteTopSpace).
    """
    name = None
    points = {}  # point name -> index
    basis = []
    for line_no, fields in _records(text):
        kind = fields[0]
        if kind == "space":
            if len(fields) != 2 or name is not None:
                raise ParseError(line_no, "expected a single: space <name>")
            name = fields[1]
        elif kind == "point":
            if len(fields) != 2:
                raise ParseError(line_no, "expected: point <id>")
            if fields[1] in points:
                raise ParseError(line_no, f"duplicate point {fields[1]!r}")
            points[fields[1]] = len(points)
        elif kind == "open":
            if len(fields) < 2:
                raise ParseError(line_no, "expected: open <name> <pt> ...")
            mask = 0
            for p in fields[2:]:
                if p not in points:
                    raise ParseError(line_no, f"open mentions undeclared point {p!r}")
                mask |= 1 << points[p]
            basis.append(mask)
        else:
            raise ParseError(line_no, f"unknown directive {kind!r}")
    if name is None:
        raise ParseError(None, "missing space header")
    try:
        return FiniteTopSpace(points, basis, name)
    except PosetError as err:
        raise ParseError(None, str(err)) from None


def parse_input_text(text):
    """Dispatch on the leading keyword: poset, metric, or space."""
    for line_no, fields in _records(text):
        parse = {"poset": parse_poset_text, "metric": parse_metric_text, "space": parse_space_text}.get(fields[0])
        if parse is None:
            raise ParseError(line_no, f"unknown file kind {fields[0]!r}; expected poset, metric, or space")
        return parse(text)
    raise ParseError(None, "empty input")


def parse_input_file(path):
    with open(path, "rb") as handle:  # bytes, decoded at once: no text wrapper to build
        try:
            return parse_input_text(handle.read().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(None, f"{path} is not UTF-8 text (byte {exc.start})") from None
