"""The one-pass file readers against the readers as first written (tests/oracles.py)."""

from hypothesis import given, settings, strategies as st

import oracles
from posetspace import files
from posetspace.files import ParseError, parse_input_text, parse_metric_text, parse_poset_text, parse_space_text
from posetspace.poset_core import FinitePoset

fixed = settings(derandomize=True, database=None, deadline=None)

IDS = ("a", "b", "c", "d")
KEYWORDS = ("poset", "elem", "le", "lt", "metric", "point", "dist", "space", "open", "node")
VALUES = ("1", "1/2", "3/4", "2/4", "2", "0", "-1/2", "1/0", "one")
READERS = [
    (parse_poset_text, oracles.poset_text_reference),
    (parse_metric_text, oracles.metric_text_reference),
    (parse_space_text, oracles.space_text_reference),
    (parse_input_text, oracles.input_text_reference),
]


@st.composite
def well_formed(draw):
    """The lines of a file of one kind that often parses: a header, its ids, then relation lines."""
    kind = draw(st.sampled_from(("poset", "metric", "space")))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True))
    lines = [f"{kind} t"] + [f"{'elem' if kind == 'poset' else 'point'} {x}" for x in ids]
    names = ids + draw(st.sampled_from(([], ["e", "f"])))  # in some files, relations name undeclared ids
    pairs = st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=5)
    if kind == "poset":
        words = draw(st.sampled_from((("le",), ("lt",), ("le", "lt"))))  # mixed in some files
        lines += [f"{draw(st.sampled_from(words))} {a} {b}" for a, b in draw(pairs)]
    elif kind == "metric":
        lines += [f"dist {a} {b} {draw(st.sampled_from(VALUES[:5]))}" for k, a in enumerate(ids) for b in ids[k + 1:]]
        # and a few more, which may repeat, conflict, reverse or sit on the diagonal
        lines += [f"dist {a} {b} {draw(st.sampled_from(VALUES[:5]))}" for a, b in draw(pairs)[:2]]
    else:
        opens = draw(st.lists(st.lists(st.sampled_from(ids), unique=True), max_size=5))
        lines += [" ".join([f"open U{k}"] + o) for k, o in enumerate(opens)] + [" ".join(["open W"] + ids)]
    return lines


# any directive of the three formats, or an unknown one, with 0 to 4 fields, valid or not
any_line = st.builds(lambda word, fields: " ".join([word] + fields), st.sampled_from(KEYWORDS),
                     st.lists(st.sampled_from(IDS + VALUES), max_size=4))
noise = st.sampled_from(("", "   ", "# a comment", "\t#", "\r"))


@st.composite
def texts(draw):
    """A well-formed file with up to 4 lines deleted, repeated, moved or inserted, and comments and blanks."""
    lines = draw(well_formed())
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("delete", "repeat", "move", "insert")))
        k = draw(st.integers(0, len(lines)))
        if op == "insert":
            lines.insert(k, draw(any_line))
        elif lines and k < len(lines):
            line = lines.pop(k) if op in ("delete", "move") else lines[k]
            if op != "delete":
                lines.insert(draw(st.integers(0, len(lines))), line)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    if lines and draw(st.booleans()):
        lines[-1] += "  # trailing"
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


def outcome(read, text):
    """The object read, as comparable fields, or the error's type, line and reason."""
    try:
        obj = read(text)
    except ParseError as err:
        return type(err), err.line_no, err.reason
    except Exception as err:  # noqa: BLE001 - any other refusal must match as well
        return type(err), str(err)
    if isinstance(obj, FinitePoset):
        return type(obj), obj.name, obj
    if hasattr(obj, "d"):
        return type(obj), obj.name, obj.points, {(a, b): obj.d(a, b) for a in obj.points for b in obj.points}
    return type(obj), obj.name, obj.points, obj.basis, obj.up


@settings(fixed, max_examples=600)
@given(st.one_of(texts(), st.lists(st.one_of(any_line, noise), max_size=6).map("\n".join)))
def test_every_reader_matches_the_first_written_one(text):
    for read, reference in READERS:
        assert outcome(read, text) == outcome(reference, text), (read.__name__, text)


def test_parse_input_text_splits_a_text_once(monkeypatch):
    calls = []
    records = files._records
    monkeypatch.setattr(files, "_records", lambda text: calls.append(text) or records(text))
    inputs = ("poset t\nelem a\n", "metric m\npoint p\n", "space s\npoint x\nopen U x\n")
    for text in inputs:
        parse_input_text(text)
    assert calls == list(inputs)
