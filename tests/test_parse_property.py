"""Every parser either round-trips its input or raises a LatcongError, and
the CLI exits 2, without a traceback, on every input a parser rejects.

Inputs are valid files with lines dropped, repeated, inserted, commented
or with a token replaced, and files made of random lines of the right
keywords.
"""

import contextlib
import io as stdio
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from latcong import io
from latcong.cli import main
from latcong.errors import InvalidArgument, LatcongError
from latcong.lattice import build_from_covers, catalogue
from latcong.polynomials import random_polynomial
from latcong.sugeno import Capacity, sugeno_table

C3 = catalogue("chain(3)")
M = Capacity(C3, (0, 1, 0, 2))

# Valid files of each kind, the seeds of the mutations.
SEEDS = {
    "lattice": [io.serialize_lattice(catalogue(name))
                for name in ("chain(3)", "boolean(2)", "N5", "M3")],
    "capacity": [io.serialize_capacity(M, "m"),
                 io.serialize_capacity(Capacity(C3, (0, 2)), "unary")],
    "function": [io.serialize_function_table(sugeno_table(C3, M), "f"),
                 "function g\nn 0\nf -> 1\n"],
    "polynomial": ["(join (meet (const 1) (var 0)) (var 1))\n",
                   "(meet (var 2) (join (const 0) (var 0) (var 1)))\n",
                   io.serialize_polynomial(random_polynomial(random.Random(3), 2, 3))],
}
KEYWORDS = {
    "lattice": ["lattice", "elements", "cover", "label"],
    "capacity": ["capacity", "n", "m"],
    "function": ["function", "n", "f"],
    "polynomial": ["(", ")", "var", "const", "meet", "join"],
}

numbers = st.one_of(st.integers(-2, 9), st.sampled_from([10 ** 9, 21, 513]))
junk = st.sampled_from(["x", "->", "{}", "{1}", "{1,2}", "{2,1}", "{1,1}", "{0}",
                        "{,}", "{", "1.5", "#", "(", ")", "", "-", "0x1"])
tokens = st.one_of(numbers.map(str), junk)


@st.composite
def random_line(draw, kind):
    words = [draw(st.sampled_from(KEYWORDS[kind]))]
    words += draw(st.lists(tokens, max_size=5))
    return " ".join(words)


@st.composite
def texts(draw, kind):
    """A valid file with up to two changes (some keep it valid), or random
    lines of the file's keywords."""
    if draw(st.integers(0, 3)) == 0:
        lines = draw(st.lists(random_line(kind), max_size=8))
        return "\n".join(lines) + "\n"
    lines = draw(st.sampled_from(SEEDS[kind])).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(
            ["drop", "repeat", "insert", "token", "comment", "blank"]))
        if action == "insert" or not lines:
            lines.insert(where, draw(random_line(kind)))
            continue
        if action == "blank":
            lines.insert(where, draw(st.sampled_from(["", "  ", "# note"])))
            continue
        where = min(where, len(lines) - 1)
        if action == "comment":
            lines[where] += draw(st.sampled_from([" # note", "#", "  "]))
        elif action == "drop":
            del lines[where]
        elif action == "repeat":
            lines.insert(where, lines[where])
        else:
            words = lines[where].replace("(", " ( ").replace(")", " ) ").split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(tokens)
            lines[where] = " ".join(words)
    return "\n".join(lines) + "\n"


def _round_trip(kind, text):
    """Parse, serialize, parse again: the same object and the same text."""
    if kind == "lattice":
        L = io.parse_lattice(text)
        out = io.serialize_lattice(L)
        back = io.parse_lattice(out)
        assert (back, back.name, back.labels) == (L, L.name, L.labels)
        assert io.serialize_lattice(back) == out
    elif kind == "capacity":
        name, m = io.parse_capacity(text, C3)
        out = io.serialize_capacity(m, name)
        assert io.parse_capacity(out, C3) == (name, m)
    elif kind == "function":
        name, f = io.parse_function_table(text, C3)
        out = io.serialize_function_table(f, name)
        assert io.parse_function_table(out, C3) == (name, f)
    else:
        p = io.parse_polynomial(text)
        out = io.serialize_polynomial(p)
        assert io.parse_polynomial(out) == p


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("parse")
    (root / "c3.lat").write_text(io.serialize_lattice(C3))
    return root


def _cli(paths, kind, text):
    """Exit code and stderr of the CLI command that reads ``text`` as ``kind``."""
    target = paths / f"input.{kind}"
    target.write_text(text, encoding="utf-8")
    lattice = str(paths / "c3.lat")
    argv = {
        "lattice": ["info", "--lattice", str(target)],
        "capacity": ["sugeno", "--lattice", lattice, "--capacity", str(target),
                     "--input", "0"],
        "function": ["compat", "--lattice", lattice, "--function", str(target)],
        "polynomial": ["compat", "--lattice", lattice, "--poly", str(target)],
    }[kind]
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(paths, kind, text):
    try:
        _round_trip(kind, text)
    except LatcongError:
        code, out, err = _cli(paths, kind, text)
        assert (code, out) == (2, ""), text
        assert err.startswith("error: ") and "Traceback" not in err


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(KEYWORDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), texts(kind))))
@example(("capacity", "capacity x\nn 2\nm {1,2} 2\nn 1\nm {} 0\n"))
@example(("function", "function f\nn 1\nf 2 -> 2\nn 0\n"))
@example(("lattice", "lattice a\nlattice b\nelements 1\n"))
@example(("polynomial", "(meet (var 0))\n"))
def test_parsers_round_trip_or_raise(paths, case):
    kind, text = case
    _check(paths, kind, text)


# Any str, with whitespace, '#' and the line breaks of str.splitlines often.
names = st.text(st.one_of(st.sampled_from(" #\t\n\r\x0b\x0c\x1c\x85\u2028"),
                          st.characters()))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(names)
@example("my chain")
@example("lo#1")
@example("a  b")
@example("")
@example("a b")
@example("c3")
def test_serializers_write_only_names_and_labels_that_read_back(text):
    """Each serializer raises InvalidArgument, or parsing its output gives
    the name or label back unchanged."""
    cases = [
        (lambda: io.serialize_lattice(build_from_covers(3, C3.covers, name=text)),
         lambda out: io.parse_lattice(out).name),
        (lambda: io.serialize_lattice(build_from_covers(3, C3.covers,
                                                        labels={1: text})),
         lambda out: io.parse_lattice(out).labels[1]),
        (lambda: io.serialize_capacity(M, text),
         lambda out: io.parse_capacity(out, C3)[0]),
        (lambda: io.serialize_function_table(sugeno_table(C3, M), text),
         lambda out: io.parse_function_table(out, C3)[0]),
    ]
    for write, read in cases:
        try:
            out = write()
        except InvalidArgument:
            continue
        assert read(out) == text


def test_names_that_read_back_are_written():
    """A single word is a valid name and label; words joined by single
    spaces only a label, and a None lattice name is written 'unnamed'."""
    L = build_from_covers(3, C3.covers, labels={0: "lo 1", 2: "hi"})
    assert io.parse_lattice(io.serialize_lattice(L)).labels == {0: "lo 1", 2: "hi"}
    assert io.parse_lattice(io.serialize_lattice(L)).name == "unnamed"
    assert io.parse_capacity(io.serialize_capacity(M, "m-1"), C3)[0] == "m-1"
    for bad in ("my chain", "lo#1", "", " c3", 3):
        with pytest.raises(InvalidArgument, match="would not read back"):
            io.serialize_capacity(M, bad)
    with pytest.raises(InvalidArgument, match="label 'a  b'"):
        io.serialize_lattice(build_from_covers(3, C3.covers, labels={0: "a  b"}))
