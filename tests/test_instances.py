from fractions import Fraction

import pytest

from epa.graphs import Graph, unit_weights
from epa.instances import ParseError, parse_instance, serialize_instance
from epa.generator import GeneratorSpec, generate, random_weights
from conftest import corpus


def test_parse_minimal():
    g, w = parse_instance("p epa 2 1\ne 1 2\n")
    assert g == Graph(2, [(0, 1)]) and w == unit_weights(2)


def test_parse_weights_and_comments():
    text = "c hello\np epa 3 1\nv 1 3/2\ne 1 2\n"
    g, w = parse_instance(text)
    assert w == (Fraction(3, 2), Fraction(1), Fraction(1))


def test_roundtrip_corpus():
    for i, g in enumerate(corpus(30, 0, 10, seed0=7000)):
        w = random_weights(g.n, 7000 + i)
        text = serialize_instance(g, w, comments=["corpus"])
        g2, w2 = parse_instance(text)
        assert g2 == g and w2 == w
        assert serialize_instance(g2, w2, comments=["corpus"]) == text


def test_roundtrip_generated():
    g, _ = generate(GeneratorSpec("split", 9, 2, Fraction(1, 2), 7100))
    text = serialize_instance(g)
    g2, _ = parse_instance(text)
    assert g2 == g


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("e 1 2\n", "before problem line"),
        ("p epa 2 1\ne 1 1\n", "self-loop"),
        ("p epa 2 2\ne 1 2\ne 2 1\n", "duplicate edge"),
        ("p epa 2 1\ne 1 3\n", "out of range"),
        ("p epa 2 1\nv 1 -3\ne 1 2\n", "negative weight"),
        ("p epa 2 1\nv 1 1/0\ne 1 2\n", "bad weight"),
        ("p epa 2 2\ne 1 2\n", "declared 2 edges"),
        ("p epa 2 1\nx 1 2\n", "unknown line kind"),
        ("p epa 2 1\np epa 2 1\ne 1 2\n", "duplicate problem"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


def test_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_instance("p epa 2 1\nc ok\ne 1 1\n")
    assert err.value.line == 3


# Every message and line number, pinned exactly: (text, message, line).
PARSE_ERRORS = [
    ("p epa 2 1\ne x 2\n", "line 2: bad vertex id 'x'", 2),
    ("p epa 2 1\ne 2 x\n", "line 2: bad vertex id 'x'", 2),
    ("p epa 2 1\ne 0 1\n", "line 2: vertex id 0 out of range 1..2", 2),
    ("p epa 2 1\ne 1 3\n", "line 2: vertex id 3 out of range 1..2", 2),
    ("p epa 2 1\ne 3 x\n", "line 2: vertex id 3 out of range 1..2", 2),
    ("p epa 2 1\ne 2 2\n", "line 2: self-loop rejected", 2),
    ("p epa 2 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge 2 1", 3),
    ("p epa 2 2\ne 1 2\ne 1 2\n", "line 3: duplicate edge 1 2", 3),
    ("p epa 2 1\ne 1\n", "line 2: edge line must be 'e <u> <v>'", 2),
    ("p epa 2 1\ne 1 2 3\n", "line 2: edge line must be 'e <u> <v>'", 2),
    ("e 1 2\np epa 2 1\n", "line 1: edge line before problem line", 1),
    ("p epa 2 1\nv x 2\ne 1 2\n", "line 2: bad vertex id 'x'", 2),
    ("p epa 2 1\nv 3 2\ne 1 2\n", "line 2: vertex id 3 out of range 1..2", 2),
    ("p epa 2 1\nv 1 x\ne 1 2\n", "line 2: bad weight 'x'", 2),
    ("p epa 2 1\nv 1\ne 1 2\n", "line 2: vertex line must be 'v <id> <weight>'", 2),
    ("p epa 2 1\nv 1 2\nv 1 3\ne 1 2\n", "line 3: duplicate weight for vertex 1", 3),
    ("v 1 2\np epa 2 1\n", "line 1: vertex line before problem line", 1),
    ("p epa 2 2\ne 1 2\n", "line 1: declared 2 edges, found 1", 1),
    ("p epa 3 1\ne 1 2\ne 2 3\n", "line 1: declared 1 edges, found 2", 1),
    ("c hello\n\r\n  \nc x\r\np epa 2 1\r\n\r\ne 1 1\r\n", "line 7: self-loop rejected", 7),
    ("c only\n", "line 1: missing problem line", 1),
    ("", "line 1: missing problem line", 1),
    ("p epa 2\n", "line 1: problem line must be 'p epa <n> <m>'", 1),
    ("p epa x 1\n", "line 1: bad problem line numbers", 1),
    ("p epa -1 0\n", "line 1: negative counts", 1),
    ("p foo 2 1\n", "line 1: problem line must be 'p epa <n> <m>'", 1),
    ("p epa 2 0\np epa 2 0\n", "line 2: duplicate problem line", 2),
    ("p epa 2 1\nx 1 2\n", "line 2: unknown line kind 'x'", 2),
    ("p epa 2 1\nv 1 -3\ne 1 2\n", "line 2: negative weight -3", 2),
    ("p epa 2 1\nv 1 1/0\ne 1 2\n", "line 2: bad weight '1/0'", 2),
    ("c big\np epa 65537 0\n", "line 2: vertex count 65537 above the limit 65536", 2),
]


@pytest.mark.parametrize("text,message,line", PARSE_ERRORS)
def test_parse_error_exact(text, message, line):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == message and err.value.line == line
