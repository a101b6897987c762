import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from types import SimpleNamespace

import pytest

from epa import graphs, instances
from epa.graphs import Graph, _columns, _transpose, unit_weights
from epa.instances import ParseError, parse_instance, serialize_instance
from epa.generator import GeneratorSpec, SplitMix64, generate, random_graph, random_weights
from conftest import corpus
from small_graphs import path_graph


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


def _serialize_reference(g, w=None):
    """serialize_instance as it was written over ``g.adj``: each row's
    neighbour tuple cut above u by ``bisect_right``."""
    lines = [f"p epa {g.n} {g.m}"]
    if w is not None and tuple(w) != unit_weights(g.n):
        lines += [f"v {v + 1} {x}" for v, x in enumerate(w) if x != 1]
    for u, nbrs in enumerate(g.adj):
        lines += [f"e {u + 1} {v + 1}" for v in nbrs[bisect_right(nbrs, u):]]
    return "\n".join(lines) + "\n"


def test_serialize_matches_neighbour_tuple_form_and_builds_no_tuples():
    cases = [random_graph(n, density, 7200 + n)
             for n in (0, 1, 2, 5, 17, 64, 65, 130, 200)
             for density in (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1))]
    cases += [generate(GeneratorSpec(base, n - n // 10, n // 10, Fraction(1, 2), 7300 + n))[0]
              for base in ("cocluster", "forest", "split") for n in (10, 100, 200)]
    for i, g in enumerate(cases):
        for w in (None, random_weights(g.n, 7400 + i)):
            text = serialize_instance(g, w)
            assert g._adj is None
            assert text == _serialize_reference(Graph._from_masks(g.adj_bits), w)


# Error texts with a fragment of their message.
PARSE_FRAGMENTS = [
    ("e 1 2\n", "before problem line"),
    ("p epa 2 1\ne 1 1\n", "self-loop"),
    ("p epa 2 2\ne 1 2\ne 2 1\n", "duplicate edge"),
    ("p epa 2 1\ne 1 3\n", "out of range"),
    ("p epa 2 1\nv 1 -3\ne 1 2\n", "negative weight"),
    ("p epa 2 1\nv 1 1/0\ne 1 2\n", "bad weight"),
    ("p epa 2 2\ne 1 2\n", "declared 2 edges"),
    ("p epa 2 1\nx 1 2\n", "unknown line kind"),
    ("p epa 2 1\np epa 2 1\ne 1 2\n", "duplicate problem"),
]


@pytest.mark.parametrize("text,fragment", PARSE_FRAGMENTS)
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


# -- canonical edge blocks against the line loop -------------------------
#
# serialize_instance writes a canonical edge block: from the first edge
# line on, every line is exactly "e <id> <id>\n".  Each mutation of such
# a file must parse to the same graph and weights, or fail with the same
# ParseError message and line, as the line loop.  The line loop is
# reached through a variant of the text with every space turned into a
# tab: it splits lines on any whitespace, so the variant means the same,
# but no line of it is a canonical edge line.

EDGE_MUTATIONS = ("leading-zero", "plus", "full-width", "tab", "crlf", "v-line", "comment",
                  "two-tokens", "four-tokens", "duplicate", "self-loop", "out-of-range",
                  "swap", "other-edge")
FILE_MUTATIONS = ("none", "m-off", "no-final-newline")
FULL_WIDTH = str.maketrans("0123456789", "".join(chr(0xFF10 + d) for d in range(10)))


def _outcome(text: str):
    try:
        g, w = parse_instance(text)
    except ParseError as err:
        return str(err), err.line
    return g.adj_bits, w


def _line_loop_outcome(text: str):
    return _outcome(text.replace(" ", "\t"))


def _mutate(text: str, kind: str, pos: int, rng: SplitMix64, n: int) -> str:
    """Apply ``kind`` to the whole file or to the line holding offset
    ``pos``; a line that is no 3-token edge line is left alone."""
    if kind == "none":
        return text
    if kind == "m-off":
        start = text.index("p epa ")
        end = text.index("\n", start)
        *head, m = text[start:end].split(" ")
        return text[:start] + " ".join(head + [str(int(m) + (1 if rng.below(2) else -1))]) + text[end:]
    if kind == "no-final-newline":
        return text[:-1]
    start = text.rfind("\n", 0, pos) + 1
    end = text.find("\n", pos)
    end = len(text) if end < 0 else end
    line = text[start:end]
    parts = line.split()
    if len(parts) != 3 or parts[0] != "e":
        return text
    _, a, b = parts
    if kind == "leading-zero":
        new = f"e 0{a} {b}" if rng.below(2) else f"e {a} 00{b}"
    elif kind == "plus":
        new = f"e +{a} {b}"
    elif kind == "full-width":
        new = f"e {a} {b.translate(FULL_WIDTH)}"
    elif kind == "tab":
        new = ("e\t{} {}", "e {}\t{}", "e {} {}\t")[rng.below(3)].format(a, b)
    elif kind == "crlf":
        new = line + "\r"
    elif kind == "v-line":
        new = f"{line}\nv {1 + rng.below(n + 1)} {rng.below(4)}"
    elif kind == "comment":
        new = f"{line}\nc after an edge"
    elif kind == "two-tokens":
        new = f"e {a}"
    elif kind == "four-tokens":
        new = f"{line} {b}"
    elif kind == "duplicate":
        # the edge of the line before, reversed, or this one's after it
        before = text[text.rfind("\n", 0, start - 1) + 1:start].split()
        if len(before) == 3 and before[0] == "e":
            new = f"e {before[2]} {before[1]}"
        else:
            new = f"{line}\ne {b} {a}"
    elif kind == "self-loop":
        new = f"e {a} {a}"
    elif kind == "out-of-range":
        new = f"e {a} {('0', str(n + 1), str(n + 1000), '-1')[rng.below(4)]}"
    elif kind == "swap":
        new = f"e {b} {a}"
    else:  # other-edge: a new edge, a duplicate or a self-loop
        new = f"e {1 + rng.below(n)} {1 + rng.below(n)}"
    return text[:start] + new + text[end:]


def _random_position(text: str, rng: SplitMix64) -> int:
    first = text.index("\ne") + 1
    return first + rng.below(len(text) - first)


# Files whose first edge line is no canonical one, so the line loop
# reads it with the header and sets its bits before the bulk step.
HEADER_EDGE_TEXTS = [
    "p epa 3 2\ne\t1 2\ne 2 1\n",
    "p epa 3 2\ne\t1 2\ne 2 3\n",
    "p epa 3 2\ne 1\t2\ne 3 3\ne 1 3\n",
    "p epa 3 3\ne 1 2 \ne 1 3\ne 2 3\n",
    "p epa 3 1\r\ne 1 2\ne 1 2\n",
]


@pytest.mark.parametrize("text", HEADER_EDGE_TEXTS)
def test_edge_in_header_matches_line_loop(text):
    assert _outcome(text) == _line_loop_outcome(text)


def _dense(text: str, n: int) -> bool:
    """Whether ``_read_edge_block`` reads the edge block of ``text`` one
    run at a time: it has at least max(n, 64) * n characters."""
    return max(n, 64) * n <= len(text) - (text.index("\ne ") + 1)


def _bulk_rows(text: str, n: int):
    """The masks of the bulk read of a canonical ``text``, or None if a
    check failed and the line loop would read it."""
    rows = [0] * n
    return rows if instances._read_edge_block(text, text.index("\ne ") + 1, rows) else None


def mutated_small_files():
    """(n, text) of 2,000 small serialized files, each with one or two
    random mutations."""
    rng = SplitMix64(6800)
    for i in range(2000):
        n = 2 + rng.below(30)
        g = random_graph(n, Fraction(1 + rng.below(4), 5), 6800 + i)
        if g.m == 0:
            g = path_graph(n)
        w = random_weights(n, 6800 + i) if rng.below(2) else None
        text = serialize_instance(g, w, ["mutated"] if rng.below(2) else ())
        for _ in range(1 + rng.below(2)):
            if rng.below(5):
                kind = EDGE_MUTATIONS[rng.below(len(EDGE_MUTATIONS))]
            else:
                kind = FILE_MUTATIONS[rng.below(len(FILE_MUTATIONS))]
            text = _mutate(text, kind, _random_position(text, rng), rng, n)
        yield n, text


def test_canonical_block_mutations_match_line_loop(monkeypatch):
    """The 2,000 mutated small files, read in bulk chunks of 1, 7, 64 and
    8,192 characters, match the line loop; both sides of the dense rule
    are among them."""
    cases = 0
    sides = [0, 0]
    for i, (n, text) in enumerate(mutated_small_files()):
        monkeypatch.setattr(instances, "_CHUNK", (1, 7, 64, 1 << 13)[i % 4], raising=False)
        assert _outcome(text) == _line_loop_outcome(text), text
        cases += 1
        if "\ne " in text:
            sides[_dense(text, n)] += 1
    assert cases >= 2000 and min(sides) >= 100, sides


def large_base():
    """A 5,572-edge file (about 49 KB, six bulk chunks of 8 KiB, each cut
    after the first newline at or past its size), with its graph and
    weights."""
    g = random_graph(150, Fraction(1, 2), 6900)
    w = random_weights(150, 6900)
    return g, w, serialize_instance(g, w, ["large"])


def mutated_large_files():
    """(kind, text) of the large file with a duplicate, a self-loop or an
    out-of-range edge on the last line of the first or second chunk, on
    the first line of the second, or in the last chunk; and with a wrong
    edge count, and unmutated."""
    chunk = 1 << 13
    g, _, base = large_base()
    ends = [base.index("\ne ") + 1]
    while len(ends) < 4:
        ends.append(base.find("\n", ends[-1] + chunk - 1) + 1)
    assert 0 < ends[-1] < len(base)
    rng = SplitMix64(6900)
    positions = (ends[1] - 2, ends[1], ends[2] - 2, len(base) - 2,
                 len(base) - 1 - rng.below(len(base) - ends[-1]))
    for pos in positions:
        for kind in ("duplicate", "self-loop", "out-of-range"):
            text = _mutate(base, kind, pos, rng, g.n)
            assert text != base
            yield kind, text
    for kind in ("none", "m-off"):
        yield kind, _mutate(base, kind, 0, rng, g.n)


def test_large_canonical_block_mutations_match_line_loop():
    """Every mutation of the large file matches the line loop, and the
    unmutated file parses to its graph and weights."""
    for kind, text in mutated_large_files():
        assert _outcome(text) == _line_loop_outcome(text), kind
    g, w, base = large_base()
    assert parse_instance(base) == (g, w)


# Files on each side of the dense rule, each several bulk chunks long:
# (n, density, dense).  The sparse one has about 45,000 characters of
# edges, half its n^2; the dense ones 20,000-210,000 characters, two to
# three times n^2.
SIDE_FILES = ((300, Fraction(1, 10), False), (100, Fraction(1, 2), True),
              (200, Fraction(1, 2), True), (300, Fraction(1, 2), True))


def serialized_side_files():
    """(graph, text, bulk chunk starts) of each of SIDE_FILES."""
    files = []
    for i, (n, density, _) in enumerate(SIDE_FILES):
        g = random_graph(n, density, 7600 + i)
        text = serialize_instance(g, random_weights(n, 7600 + i), ["sides"])
        starts = [text.index("\ne ") + 1]
        while (end := text.find("\n", starts[-1] + instances._CHUNK - 1) + 1) and end < len(text):
            starts.append(end)
        files.append((g, text, starts))
    return files


@pytest.fixture(scope="module")
def side_files():
    """The serialized side files; each unmutated file is several chunks
    long and read in bulk, on its side of the rule."""
    files = serialized_side_files()
    for (g, text, starts), (n, _, dense) in zip(files, SIDE_FILES):
        assert _dense(text, n) == dense
        assert _bulk_rows(text, n) == list(g.adj_bits)
        assert len(starts) >= 3
    return files


def mutated_side_files(kind: str, files):
    """(n, dense, text) of ``kind`` on the last line of the first chunk,
    on the first line of the second, and in the last chunk, of each side
    file; the last text of each file is the one in its last chunk."""
    rng = SplitMix64(7700 + len(kind))
    for (_, base, starts), (n, _, dense) in zip(files, SIDE_FILES):
        last = starts[-1] + 1 + rng.below(len(base) - starts[-1] - 2)
        for pos in (starts[1] - 2, starts[1], last):
            yield n, dense, _mutate(base, kind, pos, rng, n)


@pytest.mark.parametrize("n,density", [(16, Fraction(1, 2)), (40, Fraction(1, 5)), (40, Fraction(1, 2)),
                                       (64, Fraction(1, 2)), *((n, d) for n, d, _ in SIDE_FILES)])
def test_dense_rule_picks_the_side(n, density, monkeypatch):
    """The column read, the reader's only call of ``graphs._columns``,
    runs exactly on the files the rule calls dense, and always by the
    transposition, ``graphs._transpose``, whose string of about n^2
    digits the ``_CHUNK`` memory bound counts on."""
    calls, transposed = [], []
    monkeypatch.setattr(instances, "_columns", lambda *a: calls.append(a) or _columns(*a))
    monkeypatch.setattr(graphs, "_transpose", lambda *a: transposed.append(a) or _transpose(*a))
    g = random_graph(n, density, 7650 + n)
    text = serialize_instance(g)
    assert _bulk_rows(text, n) == list(g.adj_bits)
    assert bool(calls) == _dense(text, n)
    assert len(transposed) == len(calls)


@pytest.mark.parametrize("kind", EDGE_MUTATIONS + FILE_MUTATIONS)
def test_every_mutation_matches_line_loop_on_both_sides_of_the_dense_rule(kind, side_files):
    """Each mutation on the last line of the first chunk, on the first
    line of the second, and in the last chunk, of a sparse file and of
    dense ones (n = 100-300, density 1/2), matches the line loop.  A
    ``duplicate`` on the first line of a chunk repeats the last line of
    the chunk before, reversed: on the dense side only the transposition
    sets its mirror bits, so only the final count can catch it."""
    mutated = list(mutated_side_files(kind, side_files))
    for n, dense, text in mutated:
        assert _dense(text, n) == dense
        assert _outcome(text) == _line_loop_outcome(text), (n, dense, kind)
    if kind == "swap":
        # e v u reads as e u v: still one bulk read, on either side
        for (g, base, _), (n, _, text) in zip(side_files, mutated[2::3]):
            assert text != base and _bulk_rows(text, n) == list(g.adj_bits)


def _spy_on_line_loop(monkeypatch) -> list[str]:
    """The texts the line loop is called on from now on."""
    seen = []
    read_lines = instances._read_lines
    monkeypatch.setattr(instances, "_read_lines", lambda text: seen.append(text) or read_lines(text))
    return seen


def test_line_loop_reads_only_the_header_of_a_canonical_file(monkeypatch):
    """A serialized file goes through the line loop up to its first edge
    line and no further; its tab variant, the reference above, goes
    through the line loop whole."""
    seen = _spy_on_line_loop(monkeypatch)
    g = random_graph(40, Fraction(1, 2), 6950)
    text = serialize_instance(g, random_weights(40, 6950), ["header"])
    assert parse_instance(text)[0] == g
    assert seen == [text[:text.index("\ne ") + 1]]
    seen.clear()
    variant = text.replace(" ", "\t")
    assert parse_instance(variant)[0] == g
    assert seen == [variant]


# The run reader: a dense block is read one run of lines with the same
# first id at a time, each run's ids summed as powers of two.


def _dense_file(n: int, seed: int) -> tuple[Graph, str]:
    """A dense serialized file at density 1/2 that holds the edge 1 n."""
    g = Graph(n, {*random_graph(n, Fraction(1, 2), seed).edges(), (0, n - 1)})
    text = serialize_instance(g)
    assert _dense(text, n)
    return g, text


def _repeat_line(text: str, line: str) -> str:
    """``text`` with the edge line ``line`` written twice in place."""
    at = text.index(f"\n{line}\n") + 1
    return text[:at] + line + "\n" + text[at:]


@pytest.mark.parametrize("n", [64, 128])
def test_repeated_top_edge_is_a_duplicate_not_an_overflow(n):
    """Repeating ``e 1 n`` in its run carries its sum into bit n, past
    the last vertex: the popcount before the transposition rejects it,
    and the line loop names the duplicate."""
    _, text = _dense_file(n, 8000 + n)
    text = _repeat_line(text, f"e 1 {n}")
    assert _bulk_rows(text, n) is None
    outcome = _outcome(text)
    assert outcome == _line_loop_outcome(text) and outcome[0].endswith(f"duplicate edge 1 {n}")


def test_repeat_inside_a_run_carries_onto_an_unset_bit():
    """A line of the first run repeated in place, whose id plus one is no
    neighbour: the sum carries onto that bit, and the read still fails
    with the line loop's error."""
    n = 100
    g, text = _dense_file(n, 8100)
    row = g.adj_bits[0]
    v = next(v for v in range(1, n - 1) if row >> v & 1 and not row >> (v + 1) & 1)
    text = _repeat_line(text, f"e 1 {v + 1}")
    assert _bulk_rows(text, n) is None
    outcome = _outcome(text)
    assert outcome == _line_loop_outcome(text) and outcome[0].endswith(f"duplicate edge 1 {v + 1}")


def _assert_read_in_bulk(g: Graph, text: str, monkeypatch) -> None:
    """``text`` parses to ``g`` with the line loop reading only its
    header, and matches the line loop."""
    seen = _spy_on_line_loop(monkeypatch)
    assert parse_instance(text)[0] == g
    assert seen == [text[:text.index("\ne ") + 1]]
    assert _outcome(text) == _line_loop_outcome(text)


def _rewrite_edge_lines(text: str, reverse: bool, swap: bool) -> str:
    cut = text.index("\ne ") + 1
    lines = text[cut:].splitlines()
    if reverse:
        lines.reverse()
    if swap:
        lines = [f"e {v} {u}" for _, u, v in map(str.split, lines)]
    return text[:cut] + "\n".join(lines) + "\n"


@pytest.mark.parametrize("reverse,swap", [(True, False), (False, True), (True, True)])
def test_reordered_dense_block_reads_in_bulk(reverse, swap, monkeypatch):
    """Reversed lines, swapped ids or both: runs of one line or of lines
    in descending order are still read in bulk, to the same graph."""
    g, text = _dense_file(120, 8200)
    text = _rewrite_edge_lines(text, reverse, swap)
    assert _dense(text, g.n)
    _assert_read_in_bulk(g, text, monkeypatch)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_dense_block_reads_in_bulk_at_small_chunk_sizes(chunk, monkeypatch):
    """Every match reads at least the line it starts on, so no chunk
    size sends a canonical file to the line loop."""
    monkeypatch.setattr(instances, "_CHUNK", chunk)
    _assert_read_in_bulk(*_dense_file(100, 8300), monkeypatch)


def test_run_regex_matches_once_per_row_and_chunk_cut(monkeypatch):
    """On a canonical dense file the run regex matches once per row with
    higher neighbours, plus at most once per chunk cut of its block."""
    g, text = _dense_file(200, 8400)
    matches = []
    run = instances._EDGE_RUN
    monkeypatch.setattr(instances, "_EDGE_RUN", SimpleNamespace(
        match=lambda *args: matches.append(args) or run.match(*args)))
    assert parse_instance(text)[0] == g
    rows = sum(1 for u, row in enumerate(g.adj_bits) if row >> (u + 1))
    cuts = (len(text) - text.index("\ne ") - 1) // instances._CHUNK
    assert cuts >= 5
    assert rows <= len(matches) <= rows + cuts


def test_dense_parse_peaks_below_its_edge_text():
    """A dense file (n = 600, density 1/2, about 870 KB of edges) is read
    with less memory than its own edge text: the transposition's one
    string of n^2 digits, the table of 1 << v per id and the masks stay
    below it.  At n = 300 the regex's backtracking state over one 8 KiB
    chunk (about 235 KB) alone outweighs the 206 KB of edges, so the
    bound is taken where the transposition's share dominates."""
    g = random_graph(600, Fraction(1, 2), 7800)
    text = serialize_instance(g)
    edge_text = len(text) - (text.index("\ne ") + 1)
    assert _dense(text, g.n)
    tracemalloc.start()
    try:
        parsed, _ = parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == g
    assert peak < edge_text


def test_parse_at_vertex_cap_keeps_memory_small():
    """One edge between the first and last of 2**16 vertices: no table
    of n shifted ints (n^2/16 bytes, 256 MiB here) is built."""
    tracemalloc.start()
    try:
        g, w = parse_instance("p epa 65536 1\ne 1 65536\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 65536 and list(g.edges()) == [(0, 65535)] and len(w) == 65536
    assert peak < 16 << 20
