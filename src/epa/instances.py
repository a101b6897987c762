"""Instance file format.

Line-oriented, DIMACS-adjacent, 1-indexed:

    c <free-form comment>
    p epa <n> <m>
    v <id> <weight>          # weight as integer or p/q; missing lines mean 1
    e <u> <v>

Parsing and serialization round-trip exactly; errors carry line numbers.
A canonical edge block, the form ``serialize_instance`` writes, is read
in bulk.  A dense one is read one run of lines with the same first id
at a time: one sum of powers of two per run sets a row's bits, a
popcount checks that every line set a new bit, and one transposition at
the end sets the other half of every edge.  The vertex count is capped
at ``MAX_VERTICES``: the adjacency masks of a dense graph take n^2/8
bytes, 512 MiB at the cap.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from typing import Iterable, Optional

from .graphs import Graph, Weights, _columns, _dense_row, _digits, bits

MAX_VERTICES = 2**16


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_weight(tok: str, line: int) -> Fraction:
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            val = Fraction(int(num), int(den))
        else:
            val = Fraction(int(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad weight {tok!r}", line) from exc
    if val < 0:
        raise ParseError(f"negative weight {tok}", line)
    return val


def parse_instance(text: str) -> tuple[Graph, Weights]:
    """Parse an instance.

    The line loop reads the text up to the first line that starts with
    ``e `` after a newline.  If the rest is a canonical edge block, the
    form ``serialize_instance`` writes, it is read in bulk (see
    ``_read_edge_block``); if not, or if a bulk step fails a check, the
    line loop parses the whole text, so every graph, weight and error is
    the line loop's.
    """
    cut = text.find("\ne ") + 1
    n, m_declared, weights, rows = _read_lines(text[:cut] if cut else text)
    if cut and (n is None or any(rows) or not _read_edge_block(text, cut, rows)):
        n, m_declared, weights, rows = _read_lines(text)
    if n is None:
        raise ParseError("missing problem line", 1)
    g = Graph._from_masks(rows)
    if g.m != m_declared:
        raise ParseError(f"declared {m_declared} edges, found {g.m}", 1)
    one = Fraction(1)
    w = tuple(weights.get(v, one) for v in range(n))
    return g, w


def _read_lines(text: str) -> tuple[Optional[int], int, dict[int, Fraction], list[int]]:
    """The line loop: the vertex count (None without a problem line), the
    declared edge count, the weights read and the adjacency masks.

    Each ``e`` line is checked once (arity, integer ids, range,
    self-loop, and duplicate by a bit already set in the adjacency mask)
    and sets its two mask bits; the finished masks become the graph
    without a second validation.
    """
    n: Optional[int] = None
    m_declared = 0
    weights: dict[int, Fraction] = {}
    rows: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        kind = parts[0]
        if kind == "e":
            if n is None:
                raise ParseError("edge line before problem line", line_no)
            if len(parts) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", line_no)
            u = _parse_index(parts[1], n, line_no)
            v = _parse_index(parts[2], n, line_no)
            if u == v:
                raise ParseError("self-loop rejected", line_no)
            if rows[u] >> v & 1:
                raise ParseError(f"duplicate edge {parts[1]} {parts[2]}", line_no)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        elif kind == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line_no)
            if len(parts) != 4 or parts[1] != "epa":
                raise ParseError("problem line must be 'p epa <n> <m>'", line_no)
            try:
                n, m_declared = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ParseError("bad problem line numbers", line_no) from exc
            if n < 0 or m_declared < 0:
                raise ParseError("negative counts", line_no)
            if n > MAX_VERTICES:
                raise ParseError(f"vertex count {n} above the limit {MAX_VERTICES}", line_no)
            rows = [0] * n
        elif kind == "v":
            if n is None:
                raise ParseError("vertex line before problem line", line_no)
            if len(parts) != 3:
                raise ParseError("vertex line must be 'v <id> <weight>'", line_no)
            vid = _parse_index(parts[1], n, line_no)
            if vid in weights:
                raise ParseError(f"duplicate weight for vertex {parts[1]}", line_no)
            weights[vid] = _parse_weight(parts[2], line_no)
        else:
            raise ParseError(f"unknown line kind {kind!r}", line_no)
    return n, m_declared, weights, rows


# Characters of edge lines per bulk step: a sparse chunk, or the most a
# dense run's match may cover.  Both regexes are possessive (Python
# 3.11), so a match keeps no backtracking state: 1.2 KiB per step at any
# length by tracemalloc, where the same regexes without possessive
# quantifiers kept 23-29 bytes per character (229 KiB over 8 KiB).  A
# sparse chunk's split still holds its tokens, so steps stay small:
# parsing the sparse 31,000-edge n = 800 forest file of seed-1
# scale-mix peaked at 0.43 MB traced with 8 KiB chunks, 2.1 MB with
# 64 KiB and 4.6 MB with 256 KiB, at the same speed from 4 to 256 KiB.
# A dense block's runs are at most a row long; its transposition, after
# the last run, holds one string of n^2 digits (0.64 MB at n = 800).
_CHUNK = 1 << 13
_EDGE_LINES = re.compile(r"(?:e [1-9][0-9]*+ [1-9][0-9]*+\n)*+")
# A run: one or more lines "e U V" with the same U, which group 1 holds
# with its spaces and group 2 alone.
_EDGE_RUN = re.compile(r"(e ([1-9][0-9]*+) )[1-9][0-9]*+\n(?:\1[1-9][0-9]*+\n)*+")


def _read_edge_block(text: str, start: int, rows: list[int]) -> bool:
    """Set the edges of ``text[start:]`` in the all-zero masks ``rows``,
    if every line of it is exactly ``e <id> <id>\\n`` (ASCII digits, no
    leading zero) with ids in 1..n, no self-loop and no edge twice.

    Ids are looked up in dicts, whose ``KeyError`` is a range error.  A
    sparse block is read in chunks of about ``_CHUNK`` characters, cut
    after a newline, each matched by one regex and split once; a line
    ``e u v`` sets bit v of row u and bit u of row v.  A dense block, of
    at least max(n, 64) * n characters, is read one run at a time: the
    lines ``e u v`` that share their u, as far as the first newline at or
    past ``_CHUNK - 1`` characters on, so that a match reads at least one
    line and holds at most about a chunk.  One regex match finds and
    checks a run, one split lists its v, and row u is ORed with the sum
    of ``1 << (v - 1)`` over them, from a table per id.  After the last
    run one transposition (``graphs._columns``) gives every row v column
    v of those rows.  The transposition reads one string of about n^2
    binary digits and the table takes about n^2/16 bytes, so neither is
    larger than the block.  Below n = 64 the bound asks for 64
    characters (about eight lines) per vertex: on sparser small files
    the transposition's n conversions cost more than the updates it
    saves.

    Popcounts find self-loops and edges seen twice.  On a sparse block
    the rows hold 2 bits per line at the end only if every line is a
    new edge: two updates per line set no new bit for an edge seen
    before and only one, on the diagonal, for a self-loop.  On a dense
    block the rows hold one bit per line before the transposition only
    if no line repeats a pair: a sum has as many bits as its terms
    together less one per carry, and powers of two carry exactly when
    two are equal; an OR keeps the bits of both sides only if they are
    disjoint.  So the rows then hold a set P of ordered pairs (u, v),
    one per line, and no carry has reached bit n.  The transposition
    adds the mirror (v, u) of each, and P with its mirrors has 2|P| bits
    less one for each pair of P whose mirror is in P too.  So an edge
    read in both orders (``e u v`` and ``e v u``) leaves two bits for
    two lines, and a self-loop, its own mirror, one bit for one line:
    the final count is exact on both branches.  Returns False on the
    first failed check, with ``rows`` partly set.
    """
    n = len(rows)
    labels = list(map(str, range(1, n + 1)))
    index = dict(zip(labels, range(n)))
    lines = 0
    if max(n, 64) * n > len(text) - start:
        while start < len(text):
            end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
            if not _EDGE_LINES.fullmatch(text, start, end):
                return False
            tokens = text[start:end].split()
            try:
                us = list(map(index.__getitem__, tokens[1::3]))
                vs = list(map(index.__getitem__, tokens[2::3]))
            except KeyError:
                return False
            for u, v in zip(us, vs):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            lines += len(us)
            start = end
        return sum(map(int.bit_count, rows)) == 2 * lines
    bit = dict(zip(labels, map((1).__lshift__, range(n))))
    while start < len(text):
        end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        run = _EDGE_RUN.match(text, start, end)
        if run is None:
            return False
        prefix, u = run.groups()
        stop = run.end()
        vs = text[start + len(prefix):stop - 1].split("\n" + prefix)
        try:
            rows[index[u]] |= sum(map(bit.__getitem__, vs))
        except KeyError:
            return False
        lines += len(vs)
        start = stop
    if sum(map(int.bit_count, rows)) != lines:
        return False
    # each column is ORed in as it is read, so no list of n holds them
    for v, column in enumerate(_columns(rows, n, range(n))):
        rows[v] |= column
    return sum(map(int.bit_count, rows)) == 2 * lines


def _parse_index(tok: str, n: int, line: int) -> int:
    try:
        vid = int(tok)
    except ValueError as exc:
        raise ParseError(f"bad vertex id {tok!r}", line) from exc
    if not 1 <= vid <= n:
        raise ParseError(f"vertex id {vid} out of range 1..{n}", line)
    return vid - 1


def serialize_instance(
    g: Graph, w: Optional[Weights] = None, comments: Iterable[str] = ()
) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p epa {g.n} {g.m}")
    if w is not None:
        for v in range(g.n):
            if w[v] != 1:
                lines.append(f"v {v + 1} {w[v]!s}")
    # The "e u v" lines in the order of g.edges(), one join per row over
    # the ids as strings instead of one format per line; the leading ""
    # puts the separator "\ne u " before every neighbour.  The higher
    # neighbours' ids are read from each mask, by a bit walk on a sparse
    # row and by ``compress`` over the ids above u on a dense one, so no
    # neighbour tuple or index is built.  No string is concatenated:
    # temporary copies of rows or of the text raised the benchmark
    # set-up's peak RSS (by 0.3 MB, with an n = 800 instance).
    n = g.n
    labels = list(map(str, range(1, n + 1)))
    rows = []
    for u, row in enumerate(g.adj_bits):
        higher = row >> (u + 1)
        if not higher:
            continue
        if _dense_row(higher, n):
            names = compress(labels[u + 1:], _digits(higher))
        else:
            names = map(labels.__getitem__, bits(higher << (u + 1)))
        rows.append(f"\ne {labels[u]} ".join(["", *names]))
    return "".join(["\n".join(lines), *rows, "\n"])
