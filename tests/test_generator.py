from fractions import Fraction

import pytest

from epa import generator
from epa.generator import (
    GENERATOR_CLASSES,
    _base_triangle_free,
    _nth_bit,
    GenerationError,
    GeneratorSpec,
    SplitMix64,
    generate,
    random_connected_graph,
    random_graph,
    random_weights,
)
from epa.graphs import Graph, _columns, bits
from epa.instances import MAX_VERTICES, serialize_instance
from epa.recognize import recognize


def test_splitmix64_reference_stream():
    # frozen self-consistency vector; any change to the scheme is a break
    rng = SplitMix64(42)
    assert [rng.next64() for _ in range(4)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ]


def test_splitmix64_below_and_chance():
    rng = SplitMix64(7)
    vals = [rng.below(10) for _ in range(1000)]
    assert all(0 <= v < 10 for v in vals)
    rng = SplitMix64(7)
    hits = sum(rng.chance(Fraction(1, 4)) for _ in range(4000))
    assert 800 <= hits <= 1200


CHANCES_SEEDS = (0, 1, 12345, 2**64 - 1)
# 1/2^70 and (2^61 - 1)/(2^62 - 1) sit on either side of the lane-packed
# bound q < 2^62; counts cross the 1024-draw chunk boundaries.
CHANCES_DENSITIES = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(7, 8),
                     Fraction(1, 2**70), Fraction(2**61 - 1, 2**62 - 1))
CHANCES_COUNTS = (0, 1, 2, 3, 17, 100, 1000, 1023, 1024, 1025, 2100)


def test_chances_is_repeated_chance():
    for seed in CHANCES_SEEDS:
        for p in CHANCES_DENSITIES:
            for count in CHANCES_COUNTS:
                rng, rng2 = SplitMix64(seed), SplitMix64(seed)
                assert list(map(bool, rng.chances(count, p))) == [rng2.chance(p) for _ in range(count)]
                assert rng.state == rng2.state, (seed, p, count)


def test_generate_deterministic_bytes():
    spec = GeneratorSpec("chordal", 11, 2, Fraction(1, 2), 99)
    g1, p1 = generate(spec)
    g2, p2 = generate(spec)
    assert p1 == p2
    assert serialize_instance(g1) == serialize_instance(g2)


def test_generate_planted_verified_every_class():
    for base in GENERATOR_CLASSES:
        for seed in range(8):
            spec = GeneratorSpec(base, 8 + seed % 3, seed % 3, Fraction(1, 2), 7300 + seed)
            g, planted = generate(spec)
            assert len(planted) == spec.k
            assert g.n == spec.n + spec.k
            rest, _ = g.induced_subgraph(set(range(g.n)) - planted)
            assert recognize(rest, base).member


@pytest.mark.parametrize("base, rows", [
    ("cluster", (0b010, 0b101, 0b010)),              # P3 is no cluster graph
    ("cochordal", (0b0010, 0b0001, 0b1000, 0b0100)),  # 2K2, whose complement is a C4
])
@pytest.mark.parametrize("k", [0, 2])
def test_generate_self_check_rejects_a_broken_base(monkeypatch, base, rows, k):
    """A base construction that leaves its class is caught by the
    recognizer at generation time, planted vertices or not."""
    monkeypatch.setitem(generator._BASES, base, lambda rng, n, density: list(rows))
    with pytest.raises(GenerationError, match="construction bug"):
        generate(GeneratorSpec(base, len(rows), k, Fraction(1, 2), 1))


def test_generate_relabels_once_and_builds_no_subgraph(monkeypatch):
    """generate relabels its construction once, the final shuffle, and
    self-checks the final graph under a vertex mask, so it builds no
    induced subgraph: every class, with and without planted vertices."""
    calls = []
    relabeled = Graph.relabeled

    def counted(g, old):
        calls.append(len(old))
        return relabeled(g, old)

    def forbidden(*args):
        raise AssertionError("generate built an induced subgraph")

    monkeypatch.setattr(Graph, "relabeled", counted)
    monkeypatch.setattr(Graph, "induced_subgraph", forbidden)
    for base in GENERATOR_CLASSES:
        for k in (0, 3):
            g, _ = generate(GeneratorSpec(base, 30, k, Fraction(1, 2), 7400))
            assert calls == [g.n], (base, k)
            calls.clear()


def test_planted_rows_match_single_draws_on_both_sides_of_the_rule(monkeypatch):
    """The planted edges, read as columns of the planted rows or set one
    by one, are those of one ``chance`` per pair (p, u < p), in order,
    after the base; the labels are the shuffle drawn next.  Both sides of
    ``graphs._transposes`` are taken."""
    calls = []
    monkeypatch.setattr(generator, "_columns", lambda *a: calls.append(a) or _columns(*a))
    sides = []
    for base, n, k in (("edgeless", 0, 3), ("split", 15, 1), ("forest", 8, 2), ("cograph", 44, 4),
                       ("cocluster", 90, 10), ("bipartite", 180, 20)):
        for density in (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1)):
            spec = GeneratorSpec(base, n, k, density, 4400 + n)
            rng = SplitMix64(spec.seed)
            rows = generator._BASES[base](rng, n, density) + [0] * k
            for p in range(n, n + k):
                for u in range(p):
                    if rng.chance(density):
                        rows[u] |= 1 << p
                        rows[p] |= 1 << u
            perm = list(range(n + k))
            rng.shuffle(perm)
            expect = Graph(n + k, [(perm[u], perm[v]) for u, row in enumerate(rows)
                                   for v in bits(row) if u < v])
            calls.clear()
            g, planted = generate(spec)
            assert (g, planted) == (expect, frozenset(perm[n:])), spec
            sides.append(bool(calls))
    assert sides.count(True) >= 5 and sides.count(False) >= 5, sides


def test_generate_rejects_unknown_class():
    with pytest.raises(GenerationError):
        generate(GeneratorSpec("interval", 5, 0, Fraction(1, 2), 0))


@pytest.mark.parametrize("n, k", [(MAX_VERTICES + 1, 0), (MAX_VERTICES, 1), (1, MAX_VERTICES)])
def test_generate_rejects_more_vertices_than_a_file_may_hold(n, k):
    with pytest.raises(GenerationError, match="above the limit"):
        generate(GeneratorSpec("edgeless", n, k, Fraction(1, 2), 0))


@pytest.mark.parametrize("base", GENERATOR_CLASSES)
def test_generated_masks_form_a_valid_graph(base):
    """The bases build adjacency masks, unchecked: rebuilding the graph
    from its edges through the validating constructor gives it back (so
    the rows are symmetric with no bit outside 0..n-1), and no row has
    its own bit."""
    for n in (0, 1, 2, 3, 6, 11, 24, 50):
        for k in (0, 2):
            for density in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                g, _ = generate(GeneratorSpec(base, n, k, density, 5100 + n))
                assert Graph(g.n, g.edges()) == g
                assert not any(row >> v & 1 for v, row in enumerate(g.adj_bits))


def test_nth_bit_matches_listed_bits():
    rng = SplitMix64(77)
    for width in (1, 2, 3, 7, 64, 65, 300):
        for _ in range(20):
            mask = rng.next64() ** 5 % (1 << width) or 1
            members = list(bits(mask))
            assert [_nth_bit(mask, i) for i in range(len(members))] == members


def test_random_graph_helpers():
    g = random_graph(10, Fraction(1, 2), 123)
    assert g.n == 10
    assert random_graph(10, Fraction(1, 2), 123) == g
    gc = random_connected_graph(10, Fraction(1, 5), 5)
    assert gc.is_connected()
    w = random_weights(10, 9)
    assert len(w) == 10 and all(x >= 0 for x in w)
    assert random_weights(10, 9) == w


def _triangle_free_reference(rng, n, density):
    """The set-based construction that ``_base_triangle_free`` replaced:
    rebuild adjacency sets, find the lexicographically first triangle and
    delete its last edge, until no triangle is left."""
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.chance(density)}
    while True:
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        tri = None
        for u in range(n):
            for v in sorted(adj[u]):
                above = [w for w in adj[u] & adj[v] if w > v] if v > u else []
                if above:
                    tri = (u, v, min(above))
                    break
            if tri:
                break
        if tri is None:
            return sorted(edges)
        edges.discard(tri[1:])


@pytest.mark.parametrize("n, density", [
    (0, Fraction(1, 2)), (1, Fraction(1, 2)), (5, Fraction(4, 5)), (10, Fraction(1, 2)),
    (10, Fraction(4, 5)), (40, Fraction(1, 2)), (40, Fraction(4, 5)), (60, Fraction(1, 2)),
])
def test_triangle_free_base_matches_set_reference(n, density):
    for seed in range(3):
        got = Graph._from_masks(_base_triangle_free(SplitMix64(seed), n, density))
        assert sorted(got.edges()) == _triangle_free_reference(SplitMix64(seed), n, density)
