import tracemalloc
from fractions import Fraction

import pytest

from epa import graphs
from epa.generator import GeneratorSpec, SplitMix64, generate, random_graph
from epa.graphs import Graph, _columns, as_weights, bits, connected, first_triangle, mask_covers
from epa.instances import serialize_instance
from conftest import _components, corpus, masked_corpus
from small_graphs import (
    adjacent,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    star_graph,
)


def random_mask(n: int, seed: int) -> int:
    """A seeded vertex mask of about half the vertices."""
    rng = SplitMix64(seed)
    return sum(1 << v for v in range(n) if rng.below(2))


def assert_same_graph(h: Graph, ref: Graph) -> None:
    assert (h.n, h.m, h.adj, h.adj_bits) == (ref.n, ref.m, ref.adj, ref.adj_bits)


def relabel_reference(g: Graph, old) -> Graph:
    """The validated build of the edges of ``g`` inside ``old``, vertex
    ``old[i]`` renamed i."""
    index = {o: j for j, o in enumerate(old)}
    return Graph(len(old), [(index[u], index[v]) for u, v in g.edges() if u in index and v in index])


def transposes(g: Graph, old) -> bool:
    """The test's own copy of ``Graph.relabeled``'s rule: True when it
    reads the new rows as columns rather than remapping bits one by one."""
    keep = sum(1 << v for v in old)
    ones = sum((g.adj_bits[u] & keep).bit_count() for u in old)
    return ones * 300 >= len(old) * (g.n + 2 * len(old) + 400)


def spy_on_columns(monkeypatch) -> list:
    """Record every call of ``graphs._columns`` made inside ``graphs``."""
    calls = []
    monkeypatch.setattr(graphs, "_columns", lambda *a: calls.append(a) or _columns(*a))
    return calls


def test_columns_match_bit_by_bit_reference():
    """Widths 0-70, whole bytes or not, with the top bit set in some rows
    and every bit in others; columns in any order and repeated; and no
    rows at all, whose every column is empty."""
    rng = SplitMix64(8800)
    assert list(_columns([], 0, [])) == []
    assert list(_columns([], 9, [8, 0, 8])) == [0, 0, 0]
    for width in range(71):
        for count in (1, 2, 8, 13):
            rows = [rng.below(1 << width) for _ in range(count)]
            if width:
                rows[0] |= 1 << (width - 1)
                rows.append((1 << width) - 1)
            cols = list(range(width))
            rng.shuffle(cols)
            cols += cols[:3]
            expect = [sum((row >> c & 1) << i for i, row in enumerate(rows)) for c in cols]
            assert list(_columns(rows, width, cols)) == expect, (width, count)


def test_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_adjacency_sorted_and_symmetric():
    g = Graph(4, [(2, 0), (3, 1), (0, 1)])
    assert g.adj[0] == (1, 2)
    for u in range(4):
        for v in g.adj[u]:
            assert u in g.adj[v]


def test_complement_examples():
    assert complete_graph(3).complement() == empty_graph(3)
    p4 = path_graph(4)
    assert p4.complement().complement() == p4
    c5 = cycle_graph(5)
    # C5 is self-complementary up to relabeling: same degree sequence, 5 edges
    assert c5.complement().m == 5
    assert sorted(c5.complement().degree(v) for v in range(5)) == [2] * 5


def test_complement_involution_corpus():
    for g in corpus(60, 1, 10, seed0=300):
        assert g.complement().complement() == g


def test_induced_subgraph_edge_set():
    for g in corpus(40, 2, 9, seed0=400):
        for sub in ([0, 1], list(range(g.n))[::2], list(range(g.n))):
            h, old = g.induced_subgraph(sub)
            expect = {(min(old[u], old[v]), max(old[u], old[v])) for u, v in h.edges()}
            direct = {
                (u, v) for u, v in g.edges() if u in set(sub) and v in set(sub)
            }
            assert expect == direct


def test_induced_subgraph_trivial_cases():
    c5 = cycle_graph(5)
    p3, _ = c5.induced_subgraph([0, 1, 2])
    assert p3.m == 2
    whole, _ = c5.induced_subgraph(range(5))
    assert whole == c5
    k2, _ = complete_graph(4).induced_subgraph([1, 3])
    assert k2 == complete_graph(2)


def test_contract_with_pendant():
    k3 = complete_graph(3)
    h, kept = k3.contract_with_pendant({0, 1, 2})
    assert h == Graph(2, [(0, 1)]) and kept == ()
    assert h.degree(len(kept) + 1) == 1

    p3 = path_graph(3)
    h, kept = p3.contract_with_pendant({0})
    assert h.n == 4 and kept == (1, 2)
    assert sorted(h.edges()) == [(0, 1), (0, 2), (2, 3)]

    p4 = path_graph(4)
    h, kept = p4.contract_with_pendant({1, 2})
    assert h.n == 4 and kept == (0, 3)
    assert h == star_graph(3).__class__(4, [(0, 2), (1, 2), (2, 3)])


def test_contract_size_and_leaf_degree_corpus():
    for i, g in enumerate(corpus(40, 2, 9, seed0=500)):
        y = set(range(0, g.n, 2)) if i % 2 else {i % g.n}
        h, kept = g.contract_with_pendant(y)
        assert h.n == g.n - len(y) + 2 == len(kept) + 2
        assert h.degree(len(kept) + 1) == 1
        assert h.adj[len(kept) + 1] == (len(kept),)


def test_contract_empty_rejected():
    with pytest.raises(ValueError):
        path_graph(3).contract_with_pendant(set())


def test_induced_subgraph_rejects_out_of_range_ids():
    # a negative id must not wrap around to the last vertex
    with pytest.raises(ValueError):
        path_graph(3).induced_subgraph([-1, 1])
    with pytest.raises(ValueError):
        path_graph(3).induced_subgraph([0, 5])
    with pytest.raises(ValueError):
        path_graph(3).contract_with_pendant({-1})


# -- derived graphs equal the validated build of their edge lists -------


def test_complement_equals_validated_build_corpus():
    for g in corpus(60, 0, 10, seed0=700):
        es = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not adjacent(g, u, v)]
        assert_same_graph(g.complement(), Graph(g.n, es))


def test_induced_subgraph_equals_validated_build_corpus():
    for i, g in enumerate(corpus(60, 1, 10, seed0=710)):
        for s in (random_mask(g.n, 720 + i), g.full_mask, 0):
            old = [v for v in range(g.n) if s >> v & 1]
            index = {o: j for j, o in enumerate(old)}
            es = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
            h, got_old = g.induced_subgraph(old)
            assert got_old == tuple(old)
            assert_same_graph(h, Graph(len(old), es))


def test_induced_subgraph_sparse_and_dense_rows_match_definition():
    """Sparse graphs are remapped bit by bit, denser ones read as columns
    of the kept rows; both must give the induced subgraph."""
    inputs = [path_graph(300), cycle_graph(250), star_graph(150)]
    inputs += corpus(8, 60, 120, seed0=780)
    inputs += [generate(GeneratorSpec("forest", 180, 20, Fraction(1, 2), 790 + i))[0] for i in range(2)]
    sparse = dense = 0
    for i, g in enumerate(inputs):
        for s in (random_mask(g.n, 800 + i), g.full_mask & ~(1 << (i % g.n)), g.full_mask & 0x5555 << 40):
            old = [v for v in range(g.n) if s >> v & 1]
            index = {o: j for j, o in enumerate(old)}
            es = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
            h, got_old = g.induced_subgraph(old)
            assert got_old == tuple(old)
            assert_same_graph(h, Graph(len(old), es))
            if transposes(g, old):
                dense += 1
            else:
                sparse += 1
    assert sparse >= 9 and dense >= 9


def test_relabeled_takes_ids_in_any_order(monkeypatch):
    """New id i of ``relabeled(old)`` is ``old[i]`` for sorted, reversed
    and shuffled ``old``, on both sides of the rule, over the masked
    corpus and dense draws at n = 100-400; the transposition runs exactly
    when the test's copy of the rule says so."""
    calls = spy_on_columns(monkeypatch)
    cases = [(g, list(bits(within))) for g, within in masked_corpus()]
    more = [path_graph(200), complete_graph(60)] + corpus(6, 40, 120, seed0=860)
    more += [random_graph(n, Fraction(1, 2), 850 + n) for n in (100, 250, 400)]
    for i, g in enumerate(more):
        cases += [(g, list(bits(s))) for s in (random_mask(g.n, 880 + i), g.full_mask, 1 << (i % g.n))]
    rng = SplitMix64(870)
    sides = [0, 0]
    for g, old in cases:
        shuffled = list(old)
        rng.shuffle(shuffled)
        for order in (old, old[::-1], shuffled):
            calls.clear()
            assert_same_graph(g.relabeled(order), relabel_reference(g, order))
            assert bool(calls) == transposes(g, order)
            sides[bool(calls)] += 1
    assert min(sides) >= 300, sides


def test_dense_relabel_peaks_below_its_edge_text(monkeypatch):
    """A shuffle of a dense n = 2000 graph (density 1/2, about 10.9 MB of
    edge text) is read with one string of n^2 digits, below the text; a
    shuffle of the 4,096-vertex path stays on the bit loop, where that
    string alone would take n^2 bytes."""
    calls = spy_on_columns(monkeypatch)
    for g, side in ((random_graph(2000, Fraction(1, 2), 8900), True), (path_graph(4096), False)):
        text = serialize_instance(g)
        edge_text = len(text) - (text.index("\ne ") + 1)
        del text
        old = list(range(g.n))
        SplitMix64(8901).shuffle(old)
        calls.clear()
        tracemalloc.start()
        try:
            h = g.relabeled(old)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bool(calls) == side
        assert peak < (edge_text if side else g.n * g.n // 2)
        back = [0] * g.n
        for i, o in enumerate(old):
            back[o] = i
        assert h.relabeled(back) == g


def test_contraction_equals_validated_build_corpus():
    for i, g in enumerate(corpus(60, 1, 10, seed0=730)):
        y = {v for v in range(g.n) if random_mask(g.n, 740 + i) >> v & 1} or {i % g.n}
        kept = [u for u in range(g.n) if u not in y]
        index = {o: j for j, o in enumerate(kept)}
        vert, leaf = len(kept), len(kept) + 1
        es = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
        es += [(index[u], vert) for u in kept if any(adjacent(g, u, x) for x in y)]
        es.append((vert, leaf))
        h, got_kept = g.contract_with_pendant(y)
        assert_same_graph(h, Graph(len(kept) + 2, es))
        assert got_kept == tuple(kept)


def test_covers_matches_edge_scan_corpus():
    for i, g in enumerate(corpus(60, 1, 10, seed0=760)):
        within = random_mask(g.n, 770 + i) if i % 3 else g.full_mask
        for j in range(8):
            cover = random_mask(g.n, 780 + 8 * i + j)
            expect = all(
                cover >> u & 1 or cover >> v & 1
                for u, v in g.edges()
                if within >> u & 1 and within >> v & 1
            )
            assert mask_covers(g.adj_bits, cover, within) == expect


def brute_degeneracy(g: Graph) -> int:
    best = 0
    for mask in range(1, 1 << g.n):
        sub = [v for v in range(g.n) if mask >> v & 1]
        best = max(best, min((g.adj_bits[v] & mask).bit_count() for v in sub))
    return best


def test_degeneracy_examples():
    assert path_graph(7).degeneracy_order()[1] == 1
    assert complete_graph(5).degeneracy_order()[1] == 4
    assert cycle_graph(4).degeneracy_order()[1] == 2 == brute_degeneracy(cycle_graph(4))


def test_degeneracy_matches_definition_corpus():
    for g in corpus(40, 1, 8, seed0=600):
        order, val = g.degeneracy_order()
        assert sorted(order) == list(range(g.n))
        assert val == brute_degeneracy(g) if g.n else val == 0


def ref_degeneracy_order(g: Graph) -> tuple[tuple[int, ...], int]:
    """Min-degree removal order by a scan of every live vertex per step,
    lowest id on ties, and the largest residual degree removed."""
    alive = g.full_mask
    deg = [g.degree(v) for v in range(g.n)]
    order = []
    degen = 0
    for _ in range(g.n):
        v = min((u for u in range(g.n) if alive >> u & 1), key=lambda u: (deg[u], u))
        degen = max(degen, deg[v])
        order.append(v)
        alive ^= 1 << v
        for u in range(g.n):
            if alive >> u & 1 and adjacent(g, u, v):
                deg[u] -= 1
    return tuple(order), degen


def test_degeneracy_order_matches_scan():
    graphs = [Graph(0, []), Graph(1, [])] + corpus(60, 2, 40, seed0=640)
    graphs += [generate(GeneratorSpec("chordal", n, n // 10, Fraction(1, 2), 650 + n))[0]
               for n in (20, 60, 150, 300)]
    for g in graphs:
        assert g.degeneracy_order() == ref_degeneracy_order(g)


def test_connected_components():
    g = disjoint_union(complete_graph(3), complete_graph(2))
    assert sorted(m.bit_count() for m in g.component_masks(g.full_mask)) == [2, 3]
    assert len(empty_graph(4).component_masks(0b1111)) == 4
    assert cycle_graph(5).is_connected()


def test_connected_is_at_most_one_component_of_the_induced_subgraph():
    for g, within in masked_corpus():
        sub, _ = g.induced_subgraph(bits(within))
        assert connected(g.adj_bits, within) == (len(_components(sub)) <= 1), (g, within)


def test_edges_read_the_masks_and_match_the_tuple_form():
    for g in [Graph(0, []), Graph(1, [])] + corpus(40, 2, 30, seed0=830):
        got = list(g.edges())
        assert g._adj is None
        assert got == [(u, v) for u in range(g.n) for v in g.adj[u] if v > u]


def test_component_masks_match_induced_subgraph_corpus():
    for i, g in enumerate(corpus(40, 1, 10, seed0=800)):
        within = random_mask(g.n, 810 + i) if i % 2 else g.full_mask
        sub, old = g.induced_subgraph(v for v in range(g.n) if within >> v & 1)
        expect = [sum(1 << old[v] for v in comp) for comp in _components(sub)]
        assert g.component_masks(within) == sorted(expect, key=lambda m: m & -m)


def test_first_triangle_is_lexicographic_minimum_corpus():
    for i, g in enumerate(corpus(60, 1, 10, seed0=820)):
        within = random_mask(g.n, 830 + i) if i % 3 else g.full_mask
        tris = [
            (u, v, w)
            for u in range(g.n) for v in range(u + 1, g.n) for w in range(v + 1, g.n)
            if all(within >> x & 1 for x in (u, v, w))
            and adjacent(g, u, v) and adjacent(g, u, w) and adjacent(g, v, w)
        ]
        assert first_triangle(g.adj_bits, within) == (min(tris) if tris else None)


def test_weights_validation():
    assert as_weights([1, "3/2"], 2) == (Fraction(1), Fraction(3, 2))
    with pytest.raises(ValueError):
        as_weights([1], 2)
    with pytest.raises(ValueError):
        as_weights([-1, 1], 2)


@pytest.mark.parametrize(
    "n,edges,message",
    [
        (-1, [], "vertex count must be nonnegative"),
        (2, [(0, 2)], "edge (0,2) out of range for n=2"),
        (2, [(-1, 0)], "edge (-1,0) out of range for n=2"),
        (2, [(1, 1)], "self-loop at vertex 1"),
        (3, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
        (3, [(2, 1), (1, 2)], "duplicate edge (1, 2)"),
        (3, [(0, 3), (0, 0)], "edge (0,3) out of range for n=3"),
    ],
)
def test_graph_error_messages_exact(n, edges, message):
    with pytest.raises(ValueError) as err:
        Graph(n, edges)
    assert str(err.value) == message


def test_lazy_adjacency_matches_edge_list():
    """``adj`` (built from the masks on first use, bit by bit for sparse
    rows and from the binary digits for dense ones) equals the sorted
    neighbour lists of the edge list, and ``degree`` and ``m`` agree."""
    for i, (n, density) in enumerate([(0, 1), (1, 1), (7, 1), (12, 8), (60, 2), (60, 5), (120, 9)]):
        rng = SplitMix64(4400 + i)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.below(10) < density]
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        g = Graph(n, edges)
        assert g.adj == tuple(tuple(sorted(s)) for s in nbrs)
        assert [g.degree(v) for v in range(n)] == [len(s) for s in nbrs]
        assert g.m == len(edges) and list(g.edges()) == edges
