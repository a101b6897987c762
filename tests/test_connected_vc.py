import sys
from fractions import Fraction
from itertools import combinations

import pytest

from epa import connected_vc
from epa.certify import is_connected_vertex_cover
from epa.connected_vc import (
    connected_subsets,
    cvc_budgeted,
    cvc_small_after_contraction,
    cvc_split,
)
from epa.graphs import Graph, bits, connected, contraction_rows, mask_of
from epa.generator import GeneratorSpec, SplitMix64, generate, random_connected_graph
from epa.oracle import exact_min_cvc, exact_min_modulator, exact_min_vc
from epa.solvers import cvc_savage, savage_mask
from epa.vertex_cover import two_maximal_clique
from conftest import cliques, connected_corpus, corpus
from small_graphs import complete_graph, cycle_graph, disjoint_union, path_graph, star_graph
from test_vertex_cover import stack_depth


def test_connected_subsets_match_bruteforce():
    for g in corpus(30, 1, 8, seed0=2900):
        for k in range(0, min(g.n, 5) + 1):
            got = sorted(connected_subsets(g.adj_bits, g.full_mask, k))
            expect = sorted(
                mask_of(c)
                for c in combinations(range(g.n), k)
                if connected(g.adj_bits, mask_of(c))
            )
            assert got == expect, (k, sorted(g.edges()))


def test_connected_subsets_deep_without_recursion():
    # 1,100-vertex sets are deeper than the default recursion limit
    n, k = 1200, 1100
    got = list(connected_subsets(path_graph(n).adj_bits, (1 << n) - 1, k))
    assert got == [((1 << k) - 1) << start for start in range(n - k + 1)]


def test_connected_subsets_cut_drops_the_sets_it_holds_for():
    """Cutting every set that holds x leaves the uncut walk's sets
    without x, in the same order.  A cut that never holds changes
    nothing; this one holds only if the size it is passed is wrong."""
    for g in corpus(30, 1, 8, seed0=2950):
        adj, full = g.adj_bits, g.full_mask
        for k in range(1, min(g.n, 5) + 1):
            walk = list(connected_subsets(adj, full, k))
            assert list(connected_subsets(adj, full, k, lambda s, size: size != s.bit_count())) == walk
            for x in range(g.n):
                got = list(connected_subsets(adj, full, k, lambda s, _: s >> x & 1))
                assert got == [s for s in walk if not s >> x & 1], (k, x, sorted(g.edges()))


def test_cvc_budgeted_examples():
    # an optimum within the budget is found exactly
    p4 = path_graph(4)
    assert cvc_budgeted(p4.adj_bits, p4.full_mask, 2).size == 2
    # c = 0 keeps the Savage guarantee
    c5 = cycle_graph(5)
    sol = cvc_budgeted(c5.adj_bits, c5.full_mask, 0)
    assert is_connected_vertex_cover(c5, sol.cover)
    assert sol.size <= exact_min_cvc(c5)[0] + exact_min_vc(c5)[0]
    with pytest.raises(ValueError):
        two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
        cvc_budgeted(two_k2.adj_bits, two_k2.full_mask, 1)


def test_cvc_budgeted_bound_corpus():
    for g in connected_corpus(50, 1, 10, seed0=3000):
        opt_cvc = exact_min_cvc(g)[0]
        opt_vc = exact_min_vc(g)[0]
        for c in (0, 2, 4):
            sol = cvc_budgeted(g.adj_bits, g.full_mask, c)
            assert is_connected_vertex_cover(g, sol.cover)
            assert sol.size <= max(opt_cvc, opt_cvc + opt_vc - c)


def test_cvc_budgeted_below_matches_unbounded():
    """With ``below`` = b the search returns the unbounded cover when that
    has fewer than b vertices and None otherwise, for b = 1..n + 1, on
    connected random graphs and on clique contractions."""
    graphs = connected_corpus(30, 2, 12, seed0=3050)
    for i in range(6):
        g = random_connected_graph(11, Fraction(1, 2), 3090 + i)
        graphs.append(g.contract_with_pendant(two_maximal_clique(g))[0])
    for i, g in enumerate(graphs):
        for c in (1, 2, 3, 4):
            cover = cvc_budgeted(g.adj_bits, g.full_mask, c).cover
            for b in range(1, g.n + 2):
                sol = cvc_budgeted(g.adj_bits, g.full_mask, c, below=b)
                if len(cover) < b:
                    assert sol is not None and sol.cover == cover, (i, c, b)
                else:
                    assert sol is None, (i, c, b)


def test_cvc_small_after_contraction_examples():
    k4 = complete_graph(4)
    sol = cvc_small_after_contraction(k4.adj_bits, k4.full_mask, 0b1111, 3)
    assert sol.size == 3
    p4 = path_graph(4)
    sol = cvc_small_after_contraction(p4.adj_bits, p4.full_mask, 0b110, 3)
    assert sol.cover == frozenset({1, 2})
    k5 = complete_graph(5)
    sol = cvc_small_after_contraction(k5.adj_bits, k5.full_mask, 0b11111, 3)
    assert sol.size == 4


def test_cvc_small_after_contraction_is_exact():
    graphs = connected_corpus(40, 2, 9, seed0=3100) + [Graph(1, [])]
    for g in graphs:
        for z in [two_maximal_clique(g)] + [frozenset({v}) for v in range(g.n)]:
            h, _ = g.contract_with_pendant(z)
            opt_contracted, _ = exact_min_cvc(h)
            sol = cvc_small_after_contraction(g.adj_bits, g.full_mask, mask_of(z), max(3, opt_contracted))
            assert is_connected_vertex_cover(g, sol.cover)
            assert sol.size == exact_min_cvc(g)[0]


def test_cvc_small_after_contraction_past_its_premise():
    # G<{0, 1}> of P5 is P4 plus a pendant leaf, whose optimum is 3 > c;
    # the first G<z - u> still has a cover within c + 1, so the answer
    # is an exact minimum instead of an error
    p = path_graph(5)
    sol = cvc_small_after_contraction(p.adj_bits, p.full_mask, 0b11, 2)
    assert sol.cover == frozenset({1, 2, 3}) and sol.size == exact_min_cvc(p)[0]


def test_contracting_one_vertex_less_adds_at_most_one():
    """OPT(G<z - u>) is OPT(G<z>) or OPT(G<z>) + 1 for every u in every
    clique z of two to four vertices: why the exact tail needs no z
    candidate, and why OPT(G<z>) is a floor for all of its searches."""
    checked = 0
    for g in connected_corpus(40, 2, 10, seed0=3800):
        for z in cliques(g, (2, 3, 4)):
            opt = exact_min_cvc(g.contract_with_pendant(z)[0])[0]
            for u in z:
                assert exact_min_cvc(g.contract_with_pendant(z - {u})[0])[0] - opt in (0, 1)
            checked += 1
    assert checked > 100


def test_contraction_rows_relabel_to_the_built_contraction():
    """The rows of G<y> in G's id space, relabeled by the order-preserving
    map (kept ids to 0..|kept|-1, bit n to |kept|, bit n + 1 to
    |kept| + 1), are the rows of ``contract_with_pendant(y)``: the
    premise for walking the rows instead of the built graph."""
    graphs = corpus(40, 1, 12, seed0=3850) + [path_graph(7), complete_graph(5), star_graph(6)]
    for i, g in enumerate(graphs):
        rng = SplitMix64(3900 + i)
        masks = {1 << v for v in range(g.n)} | {g.full_mask}
        masks |= {rng.below(1 << g.n) for _ in range(6)}
        for y in sorted(masks - {0}):
            rows, within = contraction_rows(g.adj_bits, y, g.full_mask)
            h, kept = g.contract_with_pendant(bits(y))
            order = list(bits(within))
            assert order == list(kept) + [g.n, g.n + 1]
            assert not any(rows[u] for u in bits(y))
            new_id = {old: new for new, old in enumerate(order)}
            relabeled = tuple(mask_of(new_id[v] for v in bits(rows[old])) for old in order)
            assert relabeled == h.adj_bits, (i, y)


def test_cvc_small_with_the_contraction_optimum_given():
    """Handing the tail OPT(G<z>), as ``cvc_split`` does, gives the cover
    it finds on its own, for every clique z of two to four vertices."""
    for g in connected_corpus(30, 2, 10, seed0=3950):
        for z in cliques(g, (2, 3, 4)):
            opt = exact_min_cvc(g.contract_with_pendant(z)[0])[0]
            for c in range(max(1, opt - 1), opt + 2):
                assert _tail_outcome(g, z, c, opt) == _tail_outcome(g, z, c)


def _tail_outcome(g, z, *args):
    """The exact tail's cover, or its error text."""
    try:
        return cvc_small_after_contraction(g.adj_bits, g.full_mask, mask_of(z), *args).cover
    except ValueError as exc:
        return str(exc)


def test_cvc_small_budget_violation_detected():
    # a long path's contraction still needs a big cover
    p = path_graph(10)
    with pytest.raises(ValueError):
        cvc_small_after_contraction(p.adj_bits, p.full_mask, 0b11, 1)


@pytest.mark.parametrize("z", [(), (0, 2), (1, 2, 3), (4,), (0, 4), (3, 9)])
def test_cvc_small_rejects_a_z_that_is_no_clique_of_g(z):
    """Empty, not a clique, or holding an id that is no vertex of g, on
    P4 and on P4 contracted twice, {0} and then the vertex 4 it became.
    The rows of the latter run to id 7, and ids 0 and 4 lie outside its
    vertex mask, so no z here is a clique of it and 9 has no row.  Rows
    that are not connected are rejected before z is read."""
    p4 = path_graph(4)
    rows, verts = contraction_rows(p4.adj_bits, 0b1, p4.full_mask)
    rows, verts = contraction_rows(rows, 1 << 4, verts)
    assert len(rows) == 8 and verts == 0b11101110
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    for adj, within in ((p4.adj_bits, p4.full_mask), (rows, verts)):
        with pytest.raises(ValueError, match="z must be a nonempty clique"):
            cvc_small_after_contraction(adj, within, mask_of(z), 3)
    with pytest.raises(ValueError, match="needs a connected graph"):
        cvc_small_after_contraction(two_k2.adj_bits, two_k2.full_mask, mask_of(z), 3)


def test_contraction_lemma_invariants():
    # contracting a clique: OPT_CVC drops by at least |Z| - 2, and the
    # split modulator shrinks by |Z ∩ M| - 1 (witness: (M \ Z) ∪ {v});
    # the stronger "- 1 whenever Z merely intersects M" fails, e.g. on a
    # C5 with a pendant path merged by the contraction into a C4
    for g in connected_corpus(40, 2, 9, seed0=3200):
        z = two_maximal_clique(g)
        h, _ = g.contract_with_pendant(z)
        assert exact_min_cvc(h)[0] <= exact_min_cvc(g)[0] - len(z) + 2
        k, mod = exact_min_modulator(g, "split")
        hit = len(mod & z)
        if len(z) >= 2 and hit:
            assert exact_min_modulator(h, "split")[0] <= k - hit + 1
        if len(z) >= 2 and z <= mod:
            assert exact_min_modulator(h, "split")[0] <= k - 1


def test_contraction_intersection_alone_is_not_enough():
    # concrete counterexample to the "-1 on any intersection" reading:
    # contracting the 2-maximal edge {0, 1} of this graph turns its C5
    # into an induced C4, so one deletion is still needed afterwards
    g = Graph(6, [(0, 1), (0, 2), (0, 5), (1, 3), (2, 4), (3, 4), (3, 5)])
    z = frozenset({0, 1})
    k, mods = exact_min_modulator(g, "split")
    assert k == 1
    h, _ = g.contract_with_pendant(z)
    assert exact_min_modulator(h, "split")[0] == 1


def test_clique_in_split_has_small_contracted_cover():
    for i in range(40):
        g, _ = generate(GeneratorSpec("split", 12, 0, Fraction(1, 2), 3300 + i))
        z = two_maximal_clique(g)
        h, _ = g.contract_with_pendant(z)
        assert exact_min_vc(h)[0] <= 2


def test_cvc_split_examples():
    assert cvc_split(path_graph(4)).cover == frozenset({1, 2})
    assert cvc_split(Graph(1, [])).cover == frozenset()
    with pytest.raises(ValueError):
        cvc_split(disjoint_union(complete_graph(2), complete_graph(2)))


def test_cvc_split_exact_on_connected_splits():
    found = 0
    i = 0
    while found < 30 and i < 200:
        g, _ = generate(GeneratorSpec("split", 10, 0, Fraction(3, 5), 3400 + i))
        i += 1
        if not g.is_connected():
            continue
        found += 1
        sol = cvc_split(g)
        assert is_connected_vertex_cover(g, sol.cover)
        assert sol.size == exact_min_cvc(g)[0]
    assert found == 30


def test_cvc_split_bound_corpus():
    for g in connected_corpus(60, 1, 10, seed0=3500):
        sol = cvc_split(g)
        assert is_connected_vertex_cover(g, sol.cover)
        opt = exact_min_cvc(g)[0]
        k = exact_min_modulator(g, "split")[0]
        assert sol.size <= opt + k, sorted(g.edges())


def test_cvc_split_terminates_on_adversarial_shapes():
    # paths, cycles, stars and brooms drive the contraction into its
    # no-shrink regimes; termination relies on the clique choice
    for g in [path_graph(12), cycle_graph(12), star_graph(9)]:
        sol = cvc_split(g)
        assert is_connected_vertex_cover(g, sol.cover)
    broom = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6), (3, 7)])
    sol = cvc_split(broom)
    assert is_connected_vertex_cover(broom, sol.cover)


def test_cvc_split_descends_on_rows(monkeypatch):
    """On a draw four levels deep the driver builds no graph: each level
    is the rows of the one above, so ``contract_with_pendant`` and
    ``relabeled`` are never called.  One budgeted search runs per level."""
    def forbidden(*args):
        raise AssertionError("cvc_split built a graph")

    levels = []
    budgeted = connected_vc.cvc_budgeted

    def counted(*args, **kwargs):
        levels.append(args)
        return budgeted(*args, **kwargs)

    monkeypatch.setattr(Graph, "contract_with_pendant", forbidden)
    monkeypatch.setattr(Graph, "relabeled", forbidden)
    monkeypatch.setattr(connected_vc, "cvc_budgeted", counted)
    g = random_connected_graph(14, Fraction(1, 5), 6497)
    assert is_connected_vertex_cover(g, cvc_split(g).cover)
    assert len(levels) >= 3


def test_cvc_split_runs_without_deep_recursion():
    """Each contraction of a 60-vertex path shrinks it by one vertex;
    with only 40 frames to spare the loop still answers, with the cover
    the recursive driver gave under the normal limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        cover = cvc_split(path_graph(60)).cover
    finally:
        sys.setrecursionlimit(old)
    assert cover == frozenset(range(1, 59))


def _savage_stack_reference(g: Graph) -> frozenset[int]:
    """Savage's cover as it was: a DFS stack of (vertex, parent) pairs,
    every unvisited neighbour pushed highest first."""
    if g.n <= 1:
        return frozenset()
    children = [0] * g.n
    visited = set()
    stack = [(0, -1)]
    while stack:
        v, parent = stack.pop()
        if v in visited:
            continue
        visited.add(v)
        if parent != -1:
            children[parent] += 1
        stack.extend((u, v) for u in reversed(g.adj[v]) if u not in visited)
    internal = {v for v in range(g.n) if children[v] > 0}
    pruned = internal - {0}
    if pruned and all(u in pruned or v in pruned for u, v in g.edges()) and connected(g.adj_bits, mask_of(pruned)):
        return frozenset(pruned)
    return frozenset(internal)


def test_virtual_vertex_dfs_matches_contraction():
    """Savage with Y as a virtual vertex, against contracting Y, running
    Savage on G<Y> and lifting, on every connected subset Y."""
    graphs = connected_corpus(24, 2, 10, seed0=3600)
    graphs += [path_graph(7), cycle_graph(8), star_graph(6), complete_graph(5)]
    for g in graphs:
        assert savage_mask(g.adj_bits, g.full_mask, 0) == mask_of(cvc_savage(g)) == mask_of(_savage_stack_reference(g))
        for k in range(1, g.n + 1):
            for sub in connected_subsets(g.adj_bits, g.full_mask, k):
                y = frozenset(bits(sub))
                h, kept = g.contract_with_pendant(y)
                savage = cvc_savage(h)
                assert savage == _savage_stack_reference(h)
                lifted = {kept[v] for v in savage if v < len(kept)}
                assert savage_mask(g.adj_bits, g.full_mask, sub) == mask_of(lifted | y), (sorted(g.edges()), y)

