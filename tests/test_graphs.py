from itertools import combinations

import pytest
from hypothesis import given

from boxkit.bitset import bits, full_mask, mask_of, members, popcount
from boxkit.graphs import (
    Graph,
    bipartite_from_edges,
    bipartition,
    closed_neighborhood,
    complement,
    complete_graph,
    cycle,
    degree_summary,
    empty_graph,
    from_edges,
    from_pair_mask,
    induced_subgraph,
    is_complete,
    is_connected,
    open_neighborhood,
    path,
    strong_vertex_boundary,
    universal_vertices,
    vertex_boundary,
)

from .strategies import graphs, graphs_with_subset


def test_rejects_loops():
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])


def test_rejects_asymmetry():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))


def test_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))


def test_edges_round_trip():
    e = [(0, 2), (1, 3), (0, 1)]
    g = from_edges(4, e)
    assert g.edges == sorted(e)
    assert g.edge_count == 3
    assert from_edges(4, g.edges).rows == g.rows


def test_cached_edge_count_leaves_equality_hash_and_repr_alone():
    fresh, counted = cycle(5), cycle(5)
    assert counted.edge_count == 5
    assert "edge_count" in vars(counted) and "edge_count" not in vars(fresh)
    assert counted == fresh and hash(counted) == hash(fresh)
    assert repr(counted) == repr(fresh) == "Graph(n=5, rows=(18, 5, 10, 20, 9))"


def test_from_pair_mask_enumerates_all_pairs():
    n = 4
    pairs = list(combinations(range(n), 2))
    for i, (u, v) in enumerate(pairs):
        g = from_pair_mask(n, 1 << i)
        assert g.edges == [(u, v)]


def test_constructors():
    assert complete_graph(4).edge_count == 6
    assert empty_graph(3).edge_count == 0
    assert cycle(5).edge_count == 5
    assert path(5).edge_count == 4
    assert degree_summary(cycle(6)).is_regular
    with pytest.raises(ValueError):
        cycle(2)


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)).rows == g.rows
    assert g.edge_count + complement(g).edge_count == g.n * (g.n - 1) // 2


@given(graphs_with_subset())
def test_neighborhood_operators_match_set_definitions(gx):
    g, x = gx
    xs = set(members(x))
    open_ref = {v for v in range(g.n) if any(g.has_edge(v, u) for u in xs)}
    assert open_neighborhood(g, x) == mask_of(open_ref)
    assert closed_neighborhood(g, x) == mask_of(open_ref | xs)
    assert vertex_boundary(g, x) == mask_of(open_ref - xs)
    strong_ref = {v for v in range(g.n)
                  if v not in xs and all(g.has_edge(v, u) for u in xs)}
    assert strong_vertex_boundary(g, x) == mask_of(strong_ref)


def test_strong_boundary_rejects_empty_set():
    with pytest.raises(ValueError):
        strong_vertex_boundary(cycle(4), 0)


def test_is_connected():
    assert is_connected(cycle(5))
    assert is_connected(path(2))
    assert not is_connected(from_edges(4, [(0, 1), (2, 3)]))
    assert not is_connected(empty_graph(2))
    assert is_connected(empty_graph(1))


@given(graphs_with_subset(min_n=2, max_n=7))
def test_induced_subgraph_preserves_adjacency(gx):
    g, keep = gx
    sub = induced_subgraph(g, keep)
    kept = members(keep)
    assert sub.n == len(kept)
    for i, u in enumerate(kept):
        for j, v in enumerate(kept):
            assert sub.has_edge(i, j) == g.has_edge(u, v)


def test_degree_summary_and_universal():
    g = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    s = degree_summary(g)
    assert (s.min_degree, s.max_degree) == (1, 3)
    assert s.universal_count == 1
    assert not s.is_regular
    assert universal_vertices(g) == 0b0001
    assert universal_vertices(complete_graph(3)) == 0b111


def test_is_complete():
    assert is_complete(complete_graph(1))
    assert is_complete(complete_graph(5))
    assert not is_complete(cycle(4))


def _two_colorable(g):
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in bits(g.rows[v]):
                if u not in color:
                    color[u] = color[v] ^ 1
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


@given(graphs(max_n=7))
def test_bipartition_agrees_with_two_coloring(g):
    sides = bipartition(g)
    assert (sides is not None) == _two_colorable(g)
    if sides is not None:
        a, b = sides
        assert a | b == full_mask(g.n)
        assert a & b == 0
        for u, v in g.edges:
            assert (a >> u & 1) != (a >> v & 1)


def test_bipartition_examples():
    assert bipartition(cycle(5)) is None
    a, b = bipartition(cycle(6))
    assert popcount(a) == popcount(b) == 3
    # vertex 0 always lands in side A
    assert a & 1


def test_bipartite_graph_basics():
    gb = bipartite_from_edges(2, 3, [(0, 0), (0, 2), (1, 1)])
    assert gb.edge_count == 3
    assert gb.column(0) == 0b01
    assert gb.column(1) == 0b10
    g = gb.to_graph()
    assert g.n == 5
    assert g.has_edge(0, 2) and g.has_edge(0, 4) and g.has_edge(1, 3)
    with pytest.raises(ValueError):
        bipartite_from_edges(2, 2, [(0, 5)])
