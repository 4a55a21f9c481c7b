"""Undirected simple graphs as tuples of adjacency bitmasks.

Row v is the neighbor set of v encoded as an int, so neighborhood unions
and intersections over a whole vertex set are a handful of bitwise ops.
Graphs are immutable and hashable; every mutation-shaped operation
returns a new Graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .bitset import bits, full_mask, mask_of, popcount

# Enumeration-heavy operations carry much tighter caps of their own; this
# only guards against degenerate inputs (adjacency matrices stay dense).
MAX_VERTICES = 2000


def check_vertex_count(n: int) -> None:
    """Reject a vertex count outside 1..MAX_VERTICES before anything of
    size n is built."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        check_vertex_count(self.n)
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        full = full_mask(self.n)
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= n")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(self.rows):
            for u in bits(row):
                if not self.rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    @property
    def vertices(self) -> int:
        """All vertices, as a bitmask."""
        return full_mask(self.n)

    @cached_property
    def edge_count(self) -> int:
        """Counted once per graph; the cache lives in the instance's
        __dict__, which equality, hashing and repr do not read."""
        return sum(popcount(r) for r in self.rows) // 2

    @cached_property
    def closed_rows(self) -> tuple[int, ...]:
        """N[v] for every vertex v, built here only; cached like edge_count."""
        return tuple(row | 1 << v for v, row in enumerate(self.rows))

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            higher = self.rows[u] >> (u + 1)
            for w in bits(higher):
                out.append((u, u + 1 + w))
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)


def from_edges(n: int, edges) -> Graph:
    """Graph from an iterable of (u, v) pairs.  Duplicates collapse."""
    check_vertex_count(n)
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def from_pair_mask(n: int, mask: int) -> Graph:
    """Graph from a bitmask over the C(n,2) vertex pairs in lex order."""
    check_vertex_count(n)
    edges = []
    for b, (u, v) in enumerate(combinations(range(n), 2)):
        if mask >> b & 1:
            edges.append((u, v))
    return from_edges(n, edges)


def empty_graph(n: int) -> Graph:
    check_vertex_count(n)
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    check_vertex_count(n)
    full = full_mask(n)
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    check_vertex_count(n)
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    check_vertex_count(n)
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def complement(g: Graph) -> Graph:
    full = full_mask(g.n)
    return Graph(g.n, tuple(full & ~row for row in g.closed_rows))


def is_complete(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


def is_connected(g: Graph) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        grown = seen
        for v in bits(frontier):
            grown |= g.rows[v]
        frontier = grown & ~seen
        seen = grown
    return seen == g.vertices


def induced_subgraph(g: Graph, keep: int) -> Graph:
    """Subgraph induced by the bitmask ``keep``, vertices relabeled to
    0..k-1 in increasing original order."""
    kept = list(bits(keep))
    if not kept:
        raise ValueError("induced subgraph needs at least one vertex")
    index = {v: i for i, v in enumerate(kept)}
    rows = []
    for v in kept:
        row = 0
        for u in bits(g.rows[v] & keep):
            row |= 1 << index[u]
        rows.append(row)
    return Graph(len(kept), tuple(rows))


# --- neighborhood operators -------------------------------------------------

def open_neighborhood(g: Graph, x: int) -> int:
    """N'(X): every vertex with at least one neighbor inside X.

    Vertices of X itself qualify when they have a neighbor in X.
    """
    acc = 0
    for v in bits(x):
        acc |= g.rows[v]
    return acc


def vertex_boundary(g: Graph, x: int) -> int:
    """Vertices outside X with at least one neighbor inside X."""
    return open_neighborhood(g, x) & ~x


def strong_vertex_boundary(g: Graph, x: int) -> int:
    """Vertices outside X adjacent to every vertex of X.

    Empty X is rejected: the all-vertex answer it would suggest is never
    what a caller means.
    """
    if x == 0:
        raise ValueError("strong vertex boundary of the empty set is undefined")
    acc = g.vertices
    for v in bits(x):
        acc &= g.rows[v]
    return acc & ~x


@dataclass(frozen=True)
class DegreeSummary:
    min_degree: int
    max_degree: int
    universal_count: int
    is_regular: bool


def degree_summary(g: Graph) -> DegreeSummary:
    degs = [popcount(r) for r in g.rows]
    lo, hi = min(degs), max(degs)
    return DegreeSummary(lo, hi, popcount(universal_vertices(g)), lo == hi)


def universal_vertices(g: Graph) -> int:
    """Bitmask of vertices adjacent to every other vertex."""
    return mask_of(v for v, row in enumerate(g.closed_rows) if row == g.vertices)


# --- bipartite graphs -------------------------------------------------------

@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with sides A (0..na-1) and B (0..nb-1).

    ``rows[a]`` is the bitmask of B-side neighbors of A-vertex a.
    """

    na: int
    nb: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_sides(self.na, self.nb)
        if len(self.rows) != self.na:
            raise ValueError("row count does not match side A")
        full_b = full_mask(self.nb)
        for a, row in enumerate(self.rows):
            if row & ~full_b:
                raise ValueError(f"row {a} references B-vertices >= nb")

    def column(self, b: int) -> int:
        """Bitmask of A-side neighbors of B-vertex b."""
        acc = 0
        for a, row in enumerate(self.rows):
            if row >> b & 1:
                acc |= 1 << a
        return acc

    @property
    def edge_count(self) -> int:
        return sum(popcount(r) for r in self.rows)

    def to_graph(self) -> Graph:
        """Same graph on na+nb vertices; side B relabeled to na..na+nb-1."""
        edges = [(a, self.na + b) for a in range(self.na) for b in bits(self.rows[a])]
        return from_edges(self.na + self.nb, edges)


def _check_sides(na: int, nb: int) -> None:
    """Reject side sizes before anything of their size is built."""
    if na < 1 or nb < 1:
        raise ValueError("both sides need at least one vertex")
    check_vertex_count(na + nb)


def bipartite_from_edges(na: int, nb: int, edges) -> BipartiteGraph:
    _check_sides(na, nb)
    rows = [0] * na
    for a, b in edges:
        if not (0 <= a < na and 0 <= b < nb):
            raise ValueError(f"edge ({a}, {b}) outside side bounds")
        rows[a] |= 1 << b
    return BipartiteGraph(na, nb, tuple(rows))


def bipartition(g: Graph) -> tuple[int, int] | None:
    """Two-color g if possible.

    Returns (side_a, side_b) masks or None when g has an odd cycle.  The
    smallest vertex of every component lands in side A, which makes the
    split deterministic.
    """
    color = {}
    side_a = 0
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in bits(g.rows[v]):
                if u not in color:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    for v, c in color.items():
        if c == 0:
            side_a |= 1 << v
    return side_a, full_mask(g.n) & ~side_a
