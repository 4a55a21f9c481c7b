"""Shared hypothesis strategies, and the isoperimetric profiles read
from least closed unions."""

from hypothesis import strategies as st

from boxkit.graphs import Graph, complement, from_pair_mask
from boxkit.intervals import Ordering
from boxkit.isoperimetry import LeastUnions


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << pairs) - 1))
    return from_pair_mask(n, mask)


@st.composite
def graphs_with_subset(draw, min_n: int = 2, max_n: int = 8):
    """A graph plus a nonempty vertex subset mask."""
    g = draw(graphs(min_n, max_n))
    x = draw(st.integers(1, (1 << g.n) - 1))
    return g, x


@st.composite
def graphs_with_ordering(draw, min_n: int = 1, max_n: int = 7):
    g = draw(graphs(min_n, max_n))
    seq = draw(st.permutations(tuple(range(g.n))))
    return g, Ordering.from_sequence(tuple(seq))


def closed_unions(g: Graph) -> LeastUnions:
    """The least unions of g's closed neighbourhoods.  least(k) is k plus
    the least |Gamma(X)| over |X| = k; read on complement(g), it is n
    minus the largest |GammaS(X)| in g, with the same witness."""
    return LeastUnions(g.closed_rows)


def boundary_profiles(g: Graph):
    """For k = 1 .. n-1: the least |Gamma(X)| and the largest |GammaS(X)|
    over |X| = k, and their lexicographically smallest witnesses."""
    closed, co_closed = closed_unions(g).every(), closed_unions(complement(g)).every()
    return (tuple(value - k for k, (value, _) in enumerate(closed, 1)),
            tuple(g.n - value for value, _ in co_closed),
            tuple(mask for _, mask in closed),
            tuple(mask for _, mask in co_closed))
