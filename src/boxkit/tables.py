"""The tables of one graph that several bounds read.

run_bounds builds one GraphTables per graph and passes it to every
bound, so each table is built once, on first use, and every bound that
needs it reads it from there.  A bound handed a bare Graph builds fresh
tables for it (tables_of).

The closed rows N[v] live on the Graph (closed_rows).  The least unions
of one row list are kept in one LeastUnions per distinct list (unions),
so a scan's half tables and sizes serve every later query on the same
rows.  The supergraph DP folds g's least closed unions as it fills its
table, and puts them in the closed rows' entry;
the strong boundary bound and the family bound's square-free test then
read them there without a scan, and the expansion bound reads beta_t
there when its subsets and targets are all of g.
The layer functions are called through this module's globals, so a
wrapper installed over them (a tracer's) sees every call.
"""

from __future__ import annotations

from functools import cached_property

from .graphs import DegreeSummary, Graph, complement, degree_summary
from .intervals import MinSupergraph, min_interval_supergraph
from .isoperimetry import LeastUnions


class GraphTables:
    """One graph's shared tables, each computed on first use."""

    def __init__(self, g: Graph) -> None:
        self.graph = g
        self._unions: dict[tuple[int, ...], LeastUnions] = {}

    @cached_property
    def complement(self) -> Graph:
        return complement(self.graph)

    @cached_property
    def degrees(self) -> DegreeSummary:
        return degree_summary(self.graph)

    @cached_property
    def complement_degrees(self) -> DegreeSummary:
        return degree_summary(self.complement)

    def unions(self, rows) -> LeastUnions:
        """The least-union scan of rows, one per distinct row list."""
        rows = tuple(rows)
        scan = self._unions.get(rows)
        if scan is None:
            scan = self._unions[rows] = LeastUnions(rows)
        return scan

    @cached_property
    def supergraph(self) -> MinSupergraph:
        """The supergraph DP, whose least closed unions are kept."""
        result = min_interval_supergraph(self.graph)
        self.unions(self.graph.closed_rows).found.update(enumerate(result.closed_unions, 1))
        return result


def tables_of(g: Graph | GraphTables) -> GraphTables:
    """g itself when it already holds tables, fresh tables for g otherwise."""
    return g if isinstance(g, GraphTables) else GraphTables(g)
