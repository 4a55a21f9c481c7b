"""Output checks, run after the timed region.

Each check recomputes what it compares with in this file's own code:
interval graphs are replayed from their endpoints, the expansion scan is
re-derived from its beta and m-values, strong-boundary profiles come from
a plain loop over subsets and eigenvalues from numpy's ``eigvalsh`` on an
adjacency matrix built here.  None compares with a stored copy of earlier
output.  Each function returns ``(label, message)`` pairs, one per
problem found.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from boxkit import families

Problem = tuple[str, str]
# Sweep rows whose strong-boundary value is recomputed by the subset loop.
STRONG_ROWS = 6


def row_label(config, row) -> str:
    """Names one sweep graph."""
    return f"{config.model} n={row.n} param={row.param} seed={row.seed}"


def _adjacency_sets(rows) -> list[set[int]]:
    n = len(rows)
    return [{u for u in range(n) if row >> u & 1} for row in rows]


def _ceiling_problems(label: str, n: int, reports, cap: int | None) -> list[Problem]:
    out = []
    roberts = n // 2
    for r in reports:
        if not r.applicable:
            continue
        if r.ceiling != math.ceil(r.value):
            out.append((label, f"{r.name}: ceiling {r.ceiling} is not ceil({r.value})"))
        if r.ceiling > roberts:
            out.append((label, f"{r.name}: ceiling {r.ceiling} exceeds floor(n/2) = {roberts}"))
        if cap is not None and r.ceiling > cap:
            out.append((label, f"{r.name}: ceiling {r.ceiling} exceeds boxicity {cap}"))
    return out


def _supergraph_edges(adj: list[set[int]], sequence) -> int:
    """Edges of the minimal interval supergraph whose right endpoints
    follow ``sequence``: v reaches back to the earliest vertex of its
    closed neighbourhood and meets every vertex placed from there on."""
    rank = {v: i for i, v in enumerate(sequence)}
    edges = 0
    for v in sequence:
        reach = min(rank[w] for w in adj[v] | {v})
        edges += rank[v] - reach
    return edges


def _replay_scan(label: str, g_adj: list[set[int]], cert) -> list[Problem]:
    """Re-derive beta_t and every step of the expansion scan."""
    labels = cert.vertex_labels or tuple(range(len(g_adj)))
    index = {v: i for i, v in enumerate(labels)}
    sub = [{index[u] for u in g_adj[v] if u in index} for v in labels]
    s1 = [i for i in range(len(labels)) if cert.s1 >> i & 1]
    s2 = {i for i in range(len(labels)) if cert.s2 >> i & 1}
    worst = min(len(({*combo} | set().union(*(sub[v] for v in combo))) & s2)
                for combo in combinations(s1, cert.t))
    out = []
    beta = Fraction(worst, len(s2))
    if beta != cert.beta_t:
        out.append((label, f"expansion: beta_t {cert.beta_t} recomputes to {beta}"))
    for step, entry in enumerate(cert.trace, start=1):
        t_star = len(s2) * (1 - 2 * step * (1 - cert.beta_t))
        if entry.b != step or entry.t_star != t_star:
            out.append((label, f"expansion: step {step} reads b={entry.b}, "
                               f"t_star={entry.t_star}; expected {t_star}"))
            continue
        if math.floor(t_star) >= 1:
            if entry.m_value is None:
                out.append((label, f"expansion: step {step} lacks its m-value"))
                continue
            expected = 2 * (cert.t - 1) * step < entry.m_value
        else:
            expected = False
            if entry.m_value is not None:
                out.append((label, f"expansion: step {step} has an m-value below t_star 1"))
        if entry.infeasible != expected:
            out.append((label, f"expansion: step {step} infeasible={entry.infeasible}"))
        last = step == len(cert.trace)
        if entry.infeasible == last:
            out.append((label, "expansion: scan does not stop at its first feasible b"))
    if cert.bound != len(cert.trace):
        out.append((label, f"expansion: bound {cert.bound} is not the scan's last b"))
    return out


def check_bound_all(results) -> list[Problem]:
    out = []
    for item, reports in results:
        g = item.graph
        adj = _adjacency_sets(g.rows)
        cap = item.exact if item.exact is not None else item.upper
        out += _ceiling_problems(item.label, g.n, reports, cap)
        by_name = {r.name: r for r in reports}
        sup = by_name["min_supergraph"]
        if sup.applicable:
            cert = sup.certificate
            edges = _supergraph_edges(adj, cert["ordering"].sequence())
            if edges != cert["supergraph_edges"]:
                out.append((item.label, f"min_supergraph: ordering replays to {edges} "
                                        f"edges, certificate says {cert['supergraph_edges']}"))
            pairs = g.n * (g.n - 1) // 2
            if sup.value != Fraction(pairs - g.edge_count, pairs - edges):
                out.append((item.label, "min_supergraph: value does not follow from edges"))
        exp = by_name["expansion"]
        if exp.applicable:
            out += _replay_scan(item.label, adj, exp.certificate)
            if exp.value != exp.certificate.bound:
                out.append((item.label, "expansion: value is not the scan bound"))
    return out


def _interval_graph(rep) -> list[set[int]]:
    iv = rep.intervals
    n = len(iv)
    return [{u for u in range(n) if u != v and iv[u][0] < iv[v][1] and iv[v][0] < iv[u][1]}
            for v in range(n)]


def check_exact(results) -> list[Problem]:
    out = []
    for item, exact, verified, reports in results:
        g = item.graph
        adj = _adjacency_sets(g.rows)
        cert = exact.certificate
        if not verified:
            out.append((item.label, "verify_box_certificate rejected the certificate"))
        if len(cert.reps) != exact.value or len(cert.orderings) != exact.value:
            out.append((item.label, f"{len(cert.reps)} intervals for boxicity {exact.value}"))
        if exact.value == 0:
            meet = [set(range(g.n)) - {v} for v in range(g.n)]
        else:
            layers = [_interval_graph(rep) for rep in cert.reps]
            meet = [set.intersection(*(layer[v] for layer in layers)) for v in range(g.n)]
            for rep in cert.reps:
                ends = [x for pair in rep.intervals for x in pair]
                if len(set(ends)) != len(ends):
                    out.append((item.label, "interval endpoints repeat"))
        if meet != adj:
            out.append((item.label, "the intervals do not intersect to the graph"))
        if item.exact is not None and exact.value != item.exact:
            out.append((item.label, f"boxicity {exact.value}, closed form {item.exact}"))
        out += _ceiling_problems(item.label, g.n, reports, exact.value)
    return out


def _redraw(row, model: str):
    spec_kwargs = {"p": Fraction(row.param)} if model.endswith("gnp") else (
        {"m": int(row.param)} if model.endswith("gnm") else {"k": int(row.param)})
    return families.sample(families.RandomModelSpec(
        model=model, n=row.n, seed=row.seed, **spec_kwargs))


def _strong_boundary_sum(adj: list[set[int]]) -> tuple[int, int]:
    """Complement edge count and the summed strong-boundary profile of
    the complement, by one loop over every proper nonempty subset."""
    n = len(adj)
    co = [(set(range(n)) - adj[v]) - {v} for v in range(n)]
    co_masks = [sum(1 << u for u in row) for row in co]
    full = (1 << n) - 1
    common = [full] * (1 << n)
    best = [0] * (n + 1)
    for x in range(1, full):
        low = x & -x
        common[x] = common[x ^ low] & co_masks[low.bit_length() - 1]
        size = x.bit_count()
        value = (common[x] & ~x).bit_count()
        if value > best[size]:
            best[size] = value
    co_edges = sum(len(row) for row in co) // 2
    return co_edges, sum(best[1:n])


def _second_eigenvalue(adj: list[set[int]]) -> float:
    n = len(adj)
    a = np.zeros((n, n))
    for v, row in enumerate(adj):
        for u in row:
            a[v, u] = 1.0
    ev = np.linalg.eigvalsh(a)
    return max(abs(ev[-2]), abs(ev[0]))


def _connected(adj: list[set[int]]) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in adj[v] - seen:
            seen.add(u)
            frontier.append(u)
    return len(seen) == len(adj)


def check_sweep(results, seed: int) -> list[Problem]:
    out = []
    strong_candidates = []
    for config, result in results:
        for row in result.rows:
            label = row_label(config, row)
            if not row.value.startswith("na:"):
                value = Fraction(row.value)
                if row.ceiling != math.ceil(value):
                    out.append((label, f"ceiling {row.ceiling} is not ceil({value})"))
            if config.model == "regular":
                out += _check_regular_row(label, row)
            elif row.value.startswith("na:"):
                # strong_boundary declines only complete graphs
                if row.value != "na:complete_graph" or row.m != row.n * (row.n - 1) // 2:
                    out.append((label, f"strong_boundary reported {row.value}"))
            elif row.n <= 16:
                strong_candidates.append((label, config.model, row))
    for label, model, row in random.Random(seed).sample(
            strong_candidates, min(STRONG_ROWS, len(strong_candidates))):
        adj = _adjacency_sets(_redraw(row, model).rows)
        co_edges, total = _strong_boundary_sum(adj)
        if Fraction(row.value) != Fraction(co_edges, total):
            out.append((label, f"strong_boundary {row.value}, subset loop gives "
                               f"{co_edges}/{total}"))
    return out


def _check_regular_row(label: str, row) -> list[Problem]:
    out = []
    k = int(row.param)
    g = _redraw(row, "regular")
    adj = _adjacency_sets(g.rows)
    if any(v in adj[v] for v in range(row.n)):
        out.append((label, "regular sample has a loop"))
    if any(v not in adj[u] for v in range(row.n) for u in adj[v]):
        out.append((label, "regular sample is not symmetric"))
    if any(len(nbrs) != k for nbrs in adj):
        out.append((label, f"regular sample is not {k}-regular"))
    if row.m != row.n * k // 2:
        out.append((label, f"row m = {row.m}, expected {row.n * k // 2}"))
    if row.value.startswith("na:"):
        if row.value != "na:disconnected" or _connected(adj):
            out.append((label, f"spectral reported {row.value}"))
        return out
    lam = float(_second_eigenvalue(adj))
    ratio = k * k / lam ** 2
    expected = ratio / math.log1p(ratio) * (row.n - k - 1) / (2 * row.n)
    got = float(Fraction(row.value))
    if not math.isclose(got, expected, rel_tol=1e-9):
        out.append((label, f"spectral value {got!r}, eigvalsh gives {expected!r}"))
    return out
