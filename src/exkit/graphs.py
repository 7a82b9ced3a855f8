"""Directed multigraphs: Eulerian structure, arborescence counts, walk oracles.

The cardinality formulas for Markov-style equivalence classes reduce to
counting Eulerian trajectories of a small multigraph, which in turn reduces
to counting spanning in-trees (the BEST theorem).  Everything here is exact
integer arithmetic; determinants use fraction-free Bareiss elimination.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import CapExceeded, InconsistentDescriptor, NoValidEnd

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DirectedMultigraph:
    """Vertex set {0..m-1} with M[i][j] parallel edges i -> j (loops allowed)."""

    m: int
    M: Matrix

    def __post_init__(self) -> None:
        M = tuple(tuple(row) for row in self.M)
        if len(M) != self.m or any(len(row) != self.m for row in M):
            raise ValueError("multiplicity matrix must be m x m")
        if any(x < 0 for row in M for x in row):
            raise ValueError("edge multiplicities must be nonnegative")
        object.__setattr__(self, "M", M)

    @property
    def edge_count(self) -> int:
        return sum(sum(row) for row in self.M)

    def outdeg(self, v: int) -> int:
        return sum(self.M[v])

    def indeg(self, v: int) -> int:
        return sum(self.M[i][v] for i in range(self.m))

    def degree_profile(self) -> "DegreeProfile":
        return DegreeProfile(
            tuple(self.outdeg(v) for v in range(self.m)),
            tuple(self.indeg(v) for v in range(self.m)),
        )

    def add_edge(self, i: int, j: int) -> "DirectedMultigraph":
        rows = [list(row) for row in self.M]
        rows[i][j] += 1
        return DirectedMultigraph(self.m, tuple(tuple(r) for r in rows))

    def non_isolated(self) -> list[int]:
        return [v for v in range(self.m) if self.outdeg(v) or self.indeg(v)]


@dataclass(frozen=True)
class DegreeProfile:
    outdeg: tuple[int, ...]
    indeg: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.outdeg) != sum(self.indeg):
            raise ValueError("outdegree and indegree totals differ")


def _support_connected(g: DirectedMultigraph) -> bool:
    """Weak connectivity of the subgraph induced by non-isolated vertices."""
    active = g.non_isolated()
    if not active:
        return True
    seen = {active[0]}
    stack = [active[0]]
    while stack:
        v = stack.pop()
        for u in range(g.m):
            if u not in seen and (g.M[v][u] or g.M[u][v]):
                seen.add(u)
                stack.append(u)
    return all(v in seen for v in active)


def is_eulerian(g: DirectedMultigraph) -> bool:
    """True iff g has an Eulerian cycle: balanced everywhere and connected
    on its non-isolated vertices."""
    prof = g.degree_profile()
    if any(o != i for o, i in zip(prof.outdeg, prof.indeg)):
        return False
    return _support_connected(g)


def _bareiss_det(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def arborescence_count(g: DirectedMultigraph, root: int) -> int:
    """Number of spanning in-trees oriented toward ``root``.

    Orientation convention: every non-root vertex has exactly one outgoing
    tree edge, on a path reaching the root.  Computed as the determinant of
    the out-degree Laplacian with the root row and column deleted (loops
    cancel out of the Laplacian).
    """
    if not 0 <= root < g.m:
        raise ValueError("root out of range")
    idx = [v for v in range(g.m) if v != root]
    lap = [
        [(g.outdeg(i) if i == j else 0) - g.M[i][j] for j in idx]
        for i in idx
    ]
    return _bareiss_det(lap)


def spanning_in_trees_bruteforce(g: DirectedMultigraph, root: int) -> int:
    """Oracle for arborescence_count: sum over out-edge choices per non-root
    vertex of the product of multiplicities, keeping only choice maps whose
    paths all reach the root without cycling."""
    others = [v for v in range(g.m) if v != root]
    total = 0
    for targets in itertools.product(range(g.m), repeat=len(others)):
        weight = 1
        choice = dict(zip(others, targets))
        for v, t in choice.items():
            weight *= g.M[v][t]
            if weight == 0:
                break
        if weight == 0:
            continue
        ok = True
        for v in others:
            seen = set()
            cur = v
            while cur != root:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = choice[cur]
            if not ok:
                break
        if ok:
            total += weight
    return total


def eulerian_trajectory_count_bruteforce(
    g: DirectedMultigraph, start: int, cap: int = 16
) -> int:
    """Number of distinct vertex sequences of open walks from ``start`` that
    consume every edge of g exactly once (parallel edges are indistinct).

    This is the membership oracle for Markov-style class sizes; the edge
    count is capped because the recursion is exponential in the worst case.
    """
    if g.edge_count > cap:
        raise CapExceeded(f"{g.edge_count} edges exceed brute-force cap {cap}")
    memo: dict[tuple, int] = {}

    def walk(cur: int, remaining: Matrix) -> int:
        total_left = sum(sum(row) for row in remaining)
        if total_left == 0:
            return 1
        key = (cur, remaining)
        if key in memo:
            return memo[key]
        count = 0
        for j in range(g.m):
            if remaining[cur][j]:
                rows = [list(r) for r in remaining]
                rows[cur][j] -= 1
                count += walk(j, tuple(tuple(r) for r in rows))
        memo[key] = count
        return count

    return walk(start, g.M)


def eulerian_trajectories(g: DirectedMultigraph, start: int, cap: int = 10**6) -> Iterator[tuple[int, ...]]:
    """Yield the vertex sequences of all open walks from ``start`` consuming
    every edge of g, in lexicographic order of successor choices."""
    if g.edge_count > 60:
        raise CapExceeded("edge count too large to enumerate trajectories")

    def walk(cur: int, remaining: list[list[int]], prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if not any(any(row) for row in remaining):
            yield tuple(prefix)
            return
        for j in range(g.m):
            if remaining[cur][j]:
                remaining[cur][j] -= 1
                prefix.append(j)
                yield from walk(j, remaining, prefix)
                prefix.pop()
                remaining[cur][j] += 1

    yield from walk(start, [list(r) for r in g.M], [start])


def transition_graph(descriptor, n: int):
    """Class multigraph of a Markov / l-Markov descriptor at word length n.

    Returns (graph, start_vertex, end_vertex, augmented_graph) as
    ``trail_graph`` does; vertices are the l-grams by row-major rank.
    """
    return descriptor.transition_graph(n)


def trail_graph(matrix: Matrix, start: int, edges: int):
    """Multigraph of the open trails from ``start`` using every edge once.

    Returns (graph, start, end, augmented_graph) where the end vertex is the
    unique out/in-unbalanced sink (or the start when the graph is balanced)
    and the augmented graph adds one end -> start edge, making it Eulerian
    whenever such a trail exists.  Raises NoValidEnd when the degrees admit
    no trail from ``start``.
    """
    g = DirectedMultigraph(len(matrix), matrix)
    if g.edge_count != edges:
        raise InconsistentDescriptor(
            f"transition counts sum to {g.edge_count}, expected {edges}"
        )

    prof = g.degree_profile()
    diffs = [o - i for o, i in zip(prof.outdeg, prof.indeg)]
    if all(x == 0 for x in diffs):
        end = start
    else:
        surplus = [v for v, x in enumerate(diffs) if x == 1]
        deficit = [v for v, x in enumerate(diffs) if x == -1]
        balanced_rest = all(x in (-1, 0, 1) for x in diffs)
        if not (balanced_rest and surplus == [start] and len(deficit) == 1):
            raise NoValidEnd("degree imbalance admits no Eulerian trajectory")
        end = deficit[0]
    return g, start, end, g.add_edge(end, start)


def trajectory_count(descriptor, n: int) -> int:
    """Exact |class| for a Markov / l-Markov descriptor by the BEST theorem.

    Counts Eulerian trajectories of the augmented class graph: the in-tree
    count toward the start times prod (outdeg_aug(v) - 1)! over active
    vertices, divided by prod t_e! over the unmarked edge multiplicities.
    Returns 0 for descriptors realized by no word.
    """
    try:
        g, start, end, aug = transition_graph(descriptor, n)
    except NoValidEnd:
        return 0
    if g.edge_count == 0:
        return 1
    if not _support_connected(aug):
        return 0
    # Unused letters are isolated vertices; spanning trees live on the support.
    active = aug.non_isolated()
    pos = {v: i for i, v in enumerate(active)}
    induced = DirectedMultigraph(
        len(active), tuple(tuple(aug.M[v][u] for u in active) for v in active)
    )
    numerator = arborescence_count(induced, pos[start])
    for v in range(aug.m):
        od = aug.outdeg(v)
        if od >= 1:
            numerator *= math.factorial(od - 1)
    denominator = 1
    for row in g.M:
        for mult in row:
            denominator *= math.factorial(mult)
    assert numerator % denominator == 0, "BEST count not divisible by edge permutations"
    return numerator // denominator
