"""Class graphs: the BEST count, arborescence counts and walk oracles.

The cardinality formulas for Markov-style equivalence classes reduce to
counting Eulerian trajectories of a small multigraph, which in turn reduces
to counting spanning in-trees (the BEST theorem).  A Markov-family count
tensor already is that multigraph: gram g and letter z make an edge
g -> (g d + z) mod d^l, so the class counts read the tensor directly.
``DirectedMultigraph`` is the explicit graph view, for the tests, the
oracles and serialization.  Everything here is exact integer arithmetic;
determinants use fraction-free Bareiss elimination.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CapExceeded, NoValidEnd

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

    def add_edge(self, i: int, j: int) -> "DirectedMultigraph":
        rows = [list(row) for row in self.M]
        rows[i][j] += 1
        return DirectedMultigraph(self.m, tuple(tuple(r) for r in rows))


def is_eulerian(g: DirectedMultigraph) -> bool:
    """True iff g has an Eulerian cycle: balanced everywhere and connected
    on its non-isolated vertices."""
    if any(g.outdeg(v) != g.indeg(v) for v in range(g.m)):
        return False
    active = [v for v in range(g.m) if g.outdeg(v)]
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


def transition_graph(descriptor, n: int):
    """Class multigraph of a Markov / l-Markov descriptor at word length n.

    Returns (graph, start_vertex, end_vertex, augmented_graph), the augmented
    graph adding one end -> start edge; vertices are the l-grams by
    row-major rank.  Raises NoValidEnd when the degrees admit no trail.
    """
    descriptor.check_length(n)
    if descriptor.end is None:
        raise NoValidEnd("degree imbalance admits no Eulerian trajectory")
    d, m = descriptor.d, len(descriptor.trans)
    # Row g's successors (g d + z) mod m, z < d, are consecutive columns.
    g = DirectedMultigraph(m, tuple(
        (0,) * (v * d % m) + row + (0,) * (m - v * d % m - d)
        for v, row in enumerate(descriptor.trans)
    ))
    start = gram_rank(descriptor.start, d)
    return g, start, descriptor.end, g.add_edge(descriptor.end, start)


def gram_rank(gram: tuple[int, ...], d: int) -> int:
    rank = 0
    for v in gram:
        rank = rank * d + v
    return rank


def in_tree_count(descriptor) -> int:
    """Spanning in-trees toward the start gram of a Markov / l-Markov class
    graph plus the closing edge end -> start, on the visited grams.

    The minor of the out-degree Laplacian drops the start's row and column:
    there the closing edge only raises the end's out-degree, and loops
    cancel.  Unvisited grams are isolated and left out, as they would make
    the minor singular.  Needs degrees that admit a trail (``descriptor.end``
    is not None); the count is 0 when the visited grams are disconnected.
    """
    trans, d, end = descriptor.trans, descriptor.d, descriptor.end
    m = len(trans)
    start = gram_rank(descriptor.start, d)
    out = list(descriptor.row_sums)
    out[end] += 1
    # With balanced degrees, every successor of a visited gram is visited.
    pos = {v: i for i, v in enumerate(v for v in range(m) if out[v] and v != start)}
    minor = []
    for g in pos:
        row = [0] * len(pos)
        row[pos[g]] = out[g]
        base = g * d % m
        for z, t in enumerate(trans[g]):
            if t and base + z != start:
                row[pos[base + z]] -= t
        minor.append(row)
    return _bareiss_det(minor)


def factorial_ratio(descriptor) -> tuple[int, int]:
    """prod (r_g - 1)! over the visited grams g (r_g = row sum) and
    prod t! over the cells of the count tensor, as (numerator, denominator)."""
    num = den = 1
    for r, row in zip(descriptor.row_sums, descriptor.trans):
        if r:
            num *= math.factorial(r - 1)
        for t in row:
            den *= math.factorial(t)
    return num, den


def trajectory_count(descriptor, n: int) -> int:
    """Exact |class| for a Markov / l-Markov descriptor by the BEST theorem.

    The class's words are the Eulerian circuits of the class graph plus the
    closing edge end -> start, cut at that edge: T * prod_v (r~_v - 1)! over
    the visited grams, with T = ``in_tree_count`` and r~ the out-degrees with
    the closing edge, over prod t! as parallel edges are indistinct.  At the
    end r~ - 1 = t_w, the end's row sum, so this is
    T * max(t_w, 1) * ``factorial_ratio``.  Returns 0 for descriptors realized
    by no word: degrees that admit no trail, or a disconnected support.
    """
    descriptor.check_length(n)
    end = descriptor.end
    if end is None:
        return 0
    num, den = factorial_ratio(descriptor)
    count = in_tree_count(descriptor) * max(descriptor.row_sums[end], 1) * num
    assert count % den == 0, "BEST count not divisible by edge permutations"
    return count // den
