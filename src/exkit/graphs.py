"""The BEST count of a Markov-family class, read off its count tensor.

The cardinality formulas for Markov-style equivalence classes reduce to
counting Eulerian trajectories of a small multigraph, which in turn reduces
to counting spanning in-trees (the BEST theorem).  A Markov-family count
tensor already is that multigraph: gram g and letter z make an edge
g -> (g d + z) mod d^l, so the class counts read the tensor directly.
Everything here is exact integer arithmetic; determinants use
fraction-free Bareiss elimination.
"""

from __future__ import annotations

import math


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
    if m == 1:  # one gram (l = 0): the minor is empty
        return 1
    start = gram_rank(descriptor.start, d)
    out = list(descriptor.row_sums)
    out[end] += 1
    # With balanced degrees, every successor of a visited gram is visited.
    pos = {v: i for i, v in enumerate(v for v in range(m) if out[v] and v != start)}
    minor = []
    for g in pos:
        row = [0] * len(pos)
        row[pos[g]] = out[g]
        for z, t in enumerate(trans[g]):
            v = (g * d + z) % m
            if t and v != start:
                row[pos[v]] -= t
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
    end r~ - 1 = t_w, the end's row sum, so this is T * max(t_w, 1) * num / den
    with (num, den) = ``descriptor.factorials``.  Returns 0 for descriptors
    realized by no word: degrees that admit no trail, or a disconnected support.
    """
    descriptor.check_length(n)
    end = descriptor.end
    if end is None:
        return 0
    num, den = descriptor.factorials
    count = in_tree_count(descriptor) * max(descriptor.row_sums[end], 1) * num
    assert count % den == 0, "BEST count not divisible by edge permutations"
    return count // den
