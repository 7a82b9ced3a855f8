import random

import pytest

from exkit.core import Alphabet
from exkit.errors import CapExceeded
from exkit.graphs import trajectory_count
from exkit.relations import MARKOV, LMarkov, MarkovType, enumerate_types, representative, type_of
from oracles import (
    DirectedMultigraph,
    NoValidEnd,
    arborescence_count,
    eulerian_trajectory_count_bruteforce,
    is_eulerian,
    spanning_in_trees_bruteforce,
    transition_graph,
)

# Class graph of the worked 8-letter example and its Eulerian augmentation.
PAPER_G = DirectedMultigraph(3, ((1, 1, 1), (0, 1, 1), (1, 1, 0)))
PAPER_G0 = DirectedMultigraph(3, ((1, 1, 1), (1, 1, 1), (1, 1, 0)))


def test_is_eulerian_examples():
    two_cycle = DirectedMultigraph(2, ((0, 1), (1, 0)))
    assert is_eulerian(two_cycle)
    single_edge = DirectedMultigraph(2, ((0, 1), (0, 0)))
    assert not is_eulerian(single_edge)
    assert is_eulerian(PAPER_G0)


def test_isolated_vertices_do_not_break_connectivity():
    g = DirectedMultigraph(3, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    assert is_eulerian(g)  # one loop plus isolated vertices


def test_arborescence_count_examples():
    assert arborescence_count(PAPER_G0, 0) == 3
    assert arborescence_count(DirectedMultigraph(1, ((0,),)), 0) == 1
    two_cycle = DirectedMultigraph(2, ((0, 1), (1, 0)))
    assert arborescence_count(two_cycle, 0) == 1


def test_arborescence_root_independence_on_eulerian():
    assert len({arborescence_count(PAPER_G0, r) for r in range(3)}) == 1


def test_arborescence_orientation_convention():
    # Single edge 0 -> 1: one in-tree toward 1, none toward 0.
    g = DirectedMultigraph(2, ((0, 1), (0, 0)))
    assert arborescence_count(g, 1) == 1
    assert arborescence_count(g, 0) == 0


def test_loop_invariance():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(2, 4)
        rows = [[rng.randint(0, 2) for _ in range(m)] for _ in range(m)]
        g = DirectedMultigraph(m, tuple(tuple(r) for r in rows))
        v = rng.randrange(m)
        with_loop = g.add_edge(v, v)
        for root in range(m):
            assert arborescence_count(g, root) == arborescence_count(with_loop, root)


def test_matrix_tree_matches_bruteforce_on_random_graphs():
    rng = random.Random(99)
    cases = 0
    while cases < 200:
        m = rng.randint(1, 5)
        rows = [[0] * m for _ in range(m)]
        for _ in range(rng.randint(0, 8)):
            rows[rng.randrange(m)][rng.randrange(m)] += 1
        g = DirectedMultigraph(m, tuple(tuple(r) for r in rows))
        root = rng.randrange(m)
        assert arborescence_count(g, root) == spanning_in_trees_bruteforce(g, root)
        cases += 1


def test_trajectory_bruteforce_examples():
    assert eulerian_trajectory_count_bruteforce(PAPER_G, 0) == 12
    loop = DirectedMultigraph(1, ((1,),))
    assert eulerian_trajectory_count_bruteforce(loop, 0) == 1
    # Two 1->2 edges, one 2->1 edge: the single walk 1,2,1,2 consumes all
    # three, so the count is 1 (exhaustive search oracle).
    zigzag = DirectedMultigraph(2, ((0, 2), (1, 0)))
    assert eulerian_trajectory_count_bruteforce(zigzag, 0) == 1
    # Two parallel 1->2 edges with nothing back: stuck after one of them.
    stuck = DirectedMultigraph(2, ((0, 2), (0, 0)))
    assert eulerian_trajectory_count_bruteforce(stuck, 0) == 0


def test_trajectory_bruteforce_cap():
    big = DirectedMultigraph(2, ((9, 9), (0, 0)))
    with pytest.raises(CapExceeded):
        eulerian_trajectory_count_bruteforce(big, 0, cap=16)


def test_transition_graph_paper_example():
    word = tuple(int(c) - 1 for c in "11323122")
    descr = type_of(word, MARKOV, Alphabet(3))
    g, start, end, aug = transition_graph(descr, 8)
    assert (start, end) == (0, 1)
    assert aug.M[1][0] == g.M[1][0] + 1  # one extra edge 2 -> 1
    assert is_eulerian(aug)


def test_transition_graph_trivial_n1():
    descr = MarkovType(0, ((0, 0), (0, 0)))
    g, start, end, aug = transition_graph(descr, 1)
    assert g.edge_count == 0 and start == end == 0


def test_transition_graph_no_valid_end():
    # Only a 2 -> 1 transition but the word must start at 1.
    descr = MarkovType(0, ((0, 0), (1, 0)))
    with pytest.raises(NoValidEnd):
        transition_graph(descr, 2)
    assert trajectory_count(descr, 2) == 0


def test_lmarkov_de_bruijn_graph():
    word = tuple(int(c) for c in "00101100")
    descr = type_of(word, LMarkov(2), Alphabet(2))
    g, start, end, aug = transition_graph(descr, 8)
    # gram ranks over {0,1}^2: 00=0, 01=1, 10=2, 11=3
    assert start == 0
    expected = {(0, 1): 1, (1, 2): 1, (2, 1): 1, (1, 3): 1, (3, 2): 1, (2, 0): 1}
    got = {
        (i, j): g.M[i][j]
        for i in range(4)
        for j in range(4)
        if g.M[i][j]
    }
    assert got == expected
    assert trajectory_count(descr, 8) == 2


def test_disconnected_class_graph_is_empty():
    # Loop at 1 plus a separate 2<->3 cycle: no single trajectory covers both.
    descr = MarkovType(0, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    assert trajectory_count(descr, 4) == 0


def test_counting_builds_no_multigraph(monkeypatch):
    # Sizes, trails and BEST terms read the count tensor; the multigraph
    # objects are the graph view only.
    built = []
    original = DirectedMultigraph.__post_init__
    monkeypatch.setattr(
        DirectedMultigraph, "__post_init__", lambda self: built.append(self) or original(self)
    )
    ix = enumerate_types(MARKOV, Alphabet(4), 6)
    for descr, _ in ix.items[::50]:
        representative(descr, 6)
    assert ix.N and not built
    transition_graph(ix.items[0][0], 6)
    assert len(built) == 2
