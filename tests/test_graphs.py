import itertools

import numpy as np
import pytest

from consensuslab.exceptions import GraphError
from consensuslab.graphs import (
    MAX_AGENTS,
    WeightedDigraph,
    build_laplacian,
    graph_from_edges,
    path_graph,
    spanning_tree_check,
)


def brute_force_roots(adj):
    """Transitive-closure oracle: closure[i, j] == path j -> i exists."""
    n = adj.shape[0]
    closure = np.eye(n, dtype=bool) | (adj > 0)
    for _ in range(n):
        closure = closure | (closure @ closure)
    return [k for k in range(n) if closure[:, k].all()]


def all_unit_digraphs(n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        w = np.zeros((n, n))
        for b, (i, j) in zip(bits, pairs):
            w[i, j] = b
        yield w


class TestLaplacian:
    def test_single_edge(self):
        g = WeightedDigraph(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(build_laplacian(g), [[0.0, 0.0], [-1.0, 1.0]])

    def test_path_three(self):
        L = build_laplacian(path_graph(3))
        assert np.array_equal(L, [[0, 0, 0], [-1, 1, 0], [0, -1, 1]])

    def test_empty_graph(self):
        g = WeightedDigraph(np.zeros((3, 3)))
        assert np.array_equal(build_laplacian(g), np.zeros((3, 3)))

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.uniform(0, 2, (6, 6))
            np.fill_diagonal(w, 0.0)
            L = build_laplacian(WeightedDigraph(w))
            assert np.abs(L.sum(axis=1)).max() < 1e-12

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphError):
            WeightedDigraph(np.array([[0.0, -0.1], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(GraphError):
            WeightedDigraph(np.zeros((2, 3)))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            WeightedDigraph(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestPathGraph:
    def test_single_node(self):
        g = path_graph(1)
        assert g.n == 1
        assert g.weights.sum() == 0

    def test_leader_row_zero(self):
        L = build_laplacian(path_graph(5))
        assert np.array_equal(L[0], np.zeros(5))

    def test_edge_count(self):
        g = path_graph(4)
        assert (g.weights > 0).sum() == 3
        assert set(np.unique(g.weights)) == {0.0, 1.0}

    def test_rejects_zero_size(self):
        with pytest.raises(GraphError):
            path_graph(0)

    def test_agent_count_bounded(self):
        """An agent count above MAX_AGENTS is refused before the n x n
        weights are allocated; MAX_AGENTS itself builds."""
        for build in (path_graph, lambda n: graph_from_edges(n, [])):
            with pytest.raises(GraphError, match=rf"n in 1\.\.{MAX_AGENTS}, got"):
                build(10**9)
        assert path_graph(MAX_AGENTS).n == MAX_AGENTS


class TestSpanningTree:
    def test_path_rooted_at_leader(self):
        rep = spanning_tree_check(path_graph(5))
        assert rep.has_spanning_tree
        assert rep.roots == (0,)

    def test_disconnected(self):
        rep = spanning_tree_check(WeightedDigraph(np.zeros((2, 2))))
        assert not rep.has_spanning_tree
        assert rep.roots == ()

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_against_oracle(self, n):
        for w in all_unit_digraphs(n):
            rep = spanning_tree_check(WeightedDigraph(w))
            assert list(rep.roots) == brute_force_roots(w)

    def test_sampled_n4_against_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            w = (rng.random((4, 4)) < 0.35).astype(float)
            np.fill_diagonal(w, 0.0)
            rep = spanning_tree_check(WeightedDigraph(w))
            assert list(rep.roots) == brute_force_roots(w)

    def test_simple_zero_eigenvalue_iff_tree(self):
        rng = np.random.default_rng(3)
        seen_tree = 0
        for _ in range(200):
            n = rng.integers(2, 7)
            w = (rng.random((n, n)) < 0.4).astype(float)
            np.fill_diagonal(w, 0.0)
            g = WeightedDigraph(w)
            if not spanning_tree_check(g).has_spanning_tree:
                continue
            seen_tree += 1
            eig = np.linalg.eigvals(build_laplacian(g))
            assert (np.abs(eig) < 1e-8).sum() == 1
        assert seen_tree > 20


class TestEdgeListGraphs:
    def test_one_indexed_convention(self):
        g = graph_from_edges(3, [(2, 1, 1.0), (3, 2, 0.5)])
        assert g.weights[1, 0] == 1.0
        assert g.weights[2, 1] == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            graph_from_edges(2, [(3, 1, 1.0)])

    def test_repeated_pair_rejected(self):
        with pytest.raises(GraphError, match="more than once"):
            graph_from_edges(2, [(2, 1, 1.0), (2, 1, 3.0)])

    def test_fractional_index_rejected(self):
        with pytest.raises(GraphError, match="integer"):
            graph_from_edges(3, [(2.7, 1, 1.0)])

    def test_integral_float_index_accepted(self):
        g = graph_from_edges(3, [(2.0, 1.0, 1.5)])
        assert g.weights[1, 0] == 1.5
