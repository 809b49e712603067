import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indcomplex import Family, GraphError, build_family, build_gamma
from indcomplex.graphs import (
    Graph,
    delete_vertices,
    graph_from_json_dict,
    graph_to_json_dict,
    set_bits,
)


class TestBuildGamma:
    def test_2x2(self):
        g = build_gamma(2, 2)
        assert len(g.vertices) == 4
        assert len(g.edges) == 4

    def test_single_vertex(self):
        g = build_gamma(1, 1)
        assert g.vertices == ((1, 1),)
        assert not g.edges

    def test_edge_count_3x6(self):
        g = build_gamma(3, 6)
        # 6 rows of 2 horizontal edges plus 3 columns of 5 vertical edges.
        assert len(g.edges) == 6 * 2 + 3 * 5 == 27

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 3), (5, 6), (7, 2)])
    def test_vertex_and_edge_counts(self, n, k):
        g = build_gamma(n, k)
        assert len(g.vertices) == n * k
        assert len(g.edges) == k * (n - 1) + n * (k - 1)

    @pytest.mark.parametrize("n,k", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_nonpositive(self, n, k):
        with pytest.raises(GraphError):
            build_gamma(n, k)

    def test_vertices_sorted_column_major(self):
        g = build_gamma(3, 4)
        assert list(g.vertices) == sorted(g.vertices)


class TestBuildFamily:
    def test_x1_is_three_isolated_vertices(self):
        g = build_family(Family("x", 1))
        assert set(g.vertices) == {(1, 2), (1, 4), (1, 6)}
        assert not g.edges

    def test_y1_is_two_disjoint_k2(self):
        g = build_family(Family("y", 1))
        assert len(g.vertices) == 4
        assert len(g.edges) == 2
        assert all(m.bit_count() == 1 for m in g.neighbor_masks)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_b_vertex_count(self, n):
        assert len(build_family(Family("b", n)).vertices) == 6 * n - 1

    def test_b_equals_gamma_minus_center(self):
        n = 3
        g = build_gamma(n, 6)
        assert delete_vertices(g, [g.index((n, 4))]) == build_family(Family("b", n))

    def test_a_equals_gamma_minus_corners(self):
        n = 4
        g = build_gamma(n, 6)
        removed = [g.index((n, 1)), g.index((n, 5))]
        assert delete_vertices(g, removed) == build_family(Family("a", n))

    def test_family_validation(self):
        with pytest.raises(GraphError):
            Family("x", 2, k=5)
        with pytest.raises(GraphError):
            Family("gamma", 0)
        with pytest.raises(GraphError):
            Family("z", 1)


class TestDeleteVertices:
    def test_delete_all(self):
        g = build_gamma(2, 2)
        empty = delete_vertices(g, range(4))
        assert len(empty.vertices) == 0
        assert not empty.edges

    def test_path_middle_leaves_isolated_pair(self):
        p3 = build_gamma(3, 1)
        g = delete_vertices(p3, [1])
        assert len(g.vertices) == 2
        assert not g.edges

    def test_original_unmodified(self):
        g = build_gamma(2, 2)
        before = (g.vertices, g.edges)
        delete_vertices(g, [0])
        assert (g.vertices, g.edges) == before

    def test_invalid_index(self):
        with pytest.raises(GraphError):
            delete_vertices(build_gamma(2, 2), [7])

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_delete_commutes(self, data):
        g = build_gamma(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)))
        indices = list(range(len(g.vertices)))
        s = set(data.draw(st.sets(st.sampled_from(indices), max_size=4)))
        t = set(data.draw(st.sets(st.sampled_from(indices), max_size=4))) - s
        lhs = delete_vertices(delete_vertices(g, s), _reindexed(g, s, t))
        rhs = delete_vertices(g, s | t)
        assert lhs == rhs


def _reindexed(g, removed, t):
    keep = [i for i in range(len(g.vertices)) if i not in removed]
    pos = {old: new for new, old in enumerate(keep)}
    return {pos[i] for i in t}


class TestNeighborhood:
    def test_corner_open(self):
        g = build_gamma(2, 2)
        nbrs = g.neighborhood(g.index((1, 1)))
        assert {g.vertices[i] for i in nbrs} == {(1, 2), (2, 1)}

    def test_closed_adds_self(self):
        g = build_gamma(3, 3)
        for v in range(len(g.vertices)):
            assert g.neighborhood(v, closed=True) == g.neighborhood(v) | {v}

    def test_interior_degree_four(self):
        g = build_gamma(3, 3)
        assert len(g.neighborhood(g.index((2, 2)))) == 4

    def test_invalid_index(self):
        with pytest.raises(GraphError):
            build_gamma(2, 2).neighborhood(9)


@given(st.sets(st.integers(0, 300)))
def test_set_bits_ascending(indices):
    assert list(set_bits(sum(1 << i for i in indices))) == sorted(indices)


def test_row_flip_is_isomorphism():
    n = 4
    g = build_gamma(n, 6)
    flipped = Graph(
        [(x, 7 - y) for x, y in g.vertices], [(a, b) for a, b in g.edges]
    )
    assert flipped == g


def test_json_roundtrip():
    g = build_family(Family("a", 3))
    data = graph_to_json_dict(g)
    assert data["family"] == "a"
    assert data["n"] == 3 and data["k"] == 6
    back = graph_from_json_dict(data)
    assert back == g
    assert back.family == g.family


def test_json_reorders_vertices():
    data = {
        "n": 2,
        "k": 1,
        "family": None,
        "vertices": [[2, 1], [1, 1]],
        "edges": [[0, 1]],
    }
    g = graph_from_json_dict(data)
    assert g.vertices == ((1, 1), (2, 1))
    assert g.edges == frozenset({(0, 1)})


@pytest.mark.parametrize(
    "tag",
    [{"family": "x", "n": [1]}, {"family": "x", "n": "abc"}, {"family": "x", "k": 4}],
)
def test_json_drops_malformed_family_tag(tag):
    g = graph_from_json_dict({"vertices": [[1, 1]], "edges": [], **tag})
    assert g.vertices == ((1, 1),)
    assert g.family is None


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": [[1, 1], [[1], 2]], "edges": []},
        {"vertices": [[1, 1], [2, "a"]], "edges": []},
        {"vertices": [[1, 1], [2, True]], "edges": []},
        {"vertices": [[1, 1, 1]], "edges": []},
        {"vertices": [[1, 1], [2, 1]], "edges": [[0, 1.5]]},
        {"vertices": [[1, 1], [2, 1]], "edges": [[0]]},
        {"vertices": 5, "edges": []},
        {"edges": []},
        [],
    ],
)
def test_json_rejects_malformed_graph(data):
    with pytest.raises(GraphError):
        graph_from_json_dict(data)


def test_graph_rejects_loops_and_bad_indices():
    with pytest.raises(GraphError):
        Graph([(1, 1), (1, 2)], [(0, 0)])
    with pytest.raises(GraphError):
        Graph([(1, 1), (1, 2)], [(0, 5)])
    with pytest.raises(GraphError):
        Graph([(1, 1), (1, 1)], [])
