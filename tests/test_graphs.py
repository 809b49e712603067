import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indcomplex import Family, GraphError, build_family, build_gamma, predict_gamma, transfer
from indcomplex.faces import count_faces, faces_by_dimension, link_graph
from indcomplex.fold import reduce_graph, reduce_with_splits
from indcomplex.graphs import (
    FAMILY_KINDS,
    Graph,
    delete_vertices,
    graph_from_json_dict,
    graph_to_json_dict,
)

from conftest import edge_list

# sha256 over the JSON of every family with n <= 30, every Gamma(n, k) with
# n, k <= 8, and the reduce_graph and reduce_with_splits residual of each.
WIRE_SHA256 = "401cdec7493c2c632df01ca0305e315ee5c1c9a96e98c0054394abce3d3a40a1"


class TestBuildGamma:
    def test_2x2(self):
        g = build_gamma(2, 2)
        assert len(g.vertices) == 4
        assert len(edge_list(g)) == 4

    def test_single_vertex(self):
        g = build_gamma(1, 1)
        assert g.vertices == ((1, 1),)
        assert not edge_list(g)

    def test_edge_count_3x6(self):
        g = build_gamma(3, 6)
        # 6 rows of 2 horizontal edges plus 3 columns of 5 vertical edges.
        assert len(edge_list(g)) == 6 * 2 + 3 * 5 == 27

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 3), (5, 6), (7, 2)])
    def test_vertex_and_edge_counts(self, n, k):
        g = build_gamma(n, k)
        assert len(g.vertices) == n * k
        assert len(edge_list(g)) == k * (n - 1) + n * (k - 1)

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
        assert not edge_list(g)

    def test_y1_is_two_disjoint_k2(self):
        g = build_family(Family("y", 1))
        assert len(g.vertices) == 4
        assert len(edge_list(g)) == 2
        assert all(m.bit_count() == 1 for m in g.neighbor_masks)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_b_vertex_count(self, n):
        assert len(build_family(Family("b", n)).vertices) == 6 * n - 1

    def test_b_equals_gamma_minus_center(self):
        n = 3
        g = build_gamma(n, 6)
        assert delete_vertices(g, 1 << g.index((n, 4))) == build_family(Family("b", n))

    def test_a_equals_gamma_minus_corners(self):
        n = 4
        g = build_gamma(n, 6)
        removed = 1 << g.index((n, 1)) | 1 << g.index((n, 5))
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
        empty = delete_vertices(g, 0b1111)
        assert len(empty.vertices) == 0
        assert not edge_list(empty)

    def test_path_middle_leaves_isolated_pair(self):
        p3 = build_gamma(3, 1)
        g = delete_vertices(p3, 0b010)
        assert len(g.vertices) == 2
        assert not edge_list(g)

    def test_original_unmodified(self):
        g = build_gamma(2, 2)
        before = (g.vertices, g.neighbor_masks)
        delete_vertices(g, 1)
        assert (g.vertices, g.neighbor_masks) == before

    def test_invalid_index(self):
        g = build_gamma(2, 2)
        for drop in (1 << 4, 1 << 7 | 1, -1, -2):  # out of range, negative
            with pytest.raises(GraphError, match="vertex mask"):
                delete_vertices(g, drop)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_delete_commutes(self, data):
        g = build_gamma(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)))
        everything = (1 << len(g)) - 1
        s = data.draw(st.integers(0, everything))
        t = data.draw(st.integers(0, everything)) & ~s
        lhs = delete_vertices(delete_vertices(g, s), _reindexed(g, s, t))
        rhs = delete_vertices(g, s | t)
        assert lhs == rhs


def _reindexed(g, removed, t):
    """The mask t, a set of vertices outside removed, over g minus removed."""
    keep = [i for i in range(len(g)) if not removed >> i & 1]
    return sum(1 << new for new, old in enumerate(keep) if t >> old & 1)


class TestNeighborhood:
    def test_corner_open(self):
        g = build_gamma(2, 2)
        mask = g.neighbor_masks[g.index((1, 1))]
        assert {g.vertices[i] for i in range(len(g)) if mask >> i & 1} == {(1, 2), (2, 1)}

    def test_interior_degree_four(self):
        g = build_gamma(3, 3)
        assert g.neighbor_masks[g.index((2, 2))].bit_count() == 4

    def test_invalid_index(self):
        for v in (4, 9, -1):
            with pytest.raises(GraphError):
                link_graph(build_gamma(2, 2), v)


def test_row_flip_is_isomorphism():
    n = 4
    g = build_gamma(n, 6)
    flipped = Graph([(x, 7 - y) for x, y in g.vertices], edge_list(g))
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
    assert g.neighbor_masks == (0b10, 0b01)


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


def test_json_graph_whose_masks_do_not_fit(monkeypatch):
    monkeypatch.setattr("indcomplex.graphs.address_space", lambda: 64 << 20)
    data = {
        "vertices": [[1, y] for y in range(1, 40001)],
        "edges": [[i, i + 1] for i in range(39999)],
    }
    with pytest.raises(MemoryError, match="neighbor masks of 40000 vertices"):
        graph_from_json_dict(data)


def test_one_address_space_lowers_every_guard(monkeypatch):
    # Each input is small, but 64 KiB holds none of them, and every guard
    # reads the limit through graphs.address_space.
    monkeypatch.setattr("indcomplex.graphs.address_space", lambda: 64 << 10)
    transfer.build_transfer_model.cache_clear()  # a cached width is not checked again
    path = {"vertices": [[1, y] for y in range(1, 2001)], "edges": []}
    guards = [
        ("the neighbor masks of 2000 vertices", lambda: build_gamma(1, 2000)),
        ("the neighbor masks of 2000 vertices", lambda: graph_from_json_dict(path)),
        ("the width-12 transfer tables", lambda: transfer.build_transfer_model(12)),
        ("a band of 100 sphere dimensions", lambda: predict_gamma(14 * 100 + 1)),
        ("the face sweep's first", lambda: count_faces(build_gamma(3, 12))),
        ("239 faces", lambda: faces_by_dimension(build_gamma(2, 6))),
    ]
    for what, guarded in guards:
        shape = rf"^{what}.* may need \d+ bytes, more than the {64 << 10} bytes of address space$"
        with pytest.raises(MemoryError, match=shape):
            guarded()


def test_graph_rejects_loops_and_bad_indices():
    with pytest.raises(GraphError):
        Graph([(1, 1), (1, 2)], [(0, 0)])
    with pytest.raises(GraphError):
        Graph([(1, 1), (1, 2)], [(0, 5)])
    with pytest.raises(GraphError):
        Graph([(1, 1), (1, 1)], [])


def test_repeated_and_reversed_edges_collapse():
    g = Graph([(2, 1), (1, 1)], [(0, 1), (1, 0), (0, 1)])
    assert g == build_gamma(2, 1) and hash(g) == hash(build_gamma(2, 1))
    assert repr(g) == "Graph(2 vertices, 1 edges)"


def test_index_searches_the_sorted_vertices():
    g = build_family(Family("b", 3))
    assert [g.index(v) for v in g.vertices] == list(range(len(g)))
    for v in ((3, 4), (0, 1), (4, 1), (3, 7)):
        with pytest.raises(GraphError, match="not in graph"):
            g.index(v)


def test_wire_format_is_pinned():
    graphs = [build_family(Family(kind, n)) for kind in FAMILY_KINDS for n in range(1, 31)]
    graphs += [build_gamma(n, k) for n in range(1, 9) for k in range(1, 9)]
    digest = hashlib.sha256()
    for g in graphs:
        for h in (g, reduce_graph(g).residual, reduce_with_splits(g).residual):
            digest.update(json.dumps(graph_to_json_dict(h)).encode())
    assert digest.hexdigest() == WIRE_SHA256
