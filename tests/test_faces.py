import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indcomplex import FaceBudgetExceeded, Family, build_family, build_gamma
from indcomplex.faces import (
    BYTES_PER_FACE,
    count_faces,
    euler_from_fvector,
    f_vector,
    faces_by_dimension,
    link_graph,
)
from indcomplex.fold import reduce_with_splits
from indcomplex.graphs import delete_vertices

from conftest import (
    brute_force_independent_sets,
    disjoint_union,
    random_grid_subgraph,
    run_capped,
)


def members(face):
    """The vertex indices of the mask face, ascending."""
    return tuple(i for i in range(face.bit_length()) if face >> i & 1)


def reference_faces(g):
    """Order-exact reference for faces_by_dimension: a depth-first search that
    adds each vertex below the face's lowest that no member bans, highest
    first, so each dimension's faces come out in descending order."""
    out = {-1: [0]}
    nbrs = g.neighbor_masks

    def extend(face, free, d):
        while free:
            v = free.bit_length() - 1
            free ^= 1 << v
            out.setdefault(d, []).append(face | 1 << v)
            extend(face | 1 << v, free & ~nbrs[v], d + 1)

    extend(0, (1 << len(g)) - 1, 0)
    return out


def as_tuples(faces):
    """Every face of a faces_by_dimension result as a sorted vertex tuple."""
    return sorted(members(face) for group in faces.values() for face in group)


class TestEnumerateFaces:
    def test_p3_matches_brute_force(self):
        p3 = build_gamma(3, 1)
        faces = faces_by_dimension(p3)
        # Frozen from the subset-checking oracle, each group descending.
        assert faces == {-1: [0], 0: [0b100, 0b010, 0b001], 1: [0b101]}
        assert as_tuples(faces) == brute_force_independent_sets(p3)

    def test_k2(self):
        k2 = build_gamma(2, 1)
        assert faces_by_dimension(k2) == {-1: [0], 0: [0b10, 0b01]}

    def test_edgeless_three_vertices_full_simplex(self):
        g = delete_vertices(build_gamma(3, 3), 0b110111010)  # keep (1,1),(1,3),(3,1)
        assert not any(g.neighbor_masks)
        faces = faces_by_dimension(g)
        assert sum(map(len, faces.values())) == 8
        assert list(faces.items()) == list(reference_faces(g).items())

    def test_empty_graph(self):
        g = delete_vertices(build_gamma(3, 3), 0b111111111)
        assert faces_by_dimension(g) == reference_faces(g) == {-1: [0]}

    def test_groups_strictly_descending(self):
        faces = faces_by_dimension(build_gamma(2, 3))
        assert faces[-1] == [0]
        for d, group in faces.items():
            assert all(face.bit_count() == d + 1 for face in group)
            assert all(a > b for a, b in zip(group, group[1:]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_on_random_subgraphs(self, seed):
        import random

        g = random_grid_subgraph(random.Random(seed), max_n=2, max_vertices=8)
        assert as_tuples(faces_by_dimension(g)) == brute_force_independent_sets(g)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_order_matches_reference_on_random_subgraphs(self, seed):
        import random

        g = random_grid_subgraph(random.Random(seed), max_n=4, max_vertices=20)
        faces = faces_by_dimension(g)
        assert list(faces.items()) == list(reference_faces(g).items())

    def test_order_matches_reference_on_the_b8_split_residual(self):
        g = reduce_with_splits(build_family(Family("b", 8))).residual
        faces = faces_by_dimension(g)
        assert (len(g), sum(map(len, faces.values()))) == (24, 95_763)
        assert list(faces.items()) == list(reference_faces(g).items())

    def test_budget_exceeded(self, face_budget_of):
        face_budget_of(5)
        with pytest.raises(FaceBudgetExceeded):
            faces_by_dimension(build_gamma(3, 3))
        # Under 4 the sweep's own states already outnumber the budget.
        face_budget_of(4)
        with pytest.raises(FaceBudgetExceeded, match="sweep's first 3 of 9 vertices may need"):
            count_faces(build_gamma(3, 3))

    def test_counts_only_when_the_budget_could_be_exceeded(self, monkeypatch, face_budget_of):
        counted = []

        def spy(g):
            counted.append(len(g))
            return count_faces(g)

        monkeypatch.setattr("indcomplex.faces.count_faces", spy)
        g = build_gamma(2, 7)  # 14 vertices: at most 2^14 faces
        faces = faces_by_dimension(g)
        assert counted == []
        assert sum(map(len, faces.values())) == count_faces(g)
        face_budget_of(1 << 13)
        assert faces_by_dimension(g) == faces
        assert counted == [14]
        face_budget_of(5)
        with pytest.raises(FaceBudgetExceeded, match=f"^63 faces may need {63 * BYTES_PER_FACE} "
                           f"bytes, more than the {5 * BYTES_PER_FACE} bytes of address space$"):
            faces_by_dimension(build_gamma(3, 3))
        assert counted == [14, 9]

    def test_budget_follows_address_space_limit(self):
        # Under a 1 GiB cap the face guards admit (1 << 30) // BYTES_PER_FACE
        # faces and refuse one more.
        faces = (1 << 30) // BYTES_PER_FACE
        script = (
            "from indcomplex.faces import BYTES_PER_FACE, FaceBudgetExceeded\n"
            "from indcomplex.graphs import admit\n"
            f"admit('{faces} faces', {faces} * BYTES_PER_FACE, FaceBudgetExceeded)\n"
            f"admit('{faces + 1} faces', {faces + 1} * BYTES_PER_FACE, FaceBudgetExceeded)\n"
        )
        proc = run_capped(["-c", script], 1 << 30)
        assert proc.returncode == 1
        assert f"FaceBudgetExceeded: {faces + 1} faces may need" in proc.stderr
        assert f"than the {1 << 30} bytes of address space" in proc.stderr

    def test_count_has_no_vertex_cap(self):
        # 42 vertices in one component: the sweep counts it exactly.
        assert count_faces(build_gamma(7, 6)) == 69_050_253
        # A 2000-vertex path is refused by its count, not by recursion depth.
        with pytest.raises(FaceBudgetExceeded):
            faces_by_dimension(build_gamma(1, 2000))


class TestFVector:
    def test_p3(self):
        assert f_vector(build_gamma(3, 1)) == (3, 1)

    def test_k2(self):
        assert f_vector(build_gamma(2, 1)) == (2,)

    def test_p6(self):
        # Independent i-subsets of the 6-path: C(7-i, i).
        assert f_vector(build_gamma(1, 6)) == (6, 10, 4)

    def test_count_faces_matches_enumeration(self):
        for n in (1, 2, 3):
            g = build_gamma(n, 4)
            assert count_faces(g) == sum(map(len, faces_by_dimension(g).values()))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_count_faces_on_disjoint_unions(self, seed):
        import random

        rng = random.Random(seed)
        g = disjoint_union(
            random_grid_subgraph(rng, max_n=3, max_vertices=7),
            random_grid_subgraph(rng, max_n=3, max_vertices=7),
        )
        faces = brute_force_independent_sets(g)
        assert count_faces(g) == len(faces)
        sizes = [len(face) for face in faces]
        assert f_vector(g) == tuple(sizes.count(i) for i in range(1, max(sizes) + 1))


class TestEuler:
    def test_p3(self):
        assert euler_from_fvector(f_vector(build_gamma(3, 1))) == 2

    def test_gamma_2x6(self):
        assert euler_from_fvector(f_vector(build_gamma(2, 6))) == 2

    def test_empty_graph(self):
        g = delete_vertices(build_gamma(1, 1), 1)
        assert euler_from_fvector(f_vector(g)) == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_join_rule_on_disjoint_unions(self, seed):
        import random

        rng = random.Random(seed)
        g1 = random_grid_subgraph(rng, max_n=2, max_vertices=6)
        g2 = random_grid_subgraph(rng, max_n=2, max_vertices=6)
        g = disjoint_union(g1, g2)
        chi = euler_from_fvector(f_vector(g))
        chi1 = euler_from_fvector(f_vector(g1))
        chi2 = euler_from_fvector(f_vector(g2))
        assert 1 - chi == (1 - chi1) * (1 - chi2)
        # Face counts convolve (empty faces included).
        fv, fv1, fv2 = (_padded(x) for x in (g, g1, g2))
        conv = [0] * (len(fv1) + len(fv2) - 1)
        for i, a in enumerate(fv1):
            for j, b in enumerate(fv2):
                conv[i + j] += a * b
        assert fv == conv


def _padded(g):
    return [1, *f_vector(g)]


class TestLinkDeletion:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_b_minus_v_is_y(self, n):
        g = build_family(Family("b", n))
        assert delete_vertices(g, 1 << g.index((n, 3))) == build_family(Family("y", n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_minus_v_is_x(self, n):
        g = build_family(Family("a", n))
        assert delete_vertices(g, 1 << g.index((n, 3))) == build_family(Family("x", n))

    def test_link_of_isolated_vertex(self):
        g = build_family(Family("x", 1))
        assert len(link_graph(g, 0).vertices) == len(g.vertices) - 1

    def test_faces_monotone_under_induced_subgraph(self):
        g = build_gamma(2, 4)
        sub = delete_vertices(g, 0b100001)
        sub_faces = {
            sum(1 << g.index(sub.vertices[i]) for i in members(face))
            for group in faces_by_dimension(sub).values()
            for face in group
        }
        assert sub_faces <= {face for group in faces_by_dimension(g).values() for face in group}
