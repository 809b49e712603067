import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indcomplex import (
    Cone,
    Family,
    Fold,
    StripK2,
    WedgeOfSpheres,
    betti_of_graph,
    betti_over_field,
    build_family,
    build_gamma,
    delete_vertices,
    find_fold,
    homotopy_type_if_closed,
    reduce_graph,
)

from conftest import random_grid_subgraph


class TestFindFold:
    def test_p3_folds_endpoints(self):
        p3 = build_gamma(3, 1)
        # Endpoints are twins through the middle vertex; the larger index goes.
        assert find_fold(p3) == (0, 2)

    def test_k2_has_no_fold(self):
        assert find_fold(build_gamma(2, 1)) is None

    def test_edgeless_pair_folds_by_empty_inclusion(self):
        g = delete_vertices(build_gamma(3, 1), [1])
        assert find_fold(g) == (0, 1)

    def test_exhaustive_against_pair_scan(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_grid_subgraph(rng, max_n=3, max_vertices=10)
            expected = None
            masks = g.neighbor_masks
            candidates = [
                (v, w)
                for w in range(len(g.vertices))
                for v in range(len(g.vertices))
                if v != w
                and not masks[v] & ~masks[w]
                and not (masks[v] == masks[w] and w < v)
            ]
            if candidates:
                expected = min(candidates, key=lambda vw: (vw[1], vw[0]))
            assert find_fold(g) == expected


class TestReduce:
    def test_x1_contractible(self):
        trace = reduce_graph(build_family(Family("x", 1)))
        assert trace.contractible
        assert isinstance(trace.moves[-1], Cone)

    def test_y1_two_suspensions(self):
        trace = reduce_graph(build_family(Family("y", 1)))
        assert not trace.contractible
        assert trace.suspensions == 2
        assert len(trace.residual.vertices) == 0
        assert homotopy_type_if_closed(trace) == WedgeOfSpheres.sphere(1)

    def test_x2_reduces_to_s2(self):
        trace = reduce_graph(build_family(Family("x", 2)))
        assert homotopy_type_if_closed(trace) == WedgeOfSpheres.sphere(2)

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_x_odd_contractible(self, n):
        assert reduce_graph(build_family(Family("x", n))).contractible

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_x_even_gives_sphere(self, n):
        trace = reduce_graph(build_family(Family("x", n)))
        assert homotopy_type_if_closed(trace) == WedgeOfSpheres.sphere(3 * (n // 2) - 1)

    def test_trace_invariants(self):
        g = build_gamma(3, 6)
        trace = reduce_graph(g)
        assert trace.suspensions == sum(isinstance(m, StripK2) for m in trace.moves)
        assert len(trace.moves) <= len(g.vertices)
        if not trace.contractible:
            assert find_fold(trace.residual) is None
            assert all(trace.residual.degree(i) > 0 for i in range(len(trace.residual)))

    def test_deterministic(self):
        g = build_gamma(4, 6)
        assert reduce_graph(g) == reduce_graph(g)

    def test_fold_precondition_recorded(self):
        g = build_gamma(3, 1)
        trace = reduce_graph(g)
        first = trace.moves[0]
        assert isinstance(first, Fold)
        v, w = g.index(first.v), g.index(first.w)
        assert g.neighborhood(v) <= g.neighborhood(w)

    def test_empty_graph(self):
        g = delete_vertices(build_gamma(1, 1), [0])
        trace = reduce_graph(g)
        assert not trace.contractible
        assert trace.suspensions == 0
        assert homotopy_type_if_closed(trace) == WedgeOfSpheres.sphere(-1)


class TestHomotopyTypeIfClosed:
    def test_contractible_gives_point(self):
        trace = reduce_graph(build_family(Family("x", 3)))
        assert homotopy_type_if_closed(trace) == WedgeOfSpheres.point()

    def test_open_residual_gives_none(self):
        trace = reduce_graph(build_gamma(3, 6))
        assert len(trace.residual.vertices) > 0
        assert homotopy_type_if_closed(trace) is None


class TestHomologyPreservation:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_reduction_preserves_betti(self, seed):
        g = random_grid_subgraph(random.Random(seed), max_n=4, max_vertices=16)
        direct = betti_over_field(g, 2).reduced_betti
        reduced = betti_of_graph(g, coeff="gf2").reduced_betti
        assert direct == reduced
