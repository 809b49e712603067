import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indcomplex import (
    Family,
    WedgeOfSpheres,
    build_family,
    build_gamma,
    homotopy_type_if_closed,
    predict_family,
    reduce_graph,
)
import indcomplex.fold as fold_module
from indcomplex.fold import (
    Cone, DeletionCone, Fold, LinkCone, ReductionTrace, StripK2, find_fold, reduce_with_splits,
)
from indcomplex.graphs import FAMILY_KINDS, GraphError, delete_vertices
from indcomplex.homology import betti_of_graph, betti_over_field

from conftest import graphs_with_splits, random_grid_subgraph


def full(g):
    """The vertex mask of the whole of g."""
    return (1 << len(g)) - 1


def pair_scan_fold(g, alive):
    """Oracle for find_fold: every pair (v, w) of alive vertices with
    N(v) contained in N(w) in the induced subgraph, least by (w, v)."""
    nbrs = {v: g.neighbor_masks[v] & alive for v in range(len(g)) if alive >> v & 1}
    candidates = [
        (v, w)
        for w in nbrs
        for v in nbrs
        if v != w and not nbrs[v] & ~nbrs[w] and not (nbrs[v] == nbrs[w] and w < v)
    ]
    return min(candidates, key=lambda vw: (vw[1], vw[0]), default=None)


def reference_reduce(g):
    """Oracle for reduce_graph: the same moves in the same priority, with the
    graph rebuilt by delete_vertices after every move and every pair of
    vertices scanned for a fold."""
    moves = []
    suspensions = 0
    current = g
    while len(current) > 0:
        masks = current.neighbor_masks
        iso = next((i for i, mask in enumerate(masks) if mask == 0), None)
        if iso is not None:
            moves.append(Cone(current.vertices[iso]))
            return ReductionTrace(tuple(moves), suspensions, True, current)
        k2 = next(
            (
                (a, mask.bit_length() - 1)
                for a, mask in enumerate(masks)
                if mask.bit_count() == 1 and masks[mask.bit_length() - 1] == 1 << a
            ),
            None,
        )
        if k2 is not None:
            a, b = k2
            moves.append(StripK2(current.vertices[a], current.vertices[b]))
            suspensions += 1
            current = delete_vertices(current, 1 << a | 1 << b)
            continue
        fold = pair_scan_fold(current, full(current))
        if fold is None:
            break
        v, w = fold
        moves.append(Fold(current.vertices[v], current.vertices[w]))
        current = delete_vertices(current, 1 << w)
    return ReductionTrace(tuple(moves), suspensions, False, current)


def can_split(g, v):
    """Whether the fold takes I(g - N[v]) or I(g - v) to a cone."""
    star = g.neighbor_masks[v] | 1 << v
    return any(reduce_graph(delete_vertices(g, gone)).contractible for gone in (star, 1 << v))


def replay_move(current, move):
    """Check the condition of move on the graph current, rebuilt by
    delete_vertices; return the graph after it and the suspensions it adds.
    A split's contractible subgraph must make reduce_graph end in a cone."""
    nbrs = current.neighbor_masks
    if isinstance(move, Cone):
        assert nbrs[current.index(move.v)] == 0
        return current, 0
    if isinstance(move, Fold):
        v, w = current.index(move.v), current.index(move.w)
        assert not nbrs[v] & ~nbrs[w]
        return delete_vertices(current, 1 << w), 0
    if isinstance(move, StripK2):
        a, b = current.index(move.a), current.index(move.b)
        assert nbrs[a] == 1 << b and nbrs[b] == 1 << a
        return delete_vertices(current, 1 << a | 1 << b), 1
    v = current.index(move.v)
    star = nbrs[v] | 1 << v
    if isinstance(move, LinkCone):
        assert reduce_graph(delete_vertices(current, star)).contractible
        return delete_vertices(current, 1 << v), 0
    assert isinstance(move, DeletionCone)
    assert reduce_graph(delete_vertices(current, 1 << v)).contractible
    return delete_vertices(current, star), 1


def replay(g, trace):
    """Oracle for reduce_with_splits: redo every move of the trace by
    replay_move, then check that nothing is left to split."""
    current, suspensions = g, 0
    for move in trace.moves:
        if isinstance(move, Cone):
            assert move is trace.moves[-1] and trace.contractible
        current, more = replay_move(current, move)
        suspensions += more
    assert (trace.residual, trace.suspensions) == (current, suspensions)
    if not trace.contractible:
        assert not any(can_split(current, v) for v in range(len(current)))


class TestFindFold:
    def test_p3_folds_endpoints(self):
        p3 = build_gamma(3, 1)
        # Endpoints are twins through the middle vertex; the larger index goes.
        assert find_fold(p3, full(p3)) == (0, 2)

    def test_k2_has_no_fold(self):
        k2 = build_gamma(2, 1)
        assert find_fold(k2, full(k2)) is None

    def test_edgeless_pair_folds_by_empty_inclusion(self):
        g = delete_vertices(build_gamma(3, 1), 0b010)
        assert find_fold(g, full(g)) == (0, 1)

    def test_mask_selects_the_induced_subgraph(self):
        p3 = build_gamma(3, 1)
        # Without the middle vertex the endpoints are isolated: an empty
        # inclusion, reported in the indices of the host graph.
        assert find_fold(p3, 0b101) == (0, 2)
        assert find_fold(p3, 0b011) is None
        assert find_fold(p3, 0) is None

    def test_mask_outside_the_graph(self):
        g = build_gamma(2, 2)
        with pytest.raises(GraphError, match="0x81"):
            find_fold(g, 1 << 7 | 1)
        with pytest.raises(GraphError, match="-0x1"):
            find_fold(g, -1)

    def test_exhaustive_against_pair_scan(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_grid_subgraph(rng, max_n=3, max_vertices=10)
            assert find_fold(g, full(g)) == pair_scan_fold(g, full(g))
            for _ in range(4):
                alive = rng.getrandbits(len(g))
                assert find_fold(g, alive) == pair_scan_fold(g, alive)


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
            assert find_fold(trace.residual, full(trace.residual)) is None
            assert all(trace.residual.neighbor_masks)

    def test_deterministic(self):
        g = build_gamma(4, 6)
        assert reduce_graph(g) == reduce_graph(g)

    def test_fold_precondition_recorded(self):
        g = build_gamma(3, 1)
        trace = reduce_graph(g)
        first = trace.moves[0]
        assert isinstance(first, Fold)
        v, w = g.index(first.v), g.index(first.w)
        assert not g.neighbor_masks[v] & ~g.neighbor_masks[w]

    def test_empty_graph(self):
        g = delete_vertices(build_gamma(1, 1), 1)
        trace = reduce_graph(g)
        assert not trace.contractible
        assert trace.suspensions == 0
        assert homotopy_type_if_closed(trace) == WedgeOfSpheres.sphere(-1)


class TestAgainstReference:
    """reduce_graph gives exactly the trace of the rebuild-per-move reduction."""

    @staticmethod
    def check(g):
        trace = reduce_graph(g)
        expected = reference_reduce(g)
        assert trace == expected
        assert trace.to_json_dict() == expected.to_json_dict()

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_families(self, kind):
        for n in range(1, 17):
            self.check(build_family(Family(kind, n)))

    def test_gamma_n_by_k(self):
        for n in range(1, 6):
            for k in range(1, 6):
                self.check(build_gamma(n, k))

    def test_random_grid_subgraphs(self):
        rng = random.Random(2207)
        for _ in range(240):
            self.check(random_grid_subgraph(rng, max_n=8, max_vertices=40))

    def test_long_random_grid_subgraphs(self):
        # Longer traces: more folds per graph, so more resumes of the scan.
        rng = random.Random(4111)
        for _ in range(200):
            self.check(random_grid_subgraph(rng, max_n=12, max_vertices=72))

    @pytest.mark.parametrize(
        "kind, n, moves",
        [
            ("x", 60, 267),
            ("y", 60, 268),
            ("x", 120, 537),
            ("y", 120, 538),
            ("x", 240, 1077),
            ("y", 240, 1078),
        ],
    )
    def test_closed(self, kind, n, moves):
        f = Family(kind, n)
        trace = reduce_graph(build_family(f))
        assert reduce_with_splits(build_family(f)) == trace
        assert len(trace.moves) == moves
        assert len(trace.residual) == 0
        assert homotopy_type_if_closed(trace) == predict_family(f)


class TestSplits:
    """reduce_with_splits against a replay on rebuilt graphs."""

    def test_fold_moves_come_first(self):
        families = [build_family(Family(kind, n)) for kind in FAMILY_KINDS for n in range(1, 13)]
        for g in graphs_with_splits(seed=3011, count=120) + families:
            trace, folded = reduce_with_splits(g), reduce_graph(g)
            assert trace.moves[: len(folded.moves)] == folded.moves
            if folded.contractible or not len(folded.residual):
                assert trace == folded
        g = build_gamma(5, 6)
        trace = reduce_with_splits(g)
        folds = reduce_graph(g).moves
        kinds = [type(m) for m in trace.moves[len(folds):]]
        assert kinds.count(LinkCone) + kinds.count(DeletionCone) == 3
        assert homotopy_type_if_closed(trace) == WedgeOfSpheres.sphere(7)

    @pytest.mark.parametrize("f", [Family("gamma", 5), Family("gamma", 6), Family("a", 7)])
    def test_one_state_and_one_residual(self, f, monkeypatch):
        # The splits continue the fold's own state: no second reduction, no
        # intermediate graph.
        g, calls = build_family(f), []

        def count(owner, name):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or real(*args))

        count(fold_module, "reduce_graph")
        count(fold_module, "delete_vertices")
        count(fold_module._Alive, "of")
        reduce_with_splits(g)
        assert calls.count("of") == 1 and calls.count("delete_vertices") <= 1
        assert "reduce_graph" not in calls

    @pytest.mark.parametrize(
        "n, order", [(7, [4, 13, 2]), (9, [0, 2, 16, 25, 14])], ids=["a7", "a9"]
    )
    def test_split_lets_a_lower_vertex_split(self, n, order):
        # The scan restarts at the lowest vertex after each split, because a
        # split can let a lower vertex split: in a(7) the split at 13 lets 2
        # split, and in a(9) the split at 25 lets 14, which they could not before.
        g = build_family(Family("a", n))
        trace = reduce_with_splits(g)
        at = [i for i, m in enumerate(trace.moves) if isinstance(m, (LinkCone, DeletionCone))]
        assert [g.index(trace.moves[i].v) for i in at] == order
        current = g
        for move in trace.moves[: at[-2]]:
            current = replay_move(current, move)[0]
        assert not can_split(current, current.index(g.vertices[order[-1]]))

    def test_split_corpus(self):
        for g in graphs_with_splits(seed=3011, count=120):
            replay(g, reduce_with_splits(g))

    def test_random_grid_subgraphs(self):
        rng = random.Random(2207)
        for _ in range(120):
            g = random_grid_subgraph(rng, max_n=8, max_vertices=40)
            replay(g, reduce_with_splits(g))

    def test_long_random_grid_subgraphs(self):
        # Longer traces: more folds per graph, so the split tests resume
        # longer scans.
        rng = random.Random(4111)
        for _ in range(200):
            g = random_grid_subgraph(rng, max_n=12, max_vertices=72)
            replay(g, reduce_with_splits(g))

    def test_split_tests_leave_the_state(self):
        # Each test runs on a copy; a copy that shared the neighbor list
        # would change the state it was taken from.
        for g in graphs_with_splits(seed=3011, count=120):
            state = fold_module._Alive.of(g)
            assert not state.reduce(state.alive, [])[1]
            before = (state.nbrs[:], state.alive, state.iso, state.deg1)
            for v in range(len(g)):
                if state.alive >> v & 1:
                    state.folds_to_cone_without(state.nbrs[v] | 1 << v)
                    state.folds_to_cone_without(1 << v)
                    assert (state.nbrs, state.alive, state.iso, state.deg1) == before

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_families(self, kind):
        for n in range(1, 13):
            f = Family(kind, n)
            trace = reduce_with_splits(build_family(f))
            replay(build_family(f), trace)
            if homotopy_type_if_closed(trace) is not None:
                assert homotopy_type_if_closed(trace) == predict_family(f)

    def test_gamma_n_by_k(self):
        for n in range(1, 7):
            for k in range(1, 7):
                replay(build_gamma(n, k), reduce_with_splits(build_gamma(n, k)))


class TestTraceJson:
    def test_every_move_kind(self):
        u, w = (1, 2), (3, 4)
        moves = (Fold(u, w), Cone(u), StripK2(u, w), LinkCone(w), DeletionCone(u))
        trace = ReductionTrace(moves, 2, True, delete_vertices(build_gamma(1, 1), 1))
        assert json.dumps(trace.to_json_dict()["moves"]) == (
            '[{"kind": "fold", "v": [1, 2], "w": [3, 4]}, {"kind": "cone", "v": [1, 2]}, '
            '{"kind": "strip_k2", "a": [1, 2], "b": [3, 4]}, {"kind": "link_cone", "v": [3, 4]}, '
            '{"kind": "deletion_cone", "v": [1, 2]}]'
        )


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
