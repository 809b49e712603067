import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indcomplex import (
    BettiProfile,
    Family,
    WedgeOfSpheres,
    betti_of_family,
    build_family,
    build_gamma,
    integral_homology,
    predict_family,
)
from indcomplex import homology, linalg
from indcomplex.faces import euler_from_fvector, f_vector, faces_by_dimension
from indcomplex.fold import reduce_graph
from indcomplex.graphs import delete_vertices
from indcomplex.homology import _facets, _signed_facets, betti_of_graph, betti_over_field

from conftest import (
    disjoint_union, flag_rp2, graphs_with_splits, random_grid_subgraph, run_capped,
)


def boundary_columns(g, d):
    """The d-boundary of I(g) as ordered (row, sign) lists, one per d-face."""
    return [list(_signed_facets(face).items()) for face in faces_by_dimension(g)[d]]


class TestBoundaryRows:
    def test_augmentation_row_for_k2(self):
        assert faces_by_dimension(build_gamma(2, 1))[-1] == [0]
        assert boundary_columns(build_gamma(2, 1), 0) == [[(0, 1)], [(0, 1)]]

    def test_p3_dimension_one(self):
        # d{0, 2} = {2} - {0}; a row is its facet's mask.
        assert boundary_columns(build_gamma(3, 1), 1) == [[(0b100, 1), (0b001, -1)]]

    def test_full_triangle_boundary_signs(self):
        g = delete_vertices(build_gamma(3, 3), 0b110111010)  # 3 isolated vertices
        # d{0,1,2} = {1,2} - {0,2} + {0,1}; a row is its facet's mask.
        assert boundary_columns(g, 2) == [[(0b110, 1), (0b101, -1), (0b011, 1)]]

    def test_boundary_squares_to_zero(self, rng):
        graphs = [build_gamma(2, 3)]
        graphs += [random_grid_subgraph(rng, max_n=3, max_vertices=12) for _ in range(25)]
        for g in graphs:
            faces = faces_by_dimension(g)
            for d in range(1, max(faces) + 1):
                for face in faces[d]:
                    acc = {}
                    for row, sign in _signed_facets(face).items():
                        for r2, s2 in _signed_facets(row).items():
                            acc[r2] = acc.get(r2, 0) + sign * s2
                    assert all(v == 0 for v in acc.values())

    def test_unsigned_rows_are_the_signed_keys(self, rng):
        # The elimination places a face without building its column: the
        # lowest row is the face minus its top vertex, with coefficient +-1.
        for _ in range(10):
            faces = faces_by_dimension(random_grid_subgraph(rng, max_n=3, max_vertices=12))
            for d in range(max(faces) + 1):
                for face in faces[d]:
                    signed = _signed_facets(face)
                    assert _facets(face) == set(signed)
                    lowest = face ^ 1 << face.bit_length() - 1
                    assert min(signed) == lowest and abs(signed[lowest]) == 1


class TestBettiOverField:
    def test_gamma_2x6_is_s2(self):
        profile = betti_over_field(build_gamma(2, 6), 2)
        assert profile.reduced_betti == {2: 1}

    def test_k2_is_s0(self):
        assert betti_over_field(build_gamma(2, 1), 2).reduced_betti == {0: 1}

    def test_p3_two_components(self):
        assert betti_over_field(build_gamma(3, 1), 2).reduced_betti == {0: 1}

    def test_empty_graph_reports_minus_one(self):
        g = delete_vertices(build_gamma(1, 1), 1)
        assert betti_over_field(g, 2).reduced_betti == {-1: 1}

    def test_single_vertex_contractible(self):
        assert betti_over_field(build_gamma(1, 1), 2).reduced_betti == {}

    @pytest.mark.parametrize("p", [2, 3, 0])
    def test_clearing_matches_uncleared_ranks(self, rng, p):
        # Oracle: every boundary's full rank, each computed on its own; over
        # Z (p = 0) its Smith factors, whose non-units are torsion one down.
        for g in [flag_rp2()] + [
            random_grid_subgraph(rng, max_n=3, max_vertices=14) for _ in range(25)
        ]:
            faces = faces_by_dimension(g)
            ranks, torsion = {}, []
            for d in range(max(faces) + 1):
                if p == 2:
                    pivots = linalg.gf2_rank([_facets(face) for face in faces[d]])
                elif p:
                    pivots = linalg.modp_rank([_signed_facets(face) for face in faces[d]], p)
                else:
                    pivots = linalg.smith_invariant_factors(
                        [_signed_facets(face) for face in faces[d]]
                    )
                    torsion += [(d - 1, f) for f in pivots.values() if f != 1]
                ranks[d] = len(pivots)
            expected = {}
            for d, group in faces.items():
                b = len(group) - ranks.get(d, 0) - ranks.get(d + 1, 0)
                if b:
                    expected[d] = b
            profile = betti_over_field(g, p) if p else integral_homology(g)
            assert (profile.reduced_betti, profile.torsion) == (expected, tuple(torsion))

    def test_cleared_faces_are_skipped(self, rng, monkeypatch):
        # Each elimination gets the d-faces that are not pivot rows of the
        # (d+1)-boundary, in face order, and nothing else; over Z (p = 0)
        # only unit pivot rows, the keys >= 0 of the Smith factors, clear.
        calls = []
        for name in ("gf2_rank", "modp_rank", "smith_invariant_factors"):

            def spy(columns, *args, _rank=getattr(linalg, name)):
                columns = list(columns)
                pivots = _rank(columns, *args)
                calls.append((columns, pivots))
                return pivots

            monkeypatch.setattr(linalg, name, spy)
        skipped = {}
        for p in (2, 3, 0):
            for _ in range(10):
                g = random_grid_subgraph(rng, max_n=3, max_vertices=12)
                faces = faces_by_dimension(g)
                calls.clear()
                betti_over_field(g, p) if p else integral_homology(g)
                assert len(calls) == max(faces) + 1
                cleared = set()
                for d, (columns, pivots) in zip(range(max(faces), -1, -1), calls):
                    assert columns == [face for face in faces[d] if face not in cleared]
                    skipped[p] = skipped.get(p, 0) + len(faces[d]) - len(columns)
                    cleared = {r for r in pivots if r >= 0}
                    if not p:
                        assert all(pivots[r] == 1 for r in cleared)
        assert min(skipped.values()) > 0

    def test_gf2_equals_gf3_small(self):
        for kind in ("x", "y", "a", "b"):
            for n in (1, 2, 3):
                g = build_family(Family(kind, n))
                assert (
                    betti_over_field(g, 2).reduced_betti
                    == betti_over_field(g, 3).reduced_betti
                )


class TestIntegralHomology:
    def test_gamma_2x6(self):
        profile = integral_homology(build_gamma(2, 6))
        assert profile.reduced_betti == {2: 1}
        assert profile.torsion == ()

    def test_p3(self):
        profile = integral_homology(build_gamma(3, 1))
        assert profile.reduced_betti == {0: 1}
        assert profile.torsion == ()

    def test_y1_is_s1(self):
        profile = integral_homology(build_family(Family("y", 1)))
        assert profile.reduced_betti == {1: 1}
        assert profile.torsion == ()

    def test_flag_rp2_torsion_depends_on_the_ring(self):
        g = flag_rp2()
        integral = betti_of_graph(g, "int")
        assert (integral.reduced_betti, integral.torsion) == ({}, ((1, 2),))
        assert betti_of_graph(g, "gf2").reduced_betti == {1: 1, 2: 1}
        assert betti_of_graph(g, "gf3").reduced_betti == {}

    def test_non_unit_pivots_keep_the_block_small(self, monkeypatch):
        # RP^2 joined with I(Γ(2,6)) = S^2 has 43,498 faces and one non-unit
        # pivot; only that pivot's column may reach the Smith finish.  The
        # same holds for RP^2 joined with itself, with torsion in two dimensions.
        finish = linalg._smith_finish

        def small_only(block):
            size = sum(map(len, block.values()))
            assert size <= 10_000, f"Smith block of {size} entries"
            return finish(block)

        monkeypatch.setattr(linalg, "_smith_finish", small_only)
        profile = integral_homology(disjoint_union(flag_rp2(), build_gamma(2, 6)))
        assert profile.torsion == ((4, 2),)
        assert profile.reduced_betti == {}
        profile = integral_homology(disjoint_union(flag_rp2(), flag_rp2()))
        assert profile.torsion == ((3, 2), (4, 2))
        assert profile.reduced_betti == {}

    def test_gamma_5x6_integral(self):
        # The 26-vertex fold residual has 162,401 faces; with clearing at the
        # unit pivots Z passes the same 81,201 columns as GF(2).  Splits close
        # Γ(5,6) without faces, so the residual is passed directly.
        profile = integral_homology(reduce_graph(build_gamma(5, 6)).residual)
        assert profile.reduced_betti == {7: 1}
        assert profile.torsion == ()


@pytest.mark.deep
@pytest.mark.parametrize(
    "kind, n, call, betti",
    [
        ("a", 7, "betti_over_field(residual, 2)", {"8": 2}),
        ("gamma", 6, "integral_homology(residual)", {"8": 3}),
    ],
    ids=["a7-gf2", "gamma6-int"],
)
def test_fold_residual_under_1gib_address_space(kind, n, call, betti):
    # The fold residuals of a(7) (0.84 M faces, one suspension) and Γ(6,6)
    # (1.89 M faces), which BYTES_PER_FACE is calibrated on, enumerated with
    # no split, in a child process capped at 1 GiB.
    script = (
        "import json\n"
        "from indcomplex import Family, build_family, reduce_graph\n"
        "from indcomplex.homology import betti_over_field, integral_homology\n"
        f"residual = reduce_graph(build_family(Family({kind!r}, {n}))).residual\n"
        f"print(json.dumps({call}.to_json_dict()))\n"
    )
    proc = run_capped(["-c", script], 1 << 30)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["reduced_betti"], report["torsion"]) == (betti, [])


def test_columns_and_pivots_run_the_same_way(monkeypatch):
    # Any column order and pivot choice give the same ranks; on the Γ(4,6)
    # residual a mixed order takes 203,098 or more integer steps.
    calls = {"_gf2_step": 0, "_z_step": 0}
    for name in calls:

        def counted(*args, _name=name, _step=getattr(linalg, name)):
            calls[_name] += 1
            return _step(*args)

        monkeypatch.setattr(linalg, name, counted)
    residual = reduce_graph(build_gamma(4, 6)).residual
    assert len(residual) == 20
    assert betti_over_field(residual, 2).reduced_betti == {5: 3}
    assert integral_homology(residual).reduced_betti == {5: 3}
    assert calls["_gf2_step"] <= 1_796
    assert calls["_z_step"] <= 1_796


@pytest.mark.parametrize("n,betti,most", [(4, {5: 3}, 2_655), (5, {7: 1}, 38_968)])
def test_gf2_builds_only_the_columns_it_reads(monkeypatch, n, betti, most):
    # Of the 5,455 and 81,201 uncleared columns of the Γ(4,6) and Γ(5,6)
    # residuals, only those whose lowest row is taken, or that reduce
    # another, are built.
    builds = 0

    def counted(face, _facets=_facets):
        nonlocal builds
        builds += 1
        return _facets(face)

    monkeypatch.setattr(homology, "_facets", counted)
    residual = reduce_graph(build_gamma(n, 6)).residual
    assert betti_over_field(residual, 2).reduced_betti == betti
    assert 0 < builds <= most


def test_eliminations_take_their_columns_first(monkeypatch):
    # The benchmark counts an elimination's columns by wrapping its first
    # positional argument in a one-pass iterator, and reads the rank as
    # len(result); a keyword or a second pass would break that count.
    fed = {}
    for name in ("gf2_rank", "modp_rank", "smith_invariant_factors"):

        def wrapper(*args, _name=name, _fn=getattr(linalg, name), **kwargs):
            assert args, f"{_name} got no positional column sequence"

            def counted(columns):
                for col in columns:
                    fed[_name] = fed.get(_name, 0) + 1
                    yield col

            result = _fn(counted(args[0]), *args[1:], **kwargs)
            assert len(result) >= 0
            return result

        monkeypatch.setattr(linalg, name, wrapper)
    residual = reduce_graph(build_gamma(4, 6)).residual
    betti_over_field(residual, 2)
    betti_over_field(residual, 3)
    integral_homology(residual)
    # Every pivot of the residual is a unit, so Z clears as the fields do.
    assert fed == {"gf2_rank": 5_455, "modp_rank": 5_455, "smith_invariant_factors": 5_455}


class TestLazyColumns:
    """Face masks with a builder run the same elimination as built columns."""

    @staticmethod
    def built(pivots, build):
        return {r: build(col) if type(col) is int else col for r, col in pivots.items()}

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_same_pivots_as_explicit_columns(self, seed):
        faces = faces_by_dimension(
            random_grid_subgraph(random.Random(seed), max_n=3, max_vertices=12)
        )
        for d in range(max(faces) + 1):
            group = faces[d]
            sets = [_facets(face) for face in group]
            signed = [_signed_facets(face) for face in group]
            assert linalg.gf2_rank(group, _facets) == linalg.gf2_rank(sets)
            assert linalg.modp_rank(group, 3, _signed_facets) == linalg.modp_rank(signed, 3)
            assert self.built(
                linalg._eliminate(group, linalg._gf2_step, _facets), _facets
            ) == linalg._eliminate(sets, linalg._gf2_step)
            # Over Z the pivot columns themselves agree, once built.
            assert self.built(
                linalg.integer_column_echelon(group, _signed_facets), _signed_facets
            ) == linalg.integer_column_echelon(signed)
            assert linalg.smith_invariant_factors(
                group, _signed_facets
            ) == linalg.smith_invariant_factors(signed)


class TestBettiOfFamily:
    @pytest.mark.parametrize(
        "kind,n,expected",
        [
            ("a", 4, {5: 2}),
            ("b", 3, {4: 1}),
            ("x", 3, {}),
            ("y", 2, {2: 1}),
            ("gamma", 2, {2: 1}),
        ],
    )
    def test_small_cases(self, kind, n, expected):
        assert betti_of_family(Family(kind, n)).reduced_betti == expected

    def test_matches_direct_computation(self):
        for kind in ("gamma", "x", "y", "a", "b"):
            for n in (1, 2, 3):
                fam = Family(kind, n)
                direct = betti_over_field(build_family(fam), 2).reduced_betti
                assert betti_of_family(fam).reduced_betti == direct

    def test_field_independence_small_families(self):
        for kind in ("gamma", "x", "y", "a", "b"):
            for n in (1, 2, 3, 4):
                fam = Family(kind, n)
                gf2 = betti_of_family(fam, coeff="gf2").reduced_betti
                gf3 = betti_of_family(fam, coeff="gf3").reduced_betti
                integral = betti_of_family(fam, coeff="int")
                assert gf2 == gf3 == integral.reduced_betti
                assert integral.torsion == ()

    @pytest.mark.parametrize("kind, n", [("a", 9), ("b", 8), ("b", 10), ("b", 12), ("gamma", 6)])
    def test_reach_by_splits(self, kind, n):
        # Fold and splits leave 322 faces of a(9), 95,763 of each b(n) and
        # 10,907 of Γ(6,6), whose fold residual alone has 1.89 M.
        fam = Family(kind, n)
        assert betti_of_family(fam).reduced_betti == predict_family(fam).betti_numbers()

    def test_unknown_coefficient(self):
        with pytest.raises(ValueError):
            betti_of_family(Family("y", 1), coeff="rational")

    @pytest.mark.parametrize("coeff", ["gf4", "gf6", "gf1", "gfx", "gf03", "gf"])
    def test_non_field_coefficient(self, coeff):
        with pytest.raises(ValueError):
            betti_of_family(Family("y", 1), coeff=coeff)

    def test_coefficient_checked_before_fold_reduction(self):
        # x(3) folds down to nothing, so no elimination would ever see p.
        assert betti_of_family(Family("x", 3), coeff="gf5").reduced_betti == {}
        with pytest.raises(ValueError):
            betti_of_family(Family("x", 3), coeff="gf1")

    def test_gf5_accepted(self):
        profile = betti_of_graph(build_gamma(2, 6), coeff="gf5")
        assert profile.reduced_betti == {2: 1}
        assert profile.coefficient == "gf5"

    def test_non_prime_field_rejected(self):
        with pytest.raises(ValueError):
            betti_over_field(build_gamma(2, 6), 4)


class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_euler_poincare(self, seed):
        g = random_grid_subgraph(random.Random(seed), max_n=3, max_vertices=12)
        profile = betti_over_field(g, 2)
        chi = euler_from_fvector(f_vector(g))
        assert WedgeOfSpheres(profile.reduced_betti).chi == chi

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_suspension_shift_by_k2(self, seed):
        h = random_grid_subgraph(random.Random(seed), max_n=3, max_vertices=12)
        g = disjoint_union(build_gamma(2, 1), h)
        left = betti_over_field(g, 2).reduced_betti
        right = {d + 1: b for d, b in betti_over_field(h, 2).reduced_betti.items()}
        assert left == right

    def test_splitting_additivity_small(self):
        def betti(kind, n):
            return betti_of_family(Family(kind, n)).reduced_betti

        for n in (4, 5):
            lhs = betti("a", n)
            rhs = dict(betti("x", n))
            for d, b in betti("b", n - 3).items():
                rhs[d + 4] = rhs.get(d + 4, 0) + b
            assert lhs == rhs
        n = 5
        lhs = betti("b", n)
        rhs = dict(betti("y", n))
        for d, b in betti("a", n - 4).items():
            rhs[d + 6] = rhs.get(d + 6, 0) + b
        assert lhs == rhs
        lhs = betti("gamma", n)
        rhs = dict(betti("y", n))
        for d, b in betti("a", n - 4).items():
            rhs[d + 6] = rhs.get(d + 6, 0) + 2 * b
        assert lhs == rhs


def test_splits_keep_homology_in_every_ring():
    # Each graph of the corpus gets at least one split move; the oracle is
    # the homology of the whole graph, with no reduction at all.
    for g in graphs_with_splits(seed=3011, count=120):
        for coeff, direct in (
            ("gf2", betti_over_field(g, 2)),
            ("gf3", betti_over_field(g, 3)),
            ("int", integral_homology(g)),
        ):
            split = betti_of_graph(g, coeff)
            assert (split.reduced_betti, split.torsion) == (direct.reduced_betti, direct.torsion)


class TestBettiProfile:
    def test_shift(self):
        p = BettiProfile({2: 1}, ((2, 3),), "int", 0)
        q = p.shifted(4)
        assert q.reduced_betti == {6: 1}
        assert q.torsion == ((6, 3),)
        assert q.suspensions_applied == 4

    def test_json_dict(self):
        p = BettiProfile({3: 2}, (), "gf2", 1)
        assert p.to_json_dict() == {
            "reduced_betti": {"3": 2},
            "torsion": [],
            "coefficient": "gf2",
            "suspensions_applied": 1,
        }

    def test_prediction_agrees_with_brute_force_n_le_3(self):
        for kind in ("gamma", "x", "y", "a", "b"):
            for n in (1, 2, 3):
                fam = Family(kind, n)
                expected = predict_family(fam).betti_numbers()
                actual = betti_over_field(build_family(fam), 2).reduced_betti
                assert actual == expected, (kind, n)
