import pytest

from indcomplex import (
    Family,
    WedgeOfSpheres,
    euler_chi,
    expected_f6,
    predict_family,
    predict_gamma,
)


class TestFamilies:
    def test_x(self):
        assert predict_family(Family("x", 3)).is_point
        assert predict_family(Family("x", 6)) == WedgeOfSpheres.sphere(8)

    def test_y(self):
        assert predict_family(Family("y", 1)) == WedgeOfSpheres.sphere(1)
        assert predict_family(Family("y", 5)) == WedgeOfSpheres.sphere(7)
        assert predict_family(Family("y", 6)) == WedgeOfSpheres.sphere(8)

    def test_a_small(self):
        assert predict_family(Family("a", 2)) == WedgeOfSpheres.sphere(2)
        assert predict_family(Family("a", 4)) == WedgeOfSpheres({5: 2})
        assert predict_family(Family("a", 9)) == WedgeOfSpheres({12: 2})
        assert predict_family(Family("a", 10)) == WedgeOfSpheres({14: 2, 13: 1})

    def test_b_small(self):
        assert predict_family(Family("b", 1)) == WedgeOfSpheres.sphere(1)
        assert predict_family(Family("b", 4)) == WedgeOfSpheres({5: 2})
        # b(7) = y(7) v S^6 a(3) = S^10 v S^9.
        assert predict_family(Family("b", 7)) == WedgeOfSpheres({10: 1, 9: 1})

    def test_gamma_requires_k6(self):
        with pytest.raises(Exception):
            predict_family(Family("gamma", 3, k=4))


class TestGamma:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, {1: 1}),
            (2, {2: 1}),
            (4, {5: 3}),
            (6, {8: 3}),
            (7, {10: 1, 9: 2}),
            (8, {11: 5}),
            (14, {20: 5, 19: 2}),
            (15, {22: 1, 21: 6}),
        ],
    )
    def test_frozen_cases(self, n, expected):
        assert predict_gamma(n).betti_numbers() == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            predict_gamma(0)

    def test_chi_agrees_with_transfer_to_200(self):
        for n in range(1, 201):
            assert predict_gamma(n).chi == euler_chi(n, 6), n

    def test_chi_agrees_with_table(self):
        for n in range(1, 201):
            assert predict_gamma(n).chi == expected_f6(n), n

    def test_recursion_gamma_splits_into_y_and_a(self):
        for n in range(5, 60):
            lhs = predict_gamma(n)
            rhs = predict_family(Family("y", n)).wedge(
                predict_family(Family("a", n - 4)).suspend(6).times(2)
            )
            assert lhs == rhs, n

    def test_recursion_a_splits_into_x_and_b(self):
        for n in range(8, 60):
            lhs = predict_family(Family("a", n))
            rhs = predict_family(Family("x", n)).wedge(
                predict_family(Family("y", n - 3)).suspend(4),
                predict_family(Family("a", n - 7)).suspend(10),
            )
            assert lhs == rhs, n

    def test_odd_dimension_ladder(self):
        # Stepping n by 14 raises the top sphere by 21 and the bottom by 20.
        for n in range(15, 120, 2):
            prev = predict_gamma(n - 14).betti_numbers()
            curr = predict_gamma(n).betti_numbers()
            assert max(curr) == max(prev) + 21
            assert min(curr) == min(prev) + 20

    def test_dimension_band_is_tight(self):
        for n in range(1, 120):
            betti = predict_gamma(n).betti_numbers()
            assert max(betti) - min(betti) <= max(0, (n - 1) // 14 + 1)


class TestChiHelpers:
    def test_wedge_chi_examples(self):
        assert WedgeOfSpheres.point().chi == 1
        assert WedgeOfSpheres({5: 3}).chi == -2
        assert WedgeOfSpheres({2: 1}).chi == 2

    def test_expected_f6_wraps(self):
        assert expected_f6(10) == 6
        assert expected_f6(38) == 6
        assert expected_f6(28) == 0
        with pytest.raises(ValueError):
            expected_f6(0)
