import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indcomplex import (
    build_gamma,
    build_transfer_model,
    column_states,
    euler_chi,
    euler_from_fvector,
    euler_sweep,
    f_vector,
    period_detect,
)
from indcomplex.predictor import F6_PERIOD, F6_PERIOD_LENGTH


def entry(model, s, t):
    """Transfer-matrix entry (s, t): the sign of state t if the masks are disjoint, else 0."""
    return 0 if model.states[s] & model.states[t] else model.signs[t]


class TestColumnStates:
    def test_small_counts(self):
        assert column_states(1) == [0, 1]
        assert len(column_states(2)) == 3
        assert len(column_states(6)) == 21

    @pytest.mark.parametrize("k", range(1, 12))
    def test_counts_follow_fibonacci(self, k):
        # |states| = Fib(k + 2) with Fib(1) = Fib(2) = 1.
        a, b = 1, 1
        for _ in range(k):
            a, b = b, a + b
        assert len(column_states(k)) == b

    def test_no_adjacent_rows(self):
        for s in column_states(8):
            assert s & (s << 1) == 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            column_states(0)
        with pytest.raises(ValueError):
            column_states(25)


class TestTransferModel:
    def test_entry_sign_and_disjointness(self):
        model = build_transfer_model(2)
        states = model.states
        assert states == (0b00, 0b01, 0b10)
        assert entry(model, 0, 1) == -1  # popcount(01) odd
        assert entry(model, 1, 2) == -1  # disjoint masks
        assert entry(model, 1, 1) == 0  # overlapping masks

    def test_step_is_matrix_product(self):
        model = build_transfer_model(3)
        vec = list(range(len(model.states)))
        stepped = model.step(vec)
        for t in range(len(model.states)):
            assert stepped[t] == sum(
                entry(model, s, t) * vec[s] for s in range(len(model.states))
            )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_step_matches_matrix_definition(self, data):
        k = data.draw(st.integers(1, 9))
        model = build_transfer_model(k)
        size = len(model.states)
        vec = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=size, max_size=size))
        before = list(vec)
        stepped = model.step(vec)
        assert vec == before
        assert stepped == [
            sum(entry(model, s, t) * vec[s] for s in range(size)) for t in range(size)
        ]

    def test_compatible_counts_follow_ladder(self):
        # Nonzero entries = independent sets of the 2-by-k ladder:
        # a(1) = 3, a(2) = 7, a(k) = 2 a(k - 1) + a(k - 2).
        expected = [3, 7]
        while len(expected) < 10:
            expected.append(2 * expected[-1] + expected[-2])
        for k in range(1, 11):
            model = build_transfer_model(k)
            assert sum(len(c) for c in model.compatible) == expected[k - 1]
            assert model.compatible == tuple(
                tuple(s for s in range(len(model.states)) if entry(model, s, t))
                for t in range(len(model.states))
            )

    def test_initial_is_signs(self):
        model = build_transfer_model(4)
        assert model.initial() == list(model.signs)


class TestEulerChi:
    def test_matches_enumeration_oracle(self):
        for n in range(1, 7):
            for k in range(1, 7):
                if n * k > 30:
                    continue
                direct = euler_from_fvector(f_vector(build_gamma(n, k)))
                assert euler_chi(n, k) == direct, (n, k)

    def test_sweep_consistent_with_point_queries(self):
        sweep = euler_sweep(6, 20)
        assert sweep == [euler_chi(n, 6) for n in range(1, 21)]

    def test_tabulated_period_values(self):
        assert tuple(euler_sweep(6, F6_PERIOD_LENGTH)) == F6_PERIOD

    def test_transpose_symmetry(self):
        # chi(n, k) = chi(k, n) since the grids are isomorphic.
        for n in range(1, 8):
            for k in range(1, 8):
                assert euler_chi(n, k) == euler_chi(k, n)

    def test_transpose_symmetry_at_width_20(self):
        # 17,711 states per column; the column-pair matrix would hold 54.6 M
        # entries.
        assert euler_sweep(20, 6) == [euler_sweep(n, 20)[-1] for n in range(1, 7)]

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            euler_chi(0, 6)
        with pytest.raises(ValueError):
            euler_sweep(6, 0)

    @given(st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_period_28_extends(self, n):
        assert euler_chi(n, 6) == euler_chi(n + 28, 6)


class TestPeriodDetect:
    @pytest.mark.parametrize(
        "k,expected",
        [(1, 6), (2, 4), (3, 8), (5, 40), (6, 28)],
    )
    def test_known_periods(self, k, expected):
        assert period_detect(k, 4 * expected + 8) == expected

    def test_window_too_small_returns_none(self):
        assert period_detect(6, 27) is None

    def test_reported_period_verified_on_window(self):
        p = period_detect(6, 120)
        assert p == 28
        values = euler_sweep(6, 120)
        assert all(values[i] == values[i + p] for i in range(120 - p))
