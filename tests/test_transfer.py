import time
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indcomplex import build_gamma, euler_chi, euler_sweep, expected_f6, period_detect, transfer
from indcomplex.faces import euler_from_fvector, f_vector
from indcomplex.transfer import _chi_terms, _recurrence, build_transfer_model
from indcomplex.predictor import F6_PERIOD

from conftest import chi_on_its_line, run_capped


def reference_sweep(k, max_n):
    """chi for n = 1..max_n by stepping the model once per column, with no recurrence."""
    model = build_transfer_model(k)
    vec = list(model.signs)
    out = [1 - sum(vec)]
    for _ in range(max_n - 1):
        vec = model.step(vec)
        out.append(1 - sum(vec))
    return out


@pytest.fixture
def step_calls(monkeypatch):
    """A list that counts every TransferModel.step call while the test runs."""
    calls = []
    step = transfer.TransferModel.step

    def spy(self, vec):
        calls.append(len(vec))
        return step(self, vec)

    monkeypatch.setattr(transfer.TransferModel, "step", spy)
    return calls


def entry(model, s, t):
    """Transfer-matrix entry (s, t): the sign of state t if the masks are disjoint, else 0."""
    return 0 if model.states[s] & model.states[t] else model.signs[t]


class TestColumnStates:
    def test_small_counts(self):
        assert build_transfer_model(1).states == (0, 1)
        assert len(build_transfer_model(2).states) == 3
        assert len(build_transfer_model(6).states) == 21

    @pytest.mark.parametrize("k", range(1, 12))
    def test_counts_follow_fibonacci(self, k):
        # |states| = Fib(k + 2) with Fib(1) = Fib(2) = 1.
        a, b = 1, 1
        for _ in range(k):
            a, b = b, a + b
        assert len(build_transfer_model(k).states) == b

    def test_no_adjacent_rows(self):
        for s in build_transfer_model(8).states:
            assert s & (s << 1) == 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            build_transfer_model(0)
        # Width 26 needs about 1.06 GB of cell tables at BYTES_PER_ENTRY, so
        # under 512 MiB it is refused before any table is built.
        started = time.perf_counter()
        proc = run_capped(["-m", "indcomplex.cli", "euler", "--k", "26", "--n", "3"], 512 << 20)
        assert time.perf_counter() - started < 1.0
        assert proc.returncode == 3, proc.stderr
        assert "width-26 transfer tables" in proc.stderr

    @pytest.mark.parametrize("k", [100_000, 10_000_000])
    def test_huge_width_refused_at_once(self, k):
        # The width check stops counting states at the limit, so neither the
        # state count nor the message grows with k.
        started = time.perf_counter()
        proc = run_capped(
            ["-m", "indcomplex.cli", "euler", "--k", str(k), "--n", "1"], 512 << 20, timeout=10
        )
        assert time.perf_counter() - started < 1.0
        assert proc.returncode == 3, proc.stderr
        assert f"width-{k} transfer tables" in proc.stderr
        assert f"{512 << 20} bytes of address space" in proc.stderr


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

    def test_refused_width_keeps_the_cached_model(self):
        model = build_transfer_model(6)
        for k in (0, -1):
            with pytest.raises(ValueError):
                build_transfer_model(k)
        assert build_transfer_model(6) is model

    def test_cache_holds_one_width(self):
        build_transfer_model(5)
        build_transfer_model(7)
        assert build_transfer_model.cache_info().currsize == 1

    def test_cached_width_is_dropped_before_the_next_is_built(self):
        # Width 19's tables would add about 28% to width 20's peak RSS if
        # they were still alive while width 20 is built.
        script = (
            "import resource, sys\n"
            "from indcomplex.transfer import build_transfer_model\n"
            "for k in sys.argv[1:]: build_transfer_model(int(k))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
        )
        alone, pair = (
            int(run_capped(["-c", script, *widths], 1 << 30).stdout)
            for widths in (["20"], ["19", "20"])
        )
        assert pair <= 1.1 * alone

    @pytest.mark.deep
    def test_widths_18_to_24_in_one_process_under_400mib(self):
        # The width check admits width 24 under 400 MiB (about 203 MB peak
        # RSS alone); tables kept for widths 18..23 would exhaust the rest.
        script = "from indcomplex import euler_sweep\nfor k in range(18, 25): euler_sweep(k, 3)"
        proc = run_capped(["-c", script], 400 << 20)
        assert proc.returncode == 0, proc.stderr


class TestEulerChi:
    def test_matches_enumeration_oracle(self):
        for n in range(1, 7):
            for k in range(1, 7):
                if n * k > 30:
                    continue
                direct = euler_from_fvector(f_vector(build_gamma(n, k)))
                assert euler_chi(n, k) == direct, (n, k)

    def test_matches_face_counts_to_n_40(self):
        # f_vector counts faces exactly by its own vertex sweep, well past
        # the reach of enumeration.
        for k in range(1, 9):
            sweep = euler_sweep(k, 40)
            for n in range(1, 41):
                assert euler_from_fvector(f_vector(build_gamma(n, k))) == sweep[n - 1], (n, k)

    def test_sweep_consistent_with_point_queries(self):
        sweep = euler_sweep(6, 20)
        assert sweep == [euler_chi(n, 6) for n in range(1, 21)]

    def test_tabulated_period_values(self):
        assert tuple(euler_sweep(6, len(F6_PERIOD))) == F6_PERIOD

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

    def test_point_query_by_period_holds_only_its_cycle(self):
        # A list of 10^6 terms alone takes 8 MB.  Width 6 continues by its
        # proven period, cycling the 28 terms it keeps of the 44 it held.
        build_transfer_model(6)
        tracemalloc.start()
        try:
            chi = euler_chi(10**6, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chi == expected_f6(10**6)
        assert peak < 1 << 20

    def test_point_query_by_recurrence_holds_only_its_window(self):
        # Width 4's recurrence has a repeated factor Phi_2^2, so chi is not
        # periodic and the terms past 2L come from the recurrence's last e.
        expected = reference_sweep(4, 10**5)[-1]
        tracemalloc.start()
        try:
            chi = euler_chi(10**5, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chi == expected
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "k,cycle,steps", [(6, F6_PERIOD, 22), (2, (2, 2, 0, 0), 4)], ids=["k6", "k2"]
    )
    def test_point_query_past_a_proven_period_is_indexed(self, step_calls, k, cycle, steps):
        # 2L held terms take L steps (width 6: 44 terms, width 2: 8); past
        # them the proven period is indexed at the query's phase, not walked.
        n = 10**18
        assert euler_chi(n, k) == cycle[(n - 1) % len(cycle)]
        assert len(step_calls) == steps

    @pytest.mark.parametrize("k,period", [(1, 6), (3, 8), (5, 40), (9, 3640)])
    def test_point_query_past_a_period_beyond_the_held_terms(self, k, period):
        # 2L held terms are too few to show these periods, so n is reached by
        # the jump x^m mod P, not by a walk; a walk to n = 10^6 took 0.5-4.5 s.
        sweep = euler_sweep(k, 2 * period)
        assert sweep[period:] == sweep[:period]
        n = 10**7
        started = time.perf_counter()
        chi = euler_chi(n, k)
        assert time.perf_counter() - started < 0.5
        assert chi == sweep[(n - 1) % period]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 10])
    def test_terms_from_any_start_match_the_sweep(self, k):
        # Widths 2 and 6 cycle a proven period, and the others jump to a start
        # past 2L by x^m mod P and continue by their recurrence; each start
        # lands before, at or past 2L.
        sweep = euler_sweep(k, 500)
        for start in (1, 2, 27, 28, 29, 44, 45, 46, 100, 457, 500):
            assert list(islice(_chi_terms(k, start), 501 - start)) == sweep[start - 1 :], start

    @pytest.mark.parametrize("k,q", [(4, 6), (7, 72), (8, 176), (10, 180)])
    def test_far_query_without_a_period_is_linear_on_each_class(self, k, q):
        # These recurrences have only cyclotomic factors, and the only repeated
        # ones are Phi_2^2, Phi_3^2 and Phi_6^2, so chi is linear in n on each
        # class mod q, the period of the cyclotomic part.  The line through two
        # stepped terms past n = 200 is an oracle that uses no recurrence.
        sweep = reference_sweep(k, 200 + 2 * q)
        for n in (10**18, 10**18 + 1, 12_345_678_901_234_567):
            assert euler_chi(n, k) == chi_on_its_line(sweep, q, n), n

    def test_far_query_without_a_period_steps_only_its_held_terms(self, step_calls):
        # Width 4 holds 2L = 18 terms in 9 steps; x^m mod P gives the rest.
        build_transfer_model(4)
        tracemalloc.start()
        try:
            chi = euler_chi(10**18, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chi == -333_333_333_333_333_333
        assert len(step_calls) == 9
        assert peak < 1 << 20

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

    @pytest.mark.parametrize("k,expected", [(9, 3_640), (11, 20_944)])
    def test_periods_longer_than_a_quarter_of_the_bound(self, k, expected):
        assert period_detect(k, expected) == expected
        assert period_detect(k, expected - 1) is None

    def test_window_too_small_returns_none(self):
        assert period_detect(6, 27) is None

    def test_far_bound_streams_its_terms(self):
        # A list of the 10^8 + L terms below the bound would take 800 MB;
        # the search returns at the first period, holding a window of L.
        build_transfer_model(6)
        tracemalloc.start()
        try:
            p = period_detect(6, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p == 28
        assert peak < 1 << 20

    def test_reported_period_verified_on_window(self):
        p = period_detect(6, 120)
        assert p == 28
        values = euler_sweep(6, 120)
        assert all(values[i] == values[i + p] for i in range(120 - p))


class TestRecurrence:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_reference_sweep(self, k):
        # 3 * 2L + 7 terms, L = #states + 1.
        n = 3 * 2 * (len(build_transfer_model(k).states) + 1) + 7
        assert euler_sweep(k, n) == reference_sweep(k, n)

    def test_matches_period_table_to_3000(self):
        assert euler_sweep(6, 3000) == [expected_f6(n) for n in range(1, 3001)]

    @pytest.mark.parametrize("k,max_n,steps", [(6, 10**5, 22), (14, 200, 100)])
    def test_steps_stop_at_2l_terms(self, step_calls, k, max_n, steps):
        # Step m gives two terms, chi(2m) and chi(2m + 1), so term n takes
        # n // 2 steps.  Width 6: 2L = 44 terms take 22 steps, and its proven
        # period gives the rest.  Width 14: 2L = 1,976 > 200, so all 200 are
        # stepped, in 100 steps.
        values = euler_sweep(k, max_n)
        assert len(values) == max_n
        assert len(step_calls) == steps

    def test_failed_guess_falls_back_to_stepping(self, monkeypatch, step_calls):
        # Modulo 5 the guessed width-7 recurrence lifts wrongly and fails the
        # exact check, so every term is stepped: 300 terms, two a step.
        monkeypatch.setattr(transfer, "_PRIME", 5)
        values = euler_sweep(7, 300)
        assert len(step_calls) == 150
        assert values == reference_sweep(7, 300)

    @given(st.integers(1, 9), st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_two_vectors_give_chi(self, k, a, b):
        # chi(a + b + 1) = 1 - sum_t signs[t] x_a[t] x_b[t], x_j = M^j signs.
        model = build_transfer_model(k)
        x = [list(model.signs)]
        for _ in range(max(a, b)):
            x.append(model.step(x[-1]))
        chi = 1 - sum(s * u * v for s, u, v in zip(model.signs, x[a], x[b]))
        assert chi == reference_sweep(k, a + b + 1)[-1]

    def test_finds_minimal_recurrence(self):
        fib = [1, 1, 2, 3, 5, 8]
        assert _recurrence(fib, 3) == [1, 1]
        assert _recurrence(euler_sweep(6, 44), 22) == [0, -1, 0, 0, 0, 0, 1, 0, 1]

    def test_no_recurrence_of_order_at_most_l(self):
        # Order 6 is needed for five zeros then a one, more than L = 3.
        assert _recurrence([0, 0, 0, 0, 0, 1], 3) is None

    def test_coefficient_beyond_the_prime_is_refused(self):
        # seq[n] = c * seq[n - 1] with c > 2^61: the guess is c mod p, lifted
        # to the wrong integer, so the exact check rejects it.
        c = 10**30
        assert _recurrence([c**i for i in range(4)], 2) is None
        assert _recurrence([3**i for i in range(4)], 2) == [3]
