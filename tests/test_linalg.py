import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indcomplex.linalg import (
    MR_BOUND,
    gf2_rank,
    integer_column_echelon,
    is_prime,
    modp_rank,
    smith_invariant_factors,
)


def rational_rank(rows):
    """Oracle: Gaussian elimination with exact fractions."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        rank += 1
    return rank


def modq_rank_oracle(rows, q):
    """Oracle: row reduction mod the prime q on a dense copy."""
    mat = [[v % q for v in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], -1, q)
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] * inv
            mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def fraction_det(rows):
    """Oracle: determinant by elimination with exact fractions."""
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(mat)):
        pivot = next((i for i in range(c, len(mat)) if mat[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, len(mat)):
            f = mat[i][c] / mat[c][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def modp_rank_dense_oracle(rows, p):
    """Oracle: brute-force rank over GF(p) via all square minors."""
    m, n = len(rows), len(rows[0]) if rows else 0
    for size in range(min(m, n), 0, -1):
        for ri in itertools.combinations(range(m), size):
            for ci in itertools.combinations(range(n), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if _det_mod(sub, p):
                    return size
    return 0


def _det_mod(mat, p):
    n = len(mat)
    if n == 1:
        return mat[0][0] % p
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det_mod(minor, p)
    return total % p


def invariant_factors_oracle(rows):
    """Oracle: d_i = gcd of i-by-i minors divided by gcd of (i-1)-minors."""
    m, n = len(rows), len(rows[0]) if rows else 0
    gcds = [1]
    for size in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), size):
            for ci in itertools.combinations(range(n), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, _det_int(sub))
        if g == 0:
            break
        gcds.append(g)
    return [gcds[i] // gcds[i - 1] for i in range(1, len(gcds))]


def _det_int(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det_int(minor)
    return total


def as_columns(rows):
    m = len(rows)
    n = len(rows[0]) if rows else 0
    return [{i: rows[i][j] for i in range(m) if rows[i][j]} for j in range(n)]


def as_row_sets(rows):
    m = len(rows)
    n = len(rows[0]) if rows else 0
    return [{i for i in range(m) if rows[i][j] % 2} for j in range(n)]


small_matrix = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)

binary_matrix = st.integers(1, 8).flatmap(
    lambda m: st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


class TestRanks:
    @given(small_matrix)
    @settings(max_examples=150, deadline=None)
    def test_gf2_rank_matches_minor_oracle(self, rows):
        assert len(gf2_rank(as_row_sets(rows))) == modp_rank_dense_oracle(rows, 2)

    @given(small_matrix, st.sampled_from([2, 3, 5]))
    @settings(max_examples=150, deadline=None)
    def test_modp_rank_matches_minor_oracle(self, rows, p):
        assert len(modp_rank(as_columns(rows), p)) == modp_rank_dense_oracle(rows, p)

    @given(small_matrix)
    @settings(max_examples=150, deadline=None)
    def test_integer_echelon_rank_matches_fraction_oracle(self, rows):
        assert len(integer_column_echelon(as_columns(rows))) == rational_rank(rows)

    @given(binary_matrix)
    @settings(max_examples=150, deadline=None)
    def test_gf2_sets_and_dicts_give_the_same_pivot_rows(self, rows):
        # Clearing skips the columns indexed by pivot rows, so both steps must
        # agree on the rows themselves, not only on how many there are.
        assert gf2_rank(as_row_sets(rows)) == modp_rank(as_columns(rows), 2)

    def test_empty_and_zero(self):
        assert gf2_rank([]) == set()
        assert gf2_rank([set(), []]) == set()
        assert modp_rank([{}, {}], 3) == set()
        assert len(integer_column_echelon([{}])) == 0

    def test_pivot_rows(self):
        # Column 2 reduces to zero against column 0; column 1's pivot is row 1.
        assert gf2_rank([[0, 2], [1, 2], [0, 2], [0]]) == {0, 1, 2}
        assert modp_rank([{0: 1, 2: 2}, {1: 1, 2: 1}, {0: 2, 2: 4}], 5) == {0, 1}

    def test_modp_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            modp_rank([], 1)

    @pytest.mark.parametrize("columns", [[{0: 3}, {0: 1}], [{0: 2}, {0: 2}], []])
    def test_modp_rejects_composite_modulus(self, columns):
        # Z/4 is not a field: neither an answer nor a bare pow() error.
        with pytest.raises(ValueError, match="GF\\(4\\) is not a field"):
            modp_rank(columns, 4)


class TestIsPrime:
    def test_matches_trial_division_below_1e5(self):
        def trial_division(p):
            return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))

        assert [p for p in range(-2, 100_000) if is_prime(p)] == [
            p for p in range(-2, 100_000) if trial_division(p)
        ]

    @pytest.mark.parametrize(
        # Strong pseudoprimes to the bases 2..7 and 2..23; Carmichael numbers.
        "n",
        [3215031751, 3825123056546413051, 561, 41041],
    )
    def test_rejects_pseudoprimes(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("p", [2**61 - 1, 10**18 + 3, 2**31 - 1])
    def test_large_primes(self, p):
        assert is_prime(p)
        assert not is_prime(p * 3)

    @pytest.mark.parametrize("p", [MR_BOUND, MR_BOUND + 2, 2**89 - 1])
    def test_refuses_at_or_above_the_proven_bound(self, p):
        # MR_BOUND itself is a strong pseudoprime to all 13 bases.
        with pytest.raises(ValueError, match=str(MR_BOUND)):
            is_prime(p)

    def test_largest_supported_modulus_has_a_field(self):
        assert modp_rank([{0: 1, 1: 2}, {0: 2, 1: 4}], 2**61 - 1) == {0}


class TestSmith:
    @pytest.mark.parametrize(
        "rows,expected",
        [
            ([[2, 0], [0, 3]], [1, 6]),
            ([[2, 1], [0, 2]], [1, 4]),
            ([[1, 0], [0, 1]], [1, 1]),
            ([[2, 0], [0, 2]], [2, 2]),
            ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]),
            ([[0, 0], [0, 0]], []),
            ([[4, 0], [0, 6]], [2, 12]),
            ([[4, 6, 10]], [2]),
            ([[4], [6], [10]], [2]),
            ([[2**71, 0], [0, 3 * 2**70]], [2**70, 3 * 2**71]),
            ([[2**71, 2**70], [0, 2**72]], [2**70, 2**73]),
        ],
    )
    def test_known_matrices(self, rows, expected):
        assert list(smith_invariant_factors(as_columns(rows)).values()) == expected

    @given(small_matrix)
    @settings(max_examples=120, deadline=None)
    def test_matches_minor_gcd_oracle(self, rows):
        factors = smith_invariant_factors(as_columns(rows))
        assert list(factors.values()) == invariant_factors_oracle(rows)
        # Unit pivot rows map to 1; every other pivot row r is keyed ~r.
        pivots = integer_column_echelon(as_columns(rows))
        units = {r for r, col in pivots.items() if abs(col[r]) == 1}
        assert {r for r in factors if r >= 0} == units
        assert all(factors[r] == 1 for r in units)
        assert {~r for r in factors if r < 0} == set(pivots) - units

    @given(small_matrix)
    @settings(max_examples=60, deadline=None)
    def test_divisibility_chain(self, rows):
        factors = list(smith_invariant_factors(as_columns(rows)).values())
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))

    @pytest.mark.parametrize("square", [False, True])
    def test_larger_matrices_match_rank_and_determinant_oracles(self, square):
        # Up to 9x9, where the finish takes several passes; the oracles use no
        # elimination of the package.  d_i is divisible by q for exactly
        # rank over Q minus rank over GF(q) factors.
        rng = random.Random(3)
        tested = 0
        while tested < 400:
            m = rng.randint(1, 9)
            n = m if square else rng.randint(1, 9)
            bound, density = rng.choice([1, 3, 30]), rng.random()
            rows = [
                [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)
            ]
            det = fraction_det(rows) if square else None
            if det == 0:
                continue
            tested += 1
            factors = list(smith_invariant_factors(as_columns(rows)).values())
            assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
            rank = rational_rank(rows)
            assert len(factors) == rank
            for q in (2, 3, 5, 7):
                assert sum(d % q == 0 for d in factors) == rank - modq_rank_oracle(rows, q)
            if square:
                assert math.prod(factors) == abs(det)

    def test_stored_unit_pivot_is_built_only_for_a_non_unit_column(self):
        # Face masks whose lowest rows, read off the mask (the face minus its
        # top vertex), are 0, 0 and 3.  The second column reduces to a pivot
        # of -2 at row 1 with an entry in row 3, whose face is still stored.
        columns = {0b1: {0: 1, 1: 1}, 0b10: {0: 1, 1: -1, 3: 1}, 0b111: {3: 1}}
        built = []

        def build(face):
            built.append(face)
            return dict(columns[face])

        assert list(smith_invariant_factors(list(columns), build).values()) == [1, 1, 2]
        assert built == [0b10, 0b1, 0b111]
        assert list(smith_invariant_factors(columns.values()).values()) == [1, 1, 2]
        built.clear()
        assert gf2_rank([0b1, 0b111], lambda face: set(build(face))) == {0, 3}
        assert built == []

    def test_random_unimodular_conjugates_keep_factors(self):
        rng = random.Random(11)
        base = [[2, 0, 0], [0, 6, 0], [0, 0, 0]]
        expected = [2, 6]
        mat = [row[:] for row in base]
        for _ in range(20):
            op = rng.randrange(4)
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-2, 2)
            if op == 0:
                mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
            elif op == 1:
                for row in mat:
                    row[i] += c * row[j]
            elif op == 2:
                mat[i], mat[j] = mat[j], mat[i]
            else:
                for row in mat:
                    row[i], row[j] = row[j], row[i]
        assert list(smith_invariant_factors(as_columns(mat)).values()) == expected
