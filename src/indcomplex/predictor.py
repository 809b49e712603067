"""Closed-form homotopy types of the grid-family independence complexes.

Every value is a wedge of spheres.  For the n-by-6 grid the answer depends
on the decomposition n = 14m + 2k + 1 (odd) or n = 14m + 2k (even) with
0 <= k <= 6, that is (m, k) = divmod(n // 2, 7), together with small
coefficient tables; the x/y families have single-sphere answers by parity,
the a family has closed forms, and the b family is evaluated through its
recursion b(n) = y(n) v S^6 a(n-4).
"""

from __future__ import annotations

from .graphs import Family, GraphError, admit
from .wedge import WedgeOfSpheres

# Coefficient tables, indexed by the residue k of the decomposition.
NU = {0: 0, 1: 0, 2: 0, 3: 2, 4: 2, 5: 4, 6: 4}
MU = {0: 2, 1: 2, 2: 4, 3: 4}
A_COEFF = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3}
B_COEFF = {2: 0, 3: 0, 4: 0, 5: 1, 6: 1}

# Peak memory per sphere dimension of a band, with headroom, for `admit`:
# `predict` grew peak RSS by 333-341 B a dimension through its JSON output
# (predict_family alone by 238-281 B) for Gamma, a and b at bands of 71,430
# and 285,715 dimensions (CPython 3.11, x86-64).
BYTES_PER_DIMENSION = 1024

# One full period of n -> chi(I(Gamma_{n,6})), n = 1..28.
F6_PERIOD = (
    0, 2, 2, -2, 0, 4, 0, -4, 2, 6, -2, -4, 4, 4,
    -4, -2, 6, 2, -4, 0, 4, 0, -2, 2, 2, 0, 0, 0,
)


def _band(lo: int, hi: int, mult: int) -> WedgeOfSpheres:
    """mult copies of S^i for lo <= i <= hi; empty when the range is empty.
    A band whose dimensions may not fit in the address space is refused
    before any is built."""
    admit(f"a band of {hi - lo + 1} sphere dimensions", (hi - lo + 1) * BYTES_PER_DIMENSION)
    return WedgeOfSpheres({i: mult for i in range(lo, hi + 1)})


def _predict_x(n: int) -> WedgeOfSpheres:
    if n % 2 == 1:
        return WedgeOfSpheres.point()
    return WedgeOfSpheres.sphere(3 * (n // 2) - 1)


def _predict_y(n: int) -> WedgeOfSpheres:
    if n % 2 == 1:
        return WedgeOfSpheres.sphere(3 * (n // 2) + 1)
    return WedgeOfSpheres.sphere(3 * (n // 2) - 1)


def _predict_a(n: int) -> WedgeOfSpheres:
    if n == 2:
        return WedgeOfSpheres.sphere(2)
    if n % 2 == 1:
        m, k = divmod(n // 2, 7)
        base = 20 * m + 3 * k
        return _band(base + 1, 21 * m + 3 * k, 3).wedge(
            WedgeOfSpheres({base: A_COEFF[k]})
        )
    m, k = divmod(n // 2, 7)
    top = 21 * m + 3 * k - 1
    head = WedgeOfSpheres({top: 2})
    if k <= 1:
        # Here m >= 1: n = 14m + 2k with k in {0, 1} and n != 2.
        return head.wedge(
            _band(20 * m + 3 * k, top - 1, 3),
            WedgeOfSpheres({20 * m + 3 * k - 1: 2}),
        )
    return head.wedge(
        _band(20 * m + 3 * k - 1, top - 1, 3),
        WedgeOfSpheres({20 * m + 3 * k - 2: B_COEFF[k]}),
    )


def _predict_b(n: int) -> WedgeOfSpheres:
    bases = {
        1: WedgeOfSpheres.sphere(1),
        2: WedgeOfSpheres.sphere(2),
        3: WedgeOfSpheres.sphere(4),
        4: WedgeOfSpheres({5: 2}),
    }
    if n in bases:
        return bases[n]
    return _predict_y(n).wedge(_predict_a(n - 4).suspend(6))


def predict_family(f: Family) -> WedgeOfSpheres:
    """Closed-form homotopy type of the independence complex of a family graph."""
    if f.kind == "gamma":
        if f.k != 6:
            raise GraphError("closed forms are only available for k = 6 grids")
        return predict_gamma(f.n)
    return {"x": _predict_x, "y": _predict_y, "a": _predict_a, "b": _predict_b}[
        f.kind
    ](f.n)


def predict_gamma(n: int) -> WedgeOfSpheres:
    """Homotopy type of the independence complex of the n-by-6 grid."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n % 2 == 1:
        m, k = divmod(n // 2, 7)
        n_prime = 21 * m + 3 * k + 1
        return WedgeOfSpheres.sphere(n_prime).wedge(
            _band(n_prime - m, n_prime - 1, 6),
            WedgeOfSpheres({n_prime - m - 1: NU[k]}),
        )
    if n <= 6:
        return {2: WedgeOfSpheres.sphere(2), 4: WedgeOfSpheres({5: 3}), 6: WedgeOfSpheres({8: 3})}[n]
    m, k = divmod(n // 2, 7)
    n_prime = 21 * m + 3 * k - 1
    head = WedgeOfSpheres({n_prime: 5})
    if k <= 3:
        # The theorem's guard: this branch only arises with m >= 1.
        assert m >= 1
        return head.wedge(
            _band(n_prime - m + 1, n_prime - 1, 6),
            WedgeOfSpheres({n_prime - m: MU[k]}),
        )
    return head.wedge(_band(n_prime - m, n_prime - 1, 6))


def expected_f6(n: int) -> int:
    """Tabulated chi(I(Gamma_{n,6})), extended by the period of 28."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return F6_PERIOD[(n - 1) % len(F6_PERIOD)]
