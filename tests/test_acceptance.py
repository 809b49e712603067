"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line for its criterion; all
comparisons are exact integer equalities.  Criteria 3, 5 and 6 run the
verify suites as the CLI does, through SUITES.
"""

from indcomplex import (
    Family,
    WedgeOfSpheres,
    betti_of_family,
    euler_chi,
    euler_sweep,
    expected_f6,
    period_detect,
    predict_family,
    predict_gamma,
)
from indcomplex.predictor import F6_PERIOD
from indcomplex.verify import DEFAULT_SEED, SUITES


def report(criterion, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {label}")
    assert ok, f"criterion {criterion}: {label}"


def test_criterion_1_euler_table_and_period():
    values = tuple(euler_sweep(6, 28))
    ok = values == F6_PERIOD and period_detect(6, 200) == 28
    report(1, "chi table n=1..28 reproduced and period 28 detected", ok)


def test_criterion_2_predictor_chi_agreement():
    ok = all(
        predict_gamma(n).chi == chi for n, chi in enumerate(euler_sweep(6, 500), 1)
    )
    report(2, "predictor chi equals transfer chi for n=1..500", ok)


def test_criterion_3_brute_force_small_homology():
    # 5 families x n = 1..6; the "int" suite also requires zero torsion.
    results = [SUITES[f"small_homology_{coeff}"](DEFAULT_SEED) for coeff in ("gf2", "int")]
    ok = all(
        r.passed and not r.budget_skips and len(r.cases) == 30 for r in results
    )
    report(3, "GF(2) and integral homology match closed forms for n=1..6", ok)


def test_criterion_4_deep_gamma_5():
    profile = betti_of_family(Family("gamma", 5), coeff="gf2")
    ok = profile.reduced_betti == predict_gamma(5).betti_numbers() == {7: 1}
    report(4, "5-by-6 grid matches the predicted S^7 over GF(2)", ok)


def test_criterion_5_splitting_additivity():
    result = SUITES["splittings"](DEFAULT_SEED)
    ok = result.passed and not result.budget_skips and len(result.cases) > 0
    report(5, f"splitting identities hold for n<=5 ({len(result.cases)} cases)", ok)


def test_criterion_6_fold_soundness():
    result = SUITES["fold_soundness"](DEFAULT_SEED)
    ok = result.passed and not result.budget_skips and len(result.cases) == 200
    report(6, "fold reduction preserves Betti numbers on 200 seeded samples", ok)


def test_criterion_7_formula_consistency():
    ok = True
    for n in range(5, 501):
        # gamma(n) = y(n) v 2 S^6 a(n-4)
        ok &= predict_gamma(n) == predict_family(Family("y", n)).wedge(
            predict_family(Family("a", n - 4)).suspend(6).times(2)
        )
    for n in range(8, 501):
        # a(n) = x(n) v S^4 y(n-3) v S^10 a(n-7)
        ok &= predict_family(Family("a", n)) == predict_family(Family("x", n)).wedge(
            predict_family(Family("y", n - 3)).suspend(4),
            predict_family(Family("a", n - 7)).suspend(10),
        )
    for n in range(15, 501, 2):
        # odd ladder: a(n) = 3 S^{3(n-1)/2} v S^20 a(n-14)
        ok &= predict_family(Family("a", n)) == WedgeOfSpheres(
            {3 * (n - 1) // 2: 3}
        ).wedge(predict_family(Family("a", n - 14)).suspend(20))
    report(7, "recursion and ladder identities hold as multisets for n<=500", ok)


def test_criterion_8_literature_periods():
    ok = True
    for k, period in ((1, 6), (2, 4), (3, 8), (5, 40)):
        ok &= period_detect(k, 4 * period + 10) == period
    ok &= period_detect(4, 400) is None
    values = euler_sweep(4, 400)
    block_maxima = [
        max(abs(v) for v in values[i : i + 50]) for i in range(0, 400, 50)
    ]
    ok &= all(a < b for a, b in zip(block_maxima, block_maxima[1:]))
    report(8, "periods 6/4/8/40 for k=1,2,3,5; k=4 aperiodic with growing |chi|", ok)
