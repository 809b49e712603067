import pytest

from indcomplex import verify
from indcomplex.verify import SUITES, VerificationReport, run_all


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_report_is_named_by_its_key(name):
    report = SUITES[name](7)
    assert report.suite == name
    assert report.passed and not report.budget_skips


def test_run_all_runs_every_suite_in_order(monkeypatch):
    calls = []
    for name in SUITES:
        monkeypatch.setitem(
            verify.SUITES,
            name,
            lambda seed, name=name: calls.append((name, seed)) or VerificationReport(name),
        )
    assert [r.suite for r in run_all(seed=7)] == list(SUITES)
    assert calls == [(name, 7) for name in SUITES]
