import hashlib
import json

import pytest

from indcomplex import verify
from indcomplex.graphs import graph_to_json_dict
from indcomplex.verify import DEFAULT_SEED, SUITES, VerificationReport, run_all

# sha256 over graph_to_json_dict of each graph the seeded suites check, in
# order, at the default seed: the corpora stay put when the drawing code moves.
CORPUS_SHA256 = {
    "fold_soundness": "299b500cdf93d47c907d7aacb6c3e2155cc779b85abb3d843d185143fe0a3c1b",
    "split_soundness": "166a9a76efe56a3020b7910608181bb8b48f03d0c187fcd4549f398af7f3fe49",
}


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


@pytest.mark.parametrize("name", list(CORPUS_SHA256))
def test_seeded_corpus_is_pinned(name, monkeypatch):
    digest = hashlib.sha256()

    def capture(suite, corpus, started):
        for _, g in corpus:
            digest.update(json.dumps(graph_to_json_dict(g)).encode())
        return VerificationReport(suite)

    monkeypatch.setattr(verify, "_soundness", capture)
    SUITES[name](DEFAULT_SEED)
    assert digest.hexdigest() == CORPUS_SHA256[name]


@pytest.mark.parametrize("coeff", ["gf2", "int"])
def test_skipped_case_reports_the_expected_value_of_a_run(coeff, face_budget_of):
    full = {c.key: c.expected for c in verify.verify_small_homology(coeff=coeff).cases}
    face_budget_of(3)
    skipped = [c for c in verify.verify_small_homology(coeff=coeff).cases if c.skipped]
    assert len(skipped) == 6
    assert all(c.expected == full[c.key] for c in skipped)


@pytest.mark.parametrize("coeff", ["gf2", "int"])
def test_case_json_names_the_skip_only_when_skipped(coeff, face_budget_of):
    face_budget_of(3)
    cases = verify.verify_small_homology(coeff=coeff).cases
    skipped = next(c for c in cases if c.skipped)
    run = next(c for c in cases if not c.skipped)
    assert skipped.to_json_dict() == {
        "key": skipped.key,
        "expected": skipped.expected,
        "actual": None,
        "passed": True,
        "skipped": skipped.skipped,
    }
    assert list(skipped.to_json_dict()) == ["key", "expected", "actual", "passed", "skipped"]
    assert run.to_json_dict() == {
        "key": run.key,
        "expected": run.expected,
        "actual": run.actual,
        "passed": run.passed,
    }
    assert list(run.to_json_dict()) == ["key", "expected", "actual", "passed"]
