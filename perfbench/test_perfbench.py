"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest perfbench

The smoke runs use reduced inputs and a seed other than the suites'
default, and check that every metric BENCHMARK.json names is reported.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import instrument  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from indcomplex import (  # noqa: E402
    BettiProfile, Family, WedgeOfSpheres, build_family, faces, fold, transfer,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                    "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert result["metrics"]["success_ratio"]["value"] == 1.0
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run_bench(tmp_path, "--workload", "grid_gf2", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_exact_counts_at_full_size():
    """The figures the workloads are sized by: Gamma(5,6) after fold
    reduction, the k = 14 transfer model, and x(60), y(60)."""
    rec = instrument.Recorder(traced=False)
    with rec.installed(), rec.op_span("counts"):
        trace = fold.reduce_graph(build_family(Family("gamma", 5)))
        faces.faces_by_dimension(trace.residual)
        transfer.build_transfer_model(14)
        for kind in ("x", "y"):
            fold.reduce_graph(build_family(Family(kind, 60)))
    counts = rec.count_metrics()
    assert rec.counts["folds"] == [[4, 26], [267, 0], [268, 0]]
    assert counts["faces.faces"] == 162_401
    assert counts["homology.boundary_nnz"] == 1_116_744
    assert rec.counts["models"] == [[14, 987, 275_807]]


def test_checks_catch_wrong_answers():
    grid = workloads.grid_gf2(1, smoke=True)[0]
    assert grid.check(BettiProfile({3: 1})) == (1, 1)
    closed = workloads.fold_closed(1, smoke=True)[0]
    assert closed.check(WedgeOfSpheres.point()) == (1, 1)
    wide, long = workloads.euler_sweep(1, smoke=True)
    values = wide.run()
    assert wide.check(values) == (1, 0)
    assert wide.check([v + 1 for v in values]) == (1, 1)
    assert long.check(long.run()[:-1]) == (1, 1)


def test_tracing_leaves_answers_and_counts_unchanged():
    ops = workloads.families_small(5, smoke=True)
    digests = []
    for traced in (False, True):
        rec = instrument.Recorder(traced=traced)
        with rec.installed():
            for op in ops:
                with rec.op_span(op.label):
                    answer = op.run()
                assert op.check(answer)[1] == 0
        digests.append(rec.digest())
    assert digests[0] == digests[1]


def test_exception_counts_every_case_of_the_operation_as_failed():
    def boom():
        raise MemoryError

    ops = [workloads.Op("boom", boom, lambda answer: (1, 0), size=3)]
    out = worker.repetition(ops, instrument.Recorder(traced=False))
    assert (out["attempted"], out["failed"], out["wrong"]) == (3, 3, 0)


def test_counts_that_moved_since_an_earlier_run_mark_the_run_incorrect():
    stale = run.COUNTS_DIR / f"fold_closed-smoke-{run.source_digest()}.json"
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_text(json.dumps({"digest": "0" * 64}))
    try:
        out = run_bench(ROOT, "--workload", "fold_closed", "--seed", "5", "--seconds", "1",
                        "--trace", "0", "--smoke")
    finally:
        stale.unlink()
    assert json.loads(out.stdout.strip().splitlines()[-1])["correct"] is False
    assert "exact counts differ" in out.stderr
