"""The benchmark's instrumentation (perfbench/instrument.py) finds every
function it rebinds, and puts each one back afterwards, and every workload
(perfbench/workloads.py) runs and passes its checks under it.

A renamed or moved function makes `Recorder.installed()` fail with a
KeyError, and a removed name or keyword that a workload or a count reads
makes its smoke run fail, so this catches both in the package's own test
run.  The modules are loaded from their files and nothing is written next to
them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import indcomplex
from indcomplex import build_gamma

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name: str):
    """perfbench/<name>.py as module perfbench_<name>, registered in
    sys.modules for the test (a dataclass looks its module up there)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def instrument(monkeypatch):
    return load(monkeypatch, "instrument")


def bindings(instrument) -> dict:
    """Every (namespace, name) the traced recorder may rebind, with its value."""
    out = {}
    for _, owner, attr, _ in instrument.TRACED:
        owners = [owner] if isinstance(owner, type) else instrument._NAMESPACES
        for ns in owners:
            if attr in ns.__dict__:
                out[ns.__name__, attr] = ns.__dict__[attr]
    return out


def test_traced_recorder_rebinds_and_restores(instrument):
    before = bindings(instrument)
    recorder = instrument.Recorder(traced=True)
    with recorder.installed():
        for _, owner, attr, _ in instrument.TRACED:
            assert owner.__dict__[attr] is not before[owner.__name__, attr]
        with recorder.op_span("probe"):
            indcomplex.reduce_graph(build_gamma(3, 6))
    assert bindings(instrument) == before
    assert len(recorder.counts["folds"]) == 1
    assert "fold.reduce_graph" in {span[0] for span in recorder.spans}


@pytest.mark.parametrize("traced", [False, True])
def test_every_workload_passes_its_checks_under_the_recorder(instrument, monkeypatch, traced):
    workloads = load(monkeypatch, "workloads")
    for name in workloads.WORKLOADS:
        ops = workloads.setup(name, 7, smoke=True)
        recorder = instrument.Recorder(traced=traced)
        # As in a benchmark repetition: a cold model cache, every operation
        # run before any check.
        workloads.reset_caches()
        with recorder.installed():
            answers = []
            for op in ops:
                with recorder.op_span(op.label):
                    answers.append(op.run())
        for op, answer in zip(ops, answers):
            assert op.check(answer) == (op.size, 0), (name, op.label)
        recorder.count_metrics()
        if traced:
            recorder.span_metrics()
