"""The benchmark's instrumentation (perfbench/instrument.py) finds every
function it rebinds, and puts each one back afterwards.

A renamed or moved function makes `Recorder.installed()` fail with a
KeyError, so this catches it in the package's own test run.  The module is
loaded from its file and nothing is written next to it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import indcomplex
from indcomplex import build_gamma

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


@pytest.fixture
def instrument(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
