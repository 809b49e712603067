"""Exact counters and spans around the package's public functions.

Nothing in the package is changed: each instrumented function is rebound,
for the life of a `Recorder.installed()` block, wherever its callers look it
up, that is in every module namespace of the package that binds the same
object (for example `fold.delete_vertices`, `homology.faces_by_dimension`)
and on the class for `TransferModel.step`.

Two kinds of record are kept, and only while an operation is running
(`Recorder.active`), so oracle checks add nothing:

* counts, taken at a few low-frequency boundaries in every run: faces per
  dimension, columns and rank of every elimination, fold moves and residual
  size, transfer states and nonzeros, columns swept.  They must repeat
  exactly from one repetition (and one run) of the same code to the next.
* spans (name, start, end, parent), only in traced repetitions: every
  function in `TRACED` gets one per call.  Spans stay in memory; self times
  are computed from them after the repetition ends.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from time import perf_counter

import indcomplex
from indcomplex import faces, fold, graphs, homology, linalg, predictor, transfer, verify

_NAMESPACES = (indcomplex, graphs, fold, faces, homology, linalg, transfer, predictor, verify)

# (span name, owner, attribute, operation labels the name is split by).
# `wedge` is counted inside `predictor`; `cli` only parses and prints.
TRACED = (
    ("graphs.build_family", graphs, "build_family", ()),
    ("graphs.build_gamma", graphs, "build_gamma", ()),
    ("graphs.delete_vertices", graphs, "delete_vertices", ()),
    ("fold.reduce_graph", fold, "reduce_graph", ()),
    ("fold.find_fold", fold, "find_fold", ()),
    ("fold.homotopy_type_if_closed", fold, "homotopy_type_if_closed", ()),
    ("faces.faces_by_dimension", faces, "faces_by_dimension", ()),
    ("faces.count_faces", faces, "count_faces", ()),
    ("homology.betti_of_family", homology, "betti_of_family", ()),
    ("homology.betti_of_graph", homology, "betti_of_graph", ()),
    ("homology.betti_over_field", homology, "betti_over_field", ()),
    ("homology.integral_homology", homology, "integral_homology", ()),
    ("linalg.gf2_rank", linalg, "gf2_rank", ()),
    ("linalg.modp_rank", linalg, "modp_rank", ()),
    ("linalg.integer_column_echelon", linalg, "integer_column_echelon", ()),
    ("linalg.smith_invariant_factors", linalg, "smith_invariant_factors", ()),
    ("transfer.euler_sweep", transfer, "euler_sweep", ()),
    ("transfer.build_transfer_model", transfer, "build_transfer_model", ()),
    ("transfer.step", transfer.TransferModel, "step", ("wide", "long")),
    ("predictor.predict_family", predictor, "predict_family", ()),
    ("predictor.predict_gamma", predictor, "predict_gamma", ()),
    (
        "verify",
        verify,
        "verify_small_homology",
        ("small_homology_gf2", "small_homology_gf3", "small_homology_int"),
    ),
    ("verify", verify, "verify_fold_soundness", ("fold_soundness",)),
)

SPAN_NAMES = tuple(
    dict.fromkeys(
        f"{name}.{label}" if labels else name
        for name, _, _, labels in TRACED
        for label in (labels or ("",))
    )
)


class _CountedColumns:
    """Pass-through iterator that counts the columns an elimination consumes."""

    def __init__(self, columns):
        self._it = iter(columns)
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        col = next(self._it)
        self.n += 1
        return col


def _count_faces(counts, args, result):
    top = max(result, default=-1)
    counts["faces"].append([len(result.get(d, ())) for d in range(-1, top + 1)])


def _count_folds(counts, args, result):
    counts["folds"].append([len(result.moves), len(result.residual)])


def _count_model(counts, args, result):
    nnz = sum(len(c) for c in result.compatible)
    counts["models"].append([result.k, len(result.states), nnz])


def _count_sweep(counts, args, result):
    counts["sweeps"].append([args[0], len(result)])


# Attribute -> count hook; these functions are wrapped in every run.
_COUNTED = {
    "faces_by_dimension": _count_faces,
    "reduce_graph": _count_folds,
    "build_transfer_model": _count_model,
    "euler_sweep": _count_sweep,
}
# Eliminations whose first argument is the column sequence.
_ELIMINATIONS = ("gf2_rank", "modp_rank", "smith_invariant_factors")


class Recorder:
    """Counts (always) and spans (if `traced`) for one worker process."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.active = False
        self.op = ""
        self.spans: list = []
        self.stack = [-1]
        self.counts: dict[str, list] = {}
        self.reset()

    def reset(self) -> None:
        self.spans.clear()
        self.counts = {"faces": [], "ranks": [], "folds": [], "models": [], "sweeps": []}

    @contextmanager
    def op_span(self, label: str):
        """Root span of one operation; records are kept only inside one."""
        self.op = label
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        self.active = True
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.active = False
            self.stack.pop()
            self.spans[idx] = ("op", t0, t1, -1)

    def _wrap(self, fn, name, labels, attr):
        rec, spans, stack = self, self.spans, self.stack
        count = _COUNTED.get(attr)
        columns = attr in _ELIMINATIONS

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if columns:
                counted = _CountedColumns(args[0])
                args = (counted,) + args[1:]
            if rec.traced:
                key = f"{name}.{rec.op}" if labels else name
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans[idx] = (key, t0, t1, parent)
            else:
                result = fn(*args, **kwargs)
            if columns:
                rank = result if isinstance(result, int) else len(result)
                rec.counts["ranks"].append([attr, counted.n, rank])
            elif count is not None:
                count(rec.counts, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind the instrumented functions for the duration of the block."""
        saved = []
        for name, owner, attr, labels in TRACED:
            if not (self.traced or attr in _COUNTED or attr in _ELIMINATIONS):
                continue
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, labels, attr)
            owners = [owner] if isinstance(owner, type) else [
                ns for ns in _NAMESPACES if ns.__dict__.get(attr) is original
            ]
            for ns in owners:
                saved.append((ns, attr, original))
                setattr(ns, attr, wrapper)
        try:
            yield self
        finally:
            for ns, attr, original in reversed(saved):
                setattr(ns, attr, original)

    def digest(self) -> str:
        """Hash of every exact count of the repetition."""
        blob = json.dumps(self.counts, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def count_metrics(self) -> dict[str, float]:
        c = self.counts
        nnz_of = {k: nnz for k, _, nnz in c["models"]}
        columns = sum(n for _, n, _ in c["ranks"])
        rank = sum(r for _, _, r in c["ranks"])
        return {
            "faces.faces": sum(sum(f) for f in c["faces"]),
            "homology.boundary_nnz": sum(
                (d + 1) * n for f in c["faces"] for d, n in enumerate(f[1:])
            ),
            "linalg.columns": columns,
            "linalg.rank": rank,
            "linalg.pivot_ratio": rank / columns if columns else 0.0,
            "fold.moves": sum(m for m, _ in c["folds"]),
            "fold.residual_vertices": sum(r for _, r in c["folds"]),
            "transfer.states": sum(s for _, s, _ in c["models"]),
            "transfer.model_nnz": sum(nnz for _, _, nnz in c["models"]),
            "transfer.columns": sum(n for _, n in c["sweeps"]),
            "transfer.entry_updates": sum(nnz_of[k] * (n - 1) for k, n in c["sweeps"]),
        }

    def span_metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the operations' wall time
        and the share of it the layers' self times cover."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        wall = covered = 0.0
        for (name, t0, t1, _), inner in zip(spans, child):
            if name == "op":
                wall += t1 - t0
                continue
            covered += t1 - t0 - inner
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += t1 - t0 - inner
        out["trace.wall_s"] = wall
        out["trace.coverage"] = covered / wall if wall else 0.0
        return out
