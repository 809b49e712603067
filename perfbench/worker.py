"""One workload in one fresh interpreter: set up, repeat, report.

Run by `run.py`, never by hand.  It imports the package from the checkout's
`src/`, builds the workload's inputs, prints a `ready` line, then repeats the
workload's operations until `--seconds` have passed.  Each repetition is one
JSON line on stdout, written after its timed region ends; the last line
carries the peak RSS.

With `--trace 1`, untraced and traced repetitions alternate, so the tracing
overhead is measured against neighbours run under the same conditions.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import instrument  # noqa: E402
import workloads  # noqa: E402


def emit(**fields) -> None:
    print(json.dumps(fields), flush=True)


def repetition(ops, rec) -> dict:
    """Run every operation once, timed, then check the answers untimed."""
    workloads.reset_caches()
    gc.collect()
    rec.reset()
    answers = []
    with rec.installed():
        started = time.perf_counter()
        for op in ops:
            with rec.op_span(op.label):
                try:
                    answers.append(op.run())
                except (MemoryError, RuntimeError) as exc:
                    # FaceBudgetExceeded is a RuntimeError.
                    answers.append(exc)
        wall = time.perf_counter() - started
    attempted = wrong = errors = 0
    for op, answer in zip(ops, answers):
        if isinstance(answer, BaseException):
            attempted += op.size
            errors += op.size
            continue
        n, bad = op.check(answer)
        attempted += n
        wrong += bad
    out = {
        "traced": rec.traced,
        "wall": wall,
        "attempted": attempted,
        "failed": wrong + errors,
        "wrong": wrong,
        "digest": rec.digest(),
        "counts": rec.count_metrics(),
    }
    if rec.traced:
        out["spans"] = rec.span_metrics()
    rec.reset()
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ops = workloads.setup(args.workload, args.seed, args.smoke)
    emit(event="ready")
    if args.setup_only:
        return 0

    plain = instrument.Recorder(traced=False)
    recorders = [plain, instrument.Recorder(traced=True)] if args.trace else [plain]
    # Stop before a repetition that would likely overrun the time budget,
    # so a run takes about --seconds whatever the repetition length.
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        for rec in recorders:
            emit(event="rep", **repetition(ops, rec))
        now = time.perf_counter()
        if now + (now - round_started) > started + args.seconds:
            break
    emit(event="done", peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main())
