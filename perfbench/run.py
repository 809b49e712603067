"""Benchmark of the indcomplex package: one workload per invocation.

    python3 perfbench/run.py --workload grid_gf2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh interpreter
(`worker.py`) under an address-space cap, so its peak RSS is its own and an
input too large for the machine is a counted failure, not an OOM kill.
Set-up time is measured over several more fresh interpreters.

Every line but the last is for people: environment, and each metric with its
unit.  The last line is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (end-to-end with `--trace 0`, per layer with `--trace 1`).
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "indcomplex"
COUNTS_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("grid_gf2", "families_small", "fold_closed", "euler_sweep")
SEEDED = ("families_small",)
SETUP_PROBES = 9
# A worker that runs past this much CPU time is stopped by the kernel.
CPU_LIMIT_S = 150


def address_space_cap() -> int:
    """A quarter of physical memory, at most 2 GiB: far above any workload's
    peak (about 0.45 GB), far below what would endanger the machine."""
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return min(phys // 4, 2 << 30)


def _limit_child() -> None:
    cap = address_space_cap()
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))


def spawn(args: argparse.Namespace, *extra: str) -> tuple[subprocess.Popen, float]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *(["--smoke"] if args.smoke else []), *extra,
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=_limit_child)
    return proc, started


def read_ready(proc: subprocess.Popen, started: float) -> float:
    """Seconds from spawn until the worker has imported and built its inputs."""
    line = proc.stdout.readline()
    if not line or json.loads(line).get("event") != "ready":
        raise RuntimeError("worker did not finish set-up")
    return time.perf_counter() - started


def reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for the worker; return its exit code and its own peak RSS in MB."""
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*PACKAGE.glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def counts_agree_across_runs(args: argparse.Namespace, code: str, digest: str) -> bool:
    """Compare this run's exact counts with an earlier run of the same code
    on the same inputs, if there was one; remember them otherwise."""
    key = f"{args.workload}{'-smoke' if args.smoke else ''}"
    if args.workload in SEEDED:
        key += f"-seed{args.seed}"
    path = COUNTS_DIR / f"{key}-{code}.json"
    if path.exists():
        return json.loads(path.read_text())["digest"] == digest
    COUNTS_DIR.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"digest": digest}))
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for the tests")
    args = ap.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package source at {PACKAGE.relative_to(ROOT)}; run from a checkout",
              file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES - 1):
            probe, started = spawn(args, "--setup-only")
            try:
                setups.append(read_ready(probe, started))
            finally:
                code, _ = reap(probe)
            if code:
                print(f"set-up probe exited with {code}", file=sys.stderr)
                return 1

    proc, started = spawn(args)
    try:
        setups.append(read_ready(proc, started))
        reps = [json.loads(line) for line in proc.stdout]
    finally:
        exit_code, peak_rss_mb = reap(proc)
    done = bool(reps) and reps[-1]["event"] == "done"
    reps = [r for r in reps if r["event"] == "rep"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if not done:
        # Killed mid-repetition (memory or CPU cap): one more repetition
        # was attempted and every operation in it failed.
        lost = reps[0]["attempted"] if reps else 1
        attempted += lost
        failed += lost
        print(f"worker stopped early (exit {exit_code})", file=sys.stderr)
    if not reps or (args.trace and not any(r["traced"] for r in reps)):
        print("worker finished no repetition", file=sys.stderr)
        return 1

    code = source_digest()
    digests = {r["digest"] for r in reps}
    counts_stable = len(digests) == 1 and counts_agree_across_runs(args, code, digests.pop())
    correct = counts_stable and all(r["wrong"] == 0 for r in reps)
    if not counts_stable:
        print("exact counts differ between runs of the same code", file=sys.stderr)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    walls = [r["wall"] for r in plain]
    if args.trace:
        values = {name: statistics.median(r["spans"][name] for r in traced)
                  for name in traced[0]["spans"]}
        values.update(traced[0]["counts"])
        values["trace.overhead_s"] = statistics.median(
            t["wall"] - p["wall"] for p, t in zip(plain, traced))
        metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
            "success_ratio": (1 - failed / attempted, "ratio"),
        }

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"python={platform.python_version()} nproc={os.cpu_count()} "
          f"commit={commit()} source={code}")
    n = len(walls)
    # The highest percentile with at least ten samples beyond it.
    tail = (f"p{100 * (n - 10) // n} = {sorted(walls)[n - 11]:.4f} s" if n > 20
            else "too few samples for a tail percentile")
    print(f"repetitions: {len(plain)} untraced, {len(traced)} traced; "
          f"wall_s is the median of {n} samples; {tail}; set-up samples: {len(setups)}")
    print("wall samples (s): " + " ".join(f"{w:.4f}" for w in walls))
    print("set-up samples (s): " + " ".join(f"{s:.4f}" for s in setups))
    print(f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.6f} "
          f"correct={correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
