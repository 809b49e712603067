"""Command-line interface.

Subcommands: predict, homology, euler, reduce, verify.  Graph input, where
accepted, uses the JSON schema
{"n":..., "k":..., "family":..., "vertices":[[x,y],...], "edges":[[i,j],...]}
read from --input FILE or stdin.  Exit codes: 0 pass, 1 verification
failure, 2 usage error, 3 face-budget abort or out of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from .faces import FaceBudgetExceeded, euler_from_fvector, f_vector
from .graphs import (
    FAMILY_KINDS,
    Family,
    GraphError,
    build_gamma,
    graph_from_json_dict,
    graph_to_json_dict,
)
from .fold import reduce_graph
from .homology import betti_of_family
from .predictor import predict_family
from .transfer import euler_chi, euler_sweep
from .verify import DEFAULT_SEED, SUITES, run_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_graph(path: str | None):
    if path and path != "-":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise GraphError(f"cannot read {path}: {exc.strerror}") from None
    else:
        data = json.load(sys.stdin)
    return graph_from_json_dict(data)


def _cmd_predict(args: argparse.Namespace) -> int:
    wedge = predict_family(Family(args.family, args.n))
    _emit(
        {
            "wedge": {str(d): m for d, m in wedge.betti_numbers().items()},
            "chi": wedge.chi,
            "contractible": wedge.is_point,
        }
    )
    return EXIT_OK


def _cmd_homology(args: argparse.Namespace) -> int:
    # Family rejects any k but 6 outside gamma, so a given --k is never dropped.
    fam = Family(args.family, args.n, 6 if args.k is None else args.k)
    _emit(betti_of_family(fam, coeff=args.coeff).to_json_dict())
    return EXIT_OK


def _parse_sweep(spec: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = spec.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep range {spec!r}, expected A..B") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad sweep range {spec!r}")
    return lo, hi


def _cmd_euler(args: argparse.Namespace) -> int:
    if args.input is not None and (args.n is not None or args.sweep or args.method != "enumerate"):
        print("euler: --input is read only by --method enumerate, "
              "without --n or --sweep", file=sys.stderr)
        return EXIT_USAGE
    if args.sweep:
        if args.n is not None or args.method != "transfer":
            print("euler: --sweep runs the transfer method over A..B; "
                  "it takes no --n and no other --method", file=sys.stderr)
            return EXIT_USAGE
        lo, hi = args.sweep
        values = euler_sweep(args.k, hi)
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "chi"])
        for n in range(lo, hi + 1):
            writer.writerow([n, values[n - 1]])
        return EXIT_OK
    if args.method == "enumerate":
        if args.n is not None:
            g = build_gamma(args.n, args.k)
        else:
            g = _load_graph(args.input)
        counts = f_vector(g)
        payload = {"chi": euler_from_fvector(counts), "f_vector": list(counts)}
        if args.n is not None:
            payload.update({"n": args.n, "k": args.k, "method": "enumerate"})
        _emit(payload)
        return EXIT_OK
    if args.n is None:
        print("euler: --n is required for method transfer", file=sys.stderr)
        return EXIT_USAGE
    _emit({"n": args.n, "k": args.k, "chi": euler_chi(args.n, args.k), "method": "transfer"})
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    trace = reduce_graph(g)
    _emit(trace.to_json_dict())
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite and args.suite not in SUITES:
        print(
            f"verify: unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    # Open the report file first, so a bad path fails before any suite runs.
    try:
        out = open(args.json_path, "w", encoding="utf-8") if args.json_path else None
    except OSError as exc:
        print(f"error: cannot write {args.json_path}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    with out or contextlib.nullcontext():
        if args.suite:
            reports = [SUITES[args.suite](args.seed)]
        else:
            reports = run_all(seed=args.seed)
        if out:
            json.dump([r.to_json_dict() for r in reports], out, indent=2, sort_keys=True)
            out.write("\n")

    all_passed = True
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        all_passed &= report.passed
        skips = f", {len(report.budget_skips)} skipped" if report.budget_skips else ""
        print(
            f"[{status}] {report.suite}: {len(report.cases)} cases{skips} "
            f"({report.runtime:.2f}s)"
        )
        if not report.passed:
            for case in report.cases:
                if not case.passed and not case.skipped:
                    print(f"  FAIL {case.key}: expected={case.expected} actual={case.actual}")
    return EXIT_OK if all_passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indcomplex",
        description="Independence complexes of square grid graphs: "
        "predictions, homology, Euler characteristics, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_predict = sub.add_parser("predict", help="closed-form homotopy type")
    p_predict.add_argument("--n", type=int, required=True)
    p_predict.add_argument("--family", choices=FAMILY_KINDS, default="gamma")
    p_predict.set_defaults(func=_cmd_predict)

    p_hom = sub.add_parser("homology", help="homology of a family graph (fold, split, enumerate)")
    p_hom.add_argument("--family", choices=FAMILY_KINDS, required=True)
    p_hom.add_argument("--n", type=int, required=True)
    p_hom.add_argument("--k", type=int, help="rows of the gamma grid (default: 6)")
    p_hom.add_argument("--coeff", default="gf2", help="int or gf<p>, p prime (default: gf2)")
    p_hom.set_defaults(func=_cmd_homology)

    p_euler = sub.add_parser("euler", help="Euler characteristic")
    p_euler.add_argument("--n", type=int)
    p_euler.add_argument("--k", type=int, default=6)
    p_euler.add_argument(
        "--method", choices=("transfer", "enumerate"), default="transfer",
        help="enumerate counts the faces of the graph exactly, by size (its f-vector)",
    )
    p_euler.add_argument(
        "--sweep", type=_parse_sweep, metavar="A..B",
        help="CSV of chi for n = A..B by the transfer sweep",
    )
    p_euler.add_argument("--input", help="graph JSON file for --method enumerate")
    p_euler.set_defaults(func=_cmd_euler)

    p_reduce = sub.add_parser("reduce", help="fold-reduce a graph (JSON in, JSON out)")
    p_reduce.add_argument("--input", help="graph JSON file (default: stdin)")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", help="run a single suite by name (default: every suite)")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--json", dest="json_path", help="write the report to a JSON file")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped early (`| head`); keep the exit-time flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except FaceBudgetExceeded as exc:
        print(f"face budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        detail = str(exc) or "the input is too large for this machine"
        print(f"out of memory: {detail}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
