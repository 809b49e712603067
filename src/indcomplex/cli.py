"""Command-line interface.

Subcommands: predict, homology, euler, reduce, verify.  Graph input, where
accepted, uses the JSON schema
{"n":..., "k":..., "family":..., "vertices":[[x,y],...], "edges":[[i,j],...]}
read from --input FILE or stdin.  Exit codes: 0 pass, 1 verification
failure, 2 usage error, 3 face-budget abort or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import json
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
from .predictor import predict_family, predict_gamma
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
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.load(sys.stdin)
    return graph_from_json_dict(data)


def _cmd_predict(args: argparse.Namespace) -> int:
    if args.family == "gamma":
        wedge = predict_gamma(args.n)
    else:
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
    profile = betti_of_family(fam, coeff=args.coeff)
    _emit(
        {
            "reduced_betti": {str(d): b for d, b in sorted(profile.reduced_betti.items())},
            "torsion": [[d, f] for d, f in profile.torsion],
            "suspensions_applied": profile.suspensions_applied,
        }
    )
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
        fv = f_vector(g)
        payload = {"chi": euler_from_fvector(fv), "f_vector": list(fv.counts)}
        if args.n is not None:
            payload.update({"n": args.n, "k": args.k, "method": "enumerate"})
        _emit(payload)
        return EXIT_OK
    if args.n is None:
        print("euler: --n is required for methods transfer/predict", file=sys.stderr)
        return EXIT_USAGE
    if args.method == "transfer":
        chi = euler_chi(args.n, args.k)
    else:  # predict
        if args.k != 6:
            print("euler: --method predict requires k = 6", file=sys.stderr)
            return EXIT_USAGE
        chi = predict_gamma(args.n).chi
    _emit({"n": args.n, "k": args.k, "chi": chi, "method": args.method})
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    trace = reduce_graph(g)
    _emit(trace.to_json_dict())
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite:
        if args.suite not in SUITES:
            print(
                f"verify: unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        reports = [SUITES[args.suite](args.seed)]
    else:
        reports = run_all(deep=args.deep, seed=args.seed)

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
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump([r.to_json_dict() for r in reports], fh, indent=2, sort_keys=True)
            fh.write("\n")
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

    p_hom = sub.add_parser("homology", help="fold-reduced homology of a family graph")
    p_hom.add_argument("--family", choices=FAMILY_KINDS, required=True)
    p_hom.add_argument("--n", type=int, required=True)
    p_hom.add_argument("--k", type=int, help="rows of the gamma grid (default: 6)")
    p_hom.add_argument("--coeff", default="gf2", help="int or gf<p>, p prime (default: gf2)")
    p_hom.set_defaults(func=_cmd_homology)

    p_euler = sub.add_parser("euler", help="Euler characteristic")
    p_euler.add_argument("--n", type=int)
    p_euler.add_argument("--k", type=int, default=6)
    p_euler.add_argument(
        "--method", choices=("transfer", "enumerate", "predict"), default="transfer"
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
    p_verify.add_argument("--all", action="store_true", help="run every suite (default)")
    p_verify.add_argument("--suite", help="run a single suite by name")
    p_verify.add_argument("--deep", action="store_true", help="include the n = 5, 6 stretch checks")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--json", dest="json_path", help="write the report to a JSON file")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FaceBudgetExceeded as exc:
        print(f"face budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("out of memory: the input is too large for this machine", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
