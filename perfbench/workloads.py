"""The benchmark's four workloads: their operations, inputs and oracles.

Each workload is a fixed list of operations.  An operation is one call into
the package's public entry points (timed) plus a check of its answer against
an oracle that does not share the computation being timed (not timed).  Only
`families_small` takes anything from the seed: the random subgraphs of the
fold-soundness suite.

`smoke=True` shrinks every input so the whole benchmark runs in seconds; it
exists for the benchmark's own tests, not for measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import indcomplex
from indcomplex import Family, transfer, verify

# Bound before any instrumentation rebinds the name.
_transfer_model_cache = transfer.build_transfer_model


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its answer.

    `check` returns the number of operations the answer stands for (a suite
    answers one case per operation) and how many of them were wrong.  If
    `run` raises, all `size` of them count as failed.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int]]
    size: int = 1


def _one(ok: bool) -> tuple[int, int]:
    return 1, 0 if ok else 1


def grid_gf2(seed: int, smoke: bool) -> list[Op]:
    fam = Family("gamma", 3 if smoke else 5)
    expected = indcomplex.predict_gamma(fam.n).betti_numbers()

    def check(profile) -> tuple[int, int]:
        return _one(profile.reduced_betti == expected and not profile.torsion)

    return [Op(f"gamma{fam.n}", lambda: indcomplex.betti_of_family(fam, "gf2"), check)]


def families_small(seed: int, smoke: bool) -> list[Op]:
    # The fold-soundness corpus draws each subgraph's size at random and face
    # counts grow exponentially with it, so the suite's default 200 samples
    # of up to 20 vertices vary by a factor of two in work from seed to seed.
    # 1000 samples of up to 14 vertices cost about the same and vary by ~2%.
    max_n, samples = (2, 20) if smoke else (4, 1000)
    expected = {
        f"{kind}:n={n}": indcomplex.predict_family(Family(kind, n)).betti_numbers()
        for kind in verify.FAMILY_KEYS
        for n in range(1, max_n + 1)
    }

    def homology_op(coeff: str) -> Op:
        def check(report) -> tuple[int, int]:
            bad = len(expected) - len(report.cases)
            for case in report.cases:
                fam_key = case.key.rsplit(":", 1)[0]
                want = {str(d): b for d, b in sorted(expected[fam_key].items())}
                got = case.actual
                if coeff == "int" and got is not None:
                    got = got["betti"] if not got["torsion"] else None
                bad += case.skipped is not None or not case.passed or got != want
            return len(expected), bad

        return Op(
            f"small_homology_{coeff}",
            lambda: verify.verify_small_homology(max_n=max_n, coeff=coeff),
            check,
            len(expected),
        )

    def check_folds(report) -> tuple[int, int]:
        # Oracle: homology of the unreduced subgraph, computed by the suite.
        bad = samples - len(report.cases)
        for case in report.cases:
            bad += case.skipped is not None or case.actual != case.expected
        return samples, bad

    return [
        homology_op("gf2"),
        homology_op("gf3"),
        homology_op("int"),
        Op(
            "fold_soundness",
            lambda: verify.verify_fold_soundness(
                samples=samples, seed=seed, max_vertices=14
            ),
            check_folds,
            samples,
        ),
    ]


def fold_closed(seed: int, smoke: bool) -> list[Op]:
    n = 12 if smoke else 60

    def op(kind: str) -> Op:
        fam = Family(kind, n)
        expected = indcomplex.predict_family(fam)

        def run():
            trace = indcomplex.reduce_graph(indcomplex.build_family(fam))
            return indcomplex.homotopy_type_if_closed(trace)

        return Op(f"{kind}{n}", run, lambda wedge: _one(wedge == expected))

    return [op("x"), op("y")]


def euler_sweep(seed: int, smoke: bool) -> list[Op]:
    wide_k, wide_n, long_n = (8, 40, 500) if smoke else (14, 200, 100_000)
    expected_long = [indcomplex.expected_f6(n) for n in range(1, long_n + 1)]

    def check_wide(values) -> tuple[int, int]:
        # Transpose symmetry: chi(Gamma(n, k)) = chi(Gamma(k, n)).
        transposed = [indcomplex.euler_sweep(n, wide_k)[-1] for n in range(1, wide_k + 1)]
        return _one(len(values) == wide_n and values[:wide_k] == transposed)

    return [
        Op("wide", lambda: indcomplex.euler_sweep(wide_k, wide_n), check_wide),
        Op(
            "long",
            lambda: indcomplex.euler_sweep(6, long_n),
            lambda values: _one(values == expected_long),
        ),
    ]


def reset_caches() -> None:
    """Drop state a fresh process would not have, so every repetition pays
    for what a user pays for on every run (the transfer-model cache)."""
    _transfer_model_cache.cache_clear()


WORKLOADS = {
    "grid_gf2": grid_gf2,
    "families_small": families_small,
    "fold_closed": fold_closed,
    "euler_sweep": euler_sweep,
}


def setup(name: str, seed: int, smoke: bool) -> list[Op]:
    return WORKLOADS[name](seed, smoke)
