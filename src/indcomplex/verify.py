"""Cross-oracle verification suites.

Each suite compares independent computations of the same quantity (closed
forms, homology after fold reduction and splits, brute-force homology,
transfer-matrix Euler characteristics) and assembles a deterministic report.
Cases skipped by the face budget are reported, never silently dropped.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

from .faces import FaceBudgetExceeded, link_graph
from .fold import DeletionCone, LinkCone, reduce_with_splits
from .graphs import FAMILY_KINDS, Family, Graph, build_family, build_gamma, delete_vertices
from .homology import betti_of_family, betti_of_graph, betti_over_field
from .predictor import expected_f6, predict_family, predict_gamma
from .transfer import euler_sweep
from .wedge import WedgeOfSpheres

DEFAULT_SEED = 1729

FAMILY_KEYS = FAMILY_KINDS


@dataclass(frozen=True)
class Case:
    key: str
    expected: object
    actual: object
    passed: bool
    skipped: str | None = None

    def to_json_dict(self) -> dict:
        out = asdict(self)
        if not self.skipped:
            del out["skipped"]
        return out


@dataclass
class VerificationReport:
    suite: str
    cases: list[Case] = field(default_factory=list)
    runtime: float = 0.0

    @property
    def budget_skips(self) -> list[str]:
        return [c.key for c in self.cases if c.skipped]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases if not c.skipped)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "runtime_seconds": round(self.runtime, 3),
            "budget_skips": self.budget_skips,
            "cases": [c.to_json_dict() for c in self.cases],
        }


def _finish(report: VerificationReport, started: float) -> VerificationReport:
    report.cases.sort(key=lambda c: c.key)
    report.runtime = time.perf_counter() - started
    return report


def _wedge_dict(wedge: WedgeOfSpheres) -> dict[str, int]:
    return {str(d): m for d, m in sorted(wedge.betti_numbers().items())}


def verify_euler_table() -> VerificationReport:
    """Three-way chi agreement for n <= 56: table, transfer matrix, predictor."""
    started = time.perf_counter()
    report = VerificationReport("euler_table")
    transfer = euler_sweep(6, 56)
    for n in range(1, 57):
        expected = expected_f6(n)
        actual = {
            "transfer": transfer[n - 1],
            "predictor": predict_gamma(n).chi,
        }
        passed = actual["transfer"] == expected == actual["predictor"]
        report.cases.append(Case(f"n={n:03d}", expected, actual, passed))
    return _finish(report, started)


def verify_small_homology(max_n: int = 6, coeff: str = "gf2") -> VerificationReport:
    """Homology of every family after fold and splits against the closed forms."""
    started = time.perf_counter()
    report = VerificationReport(f"small_homology_{coeff}")
    for kind in FAMILY_KEYS:
        for n in range(1, max_n + 1):
            key = f"{kind}:n={n}:{coeff}"
            fam = Family(kind, n)
            expected = _wedge_dict(predict_family(fam))
            if coeff == "int":
                expected = {"betti": expected, "torsion": []}
            try:
                profile = betti_of_family(fam, coeff=coeff)
            except FaceBudgetExceeded as exc:
                report.cases.append(Case(key, expected, None, True, skipped=str(exc)))
                continue
            actual = _wedge_dict(WedgeOfSpheres(profile.reduced_betti))
            if coeff == "int":
                actual = {"betti": actual, "torsion": list(profile.torsion)}
            report.cases.append(Case(key, expected, actual, actual == expected))
    return _finish(report, started)


def verify_splittings() -> VerificationReport:
    """Betti additivity of the wedge splittings and the deleted-neighborhood
    suspension identities for n <= 5, over GF(2)."""
    started = time.perf_counter()
    report = VerificationReport("splittings")

    def fam(kind: str, n: int) -> WedgeOfSpheres:
        return WedgeOfSpheres(betti_of_family(Family(kind, n), coeff="gf2").reduced_betti)

    def deleted_nbhd(kind: str, n: int) -> WedgeOfSpheres:
        """Betti numbers of I(G - N[v]) for the distinguished vertex v of G."""
        g = build_family(Family(kind, n))
        link = link_graph(g, g.index(g.family.distinguished_vertex))
        return WedgeOfSpheres(betti_of_graph(link, coeff="gf2").reduced_betti)

    def add_case(key: str, expected: WedgeOfSpheres, actual: WedgeOfSpheres) -> None:
        report.cases.append(
            Case(key, _wedge_dict(expected), _wedge_dict(actual), expected == actual)
        )

    for n in range(4, 6):
        # a(n) = x(n) v S^4 b(n-3), and a(n) - N[v_n] against S^3 b(n-3)
        b = fam("b", n - 3)
        add_case(f"a_split:n={n}", fam("x", n).wedge(b.suspend(4)), fam("a", n))
        add_case(f"a_deleted_nbhd:n={n}", b.suspend(3), deleted_nbhd("a", n))
    for n in range(5, 6):
        # b(n) = y(n) v S^6 a(n-4), gamma(n) = y(n) v 2 S^6 a(n-4),
        # and b(n) - N[v_n] against S^5 a(n-4)
        a, y = fam("a", n - 4), fam("y", n)
        add_case(f"b_split:n={n}", y.wedge(a.suspend(6)), fam("b", n))
        add_case(f"gamma_split:n={n}", y.wedge(a.suspend(6).times(2)), fam("gamma", n))
        add_case(f"b_deleted_nbhd:n={n}", a.suspend(5), deleted_nbhd("b", n))
    return _finish(report, started)


def _soundness(
    suite: str, corpus: Iterable[tuple[str, Graph]], started: float
) -> VerificationReport:
    """Betti numbers over GF(2) of each keyed graph, enumerated directly and
    after fold reduction and splits, must agree."""
    report = VerificationReport(suite)
    for key, g in corpus:
        direct = WedgeOfSpheres(betti_over_field(g, 2).reduced_betti)
        reduced = WedgeOfSpheres(betti_of_graph(g, coeff="gf2").reduced_betti)
        report.cases.append(
            Case(key, _wedge_dict(direct), _wedge_dict(reduced), direct == reduced)
        )
    return _finish(report, started)


def verify_fold_soundness(
    samples: int = 200, seed: int = DEFAULT_SEED, max_vertices: int = 20
) -> VerificationReport:
    """Betti numbers before and after fold reduction and splits agree on a
    seeded corpus of random induced subgraphs of small grids."""
    started = time.perf_counter()
    rng = random.Random(seed)
    hosts = {n: build_gamma(n, 6) for n in range(1, 5)}

    def corpus():
        for i in range(samples):
            n = rng.randint(1, 4)
            g = hosts[n]
            size = rng.randint(0, min(max_vertices, len(g)))
            keep = sum(1 << i for i in rng.sample(range(len(g)), size))
            sub = delete_vertices(g, (1 << len(g)) - 1 ^ keep)
            yield f"sample={i:03d}:n={n}:size={size}", sub

    return _soundness("fold_soundness", corpus(), started)


def graphs_with_splits(seed: int, count: int) -> list[Graph]:
    """Seeded induced subgraphs of Γ(n, k), n <= 5 and 2 <= k <= 6, of at
    most 18 vertices and at most 3 below that bound, kept when
    reduce_with_splits makes a split move on them; most such graphs fold to
    a point or a sphere without one."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = build_gamma(rng.randint(1, 5), rng.randint(2, 6))
        top = min(18, len(g))
        keep = sum(1 << i for i in rng.sample(range(len(g)), rng.randint(max(top - 3, 0), top)))
        g = delete_vertices(g, (1 << len(g)) - 1 ^ keep)
        moves = reduce_with_splits(g).moves
        if any(isinstance(m, (LinkCone, DeletionCone)) for m in moves):
            out.append(g)
    return out


def verify_split_soundness(seed: int = DEFAULT_SEED) -> VerificationReport:
    """Betti numbers before and after fold reduction and splits agree on a
    seeded corpus of 200 graphs that each get at least one split move."""
    started = time.perf_counter()
    corpus = graphs_with_splits(seed, 200)
    return _soundness(
        "split_soundness",
        ((f"sample={i:03d}:size={len(g)}", g) for i, g in enumerate(corpus)),
        started,
    )


# Every suite takes the seed; only fold_soundness and split_soundness draw
# random inputs.
SUITES: dict[str, Callable[[int], VerificationReport]] = {
    "euler_table": lambda seed: verify_euler_table(),
    "small_homology_gf2": lambda seed: verify_small_homology(coeff="gf2"),
    "small_homology_int": lambda seed: verify_small_homology(coeff="int"),
    "splittings": lambda seed: verify_splittings(),
    "fold_soundness": lambda seed: verify_fold_soundness(seed=seed),
    "split_soundness": verify_split_soundness,
}


def run_all(seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """Every suite, in SUITES order."""
    return [suite(seed) for suite in SUITES.values()]
