import itertools
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from indcomplex.faces import BYTES_PER_FACE
from indcomplex.graphs import Graph, build_gamma, delete_vertices, graph_to_json_dict
from indcomplex.verify import graphs_with_splits  # noqa: F401  (re-exported for the tests)


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, of g in ascending order, as its JSON lists them."""
    return [(a, b) for a, b in graph_to_json_dict(g)["edges"]]


def brute_force_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """Oracle: check every vertex subset directly against the edge set."""
    out = []
    n = len(g.vertices)
    edges = set(edge_list(g))
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            if all((a, b) not in edges for a, b in itertools.combinations(subset, 2)):
                out.append(subset)
    return sorted(out)


def chi_on_its_line(sweep: list[int], q: int, n: int) -> int:
    """chi(n) on the line through sweep's terms n0 and n0 + q, the two from
    n = 200 on in n's class mod q (1-based), for a width whose chi is linear
    in n on each class mod q."""
    n0 = 200 + (n - 200) % q
    lo, hi = sweep[n0 - 1], sweep[n0 + q - 1]
    return lo + (n - n0) // q * (hi - lo)


def random_grid_subgraph(rng: random.Random, max_n: int = 4, max_vertices: int = 20) -> Graph:
    n = rng.randint(1, max_n)
    g = build_gamma(n, 6)
    size = rng.randint(0, min(max_vertices, len(g)))
    keep = sum(1 << i for i in rng.sample(range(len(g)), size))
    return delete_vertices(g, (1 << len(g)) - 1 ^ keep)


def shift_columns(g: Graph, dx: int) -> list[tuple[int, int]]:
    return [(x + dx, y) for x, y in g.vertices]


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union realized by shifting g2 past g1 in the x direction."""
    dx = (max((x for x, _ in g1.vertices), default=0)
          - min((x for x, _ in g2.vertices), default=0) + 1)
    verts = list(g1.vertices) + shift_columns(g2, dx)
    n1 = len(g1.vertices)
    edges = edge_list(g1) + [(a + n1, b + n1) for a, b in edge_list(g2)]
    return Graph(verts, edges)


# The 6-vertex triangulation of the real projective plane (RP^2_6).
RP2_TRIANGLES = [
    (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
]


def flag_rp2() -> Graph:
    """A 31-vertex graph whose independence complex is a flag RP^2.

    Vertices are the simplices of RP^2_6 and two are adjacent when neither
    contains the other, so the independent sets are the chains of simplices:
    I(G) is the barycentric subdivision of RP^2_6.
    """
    simplices = sorted(
        {c for t in RP2_TRIANGLES for r in (1, 2, 3) for c in itertools.combinations(t, r)},
        key=lambda c: (len(c), c),
    )
    edges = [
        (i, j)
        for (i, a), (j, b) in itertools.combinations(enumerate(simplices), 2)
        if not set(a) <= set(b)  # a is listed first, so it is no larger than b
    ]
    return Graph([(len(c), i) for i, c in enumerate(simplices)], edges)


@pytest.fixture
def rng():
    return random.Random(987123)


@pytest.fixture
def face_budget_of(monkeypatch):
    """Call with a face count to make the address space hold exactly that many
    faces at BYTES_PER_FACE for one test; it lowers every other guard too."""

    def set_budget(faces: int) -> None:
        monkeypatch.setattr("indcomplex.graphs.address_space", lambda: faces * BYTES_PER_FACE)

    return set_budget


def run_capped(args: list[str], address_space: int, timeout: float = 300):
    """Run `python args...` with the package importable, in a child process
    whose address space (RLIMIT_AS) is capped at `address_space` bytes."""

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap,
        timeout=timeout,
    )
