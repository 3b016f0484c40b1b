"""Seeded randomized verification suites.

Each suite re-checks one of the verified identities on a batch of random
instances and reports failures with a reproducible certificate.  The CLI
`selftest` command runs all of them; the acceptance tests call the same
functions and add independent oracles on top.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from . import bundles
from .chains import (
    _inf_and_sup,
    ambient_complex,
    delta_identity_check,
    face_table,
    inf_complex,
    sup_complex,
)
from .linalg import SparseMatrix
from .filtration import build_filtration, emptiness_threshold, persistent_betti
from .groups import aut_group, homeo_group, pi_surjection_check, stab_group
from .homology import (
    betti,
    four_term_sequence,
    hodge_laplacian,
    invariant_dimension,
    quotient_complex,
    quotient_pair_check,
    verify_quasi_iso_theta,
)
from .hypergraphs import (
    Hypergraph,
    delta_closure,
    hypergraph,
    hyperdigraph,
    is_sigma_invariant,
    lift,
    project,
    sheet_counts_ok,
)
from .jsonio import hypergraph_to_json
from .metrics import PiValue, circle_sample, euclidean_sample, evenly_spaced_circle_sample, hard_sphere


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, certificate):
        self.failures.append(certificate)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": self.failures[:5],
            "details": self.details,
        }


def _random_edges(rng, vertices, max_card, ordered):
    n_edges = rng.randint(1, 2 * len(vertices))
    edges = set()
    for _ in range(n_edges):
        card = rng.randint(1, min(max_card, len(vertices)))
        chosen = rng.sample(vertices, card)
        edges.add(tuple(chosen) if ordered else tuple(sorted(chosen)))
    return edges


def _punch_holes(rng, h):
    """Drop a few edges from the closure: dense instances with rich Inf/Sup."""
    closed = sorted(delta_closure(h).edges)
    keep = [e for e in closed if rng.random() > 0.25]
    if not keep:
        keep = closed[:1]
    return keep


def random_hypergraph(
    rng: random.Random,
    min_vertices: int = 3,
    max_vertices: int = 8,
    max_card: int = 5,
) -> Hypergraph:
    """Random hypergraph with varied density (possibly empty levels)."""
    n_vertices = rng.randint(min_vertices, max_vertices)
    vertices = list(range(n_vertices))
    edges = _random_edges(rng, vertices, max_card, ordered=False)
    h = hypergraph(edges, vertices=vertices)
    if rng.random() < 0.4:
        h = hypergraph(_punch_holes(rng, h), vertices=vertices)
    return h


def random_hyperdigraph(
    rng: random.Random,
    min_vertices: int = 3,
    max_vertices: int = 8,
    max_card: int = 5,
) -> Hypergraph:
    n_vertices = rng.randint(min_vertices, max_vertices)
    vertices = list(range(n_vertices))
    edges = _random_edges(rng, vertices, max_card, ordered=True)
    h = hyperdigraph(edges, vertices=vertices)
    if rng.random() < 0.4:
        h = hyperdigraph(_punch_holes(rng, h), vertices=vertices)
    return h


def random_simplicial_complex(rng: random.Random, **kwargs) -> Hypergraph:
    return delta_closure(random_hypergraph(rng, **kwargs))


def random_euclidean_sample(rng: random.Random, count: int, dim: int = 2):
    while True:
        rows = [
            tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 8)) for _ in range(dim))
            for _ in range(count)
        ]
        if len(set(rows)) == count:
            return euclidean_sample(rows)


def group_tables_suite() -> SuiteResult:
    """Fixed four-vertex fixtures with known (|Homeo|, |Stab|, |Aut|)."""
    result = SuiteResult("group_tables")
    fixtures = [
        (hypergraph([[1, 2], [0, 2], [0, 1], [0, 1, 2]], vertices=range(4)), (6, 1, 6)),
        (hypergraph([[0, 1], [2, 3]]), (8, 4, 2)),
        (hypergraph([[0, 1]], vertices=range(4)), (4, 4, 1)),
        (hypergraph([[0, 1, 2], [1, 2, 3]]), (4, 2, 2)),
    ]
    for k, (h, expected) in enumerate(fixtures, start=1):
        got = (homeo_group(h).order, stab_group(h).order, aut_group(h).order)
        result.checks += 1
        if got != expected:
            result.fail({"case": k, "expected": expected, "got": got})
    return result


def quasi_iso_suite(
    seed: int, hypergraphs: int = 200, hyperdigraphs: int = 100
) -> SuiteResult:
    """Inf/Sup Betti equality and inclusion-induced isomorphism, randomized."""
    result = SuiteResult("quasi_iso")
    rng = random.Random(seed)
    instances = [random_hypergraph(rng) for _ in range(hypergraphs)]
    instances += [random_hyperdigraph(rng) for _ in range(hyperdigraphs)]
    for h in instances:
        report = verify_quasi_iso_theta(h)
        result.checks += 1
        if not report.is_iso:
            result.fail({"instance": hypergraph_to_json(h), "report": report.as_dict()})
    return result


def simplicial_identity_suite(seed: int, count: int = 50) -> SuiteResult:
    """On simplicial complexes Inf, Sup and the ambient chains coincide."""
    result = SuiteResult("simplicial_identity")
    rng = random.Random(seed)
    for _ in range(count):
        h = random_simplicial_complex(rng, max_vertices=7, max_card=4)
        ambient = ambient_complex(h, "closure")
        inf, sup = _inf_and_sup(h, ambient.field, ambient)
        result.checks += 1
        same_rep = (
            inf.complex.dims == sup.complex.dims == ambient.dims
            and all(
                inf.embeddings[n] == sup.embeddings[n]
                and inf.embeddings[n]
                == SparseMatrix.identity(ambient.field, ambient.dims[n])
                for n in range(len(ambient.dims))
            )
            and all(
                inf.complex.boundaries[n] == ambient.boundaries[n]
                and sup.complex.boundaries[n] == ambient.boundaries[n]
                for n in range(len(ambient.dims))
            )
        )
        four = four_term_sequence(h)
        if not (same_rep and four.all_identity):
            result.fail(
                {
                    "instance": hypergraph_to_json(h),
                    "same_representation": same_rep,
                    "four_term_identity": four.all_identity,
                }
            )
    return result


def quotient_suite(seed: int, count: int = 30) -> SuiteResult:
    """Equal homology of ambient/Sup and ambient/Inf, with q surjective; each
    Betti row is also read off the quotient complex of the full simplex."""
    result = SuiteResult("quotient_quasi_iso")
    rng = random.Random(seed)
    for _ in range(count):
        h = random_hypergraph(rng, min_vertices=3, max_vertices=6, max_card=4)
        report = quotient_pair_check(h)
        ambient = ambient_complex(h, "full_simplex")
        inf, sup = _inf_and_sup(h, ambient.field, ambient)
        quotients = [betti(quotient_complex(ambient, w.embeddings).complex).betti for w in (sup, inf)]
        result.checks += 1
        rows = [report.betti_by_sup, report.betti_by_inf]
        if not (report.betti_equal and report.q_surjective and rows == quotients):
            result.fail({"instance": hypergraph_to_json(h), "report": report.as_dict()})
    return result


def covering_suite(seed: int, count: int = 50) -> SuiteResult:
    """Lift is sigma-invariant with factorial sheet counts; projections lift."""
    result = SuiteResult("covering_sheets")
    rng = random.Random(seed)
    for k in range(count):
        h = random_hypergraph(rng, min_vertices=3, max_vertices=6, max_card=4)
        up = lift(h)
        result.checks += 1
        ok = (
            is_sigma_invariant(up)
            and sheet_counts_ok(up)
            and project(up).edges == h.edges
        )
        if ok and len(h.vertices) <= 5:
            ok = pi_surjection_check(up)
            ok = ok and invariant_dimension(up, max(len(e) for e in up.edges)) == len(
                h.level(max(len(e) for e in up.edges))
            )
        if not ok:
            result.fail({"instance": hypergraph_to_json(h)})
    return result


def circle_suite(seed: int) -> SuiteResult:
    """Hard-sphere emptiness on circle samples at and beyond pi/n."""
    result = SuiteResult("circle_emptiness")
    rng = random.Random(seed)
    twelve = evenly_spaced_circle_sample(12)

    result.checks += 1
    third = PiValue(Fraction(1, 3))
    just_below = math.pi / 3 - 1e-6
    nonempty = hard_sphere(twelve, just_below, 3).level(3)
    empty = hard_sphere(twelve, third, 3).level(3)
    if not nonempty or empty:
        result.fail({"case": "twelve-points-level-3 boundary"})
    result.checks += 1
    if emptiness_threshold(twelve, 3) != third:
        result.fail({"case": "twelve-points threshold"})

    for _ in range(10):
        npts = rng.randint(3, 9)
        exact = rng.random() < 0.5
        if exact:
            angles = rng.sample(
                [Fraction(k, 24) for k in range(48)], npts
            )
            sample = circle_sample(angles)
        else:
            sample = circle_sample(
                radians=sorted(rng.uniform(0, 2 * math.pi) for _ in range(npts))
            )
        for n in range(2, min(5, npts) + 1):
            result.checks += 1
            radius = PiValue(Fraction(1, n)) if exact else math.pi / n
            level = hard_sphere(sample, radius, n).level(n)
            threshold = emptiness_threshold(sample, n)
            if level or float(threshold) > math.pi / n + 1e-12:
                result.fail({"points": npts, "n": n, "exact": exact})
    return result


def persistence_suite(seed: int, samples: int = 20) -> SuiteResult:
    """Triangle fixture plus rank monotonicity on random point samples."""
    result = SuiteResult("persistence")
    rng = random.Random(seed)

    from .metrics import distance_matrix_sample

    side = 2
    triangle = distance_matrix_sample(
        [[0, side, side], [side, 0, side], [side, side, 0]]
    )
    steps = build_filtration(triangle, 2)
    table = persistent_betti(steps, [0, 1], "inf", all_pairs=True)
    result.checks += 1
    ok = (
        table.betti_by_step[0][0] == 3
        and table.betti_by_step[1][0] == 1
        and table.rank(0, 0, 1) == 1
        and table.betti_by_step[0][1] == 0
        and table.betti_by_step[1][1] == 1
        and table.rank(1, 0, 1) == 0
    )
    if not ok:
        result.fail({"case": "equilateral triangle", "table": table.betti_by_step})

    for _ in range(samples):
        sample = random_euclidean_sample(rng, 5)
        steps = build_filtration(sample, 3)
        table = persistent_betti(steps, [0, 1], "inf", all_pairs=True)
        count = len(steps)
        result.checks += 1
        ranks = {}
        for d in (0, 1):
            for i in range(count):
                for j in range(i, count):
                    ranks[(d, i, j)] = table.rank(d, i, j)
        ok = True
        for d in (0, 1):
            for i in range(count):
                for j in range(i, count):
                    # rank through an intermediate step cannot exceed either leg
                    for k in range(j, count):
                        if ranks[(d, i, k)] > min(ranks[(d, i, j)], ranks[(d, j, k)]):
                            ok = False
                    # shrinking the interval can only increase the rank
                    if i + 1 <= j and ranks[(d, i, j)] > ranks[(d, i + 1, j)]:
                        ok = False
                    if i <= j - 1 and ranks[(d, i, j)] > ranks[(d, i, j - 1)]:
                        ok = False
        if not ok:
            result.fail({"sample": "random-5pt", "betti": table.betti_by_step})
    return result


def laplacian_suite(seed: int, count: int = 50) -> SuiteResult:
    """Harmonic rank of the Hodge Laplacian equals the Betti number."""
    result = SuiteResult("laplacian")
    rng = random.Random(seed)
    for k in range(count):
        h = (
            random_hypergraph(rng, max_vertices=6, max_card=4)
            if k % 2 == 0
            else random_hyperdigraph(rng, max_vertices=5, max_card=3)
        )
        embedded = inf_complex(h) if k % 3 == 0 else sup_complex(h)
        numbers = betti(embedded).betti
        result.checks += 1
        for n, expected in enumerate(numbers):
            _, harmonic = hodge_laplacian(embedded.complex, n)
            if harmonic != expected:
                result.fail({"instance": hypergraph_to_json(h), "degree": n})
                break
    return result


def bundle_suite() -> SuiteResult:
    """Frozen arithmetic values plus monotonicity/divisibility invariants."""
    result = SuiteResult("bundle_arithmetic")
    checks = [
        (bundles.rho(0), 0),
        (bundles.rho(4), 3),
        (bundles.rho(10), 6),
        (bundles.a_coeff(2, 2), 2),
        (bundles.a_coeff(3, 3), 12),
        (bundles.a_coeff(4, 5), 60),
        (bundles.order_bound(bundles.Surface(2), 5).bound, 4),
        (bundles.order_bound(bundles.Surface(1), 4).bound, 4),
        (bundles.order_bound(bundles.Euclidean(3), 3).bound, 12),
        (bundles.order_bound(bundles.Sphere(2), 2).bound, 4),
        (bundles.embedding_dimension_bound(2, 2), 4),
    ]
    for got, expected in checks:
        result.checks += 1
        if got != expected:
            result.fail({"got": got, "expected": expected})
    for k in range(0, 40):
        result.checks += 1
        if bundles.rho(k + 8) != bundles.rho(k) + 4 or (
            k and bundles.rho(k) < bundles.rho(k - 1)
        ):
            result.fail({"rho_at": k})
    for m in range(1, 13):
        for n in range(1, 13):
            result.checks += 1
            if bundles.a_coeff(m + 1, n) % bundles.a_coeff(m, n) != 0:
                result.fail({"divisibility_m": (m, n)})
            if bundles.a_coeff(m, n + 1) % bundles.a_coeff(m, n) != 0:
                result.fail({"divisibility_n": (m, n)})
    for n in range(1, 8):
        result.checks += 1
        if bundles.order_bound(bundles.Euclidean(1), n).bound != 1:
            result.fail({"line_bound_n": n})
    return result


def structural_suite(seed: int, fuzz_elements: int = 1000) -> SuiteResult:
    """Boundary-squared, ambient independence, and face-map identity fuzz."""
    result = SuiteResult("structural")
    rng = random.Random(seed)

    # ambient independence of Inf/Sup Betti numbers
    for _ in range(15):
        h = random_hypergraph(rng, min_vertices=3, max_vertices=6, max_card=4)
        closure_amb = ambient_complex(h, "closure")
        padded = hypergraph(
            h.sorted_edges(), vertices=set(h.vertices) | {max(h.vertices) + 1}
        )
        simplex_amb = ambient_complex(
            padded, "full_simplex", max_degree=closure_amb.top_degree
        )
        result.checks += 1
        inf, sup = _inf_and_sup(h, closure_amb.field, closure_amb)
        padded_inf, padded_sup = _inf_and_sup(padded, simplex_amb.field, simplex_amb)
        same = (
            betti(inf).betti == betti(padded_inf).betti
            and betti(sup).betti == betti(padded_sup).betti
        )
        if not same:
            result.fail({"instance": hypergraph_to_json(h), "case": "ambient independence"})
        closure_amb.validate()
        simplex_amb.validate()

    # face-map identity fuzz over closed random bases
    total = 0
    while total < fuzz_elements:
        directed = rng.random() < 0.5
        h = (
            random_hyperdigraph(rng, max_vertices=6, max_card=4)
            if directed
            else random_hypergraph(rng, max_vertices=7, max_card=5)
        )
        closed = delta_closure(h)
        table = face_table(closed)
        total += len(closed.edges)
        result.checks += 1
        if not delta_identity_check(table):
            result.fail({"instance": hypergraph_to_json(h), "case": "delta identity"})
        # a corrupted face entry must be detected
        corruptible = sorted(e for e in table if len(e) >= 3)
        if corruptible:
            e = rng.choice(corruptible)
            faces = list(table[e])
            broken = dict(table)
            broken[e] = tuple([faces[1]] + faces[1:])
            result.checks += 1
            if delta_identity_check(broken):
                result.fail({"instance": hypergraph_to_json(h), "case": "corruption missed"})
    result.details["fuzzed_elements"] = total
    return result


def run_all(seed: int = 2024) -> list[SuiteResult]:
    """Run every suite, recording each one's wall time in ``seconds``."""
    suites = [
        group_tables_suite,
        partial(quasi_iso_suite, seed),
        partial(simplicial_identity_suite, seed + 1),
        partial(quotient_suite, seed + 2),
        partial(covering_suite, seed + 3),
        partial(circle_suite, seed + 4),
        partial(persistence_suite, seed + 5),
        partial(laplacian_suite, seed + 6),
        bundle_suite,
        partial(structural_suite, seed + 7),
    ]
    results = []
    for suite in suites:
        start = time.perf_counter()
        result = suite()
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results

