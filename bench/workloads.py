"""Seeded input generators and per-job output checks for the benchmark.

Each workload is an endless stream of rounds.  Round ``r`` of a workload is
generated from ``(stream, seed, r)`` alone, so every run with one seed sees
the same prefix of the stream however long it runs, and no input repeats
within a run.  Nothing here imports ``hyperhomology``: the files written
here are the only inputs the program sees, and a change to the package
(its ``suites`` module included) cannot change them.

Every job carries a check built from facts the generator knows
independently of the program: closed-form group orders, f-vectors of the
closure and of the largest simplicial part, Euler characteristics, and
identities that every correct report satisfies.  ``run.py`` adds the
comparison with the reference recorded for the shipped seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable

# A check gets the job's ``results`` and the results of the jobs already run
# in the same round (keyed by job key), and returns a list of problems.
Check = Callable[[dict, dict], list]


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check its report must pass."""

    key: str
    argv: tuple
    check: Check


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[int, int, Path], list]
    warmup: Callable[[Path], list]
    oracle: Callable[[int, Path, Callable], list]


def _rng(stream: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{stream}:{seed}:{r}")


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _write_points_csv(path: Path, rows) -> str:
    path.write_text("".join(f"{i},{x},{y}\n" for i, (x, y) in enumerate(rows)))
    return str(path)


# ---------------------------------------------------------------- set helpers


def closure(edges) -> set:
    """All nonempty subsets of the given sorted edges."""
    out = set()
    for e in edges:
        for k in range(1, len(e) + 1):
            out.update(combinations(e, k))
    return out


def f_vector(edges, length: int) -> list:
    counts = [0] * length
    for e in edges:
        counts[len(e) - 1] += 1
    return counts


def lower_part(edges) -> set:
    """Edges whose every nonempty subset is an edge too."""
    present = set(edges)
    return {e for e in present if closure([e]) <= present}


def euler(values) -> int:
    return sum((-1) ** n * v for n, v in enumerate(values))


def strip_zeros(values) -> tuple:
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def _problem(cond: bool, message: str) -> list:
    return [] if cond else [message]


# ------------------------------------------------------------------ embedded
#
# Why: quasi-check, four-term, homology and quotient-check are the paper's
# main product path (Inf/Sup homology with a verified quasi-isomorphism).
# When the benchmark was introduced, the traced run put about 88% of the
# self time in ``linalg`` (Fraction row reduction, hundreds of
# ``solve_matrix`` calls per job).  No filtration or group code runs here.  ``embedded-zp`` runs the identical
# instance stream over Z/32003, where ``ModP`` arithmetic replaces Fraction,
# so an elimination change that helps one field and costs the other shows.

PUNCH = 0.25  # chance that a closure face is dropped: rich Inf/Sup gaps


def punched_closure(rng: random.Random, n_vertices: int, sizes, overlap: int) -> list:
    """Closure of two random edges sharing ``overlap`` vertices, less a
    random quarter of its proper faces of each size.  The two edges are
    kept and the number of faces dropped per size is fixed, so the cost of
    a job varies little between instances of the same sizes."""
    a, b = sizes
    chosen = rng.sample(range(n_vertices), a + b - overlap)
    gens = [tuple(sorted(chosen[:a])), tuple(sorted(chosen[a - overlap :]))]
    by_size = {}
    for e in sorted(closure(gens)):
        if e not in gens:
            by_size.setdefault(len(e), []).append(e)
    dropped = set()
    for faces in by_size.values():
        dropped.update(rng.sample(faces, round(PUNCH * len(faces))))
    kept = closure(gens) - dropped
    return sorted(kept, key=lambda e: (len(e), e))


def _hypergraph_json(n_vertices: int, edges) -> dict:
    return {"vertices": list(range(n_vertices)), "edges": [list(e) for e in edges]}


def _check_quasi(results, seen) -> list:
    bi, bs = results["betti_inf"], results["betti_sup"]
    return (
        _problem(results["inf_sup_iso"] is True, "inf_sup_iso is not true")
        + _problem(bi == bs == results["induced_ranks"], "Inf/Sup Betti or ranks differ")
        + _problem(
            results["betti"] == {str(n): b for n, b in enumerate(bi)},
            "betti differs from betti_inf",
        )
    )


def _check_four_term(edges, results, seen) -> list:
    top = max(len(e) for e in edges)
    dims, betti = results["stage_dims"], results["stage_betti"]
    problems = _problem(
        dims[0] == f_vector(closure(edges), top), "stage 1 dims != closure f-vector"
    )
    problems += _problem(
        dims[3] == f_vector(lower_part(edges), top),
        "stage 4 dims != f-vector of the largest simplicial part",
    )
    for k in range(4):
        problems += _problem(
            euler(dims[k]) == euler(betti[k]), f"stage {k + 1} Euler characteristic"
        )
    problems += _problem(results["surjective"] == [True] * 3, "a map is not surjective")
    simplicial = closure(edges) == set(edges)
    problems += _problem(
        results["all_identity"] is simplicial, "all_identity != simplicial"
    )
    return problems


def _check_homology(quasi_key, side, results, seen) -> list:
    quasi = seen.get(quasi_key)
    if quasi is None:
        return [f"no {quasi_key} result to compare with"]
    expected = {str(n): b for n, b in enumerate(quasi[f"betti_{side}"])}
    return _problem(results["betti"] == expected, f"betti != quasi-check betti_{side}")


def _check_contractible(results, seen) -> list:
    # two simplices glued along a common face
    betti = [results["betti"][str(n)] for n in range(len(results["betti"]))]
    return _problem(strip_zeros(betti) == (1,), "closure is not contractible")


def _check_quotient(results, seen) -> list:
    return (
        _problem(results["betti_equal"] is True, "betti_equal is not true")
        + _problem(results["q_surjective"] is True, "q_surjective is not true")
        + _problem(
            results["betti_ambient_mod_inf"] == results["betti_ambient_mod_sup"],
            "quotient Betti numbers differ",
        )
    )


def embedded_round(field: str, seed: int, r: int, workdir: Path) -> list:
    rng = _rng("embedded", seed, r)
    n_vertices = rng.randint(11, 13)
    edges = punched_closure(rng, n_vertices, (7, 8), 4)
    main = _write_json(workdir / f"e{r}.json", _hypergraph_json(n_vertices, edges))
    # quotient-check builds a full-simplex ambient, so its instances stay at
    # 8-9 vertices; 10-11 vertices take up to a minute per job.
    q8 = punched_closure(rng, 8, (5, 4), 2)
    q9 = punched_closure(rng, 9, (4, 4), 1)
    path8 = _write_json(workdir / f"q{r}a.json", _hypergraph_json(8, q8))
    path9 = _write_json(workdir / f"q{r}b.json", _hypergraph_json(9, q9))
    # Nine jobs a round, three of them quasi-checks, so that the median job
    # falls in the middle of the quasi-check group, which then holds a third
    # of the jobs.  The extra instances are drawn last, so the other inputs
    # of a round do not depend on them.
    extra = []
    for k in (2, 3):
        n_extra = rng.randint(11, 13)
        extra.append(
            _write_json(
                workdir / f"e{r}_{k}.json",
                _hypergraph_json(n_extra, punched_closure(rng, n_extra, (7, 8), 4)),
            )
        )
    fa = ("--field", field)
    quasi = f"r{r}.quasi-check"
    return [
        Job(quasi, ("quasi-check", main) + fa, _check_quasi),
        Job(f"r{r}.four-term", ("four-term", main) + fa, partial(_check_four_term, edges)),
        Job(
            f"r{r}.homology-inf",
            ("homology", "--kind", "inf", main) + fa,
            partial(_check_homology, quasi, "inf"),
        ),
        Job(
            f"r{r}.homology-sup",
            ("homology", "--kind", "sup", main) + fa,
            partial(_check_homology, quasi, "sup"),
        ),
        Job(f"r{r}.homology-ambient", ("homology", "--kind", "ambient", main) + fa, _check_contractible),
        Job(f"r{r}.quotient-8", ("quotient-check", path8) + fa, _check_quotient),
        Job(f"r{r}.quotient-9", ("quotient-check", path9) + fa, _check_quotient),
        Job(f"r{r}.quasi-check-2", ("quasi-check", extra[0]) + fa, _check_quasi),
        Job(f"r{r}.quasi-check-3", ("quasi-check", extra[1]) + fa, _check_quasi),
    ]


def embedded_warmup(field: str, workdir: Path) -> list:
    path = _write_json(workdir / "warm.json", {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [0, 1, 2], [2, 3]]})
    fa = ("--field", field)
    return [
        Job("warm." + cmd[0], cmd + (path,) + fa, lambda res, seen: [])
        for cmd in (("quasi-check",), ("four-term",), ("homology",), ("quotient-check",))
    ]


def _check_simplicial(simplicial_betti, edges, results, seen) -> list:
    got = [results["betti"][str(n)] for n in range(len(results["betti"]))]
    return _problem(
        strip_zeros(got) == strip_zeros(simplicial_betti(edges)),
        "Betti numbers differ from the dense oracle",
    )


def embedded_oracle(field: str, seed: int, workdir: Path, simplicial_betti) -> list:
    """Small simplicial instances, checked against the dense Fraction oracle."""
    rng = _rng("embedded-oracle", seed, 0)
    triangles, pairs = list(combinations(range(7), 3)), list(combinations(range(7), 2))
    jobs = []
    for k in range(2):
        edges = closure(rng.sample(triangles, 8) + rng.sample(pairs, 4))
        edges = sorted(edges, key=lambda e: (len(e), e))
        path = _write_json(workdir / f"oracle{k}.json", _hypergraph_json(7, edges))
        for kind in ("inf", "ambient"):
            jobs.append(
                Job(
                    f"oracle{k}.{kind}",
                    ("homology", "--kind", kind, path, "--field", field),
                    partial(_check_simplicial, simplicial_betti, edges),
                )
            )
    return jobs


# --------------------------------------------------------------- persistence
#
# Why: the rank problems of persistent_betti and induced_homology_rank
# dominate here; when the benchmark was introduced, the traced run put about
# 85% of the self time in ``linalg`` and under 12% in building the
# filtration.  The chains and linalg layers are used differently from the
# embedded workloads: many small nested problems share one ambient complex.
# No group code runs here.

N_MAX = 3


def random_rational_points(rng: random.Random, count: int) -> list:
    while True:
        rows = [
            tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 8)) for _ in range(2))
            for _ in range(count)
        ]
        if len(set(rows)) == count:
            return rows


def squared_distances(rows) -> list:
    return [
        (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 for a, b in combinations(rows, 2)
    ]


def _check_persist(n_points, n_distances, barcode, results, seen) -> list:
    steps = results["betti_by_step"]
    problems = _problem(results["kind"] == "inf", "kind is not inf")
    problems += _problem(
        len(steps) == n_distances + 1, "step count != distinct distances + 1"
    )
    if problems:
        return problems
    problems += _problem(strip_zeros(steps[0]) == (n_points,), "first step is not discrete")
    # radius 0: the full 2-skeleton of the simplex on the sample
    full = strip_zeros((1, 0, math.comb(n_points - 1, 3)))
    problems += _problem(strip_zeros(steps[-1]) == full, "last step is not the 2-skeleton")
    pairs = len(steps) * (len(steps) - 1) // 2 if barcode else len(steps) - 1
    problems += _problem(len(results["entries"]) == 2 * pairs, "wrong number of ranks")

    def beta(k, d):
        return steps[k][d] if d < len(steps[k]) else 0

    for d, i, j, rank in results["entries"]:
        if not (0 <= rank <= min(beta(i, d), beta(j, d))) or j <= i:
            problems.append(f"bad rank entry {(d, i, j, rank)}")
            break
    if barcode:
        for k in range(len(steps)):
            for d in (0, 1):
                alive = sum(
                    1
                    for bar in results["barcode"]
                    if bar["degree"] == d
                    and bar["born_step"] <= k
                    and (bar["dies_step"] is None or bar["dies_step"] > k)
                )
                if alive != beta(k, d):
                    problems.append(f"bars alive at step {k} != betti in degree {d}")
                    return problems
    return problems


def _persist_job(key, path, rows, barcode) -> Job:
    argv = ("persist", path, "--n-max", str(N_MAX), "--format", "json")
    if barcode:
        argv += ("--barcode",)
    n_distances = len(set(squared_distances(rows)))
    return Job(key, argv, partial(_check_persist, len(rows), n_distances, barcode))


def persistence_round(seed: int, r: int, workdir: Path) -> list:
    rng = _rng("persistence", seed, r)
    jobs = []
    # five jobs a round, so that the median job falls inside the 11-point
    # group rather than between two sizes
    for k, n in enumerate((10, 11, 11, 12)):
        rows = random_rational_points(rng, n)
        path = _write_points_csv(workdir / f"p{r}_{k}.csv", rows)
        jobs.append(_persist_job(f"r{r}.persist-{k}-{n}", path, rows, False))
    rows = random_rational_points(rng, 8)
    path = _write_points_csv(workdir / f"p{r}_bar.csv", rows)
    jobs.append(_persist_job(f"r{r}.barcode-8", path, rows, True))
    return jobs


def persistence_warmup(workdir: Path) -> list:
    rows = [(0, 0), (3, 0), (0, 4), (5, 5)]
    path = _write_points_csv(workdir / "warm.csv", rows)
    return [_persist_job("warm.persist", path, rows, False), _persist_job("warm.barcode", path, rows, True)]


def clique_complex(rows, threshold) -> set:
    """Subsets of at most N_MAX points whose pairwise squared distances are
    all at least ``threshold``."""
    n = len(rows)
    far = {
        (i, j)
        for i, j in combinations(range(n), 2)
        if (rows[i][0] - rows[j][0]) ** 2 + (rows[i][1] - rows[j][1]) ** 2 >= threshold
    }
    return {
        s
        for k in range(1, N_MAX + 1)
        for s in combinations(range(n), k)
        if all(p in far for p in combinations(s, 2))
    }


def _check_persist_oracle(simplicial_betti, rows, results, seen) -> list:
    problems = _check_persist(len(rows), len(set(squared_distances(rows))), False, results, seen)
    if problems:
        return problems
    # step k holds the pairs at the k largest distinct distances; the last
    # step holds every pair
    distinct = sorted(set(squared_distances(rows)), reverse=True)
    thresholds = [math.inf] + distinct
    for k, threshold in enumerate(thresholds):
        expected = strip_zeros(simplicial_betti(clique_complex(rows, threshold)))
        if strip_zeros(results["betti_by_step"][k]) != expected:
            return [f"step {k} Betti numbers differ from the dense oracle"]
    return []


def persistence_oracle(seed: int, workdir: Path, simplicial_betti) -> list:
    rng = _rng("persistence-oracle", seed, 0)
    rows = random_rational_points(rng, 7)
    path = _write_points_csv(workdir / "oracle.csv", rows)
    argv = ("persist", path, "--n-max", str(N_MAX), "--format", "json")
    return [Job("oracle.persist-7", argv, partial(_check_persist_oracle, simplicial_betti, rows))]


# ------------------------------------------------------------------ symmetry
#
# Why: the time here is backtracking search, the O(|G|^2) closure check in
# ``verify`` and ``is_normal_in``, and the n! loop of ``isom_group``.  It
# makes no linalg, chains or filtration calls, so it is the no-change control
# for changes there, and the other workloads are its control.  Group orders
# are known and moderate.  Left out on purpose, because each would become
# the whole run: the 6-vertex edgeless hypergraph (about 20 s), three disjoint
# triangles (about 26 s, 4M compositions) and K_{4,4} (about 15 s).
#
# A round has fourteen jobs in three tiers of cost: four under 0.2 s, seven
# of 0.2-0.5 s and three of 1-1.5 s (two isom jobs on 8-point circles and
# one on 8 random points), so that the median falls in the middle of the
# second tier and the tail percentile in the middle of the third.  C_10 is
# left out because the random labels move its search time between 0.04 and
# 0.8 s; C_8 and the 6-point circle, because more jobs in the first tier
# would move the median to the tier's edge.


def _relabel(rng: random.Random, n: int, edges) -> dict:
    perm = list(range(n))
    rng.shuffle(perm)
    return {
        "vertices": list(range(n)),
        "edges": [sorted(perm[v] for v in e) for e in edges],
    }


def cycle_edges(n: int) -> list:
    return [(i, (i + 1) % n) for i in range(n)]


PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
)
CUBE = [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]
TWO_TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]


def _check_orders(expected, results, seen) -> list:
    got = (results["homeo_order"], results["stab_order"], results["aut_order"])
    return _problem(got == expected, f"orders {got} != closed form {expected}")


def _check_isom_order(expected, results, seen) -> list:
    return _problem(results["isom_order"] == expected, f"isom order != {expected}")


def _check_aut_isom(expected, results, seen) -> list:
    rep = results["aut_isom"]
    problems = _problem(
        rep["stab_isom_normal_in_isom_h"] is True and rep["aut_isom_subgroup_of_aut"] is True,
        "subgroup flags are not true",
    )
    problems += _problem(rep["isom_order"] == results["isom_order"], "isom orders differ")
    problems += _problem(
        results["isom_order"] % rep["isom_h_order"] == 0
        and rep["isom_h_order"] % rep["stab_isom_order"] == 0
        and rep["aut_isom_order"] * rep["stab_isom_order"] == rep["isom_h_order"],
        "orders break Lagrange",
    )
    if expected is not None:
        got = (rep["isom_order"], rep["isom_h_order"], rep["stab_isom_order"], rep["aut_isom_order"])
        problems += _problem(got == expected, f"orders {got} != closed form {expected}")
    return problems


def _circle_json(rng: random.Random, n: int) -> tuple:
    """n evenly spaced points under a random rotation and random labels."""
    offset = Fraction(rng.randint(0, 999), 1000)
    ids = list(range(n))
    rng.shuffle(ids)
    angles = [str((Fraction(2 * k, n) + offset) % 2) for k in range(n)]
    return {"ids": ids, "circle_angles_over_pi": angles}, ids


def random_integer_points(rng: random.Random, count: int) -> list:
    while True:
        rows = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(count)]
        if len(set(rows)) == count:
            return rows


def symmetry_round(seed: int, r: int, workdir: Path) -> list:
    rng = _rng("symmetry", seed, r)
    jobs = []

    def aut(name, n, edges, expected):
        path = _write_json(workdir / f"s{r}_{name}.json", _relabel(rng, n, edges))
        jobs.append(Job(f"r{r}.aut-{name}", ("aut", path), partial(_check_orders, expected)))

    aut("C9", 9, cycle_edges(9), (18, 1, 18))
    aut("petersen", 10, PETERSEN, (120, 1, 120))
    aut("cube", 8, CUBE, (48, 1, 48))
    for isolated in (1, 2):
        f = math.factorial(isolated)
        aut(f"triangles{isolated}", 6 + isolated, TWO_TRIANGLES, (72 * f, f, 72))
    aut("edgeless5", 5, [], (120, 120, 1))

    for name, n in (("circle7", 7), ("circle8", 8), ("circle8-2", 8)):
        data, _ = _circle_json(rng, n)
        path = _write_json(workdir / f"s{r}_{name}.json", data)
        jobs.append(Job(f"r{r}.isom-{name}", ("isom", path), partial(_check_isom_order, 2 * n)))
    for k in ("", "-2"):
        # the 7-cycle drawn along the circle: its isometric automorphisms are D_7
        data, ids = _circle_json(rng, 7)
        path = _write_json(workdir / f"s{r}_circleh{k}.json", data)
        along = [(ids[i], ids[(i + 1) % 7]) for i in range(7)]
        hpath = _write_json(
            workdir / f"s{r}_circleh{k}_h.json",
            {"vertices": list(range(7)), "edges": [sorted(e) for e in along]},
        )
        jobs.append(
            Job(
                f"r{r}.isom-circle7-h{k}",
                ("isom", path, "--hypergraph", hpath),
                partial(_check_aut_isom, (14, 14, 1, 14)),
            )
        )
    for k in ("", "-2"):
        rows = random_integer_points(rng, 7)
        path = _write_points_csv(workdir / f"s{r}_rand7{k}.csv", rows)
        pairs = list(combinations(range(7), 2)) + list(combinations(range(7), 3))
        edges = sorted(rng.sample(pairs, 6), key=lambda e: (len(e), e))
        hpath = _write_json(workdir / f"s{r}_rand7{k}_h.json", _hypergraph_json(7, edges))
        jobs.append(
            Job(
                f"r{r}.isom-rand7-h{k}",
                ("isom", path, "--hypergraph", hpath),
                partial(_check_aut_isom, None),
            )
        )
    rows = random_integer_points(rng, 8)
    path = _write_points_csv(workdir / f"s{r}_rand8.csv", rows)
    jobs.append(Job(f"r{r}.isom-rand8", ("isom", path), lambda res, seen: []))
    return jobs


def symmetry_warmup(workdir: Path) -> list:
    h = _write_json(workdir / "warm.json", {"vertices": [0, 1, 2, 3], "edges": cycle_edges(4)})
    c = _write_json(workdir / "warm_circle.json", {"circle_angles_over_pi": ["0", "1/2", "1", "3/2"]})
    return [
        Job("warm.aut", ("aut", h), partial(_check_orders, (8, 1, 8))),
        Job("warm.isom", ("isom", c, "--hypergraph", h), partial(_check_aut_isom, (8, 8, 1, 8))),
    ]


def no_oracle(seed: int, workdir: Path, simplicial_betti) -> list:
    return []


WORKLOADS = {
    "embedded-q": Workload(
        partial(embedded_round, "Q"),
        partial(embedded_warmup, "Q"),
        partial(embedded_oracle, "Q"),
    ),
    "embedded-zp": Workload(
        partial(embedded_round, "32003"),
        partial(embedded_warmup, "32003"),
        partial(embedded_oracle, "32003"),
    ),
    "persistence": Workload(
        persistence_round,
        persistence_warmup,
        persistence_oracle,
    ),
    "symmetry": Workload(
        symmetry_round,
        symmetry_warmup,
        no_oracle,
    ),
}
