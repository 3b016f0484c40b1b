import math
import runpy
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hyperhomology import filtration, linalg
from hyperhomology.chains import ambient_complex, inf_complex, sup_complex
from hyperhomology.fields import QQ, PrimeField
from hyperhomology.filtration import (
    FiltrationStep,
    PersistentBettiTable,
    build_filtration,
    emptiness_threshold,
    persistent_betti,
)
from hyperhomology.homology import induced_homology_rank
from hyperhomology.errors import InvariantViolation
from hyperhomology.hypergraphs import (
    Hypergraph,
    delta_closure,
    is_sigma_invariant,
    is_simplicial,
    lift,
    project,
)
from hyperhomology.linalg import SparseMatrix
from hyperhomology.metrics import (
    PiValue,
    circle_sample,
    distance_matrix_sample,
    euclidean_sample,
    evenly_spaced_circle_sample,
    SqrtValue,
    exact_sqrt,
    hard_sphere,
)

from oracles import (
    dense_induced_rank,
    emptiness_threshold_by_subsets,
    flag_levels,
    homology_bars,
    pairwise_persistence,
    permuted_closure,
    persistence_csv,
    sparse_to_dense,
    tuple_simplex_basis,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DEMO = SCRIPTS / "hard_sphere_persistence_demo.py"


def equilateral(side=2):
    return distance_matrix_sample(
        [[0, side, side], [side, 0, side], [side, side, 0]]
    )


def test_two_point_filtration():
    steps = build_filtration(euclidean_sample([(0,), (2,)]), 2)
    assert len(steps) == 2
    assert steps[0].hypergraph.edges == frozenset({(0,), (1,)})
    assert steps[1].hypergraph.edges == frozenset({(0,), (1,), (0, 1)})
    assert steps[0].lower == 1 and steps[0].upper == math.inf


def test_single_point_filtration():
    steps = build_filtration(euclidean_sample([(0, 0)]), 3)
    assert len(steps) == 1
    assert steps[0].hypergraph.edges == frozenset({(0,)})


def test_triangle_two_steps_and_threshold():
    steps = build_filtration(equilateral(side=2), 3)
    assert len(steps) == 2
    below = steps[1].hypergraph
    assert len(below.level(2)) == 3 and len(below.level(3)) == 1


def test_steps_are_nested_and_ordered_by_decreasing_radius():
    sample = euclidean_sample([(0, 0), (3, 1), (1, 4), (5, 5), (2, 2)])
    steps = build_filtration(sample, 3)
    for a, b in zip(steps, steps[1:]):
        assert float(a.representative) > float(b.representative)
        assert a.hypergraph.edges <= b.hypergraph.edges
        up = lift(b.hypergraph)
        assert is_sigma_invariant(up)
        assert project(up).edges == b.hypergraph.edges


def test_persistent_betti_triangle():
    steps = build_filtration(equilateral(), 2)
    table = persistent_betti(steps, [0, 1], "inf", all_pairs=True)
    assert table.betti_by_step == ((3, 0), (1, 1))
    assert table.rank(0, 0, 1) == 1  # three components merge into one
    assert table.rank(1, 0, 1) == 0  # the cycle is born later
    assert table.rank(0, 0, 0) == 3


def test_persistent_betti_inf_equals_sup_pointwise():
    sample = euclidean_sample([(0, 0), (2, 0), (1, 2), (3, 3)])
    steps = build_filtration(sample, 3)
    t_inf = persistent_betti(steps, [0, 1], "inf")
    t_sup = persistent_betti(steps, [0, 1], "sup")
    assert t_inf.betti_by_step == t_sup.betti_by_step


def test_single_step_table_equals_plain_betti():
    steps = build_filtration(euclidean_sample([(0,), (2,)]), 2)[:1]
    table = persistent_betti(steps, [0], "inf", all_pairs=True)
    assert table.entries == ()
    assert table.rank(0, 0, 0) == 2


def test_persistent_betti_rejects_non_nested():
    steps = build_filtration(equilateral(), 2)
    with pytest.raises(ValueError):
        persistent_betti(list(reversed(steps)), [0], "inf")


def test_barcode_consistency():
    sample = euclidean_sample([(0, 0), (4, 0), (2, 3), (9, 9)])
    steps = build_filtration(sample, 2)
    table = persistent_betti(steps, [0, 1], "inf", all_pairs=True)
    bars = table.barcode()
    for step in range(len(steps)):
        for degree in (0, 1):
            alive = sum(
                1
                for b in bars
                if b["degree"] == degree
                and b["born_step"] <= step
                and (b["dies_step"] is None or b["dies_step"] > step)
            )
            expected = table.betti_by_step[step]
            assert alive == (expected[degree] if degree < len(expected) else 0)


def test_emptiness_threshold_twelve_points():
    twelve = evenly_spaced_circle_sample(12)
    assert emptiness_threshold(twelve, 3) == PiValue(Fraction(1, 3))
    # four equally spread points achieve min pairwise distance pi/2, so the
    # level empties exactly at pi/4 (and never after)
    assert emptiness_threshold(twelve, 4) == PiValue(Fraction(1, 4))
    assert emptiness_threshold(twelve, 1) == math.inf
    assert float(emptiness_threshold(twelve, 5)) <= math.pi / 5


def test_emptiness_threshold_requires_circle():
    with pytest.raises(ValueError):
        emptiness_threshold(euclidean_sample([(0,), (1,)]), 2)


def test_emptiness_threshold_float_mode():
    sample = circle_sample(radians=[0.0, 2.0, 4.0])
    value = emptiness_threshold(sample, 3)
    assert value == pytest.approx(1.0)  # min pairwise arc distance 2.0
    assert value <= math.pi / 3


@st.composite
def circle_samples(draw):
    """Exact samples at multiples of pi/24, or float samples in radians,
    some rounded to one decimal so that arcs tie."""
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(0, 47), min_size=1, max_size=7, unique=True))
        return circle_sample([Fraction(k, 24) for k in ks])
    angles = st.floats(0, 6.28, allow_nan=False)
    if draw(st.booleans()):
        angles = angles.map(lambda a: round(a, 1))
    return circle_sample(radians=draw(st.lists(angles, min_size=1, max_size=7, unique=True)))


@settings(max_examples=80, deadline=None)
@given(circle_samples())
def test_emptiness_threshold_matches_the_subset_oracle(sample):
    for n in range(1, len(sample) + 2):
        expected = emptiness_threshold_by_subsets(sample, n)
        value = emptiness_threshold(sample, n)
        assert value == expected and type(value) is type(expected)


def test_threshold_more_points_than_sample():
    sample = circle_sample([0, Fraction(1, 2)])
    assert emptiness_threshold(sample, 3) == PiValue(0)


def test_near_coincident_radii_get_their_own_steps():
    # two pairs at sqrt(2) and just above it, two at 5 and just above it
    sample = euclidean_sample([(0, 0), (1, 1), (5, 0), (6, 1 + Fraction(1, 10**20))])
    steps = build_filtration(sample, 2)
    assert len(steps) == 7
    assert all(s.lower != s.upper for s in steps)
    assert all(a.hypergraph != b.hypergraph for a, b in zip(steps, steps[1:]))


# 12 points with 66 distinct distances: 67 steps
TWELVE = [
    ("-20/3", "-3/8"), ("15", "27"), ("2", "5"), ("-13/4", "19/8"), ("0", "-7"),
    ("16/7", "44"), ("35/2", "-30"), ("-12", "-2"), ("26/7", "41/7"), ("0", "-11/2"),
    ("-38", "-33/8"), ("-23/5", "36/7"),
]


def test_build_filtration_makes_few_fractions(monkeypatch):
    # the pair keys of a Euclidean sample are ints on its grid: Fractions
    # are made only for the radii and the representatives, at most 3 a step
    sample = euclidean_sample([tuple(Fraction(c) for c in row) for row in TWELVE])
    made, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    steps = build_filtration(sample, 3)
    monkeypatch.undo()
    assert len(steps) == 67
    assert len(made) <= 3 * len(steps)


@st.composite
def exact_samples(draw, max_points=7):
    """Small Euclidean, distance-matrix or exact-circle samples."""
    n = draw(st.integers(1, max_points))
    kind = draw(st.sampled_from(["euclidean", "matrix", "circle"]))
    if kind == "euclidean":
        coords = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        points = draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n, unique=True))
        return euclidean_sample(points)
    if kind == "matrix":
        values = draw(st.lists(st.integers(1, 6), min_size=n * n, max_size=n * n))
        matrix = [
            [0 if a == b else values[min(a, b) * n + max(a, b)] for b in range(n)]
            for a in range(n)
        ]
        return distance_matrix_sample(matrix)
    angles = draw(st.lists(st.integers(0, 23), min_size=n, max_size=n, unique=True))
    return circle_sample([Fraction(a, 12) for a in angles])


@settings(max_examples=60, deadline=None)
@given(exact_samples(), st.integers(1, 3))
def test_each_step_is_the_hard_sphere_hypergraph_of_its_representative(sample, n_max):
    steps = build_filtration(sample, n_max)
    for step in steps:
        assert hard_sphere(sample, step.representative, n_max) == step.hypergraph
        if len(steps) > 1:
            assert step.lower < step.representative < step.upper
    if n_max >= 2:  # each step adds the pairs at one distance
        assert all(a.hypergraph != b.hypergraph for a, b in zip(steps, steps[1:]))


@settings(max_examples=60, deadline=None)
@given(exact_samples(), st.integers(1, 4), st.randoms(use_true_random=False))
def test_lazy_step_hypergraphs_are_the_hard_sphere_hypergraphs(sample, n_max, rng):
    # each step builds its hypergraph on first read, in any order, once
    steps = build_filtration(sample, n_max)
    for k in rng.sample(range(len(steps)), len(steps)):
        h = steps[k].hypergraph
        assert h == hard_sphere(sample, steps[k].representative, n_max)
        assert steps[k].hypergraph is h


@settings(max_examples=60, deadline=None)
@given(
    exact_samples(),
    st.integers(1, 3),
    st.sampled_from(["inf", "sup"]),
    st.booleans(),
    st.sampled_from([QQ, PrimeField(7)]),
)
def test_pair_steps_and_explicit_steps_give_one_table(sample, n_max, kind, all_pairs, field):
    # a whole build_filtration takes the simplex basis of its pair steps; the
    # same steps built by hand, or a part of build_filtration's steps, take
    # the echelon basis of their Inf (or Sup) complexes
    steps = build_filtration(sample, n_max)
    explicit = []
    for s in steps:
        h = hard_sphere(sample, s.representative, n_max)
        explicit.append(FiltrationStep(s.lower, s.upper, s.representative, h))
    for cut in (len(steps), (len(steps) + 1) // 2):
        table = persistent_betti(steps[:cut], [0, 1, 2], kind, all_pairs=all_pairs, field=field)
        again = persistent_betti(explicit[:cut], [0, 1, 2], kind, all_pairs=all_pairs, field=field)
        assert table == again


def test_negative_degree_is_rejected():
    steps = build_filtration(equilateral(), 2)
    with pytest.raises(ValueError):
        persistent_betti(steps, [-1, 0], "inf")


@st.composite
def nested_hypergraph_steps(draw):
    """A random hypergraph on at most five vertices, grown by random edges;
    the steps are usually not simplicial."""
    vertices = list(range(draw(st.integers(1, 5))))
    edge = st.lists(st.sampled_from(vertices), min_size=1, max_size=4, unique=True).map(
        lambda vs: tuple(sorted(vs))
    )
    edges = set(draw(st.lists(edge, min_size=1, max_size=6)))
    steps = []
    for k in range(draw(st.integers(1, 5))):
        steps.append(FiltrationStep(k, k + 1, k, Hypergraph(frozenset(vertices), frozenset(edges))))
        edges |= set(draw(st.lists(edge, min_size=1, max_size=3)))
    return steps


@settings(max_examples=60, deadline=None)
@given(nested_hypergraph_steps(), st.sampled_from([QQ, PrimeField(2), PrimeField(7)]))
def test_induced_ranks_between_steps_match_dense_cycles(steps, field):
    """Inf(step i) -> Inf(step j) and Sup(step i) -> Sup(step j) in the last
    step's closure and in that closure with its degree-1 labels reversed, and
    Inf -> Sup in closure and full-simplex ambients and the reversed closure,
    as ``dense_induced_rank`` finds them from dense cycles."""
    p = field.characteristic or None
    last = steps[-1].hypergraph
    closure, permuted = ambient_complex(last, "closure", field=field), permuted_closure(last, field)
    pairs = []
    for build in (inf_complex, sup_complex):
        for ambient in (closure, permuted):
            built = [build(s.hypergraph, field=field, ambient=ambient) for s in steps]
            pairs += [(a, b) for i, a in enumerate(built) for b in built[i:]]
    for ambient in (closure, ambient_complex(last, "full_simplex", field=field), permuted):
        for h in (s.hypergraph for s in steps):
            pairs.append((inf_complex(h, field, ambient), sup_complex(h, field, ambient)))
    for source, target in pairs:
        for n in range(len(source.dims) + 1):
            assert induced_homology_rank(source, target, n) == dense_induced_rank(source, target, n, p)


@st.composite
def hand_built_steps(draw):
    """Steps built by hand: as drawn, mostly not simplicial; each closed
    under faces, so simplicial; or only the last closed, so that a face is
    born after its simplex."""
    steps = draw(nested_hypergraph_steps())
    closed = draw(st.sampled_from([(), range(len(steps)), [len(steps) - 1]]))
    return [
        FiltrationStep(k, k + 1, k, delta_closure(s.hypergraph)) if k in closed else s
        for k, s in enumerate(steps)
    ]


_TRIANGLE = Hypergraph(frozenset({0, 1, 2}), frozenset({(0, 1, 2), (0, 1), (0,), (1,), (2,)}))


@st.composite
def filtrations(draw):
    """A whole build_filtration, a part of one, or steps built by hand."""
    if draw(st.booleans()):
        steps = build_filtration(draw(exact_samples()), draw(st.integers(1, 3)))
        return steps if draw(st.booleans()) else steps[: draw(st.integers(1, len(steps)))]
    return draw(hand_built_steps())


@settings(max_examples=100, deadline=None)
@given(
    filtrations(),
    st.sampled_from(["inf", "sup"]),
    st.booleans(),
    st.sampled_from([QQ, PrimeField(7)]),
)
@example(  # two of the triangle's sides are born after it, the third is not
    [FiltrationStep(0, 1, 0, _TRIANGLE), FiltrationStep(1, 2, 1, delta_closure(_TRIANGLE))], "inf", True, QQ
)
def test_persistence_matches_pairwise_oracle(steps, kind, all_pairs, field):
    # whole build_filtrations take the simplex basis; steps built by hand,
    # simplicial or not, and parts of build_filtrations take the echelon basis
    degrees = [0, 1, 2]
    table = persistent_betti(steps, degrees, kind, all_pairs=all_pairs, field=field)
    betti_by_step, entries, bars = pairwise_persistence(
        steps, degrees, kind, all_pairs=all_pairs, field=field
    )
    assert table.betti_by_step == betti_by_step
    assert table.entries == entries
    assert [(b["degree"], b["born_step"], b["dies_step"]) for b in table.barcode()] == bars


def test_non_simplicial_steps_use_the_embedded_complexes(monkeypatch):
    # step 0 holds a triangle without its sides: its Inf drops the triangle,
    # its Sup adds the triangle's boundary, and both have three components;
    # each kind's steps are assembled on that side alone
    vertices = frozenset({0, 1, 2})
    first = Hypergraph(vertices, frozenset({(0, 1, 2), (0,), (1,), (2,)}))
    second = Hypergraph(vertices, first.edges | {(0, 1), (1, 2), (0, 2)})
    assert not is_simplicial(first)
    steps = [FiltrationStep(1, 2, 1, first), FiltrationStep(0, 1, 0, second)]

    def refuse(*args):
        raise AssertionError("the other side was assembled")

    for kind, other in (("inf", "_sup"), ("sup", "_inf")):
        monkeypatch.undo()
        monkeypatch.setattr(filtration, other, refuse)
        table = persistent_betti(steps, [0, 1], kind, all_pairs=True)
        assert table.betti_by_step == ((3, 0, 0), (1, 0, 0))
        assert table.rank(0, 0, 1) == 1
        assert table.barcode() == [
            {"degree": 0, "born_step": 0, "dies_step": 1},
            {"degree": 0, "born_step": 0, "dies_step": 1},
            {"degree": 0, "born_step": 0, "dies_step": None},
        ]


def _boundaries(births, coboundaries, field):
    """Per degree, the boundary columns whose transposes are the coboundaries
    of a filtered basis."""
    columns = [[{} for _ in births[0]]]
    for n, up in enumerate(coboundaries):
        matrix = SparseMatrix.from_columns(field, len(births[n + 1]), up)
        columns.append(matrix.transpose().columns())
    return columns


@st.composite
def grid_filtrations(draw):
    """The filtration of a sample on a small integer grid, whose distances
    tie often, so that many simplices share a birth."""
    coords = st.integers(0, 3)
    points = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=7, unique=True))
    return build_filtration(euclidean_sample(points), draw(st.integers(1, 4)))


@st.composite
def non_simplicial_steps(draw):
    steps = draw(nested_hypergraph_steps())
    assume(not all(is_simplicial(s.hypergraph) for s in steps))
    return steps


FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7)]


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(grid_filtrations(), non_simplicial_steps()),
    st.sampled_from(["inf", "sup"]),
    st.sampled_from(FIELDS),
)
def test_cohomology_bars_equal_the_homology_bars(steps, kind, field):
    # the pairs do not depend on the reduction, so neither does the bar list;
    # non-simplicial steps take their basis from the nested embedded complexes
    reduce, reduced = filtration._bars, []

    def compared(births, coboundaries, field):
        bars = reduce(births, coboundaries, field)
        assert bars == homology_bars(births, _boundaries(births, coboundaries, field), field)
        reduced.append(bars)
        return bars

    with mock.patch.object(filtration, "_bars", compared):
        table = persistent_betti(steps, [0, 1, 2], kind, field=field)
    assert reduced == [list(table.bars)]


class _CountingList(list):
    """A list that counts the items read from it by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)])
def test_cohomology_reduction_clears_the_pivots_of_the_degree_below(field):
    # a degree-n position whose boundary adds a row to the homology echelon
    # is a cohomology pivot one degree down: its coboundary is never read
    sample = euclidean_sample([tuple(Fraction(c) for c in row) for row in TWELVE[:9]])
    flag = build_filtration(sample, 4)[0]._pairs[0]
    births, coboundaries = filtration._rank_basis(flag.ids, flag.births(), field)
    counted = [_CountingList(up) for up in coboundaries]
    bars = filtration._bars(births, counted, field)
    columns = _boundaries(births, coboundaries, field)
    assert bars == homology_bars(births, columns, field)
    killers = [len(found) for found in linalg.pivots(columns, field)][: len(counted)]
    assert all(killers[1:])
    assert [c.reads for c in counted] == [len(b) - k for b, k in zip(births, killers)]



@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_rescaled_basis_vectors_give_the_same_bars(field):
    # basis vector i of degree n times a unit c[n][i] scales coboundary entry
    # (i, j) by c[n + 1][j] / c[n][i]: the pivots are no longer +1 and -1,
    # and the pairs are those of the unscaled basis
    sample = euclidean_sample([tuple(Fraction(c) for c in row) for row in TWELVE[:8]])
    flag = build_filtration(sample, 3)[0]._pairs[0]
    births, coboundaries = filtration._rank_basis(flag.ids, flag.births(), field)
    units = [[k % 5 + 2 for k in range(len(b))] for b in births]
    scaled = [
        [
            {j: field.from_fraction(Fraction(a * units[n + 1][j], units[n][i])) for j, a in col.items()}
            for i, col in enumerate(up)
        ]
        for n, up in enumerate(coboundaries)
    ]
    assert any(v not in (1, -1, 6) for up in scaled for col in up for v in col.values())
    assert filtration._bars(births, scaled, field) == filtration._bars(births, coboundaries, field)

def test_demo_script_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(DEMO)])
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert "== equilateral triangle: 2 steps" in out
    assert "bar {" in out


def test_circle_emptiness_scan_script_runs(monkeypatch, capsys):
    script = SCRIPTS / "circle_emptiness_scan.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--points", "6", "--max-level", "4"])
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.splitlines() == [
        "6 equally spaced points on the unit circle",
        "  n      threshold       pi/n   edges just below",
        "  2      1.570796   1.570796                  3",
        "  3      1.047198   1.047198                  2",
        "  4      0.523599   0.785398                 15",
    ]


_RADII = st.one_of(
    st.fractions(min_value=0, max_value=100),
    st.fractions(min_value=0, max_value=100).map(exact_sqrt),  # mostly SqrtValue
    st.fractions(min_value=0, max_value=10).map(PiValue),
    st.floats(0, 1e6),
)


@st.composite
def persistence_tables(draw):
    """Tables as ``persistent_betti`` makes them, of arbitrary content:
    Betti rows may be shorter than a listed degree, and all pairs of steps
    may be listed."""
    count = draw(st.integers(1, 6))
    radii = tuple(draw(st.lists(_RADII, min_size=count, max_size=count)))
    rows = st.lists(st.integers(0, 5), max_size=3).map(tuple)
    betti = tuple(draw(st.lists(rows, min_size=count, max_size=count)))
    degrees = tuple(draw(st.lists(st.integers(0, 4), max_size=3, unique=True)))
    all_pairs = draw(st.booleans())
    pairs = [(i, j) for i in range(count) for j in range(i + 1, count) if all_pairs or j == i + 1]
    entries = tuple((d, i, j, draw(st.integers(0, 5))) for d in degrees for i, j in pairs)
    return PersistentBettiTable("inf", degrees, radii, betti, entries, ())


@settings(max_examples=150, deadline=None)
@given(persistence_tables())
def test_csv_text_matches_the_csv_writer_oracle(table):
    assert table.to_csv() == persistence_csv(table)


def test_csv_text_of_a_computed_table_matches_the_oracle():
    sample = euclidean_sample([(0, 0), (1, 0), (0, 2), (3, 1), (1, 1)])
    table = persistent_betti(build_filtration(sample, 3), [0, 1, 2, 3], all_pairs=True)
    assert any(isinstance(r, SqrtValue) for r in table.step_radii)
    assert any(len(row) < 4 for row in table.betti_by_step)
    assert table.to_csv() == persistence_csv(table)


@st.composite
def flag_samples(draw):
    """Points on a small integer grid, whose distances tie often, or
    rational points, for a filtration of n_max 1 to 5."""
    coords = st.integers(0, 3) if draw(st.booleans()) else st.fractions(-4, 4, max_denominator=3)
    points = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=8, unique=True))
    return euclidean_sample(points), draw(st.integers(1, 5))


@settings(max_examples=120, deadline=None)
@given(flag_samples(), st.sampled_from([QQ, PrimeField(2), PrimeField(7)]))
def test_rank_basis_equals_the_tuple_basis(case, field):
    # births, coboundaries and bars of a flag filtration as the tuple route builds them
    flag = build_filtration(*case)[0]._pairs[0]
    built = filtration._rank_basis(flag.ids, flag.births(), field)
    expected = tuple_simplex_basis(flag_levels(flag), field)
    assert built == expected
    assert filtration._bars(*built, field) == filtration._bars(*expected, field)


@pytest.mark.parametrize(
    "degree, birth, certificate",
    [(0, 3, {"degree": 1, "chain": "(1, 2)"}), (2, 1, {"degree": 2, "chain": "(0, 1, 2)"})],
    ids=["vertex", "triangle"],
)
def test_a_face_born_after_its_simplex_is_certified(monkeypatch, degree, birth, certificate):
    # edges {1, 2}, {0, 2} and {0, 1} enter at steps 1, 2 and 3, the triangle
    # at 3; moving vertex 2 to step 3, or the triangle to step 1, gives a
    # simplex a later face, and the first such simplex by birth is named
    births = filtration._PairSteps.births

    def moved(self):
        levels = births(self)
        levels[degree][0] = birth  # rank 0: vertex 2, or the triangle
        return levels

    monkeypatch.setattr(filtration._PairSteps, "births", moved)
    steps = build_filtration(euclidean_sample([(0, 0), (1, 0), (0, 3)]), 3)
    with pytest.raises(InvariantViolation) as failure:
        persistent_betti(steps, [0, 1])
    assert failure.value.certificate == certificate


@pytest.mark.parametrize("column", [0, 7, 14])
def test_a_corrupted_rank_basis_column_fails_with_the_least_nonzero_certificate(monkeypatch, column):
    # one sign of a built degree-3 column flipped: the certificate is the
    # least nonzero (row, column) of d_2 d_3, found densely, and names the
    # column's simplex as the tuple route labels it
    sample = euclidean_sample([tuple(Fraction(c) for c in row) for row in TWELVE[:7]])
    steps = build_filtration(sample, 4)
    check, seen = filtration._check_square_zero, []

    def corrupted(n, lower, upper, labels, p=0):
        upper = [dict(col) for col in upper]
        if n == 2:
            row = min(upper[column])
            upper[column][row] = -upper[column][row]
            seen.append((lower, upper))
        return check(n, lower, upper, labels, p)

    monkeypatch.setattr(filtration, "_check_square_zero", corrupted)
    with pytest.raises(InvariantViolation) as failure:
        persistent_betti(steps, [0, 1])
    (lower, upper), = seen
    left = sparse_to_dense(SparseMatrix.from_columns(QQ, len(steps[-1].hypergraph.level(2)), lower))
    right = sparse_to_dense(SparseMatrix.from_columns(QQ, len(lower), upper))
    i, j = min(
        (i, j)
        for i, row in enumerate(left)
        for j in range(len(upper))
        if sum(a * right[k][j] for k, a in enumerate(row))
    )
    level = flag_levels(steps[0]._pairs[0])[3]
    label = sorted(level, key=level.__getitem__)[j]
    assert failure.value.certificate == {"degree": 3, "chain": str(label), "row": i}
