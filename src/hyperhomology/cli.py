"""Command-line front end.

Exit codes: 0 success, 2 parse/config error, 3 resource cap exceeded,
4 failed theorem or invariant check.  The size caps are read from their
environment variables where they are checked (``errors.check_cap``).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import bundles
from .chains import _closure_homology, ambient_complex, inf_complex, sup_complex
from .errors import (
    InvariantViolation,
    ParseError,
    ResourceCapError,
    TheoremCheckError,
)
from .fields import field_by_name
from .filtration import build_filtration, persistent_betti
from .groups import aut_group, aut_isom, isom_group
from .homology import (
    HomologySummary,
    betti,
    four_term_sequence,
    quotient_pair_check,
    verify_quasi_iso_theta,
)
from .hypergraphs import (
    associated_independence,
    delta_closure,
    lower_associated,
    lower_associated_independence,
)
from .jsonio import (
    Report,
    emit_report,
    hypergraph_to_json,
    parse_hypergraph,
    parse_point_sample,
    timed_report,
)
from .suites import run_all


def _add_out(parser):
    parser.add_argument("--out", default="-", help="output path ('-' for stdout)")


def _add_field(parser):
    parser.add_argument(
        "--field",
        default="Q",
        help="coefficient field: 'Q' (default) or a prime for Z/p",
    )


def _parse_ambient(text, h):
    if text is None:
        return sorted(h.vertices)
    try:
        return sorted({int(v) for v in text.split(",") if v.strip() != ""})
    except ValueError as exc:
        raise ParseError(f"bad ambient vertex list {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's one parser, built on the first call and shared after it.

    Sharing is safe because parsing leaves the parser unchanged: no option
    appends to a list or has a mutable default.
    """
    parser = argparse.ArgumentParser(
        prog="hyperhomology",
        description="Exact embedded homology, filtrations and symmetry groups "
        "of hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="closure and independence operators")
    p.add_argument("input", help="hypergraph JSON file")
    p.add_argument(
        "--operation",
        default="delta",
        choices=["delta", "lower", "independence", "lower-independence"],
    )
    p.add_argument("--ambient", help="comma-separated ambient vertices (independence ops)")
    _add_out(p)

    p = sub.add_parser("homology", help="Betti numbers of inf/sup/ambient chains")
    p.add_argument("input")
    p.add_argument("--kind", default="inf", choices=["inf", "sup", "ambient"])
    p.add_argument(
        "--dump-matrices",
        metavar="DIR",
        help="also write the boundary matrices as 'row col value' text files",
    )
    _add_field(p)
    _add_out(p)

    p = sub.add_parser("quasi-check", help="verify the inf-to-sup quasi-isomorphism")
    p.add_argument("input")
    _add_field(p)
    _add_out(p)

    p = sub.add_parser("four-term", help="four-stage surjective sequence report")
    p.add_argument("input")
    _add_field(p)
    _add_out(p)

    p = sub.add_parser(
        "quotient-check", help="compare homology of the two quotient complexes"
    )
    p.add_argument("input")
    p.add_argument("--max-degree", type=int, default=None)
    _add_field(p)
    _add_out(p)

    p = sub.add_parser("persist", help="persistent Betti table of a point sample")
    p.add_argument("points", help="point sample file (.csv or .json)")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--degrees", default="0,1")
    p.add_argument("--kind", default="inf", choices=["inf", "sup"])
    p.add_argument("--all-pairs", action="store_true")
    p.add_argument("--barcode", action="store_true", help="emit interval barcode JSON")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    _add_field(p)
    _add_out(p)

    p = sub.add_parser("aut", help="automorphism group report")
    p.add_argument("input")
    _add_out(p)

    p = sub.add_parser("isom", help="isometry group of a point sample")
    p.add_argument("points")
    p.add_argument("--hypergraph", help="optional hypergraph over the sample ids")
    p.add_argument("--tolerance", type=float, default=0.0)
    _add_out(p)

    p = sub.add_parser("bundle-order", help="divisor bound for bundle orders")
    p.add_argument(
        "--space",
        required=True,
        choices=["surface", "euclidean", "sphere", "rp", "rp-euclidean"],
    )
    p.add_argument("--genus", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-embed", type=int)
    _add_out(p)

    p = sub.add_parser("embed-bound", help="ambient dimension bound t + k")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_out(p)

    p = sub.add_parser("selftest", help="run the randomized verification suites")
    p.add_argument("--seed", type=int, default=2024)
    _add_out(p)

    return parser


def _space_from_args(args) -> bundles.SpaceDescriptor:
    if args.space == "surface":
        if args.genus is None:
            raise ParseError("--genus is required for surfaces")
        return bundles.Surface(args.genus)
    if args.m is None:
        raise ParseError("--m is required for this space")
    if args.space == "euclidean":
        return bundles.Euclidean(args.m)
    if args.space == "sphere":
        return bundles.Sphere(args.m)
    if args.space == "rp":
        return bundles.RealProjective(args.m, args.n_embed)
    if args.k is None:
        raise ParseError("--k is required for product spaces")
    return bundles.RealProjectiveTimesEuclidean(args.m, args.k, args.n_embed)


def _run_closure(args) -> Report:
    h = parse_hypergraph(args.input)

    def work():
        if args.operation == "delta":
            result = delta_closure(h)
        elif args.operation == "lower":
            result = lower_associated(h)
        else:
            if h.directed:
                raise ParseError("independence operators need an unordered hypergraph")
            ambient = _parse_ambient(args.ambient, h)
            op = (
                associated_independence
                if args.operation == "independence"
                else lower_associated_independence
            )
            result = op(h, ambient)
        return hypergraph_to_json(result)

    return timed_report(
        "closure", {"input": args.input, "operation": args.operation}, work
    )


def _run_homology(args) -> Report:
    h = parse_hypergraph(args.input)
    field = field_by_name(args.field)

    def work():
        if args.kind == "ambient" and not args.dump_matrices:  # no matrix is read
            summary = HomologySummary(field.name, _closure_homology(h, field)[1])
            return {"field": summary.field_name, "betti": summary.betti_dict()}
        if args.kind == "ambient":
            complex_ = ambient_complex(h, "closure", field=field)
        else:
            complex_ = (inf_complex if args.kind == "inf" else sup_complex)(h, field=field)
        summary = betti(complex_)
        if args.dump_matrices:
            boundaries = (complex_ if args.kind == "ambient" else complex_.complex).boundaries
            outdir = Path(args.dump_matrices)
            outdir.mkdir(parents=True, exist_ok=True)
            for n in range(1, len(boundaries)):
                target = outdir / f"boundary_{args.kind}_{n}.txt"
                target.write_text(boundaries[n].to_coordinate_text())
        return {"field": summary.field_name, "betti": summary.betti_dict()}

    return timed_report(
        "homology", {"input": args.input, "kind": args.kind, "field": args.field}, work
    )


def _run_quasi(args) -> Report:
    h = parse_hypergraph(args.input)
    field = field_by_name(args.field)

    def work():
        check = verify_quasi_iso_theta(h, field=field)
        payload = {
            "field": field.name,
            "betti": {str(n): b for n, b in enumerate(check.betti_inf)},
        }
        payload.update(check.as_dict())
        return payload

    report = timed_report("quasi-check", {"input": args.input, "field": args.field}, work)
    if not report.results["inf_sup_iso"]:
        raise TheoremCheckError(
            "inf/sup homology mismatch", counterexample=report.results
        )
    return report


def _run_four_term(args) -> Report:
    h = parse_hypergraph(args.input)
    field = field_by_name(args.field)
    return timed_report(
        "four-term",
        {"input": args.input, "field": args.field},
        lambda: four_term_sequence(h, field=field).as_dict(),
    )


def _run_quotient(args) -> Report:
    h = parse_hypergraph(args.input)
    if h.directed:
        raise ParseError("quotient-check needs an unordered hypergraph")
    top = h.max_cardinality() - 1
    if args.max_degree is not None and args.max_degree < top:
        raise ParseError(f"--max-degree {args.max_degree} is below the top edge's degree {top}")
    field = field_by_name(args.field)
    report = timed_report(
        "quotient-check",
        {"input": args.input, "field": args.field},
        lambda: quotient_pair_check(h, field, max_degree=args.max_degree).as_dict(),
    )
    if not (report.results["betti_equal"] and report.results["q_surjective"]):
        raise TheoremCheckError("quotient homology mismatch", report.results)
    return report


def _run_persist(args) -> Report:
    if args.barcode and args.format != "json":
        raise ParseError("--barcode needs --format json")
    sample = parse_point_sample(args.points)
    try:
        degrees = [int(d) for d in args.degrees.split(",") if d.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"bad degree list {args.degrees!r}") from exc
    field = field_by_name(args.field)

    def work():
        steps = build_filtration(sample, args.n_max)
        all_pairs = args.all_pairs or args.barcode
        table = persistent_betti(steps, degrees, args.kind, all_pairs=all_pairs, field=field)
        payload = {
            "kind": table.kind,
            "radii": [float(r) for r in table.step_radii],
            "betti_by_step": [list(b) for b in table.betti_by_step],
            "entries": [list(e) for e in table.entries],
            "csv": table.to_csv(),
        }
        if args.barcode:
            payload["barcode"] = table.barcode()
        return payload

    return timed_report(
        "persist",
        {
            "points": args.points,
            "n_max": args.n_max,
            "degrees": degrees,
            "kind": args.kind,
            "field": args.field,
        },
        work,
    )


def _run_aut(args) -> Report:
    h = parse_hypergraph(args.input)

    def work():
        action = aut_group(h)
        return {
            "homeo_order": action.homeo.order,
            "stab_order": action.stab.order,
            "aut_order": action.order,
            "aut_generators": action.generator_cycles(),
        }

    return timed_report("aut", {"input": args.input}, work)


def _run_isom(args) -> Report:
    sample = parse_point_sample(args.points)

    def work():
        if not args.hypergraph:
            return {"isom_order": isom_group(sample, tolerance=args.tolerance).order}
        h = parse_hypergraph(args.hypergraph)
        report = aut_isom(h, sample, tolerance=args.tolerance).as_dict()
        return {"isom_order": report["isom_order"], "aut_isom": report}

    return timed_report(
        "isom", {"points": args.points, "tolerance": args.tolerance}, work
    )


def _run_bundle(args) -> Report:
    space = _space_from_args(args)
    return timed_report(
        "bundle-order",
        {"space": args.space, "n": args.n},
        lambda: {"divides": bundles.order_bound(space, args.n).bound},
    )


def _run_embed(args) -> Report:
    return timed_report(
        "embed-bound",
        {"t": args.t, "k": args.k},
        lambda: {
            "min_ambient_dimension": bundles.embedding_dimension_bound(args.t, args.k)
        },
    )


def _run_selftest(args) -> Report:
    def work():
        results = run_all(args.seed)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.name}: {status} ({r.checks} checks, {r.seconds:.2f} s)", file=sys.stderr)
        return [r.as_dict() for r in results]

    report = timed_report("selftest", {"seed": args.seed}, work)
    failed = [r["name"] for r in report.results if not r["passed"]]
    if failed:
        _write_report(report, args.out)
        raise TheoremCheckError("selftest failures", failed)
    return report


def _write_report(report: Report, out: str) -> None:
    text = emit_report(report, None if out == "-" else out)
    if out == "-":
        sys.stdout.write(text)


_HANDLERS = {
    "closure": _run_closure,
    "homology": _run_homology,
    "quasi-check": _run_quasi,
    "four-term": _run_four_term,
    "quotient-check": _run_quotient,
    "persist": _run_persist,
    "aut": _run_aut,
    "isom": _run_isom,
    "bundle-order": _run_bundle,
    "embed-bound": _run_embed,
    "selftest": _run_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _HANDLERS[args.command](args)
        if args.command == "persist" and args.format == "csv":
            text = report.results["csv"]
            if args.out == "-":
                sys.stdout.write(text)
            else:
                Path(args.out).write_text(text)
        else:
            _write_report(report, args.out)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (TheoremCheckError, InvariantViolation) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        detail = getattr(exc, "counterexample", None) or getattr(exc, "certificate", None)
        if detail is not None:
            print(f"counterexample: {detail}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
