"""File formats: hypergraph JSON, point-sample CSV/JSON, report emission.

Hypergraph JSON:  {"vertices": [ints], "edges": [[ints], ...]} with the
directed variant using "directed_edges" (coordinate order preserved).
Point samples: CSV rows "id,x_1,...,x_d" for Euclidean coordinates, or
JSON with one of "distance_matrix", "circle_angles" (radians) or
"circle_angles_over_pi" (exact rationals, in units of pi).
"""

from __future__ import annotations

import csv
import io
import json
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import ParseError
from .hypergraphs import Hypergraph, hypergraph, hyperdigraph
from .metrics import (
    MetricPointSample,
    circle_sample,
    distance_matrix_sample,
    euclidean_sample,
)

SCHEMA_TAG = "hyperhomology-report/1"


def _read(source) -> tuple[str, str]:
    """The text of a path, text or open file, and where it came from.  A
    string is a path only when it names an existing file; a string refused
    as a file name (too long, say) is text."""
    try:
        is_path = isinstance(source, Path) or isinstance(source, str) and Path(source).is_file()
    except OSError:
        is_path = False
    if is_path:
        return Path(source).read_text(), str(source)
    return (source if isinstance(source, str) else source.read()), "<input>"


def _load_json(source) -> Any:
    text, where = _read(source)
    try:
        return json.loads(text, parse_constant=_not_a_number)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _not_a_number(constant: str):
    raise ParseError(f"{constant} is not a finite JSON number")


def parse_hypergraph(source) -> Hypergraph:
    """Read a hypergraph or hyperdigraph from JSON (path, text or file).

    Edges are canonicalized (sorted for the unordered kind) and duplicates
    are dropped with a warning; an edge mentioning a vertex outside the
    declared vertex set is an error.
    """
    data = _load_json(source)
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object")
    directed = "directed_edges" in data
    if directed and "edges" in data:
        raise ParseError("give either 'edges' or 'directed_edges', not both")
    raw_edges = data.get("directed_edges" if directed else "edges")
    if raw_edges is None:
        raise ParseError("missing 'edges' (or 'directed_edges') key")
    vertices = data.get("vertices", [])
    try:
        vertices = [int(v) for v in vertices]
        raw_edges = [[int(v) for v in e] for e in raw_edges]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"vertices must be integers: {exc}") from exc
    try:
        build = hyperdigraph if directed else hypergraph
        result = build(raw_edges, vertices=vertices)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if "vertices" in data:
        support = {v for e in result.edges for v in e}
        declared = set(vertices)
        if not support <= declared:
            raise ParseError(
                f"edges reference undeclared vertices: {sorted(support - declared)}"
            )
    if len(result.edges) < len(raw_edges):
        warnings.warn(
            f"{len(raw_edges) - len(result.edges)} duplicate edge(s) dropped",
            stacklevel=2,
        )
    return result


def hypergraph_to_json(h: Hypergraph) -> dict:
    key = "directed_edges" if h.directed else "edges"
    return {
        "vertices": sorted(h.vertices),
        key: [list(e) for e in h.sorted_edges()],
    }


def emit_hypergraph(h: Hypergraph, path=None) -> str:
    text = json.dumps(hypergraph_to_json(h), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _rational(value) -> Fraction:
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise ParseError(f"expected a number, got {value!r}")


def parse_point_sample(source, *, kind: str | None = None) -> MetricPointSample:
    """Read a metric point sample.

    Paths ending in .csv (or kind="csv") are Euclidean coordinate rows
    "id,x_1,...,x_d"; everything else is JSON with exactly one of the keys
    "distance_matrix", "circle_angles", "circle_angles_over_pi", plus an
    optional "ids" list.
    """
    is_csv = kind == "csv" or (
        kind is None and isinstance(source, (str, Path)) and str(source).endswith(".csv")
    )
    if is_csv:
        text, _ = _read(source)
        ids, rows = [], []
        for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if lineno == 1 and not _looks_numeric(row[0]):
                continue  # header row
            try:
                ids.append(int(row[0]))
                rows.append([Fraction(cell) for cell in row[1:]])
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"csv line {lineno}: {exc}") from exc
        if not ids:
            raise ParseError("no data rows in point CSV")
        try:
            return euclidean_sample(rows, ids=ids)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    data = _load_json(source)
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object for a point sample")
    ids = data.get("ids")
    keys = [
        k
        for k in ("distance_matrix", "circle_angles", "circle_angles_over_pi")
        if k in data
    ]
    if len(keys) != 1:
        raise ParseError(
            "point sample JSON needs exactly one of distance_matrix, "
            "circle_angles, circle_angles_over_pi"
        )
    try:
        if keys[0] == "distance_matrix":
            matrix = [[_rational(v) for v in row] for row in data["distance_matrix"]]
            return distance_matrix_sample(matrix, ids=ids)
        if keys[0] == "circle_angles":
            return circle_sample(radians=[float(a) for a in data["circle_angles"]], ids=ids)
        return circle_sample([_rational(a) for a in data["circle_angles_over_pi"]], ids=ids)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _looks_numeric(cell: str) -> bool:
    try:
        Fraction(cell)
        return True
    except (ValueError, ZeroDivisionError):
        return False


@dataclass
class Report:
    """CLI result envelope; payload is deterministic for fixed inputs."""

    command: str
    config: dict
    results: Any
    schema: str = SCHEMA_TAG
    timing_seconds: float = field(default=0.0)

    def payload(self) -> dict:
        return {
            "schema": self.schema,
            "command": self.command,
            "config": self.config,
            "results": self.results,
        }

    def to_json(self) -> str:
        body = self.payload()
        body["timing_seconds"] = self.timing_seconds
        return json.dumps(body, indent=2, sort_keys=True, default=_json_default, allow_nan=False) + "\n"


def _json_default(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, frozenset):
        return sorted(value)
    if hasattr(value, "coeff"):  # PiValue
        return float(value)
    raise TypeError(f"not JSON serializable: {value!r}")


def emit_report(report: Report, path=None) -> str:
    text = report.to_json()
    if path is not None and path != "-":
        Path(path).write_text(text)
    return text


def timed_report(command: str, config: dict, worker) -> Report:
    start = time.perf_counter()
    results = worker()
    elapsed = time.perf_counter() - start
    return Report(command, config, results, timing_seconds=round(elapsed, 6))


def csv_text(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerows(rows)
    return buffer.getvalue()
