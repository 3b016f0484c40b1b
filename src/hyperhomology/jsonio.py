"""File formats: hypergraph JSON, point-sample CSV/JSON, report emission.

Hypergraph JSON:  {"vertices": [ints], "edges": [[ints], ...]} with the
directed variant using "directed_edges" (coordinate order preserved).
Point samples: CSV rows "id,x_1,...,x_d" for Euclidean coordinates, or
JSON with one of "distance_matrix", "circle_angles" (radians) or
"circle_angles_over_pi" (exact rationals, in units of pi).
Reports and hypergraphs are written by ``_encode``: byte-identical to
``json.dumps(indent=2, sort_keys=True)``, it joins lists of scalars in C.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
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
    vertices = _list(data.get("vertices", []), "vertices")
    for e in _list(raw_edges, "edges"):
        _list(e, "an edge")
    try:
        build = hyperdigraph if directed else hypergraph
        result = build(raw_edges, vertices=vertices)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    # the vertex set is the edge support and the declared vertices
    if "vertices" in data and (undeclared := result.vertices.difference(vertices)):
        raise ParseError(f"edges reference undeclared vertices: {sorted(undeclared)}")
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
    text = _encode(hypergraph_to_json(h), "\n") + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a JSON list, got {value!r}")
    return value


def _number(value, kind=Fraction):
    """A JSON number, or a string holding one, as a finite Fraction or float
    (kind); a boolean is not a number here."""
    try:
        if not isinstance(value, bool) and isinstance(value, (str, int, float)):
            number = kind(value)
            if kind is Fraction or math.isfinite(number):
                return number
    except (OverflowError, ZeroDivisionError):  # 1e400 reads as inf; "1/0"
        pass
    raise ParseError(f"expected a finite number, got {value!r}")


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
    if ids is not None:
        _list(ids, "ids")
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
        values = _list(data[keys[0]], keys[0])
        if keys[0] == "distance_matrix":
            matrix = [[_number(v) for v in _list(row, "a matrix row")] for row in values]
            return distance_matrix_sample(matrix, ids=ids)
        if keys[0] == "circle_angles":
            return circle_sample(radians=[_number(a, float) for a in values], ids=ids)
        return circle_sample([_number(a) for a in values], ids=ids)
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
        return _encode(body, "\n") + "\n"


def _json_default(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, frozenset):
        return sorted(value)
    if hasattr(value, "coeff"):  # PiValue
        return float(value)
    raise TypeError(f"not JSON serializable: {value!r}")


_CONSTANT = {True: "true", False: "false", None: "null"}.__getitem__
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__}
_SCALARS |= {bool: _CONSTANT, type(None): _CONSTANT}


def _scalar(value) -> str | None:
    """The JSON text of a str, int, finite float, bool or None; else None."""
    kind = type(value)
    if kind not in _SCALARS:  # json tests str, int and float by isinstance
        kind = next((k for k in (str, int, float) if isinstance(value, k)), None)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return _SCALARS[kind](value) if kind else None


def _encode(value, pad: str) -> str:
    """value as ``json.dumps(value, indent=2, sort_keys=True, default=_json_default,
    allow_nan=False)`` writes it, errors too; pad (newline, indent) leads later lines."""
    if (text := _scalar(value)) is not None:
        return text
    inner = pad + "  "
    if isinstance(value, dict):
        items = [_key(k) + ": " + _encode(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if not isinstance(value, (list, tuple)):
        return _encode(_json_default(value), pad)
    # one C join for scalars of one exact type, or per row for non-empty rows of
    # them; rows of ints fill one str.format template, made per row length
    rows = {list, tuple}.issuperset(map(type, value)) and all(value)
    flat = [x for r in value for x in r] if rows else value
    kinds = set(map(type, flat))
    finite = kinds != {float} or all(map(math.isfinite, flat))
    scalar = len(kinds) == 1 and finite and _SCALARS.get(kinds.pop())
    row = inner + "  "
    if scalar is int.__repr__ and rows:
        lengths = list(map(len, value))
        templates = {k: "[" + row + ("," + row).join(["{}"] * k) + inner + "]" for k in set(lengths)}
        items = [("," + inner).join(map(templates.__getitem__, lengths)).format(*flat)]
    elif scalar and rows:
        items = ["[" + row + ("," + row).join(map(scalar, r)) + inner + "]" for r in value]
    else:
        items = map(scalar, value) if scalar else [_encode(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(items) + pad + "]" if value else "[]"


def _key(key) -> str:
    if (text := key if isinstance(key, str) else _scalar(key)) is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(text)


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

