"""Span and counter recorder for the benchmark's traced runs.

The recorder wraps public functions of the package from outside: it
replaces every binding of a target in every ``hyperhomology`` module
namespace (``cli``, ``filtration`` and ``homology`` bind ``inf_complex`` and
friends with ``from .chains import ...``, so patching ``chains`` alone
would miss those calls), and puts the originals back on ``restore()``.

Each wrapped call is a span (name, start, end, parent span, job).  Self time
is the span's duration minus the time its child spans cover, accumulated as
spans close.  Spans stay in memory, up to ``MAX_SPANS``, and are written out
by ``write_spans`` when the run ends.  Counters are computed from the
arguments and results of the wrapped calls.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict


def _count_matrix(rec, m) -> None:
    rec.counts["linalg.elim_cells"] += m.nrows * m.ncols
    rec.counts["linalg.elim_nnz"] += m.nnz()


def _count_rank(rec, args, kwargs, result):
    _count_matrix(rec, args[0])
    rec.counts["linalg.rank_out"] += result


def _count_kernel(rec, args, kwargs, result):
    _count_matrix(rec, args[0])
    rec.counts["linalg.rank_out"] += args[0].ncols - len(result)


def _count_independent(rec, args, kwargs, result):
    _count_matrix(rec, args[0])
    rec.counts["linalg.rank_out"] += len(result)


def _count_solve(rec, args, kwargs, result):
    a, b = args[0], args[1]
    rec.counts["linalg.elim_cells"] += a.nrows * (a.ncols + b.ncols)
    rec.counts["linalg.elim_nnz"] += a.nnz() + b.nnz()


def _count_ambient(rec, args, kwargs, result):
    rec.counts["chains.ambient_cells"] += sum(result.dims)


def _count_steps(rec, args, kwargs, result):
    rec.counts["filtration.steps"] += len(result)


def _count_rank_problems(rec, args, kwargs, result):
    rec.counts["filtration.rank_problems"] += len(result.entries)


def _count_order(rec, args, kwargs, result):
    rec.counts["groups.order_sum"] += result.order


def _count_isom(rec, args, kwargs, result):
    rec.counts["groups.order_sum"] += result.order
    # computed, not counted: isom_group walks all n! vertex maps
    rec.counts["groups.isom_candidates"] += math.factorial(len(args[0]))


# (span name, module, attribute path, counter).  A dotted attribute path
# names a method, patched on its class.
SPANS = [
    ("linalg.rank", "linalg", "rank", _count_rank),
    ("linalg.kernel_basis", "linalg", "kernel_basis", _count_kernel),
    ("linalg.solve_matrix", "linalg", "solve_matrix", _count_solve),
    ("linalg.independent_columns", "linalg", "independent_columns", _count_independent),
    ("linalg.echelon_add", "linalg", "Echelon.add", None),
    ("linalg.matmul", "linalg", "SparseMatrix.__matmul__", None),
    # not reported one by one; they keep linalg time out of their callers
    ("linalg.solve", "linalg", "solve", None),
    ("linalg.columns_in_span", "linalg", "columns_in_span", None),
    ("linalg.image_rank_modulo", "linalg", "image_rank_modulo", None),
    ("chains.ambient_complex", "chains", "ambient_complex", _count_ambient),
    ("chains.inf_complex", "chains", "inf_complex", None),
    ("chains.sup_complex", "chains", "sup_complex", None),
    ("chains.validate", "chains", "ChainComplex.validate", None),
    ("homology.betti", "homology", "betti", None),
    ("homology.induced_homology_rank", "homology", "induced_homology_rank", None),
    ("homology.quotient_complex", "homology", "quotient_complex", None),
    ("homology.four_term_sequence", "homology", "four_term_sequence", None),
    ("filtration.build_filtration", "filtration", "build_filtration", _count_steps),
    ("filtration.persistent_betti", "filtration", "persistent_betti", _count_rank_problems),
    ("filtration.barcode", "filtration", "PersistentBettiTable.barcode", None),
    ("metrics.hard_sphere", "metrics", "hard_sphere", None),
    ("metrics.critical_radii", "metrics", "critical_radii", None),
    ("groups.homeo_group", "groups", "homeo_group", _count_order),
    ("groups.stab_group", "groups", "stab_group", _count_order),
    ("groups.aut_group", "groups", "aut_group", _count_order),
    ("groups.isom_group", "groups", "isom_group", _count_isom),
    ("groups.verify", "groups", "PermutationGroup.verify", None),
    ("groups.is_normal_in", "groups", "PermutationGroup.is_normal_in", None),
    ("groups.generators", "groups", "PermutationGroup.generators", None),
    ("jsonio.parse", "jsonio", "parse_hypergraph", None),
    ("jsonio.parse", "jsonio", "parse_point_sample", None),
    ("jsonio.emit", "jsonio", "emit_report", None),
    ("hypergraphs.delta_closure", "hypergraphs", "delta_closure", None),
    ("cli", "cli", "main", None),
]

# Called too often for a span each: only their calls are counted.
COUNTED = [
    ("homology.project_vector", "homology", "QuotientComplex.project_vector"),
    ("groups.compose", "groups", "Permutation.compose"),
]

# Spans kept in memory for write_spans; later ones are only counted.
MAX_SPANS = 200_000

LAYERS = (
    "jsonio", "hypergraphs", "metrics", "chains", "linalg",
    "homology", "filtration", "groups", "cli",
)


class Recorder:
    """Records spans and counters while the package's functions are patched."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []
        self.dropped = 0
        self.job = -1
        self._next_id = 0
        self._stack = []  # per open span: [child seconds, span id]
        self._patched = []  # (namespace, attribute, original)

    # -------------------------------------------------------------- patching

    def _span_wrapper(self, name, fn, counter):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter
        rec = self

        def wrapper(*args, **kwargs):
            frame = [0.0, rec._next_id]
            rec._next_id += 1
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                rec.self_s[name] += duration - frame[0]
                rec.calls[name] += 1
                if len(spans) < MAX_SPANS:
                    spans.append((frame[1], name, start, end, parent, rec.job))
                else:
                    rec.dropped += 1
            if counter is not None:
                counter(rec, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module_name: str, path: str, make):
        module = importlib.import_module(f"hyperhomology.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(module, path)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyperhomology" or mod_name.startswith("hyperhomology.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        for name, module, path, counter in SPANS:
            self._replace(module, path, lambda fn, n=name, c=counter: self._span_wrapper(n, fn, c))
        for name, module, path in COUNTED:
            self._replace(module, path, lambda fn, n=name: self._count_wrapper(n, fn))

    def restore(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    # --------------------------------------------------------------- results

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[name.split(".")[0]] += seconds
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: id, name, start, duration, parent id, job."""
        spans = sorted(self.spans)
        origin = spans[0][2] if spans else 0.0
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, job in spans:
                fh.write(json.dumps([span_id, name, round(start - origin, 7), round(end - start, 7), parent, job]))
                fh.write("\n")
