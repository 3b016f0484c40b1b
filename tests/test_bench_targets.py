"""The benchmark's hooks into the package, and its recorded reports.

``bench/tracer.py`` wraps package functions by module and attribute path;
a rename or deletion would crash every traced benchmark run, so it is
caught here instead.  The tracer imports only the standard library and is
loaded from its file.  The first rounds of seed 1 of every workload are run
as ``bench/run.py`` runs them, and their reports compared with the digests
that ``bench/reference.json`` records.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hyperhomology import cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
RUN = TRACER.parent / "run.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
TARGETS = [(module, path) for _, module, path, _ in _tracer.SPANS]
TARGETS += [(module, path) for _, module, path in _tracer.COUNTED]


@pytest.mark.parametrize("module_name,path", TARGETS)
def test_tracer_target_resolves(module_name, path):
    module = importlib.import_module(f"hyperhomology.{module_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        # the tracer patches the class attribute itself, not an inherited one
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, path))


def _load_run(monkeypatch):
    """bench/run.py, loaded from its file with its sibling modules importable."""
    monkeypatch.syspath_prepend(str(RUN.parent))
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def test_bench_seed_1_reports_match_the_reference(monkeypatch, tmp_path):
    # rounds 0 and 1 of seed 1 of every workload, each job one in-process
    # cli.main call: every report passes its job's check and has the content
    # digest (VOLATILE fields left out) recorded for it
    run = _load_run(monkeypatch)
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference) == set(run.wl.WORKLOADS)
    commands = set()
    for name, workload in run.wl.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for r in range(2):
            seen = {}
            for job in workload.make_round(1, r, workdir):
                outcome = run.run_job(cli, job, run.Calibration())
                assert outcome.error is None, (name, job.key, outcome.error)
                report = json.loads(outcome.text)
                assert job.check(report["results"], seen) == [], (name, job.key)
                seen[job.key] = report["results"]
                commands.add(report["command"])
                assert run.content_digest(report) == reference[name]["1"][job.key], (name, job.key)
    assert set(run.VOLATILE) <= commands
