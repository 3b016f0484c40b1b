"""Every function the benchmark's tracer patches must exist under its name.

``bench/tracer.py`` wraps package functions by module and attribute path;
a rename or deletion would crash every traced benchmark run, so it is
caught here instead.  The tracer imports only the standard library and is
loaded from its file.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
