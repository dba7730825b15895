"""The package names the benchmark's tracer wraps must stay plain functions.

``perfbench/tracer.py`` wraps module-level functions of the package from
outside.  A target that is renamed, removed or wrapped (for example by a
caching decorator) is skipped by the tracer and every per-layer metric
built on it reads as absent, so the contract is checked here instead of in
a benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_plain_function():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
