"""The benchmark's tracer wraps library functions by name; a name it
lists that the library no longer defines breaks every traced run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, name) for layer, name, _ in spans.TARGETS]


@pytest.mark.parametrize("layer, name", _targets())
def test_traced_name_resolves(layer, name):
    home = np.linalg if layer == "linalg" else importlib.import_module(f"chebzeros.{layer}")
    assert callable(getattr(home, name, None)), f"{layer}.{name} is traced but undefined"
