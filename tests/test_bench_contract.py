"""The traced benchmark run (``bench/run.py --trace 1``) wraps the functions
that ``bench/spans.py`` names by ``getattr``; a rename or deletion in the
package breaks that run, so the names are checked here."""

import importlib
import importlib.util
from pathlib import Path

from critgraph.exactla import IntegerMatrix

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    assert spans.FUNCTIONS and spans.OPERATORS
    for layer, name, _ in spans.FUNCTIONS:
        assert layer in spans.LAYERS, layer
        module = importlib.import_module(f"critgraph.{layer}")
        assert callable(getattr(module, name, None)), f"critgraph.{layer}.{name}"
    for _, attr, _ in spans.OPERATORS:
        assert attr in IntegerMatrix.__dict__, attr
