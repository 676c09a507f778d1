"""The benchmark's traced runs wrap library functions and methods by name
(perfbench/tracing.py); a name that no longer resolves makes
``perfbench/run.py --trace 1`` fail before it measures anything."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for name, module_name, class_name, attr in tracing.TRACED:
        module = importlib.import_module(f"maxplushybrid.{module_name}")
        if class_name is None:
            assert callable(getattr(module, attr, None)), name
        else:
            # install() wraps the class's own attribute, not an inherited one
            assert attr in vars(getattr(module, class_name)), f"{name}: {class_name}.{attr}"
