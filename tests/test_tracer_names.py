"""The benchmark's tracer (``perfbench/tracing.py``) wraps crowdtag methods
and observes crowdtag functions by name; renaming or deleting one would make
its metric read 0 without failing a run. These tests load the tracer from its
file, without writing to its directory, and check that every name exists."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_method_the_tracer_wraps_is_defined_on_its_class(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.METHODS
    for layer, classes in tracing.METHODS.items():
        assert layer in tracing.LAYERS
        module = importlib.import_module(f"crowdtag.{layer}")
        for cls_name, methods in classes.items():
            cls = vars(module)[cls_name]
            for name in methods:
                assert name in vars(cls), f"crowdtag.{layer}.{cls_name}.{name}"


def test_every_call_the_tracer_observes_exists(monkeypatch):
    tracing = load_tracing(monkeypatch)
    for name in tracing.OBSERVERS:
        layer, *path = name.split(".")
        target = importlib.import_module(f"crowdtag.{layer}")
        for part in path:
            target = vars(target)[part]
        assert inspect.isfunction(target), name
