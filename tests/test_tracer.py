"""The benchmark's tracer (``perfbench/tracer.py``) patches library
functions by name. These tests install and uninstall it, so a rename or a
merge in the library that breaks ``perfbench/run.py --trace 1`` fails here
first."""

import importlib
import sys
from pathlib import Path

import pytest

import denoiseclf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def _library_namespaces():
    """Every module namespace of the package and every class namespace in
    it, as {owner name: {attribute: object}} snapshots."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != denoiseclf.__name__:
            continue
        found[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                found[f"{name}.{attr}"] = dict(vars(value))
    return found


def _changed(before, after):
    return sorted(f"{owner}.{attr}" for owner, attrs in before.items()
                  for attr, value in attrs.items()
                  if after.get(owner, {}).get(attr) is not value)


def test_install_patches_and_uninstall_restores_everything(tracer_module):
    for modname, _ in tracer_module.SPANS:
        importlib.import_module(f"{denoiseclf.__name__}.{modname}")
    before = _library_namespaces()
    tracer = tracer_module.Tracer("t")
    try:
        tracer.install()
        patched = _changed(before, _library_namespaces())
    finally:
        tracer.uninstall()
    assert "denoiseclf.data.atomic_write_text" in patched
    assert "denoiseclf.tensor.Tensor.backward" in patched
    assert "denoiseclf.tensor.matmul" in patched
    assert _changed(before, _library_namespaces()) == []


def test_a_text_write_is_one_span(tracer_module, tmp_path):
    from denoiseclf import data
    tracer = tracer_module.Tracer("t")
    try:
        tracer.install()
        data.atomic_write_text(tmp_path / "f.txt", "payload")
        data.atomic_write_bytes(tmp_path / "f.bin", b"payload")
    finally:
        tracer.uninstall()
    names = [tracer.names[record[0]] for record in tracer.spans]
    assert names == ["data.atomic_write_text", "data.atomic_write_bytes"]
    assert [record[3] for record in tracer.spans] == [-1, -1]
