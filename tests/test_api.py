"""Public names: every export resolves, and star-imports work."""

import importlib

import pytest

import tanhqi

MODULES = ("activation", "kernel", "operators", "fractional", "manifold", "analysis",
           "presets", "cli")


@pytest.mark.parametrize("module", ["tanhqi", *(f"tanhqi.{m}" for m in MODULES)])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    namespace = {}
    exec("from tanhqi import *", namespace)
    assert set(tanhqi.__all__) <= set(namespace)
