"""Public names: every export resolves, and star-imports work."""

import importlib
import pathlib
import re

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


def test_every_module_name_the_readme_cites_resolves():
    # each backticked `<module>.<name>` of the eight modules, as in `kernel.MAX_POINT_WORK = 2^24`
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cited = set(re.findall(rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*)", readme))
    assert cited
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"tanhqi.{module}"), name)]
    assert missing == []
