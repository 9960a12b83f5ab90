"""Every flagkin name that perfbench/tracer.py reads still resolves.

The tracer looks these names up when it installs its wrappers, so a
renamed or deleted one shows up only as a traced request that fails.
These tests read the tracer's tables and name the missing anchor.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("layer", tracer.LAYERS)
def test_layer_module_imports(layer):
    importlib.import_module(f"flagkin.{layer}")


@pytest.mark.parametrize("layer,attr", tracer.CACHES)
def test_cache_anchor_is_a_cache(layer, attr):
    fn = getattr(importlib.import_module(f"flagkin.{layer}"), attr, None)
    assert fn is not None, f"flagkin.{layer}.{attr} is missing"
    assert hasattr(fn, "cache_info"), f"flagkin.{layer}.{attr} has no cache_info"


@pytest.mark.parametrize(
    "layer,cls_name,attr",
    [(layer, cls_name, attr) for layer, cls_name, attrs in tracer.METHODS for attr in attrs],
)
def test_method_anchor_is_in_the_class_dict(layer, cls_name, attr):
    cls = getattr(importlib.import_module(f"flagkin.{layer}"), cls_name, None)
    assert cls is not None, f"flagkin.{layer}.{cls_name} is missing"
    assert attr in vars(cls), f"flagkin.{layer}.{cls_name}.{attr} is not in the class __dict__"


@pytest.mark.parametrize("attr", ["_render_tables", "_emit", "VERIFY_SUITES"])
def test_cli_anchor(attr):
    from flagkin import cli

    assert hasattr(cli, attr), f"flagkin.cli.{attr} is missing"
