"""The package's exports: the same names as before, imported on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagkin

EXPORTS = [
    "AlgebraElement",
    "FlagContext",
    "KinematicTable",
    "MeasureLabel",
    "Scalar",
    "__version__",
    "coproduct",
    "generator",
    "graded_dimension",
    "hug_weil_coproduct",
    "phi_label",
    "s_label",
    "verify_structure",
]

HOMES = {
    "AlgebraElement": "rotation_algebra",
    "FlagContext": "invariant_algebras",
    "KinematicTable": "kinematics",
    "MeasureLabel": "measures",
    "Scalar": "scalars",
    "coproduct": "kinematics",
    "generator": "grassmann_oracle",
    "graded_dimension": "rotation_algebra",
    "hug_weil_coproduct": "kinematics",
    "phi_label": "measures",
    "s_label": "measures",
    "verify_structure": "verify",
}


def test_all_is_unchanged():
    assert flagkin.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_resolves_to_its_module_attribute(name):
    value = getattr(flagkin, name)
    if name == "__version__":
        assert value == "0.1.0"
    else:
        assert value is getattr(importlib.import_module(f"flagkin.{HOMES[name]}"), name)
    assert name in dir(flagkin)


def test_star_import():
    namespace = {}
    exec("from flagkin import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(EXPORTS)
    assert namespace["coproduct"] is flagkin.kinematics.coproduct


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError):
        flagkin.no_such_name


def test_importing_the_package_loads_no_module():
    src = str(Path(flagkin.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, flagkin; print(sorted(m for m in sys.modules if m.startswith('flagkin')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "['flagkin']\n"
