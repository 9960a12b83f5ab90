"""Every flagkin cache is hit by some request.

A function is cached only where a request calls it again with the same
arguments.  This test clears every cache, runs one request of each kind
in-process and names each cache that none of them hit.  The caches that
perfbench/tracer.py reports are kept for its statistics and are exempt.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import flagkin
from flagkin.cli import main

from flagkin_caches import clear_caches, flagkin_caches

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

REQUESTS = (
    ["verify", "--n", "5", "--p", "2"],
    ["table", "--n", "5", "--p", "2", "--basis", "S"],
    ["dim", "--n", "6"],
    ["basis", "--n", "5", "--k", "2"],
)


def _tracer_caches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"flagkin.{layer}.{attr}" for layer, attr in module.CACHES}


def test_every_cache_is_hit_by_a_request():
    for info in pkgutil.iter_modules(flagkin.__path__):
        importlib.import_module(f"flagkin.{info.name}")
    clear_caches()
    for request in REQUESTS:
        assert main(request) == 0, request
    exempt = _tracer_caches()
    missed = sorted(
        name for name, cache in flagkin_caches() if name not in exempt and not cache.cache_info().hits
    )
    assert missed == [], f"cached but never hit: {missed}"
