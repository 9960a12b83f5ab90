"""Every lru_cache of the loaded flagkin modules, found by one walk.

Tests that patch a function beneath a cache clear them all around the
patch, and test_caches checks that some request hits each one.
"""

import sys


def flagkin_caches():
    """(module.name, cache) for each cached function, under the module that defines it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("flagkin"):
            for attr, value in vars(module).items():
                if callable(getattr(value, "cache_info", None)) and value.__module__ == name:
                    yield f"{name}.{attr}", value


def clear_caches():
    for _, cache in flagkin_caches():
        cache.cache_clear()
