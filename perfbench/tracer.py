"""Run one flagkin CLI request with every layer boundary traced.

Usage: ``PYTHONPATH=src python perfbench/tracer.py OUT.json <flagkin args...>``

The request runs exactly as ``python -m flagkin.cli <args>`` would, with the
same stdout, stderr and exit code.  Before it runs, every public function of
each ``flagkin`` module, a few operator methods (``Scalar`` arithmetic,
``Multivector.wedge``, ``SparseEchelon.add/reduce``,
``AlgebraElement.__mul__``), the verify suites and the CLI renderers are
replaced by timing wrappers.  Modules import each other's functions by name,
so each wrapper replaces the name in every module that holds it.  The
wrappers keep per-function call counts, total and self time, and a span
(name, parent span, start, end) per call of the coarse functions; the hot
scalar, exterior and echelon calls are aggregated only, since one request
makes up to millions of them.  When the request ends, all of it is written
to OUT.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "cli",
    "kinematics",
    "measures",
    "invariant_algebras",
    "rotation_algebra",
    "grassmann_oracle",
    "exterior",
    "linalg",
    "scalars",
)

# Operator methods timed as their own spans; __radd__/__rmul__ share the
# function object of __add__/__mul__ and are counted under that name.
METHODS = (
    ("scalars", "Scalar", ("__post_init__", "__add__", "__radd__", "__sub__", "__rsub__",
                           "__neg__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                           "__pow__")),
    ("exterior", "Multivector", ("wedge",)),
    ("linalg", "SparseEchelon", ("add", "reduce")),
    ("rotation_algebra", "AlgebraElement", ("__mul__",)),
)

# Aggregated only: no span per call.
HOT_LAYERS = ("scalars", "exterior")
HOT_FUNCTIONS = (
    "linalg.SparseEchelon.add",
    "linalg.SparseEchelon.reduce",
    "rotation_algebra.AlgebraElement.__mul__",
)

# lru_caches whose hits and misses are reported.
CACHES = (
    ("invariant_algebras", "embed_monomial"),
    ("kinematics", "coproduct_tables"),
    ("rotation_algebra", "_chord_columns"),
    ("rotation_algebra", "_dalpha_image_columns"),
)


class Tracer:
    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters = {"exterior.blade_nonzero": 0, "linalg.echelon_gains": 0}
        self.spans: list = []
        self.stack: list = [[0.0, -1]]  # frames: [child seconds, id of nearest stored span]
        self.caches: dict[str, object] = {}

    def wrap(self, name: str, fn, store: bool, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if store:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if store:
                    spans[sid] = (name, parent[1], t0 - self.start, t1 - self.start)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, key: str, test):
        def on_result(result):
            if test(result):
                self.counters[key] += 1

        return on_result

    def install(self) -> None:
        import flagkin

        modules = {layer: importlib.import_module(f"flagkin.{layer}") for layer in LAYERS}
        for layer, attr in CACHES:
            self.caches[f"{layer}.{attr}"] = getattr(modules[layer], attr)

        special = {
            "exterior.wedge_blades": self._count("exterior.blade_nonzero", lambda r: r[0] != 0),
            "linalg.SparseEchelon.add": self._count("linalg.echelon_gains", bool),
        }
        replace: dict[int, tuple] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
                if attr.startswith("_") or not public or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                store = layer not in HOT_LAYERS
                replace[id(obj)] = (obj, self.wrap(name, obj, store, special.get(name)))
        cli = modules["cli"]
        for attr in ("_render_tables", "_emit"):
            obj = getattr(cli, attr)
            replace[id(obj)] = (obj, self.wrap(f"cli.{attr}", obj, True))
        for ns in [flagkin, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])

        cli.VERIFY_SUITES = tuple(
            (suite, self.wrap(f"cli.suite.{suite}", fn, True)) for suite, fn in cli.VERIFY_SUITES
        )
        for layer, cls_name, attrs in METHODS:
            cls = getattr(modules[layer], cls_name)
            for attr in attrs:
                fn = cls.__dict__[attr]
                name = f"{layer}.{cls_name}.{fn.__name__}"
                store = layer not in HOT_LAYERS and name not in HOT_FUNCTIONS
                setattr(cls, attr, self.wrap(name, fn, store, special.get(name)))

    def dump(self, path: str, argv: list, import_s: float, exit_code) -> None:
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        data = {
            "argv": argv,
            "exit_code": exit_code,
            "import_s": import_s,
            "functions": self.stats,
            "counters": self.counters,
            "caches": caches,
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import flagkin.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = flagkin.cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --version
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, argv, import_s, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
