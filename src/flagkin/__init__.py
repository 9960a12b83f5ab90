"""flagkin: exact kinematic formulas for flag area measures.

An exact-arithmetic engine for the algebra of dual flag area measures:
the rotation algebra R[X]/I realized inside an exterior kernel, its
invariant subalgebras, the Phi/S measure bases with their duals, local
additive kinematic coefficient tables, and an independent exterior-algebra
oracle that re-derives every pairing constant.

Each exported name is imported from its module on first access, so
``import flagkin`` alone loads none of the modules.
"""

__version__ = "0.1.0"

_EXPORTS = {
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

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
