"""flagkin: exact kinematic formulas for flag area measures.

An exact-arithmetic engine for the algebra of dual flag area measures:
the rotation algebra R[X]/I realized inside an exterior kernel, its
invariant subalgebras, the Phi/S measure bases with their duals, local
additive kinematic coefficient tables, and an independent exterior-algebra
oracle that re-derives every pairing constant.
"""

__version__ = "0.1.0"

from .invariant_algebras import FlagContext
from .kinematics import KinematicTable, coproduct, hug_weil_coproduct
from .measures import MeasureLabel, phi_label, s_label
from .rotation_algebra import AlgebraElement, generator, graded_dimension
from .scalars import Scalar
from .verify import verify_structure

__all__ = [
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
