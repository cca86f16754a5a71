"""Circle packings from reflection groups, in inversive coordinates.

The library builds base/dual circle configurations (square, triangular,
hexagonal, Apollonian, and seventeen wallpaper refinements), enumerates their
reflection-group orbits with exact arithmetic, and checks the geometric and
arithmetic invariants those packings are supposed to satisfy.
"""

from .exact import FieldMismatchError, QuadExt, parse_scalar
from .inversive import (
    InversiveCircle,
    PairClass,
    PlanarIsometry,
    apply_isometry,
    classify_pair,
    from_center_radius,
    from_line,
    inversive_product,
    reflect,
)

__version__ = "0.1.0"

__all__ = [
    "FieldMismatchError",
    "QuadExt",
    "parse_scalar",
    "InversiveCircle",
    "PairClass",
    "PlanarIsometry",
    "apply_isometry",
    "classify_pair",
    "from_center_radius",
    "from_line",
    "inversive_product",
    "reflect",
    "__version__",
]
