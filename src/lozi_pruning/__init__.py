"""Pruning-theoretic symbolic dynamics of the hyperbolic Lozi family."""

import importlib

from .errors import (
    BudgetExceeded,
    InsufficientWord,
    LoziError,
    NoFixedPoint,
    NonInvertible,
    NotHyperbolic,
    NotInvariant,
    WrongParams,
)
from .derivatives import (
    DerivBounds,
    a_derivative_bounds,
    b_derivative_bounds,
    cone_table,
    dp_db_at_b0,
    dq_db_at_b0,
    fd_derivative,
)
from .geometry import (
    ZERO_ENTROPY_CODES,
    FixedData,
    PlanePoint,
    PolygonReport,
    Polyline,
    ZeroEntropyScan,
    ZeroEntropyVerdict,
    classify_zero_entropy,
    fixed_data,
    homoclinic_intersects,
    lozi_apply,
    lozi_apply_inverse,
    lozi_apply_n,
    lyapunov_delta,
    polygon_invariance,
    scan_zero_entropy,
    stable_manifold,
    unstable_manifold,
)
from .pruning import (
    PGM_ADMISSIBLE,
    PGM_PRUNED,
    PGM_UNKNOWN,
    Params,
    Raster,
    classify_words,
    closed_form_q,
    eval_p,
    eval_q,
    pruned_region_raster,
    special_head,
)
from .symbolic import MINUS, PLUS
from .tent import (
    Kneading,
    check_identity_shifted,
    check_identity_sum,
    identity_tail_bound,
    kneading,
    require_slope,
    tent_entropy_lap,
    tent_lap_count,
    tent_orbit,
)

__version__ = "0.1.0"

# The front ends load on first use, so that ``python -m lozi_pruning.cli``
# does not find its own module already imported by the package.
_LAZY = {
    "cli": "cli",
    "verify": "verify",
    "RunConfig": "cli",
    "CheckResult": "verify",
    "run_checks": "verify",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)
