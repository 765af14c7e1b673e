"""Acceptance suite: one test per numbered criterion, full scale.

Each test runs its criterion through `verify.run_checks`, the same path the
verify subcommand takes, so a pristine checkout passing here also passes
`lozi verify`. Tests assert the pass flag and, where the criterion carries
one, the wall-clock budget.
"""

import dataclasses
import time

from lozi_pruning import verify
from lozi_pruning.cli import RunConfig

CONFIG = RunConfig(command="verify", seed=0)


def run(index: int, budget: float | None = None) -> verify.CheckResult:
    config = dataclasses.replace(CONFIG, criteria=str(index))
    t0 = time.perf_counter()
    (result,) = verify.run_checks(config)
    elapsed = time.perf_counter() - t0
    assert result.passed, f"criterion {index} ({result.name}): {result.detail}"
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {index} took {elapsed:.1f}s, budget {budget:.0f}s"
        )
    return result


def test_criterion_01_closed_form_series_within_reported_error():
    run(1, budget=10.0)


def test_criterion_02_alternating_head_is_the_maximum():
    run(2)


def test_criterion_03_full_slope_raster_is_blank():
    run(3, budget=120.0)


def test_criterion_04_derivative_anchor_values():
    run(4)


def test_criterion_05_two_sided_bounds_hold_for_every_tail():
    run(5)


def test_criterion_06_kneading_identities_under_tail_bounds():
    run(6)


def test_criterion_07_entropy_brackets_trap_known_values():
    run(7, budget=300.0)


def test_criterion_08_upper_bound_monotone_in_slope():
    run(8)


def test_criterion_09_plane_geometry_anchors():
    run(9)


def test_criterion_10_zero_entropy_atlas():
    run(10, budget=600.0)


def test_criterion_11_orbit_windows_never_pruned():
    run(11)


def test_criterion_12_verify_artifacts_reproducible():
    run(12)
