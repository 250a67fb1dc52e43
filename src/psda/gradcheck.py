"""Finite-difference verification of the regularizer gradients.

Each of otreg's term functions returns (loss, gradient in the augmented
rows); each gradient is checked against central differences of the loss
the same function returns:

* ``transport_term``: the plan is converged once at the base point and
  then held fixed while the augmented rows move,
* ``spectral_term``: the shipped loss of the moved cloud, in closed form
  when the tail covers all ``dim`` singular values (the default tail of
  300 does) and over the core spectrum otherwise; the check is skipped
  when the term warns at the base point of a near-tied tail boundary,
  where the loss has a kink,
* ``distance_shrinkage``: differentiated directly.

Errors are relative, with an absolute floor tied to the rounding error
of the central differences (``fd_rounding``), so a gradient that is
exactly zero is not failed on that rounding alone.

A deliberate corruption hook scales one analytic gradient by 1%, giving
a negative control that must fail the tolerance.
"""

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateSpectrumWarning
from .otreg import (
    OtParams,
    cost_matrix,
    distance_shrinkage,
    sinkhorn,
    spectral_term,
    transport_term,
)
from .util import derive_seed

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
TERMS = ("ot", "eig", "dis")


def fd_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of a scalar function, one entry at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] = x[idx] + step
        hi = fn(bumped)
        bumped[idx] = x[idx] - step
        lo = fn(bumped)
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def fd_rounding(value: float, step: float, size: int) -> float:
    """Norm of the rounding error in a central-difference gradient.

    Each quotient (f(x + h) - f(x - h)) / 2h carries an error of about
    eps |f| / h, eps the machine epsilon, so ``size`` entries carry about
    sqrt(size) eps |f| / h.  |f| counts as at least 1: a term such as
    1 - cos is formed from values of size 1 even where it is near zero.
    """
    return math.sqrt(size) * np.finfo(np.float64).eps * max(abs(value), 1.0) / step


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 0.0) -> float:
    """Norm of the difference over the larger of the two norms, or over
    ``floor`` when both are smaller.  The floor keeps a gradient that is
    exactly zero from failing on the rounding error of its finite
    differences: with floor = fd_rounding(...) / tolerance, a difference
    that is all rounding stays within the tolerance."""
    scale = max(
        np.linalg.norm(analytic), np.linalg.norm(numeric), floor, np.finfo(np.float64).tiny
    )
    return float(np.linalg.norm(analytic - numeric) / scale)


@dataclass
class TermCheck:
    instance: int
    term: str
    relative_error: float
    passed: bool
    skipped: bool = False
    reason: str = ""


@dataclass
class GradCheckReport:
    instances: int
    step: float
    tolerance: float
    checks: list[TermCheck] = field(default_factory=list)

    @property
    def max_error(self) -> dict[str, float]:
        out = {term: 0.0 for term in TERMS}
        for c in self.checks:
            if not c.skipped:
                out[c.term] = max(out[c.term], c.relative_error)
        return out

    @property
    def all_passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)


def _check_instance(
    orig: np.ndarray,
    aug: np.ndarray,
    params: OtParams,
    step: float,
    tolerance: float,
    corrupt: Optional[str],
    instance: int,
) -> list[TermCheck]:
    cost = cost_matrix(orig, aug, power=params.power)
    plan = sinkhorn(cost, params.epsilon, max_iter=params.max_iter, tol=params.tol)
    terms = {
        "ot": lambda a: transport_term(orig, a, plan, params.power),
        "eig": lambda a: spectral_term(orig, a, params.tail_count, params.eta),
        "dis": lambda a: distance_shrinkage(orig, a),
    }
    checks = []
    for term, fn in terms.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegenerateSpectrumWarning)
            value, analytic = fn(aug)
        if any(issubclass(w.category, DegenerateSpectrumWarning) for w in caught):
            checks.append(
                TermCheck(instance, term, 0.0, True, skipped=True, reason="near-tied tail boundary")
            )
            continue
        if corrupt == term:
            analytic = analytic * 1.01
        with warnings.catch_warnings():
            # a moved cloud may tie where the base point does not
            warnings.simplefilter("ignore", DegenerateSpectrumWarning)
            numeric = fd_gradient(lambda a: fn(a)[0], aug, step)
        err = relative_error(analytic, numeric, fd_rounding(value, step, aug.size) / tolerance)
        checks.append(TermCheck(instance, term, err, err <= tolerance))
    return checks


def run_gradcheck(
    instances: int = 20,
    rows: int = 6,
    dim: int = 4,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = 0,
    params: Optional[OtParams] = None,
    corrupt: Optional[str] = None,
) -> GradCheckReport:
    """Check all three gradients on seeded random paired clouds.

    ``corrupt`` names a term whose analytic gradient is scaled by 1.01
    before comparison; the report for that term must then fail, which
    demonstrates the harness has teeth.

    The spectral check runs on any shape and checks whichever path
    ``spectral_term`` takes: the closed form when ``params.tail_count``
    is at least ``dim``, the factorized tail otherwise, where with
    rows < dim it covers the rows nonzero singular values of the
    cross-covariance.  It is skipped only for a near-tie at the tail's
    boundary, which random clouds almost never produce.
    """
    for name, count in (("instances", instances), ("rows", rows), ("dim", dim)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    for name, value in (("step", step), ("tolerance", tolerance)):
        if not (0.0 < value < math.inf):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if corrupt is not None and corrupt not in TERMS:
        raise ValueError(f"corrupt must be one of {TERMS}, got {corrupt!r}")
    params = params or OtParams()
    report = GradCheckReport(instances=instances, step=step, tolerance=tolerance)
    for i in range(instances):
        rng = np.random.default_rng(derive_seed(seed, "gradcheck", i))
        orig = rng.normal(size=(rows, dim))
        aug = rng.normal(size=(rows, dim))
        report.checks.extend(
            _check_instance(orig, aug, params, step, tolerance, corrupt, i)
        )
    return report
