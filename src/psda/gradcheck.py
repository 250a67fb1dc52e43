"""Finite-difference verification of the regularizer gradients.

Each analytic gradient is checked against central differences of the
objective it is documented to differentiate:

* transport term: the plan is converged once at the base point and then
  held fixed while the augmented rows move,
* spectral term: the singular factors of the r x r core from the base
  point are held fixed, so the objective is the smooth quadratic whose
  exact gradient the analytic formula gives (the d - r structural zeros
  contribute nothing to either); it is skipped only when two nonzero
  tail values are near-tied,
* pooled-cosine term: differentiated directly.

Errors are relative, with an absolute floor tied to the rounding error
of the central differences (``fd_rounding``), so a gradient that is
exactly zero is not failed on that rounding alone.

A deliberate corruption hook scales one analytic gradient by 1%, giving
a negative control that must fail the tolerance.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .otreg import (
    OtParams,
    _core_spectrum,
    _tail,
    cost_matrix,
    distance_shrinkage_gradient,
    distance_shrinkage_loss,
    eig_shrinkage_gradient,
    ot_loss_gradient,
    sinkhorn,
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
    checks = []

    def record(term, analytic, objective):
        if corrupt == term:
            analytic = analytic * 1.01
        floor = fd_rounding(objective(aug), step, aug.size) / tolerance
        err = relative_error(analytic, fd_gradient(objective, aug, step), floor)
        checks.append(TermCheck(instance, term, err, err <= tolerance))

    cost = cost_matrix(orig, aug, power=params.power)
    plan = sinkhorn(cost, params.epsilon, max_iter=params.max_iter, tol=params.tol)

    def ot_objective(a):
        return float(np.sum(plan.plan * cost_matrix(orig, a, power=params.power)))

    record("ot", ot_loss_gradient(orig, aug, plan, power=params.power), ot_objective)

    s, u, vt, k = _core_spectrum(orig, aug, params.tail_count)
    if k >= 1 and _tail(s, k)[2]:
        checks.append(
            TermCheck(instance, "eig", 0.0, True, skipped=True, reason="near-tied tail spectrum")
        )
    else:
        idx = np.argsort(s)[: max(k, 0)]

        def eig_objective(a):
            m = a.T @ orig
            vals = np.einsum("dr,de,er->r", u[:, idx], m, vt[idx, :].T)
            return float(-params.eta * np.sum(vals**2))

        if k >= 1:
            analytic = eig_shrinkage_gradient(orig, u, vt, s, k, params.eta)
        else:
            analytic = np.zeros_like(aug)
        record("eig", analytic, eig_objective)

    def dis_objective(a):
        return distance_shrinkage_loss(orig, a)

    record("dis", distance_shrinkage_gradient(orig, aug), dis_objective)
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

    The spectral check runs on any shape: with rows < dim it covers the
    rows nonzero singular values of the cross-covariance.  It is skipped
    only for a near-tie between two nonzero tail values, which random
    clouds almost never produce.
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
