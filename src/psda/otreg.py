"""Affinity regularization between original and augmented embeddings.

Three ingredients, each with a closed-form gradient in the augmented
rows:

* an entropic optimal-transport cost between the two point clouds,
  differentiated with the converged plan held fixed,
* a spectral shrinkage term that pushes down the smallest singular
  values of the cross-covariance (the same factorization yields the
  orthogonal map aligning augmented onto original), and
* one minus the cosine similarity of the mean-pooled rows.

The three are blended with convex weights, then blended again with a
task loss.  Both weight vectors must sum to one.
"""

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .errors import (
    DegenerateSpectrumWarning,
    DimensionMismatchError,
    WeightSumError,
    ZeroMassMarginalError,
    ZeroVectorError,
)
from .util import logsumexp, require_finite

WEIGHT_SUM_TOL = 1e-9
SPECTRUM_TIE_TOL = 1e-8


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances between all row pairs of x (n,d) and y (m,d).

    Computed from explicit differences, so identical rows give an exact
    zero rather than sqrt of a tiny negative from cancellation.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("point sets must be 2-D arrays")
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatchError(
            f"point sets have dims {x.shape[1]} and {y.shape[1]}"
        )
    diff = x[:, None, :] - y[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def cost_matrix(orig: np.ndarray, aug: np.ndarray, power: float = 1.0) -> np.ndarray:
    """Transport cost C[i, j] = ||orig_i - aug_j||^power over paired clouds."""
    if power <= 0:
        raise ValueError(f"power must be positive, got {power}")
    orig = np.asarray(orig, dtype=np.float64)
    aug = np.asarray(aug, dtype=np.float64)
    if orig.shape != aug.shape:
        raise DimensionMismatchError(
            f"paired clouds must share a shape, got {orig.shape} and {aug.shape}"
        )
    require_finite(orig, "original embeddings")
    require_finite(aug, "augmented embeddings")
    dist = pairwise_distances(orig, aug)
    if power == 1.0:
        return dist
    return dist**power


@dataclass
class TransportPlan:
    """Entropic transport plan, converged or best-effort.

    ``marginal_error`` is the number ``converged`` was decided on: the
    largest row-marginal deviation of the last iterate, whose columns the
    final update matched to b up to rounding.  After zero iterations the
    plan is the kernel exp(-C/eps) and the error covers rows and columns.
    """

    plan: np.ndarray
    epsilon: float
    iterations_used: int
    marginal_error: float
    converged: bool
    # every solve runs in the log domain; kept for readers of the old field
    log_domain: ClassVar[bool] = True


def _check_marginal(w, size: int, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {w.shape}")
    require_finite(w, name)
    if np.any(w < 0):
        raise ValueError(f"{name} has negative entries")
    total = float(w.sum())
    if total == 0.0:
        raise ZeroMassMarginalError(f"{name} has zero total mass")
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"{name} must sum to 1, sums to {total!r}")
    return w


def sinkhorn(
    cost: np.ndarray,
    epsilon: float,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    max_iter: int = 1000,
    tol: float = 1e-9,
) -> TransportPlan:
    """Entropic OT between discrete marginals a and b under ``cost``.

    Marginals default to uniform.  One log-domain iteration, with no
    plain-scaling path: starting from g = 0, each iteration sets

        f = eps log a - eps logsumexp_j((g_j - C_ij)/eps)
        g = eps log b - eps logsumexp_i((f_i - C_ij)/eps)

    which is the scaling iteration u = a / (K v), v = b / (K^T u) with
    K = exp(-C/eps), u = exp(f/eps), v = exp(g/eps), but stays finite
    where K underflows.  The plan is exp((f_i + g_j - C_ij)/eps).  After
    the g update the columns match b, so each iteration checks the row
    marginals alone; the row log-sum-exp that check needs is the one the
    next f update uses.  The plan is built once, at exit.

    Failure to reach ``tol`` within ``max_iter`` iterations is reported
    through ``converged=False``, never as an exception.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError("cost must be a nonempty 2-D array")
    require_finite(cost, "cost matrix")
    if np.any(cost < 0):
        raise ValueError("cost matrix has negative entries")
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    n, m = cost.shape
    a = np.full(n, 1.0 / n) if a is None else _check_marginal(a, n, "row marginal")
    b = np.full(m, 1.0 / m) if b is None else _check_marginal(b, m, "column marginal")

    # f and g below hold the potentials divided by epsilon
    neg_scaled = -cost / epsilon
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)
    f = np.zeros(n)
    g = np.zeros(m)
    row_lse = logsumexp(neg_scaled, axis=1)
    iterations = 0
    converged = False
    # These log-sum-exps need none of logsumexp's guards: a and b each have
    # a positive entry, so every column of f + neg_scaled and every row of
    # g + neg_scaled has a finite maximum and a shifted sum of at least 1.
    for iterations in range(1, max_iter + 1):
        f = log_a - row_lse
        z = f[:, None] + neg_scaled
        z_max = z.max(axis=0)
        g = log_b - z_max - np.log(np.exp(z - z_max).sum(axis=0))
        z = g + neg_scaled
        z_max = z.max(axis=1)
        row_lse = z_max + np.log(np.exp(z - z_max[:, None]).sum(axis=1))
        error = float(np.abs(np.exp(f + row_lse) - a).max())
        if error <= tol:
            converged = True
            break
    plan = np.exp(f[:, None] + g[None, :] + neg_scaled)
    if iterations == 0:
        row_error = np.abs(plan.sum(axis=1) - a).max()
        error = float(max(row_error, np.abs(plan.sum(axis=0) - b).max()))
    return TransportPlan(plan, epsilon, iterations, error, converged)


def ot_loss(plan: TransportPlan | np.ndarray, cost: np.ndarray) -> float:
    """Transport cost of the plan: the Frobenius inner product with C."""
    p = plan.plan if isinstance(plan, TransportPlan) else np.asarray(plan)
    if p.shape != cost.shape:
        raise DimensionMismatchError(f"plan shape {p.shape} vs cost shape {cost.shape}")
    return float(np.sum(p * cost))


def ot_loss_gradient(
    orig: np.ndarray,
    aug: np.ndarray,
    plan: TransportPlan | np.ndarray,
    power: float = 1.0,
) -> np.ndarray:
    """d<P, C>/d aug with the plan held fixed at its converged value.

    Each augmented row j receives sum_i P_ij * power * D_ij^(power-2) *
    (aug_j - orig_i); pairs at exactly zero distance contribute nothing
    (the zero element of the subdifferential).
    """
    orig = np.asarray(orig, dtype=np.float64)
    aug = np.asarray(aug, dtype=np.float64)
    p = plan.plan if isinstance(plan, TransportPlan) else np.asarray(plan)
    if p.shape != (orig.shape[0], aug.shape[0]):
        raise DimensionMismatchError(
            f"plan shape {p.shape} does not pair {orig.shape[0]} originals "
            f"with {aug.shape[0]} augmented rows"
        )
    dist = pairwise_distances(orig, aug)
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = p * power * dist ** (power - 2.0)
    weight[dist == 0] = 0.0
    col = weight.sum(axis=0)
    return col[:, None] * aug - weight.T @ orig


def procrustes_map(orig: np.ndarray, aug: np.ndarray):
    """Orthogonal map W minimizing ||aug @ W - orig||_F.

    Returns (w, singular_values, u, vt) from the SVD of aug^T @ orig,
    singular values in descending order.  W = U V^T depends only on the
    factors, so rescaling either cloud leaves it unchanged.
    """
    orig = np.asarray(orig, dtype=np.float64)
    aug = np.asarray(aug, dtype=np.float64)
    if orig.shape != aug.shape:
        raise DimensionMismatchError(
            f"paired clouds must share a shape, got {orig.shape} and {aug.shape}"
        )
    require_finite(orig, "original embeddings")
    require_finite(aug, "augmented embeddings")
    m = aug.T @ orig
    u, s, vt = np.linalg.svd(m)
    return u @ vt, s, u, vt


def _tail(singular_values: np.ndarray, tail_count: int) -> tuple[np.ndarray, int, bool]:
    """The k smallest singular values, ascending, with k, and whether two
    of them are near-tied (gap below SPECTRUM_TIE_TOL)."""
    s = np.asarray(singular_values, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("singular values must be a nonempty 1-D array")
    if tail_count < 1:
        raise ValueError(f"tail_count must be at least 1, got {tail_count}")
    k = min(tail_count, s.size)
    tail = np.sort(s)[:k]
    return tail, k, bool(k >= 2 and np.min(np.diff(tail)) < SPECTRUM_TIE_TOL)


def eig_shrinkage_loss(
    singular_values: np.ndarray, tail_count: int, eta: float
) -> float:
    """Negative eta-weighted energy of the k smallest singular values.

    Minimizing it inflates the weakest directions of the cross-covariance
    between the two clouds.  A near-tie (gap below 1e-8) inside the
    selected tail makes the corresponding singular vectors ambiguous, so
    that case is flagged with a DegenerateSpectrumWarning.
    """
    tail, k, tied = _tail(singular_values, tail_count)
    if tied:
        warnings.warn(
            f"near-tied singular values in the {k} smallest; "
            "their singular vectors, and hence the gradient, are not unique",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
    return float(-eta * np.sum(tail**2))


def eig_shrinkage_gradient(
    orig: np.ndarray,
    u: np.ndarray,
    vt: np.ndarray,
    singular_values: np.ndarray,
    tail_count: int,
    eta: float,
) -> np.ndarray:
    """Gradient of the shrinkage loss in the augmented rows.

    With M = aug^T @ orig = U diag(s) V^T and the factors held fixed,
    d loss / d M = -2 eta * sum over the k smallest of s_r u_r v_r^T,
    and the chain rule through M gives orig @ (d loss / d M)^T.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    _, k, _ = _tail(s, tail_count)
    idx = np.argsort(s)[:k]
    grad_m = -2.0 * eta * (u[:, idx] * s[idx]) @ vt[idx, :]
    return np.asarray(orig, dtype=np.float64) @ grad_m.T


POOL_NORM_TOL = 1e-12


def distance_shrinkage_loss(orig: np.ndarray, aug: np.ndarray) -> float:
    """One minus the cosine similarity of the mean-pooled clouds.

    Cosine is clamped into [-1, 1] against rounding, so the value always
    lands in [0, 2].
    """
    o = np.asarray(orig, dtype=np.float64).mean(axis=0)
    g = np.asarray(aug, dtype=np.float64).mean(axis=0)
    no = np.linalg.norm(o)
    ng = np.linalg.norm(g)
    if no < POOL_NORM_TOL or ng < POOL_NORM_TOL:
        raise ZeroVectorError("mean-pooled embedding has near-zero norm")
    if np.array_equal(o, g):
        # bit-identical pools are exactly parallel; skip the division so
        # the loss is an exact zero rather than an ulp above it
        return 0.0
    cos = min(1.0, max(-1.0, float((o @ g) / (no * ng))))
    return 1.0 - cos


def distance_shrinkage_gradient(orig: np.ndarray, aug: np.ndarray) -> np.ndarray:
    """Gradient of the pooled-cosine distance in the augmented rows.

    Every row gets the same 1/n share of the gradient in the pooled
    vector, since pooling is a plain mean.
    """
    orig = np.asarray(orig, dtype=np.float64)
    aug = np.asarray(aug, dtype=np.float64)
    o = orig.mean(axis=0)
    g = aug.mean(axis=0)
    no = np.linalg.norm(o)
    ng = np.linalg.norm(g)
    if no < POOL_NORM_TOL or ng < POOL_NORM_TOL:
        raise ZeroVectorError("mean-pooled embedding has near-zero norm")
    cos = (o @ g) / (no * ng)
    grad_pool = -(o / (no * ng) - cos * g / ng**2)
    return np.tile(grad_pool / aug.shape[0], (aug.shape[0], 1))


def _check_weights(weights, size: int, name: str) -> tuple[float, ...]:
    w = tuple(float(x) for x in weights)
    if len(w) != size:
        raise WeightSumError(f"{name} needs {size} weights, got {len(w)}")
    if not all(math.isfinite(x) for x in w):
        raise WeightSumError(f"{name} has non-finite entries: {w}")
    if any(x < 0 for x in w):
        raise WeightSumError(f"{name} has negative entries: {w}")
    total = sum(w)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumError(f"{name} sums to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
    return w


def compose_reg(ot: float, eig: float, dis: float, rho) -> float:
    """Convex blend of the three regularizer terms."""
    r = _check_weights(rho, 3, "regularizer weights")
    return r[0] * ot + r[1] * eig + r[2] * dis


def compose_total(task: float, reg: float, lam) -> float:
    """Convex blend of the task loss with the blended regularizer."""
    w = _check_weights(lam, 2, "total-loss weights")
    return w[0] * task + w[1] * reg


@dataclass(frozen=True)
class OtParams:
    """Knobs of the affinity regularizer with its default operating point."""

    epsilon: float = 0.1
    tail_count: int = 300
    eta: float = 0.001
    rho: tuple[float, float, float] = (0.4, 0.2, 0.4)
    lam: tuple[float, float] = (0.5, 0.5)
    power: float = 1.0
    max_iter: int = 1000
    tol: float = 1e-9

    def __post_init__(self):
        _check_weights(self.rho, 3, "regularizer weights")
        _check_weights(self.lam, 2, "total-loss weights")
        if not (self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.eta < 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if self.tail_count < 1:
            raise ValueError(f"tail_count must be at least 1, got {self.tail_count}")
        if not (self.power > 0):
            raise ValueError(f"power must be positive, got {self.power}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")


@dataclass
class LossBreakdown:
    """Every term of one regularizer evaluation, plus its gradient.

    ``grad_augmented`` is the gradient of ``loss_reg`` in the augmented
    rows; the total-loss gradient is ``lam[1]`` times it, since the task
    loss does not depend on the augmented embeddings here.
    """

    loss_ot: float
    loss_eig: float
    loss_dis: float
    loss_reg: float
    loss_total: float
    task_loss: float
    grad_augmented: np.ndarray
    rho: tuple[float, float, float]
    lam: tuple[float, float]
    tail_count: int
    sinkhorn_iterations: int = 0
    sinkhorn_marginal_error: float = 0.0
    sinkhorn_converged: bool = True


def affinity_regularization(
    orig: np.ndarray,
    aug: np.ndarray,
    params: OtParams = OtParams(),
    task_loss: float = 0.0,
) -> LossBreakdown:
    """Evaluate all terms between paired original and augmented clouds."""
    orig = np.asarray(orig, dtype=np.float64)
    aug = np.asarray(aug, dtype=np.float64)
    if orig.shape != aug.shape:
        raise DimensionMismatchError(
            f"paired clouds must share a shape, got {orig.shape} and {aug.shape}"
        )
    if orig.ndim != 2 or orig.shape[0] == 0:
        raise ValueError("clouds must be nonempty 2-D arrays")

    cost = cost_matrix(orig, aug, power=params.power)
    plan = sinkhorn(
        cost, params.epsilon, max_iter=params.max_iter, tol=params.tol
    )
    l_ot = ot_loss(plan, cost)
    g_ot = ot_loss_gradient(orig, aug, plan, power=params.power)

    _, s, u, vt = procrustes_map(orig, aug)
    k = min(params.tail_count, s.size)
    l_eig = eig_shrinkage_loss(s, k, params.eta)
    g_eig = eig_shrinkage_gradient(orig, u, vt, s, k, params.eta)

    l_dis = distance_shrinkage_loss(orig, aug)
    g_dis = distance_shrinkage_gradient(orig, aug)

    l_reg = compose_reg(l_ot, l_eig, l_dis, params.rho)
    l_total = compose_total(task_loss, l_reg, params.lam)
    grad = params.rho[0] * g_ot + params.rho[1] * g_eig + params.rho[2] * g_dis

    return LossBreakdown(
        loss_ot=l_ot,
        loss_eig=l_eig,
        loss_dis=l_dis,
        loss_reg=l_reg,
        loss_total=l_total,
        task_loss=task_loss,
        grad_augmented=grad,
        rho=params.rho,
        lam=params.lam,
        tail_count=k,
        sinkhorn_iterations=plan.iterations_used,
        sinkhorn_marginal_error=plan.marginal_error,
        sinkhorn_converged=plan.converged,
    )
