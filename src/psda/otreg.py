"""Affinity regularization between original and augmented embeddings.

Three ingredients, each with a closed-form gradient in the augmented
rows:

* an entropic optimal-transport cost between the two point clouds,
  differentiated with the converged plan held fixed,
* a spectral shrinkage term that pushes down the smallest singular
  values of the cross-covariance, taken from thin factors of rank at
  most the number of rows, and
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


def _paired(orig: np.ndarray, aug: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both clouds as float64, checked to share a shape and be finite."""
    orig = np.asarray(orig, dtype=np.float64)
    aug = np.asarray(aug, dtype=np.float64)
    if orig.shape != aug.shape:
        raise DimensionMismatchError(
            f"paired clouds must share a shape, got {orig.shape} and {aug.shape}"
        )
    require_finite(orig, "original embeddings")
    require_finite(aug, "augmented embeddings")
    return orig, aug


def cost_matrix(orig: np.ndarray, aug: np.ndarray, power: float = 1.0) -> np.ndarray:
    """Transport cost C[i, j] = ||orig_i - aug_j||^power over paired clouds."""
    if power <= 0:
        raise ValueError(f"power must be positive, got {power}")
    dist = pairwise_distances(*_paired(orig, aug))
    return dist if power == 1.0 else dist**power


@dataclass
class TransportPlan:
    """Entropic transport plan, converged or best-effort.

    ``marginal_error`` is the number ``converged`` was decided on: the
    largest row-marginal deviation of the returned plan, whose columns
    match b up to rounding.  After zero iterations the plan is the kernel
    exp(-C/eps) and the error covers rows and columns.
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


# Plain iterations before the Newton finish: enough to leave the far
# field, where a Newton step on the semi-dual buys little.
WARMUP_ITERATIONS = 20
# Newton damping relative to the residual norm, the Armijo constant, and
# the step halvings tried before falling back to a plain iteration.
NEWTON_DAMPING = 1e-3
ARMIJO = 1e-4
MAX_HALVINGS = 30


def _columns_matched(f: np.ndarray, neg_scaled: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The plan exp(f_i + g_j - C_ij/eps) with g eliminated so that every
    column sums to b_j: column j is b_j times the softmax of f + column j."""
    z = f[:, None] + neg_scaled
    e = np.exp(z - z.max(axis=0))
    return e * (b / e.sum(axis=0))


def _newton_step(f, plan, a, b):
    """One damped Newton step on the semi-dual, or None if the Armijo
    backtracking fails.

    F(f) = <f, a> + <g(f), b> with g(f) the column elimination is concave,
    with gradient a - P1 and negative Hessian diag(P1) - P diag(1/b) P^T,
    singular along the constant vector (the gauge f + c, g - c).  The step
    d solves that Hessian plus mu I + 11^T/n, mu = NEWTON_DAMPING |a - P1|,
    for the gradient.  Near the optimum the gain F(f + t d) - F(f) lies
    far below the rounding of F, so it is computed directly as
    t <a, d> - sum_j b_j log(sum_i pi_ij exp(t d_i)), with pi the plan
    divided by b (each column sums to 1).
    """
    n = a.size
    row_sums = plan.sum(axis=1)
    grad = a - row_sums
    pi = plan / b
    hess = np.diag(row_sums) - pi @ plan.T
    hess += NEWTON_DAMPING * np.linalg.norm(grad) * np.eye(n) + 1.0 / n
    step = np.linalg.solve(hess, grad)
    slope = float(grad @ step)
    if not slope > 0:
        return None
    a_step = float(a @ step)
    t = 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(MAX_HALVINGS):
            shift = pi.T @ np.expm1(t * step)
            gain = t * a_step - float(b @ np.log1p(shift))
            # a column whose mass underflows gives an infinite gain: too far
            if math.isfinite(gain) and gain >= ARMIJO * t * slope:
                return f + t * step
            t *= 0.5
    return None


def sinkhorn(
    cost: np.ndarray,
    epsilon: float,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    max_iter: int = 1000,
    tol: float = 1e-9,
) -> TransportPlan:
    """Entropic OT between discrete marginals a and b under ``cost``.

    Marginals default to uniform.  With the potentials f, g kept divided
    by eps, the plan is exp(f_i + g_j - C_ij/eps).  Two phases share the
    budget of ``max_iter`` iterations:

    * a warm-up of up to WARMUP_ITERATIONS log-domain Sinkhorn iterations
      from g = 0, each setting

          f = log a - logsumexp_j(g_j - C_ij/eps)
          g = log b - logsumexp_i(f_i - C_ij/eps),

      the scaling iteration u = a / (K v), v = b / (K^T u) kept finite
      where K = exp(-C/eps) underflows;
    * a damped Newton finish on the semi-dual in f, with g eliminated by
      the column log-sum-exp so every column matches b (Brauer, Clason,
      Lorenz & Wirth 2017, "A Sinkhorn-Newton method for entropic optimal
      transport").  Each step solves an n x n system and backtracks with
      an Armijo rule; a step whose backtracking fails is replaced by one
      warm-up iteration.

    Both phases stop as soon as the row error of the plan is within
    ``tol``; the columns match b up to rounding throughout, so the row
    error is the marginal error.  The solve runs on the support of a and
    b: rows and columns of zero mass get exactly zero plan entries.

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

    neg_scaled = -cost / epsilon
    if max_iter == 0:
        plan = np.exp(neg_scaled)
        error = float(max(np.abs(plan.sum(axis=1) - a).max(), np.abs(plan.sum(axis=0) - b).max()))
        return TransportPlan(plan, epsilon, 0, error, error <= tol)

    rows, cols = np.flatnonzero(a), np.flatnonzero(b)
    support = rows.size < n or cols.size < m
    if support:
        neg_scaled, a, b = neg_scaled[np.ix_(rows, cols)], a[rows], b[cols]
    log_a, log_b = np.log(a), np.log(b)

    # Warm-up.  These log-sum-exps need none of logsumexp's guards: every
    # entry of a and b is positive here, so every column of f + neg_scaled
    # and every row of g + neg_scaled has a finite maximum.
    row_lse = logsumexp(neg_scaled, axis=1)
    for iterations in range(1, min(max_iter, WARMUP_ITERATIONS) + 1):
        f = log_a - row_lse
        z = f[:, None] + neg_scaled
        z_max = z.max(axis=0)
        g = log_b - z_max - np.log(np.exp(z - z_max).sum(axis=0))
        z = g + neg_scaled
        z_max = z.max(axis=1)
        row_lse = z_max + np.log(np.exp(z - z_max[:, None]).sum(axis=1))
        error = float(np.abs(np.exp(f + row_lse) - a).max())
        if error <= tol:
            break
    if error <= tol or iterations == max_iter:
        # a solve the warm-up ends returns the plain loop's plan bit for bit
        plan = np.exp(f[:, None] + g[None, :] + neg_scaled)
    else:
        plan = _columns_matched(f, neg_scaled, b)
        error = float(np.abs(plan.sum(axis=1) - a).max())
    while error > tol and iterations < max_iter:
        iterations += 1
        stepped = _newton_step(f, plan, a, b)
        if stepped is None:
            g = log_b - logsumexp(f[:, None] + neg_scaled, axis=0)
            stepped = log_a - logsumexp(g + neg_scaled, axis=1)
        f = stepped
        plan = _columns_matched(f, neg_scaled, b)
        error = float(np.abs(plan.sum(axis=1) - a).max())

    if support:
        full = np.zeros((n, m))
        full[np.ix_(rows, cols)] = plan
        plan = full
    return TransportPlan(plan, epsilon, iterations, error, error <= tol)


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
    return _ot_gradient(orig, aug, p, pairwise_distances(orig, aug), power)


def _ot_gradient(orig, aug, plan, dist, power):
    """ot_loss_gradient given the pairwise distances of the two clouds."""
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = plan * power * dist ** (power - 2.0)
    weight[dist == 0] = 0.0
    col = weight.sum(axis=0)
    return col[:, None] * aug - weight.T @ orig


def procrustes_map(orig: np.ndarray, aug: np.ndarray):
    """Orthogonal map W minimizing ||aug @ W - orig||_F.

    Returns (w, singular_values, u, vt) from the SVD of aug^T @ orig,
    singular values in descending order.  W = U V^T depends only on the
    factors, so rescaling either cloud leaves it unchanged.
    """
    orig, aug = _paired(orig, aug)
    u, s, vt = np.linalg.svd(aug.T @ orig)
    return u @ vt, s, u, vt


def _thin_spectrum(orig: np.ndarray, aug: np.ndarray):
    """Spectrum of M = aug^T @ orig without a d x d factorization.

    With thin QRs aug^T = Q_a R_a and orig^T = Q_o R_o, M = Q_a (R_a R_o^T)
    Q_o^T, so the SVD of the r x r core (r = min(n, d)) holds every
    nonzero singular value.  Returns (spectrum, s, u, vt): the d singular
    values, the core's r in descending order followed by d - r zeros;
    the core's r alone; and their thin factors u = Q_a U_c (d, r) and
    vt = V_c^T Q_o^T (r, d).
    """
    q_a, r_a = np.linalg.qr(aug.T)
    q_o, r_o = np.linalg.qr(orig.T)
    u_c, s, vt_c = np.linalg.svd(r_a @ r_o.T)
    spectrum = np.concatenate([s, np.zeros(orig.shape[1] - s.size)])
    return spectrum, s, q_a @ u_c, vt_c @ q_o.T


def _thin_tail_count(spectrum: np.ndarray, s: np.ndarray, k: int) -> int:
    """How many of the k smallest of ``spectrum`` are singular values of
    the core: the tail takes the d - r zeros first.  Below 1 when the
    zeros fill the tail."""
    return k - (spectrum.size - s.size)


def _thin_tail_gradient(orig, spectrum, s, u, vt, k: int, eta: float) -> np.ndarray:
    """eig_shrinkage_gradient for the k smallest of ``spectrum``, from the
    thin factors of ``_thin_spectrum``; zero singular values add nothing."""
    thin_k = _thin_tail_count(spectrum, s, k)
    if thin_k < 1:
        return np.zeros((orig.shape[0], u.shape[0]))
    return eig_shrinkage_gradient(orig, u, vt, s, thin_k, eta)


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
    orig, aug = _paired(orig, aug)
    if orig.ndim != 2 or orig.shape[0] == 0:
        raise ValueError("clouds must be nonempty 2-D arrays")

    # one n x n x d difference serves the cost and the transport gradient
    dist = pairwise_distances(orig, aug)
    cost = dist if params.power == 1.0 else dist**params.power
    plan = sinkhorn(
        cost, params.epsilon, max_iter=params.max_iter, tol=params.tol
    )
    l_ot = ot_loss(plan, cost)
    g_ot = _ot_gradient(orig, aug, plan.plan, dist, params.power)

    spectrum, s, u, vt = _thin_spectrum(orig, aug)
    k = min(params.tail_count, spectrum.size)
    l_eig = eig_shrinkage_loss(spectrum, k, params.eta)
    g_eig = _thin_tail_gradient(orig, spectrum, s, u, vt, k, params.eta)

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
