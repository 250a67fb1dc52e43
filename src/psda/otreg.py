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

``score_block`` evaluates a block of pairs that share a shape: the
Sinkhorn solve is stacked across the block, everything else runs pair by
pair.  A pair's result is bit for bit the same in any block, and
``affinity_regularization`` is a block of one.
"""

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    DegenerateSpectrumWarning,
    DimensionMismatchError,
    WeightSumError,
    ZeroVectorError,
)
from .util import logsumexp, pairwise_distances, require_finite

WEIGHT_SUM_TOL = 1e-9
SPECTRUM_TIE_TOL = 1e-8


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


# Plain iterations before the Newton finish: enough to leave the far
# field, where a Newton step on the semi-dual buys little.
WARMUP_ITERATIONS = 20
# Newton damping relative to the residual norm, the Armijo constant, and
# the step halvings tried before falling back to a plain iteration.
NEWTON_DAMPING = 1e-3
ARMIJO = 1e-4
MAX_HALVINGS = 30


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-by-row dot products of two stacks of vectors, as one (1, n) @
    (n, 1) product per row: each row gets the bits of its own 1-D dot
    product, whatever the stack around it."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _columns_matched(f: np.ndarray, neg_scaled: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The plans exp(f_i + g_j - C_ij/eps) with g eliminated so that every
    column sums to b_j: column j is b_j times the softmax of f + column j.
    Stacked: f (B, n), neg_scaled (B, n, m), b (B, m)."""
    z = f[:, :, None] + neg_scaled
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e * (b[:, None, :] / e.sum(axis=1, keepdims=True))


def _newton_step(f, plan, a, b):
    """One damped Newton step on the semi-dual for each of a stack of
    problems; returns the stepped f and whether each step was taken (a
    row that is not keeps its f, for the caller to replace).

    F(f) = <f, a> + <g(f), b> with g(f) the column elimination is concave,
    with gradient a - P1 and negative Hessian diag(P1) - P diag(1/b) P^T,
    singular along the constant vector (the gauge f + c, g - c).  The step
    d solves that Hessian plus mu I + 11^T/n, mu = NEWTON_DAMPING |a - P1|,
    for the gradient.  Near the optimum the gain F(f + t d) - F(f) lies
    far below the rounding of F, so it is computed directly as
    t <a, d> - sum_j b_j log(sum_i pi_ij exp(t d_i)), with pi the plan
    divided by b (each column sums to 1).  Each problem backtracks on its
    own t until the Armijo rule holds, for up to MAX_HALVINGS halvings.
    """
    n = a.shape[1]
    eye = np.eye(n)
    row_sums = plan.sum(axis=2)
    grad = a - row_sums
    pi = plan / b[:, None, :]
    hess = row_sums[:, :, None] * eye - pi @ np.swapaxes(plan, 1, 2)
    damping = NEWTON_DAMPING * np.sqrt(_dot(grad, grad))
    hess += damping[:, None, None] * eye + 1.0 / n
    step = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    slope = _dot(grad, step)
    a_step = _dot(a, step)
    stepped = f.copy()
    taken = np.zeros(f.shape[0], dtype=bool)
    t = np.ones(f.shape[0])
    search = np.flatnonzero(slope > 0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(MAX_HALVINGS):
            if search.size == 0:
                break
            ts = t[search]
            move = ts[:, None] * step[search]
            shift = (np.swapaxes(pi[search], 1, 2) @ np.expm1(move)[:, :, None])[:, :, 0]
            gain = ts * a_step[search] - _dot(b[search], np.log1p(shift))
            # a column whose mass underflows gives an infinite gain: too far
            ok = np.isfinite(gain) & (gain >= ARMIJO * ts * slope[search])
            won = search[ok]
            stepped[won] = f[won] + move[ok]
            taken[won] = True
            search = search[~ok]
            t[search] *= 0.5
    return stepped, taken


def _solve_stacked(neg_scaled, a, b, max_iter: int, tol: float):
    """The solver behind ``sinkhorn`` on a stack of B problems at once.

    neg_scaled (B, n, m) holds -C/eps, a (B, n) and b (B, m) the
    marginals, all entries positive when max_iter > 0.  Every problem
    keeps its own stopping test, iteration count and fallback step: the
    problems still iterating form a working set, and one leaves it as
    soon as it stops.  Every operation acts on each problem's rows alone,
    so a problem's result does not depend on the others or on B.
    Returns the plans (B, n, m), the iterations used (B,) and the
    marginal errors (B,).
    """
    count = neg_scaled.shape[0]
    iterations = np.zeros(count, dtype=np.int64)
    if max_iter == 0:
        plan = np.exp(neg_scaled)
        error = np.maximum(
            np.abs(plan.sum(axis=2) - a).max(axis=1), np.abs(plan.sum(axis=1) - b).max(axis=1)
        )
        return plan, iterations, error
    plan = np.empty_like(neg_scaled)
    error = np.empty(count)
    # The working set: problem numbers and their slices of every operand.
    # All of its problems have run the same number of iterations.
    work = [np.arange(count), neg_scaled, a, b, np.log(a), np.log(b)]

    def settle(done, plans, errors, it):
        """Record the problems marked ``done`` as stopped after ``it``
        iterations and drop them from the working set; returns the mask
        of the problems kept."""
        at = work[0][done]
        plan[at], error[at], iterations[at] = plans, errors[done], it
        keep = ~done
        work[:] = [x[keep] for x in work]
        return keep

    # Warm-up.  These log-sum-exps need none of logsumexp's guards: every
    # entry of a and b is positive here, so every column of f + neg_scaled
    # and every row of g + neg_scaled has a finite maximum.
    row_lse = logsumexp(neg_scaled, axis=2)
    for it in range(1, min(max_iter, WARMUP_ITERATIONS) + 1):
        _, ns, aw, _, log_a, log_b = work
        f = log_a - row_lse
        z = f[:, :, None] + ns
        z_max = z.max(axis=1)
        g = log_b - z_max - np.log(np.exp(z - z_max[:, None, :]).sum(axis=1))
        z = g[:, None, :] + ns
        z_max = z.max(axis=2)
        row_lse = z_max + np.log(np.exp(z - z_max[:, :, None]).sum(axis=2))
        err = np.abs(np.exp(f + row_lse) - aw).max(axis=1)
        done = (err <= tol) | (it == max_iter)
        if done.any():
            # a solve the warm-up ends returns the plain loop's plan bit for bit
            plans = np.exp(f[done][:, :, None] + g[done][:, None, :] + ns[done])
            keep = settle(done, plans, err, it)
            f, row_lse = f[keep], row_lse[keep]
        if work[0].size == 0:
            return plan, iterations, error

    # Newton finish.
    _, ns, aw, bw, _, _ = work
    p = _columns_matched(f, ns, bw)
    err = np.abs(p.sum(axis=2) - aw).max(axis=1)
    while True:
        done = (err <= tol) | (it == max_iter)
        if done.any():
            keep = settle(done, p[done], err, it)
            f, p = f[keep], p[keep]
            if work[0].size == 0:
                return plan, iterations, error
        it += 1
        _, ns, aw, bw, log_a, log_b = work
        stepped, taken = _newton_step(f, p, aw, bw)
        if not taken.all():
            # a failed backtracking is replaced by one warm-up iteration
            back = ~taken
            g = log_b[back] - logsumexp(f[back][:, :, None] + ns[back], axis=1)
            stepped[back] = log_a[back] - logsumexp(g[:, None, :] + ns[back], axis=2)
        f = stepped
        p = _columns_matched(f, ns, bw)
        err = np.abs(p.sum(axis=2) - aw).max(axis=1)


def sinkhorn(
    cost: np.ndarray, epsilon: float, max_iter: int = 1000, tol: float = 1e-9
) -> TransportPlan:
    """Entropic OT between uniform marginals a = 1/n and b = 1/m under the
    (n, m) ``cost``.

    With the potentials f, g kept divided by eps, the plan is
    exp(f_i + g_j - C_ij/eps).  Two phases share the budget of
    ``max_iter`` iterations:

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
    error is the marginal error.

    This is the stacked solver ``score_block`` runs on many problems at
    once (batched as in Peyre & Cuturi 2019, "Computational Optimal
    Transport", section 4), applied to a stack of one.

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
    plans, iterations, errors = _solve_stacked(
        (-cost / epsilon)[None], np.full((1, n), 1.0 / n), np.full((1, m), 1.0 / m),
        max_iter, tol,
    )
    error = float(errors[0])
    return TransportPlan(plans[0], epsilon, int(iterations[0]), error, error <= tol)


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
    return weight.sum(axis=0)[:, None] * aug - weight.T @ orig


def procrustes_map(orig: np.ndarray, aug: np.ndarray):
    """Orthogonal map W minimizing ||aug @ W - orig||_F.

    Returns (w, singular_values, u, vt) from the SVD of aug^T @ orig,
    singular values in descending order.  W = U V^T depends only on the
    factors, so rescaling either cloud leaves it unchanged.
    """
    orig, aug = _paired(orig, aug)
    u, s, vt = np.linalg.svd(aug.T @ orig)
    return u @ vt, s, u, vt


def _core_spectrum(orig: np.ndarray, aug: np.ndarray, tail_count: int):
    """Singular values of M = aug^T @ orig without a d x d factorization.

    With thin QRs aug^T = Q_a R_a and orig^T = Q_o R_o, M = Q_a (R_a R_o^T)
    Q_o^T, so the SVD of the r x r core (r = min(n, d)) holds every
    nonzero singular value; the other d - r are structural zeros.
    Returns (s, u, vt, k): the core's r singular values in descending
    order, their thin factors u = Q_a U_c (d, r) and vt = V_c^T Q_o^T
    (r, d), and k, how many of the min(tail_count, d) smallest of all d
    singular values are core values.  The structural zeros come first in
    the tail and add nothing to the loss or the gradient; k is below 1
    when they fill it.
    """
    q_a, r_a = np.linalg.qr(aug.T)
    q_o, r_o = np.linalg.qr(orig.T)
    u_c, s, vt_c = np.linalg.svd(r_a @ r_o.T)
    d = orig.shape[1]
    return s, q_a @ u_c, vt_c @ q_o.T, min(tail_count, d) - (d - s.size)


def _tail(s: np.ndarray, tail_count: int) -> tuple[np.ndarray, bool]:
    """The indices of the k = min(tail_count, len(s)) smallest values of
    the 1-D float64 array s, ascending by value, and whether two of those
    values are near-tied (gap below SPECTRUM_TIE_TOL).  Values at or below
    SPECTRUM_TIE_TOL never count as tied: a zero singular value adds
    nothing to the loss or the gradient, whichever vectors go with it."""
    if s.ndim != 1 or s.size == 0:
        raise ValueError("singular values must be a nonempty 1-D array")
    if tail_count < 1:
        raise ValueError(f"tail_count must be at least 1, got {tail_count}")
    idx = np.argsort(s)[:tail_count]
    tail = s[idx]
    live = tail[tail > SPECTRUM_TIE_TOL]
    return idx, bool(live.size >= 2 and np.min(np.diff(live)) < SPECTRUM_TIE_TOL)


def eig_shrinkage_loss(
    singular_values: np.ndarray, tail_count: int, eta: float
) -> float:
    """Negative eta-weighted energy of the k smallest singular values.

    Minimizing it inflates the weakest directions of the cross-covariance
    between the two clouds.  A near-tie (gap below 1e-8) between two
    values of the selected tail above 1e-8 makes the corresponding
    singular vectors ambiguous, so that case is flagged with a
    DegenerateSpectrumWarning; ties among (numerically) zero values add
    nothing to the loss or its gradient and are not flagged.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    idx, tied = _tail(s, tail_count)
    if tied:
        warnings.warn(
            f"near-tied singular values in the {idx.size} smallest; "
            "their singular vectors, and hence the gradient, are not unique",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
    return float(-eta * np.sum(s[idx] ** 2))


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
    and the chain rule through M gives orig @ (d loss / d M)^T.  The
    product is taken through the k tail directions, O(n d k), without
    forming the d x d matrix d loss / d M.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    idx, _ = _tail(s, tail_count)
    orig = np.asarray(orig, dtype=np.float64)
    return -2.0 * eta * ((orig @ vt[idx, :].T) * s[idx]) @ u[:, idx].T


POOL_NORM_TOL = 1e-12


def distance_shrinkage(orig: np.ndarray, aug: np.ndarray) -> tuple[float, np.ndarray]:
    """One minus the cosine similarity of the mean-pooled clouds, and its
    gradient in the augmented rows.

    The cosine in the loss is clamped into [-1, 1] against rounding, so
    the loss always lands in [0, 2].  Every row gets the same 1/n share of
    the gradient in the pooled vector, since pooling is a plain mean.
    """
    aug = np.asarray(aug, dtype=np.float64)
    o = np.asarray(orig, dtype=np.float64).mean(axis=0)
    g = aug.mean(axis=0)
    no = np.linalg.norm(o)
    ng = np.linalg.norm(g)
    if no < POOL_NORM_TOL or ng < POOL_NORM_TOL:
        raise ZeroVectorError("mean-pooled embedding has near-zero norm")
    cos = (o @ g) / (no * ng)
    grad_pool = -(o / (no * ng) - cos * g / ng**2)
    grad = np.tile(grad_pool / aug.shape[0], (aug.shape[0], 1))
    if np.array_equal(o, g):
        # bit-identical pools are exactly parallel; skip the division so
        # the loss is an exact zero rather than an ulp above it
        return 0.0, grad
    return 1.0 - min(1.0, max(-1.0, float(cos))), grad


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
        if not (0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (0 <= self.eta < math.inf):
            raise ValueError(f"eta must be nonnegative and finite, got {self.eta}")
        if self.tail_count < 1:
            raise ValueError(f"tail_count must be at least 1, got {self.tail_count}")
        if not (0 < self.power < math.inf):
            raise ValueError(f"power must be positive and finite, got {self.power}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if not (0 <= self.tol < math.inf):
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol}")


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


# The most pairs ``psda loss`` passes to one score_block call.
BLOCK_PAIRS = 64


def _term_breakdown(orig, aug, l_ot, g_ot, iterations, error, params, task_loss):
    """The spectral and direction terms of one pair, blended with its
    transport term into a LossBreakdown."""
    s, u, vt, k = _core_spectrum(orig, aug, params.tail_count)
    if k < 1:
        l_eig, g_eig = -0.0, np.zeros_like(aug)
    else:
        l_eig = eig_shrinkage_loss(s, k, params.eta)
        g_eig = eig_shrinkage_gradient(orig, u, vt, s, k, params.eta)

    l_dis, g_dis = distance_shrinkage(orig, aug)

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
        tail_count=min(params.tail_count, orig.shape[1]),
        sinkhorn_iterations=int(iterations),
        sinkhorn_marginal_error=float(error),
        sinkhorn_converged=bool(error <= params.tol),
    )


# Huge finite entries can overflow the solver's marginal check and the
# spectral terms.  The pair's loss then comes out non-finite, which
# ``psda loss`` reports as its one error line; numpy's warnings would
# only repeat it on stderr first.
@np.errstate(over="ignore", invalid="ignore")
def score_block(
    origs,
    augs,
    params: OtParams = OtParams(),
    task_loss: float = 0.0,
) -> list[LossBreakdown]:
    """Evaluate all terms for a block of pairs that share one shape (n, d).

    ``origs`` and ``augs`` are equal-length sequences of (n, d) clouds (a
    (B, n, d) array is one).  The transport solve runs on the whole block
    at once, through the stacked solver behind ``sinkhorn``; the
    distances, the transport gradient and the spectral and direction
    terms run pair by pair.  The solver acts on each pair's own rows, so a
    pair's breakdown is bit for bit the same alone, in any block, and at
    any place in it.  Returns one LossBreakdown per pair, in order.
    """
    pairs = [_paired(o, a) for o, a in zip(origs, augs, strict=True)]
    if not pairs:
        raise ValueError("a block needs at least one pair")
    shape = pairs[0][0].shape
    if len(shape) != 2 or shape[0] == 0:
        raise ValueError("clouds must be nonempty 2-D arrays")
    for orig, _ in pairs:
        if orig.shape != shape:
            raise DimensionMismatchError(
                f"a block holds clouds of one shape, got {shape} and {orig.shape}"
            )
    count = len(pairs)
    dist = np.stack([pairwise_distances(o, a) for o, a in pairs])
    cost = dist if params.power == 1.0 else dist**params.power
    require_finite(cost, "cost matrix")
    uniform = np.full((count, shape[0]), 1.0 / shape[0])
    plan, iterations, error = _solve_stacked(
        -cost / params.epsilon, uniform, uniform, params.max_iter, params.tol
    )
    l_ot = (plan * cost).reshape(count, -1).sum(axis=1)
    return [
        _term_breakdown(
            o, a, float(l_ot[i]), _ot_gradient(o, a, plan[i], dist[i], params.power),
            iterations[i], error[i], params, task_loss,
        )
        for i, (o, a) in enumerate(pairs)
    ]


def affinity_regularization(
    orig: np.ndarray,
    aug: np.ndarray,
    params: OtParams = OtParams(),
    task_loss: float = 0.0,
) -> LossBreakdown:
    """Evaluate all terms between paired original and augmented clouds:
    ``score_block`` on a block of one."""
    return score_block([orig], [aug], params, task_loss)[0]
