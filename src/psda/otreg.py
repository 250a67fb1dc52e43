"""Affinity regularization between original and augmented embeddings.

Three terms, each a function returning (loss, gradient in the augmented
rows):

* ``transport_term``: an entropic optimal-transport cost between the two
  point clouds, differentiated with the converged plan held fixed,
* ``spectral_term``: a shrinkage term on the smallest singular values of
  the cross-covariance; a tail that covers all d values is the whole
  Frobenius energy, in closed form, and a shorter one is taken from thin
  factors of rank at most the number of rows, and
* ``distance_shrinkage``: one minus the cosine similarity of the
  mean-pooled rows.

The three are blended with convex weights, then blended again with a
task loss.  Both weight vectors must sum to one.

``score_block`` evaluates a block of pairs that share a width and a
padded length (the length rounded up to a multiple of BUCKET_WIDTH): the
Sinkhorn solve is stacked across the block, each problem padded with
rows and columns of zero mass, everything else runs pair by pair, and
the blended gradient is formed only when it is asked for.  A pair's
result depends only on its own clouds and its padded length, so it is
bit for bit the same in any block; ``sinkhorn`` pads the same way,
``affinity_regularization`` is a block of one, and ``score_pairs``
scores any sequence of pairs in such blocks.
"""

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import (
    DegenerateSpectrumWarning,
    DimensionMismatchError,
    PsdaError,
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


# Newton damping relative to the residual norm, the Armijo constant, and
# the step halvings tried before falling back to a plain iteration.
NEWTON_DAMPING = 1e-3
ARMIJO = 1e-4
MAX_HALVINGS = 30

# Stacked solves pad each problem's rows and columns up to the next
# multiple of this, so problems of nearby sizes share a stack.
BUCKET_WIDTH = 8


def _padded(size: int) -> int:
    """``size`` rounded up to the next multiple of BUCKET_WIDTH."""
    return -(-size // BUCKET_WIDTH) * BUCKET_WIDTH


def _padded_stack(mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2-D arrays of one padded size, zero-filled into a (B, N, M) stack;
    returns the stack and each array's rows and columns."""
    rows = np.array([x.shape[0] for x in mats])
    cols = np.array([x.shape[1] for x in mats])
    stack = np.zeros((len(mats), _padded(rows.max()), _padded(cols.max())))
    for i, x in enumerate(mats):
        stack[i, : x.shape[0], : x.shape[1]] = x
    return stack, rows, cols


class _Marginals(NamedTuple):
    """Per-problem constants of a padded stack of k problems with n real
    rows and m real columns each: the marginals a = 1/n and b = 1/m in
    full (k, N) and (k, M) rows, zero on the padding, so that each row's
    dot products keep their bits; their logs, 0 on padded rows (whose f
    stays 0) and -inf on padded columns (which so drop out of the
    log-domain iteration); m as a (k, 1, 1) scale; the 11^T/n term, 1/n on
    the real block and zero elsewhere; and which rows are real."""

    a: np.ndarray
    b: np.ndarray
    log_a: np.ndarray
    log_b: np.ndarray
    m: np.ndarray
    ones: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(cls, rows: np.ndarray, cols: np.ndarray, n: int, m: int) -> "_Marginals":
        real_rows = np.arange(n) < rows[:, None]
        real_cols = np.arange(m) < cols[:, None]
        inv_n, inv_m = 1.0 / rows, 1.0 / cols
        return cls(
            np.where(real_rows, inv_n[:, None], 0.0),
            np.where(real_cols, inv_m[:, None], 0.0),
            np.where(real_rows, np.log(inv_n)[:, None], 0.0),
            np.where(real_cols, np.log(inv_m)[:, None], -np.inf),
            cols.astype(np.float64)[:, None, None],
            (real_rows[:, :, None] & real_rows[:, None, :]) * inv_n[:, None, None],
            real_rows,
        )

    def take(self, keep: np.ndarray) -> "_Marginals":
        return _Marginals(*(x[keep] for x in self))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-by-row dot products of two stacks of vectors, as one (1, n) @
    (n, 1) product per row: each row gets the bits of its own 1-D dot
    product, whatever the stack around it."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _columns_matched(f: np.ndarray, neg_scaled: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The plans exp(f_i + g_j - C_ij/eps) with g eliminated so that every
    column sums to b: column j is b_j times the softmax of f + column j.
    Stacked: f (B, N), neg_scaled (B, N, M), b (B, M).  A padded row is
    -inf in neg_scaled and a padded column zero in its real rows, so both
    come out zero; a real column that is all -inf comes out NaN."""
    z = f[:, :, None] + neg_scaled
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z, out=z)
    e *= b[:, None, :] / e.sum(axis=1, keepdims=True)
    return e


def _newton_step(f, plan, row_sums, marg: _Marginals):
    """One damped Newton step on the semi-dual for each of a padded stack
    of problems with marginals a = 1/n and b = 1/m; returns the stepped f
    and whether each step was taken (a row that is not keeps its f, for
    the caller to replace).  ``row_sums`` holds the plans' row sums P1.

    F(f) = <f, a> + <g(f), b> with g(f) the column elimination is concave,
    with gradient a - P1 and negative Hessian diag(P1) - P diag(1/b) P^T,
    singular along the constant vector (the gauge f + c, g - c).  The step
    d solves that Hessian plus mu I + 11^T/n, mu = NEWTON_DAMPING |a - P1|,
    for the gradient.  Near the optimum the gain F(f + t d) - F(f) lies
    far below the rounding of F, so it is computed directly as
    t <a, d> - sum_j b_j log(sum_i pi_ij exp(t d_i)), with pi = m P (each
    column sums to 1).  Each problem backtracks on its own t until the
    Armijo rule holds, for up to MAX_HALVINGS halvings.

    The matrix is formed in place: 1/n - (P diag(1/b) P^T)_ij off the
    diagonal and (P1_i - (P diag(1/b) P^T)_ii) + (mu + 1/n) on it, the
    bits of diag(P1) - P diag(1/b) P^T + mu I + 11^T/n summed in that
    order for any plan without a NaN.  A padded row carries no mass: it
    has a zero gradient, stays out of 11^T/n and gets a unit diagonal, so
    its step is zero and the real rows' system is their own.  A plan with
    a NaN has a NaN gradient and so a NaN slope, and its step is not
    taken, whatever the matrix.
    """
    count, n, _ = plan.shape
    grad = marg.a - row_sums
    pi = plan * marg.m
    damping = NEWTON_DAMPING * np.sqrt(_dot(grad, grad))
    hess = pi @ np.swapaxes(plan, 1, 2)
    diag = np.arange(n)
    diagonal = (row_sums - hess[:, diag, diag]) + (damping[:, None] + marg.a)
    np.subtract(marg.ones, hess, out=hess)
    hess[:, diag, diag] = np.where(marg.rows, diagonal, 1.0)
    step = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    slope = _dot(grad, step)
    a_step = _dot(marg.a, step)
    stepped = f.copy()
    taken = np.zeros(count, dtype=bool)
    t = np.ones(count)
    search = np.flatnonzero(slope > 0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(MAX_HALVINGS):
            if search.size == 0:
                break
            # the whole stack is read in place, a part of it through copies
            part = slice(None) if search.size == count else search
            ts = t[part]
            move = ts[:, None] * step[part]
            shift = (np.swapaxes(pi[part], 1, 2) @ np.expm1(move)[:, :, None])[:, :, 0]
            gain = ts * a_step[part] - _dot(marg.b[part], np.log1p(shift))
            # a column whose mass underflows gives an infinite gain: too far
            ok = np.isfinite(gain) & (gain >= ARMIJO * ts * slope[part])
            if search.size == count and ok.all():
                # every full step holds
                return f + move, np.ones(count, dtype=bool)
            won = search[ok]
            stepped[won] = f[won] + move[ok]
            taken[won] = True
            search = search[~ok]
            t[search] *= 0.5
    return stepped, taken


def _solve_stacked(neg_scaled, rows, cols, max_iter: int, tol: float):
    """The solver behind ``sinkhorn`` on a padded stack of B problems at
    once.

    neg_scaled (B, N, M) holds -C/eps; problem i is its block of rows[i]
    real rows and cols[i] real columns, and its other entries are ignored.
    The marginals are uniform on the real block, a = 1/n and b = 1/m, and
    zero on the padding.  The problems still iterating form a working set.
    One loop serves every iteration: it forms the column-matched plans of
    the working set and their row errors, records the problems that
    stopped (within ``tol``, or out of budget) and drops them, then takes
    one Newton step on the rest, with a log-domain iteration for each
    problem whose backtracking failed.  Padded rows and columns carry no
    mass and take no step, and every operation acts on each problem's rows
    alone, so a problem's result depends only on its own block and on
    (N, M), never on the others or on B.  Returns the plans (B, N, M),
    zero outside each real block unless the plan holds a NaN, the
    iterations used (B,) and the marginal errors (B,).  With ``max_iter = 0`` each plan is the kernel
    exp(-C/eps) and its error covers rows and columns, on the real block.
    """
    count, n, m = neg_scaled.shape
    iterations = np.zeros(count, dtype=np.int64)
    plan = np.zeros_like(neg_scaled)
    error = np.empty(count)
    if max_iter == 0:
        for i, (rows_i, cols_i) in enumerate(zip(rows, cols)):
            kernel = plan[i, :rows_i, :cols_i] = np.exp(neg_scaled[i, :rows_i, :cols_i])
            error[i] = np.maximum(
                np.abs(kernel.sum(axis=1) - 1.0 / rows_i).max(),
                np.abs(kernel.sum(axis=0) - 1.0 / cols_i).max(),
            )
        return plan, iterations, error
    marg = _Marginals.of(rows, cols, n, m)
    real_cols = np.arange(m) < cols[:, None, None]
    # padded rows are -inf and padded columns zero in the real rows, so a
    # column maximum is finite unless a real column is all -inf
    ns = np.where(marg.rows[:, :, None], np.where(real_cols, neg_scaled, 0.0), -np.inf)
    f = np.where(marg.rows, marg.log_a - logsumexp(np.where(real_cols, ns, -np.inf), axis=2), 0.0)
    # the working set: problem numbers, their -C/eps, f and marginals, all
    # of them after the same number of iterations
    at = np.arange(count)
    it = 1
    while True:
        p = _columns_matched(f, ns, marg.b)
        row_sums = p.sum(axis=2)
        err = np.abs(row_sums - marg.a).max(axis=1)
        done = (err <= tol) | (it == max_iter)
        if done.any():
            stop = at[done]
            plan[stop], error[stop], iterations[stop] = p[done], err[done], it
            if done.all():
                return plan, iterations, error
            keep = ~done
            at, ns, f, p, row_sums = at[keep], ns[keep], f[keep], p[keep], row_sums[keep]
            marg = marg.take(keep)
        it += 1
        f, taken = _newton_step(f, p, row_sums, marg)
        if not taken.all():
            # a failed backtracking is replaced by one log-domain iteration;
            # padded rows keep f = 0 and padded columns get g = -inf
            back = ~taken
            nb = ns[back]
            g = marg.log_b[back] - logsumexp(f[back][:, :, None] + nb, axis=1)
            f_new = marg.log_a[back] - logsumexp(g[:, None, :] + nb, axis=2)
            f[back] = np.where(marg.rows[back], f_new, 0.0)


def sinkhorn(
    cost: np.ndarray, epsilon: float, max_iter: int = 1000, tol: float = 1e-9
) -> TransportPlan:
    """Entropic OT between uniform marginals a = 1/n and b = 1/m under the
    (n, m) ``cost``.

    With the potentials f, g kept divided by eps, the plan is
    exp(f_i + g_j - C_ij/eps), and g is always eliminated by the column
    log-sum-exp, so every column matches b.  The first iteration is the
    first log-domain Sinkhorn iteration from g = 0,

        f = log a - logsumexp_j(-C_ij/eps),

    and every later one a damped Newton step on the semi-dual in f
    (Brauer, Clason, Lorenz & Wirth 2017, "A Sinkhorn-Newton method for
    entropic optimal transport").  Each step solves a linear system and
    backtracks with an Armijo rule; a step whose backtracking fails is
    replaced by one log-domain iteration,

        g = log b - logsumexp_i(f_i - C_ij/eps)
        f = log a - logsumexp_j(g_j - C_ij/eps),

    the scaling iteration u = a / (K v), v = b / (K^T u) kept finite where
    K = exp(-C/eps) underflows.  The solve stops as soon as the row error
    of the plan is within ``tol``; the columns match b up to rounding, so
    the row error is the marginal error.  ``max_iter`` counts the first
    iteration and the Newton steps together.

    This is the stacked solver ``score_block`` runs on many problems at
    once (batched as in Peyre & Cuturi 2019, "Computational Optimal
    Transport", section 4), applied to a stack of one.  The problem is
    padded as there, with rows and columns of zero mass up to the next
    multiples of BUCKET_WIDTH, so its plan has the bits it has in any
    block.

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
    stack, rows, cols = _padded_stack([cost])
    plans, iterations, errors = _solve_stacked(-stack / epsilon, rows, cols, max_iter, tol)
    error = float(errors[0])
    return TransportPlan(plans[0, :n, :m], epsilon, int(iterations[0]), error, error <= tol)


def ot_loss(plan: TransportPlan | np.ndarray, cost: np.ndarray) -> float:
    """Transport cost of the plan: the Frobenius inner product with C."""
    p = plan.plan if isinstance(plan, TransportPlan) else np.asarray(plan)
    if p.shape != cost.shape:
        raise DimensionMismatchError(f"plan shape {p.shape} vs cost shape {cost.shape}")
    return float(np.sum(p * cost))


def transport_term(
    orig: np.ndarray,
    aug: np.ndarray,
    plan: TransportPlan | np.ndarray,
    power: float = 1.0,
) -> tuple[float, np.ndarray]:
    """<P, C> and its gradient in the augmented rows, with the plan held
    fixed at its converged value.

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
    cost = dist if power == 1.0 else dist**power
    return ot_loss(p, cost), _transport_gradient(orig, aug, p, dist, power)


def _transport_gradient(orig, aug, plan, dist, power):
    """The gradient of transport_term given the pairwise distances of the
    two clouds."""
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
    the 1-D float64 array s, ascending by value, and whether the tail's
    boundary is near-tied: s_(k+1) above SPECTRUM_TIE_TOL and within it
    of s_(k).  Ties inside the tail leave the gradient unique, and a tail
    that holds every value has no boundary."""
    if s.ndim != 1 or s.size == 0:
        raise ValueError("singular values must be a nonempty 1-D array")
    if tail_count < 1:
        raise ValueError(f"tail_count must be at least 1, got {tail_count}")
    order = np.argsort(s)
    idx = order[:tail_count]
    if idx.size == s.size:
        return idx, False
    inside, outside = s[idx[-1]], s[order[idx.size]]
    return idx, bool(outside > SPECTRUM_TIE_TOL and outside - inside < SPECTRUM_TIE_TOL)


def eig_shrinkage_loss(
    singular_values: np.ndarray, tail_count: int, eta: float
) -> float:
    """Negative eta-weighted energy of the k smallest singular values.

    Minimizing it inflates the weakest directions of the cross-covariance
    between the two clouds.  When the smallest value left out of the tail
    is above 1e-8 and within 1e-8 of the largest value in it, the loss
    has a kink there: which directions are penalized, and so the
    gradient, is not unique.  That case is flagged with a
    DegenerateSpectrumWarning.  Ties inside the tail, and ties among
    (numerically) zero values, leave the gradient unique and are not.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    idx, tied = _tail(s, tail_count)
    if tied:
        warnings.warn(
            f"the singular values at the edge of the {idx.size} smallest are near-tied; "
            "which directions are penalized, and hence the gradient, is not unique",
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


def spectral_term(
    orig: np.ndarray, aug: np.ndarray, tail_count: int, eta: float, keep_grads: bool = True
) -> tuple[float, np.ndarray | None]:
    """The shrinkage loss over the singular values of M = aug^T @ orig,
    and its gradient in the augmented rows (None without ``keep_grads``).

    A tail that holds all d values (tail_count >= d) sums the whole
    energy ||M||_F^2 = <aug, orig orig^T aug>, whose gradient in aug is
    2 orig orig^T aug: no factorization, and no tie test, since such a
    tail has no boundary.  A shorter tail is taken over the core spectrum
    (``_core_spectrum``); one that holds only structural zeros gives a
    zero term.
    """
    orig = np.asarray(orig, dtype=np.float64)
    aug = np.asarray(aug, dtype=np.float64)
    n, d = orig.shape
    if tail_count >= d:
        pulled = orig @ (orig.T @ aug) if n > d else (orig @ orig.T) @ aug
        loss = float(-eta * np.sum(aug * pulled))
        return loss, -2.0 * eta * pulled if keep_grads else None
    s, u, vt, k = _core_spectrum(orig, aug, tail_count)
    if k < 1:
        return -0.0, np.zeros_like(aug) if keep_grads else None
    loss = eig_shrinkage_loss(s, k, eta)
    return loss, eig_shrinkage_gradient(orig, u, vt, s, k, eta) if keep_grads else None


POOL_NORM_TOL = 1e-12


def distance_shrinkage(orig: np.ndarray, aug: np.ndarray) -> tuple[float, np.ndarray]:
    """One minus the cosine similarity of the mean-pooled clouds, and its
    gradient in the augmented rows.

    The cosine in the loss is clamped into [-1, 1] against rounding, so
    the loss always lands in [0, 2].  Every row gets the same 1/n share of
    the gradient in the pooled vector, since pooling is a plain mean, so
    the gradient is a read-only (n, d) broadcast view of that one row:
    no n x d array is built for a caller that drops it.  Its values, and
    so the blended gradient and ``--grad-out``, are the bits an n x d
    copy would hold.
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
    grad = np.broadcast_to(grad_pool / aug.shape[0], aug.shape)
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


# The blends score_block forms, for weights ``OtParams`` checked; each
# weight is taken as a float, as the checks return it.
def _blend_reg(ot: float, eig: float, dis: float, rho) -> float:
    return float(rho[0]) * ot + float(rho[1]) * eig + float(rho[2]) * dis


def _blend_total(task: float, reg: float, lam) -> float:
    return float(lam[0]) * task + float(lam[1]) * reg


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
    rows, or None when it was not asked for; the total-loss gradient is
    ``lam[1]`` times it, since the task loss does not depend on the
    augmented embeddings here.
    """

    loss_ot: float
    loss_eig: float
    loss_dis: float
    loss_reg: float
    loss_total: float
    task_loss: float
    grad_augmented: np.ndarray | None
    rho: tuple[float, float, float]
    lam: tuple[float, float]
    tail_count: int
    sinkhorn_iterations: int = 0
    sinkhorn_marginal_error: float = 0.0
    sinkhorn_converged: bool = True


# The most pairs ``score_pairs`` passes to one score_block call; the
# length they share is padded to a multiple of BUCKET_WIDTH.
BLOCK_PAIRS = 64


def _term_breakdown(orig, aug, plan, dist, cost, iterations, error, params, task_loss, keep_grads):
    """The three terms of one pair, blended into a LossBreakdown; the
    transport and spectral gradients and the blend only with
    ``keep_grads``."""
    l_ot = ot_loss(plan, cost)
    l_eig, g_eig = spectral_term(orig, aug, params.tail_count, params.eta, keep_grads)
    l_dis, g_dis = distance_shrinkage(orig, aug)

    # OtParams checked its weights when it was made
    l_reg = _blend_reg(l_ot, l_eig, l_dis, params.rho)
    l_total = _blend_total(task_loss, l_reg, params.lam)
    grad = None
    if keep_grads:
        g_ot = _transport_gradient(orig, aug, plan, dist, params.power)
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
    keep_grads: bool = True,
) -> list[LossBreakdown]:
    """Evaluate all terms for a block of pairs that share a width d and a
    padded length: n rounded up to the next multiple of BUCKET_WIDTH.

    ``origs`` and ``augs`` are equal-length sequences of (n, d) clouds (a
    (B, n, d) array is one), each pair of one shape.  The transport solve
    runs on the whole block at once, through the stacked solver behind
    ``sinkhorn``, with every pair's cost padded to the block's size; the
    distances and the three terms run pair by pair on the real rows.
    Without ``keep_grads`` the transport and spectral gradients and the
    blend are skipped and ``grad_augmented`` is None; the losses are the
    same bits either way.  A pair's solve depends only on its own cost and
    its padded size, so its breakdown is bit for bit the same alone, in
    any block, and at any place in it.  Returns one LossBreakdown per
    pair, in order.
    """
    pairs = [_paired(o, a) for o, a in zip(origs, augs, strict=True)]
    if not pairs:
        raise ValueError("a block needs at least one pair")
    shape = pairs[0][0].shape
    if len(shape) != 2 or shape[0] == 0:
        raise ValueError("clouds must be nonempty 2-D arrays")
    for orig, _ in pairs:
        if _bucket(orig.shape) != _bucket(shape):
            raise DimensionMismatchError(
                f"a block holds clouds of one width and one padded length, got {shape} "
                f"and {orig.shape}"
            )
    dist = [pairwise_distances(o, a) for o, a in pairs]
    cost = dist if params.power == 1.0 else [x**params.power for x in dist]
    stack, rows, cols = _padded_stack(cost)
    require_finite(stack, "cost matrix")
    plan, iterations, error = _solve_stacked(
        -stack / params.epsilon, rows, cols, params.max_iter, params.tol
    )
    return [
        _term_breakdown(
            o, a, plan[i, : len(o), : len(a)], dist[i], cost[i], iterations[i], error[i],
            params, task_loss, keep_grads,
        )
        for i, (o, a) in enumerate(pairs)
    ]


def _bucket(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The padded length and the other dimensions of a cloud's shape."""
    return (_padded(shape[0]), *shape[1:]) if shape else shape


def score_pairs(pairs, params: OtParams, keep_grads: bool):
    """Score (orig, aug) matrix pairs in blocks that share a padded shape
    and yield each pair's breakdown in input order.

    Blocks hold up to BLOCK_PAIRS pairs of one width whose lengths round
    up to the same multiple of BUCKET_WIDTH, taken in input order, and are
    scored in the order of their first pair; a pair's result waits only
    for the pairs before it.  A block that raises is scored again one pair
    at a time, so an error is raised at the pair that caused it, once
    every pair before it has been yielded.  Since a pair's breakdown does
    not depend on its block, that changes no other pair's result.  Without
    ``keep_grads`` no gradient is formed (``score_block``), and every
    breakdown's ``grad_augmented`` is None.
    """
    errors = (PsdaError, ValueError, MemoryError)
    groups = {}
    for i, (orig, aug) in enumerate(pairs):
        groups.setdefault((_bucket(orig.shape), _bucket(aug.shape)), []).append(i)
    blocks = sorted(
        (
            idx[s : s + BLOCK_PAIRS]
            for idx in groups.values()
            for s in range(0, len(idx), BLOCK_PAIRS)
        ),
        key=lambda block: block[0],
    )
    done = {}
    ready = 0
    for block in blocks:
        try:
            results = score_block(
                [pairs[i][0] for i in block],
                [pairs[i][1] for i in block],
                params,
                keep_grads=keep_grads,
            )
        except errors:
            results = []
            for i in block:
                try:
                    results.append(
                        score_block([pairs[i][0]], [pairs[i][1]], params, keep_grads=keep_grads)[0]
                    )
                except errors as exc:
                    # the pairs after it are never reached
                    results.append(exc)
                    break
        done.update(zip(block, results))
        while ready in done:
            result = done.pop(ready)
            if isinstance(result, Exception):
                raise result
            yield result
            ready += 1


def affinity_regularization(
    orig: np.ndarray,
    aug: np.ndarray,
    params: OtParams = OtParams(),
    task_loss: float = 0.0,
) -> LossBreakdown:
    """Evaluate all terms between paired original and augmented clouds:
    ``score_block`` on a block of one."""
    return score_block([orig], [aug], params, task_loss)[0]
