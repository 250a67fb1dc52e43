"""Seeded, deterministic Gaussian mixture fitting by EM.

Diagonal or spherical covariances only: the clustering stages operate in
POS-augmented spaces of several hundred dimensions, where full covariance
is ill-conditioned at the sample sizes involved.  Responsibilities are
computed in the log domain (log-sum-exp) so high-dimensional densities do
not underflow, and variances are floored so duplicated points cannot
produce singular components.

Both EM steps run as matrix products over all components at once: the
E-step expands the Mahalanobis term and the M-step takes variances as
E[x^2] - mean^2.  Each expansion is taken about the mean of the component
means, and the few entries whose digits cancel are recomputed from the
differences, so results match the direct per-component sums to rounding.
The origin depends on the means alone, so the centred points are formed
once per parameter set: the M-step's variances and the next E-step share
them.  A fit allocates the centred points and their squares once and
refills them in place at each step, and each E-step works in the (n, k)
outputs of its two matrix products, in rewrites that keep every bit.

k-means++ seeding takes each new centre's squared distances from one
matrix-vector product, |x|^2 + |c|^2 - 2 x.c about the mean of the
points, and sums the cancelled entries again from the differences, so
duplicates of a chosen point get an exact zero.  Its draws match the
difference form's, which the tests check index for index.

Subnormal floats (below 2^-1022) cost a microcode assist on some CPUs in
every operation that reads or writes one, and EM on well-separated points
makes thousands of them per step: responsibilities of points far from a
component.  So a responsibility whose log is below ``LOG_TINY`` enters the
M-step as an exact zero, taken as exp(-inf), and ``logsumexp`` flushes its
terms the same way.  The flush applies only in a component whose largest
responsibility is at least 2^-900.  A flushed one is below 2^-1022, over
2^120 times smaller, so in the column's sums for the weights, means and
variances it is under half an ulp of the partial sums it would join and
rounds away: no bit changes, which the tests check against the unflushed
loop.  A "dead" component, with no responsibility that large, keeps the
unflushed arithmetic: flushing its column would zero its count and move
its mean to 0 / tiny.

Everything is a pure function of (points, config); the same seed yields a
bit-identical model.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, TooFewPointsError
from .util import CANCELLATION_SHARE, LOG_TINY, logsumexp, require_finite

_LOG_2PI = np.log(2.0 * np.pi)
# An expanded Mahalanobis term below this fraction of its raw terms, or an
# expanded variance below this fraction of its raw second moment, has lost
# too many digits to cancellation and is recomputed from the differences.
_DENSITY_CANCEL = 1e-6
_VARIANCE_CANCEL = 1e-8
# A component whose largest responsibility reaches exp(_LIVE_LOG) = 2^-900
# takes its subnormal responsibilities as exact zeros.
_LIVE_LOG = math.log(2.0**-900)


@dataclass(frozen=True)
class GmmConfig:
    k: int
    covariance: str = "diagonal"
    max_iter: int = 200
    tol: float = 1e-6
    cov_floor: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.covariance not in ("diagonal", "spherical"):
            raise ValueError(f"covariance must be diagonal or spherical, got {self.covariance!r}")
        if not (0 < self.tol < math.inf):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not (0 < self.cov_floor < math.inf):
            raise ValueError(f"cov_floor must be positive and finite, got {self.cov_floor}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class GmmModel:
    """Fitted mixture: per-component means/variances/weights plus the hard
    assignment of every training point."""

    means: np.ndarray            # (k, d)
    variances: np.ndarray        # (k, d) diagonal or (k,) spherical
    mixing_weights: np.ndarray   # (k,)
    assignments: np.ndarray      # (n,) int
    log_likelihood_trace: list[float] = field(default_factory=list)
    covariance: str = "diagonal"
    # whether EM stopped at ``tol`` rather than at ``max_iter``; set by
    # gmm_fit, not saved with a model, so a loaded model leaves it None
    converged: bool | None = None

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _check_points(points: np.ndarray, k: int) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DimensionMismatchError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if n < k:
        raise TooFewPointsError(f"{n} points cannot support {k} components")
    require_finite(points, "points")
    return points


def _kmeanspp_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007): D^2-weighted draws
    over point indices.

    Each new centre's squared distances come from one matrix-vector
    product, as |x|^2 + |c|^2 - 2 x.c over the points centred on their
    mean.  Entries that keep less than CANCELLATION_SHARE of |x|^2 + |c|^2
    are summed again from the difference, as in ``pairwise_distances``, so
    the chosen point and its duplicates get an exact 0 and are never drawn
    again.  The rest differ from the difference form in the last bits
    only, which moves a draw only if the uniform variate lands within
    those bits of a boundary of the cumulative weights.
    """
    n = points.shape[0]
    x = points - points.mean(axis=0)
    norms = np.einsum("ij,ij->i", x, x)

    def sq_dist(idx):
        raw = norms + norms[idx]
        d2 = x @ x[idx]
        d2 *= -2.0
        d2 += raw
        raw *= CANCELLATION_SHARE
        rows = np.flatnonzero(d2 <= raw)
        diff = points[rows] - points[idx]
        d2[rows] = np.einsum("ij,ij->i", diff, diff)
        return d2

    chosen = [int(rng.integers(n))]
    d2 = sq_dist(chosen[0])
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        np.minimum(d2, sq_dist(idx), out=d2)
    return points[chosen].copy()


def seed_initialization(points: np.ndarray, cfg: GmmConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic initial (means, variances, mixing_weights).

    Means come from k-means++ seeding, mixing weights start uniform, and
    variances start at the global per-dimension variance (its mean, for
    spherical), floored.  Exposed so reference implementations can run
    from the identical starting point.
    """
    points = _check_points(points, cfg.k)
    rng = np.random.default_rng(cfg.seed)
    means = _kmeanspp_centers(points, cfg.k, rng)
    global_var = np.maximum(points.var(axis=0), cfg.cov_floor)
    if cfg.covariance == "diagonal":
        variances = np.tile(global_var, (cfg.k, 1))
    else:
        variances = np.full(cfg.k, max(float(global_var.mean()), cfg.cov_floor))
    weights = np.full(cfg.k, 1.0 / cfg.k)
    return means, variances, weights


def _centre(points, means, out=None):
    """The points and the means relative to the mean of the means, and the
    squared centred points: the expansion origin of both EM steps.

    ``out``, a pair of arrays shaped like ``points``, receives the centred
    points and their squares in place; without it both are allocated.
    """
    shift = means.mean(axis=0)
    x, xx = (np.empty_like(points), np.empty_like(points)) if out is None else out
    np.subtract(points, shift, out=x)
    np.multiply(x, x, out=xx)
    return x, xx, means - shift


def _log_density(points, means, variances, covariance, centred=None):
    """Per-component log Gaussian densities, shape (n, k).

    The Mahalanobis term is x^2.P - 2 x.(m P) + m^2.P with P the precisions,
    about an origin that depends on the model alone, so in exact arithmetic
    a row's density does not depend on the other rows.  Its rounding does:
    the matrix products may sum in another order for another row count, so
    a one-row call and a batch call can differ in the last bits.  The same
    points give the same bits, and nothing in psda relies on a one-row call
    matching a batch call.  Entries that cancel to below 1e-6 of
    x^2.P + m^2.P are summed from the differences instead.  ``centred`` is
    ``_centre(points, means)`` when the caller already has it.

    The two products' outputs are the only (n, k) arrays: every later step
    works in them in place, in forms that keep each bit (a - 2b is taken
    as (-2b) + a).
    """
    d = points.shape[1]
    var = variances if covariance == "diagonal" else np.repeat(variances[:, None], d, axis=1)
    prec = 1.0 / var
    x, xx, mu = _centre(points, means) if centred is None else centred
    raw = xx @ prec.T
    raw += np.sum(mu * mu * prec, axis=1)
    quad = x @ (mu * prec).T
    quad *= -2.0
    quad += raw
    raw *= _DENSITY_CANCEL
    cancelled = quad <= raw
    for c in np.flatnonzero(cancelled.any(axis=0)):
        rows = np.flatnonzero(cancelled[:, c])
        quad[rows, c] = ((points[rows] - means[c]) ** 2 / var[c]).sum(axis=1)
    quad += d * _LOG_2PI + np.log(var).sum(axis=1)
    quad *= -0.5
    return quad


def _log_responsibilities(points, means, variances, weights, covariance, centred=None):
    with np.errstate(divide="ignore"):
        log_weights = np.log(weights)
    log_joint = _log_density(points, means, variances, covariance, centred)
    log_joint += log_weights
    norm = logsumexp(log_joint, axis=1)
    log_joint -= norm[:, None]
    return log_joint, norm


def _m_step_responsibilities(log_resp: np.ndarray) -> np.ndarray:
    """exp(log_resp), with the entries below LOG_TINY of every component
    whose largest log responsibility reaches _LIVE_LOG as exact zeros."""
    flush = log_resp < LOG_TINY
    flush &= log_resp.max(axis=0) >= _LIVE_LOG
    resp = np.where(flush, -np.inf, log_resp)
    return np.exp(resp, out=resp)


def _m_step_variances(points, resp, means, counts, cfg: GmmConfig, centred) -> np.ndarray:
    """Floored centred second moments, the constrained M-step argmax.

    Taken as E[x^2] - mean^2 about the mean of the component means, from
    ``centred = _centre(points, means)``.  A component where 1e-8 of
    E[x^2] exceeds its floored variance in some dimension is recomputed
    from the differences; the floor is part of the test because a
    dimension shared by every member (zero variance) only needs to land
    below it.
    """
    _, xx, mu = centred
    second = (resp.T @ xx) / counts[:, None]
    sq = second - mu * mu
    cancelled = (_VARIANCE_CANCEL * second > np.maximum(sq, cfg.cov_floor)).any(axis=1)
    for c in np.flatnonzero(cancelled):
        sq[c] = resp[:, c] @ (points - means[c]) ** 2 / counts[c]
    if cfg.covariance == "diagonal":
        return np.maximum(sq, cfg.cov_floor)
    return np.maximum(sq.mean(axis=1), cfg.cov_floor)


def gmm_fit(points, cfg: GmmConfig) -> GmmModel:
    """Run EM from the seeded initialization until ``tol`` or ``max_iter``.

    The log-likelihood trace is non-decreasing (up to float slack); the
    variance floor is part of the M-step's constrained maximization, so
    monotonicity survives flooring.  The model's ``converged`` says
    whether the fit stopped at ``tol``.
    """
    points = _check_points(points, cfg.k)
    n, _ = points.shape
    means, variances, weights = seed_initialization(points, cfg)
    # the centred points and their squares, refilled in place at each step
    buffers = (np.empty_like(points), np.empty_like(points))
    centred = _centre(points, means, buffers)

    trace: list[float] = []
    log_resp = None
    converged = False
    for _ in range(cfg.max_iter):
        log_resp, norm = _log_responsibilities(
            points, means, variances, weights, cfg.covariance, centred
        )
        ll = float(norm.sum())
        trace.append(ll)
        if len(trace) >= 2 and trace[-1] - trace[-2] < cfg.tol:
            converged = True
            break
        resp = _m_step_responsibilities(log_resp)
        counts = resp.sum(axis=0)
        safe_counts = np.maximum(counts, np.finfo(np.float64).tiny)
        weights = counts / n
        means = (resp.T @ points) / safe_counts[:, None]
        centred = _centre(points, means, buffers)
        variances = _m_step_variances(points, resp, means, safe_counts, cfg, centred)
    if not converged:
        # refresh so assignments reflect the final parameters
        log_resp, norm = _log_responsibilities(
            points, means, variances, weights, cfg.covariance, centred
        )
        trace.append(float(norm.sum()))

    assignments = np.argmax(log_resp, axis=1)
    return GmmModel(
        means=means,
        variances=variances,
        mixing_weights=weights,
        assignments=assignments,
        log_likelihood_trace=trace,
        covariance=cfg.covariance,
        converged=converged,
    )
