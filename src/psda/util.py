"""Small shared helpers: stable seed derivation, finiteness checks, a
stable log-sum-exp and the Euclidean distance kernel."""

import hashlib

import numpy as np

from .errors import DimensionMismatchError, NonFiniteInputError

# Squared distances whose Gram expansion keeps less than this share of
# |a|^2 + |b|^2 are summed again from the difference of the rows.
CANCELLATION_SHARE = 1e-3
# Entries recomputed from differences at once, bounding the temporary.
_RECOMPUTE_CHUNK = 512


def derive_seed(base_seed: int, *parts) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    Uses blake2b over the decimal base seed plus the ``repr`` of each part,
    separated by 0x1f, so the result is stable across processes and
    platforms.  Returns an unsigned 64-bit integer.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base_seed)).encode("utf-8"))
    for part in parts:
        h.update(b"\x1f")
        h.update(repr(part).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def require_finite(arr: np.ndarray, what: str) -> None:
    """Raise NonFiniteInputError if ``arr`` contains NaN or Inf."""
    if not np.isfinite(arr).all():
        raise NonFiniteInputError(f"{what} contains NaN or Inf")


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis``, shifted by the maximum so large
    entries do not overflow.  A slice that is all ``-inf`` gives ``-inf``."""
    a_max = np.max(a, axis=axis, keepdims=True)
    a_max[~np.isfinite(a_max)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - a_max), axis=axis, keepdims=True)) + a_max
    return np.squeeze(out, axis=axis)


def pairwise_distances(x, y, center=None) -> np.ndarray:
    """Euclidean distances between the rows of x and the rows of y.

    Takes (n, d) and (m, d) point sets and returns (n, m), or stacks of
    them, (B, n, d) and (B, m, d), and returns (B, n, m), each stack
    entry on its own: a stack entry's distances do not depend on the
    others or on B.

    Uses |a|^2 + |b|^2 - 2 a.b on rows taken relative to ``center``,
    which defaults to the midpoint of the two row means (per stack
    entry).  That default is the same for (x, y) as for (y, x), so
    swapping the arguments transposes the result exactly.  Where the
    expansion keeps less than CANCELLATION_SHARE of |a|^2 + |b|^2 (equal
    and near-equal rows) its digits have cancelled, and the squared
    distance is summed from the difference instead; identical rows give
    an exact zero.  Memory grows as n x m, not n x m x d.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim not in (2, 3) or y.ndim != x.ndim:
        raise ValueError("point sets must be 2-D arrays or equal-length stacks of them")
    if x.shape[-1] != y.shape[-1]:
        raise DimensionMismatchError(f"point sets have dims {x.shape[-1]} and {y.shape[-1]}")
    if x.shape[:-2] != y.shape[:-2]:
        raise DimensionMismatchError(f"stacks of {x.shape[0]} and {y.shape[0]} point sets")
    if center is None:
        center = 0.5 * (x.mean(axis=-2, keepdims=True) + y.mean(axis=-2, keepdims=True))
    xc = x - center
    yc = y - center
    d2 = xc @ np.swapaxes(yc, -1, -2)
    d2 *= -2.0
    raw = np.einsum("...ij,...ij->...i", xc, xc)[..., :, None]
    raw = raw + np.einsum("...ij,...ij->...i", yc, yc)[..., None, :]
    del xc, yc
    d2 += raw
    raw *= CANCELLATION_SHARE
    cancelled = np.nonzero(d2 <= raw)
    for s in range(0, cancelled[0].size, _RECOMPUTE_CHUNK):
        at = tuple(idx[s : s + _RECOMPUTE_CHUNK] for idx in cancelled)
        diff = x[at[:-1]] - y[at[:-2] + at[-1:]]
        d2[at] = np.einsum("ij,ij->i", diff, diff)
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
