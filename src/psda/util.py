"""Small shared helpers: stable seed derivation, finiteness checks and a
stable log-sum-exp."""

import hashlib

import numpy as np

from .errors import NonFiniteInputError


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
